"""The loop implementations of the representation layer, kept as the oracle
for the library's array kernels: one small matmul and one max|diff| per
composable pair, per isotropy arrow or per fiber element. Their reports
are the reference, violations in the same order with the same witnesses
and messages; quantize and norm_bound sum in the same order as the
kernels, so their values are the reference bit for bit. Also trivial_rep,
the one-dimensional identity representation, and oracle_stack, the
stack a representation keeps."""

import numpy as np

from convolution_oracle import alpha, beta
from groupoidalg.errors import PreconditionError
from groupoidalg.representation import HilbertBundle, RandomOperator, RepReport, UnitaryRep


def trivial_rep(g, arrows=None):
    """The 1×1 identity on every arrow (on the given arrows), over the
    bundle of one-dimensional fibers."""
    bundle = HilbertBundle((1,) * g.n_base)
    cover = g.arrows() if arrows is None else arrows
    return UnitaryRep(g, bundle, {a: np.eye(1) for a in cover})


def oracle_stack(rep):
    """The unitaries of rep as one zero-padded (n_arrows, D, D) complex
    array, D the largest fiber dimension, and the mask of the arrows
    filled, one arrow at a time: the stack a UnitaryRep keeps."""
    g, dims = rep.groupoid, rep.bundle.dims
    stack = np.zeros((g.n_arrows, max(dims, default=1), max(dims, default=1)), dtype=complex)
    covered = np.zeros(g.n_arrows, dtype=bool)
    for a in rep.U:
        m = rep.U[a]
        assert m.shape == (dims[g.tgt[a]], dims[g.src[a]])
        stack[a, :m.shape[0], :m.shape[1]] = m
        covered[a] = True
    return stack, covered


def _measure(report, diff, tol, condition, witness, message):
    """Fold max|diff| into max_deviation, where a NaN stays NaN; a
    deviation not within tol, NaN included, is a violation."""
    dev = float(np.max(np.abs(diff)))
    if np.isnan(dev) or dev > report.max_deviation:
        report.max_deviation = dev
    if not dev <= tol:
        report.add(condition, witness, f"{message} (deviation nan)" if np.isnan(dev) else message)


def oracle_validate_rep(rep, tol=1e-9):
    g, b = rep.groupoid, rep.bundle
    report = RepReport(notes=["measurability: vacuous (finite base)"])
    for a in rep.U:
        m = rep.U[a]
        want = (b.dims[g.tgt[a]], b.dims[g.src[a]])
        if m.shape != want:
            raise PreconditionError(
                f"U({g.arrow_label(a)}) has shape {m.shape}, expected {want}"
            )
        _measure(report, m.conj().T @ m - np.eye(m.shape[1]), tol,
                 "unitarity", (a,), f"U({g.arrow_label(a)}) is not unitary")
    for x in g.base():
        e = g.identity[x]
        if e in rep.U:
            _measure(report, rep.U[e] - np.eye(b.dims[x]), tol,
                     "identity", (e,), f"U(identity at {g.base_label(x)}) != id")
    for a in rep.U:
        for c in g.arrows_into(g.src[a]):
            if c not in rep.U:
                continue
            prod = g.compose_table[(a, c)]
            if prod not in rep.U:
                report.add("composition", (a, c),
                           "covered arrows compose outside the covered set")
                continue
            _measure(report, rep.U[prod] - rep.U[a] @ rep.U[c], tol, "composition", (a, c),
                     f"U({g.arrow_label(a)}∘{g.arrow_label(c)}) != U·U")
    for a in rep.U:
        ia = g.inv[a]
        if ia not in rep.U:
            report.add("inverse", (a,), "inverse arrow not covered")
            continue
        _measure(report, rep.U[ia] - rep.U[a].conj().T, tol, "inverse", (a,),
                 f"U({g.arrow_label(a)}⁻¹) != U({g.arrow_label(a)})*")
    return report


def oracle_check_commutation(U0, I, sd, tol=1e-9):
    p = sd.parent
    report = RepReport()
    for a1 in sd.g1.arrows:
        x = p.src[a1]
        for a0 in p.isotropy_fiber(x):
            lhs = I[a1] @ U0.U[a0] @ I[p.inv[a1]]
            rhs = U0.U[alpha(p, a1, a0)]
            _measure(report, lhs - rhs, tol, "commutation", (a0, a1),
                     f"commutation fails at ({p.arrow_label(a0)}, {p.arrow_label(a1)})")
    return report


def oracle_simple_extension(U0, I, sd, tol=1e-9):
    """The products U0(a0)·I(a1) over pair_of, after the same checks."""
    p = sd.parent
    if set(I) != set(sd.g1.arrows):
        raise PreconditionError("unitary family must be indexed by the g1 arrows")
    I = {a: np.asarray(m, dtype=complex) for a, m in I.items()}
    i_report = oracle_validate_rep(UnitaryRep(p, U0.bundle, I), tol)
    if not i_report.ok:
        raise PreconditionError(
            "the unitary family is not a representation of the transitive selection: "
            + i_report.violations[0][2]
        )
    comm = oracle_check_commutation(U0, I, sd, tol)
    if not comm.ok:
        a0, a1 = comm.violations[0][1]
        raise PreconditionError(
            f"commutation relation fails at ({p.arrow_label(a0)}, {p.arrow_label(a1)}); "
            "the simple extension would not be functorial"
        )
    U = {i: U0.U[a0] @ I[a1] for i, (a0, a1) in enumerate(sd.pair_of)}
    return UnitaryRep(sd, U0.bundle, U)


def oracle_quantize(a, U0, x, w):
    g = a.groupoid
    fiber = g.isotropy_fiber(x)
    if not a.supported_on(fiber):
        raise PreconditionError(
            f"function is not supported on the isotropy fiber at {g.base_label(x)}"
        )
    d = U0.bundle.dims[x]
    out = np.zeros((d, d), dtype=complex)
    for g0 in fiber:
        out += w[g0] * a.values[g0] * U0.U[g0]
    return out


def oracle_random_operator_from(a, U0, w):
    g = a.groupoid
    iso = [ar for x in g.base() for ar in g.isotropy_fiber(x)]
    if not a.supported_on(iso):
        raise PreconditionError("function must be supported on the isotropy arrows")
    blocks = {x: oracle_quantize(a.restrict(g.isotropy_fiber(x)), U0, x, w) for x in g.base()}
    return RandomOperator(U0.bundle, blocks)


def oracle_norm_bound(a, w):
    g = a.groupoid
    return float(
        max(
            sum(w[g0] * abs(a.values[g0]) for g0 in g.isotropy_fiber(x))
            for x in g.base()
        )
    )


def oracle_check_equivariance(a, U0, I, sd, w, tol=1e-9):
    p = sd.parent
    report = RepReport()
    ax = {x: a.restrict(p.isotropy_fiber(x)) for x in p.base()}
    qx = {x: oracle_quantize(ax[x], U0, x, w) for x in p.base()}
    iso = [g0 for x in p.base() for g0 in p.isotropy_fiber(x)]
    for rule, V, arrows in (("isotropy-rule", U0.U, iso), ("translation-rule", I, sd.g1.arrows)):
        for g in arrows:
            x = p.src[g]
            lhs = V[g] @ qx[x] @ V[p.inv[g]]
            rhs = oracle_quantize(beta(p, p.inv[g], ax[x]), U0, p.tgt[g], w)
            _measure(report, lhs - rhs, tol, rule, (g,), f"rule fails at {p.arrow_label(g)}")
    return report

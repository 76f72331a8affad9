"""Unitary representations in Hilbert bundles, quantization of fiber
functions, random operators with their norm bound, and finite-dimensional
commutants.

A representation may cover only a closed selection of arrows (e.g. the
isotropy arrows); functoriality is checked on the covered set.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .algebra import GroupoidFunction, HaarWeights
from .errors import PreconditionError, SizeCapError
from .groupoid import FiniteGroupoid, _group, _walk
from .semidirect import SemidirectGroupoid


@dataclass(frozen=True)
class HilbertBundle:
    """Finite-dimensional complex fiber per base point."""

    dims: tuple[int, ...]

    def __post_init__(self):
        if any(d < 1 for d in self.dims):
            raise PreconditionError("all fiber dimensions must be >= 1")

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    def offset(self, x: int) -> int:
        return sum(self.dims[:x])


class _Blocks(Mapping):
    """The blocks of a zero-padded (n_arrows, D, D) stack S that covers
    every arrow, read-only: U[a] is S[a] cut to rows[a] × cols[a]."""

    def __init__(self, S: np.ndarray, rows: np.ndarray, cols: np.ndarray):
        S.flags.writeable = False
        self.S, self.rows, self.cols = S, rows, cols

    def __getitem__(self, a):
        if not (isinstance(a, (int, np.integer)) and 0 <= a < len(self.S)):
            raise KeyError(a)
        return self.S[a, :self.rows[a], :self.cols[a]]

    def __iter__(self):
        return iter(range(len(self.S)))

    def __len__(self):
        return len(self.S)


@dataclass(frozen=True, eq=False)
class UnitaryRep:
    """Per-arrow unitaries U(g): H_{src(g)} -> H_{tgt(g)}.

    U covers a subset of arrows (all of them by default); the covered set
    must be closed so the functoriality conditions are checkable. U and
    its matrices, copies, are read-only, so the stack kept stays U.
    """

    groupoid: FiniteGroupoid
    bundle: HilbertBundle
    U: Mapping[int, np.ndarray]

    def __post_init__(self):
        if not isinstance(self.U, _Blocks):
            U = {a: np.array(m, dtype=complex) for a, m in self.U.items()}
            for m in U.values():
                m.flags.writeable = False
            object.__setattr__(self, "U", MappingProxyType(U))

    @cached_property
    def stacked(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """U stacked by _stack, its mask of covered arrows and its keys in
        order: read-only, built on first use and kept. A key outside the
        groupoid or a wrong shape raises PreconditionError at every use."""
        U = self.U
        if isinstance(U, _Blocks):
            kept = U.S, np.ones(len(U), dtype=bool), np.arange(len(U))
        else:
            kept = *_stack(self.groupoid, self.bundle, U), np.fromiter(U, np.intp, len(U))
        for a in kept:
            a.flags.writeable = False
        return kept


@dataclass
class RepReport:
    violations: list[tuple[str, tuple, str]] = field(default_factory=list)
    max_deviation: float = 0.0
    notes: list[str] = field(default_factory=list)
    composition: str | None = None  # validate_rep's composition check: "star" or "pairs"

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, condition: str, witness: tuple, message: str):
        self.violations.append((condition, witness, message))

    def _measure(self, devs, tol: float, condition: str, witness, message, held=None):
        """Fold the deviations devs into max_deviation, where a NaN stays
        NaN; those not within tol, NaN included, are violations, in order,
        with witness(i) and message(i). Where held is False there is no
        deviation to measure, and entry i is a violation of its own."""
        if held is None:
            held = np.ones(devs.shape, dtype=bool)
        self.max_deviation = float(np.max(devs[held], initial=self.max_deviation))
        for i in np.flatnonzero(~held | ~(devs <= tol)).tolist():
            text = message(i)
            self.add(condition, witness(i), _nan_noted(text, devs[i]) if held[i] else text)

    def to_dict(self) -> dict:
        out = {
            "ok": self.ok,
            "max_deviation": self.max_deviation,
            "violations": [
                {"condition": c, "witness": list(w), "message": m}
                for (c, w, m) in self.violations
            ],
            "notes": self.notes,
        }
        if self.composition is not None:
            out["composition"] = self.composition
        return out


_ENTRIES = 1 << 16  # complex entries per temporary of a batched product (1 MB)


def _stack(g: FiniteGroupoid, bundle: HilbertBundle, U: Mapping, arrows=None, name="U"):
    """U at the given arrows (all of U, in its order, by default) as one
    zero-padded (n_arrows, D, D) complex array, D the largest fiber
    dimension, and the mask of the arrows filled. Zero padding leaves the
    products of the blocks unchanged. An arrow U misses, a key outside the
    groupoid or a wrong shape raises PreconditionError, the first in order."""
    dims = bundle.dims
    if len(dims) != g.n_base:
        raise PreconditionError(f"bundle has {len(dims)} fibers for {g.n_base} base points")
    stack = np.zeros((g.n_arrows, max(dims, default=1), max(dims, default=1)), dtype=complex)
    covered = np.zeros(g.n_arrows, dtype=bool)
    for a in U if arrows is None else arrows:
        if not 0 <= a < g.n_arrows:
            raise PreconditionError(f"{name} holds arrow {a}, outside the {g.n_arrows} arrows")
        if a not in U:
            raise PreconditionError(f"{name} does not cover arrow {g.arrow_label(a)}")
        m = np.asarray(U[a])
        want = (dims[g.tgt[a]], dims[g.src[a]])
        if m.shape != want:
            raise PreconditionError(f"U({g.arrow_label(a)}) has shape {m.shape}, expected {want}")
        stack[a, :want[0], :want[1]] = m
        covered[a] = True
    return stack, covered


def _kept(rep: UnitaryRep, g: FiniteGroupoid, arrows, name: str) -> np.ndarray:
    """rep's kept stack as one of g (U afresh on g, for another groupoid
    object); PreconditionError names the first of the arrows it misses."""
    S, covered = rep.stacked[:2] if rep.groupoid is g else _stack(g, rep.bundle, rep.U)
    missing = np.flatnonzero(~covered[arrows])
    if missing.size:
        raise PreconditionError(
            f"{name} does not cover arrow {g.arrow_label(int(arrows[missing[0]]))}")
    return S


def _eyes(dims, D: int) -> np.ndarray:
    """The identities of the given dimensions, zero-padded to D×D."""
    return np.eye(D) * (np.arange(D) < np.asarray(dims)[:, None, None])


def _dev(diff) -> np.ndarray:
    """max|diff| over the last two axes."""
    return np.abs(diff).max(axis=(-2, -1))


def _nan_noted(message: str, dev) -> str:
    """A violation's message, which names a deviation that is NaN."""
    return f"{message} (deviation nan)" if np.isnan(dev) else message


def _star_deviations(s, plan, S) -> np.ndarray:
    """max|diff| of the star equations U(a) − U(σ_y)·U(k)·U(σ_x)* at every
    arrow a: x → y, then of the tables U(h∘m) − U(h)·U(m) of the isotropy
    group G_r of every orbit, all read off the plan of groupoid._block_plan;
    in blocks of at most _ENTRIES entries per temporary."""
    D = S.shape[1]
    step = max(1, _ENTRIES // (D * D))
    devs = []
    for lo in range(0, S.shape[0], step):
        a = np.arange(lo, min(lo + step, S.shape[0]))
        left = S[plan.star[s.tgt[a]]] @ S[plan.k[a]]
        devs.append(_dev(S[a] - left @ S[plan.star[s.src[a]]].conj().swapaxes(1, 2)))
    for _, _, kr, mul in plan.shapes:
        rows = max(1, step // mul[0].size)  # orbits per block, K² products each
        for lo in range(0, len(kr), rows):
            k = kr[lo:lo + rows]
            hm = np.take_along_axis(k[:, None, :], mul[lo:lo + rows], axis=2)  # [o, h, m]: h∘m
            Uk = S[k]
            devs.append(_dev(S[hm] - Uk[:, :, None] @ Uk[:, None]).ravel())
    return np.concatenate(devs)


def _check_rep(report: RepReport, g: FiniteGroupoid, dims, S, covered, keys, tol: float):
    """validate_rep's checks on the stack S of the covered arrows keys.

    Composition runs on the star coordinates of g's plan
    (groupoid._block_plan) when U covers every arrow, the plan builds, which
    proves g a groupoid, and every deviation checked, those of unitarity,
    identity and inverse included, is at most ε = min(tol, 1) / (8·D), D the
    largest fiber dimension; the full scan over the composable pairs runs
    otherwise, and gives the witnesses. The star check reads n²K star
    equations U(a) = U(σ_y)·U(k)·U(σ_x)* and the K² products of the isotropy
    group G_r at each root r, for n base points and K = |G_r|; the scan
    forms n³K².

    Why it suffices. For a: y → z and c: x → y, a∘c has k = k_a·k_c, as g
    is a groupoid. With V_x = U(σ_x), every deviation at most ε and t =
    D·ε, each of U(σ_x), U(k) has 2-norm at most √(1 + t), and
    U(a)·U(c) − U(a∘c) is, up to star errors E with ‖E‖₂ ≤ t,
    V_z·(U(k_a)·(V_y*V_y − I)·U(k_c) − (U(k_a k_c) − U(k_a)·U(k_c)))·V_x*
    + E_a·W_c + W_a·E_c + E_a·E_c − E_ac, W the star products. So its
    largest entry is at most t·((1 + t) + (1 + t)² + 2(1 + t)^{3/2} + t + 1)
    = 5·D·ε + 7·D²·ε² + O(D³ε³), which for t ≤ 1/8 is below 5.9·t ≤
    0.74·tol: the full scan would find every composition within tol too."""
    s = g._product_slots()
    D = S.shape[1]
    dims = np.asarray(dims, dtype=np.intp)
    label = g.arrow_label
    M = S if np.array_equal(keys, np.arange(len(S))) else S[keys]  # every arrow: S, uncopied
    MH = M.conj().swapaxes(1, 2)
    unitarity = _dev(MH @ M - _eyes(dims[s.src[keys]], D))
    report._measure(unitarity, tol, "unitarity",
                    lambda i: (int(keys[i]),), lambda i: f"U({label(keys[i])}) is not unitary")

    ident = s.identity
    xs = np.flatnonzero(covered[ident])
    identity = _dev(S[ident[xs]] - _eyes(dims[xs], D))
    report._measure(identity, tol, "identity", lambda i: (int(ident[xs[i]]),),
                    lambda i: f"U(identity at {g.base_label(int(xs[i]))}) != id")

    inv = s.inv[keys]
    inverse = _dev(S[inv] - MH)
    eps = min(tol, 1.0) / (8 * D)
    within = covered.all() and all((d <= eps).all() for d in (unitarity, identity, inverse))
    proved = within and g.n_base and s.proves()  # "pairs" on an empty base
    star = _star_deviations(s, s.plan(str), S) if proved else None
    if star is not None and (star <= eps).all():
        report.composition = "star"
        report.max_deviation = float(np.max(star, initial=report.max_deviation))
    else:
        report.composition = "pairs"
        _composition_scan(report, g, S, covered, keys, tol)

    report._measure(inverse, tol, "inverse", lambda i: (int(keys[i]),),
                    lambda i: (f"U({label(keys[i])}⁻¹) != U({label(keys[i])})*"
                               if covered[inv[i]] else "inverse arrow not covered"),
                    held=covered[inv])


def _composition_scan(report: RepReport, g: FiniteGroupoid, S, covered, keys, tol: float):
    """The composition check on every covered composable pair: per base
    point x, U(a)·U(c) for the covered a out of x and c into x as one
    product of the left-stacked U(a) with the right-stacked U(c), in row
    blocks of at most _ENTRIES entries. Violations in covered order, then
    into(x)."""
    s = g._product_slots()
    n, D = g.n_base, S.shape[1]
    label = g.arrow_label
    rank = np.zeros(g.n_arrows, dtype=np.intp)  # of a covered arrow in keys
    rank[keys] = np.arange(keys.size)
    out_at, out_ptr = _group(n, s.src[keys])
    into = s.into[0][covered[s.into[0]]]
    into_ptr = np.searchsorted(s.tgt[into], np.arange(n + 1))
    fails, worst = [], report.max_deviation
    for x in range(n):
        A, C = keys[out_at[out_ptr[x]:out_ptr[x + 1]]], into[into_ptr[x]:into_ptr[x + 1]]
        if not (A.size and C.size):
            continue
        right = S[C].transpose(1, 0, 2).reshape(D, -1)
        step = max(1, _ENTRIES // (C.size * D * D))
        for lo in range(0, A.size, step):
            a = A[lo:lo + step]
            uu = (S[a].reshape(-1, D) @ right).reshape(a.size, D, C.size, D)
            prod = s.get(a[:, None], C)
            dev = _dev(S[prod] - uu.transpose(0, 2, 1, 3))
            held = covered[prod]
            worst = float(np.max(dev[held], initial=worst))
            i, j = np.nonzero(~held | ~(dev <= tol))
            fails.append((a[i], C[j], j, held[i, j], dev[i, j]))
    report.max_deviation = worst
    if fails:
        a, c, j, held, dev = (np.concatenate(parts) for parts in zip(*fails))
        for k in np.lexsort((j, rank[a])).tolist():
            ak, ck = int(a[k]), int(c[k])
            report.add("composition", (ak, ck),
                       _nan_noted(f"U({label(ak)}∘{label(ck)}) != U·U", dev[k]) if held[k]
                       else "covered arrows compose outside the covered set")


def validate_rep(rep: UnitaryRep, tol: float = 1e-9) -> RepReport:
    """Check identity, composition, and inverse/adjoint conditions on the
    covered arrows. The measurability condition is vacuous on a finite base
    and recorded as a note.

    The checks read the representation's kept stack (UnitaryRep.stacked);
    each is a batched expression over it.
    Composition is checked on the star coordinates when that proves it
    (see _check_rep), and otherwise by one matrix product per base point
    over the composable pairs; the report's composition field names the
    check that ran, "star" or "pairs". Violations come in the order of the
    loop over the definitions: covered order, then into(x)."""
    g = rep.groupoid
    report = RepReport(notes=["measurability: vacuous (finite base)"])
    _check_rep(report, g, rep.bundle.dims, *rep.stacked, tol)
    return report


def _iso_table(g: FiniteGroupoid):
    """The isotropy fibers as the rows of an (n_base, K) table of arrow ids
    in id order, K the largest fiber; a shorter row repeats its first arrow
    after its end, and an empty one holds some arrow id. Also the fiber
    sizes and the arrows in row order."""
    ids, ptr = g._product_slots().iso
    size = ptr[1:] - ptr[:-1]
    k = np.arange(size.max(initial=0))
    at = ptr[:-1, None] + k * (k < size[:, None])
    return ids[np.minimum(at, ids.size - 1)], size, ids.tolist()


def _fiber_sums(terms, size) -> np.ndarray:
    """Row r of the result is the sum of terms[r, k] over k < size[r], added
    one k at a time from a zero, the order of the loop over a fiber. The
    terms past size[r] become +0, which adds nothing: a sum that starts at
    +0 is never -0."""
    past = np.arange(terms.shape[1]) >= np.asarray(size)[:, None]
    terms = np.where(past.reshape(past.shape + (1,) * (terms.ndim - 2)), 0, terms)
    out = np.zeros(terms.shape[:1] + terms.shape[2:], dtype=terms.dtype)
    for k in range(terms.shape[1]):
        out += terms[:, k]
    return out


def check_commutation(
    U0: UnitaryRep,
    I: dict[int, np.ndarray],
    sd: SemidirectGroupoid,
    tol: float = 1e-9,
) -> RepReport:
    """Verify U1(g1) U0(g0) U1(g1)⁻¹ = U0(alpha_{g1}(g0)) for all pairs with
    d(g0) = d(g1). U0 must cover the isotropy arrows and I the g1 arrows."""
    return _commutation(U0, I, sd, tol)[0]


def _commutation(U0: UnitaryRep, I: dict, sd: SemidirectGroupoid, tol: float, SI=None):
    """check_commutation's report with the stacks S0 of U0 and SI of I it
    read (SI, when given, I stacked by the caller): the pairs (a1, a0), a1
    a g1 arrow and a0 in the isotropy fiber at src a1, in blocks, with the
    right-hand side U0 at the conjugate a1∘a0∘a1⁻¹."""
    p = sd.parent
    s = p._product_slots()
    order = list(sd.g1.arrows)
    S0 = _kept(U0, p, _iso_table(p)[2], "U0")
    if SI is None:
        SI = _stack(p, U0.bundle, I, order, name="the unitary family")[0]
    report = RepReport()
    order = np.array(order, dtype=np.intp)
    D = S0.shape[1]
    for _, pos, a0 in _walk(*s.iso, s.src[order], max(1, _ENTRIES // (D * D))):
        a1 = order[pos]
        lhs = SI[a1] @ S0[a0] @ SI[s.inv[a1]]
        report._measure(_dev(lhs - S0[s.conj(a1, a0)]), tol, "commutation",
                        lambda i: (int(a0[i]), int(a1[i])),
                        lambda i: f"commutation fails at ({p.arrow_label(a0[i])}, "
                                  f"{p.arrow_label(a1[i])})")
    return report, S0, SI


def simple_extension(
    U0: UnitaryRep,
    I: dict[int, np.ndarray],
    sd: SemidirectGroupoid,
    tol: float = 1e-9,
) -> UnitaryRep:
    """Extend an isotropy representation along a unitary family indexed by
    the transitive selection: U(g0, g1) = U0(g0) · I(g1).

    The family must itself be a representation of the selection and satisfy
    the commutation relation; otherwise the extension is not functorial.
    The products are one batched matmul over pair_of, which is the
    extension's kept stack; its U is a read-only view of it.
    """
    return _extension(U0, I, sd, tol)


def _extension(U0: UnitaryRep, I: dict, sd: SemidirectGroupoid, tol: float, commutation=None):
    """simple_extension, given, when a caller has it, the _commutation
    result for the same arguments, which is then not computed again."""
    p, b = sd.parent, U0.bundle
    if set(I) != set(sd.g1.arrows):
        raise PreconditionError("unitary family must be indexed by the g1 arrows")
    SI, covered = _stack(p, b, I)
    i_report = RepReport()
    _check_rep(i_report, p, b.dims, SI, covered, np.fromiter(I, dtype=np.intp, count=len(I)), tol)
    if not i_report.ok:
        raise PreconditionError(
            "the unitary family is not a representation of the transitive selection: "
            + i_report.violations[0][2]
        )
    comm, S0, _ = commutation or _commutation(U0, I, sd, tol, SI)
    if not comm.ok:
        a0, a1 = comm.violations[0][1]
        raise PreconditionError(
            f"commutation relation fails at ({p.arrow_label(a0)}, {p.arrow_label(a1)}); "
            "the simple extension would not be functorial"
        )
    P0, P1 = sd.pair_ids
    dims, ps = np.asarray(b.dims), p._product_slots()
    return UnitaryRep(sd, b, _Blocks(S0[P0] @ SI[P1], dims[ps.tgt[P0]], dims[ps.src[P1]]))


def _quantized(coef, table, size, S0) -> np.ndarray:
    """Per row r: the sum of coef[r, k] · U0(table[r, k]) over k < size[r],
    in fiber order, as a (rows, D, D) stack."""
    return _fiber_sums(coef[..., None, None] * S0[table], size)


def quantize(
    a: GroupoidFunction, U0: UnitaryRep, x: int, w: HaarWeights
) -> np.ndarray:
    """Weighted sum of unitaries over the isotropy fiber at x:
    sum of w(g) a(g) U0(g)."""
    g = a.groupoid
    fiber = g.isotropy_fiber(x)
    if not a.supported_on(fiber):
        raise PreconditionError(
            f"function is not supported on the isotropy fiber at {g.base_label(x)}"
        )
    table = np.array([fiber], dtype=np.intp)
    q = _quantized(w.values[table] * a.values[table], table, np.array([len(fiber)]),
                   _kept(U0, g, fiber, "U0"))
    d = U0.bundle.dims[x]
    return q[0, :d, :d]


@dataclass(eq=False)
class RandomOperator:
    """Base-indexed family of bounded operators with its essential-sup norm
    (a plain max over the finite base)."""

    bundle: HilbertBundle
    blocks: dict[int, np.ndarray]


def random_operator_from(
    a: GroupoidFunction, U0: UnitaryRep, w: HaarWeights
) -> RandomOperator:
    """Quantize a fiberwise: block x is the quantization of a restricted to
    the isotropy fiber at x, all base points at once."""
    g = a.groupoid
    table, size, iso = _iso_table(g)
    if not a.supported_on(iso):
        raise PreconditionError("function must be supported on the isotropy arrows")
    S0 = _kept(U0, g, iso, "U0")
    q = _quantized(w.values[table] * a.values[table], table, size, S0)
    return RandomOperator(U0.bundle, {x: q[x, :d, :d] for x, d in enumerate(U0.bundle.dims)})


def spectral_norm(m: np.ndarray) -> float:
    """Largest singular value."""
    m = np.asarray(m, dtype=complex)
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))


def operator_norm(ro: RandomOperator) -> float:
    """Essential-sup norm: max over base points of the spectral norm."""
    return max(spectral_norm(b) for b in ro.blocks.values())


def norm_bound(a: GroupoidFunction, w: HaarWeights) -> float:
    """The triangle-inequality bound: max over x of sum of w|a| on the fiber."""
    table, size, _ = _iso_table(a.groupoid)
    v = a.values[table]  # |v| as hypot: np.abs rounds unlike the scalar abs
    return float(_fiber_sums(w.values[table] * np.hypot(v.real, v.imag), size).max())


def check_equivariance(
    a: GroupoidFunction,
    U0: UnitaryRep,
    I: dict[int, np.ndarray],
    sd: SemidirectGroupoid,
    w: HaarWeights,
    tol: float = 1e-9,
) -> RepReport:
    """Transformation rules for quantized operators.

    For Q_x = quantization at x and the pullback (conjugation) action on
    fiber functions:
      U0(g0) Q_x(a) U0(g0)⁻¹ = Q_x(pullback along alpha_{g0⁻¹} of a),
      U1(g1) Q_x(a) U1(g1)⁻¹ = Q_y(pullback along alpha_{g1⁻¹} of a),
    with x = d(g1), y = r(g1). Both are V(g) Q_x(a) V(g)⁻¹ =
    Q_{r(g)}(pullback along alpha_{g⁻¹} of a), with V = U0 or V = I.

    Both sides run over blocks of arrows g at once: the right-hand side
    reads a at g⁻¹∘g0∘g through one gather and sums in fiber order.
    """
    p = sd.parent
    s = p._product_slots()
    table, size, iso = _iso_table(p)
    order = list(sd.g1.arrows)
    S0 = _kept(U0, p, iso, "U0")
    SI = _stack(p, U0.bundle, I, order, name="the unitary family")[0]
    q = _quantized(w.values[table] * a.values[table], table, size, S0)
    report = RepReport()
    step = max(1, _ENTRIES // max(1, table.shape[1] * S0[0].size))
    for rule, V, arrows in (("isotropy-rule", S0, iso), ("translation-rule", SI, order)):
        arrows = np.array(arrows, dtype=np.intp)
        for lo in range(0, arrows.size, step):
            g = arrows[lo:lo + step]
            lhs = V[g] @ q[s.src[g]] @ V[s.inv[g]]
            fib = table[s.tgt[g]]
            pulled = a.values[s.conj(s.inv[g][:, None], fib)]
            rhs = _quantized(w.values[fib] * pulled, fib, size[s.tgt[g]], S0)
            report._measure(_dev(lhs - rhs), tol, rule, lambda i: (int(g[i]),),
                            lambda i: f"rule fails at {p.arrow_label(g[i])}")
    return report


def block_diagonal_generators(
    parent: FiniteGroupoid, U0: UnitaryRep, w: HaarWeights
) -> list[np.ndarray]:
    """Spanning generators of the quantized algebra on the direct sum of the
    fibers: one block-diagonal operator per isotropy arrow."""
    b = U0.bundle
    iso = _iso_table(parent)[2]
    S0 = _kept(U0, parent, iso, "U0")
    gens = np.zeros((len(iso), b.total_dim, b.total_dim), dtype=complex)
    for m, g0 in zip(gens, iso):
        x = parent.src[g0]
        off, d = b.offset(x), b.dims[x]
        m[off : off + d, off : off + d] = w[g0] * S0[g0, :d, :d]
    return list(gens)


MAX_COMMUTANT_ENTRIES = 4_000_000  # commutant's default cap on the stacked systems
_QR_COLUMNS = 25  # from k = 5 on, QR then SVD beat the SVD alone, when measured


def _nullspaces(mats: np.ndarray, tol: float):
    """Per matrix of the stack mats (b, rows, cols), rows ≥ cols: the
    conjugated right singular vectors (b, cols, cols) and the rank by the
    rule s > tol·max(s₀, 1). Rows rank[i]: of entry i are an orthonormal
    basis of the null space of mats[i]; the thin SVD gives the full vh. A
    taller stack of at least _QR_COLUMNS columns is first reduced to the
    square R of its QR factorization, which has the same null space and
    singular values: the SVD then never forms the tall U factor."""
    if mats.shape[1] > mats.shape[2] >= _QR_COLUMNS:
        mats = np.linalg.qr(mats, mode="r")
    _, s, vh = np.linalg.svd(mats, full_matrices=False)
    return vh.conj(), (s > tol * np.maximum(s[:, :1], 1.0)).sum(axis=1)


def _stacked_level(mats: np.ndarray, max_entries: int, tol: float) -> np.ndarray:
    """The commutant of the (m, k, k) stack mats as an (N, k, k) basis, the
    generic path: the null space of one k²×k² commutator block per matrix,
    all stacked."""
    m, k = mats.shape[:2]
    entries = m * k**4
    if entries > max_entries:
        raise SizeCapError(
            f"commutator system of {m} blocks of {k * k}x{k * k} has "
            f"{entries} entries, above the cap of {max_entries}"
        )
    eye = np.eye(k)
    system = np.vstack([np.kron(eye, a.T) - np.kron(a, eye) for a in mats])
    vh, rank = _nullspaces(system[None], tol)
    return vh[0, rank[0]:].reshape(-1, k, k)


def _fiber_blocks(mats: np.ndarray):
    """The blocks of the fiber path, or None when the split is not proved:
    the indices in block order and each block's start and size there. The
    blocks are the connected components of the joint support of the
    (m, k, k) stack mats, so every matrix is block-diagonal over them; each
    block B must have a matrix that is exactly c·P_B with c ≠ 0."""
    m, k = mats.shape[:2]
    nz = mats != 0
    adj = nz.any(axis=0)
    adj = adj | adj.T | np.eye(k, dtype=bool)
    lab = np.arange(k)  # ends as the lowest index of each one's component
    while True:  # the lowest label among the neighbours, then pointer jumping
        new = np.where(adj, lab, k).min(axis=1)
        new = new[new]
        if (new == lab).all():
            break
        lab = new
    diag = mats.diagonal(axis1=1, axis2=2)
    first = (diag != 0).argmax(axis=1)
    c = diag[np.arange(m), first]
    want = lab == lab[first, None]  # the block of each matrix's first diagonal nonzero
    proj = ((c != 0) & (diag == c[:, None] * want).all(axis=1)
            & (nz.sum(axis=(1, 2)) == want.sum(axis=1)))  # and nothing off the diagonal
    has = np.zeros(k, dtype=bool)
    has[lab[first[proj]]] = True
    if not has[lab].all():
        return None
    points = np.argsort(lab, kind="stable")
    start = np.flatnonzero(lab[points] == points)  # a block opens at its lowest index
    return points, start, np.bincount(lab)[points[start]]


def _fiber_level(mats: np.ndarray, blocks, max_entries: int, tol: float):
    """The commutant of the (m, k, k) stack mats, block-diagonal over the
    blocks of _fiber_blocks, as an (N, k, k) basis in block order, or None
    when some block holds no matrix. The c_B matrices nonzero on a block B
    of size d_B give one (c_B·d_B², d_B²) system; the blocks of one shape
    (d, c) are solved by one batched SVD and scattered by one assignment.
    Bases orthonormal per block are orthonormal together, their supports
    being disjoint."""
    points, start, size = blocks
    touch = np.logical_or.reduceat((mats != 0).any(axis=2)[:, points], start, axis=1)
    count = touch.sum(axis=0)  # touch is (matrix, block)
    if not count.all():
        return None
    entries = int(count @ size**4)
    if entries > max_entries:
        raise SizeCapError(
            f"commutator systems of {start.size} fiber blocks have "
            f"{entries} entries, above the cap of {max_entries}"
        )
    mat_of = np.nonzero(touch.T)[1]  # the matrices of each block, block by block
    mat_at = np.cumsum(count) - count
    shape = size * (count.max() + 1) + count
    solved, null = [], np.empty(start.size, dtype=np.intp)
    for key in sorted(set(shape.tolist())):
        bs = np.flatnonzero(shape == key)
        d, c = int(size[bs[0]]), int(count[bs[0]])
        idx = points[start[bs, None] + np.arange(d)]
        j = mat_of[mat_at[bs, None] + np.arange(c)]
        M = mats[j[:, :, None, None], idx[:, None, :, None], idx[:, None, None, :]]
        eye = np.eye(d)  # row (p, q), column (r, s): δ_pr·M[s, q] − M[p, r]·δ_qs
        system = (eye[:, None, :, None] * M.swapaxes(2, 3)[:, :, None, :, None, :]
                  - M[:, :, :, None, :, None] * eye[None, :, None, :])
        vh, rank = _nullspaces(system.reshape(bs.size, c * d * d, d * d), tol)
        null[bs] = d * d - rank
        solved.append((bs, idx, vh, rank))
    at = np.cumsum(null) - null
    basis = np.zeros((null.sum(), points.size, points.size), dtype=complex)
    for bs, idx, vh, rank in solved:
        d = idx.shape[1]
        b, r = np.nonzero(np.arange(d * d) >= rank[:, None])
        basis[(at[bs[b]] + r - rank[b])[:, None, None], idx[b, :, None],
              idx[b, None, :]] = vh[b, r].reshape(-1, d, d)
    return basis


@dataclass
class CommutantResult:
    dimension: int
    basis: list[np.ndarray]
    dimensions: tuple[int, ...] = ()  # per level computed, the commutant first


def commutant(
    generators: list[np.ndarray],
    levels: int = 1,
    max_entries: int = MAX_COMMUTANT_ENTRIES,
    tol: float = 1e-9,
) -> CommutantResult:
    """All matrices commuting with every generator (levels=1), or the
    bicommutant (levels=2), via null spaces of stacked commutator maps. The
    result's dimensions holds the dimension of each level it computed.

    The fiber path runs when the split into blocks is proved: the blocks
    are the connected components of the generators' joint support, and
    each block B has a generator c·P_B, c ≠ 0. A commutant element then
    commutes with every P_B, so it is block-diagonal and A′ = ⊕ A_B′; each
    A_B′ holds I_B, so A″ = ⊕ (A_B′)′ likewise. Each level stacks one
    d_B²×d_B² block per matrix nonzero on B; where the split is not proved,
    or a block holds no level-1 matrix, one k²×k² block per matrix. Either
    way SizeCapError is raised before a stack of more than max_entries
    entries is built.
    """
    if levels not in (1, 2):
        raise PreconditionError("levels must be 1 or 2")
    gens = [np.asarray(m, dtype=complex) for m in generators]
    if not gens:
        raise PreconditionError("at least one generator is required")
    k = gens[0].shape[0]
    if any(m.shape != (k, k) for m in gens):
        raise PreconditionError("generators must be square matrices of equal size")

    mats = np.stack(gens)
    blocks = _fiber_blocks(mats)

    def level(mats):
        basis = None if blocks is None else _fiber_level(mats, blocks, max_entries, tol)
        return _stacked_level(mats, max_entries, tol) if basis is None else basis

    basis = level(mats)
    dimensions = (len(basis),)
    if levels == 2:
        if not len(basis):
            # commutant is trivial only when k = 0; identity always commutes
            raise PreconditionError("empty commutant basis")
        basis = level(basis)
        dimensions += (len(basis),)
    return CommutantResult(dimension=len(basis), basis=list(basis), dimensions=dimensions)


def contains_in_span(basis: list[np.ndarray], m: np.ndarray, tol: float = 1e-9) -> bool:
    """Whether m, or every matrix of a stack m, lies in the linear span of
    the basis matrices: one least-squares solve for all of them."""
    m = np.asarray(m)
    if not len(basis):
        return bool(np.max(np.abs(m)) <= tol)
    B = np.stack([b.reshape(-1) for b in basis], axis=1)
    v = m.reshape(-1, B.shape[0]).T
    coeff, *_ = np.linalg.lstsq(B, v, rcond=None)
    return bool(np.max(np.abs(B @ coeff - v)) <= tol)

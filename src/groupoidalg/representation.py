"""Unitary representations in Hilbert bundles, quantization of fiber
functions, random operators with their norm bound, and finite-dimensional
commutants.

A representation may cover only a closed selection of arrows (e.g. the
isotropy arrows); functoriality is checked on the covered set.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import GroupoidFunction, HaarWeights, beta
from .errors import PreconditionError, SizeCapError
from .groupoid import FiniteGroupoid
from .semidirect import SemidirectGroupoid, alpha


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


@dataclass(eq=False)
class UnitaryRep:
    """Per-arrow unitaries U(g): H_{src(g)} -> H_{tgt(g)}.

    U covers a subset of arrows (all of them by default); the covered set
    must be closed so the functoriality conditions are checkable.
    """

    groupoid: FiniteGroupoid
    bundle: HilbertBundle
    U: dict[int, np.ndarray]

    def __post_init__(self):
        self.U = {a: np.asarray(m, dtype=complex) for a, m in self.U.items()}

    def covered(self):
        return self.U.keys()


@dataclass
class RepReport:
    violations: list[tuple[str, tuple, str]] = field(default_factory=list)
    max_deviation: float = 0.0
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, condition: str, witness: tuple, message: str):
        self.violations.append((condition, witness, message))

    def _measure(self, diff, tol: float, condition: str, witness: tuple, message: str):
        """Fold max|diff| into max_deviation; above tol it is a violation."""
        dev = float(np.max(np.abs(diff)))
        self.max_deviation = max(self.max_deviation, dev)
        if dev > tol:
            self.add(condition, witness, message)

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "max_deviation": self.max_deviation,
            "violations": [
                {"condition": c, "witness": list(w), "message": m}
                for (c, w, m) in self.violations
            ],
            "notes": self.notes,
        }


def validate_rep(rep: UnitaryRep, tol: float = 1e-9) -> RepReport:
    """Check identity, composition, and inverse/adjoint conditions on the
    covered arrows. The measurability condition is vacuous on a finite base
    and recorded as a note."""
    g, b = rep.groupoid, rep.bundle
    report = RepReport(notes=["measurability: vacuous (finite base)"])
    for a in rep.covered():
        m = rep.U[a]
        want = (b.dims[g.tgt[a]], b.dims[g.src[a]])
        if m.shape != want:
            raise PreconditionError(
                f"U({g.arrow_label(a)}) has shape {m.shape}, expected {want}"
            )
        report._measure(m.conj().T @ m - np.eye(m.shape[1]), tol,
                        "unitarity", (a,), f"U({g.arrow_label(a)}) is not unitary")
    for x in g.base():
        e = g.identity[x]
        if e in rep.U:
            report._measure(rep.U[e] - np.eye(b.dims[x]), tol,
                            "identity", (e,), f"U(identity at {g.base_label(x)}) != id")
    for a in rep.covered():
        for c in g.arrows_into(g.src[a]):
            if c not in rep.U:
                continue
            prod = g.compose_table[(a, c)]
            if prod not in rep.U:
                report.add(
                    "composition",
                    (a, c),
                    "covered arrows compose outside the covered set",
                )
                continue
            report._measure(rep.U[prod] - rep.U[a] @ rep.U[c], tol, "composition", (a, c),
                            f"U({g.arrow_label(a)}∘{g.arrow_label(c)}) != U·U")
    for a in rep.covered():
        ia = g.inv[a]
        if ia not in rep.U:
            report.add("inverse", (a,), "inverse arrow not covered")
            continue
        report._measure(rep.U[ia] - rep.U[a].conj().T, tol, "inverse", (a,),
                        f"U({g.arrow_label(a)}⁻¹) != U({g.arrow_label(a)})*")
    return report


def trivial_rep(g: FiniteGroupoid, arrows=None) -> UnitaryRep:
    bundle = HilbertBundle((1,) * g.n_base)
    cover = g.arrows() if arrows is None else arrows
    return UnitaryRep(g, bundle, {a: np.eye(1) for a in cover})


def check_commutation(
    U0: UnitaryRep,
    I: dict[int, np.ndarray],
    sd: SemidirectGroupoid,
    tol: float = 1e-9,
) -> RepReport:
    """Verify U1(g1) U0(g0) U1(g1)⁻¹ = U0(alpha_{g1}(g0)) for all pairs with
    d(g0) = d(g1)."""
    p = sd.parent
    report = RepReport()
    for a1 in sd.g1.arrows:
        x = p.src[a1]
        for a0 in p.isotropy_fiber(x):
            lhs = I[a1] @ U0.U[a0] @ I[p.inv[a1]]
            rhs = U0.U[alpha(p, a1, a0)]
            report._measure(lhs - rhs, tol, "commutation", (a0, a1),
                            f"commutation fails at ({p.arrow_label(a0)}, {p.arrow_label(a1)})")
    return report


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
    """
    p = sd.parent
    if set(I) != set(sd.g1.arrows):
        raise PreconditionError("unitary family must be indexed by the g1 arrows")
    I = {a: np.asarray(m, dtype=complex) for a, m in I.items()}
    i_rep = UnitaryRep(p, U0.bundle, I)
    i_report = validate_rep(i_rep, tol)
    if not i_report.ok:
        raise PreconditionError(
            "the unitary family is not a representation of the transitive selection: "
            + i_report.violations[0][2]
        )
    comm = check_commutation(U0, I, sd, tol)
    if not comm.ok:
        condition, witness, _ = comm.violations[0]
        a0, a1 = witness
        raise PreconditionError(
            f"commutation relation fails at ({p.arrow_label(a0)}, {p.arrow_label(a1)}); "
            "the simple extension would not be functorial"
        )
    U = {
        i: U0.U[a0] @ I[a1]
        for i, (a0, a1) in enumerate(sd.pair_of)
    }
    return UnitaryRep(sd, U0.bundle, U)


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
    d = U0.bundle.dims[x]
    out = np.zeros((d, d), dtype=complex)
    for g0 in fiber:
        out += w[g0] * a.values[g0] * U0.U[g0]
    return out


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
    the isotropy fiber at x."""
    g = a.groupoid
    iso = [ar for x in g.base() for ar in g.isotropy_fiber(x)]
    if not a.supported_on(iso):
        raise PreconditionError("function must be supported on the isotropy arrows")
    blocks = {x: quantize(a.restrict(g.isotropy_fiber(x)), U0, x, w) for x in g.base()}
    return RandomOperator(U0.bundle, blocks)


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
    g = a.groupoid
    return float(
        max(
            sum(w[g0] * abs(a.values[g0]) for g0 in g.isotropy_fiber(x))
            for x in g.base()
        )
    )


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
    """
    p = sd.parent
    report = RepReport()
    ax = {x: a.restrict(p.isotropy_fiber(x)) for x in p.base()}
    qx = {x: quantize(ax[x], U0, x, w) for x in p.base()}
    iso = [g0 for x in p.base() for g0 in p.isotropy_fiber(x)]
    for rule, V, arrows in (("isotropy-rule", U0.U, iso), ("translation-rule", I, sd.g1.arrows)):
        for g in arrows:
            x = p.src[g]
            lhs = V[g] @ qx[x] @ V[p.inv[g]]
            rhs = quantize(beta(p, p.inv[g], ax[x]), U0, p.tgt[g], w)
            report._measure(lhs - rhs, tol, rule, (g,), f"rule fails at {p.arrow_label(g)}")
    return report


def block_diagonal_generators(
    parent: FiniteGroupoid, U0: UnitaryRep, w: HaarWeights
) -> list[np.ndarray]:
    """Spanning generators of the quantized algebra on the direct sum of the
    fibers: one block-diagonal operator per isotropy arrow."""
    b = U0.bundle
    total = b.total_dim
    gens = []
    for x in parent.base():
        off = b.offset(x)
        d = b.dims[x]
        for g0 in parent.isotropy_fiber(x):
            m = np.zeros((total, total), dtype=complex)
            m[off : off + d, off : off + d] = w[g0] * U0.U[g0]
            gens.append(m)
    return gens


def _nullspace(mat: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Orthonormal basis of the null space (rows of the result); mat has at
    least as many rows as columns, so the thin SVD gives the full vh."""
    _, s, vh = np.linalg.svd(mat, full_matrices=False)
    rank = int(np.sum(s > tol * max(s[0], 1.0))) if s.size else 0
    return vh[rank:].conj()


@dataclass
class CommutantResult:
    dimension: int
    basis: list[np.ndarray]


def commutant(
    generators: list[np.ndarray],
    levels: int = 1,
    max_entries: int = 4_000_000,
    tol: float = 1e-9,
) -> CommutantResult:
    """All matrices commuting with every generator (levels=1), or the
    bicommutant (levels=2), via the null space of the stacked commutator map.

    Each level stacks one k²×k² block per matrix; SizeCapError is raised
    before a stack of more than max_entries entries is built.
    """
    if levels not in (1, 2):
        raise PreconditionError("levels must be 1 or 2")
    gens = [np.asarray(m, dtype=complex) for m in generators]
    if not gens:
        raise PreconditionError("at least one generator is required")
    k = gens[0].shape[0]
    if any(m.shape != (k, k) for m in gens):
        raise PreconditionError("generators must be square matrices of equal size")

    def commutant_basis(mats):
        entries = len(mats) * k**4
        if entries > max_entries:
            raise SizeCapError(
                f"commutator system of {len(mats)} blocks of {k * k}x{k * k} has "
                f"{entries} entries, above the cap of {max_entries}"
            )
        eye = np.eye(k)
        rows = [np.kron(eye, m.T) - np.kron(m, eye) for m in mats]
        ns = _nullspace(np.vstack(rows), tol)
        return [v.reshape(k, k) for v in ns]

    basis = commutant_basis(gens)
    if levels == 2:
        if not basis:
            # commutant is trivial only when k = 0; identity always commutes
            raise PreconditionError("empty commutant basis")
        basis = commutant_basis(basis)
    return CommutantResult(dimension=len(basis), basis=basis)


def contains_in_span(basis: list[np.ndarray], m: np.ndarray, tol: float = 1e-9) -> bool:
    """Whether m lies in the linear span of the basis matrices."""
    if not basis:
        return bool(np.max(np.abs(m)) <= tol)
    B = np.stack([b.reshape(-1) for b in basis], axis=1)
    v = m.reshape(-1)
    coeff, *_ = np.linalg.lstsq(B, v, rcond=None)
    return bool(np.max(np.abs(B @ coeff - v)) <= tol)

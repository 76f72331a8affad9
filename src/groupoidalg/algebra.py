"""Convolution algebras: twisted convolution on the crossed product of the
fiber algebras, groupoid convolution, and the isomorphism between the two
products.

All integrals are weighted finite sums over a Haar weight system
(counting measure by default).
"""

from __future__ import annotations

import dataclasses
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .errors import PreconditionError
from .groupoid import FiniteGroupoid, SubgroupoidSelection, _group, _walk
from .semidirect import SemidirectGroupoid, _layout

_BLOCK = 1 << 14  # pairs per block of a kernel; bounds the temporaries


@dataclass(eq=False)
class HaarWeights:
    """Per-arrow positive weights; restriction to each isotropy fiber must
    be constant (right invariance) and stable under conjugation. Constant
    weights satisfy both, so they skip those checks."""

    groupoid: FiniteGroupoid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        g = self.groupoid
        if self.values.shape != (g.n_arrows,):
            raise PreconditionError("weight vector length does not match arrow count")
        if not np.all(self.values > 0):
            raise PreconditionError("Haar weights must be strictly positive")
        if (self.values == self.values[:1]).all():
            return
        # constancy on each isotropy fiber, exactly: w(a) = w(identity at src a)
        s = g._product_slots()
        iso = s.iso[0]
        bad = iso[self.values[iso] != self.values[s.identity[s.src[iso]]]]
        if bad.size:
            x = g.base_label(int(s.src[bad].min()))
            raise PreconditionError(f"weights are not constant on the isotropy fiber at {x}")
        # w(γ∘a∘γ⁻¹) = w(a) for every arrow γ and every a in the fiber at src
        # γ: with w constant on fibers, that is w(e_src γ) = w(e_tgt γ), as
        # γ∘e∘γ⁻¹ = e_tgt γ and γ∘a∘γ⁻¹ lies in the fiber at tgt γ
        w = self.values[s.identity]
        if (w[s.src] != w[s.tgt]).any():
            raise PreconditionError("weights are not invariant under the conjugation action")

    @classmethod
    def counting(cls, g: FiniteGroupoid) -> "HaarWeights":
        return cls(g, np.ones(g.n_arrows))

    def __getitem__(self, a: int) -> float:
        return self.values[a]


@dataclass(eq=False)
class GroupoidFunction:
    """Complex-valued function on the arrows of a finite groupoid."""

    groupoid: FiniteGroupoid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != (self.groupoid.n_arrows,):
            raise PreconditionError("value vector length does not match arrow count")
        if not np.all(np.isfinite(self.values)):
            raise PreconditionError("function values must be finite")

    @classmethod
    def zero(cls, g: FiniteGroupoid) -> "GroupoidFunction":
        return cls(g, np.zeros(g.n_arrows, dtype=complex))

    @classmethod
    def delta(cls, g: FiniteGroupoid, arrow: int, value: complex = 1.0) -> "GroupoidFunction":
        v = np.zeros(g.n_arrows, dtype=complex)
        v[arrow] = value
        return cls(g, v)

    @classmethod
    def random(cls, g: FiniteGroupoid, rng: np.random.Generator, support=None):
        """Values uniform in the complex unit square, optionally restricted."""
        v = cls(g, rng.random(g.n_arrows) + 1j * rng.random(g.n_arrows))
        return v if support is None else v.restrict(support)

    def supported_on(self, arrows) -> bool:
        mask = np.ones(self.groupoid.n_arrows, dtype=bool)
        mask[list(arrows)] = False
        return bool(np.all(self.values[mask] == 0))

    def restrict(self, arrows) -> "GroupoidFunction":
        mask = np.zeros(self.groupoid.n_arrows, dtype=bool)
        mask[list(arrows)] = True
        return GroupoidFunction(self.groupoid, np.where(mask, self.values, 0))


class BundleFunction:
    """Element of the crossed product: for each arrow of the transitive
    selection g1, a fiber-algebra element at its target.

    Held as one complex array values of shape (|g1|, K): row i is the i-th
    arrow of sorted(g1.arrows), column j the j-th arrow of the isotropy
    fiber at its target. K is the fiber size, the same at every target.
    This is semidirect._layout, the order of the carrier's arrows."""

    def __init__(self, parent: FiniteGroupoid, g1: SubgroupoidSelection, fibers: Mapping):
        _, fiber, row, _ = layout = _layout(parent, g1)
        if set(fibers) != set(g1.arrows):
            raise PreconditionError("fiber family must cover exactly the g1 arrows")
        if any(f.groupoid is not parent for f in fibers.values()):
            raise PreconditionError("fiber values must live on the parent groupoid")
        keys = list(fibers)
        full = np.array([f.values for f in fibers.values()]).reshape(len(keys), parent.n_arrows)
        on = np.arange(len(keys))[:, None], fiber[row[keys]]
        values = np.empty(fiber.shape, dtype=complex)
        values[row[keys]] = full[on]
        full[on] = 0  # what is left lies off the fibers
        if (off := full.any(axis=1)).any():
            x = parent.base_label(parent.tgt[keys[int(off.argmax())]])
            raise PreconditionError(f"function is not supported on the isotropy fiber at {x}")
        self._set(parent, g1, layout, values)

    def _set(self, parent, g1, layout, values) -> "BundleFunction":
        if values.shape != layout[1].shape:
            raise PreconditionError("value array shape does not match the g1 arrows and fibers")
        if not np.isfinite(values).all():
            raise PreconditionError("function values must be finite")
        self.parent, self.g1, self.values, self._layout, self._fibers = (
            parent, g1, values, layout, None)
        return self

    @property
    def fibers(self) -> Mapping[int, GroupoidFunction]:
        """A read-only view: each g1 arrow, in g1's iteration order, to its
        fiber element as a full-length GroupoidFunction with read-only
        values, zero off the fiber. Built on first use and kept."""
        if self._fibers is None:
            rows, fiber, row, _ = self._layout
            full = np.zeros((rows.size, self.parent.n_arrows), dtype=complex)
            full[np.arange(rows.size)[:, None], fiber] = self.values
            full.flags.writeable = False
            self._fibers = MappingProxyType(
                {a1: GroupoidFunction(self.parent, full[row[a1]]) for a1 in self.g1.arrows})
        return self._fibers

    @classmethod
    def random(cls, parent, g1, rng: np.random.Generator):
        """Fiber values uniform in the complex unit square, from the draws of
        GroupoidFunction.random(parent, rng, support=fiber) per arrow of
        sorted(g1.arrows): a real and an imaginary part per parent arrow."""
        rows, fiber, _, _ = layout = _layout(parent, g1)
        values = np.empty(fiber.shape, dtype=complex)
        step = max(1, 4 * _BLOCK // max(1, 2 * parent.n_arrows))  # rows per draw
        for lo in range(0, rows.size, step):
            f = fiber[lo:lo + step, None]
            d = np.take_along_axis(rng.random((len(f), 2, parent.n_arrows)), f, axis=2)
            values[lo:lo + step] = d[:, 0] + 1j * d[:, 1]
        return cls.__new__(cls)._set(parent, g1, layout, values)


def twisted_convolve(F1: BundleFunction, F2: BundleFunction, w: HaarWeights) -> BundleFunction:
    """Crossed-product multiplication:
    (F1 ⊛ F2)(g1) = sum over g1' with r(g1') = r(g1) of
    w(g1') · F1(g1') • beta_{g1'⁻¹}(F2(g1'⁻¹ ∘ g1)).

    Two einsums per block of the targets x with the same number of g1
    arrows, on the plan of _twisted_plan, kept with the parent: the fiber
    products, summed over the fiber in fiber order, then their sum over g1'
    in g1's iteration order. So the values are bit-identical to the loop
    over the definition.
    """
    if F1.parent is not F2.parent or F1.g1.arrows != F2.g1.arrows:
        raise PreconditionError("operands live on different crossed products")
    p, arrows = F1.parent, F1.g1.arrows
    if w.groupoid is not p:
        raise PreconditionError("weights must live on the parent groupoid")
    plan = p._product_slots().kept(("twisted", arrows), _twisted_plan, p, arrows, F1._layout)
    out = np.zeros(F1.values.shape, dtype=complex)
    for rb, b1, f, c1, beta in plan:
        step = max(1, _BLOCK * 4 // (b1.shape[1] * beta[0].size))  # targets, m²K² terms each
        for lo in range(0, len(b1), step):
            x = slice(lo, lo + step)
            u = w.values[f[x]][:, None, :] * F1.values[rb[x]]  # [x, k, j]
            v = F2.values[c1[x][:, None, :, :, None], beta[x][:, :, :, None, :]]  # [x, j, k, r, i]
            S = np.einsum("xkj,xjkri->xkri", u, v, optimize=False)
            out[rb[x]] = np.einsum("xk,xkri->xri", w.values[b1[x]], S, optimize=False)
    return BundleFunction.__new__(BundleFunction)._set(p, F1.g1, F1._layout, out)


def _twisted_plan(s, p, arrows, layout) -> list:
    """twisted_convolve's index arrays for the g1 arrows of p, from its table
    object s, per group of the targets x with m g1 arrows b1_k (k in g1's
    order): row[b1], b1, the fiber f[x, j] at x, c1[x, k, r] the row of
    b1_k⁻¹∘b1_r (in g1, or PreconditionError) and beta[x, j, k, i] the rank
    of b1_k⁻¹∘(f_j⁻¹∘f_i)∘b1_k; c1 and beta are gathered together per block."""
    _, fiber, row, rank = layout
    order = np.fromiter(arrows, dtype=np.intp, count=len(arrows))
    at, ptr = _group(p.n_base, s.tgt[order])  # the g1 arrows by target, in g1 order
    into, m_of = order[at], np.diff(ptr)
    plan = []
    for m in np.unique(m_of[m_of > 0]).tolist():
        b1 = into[ptr[np.flatnonzero(m_of == m), None] + np.arange(m)]  # [x, k]
        c1 = row[s.compose(s.inv[b1][:, :, None], b1[:, None, :])]  # [x, k, r]
        if (c1 < 0).any():
            raise PreconditionError("g1 is not closed under composition")
        f = fiber[row[b1[:, 0]]]  # [x, j]
        h = s.compose(s.inv[f][:, :, None], f[:, None, :])  # [x, j, i] = f_j⁻¹ ∘ f_i
        beta = rank[s.conj(s.inv[b1][:, None, :, None], h[:, :, None, :])]  # [x, j, k, i]
        plan.append((row[b1], b1, f, c1, beta))
    return plan


def groupoid_convolve(
    f1: GroupoidFunction, f2: GroupoidFunction, w: HaarWeights
) -> GroupoidFunction:
    """Convolution in the groupoid algebra:
    (f1 * f2)(g) = sum over eta with r(eta) = r(g) of w(eta) f1(eta) f2(eta⁻¹ ∘ g).

    Each orbit is the pair groupoid on its n base points times the isotropy
    group G_r at its root, so its algebra is M_n(ℂ[G_r]) (J. Renault, "A
    Groupoid Approach to C*-Algebras", LNM 793, 1980) and the convolution a
    matrix product: with A[y, (h, z)] = w·f1 at the star coordinates
    (y, h, z) and B[(h, z), (k, x)] = f2 at (z, h⁻¹k, x), f1 * f2 = A·B.
    One einsum per orbit shape, on the index grids of the plan the table
    object keeps (groupoid._block_plan), which gathers them from the star
    arrows and so proves that the table is a groupoid's; any other table
    raises PreconditionError naming what fails. einsum, not BLAS: it sums
    over (h, z) in order on any CPU, so the bits do not depend on the BLAS
    kernel. On the gauge groupoids of the builtin groups that order is the
    order of eta, and the values are bit-identical to the loop over the
    definition.
    """
    g = f1.groupoid
    if f2.groupoid is not g or w.groupoid is not g:
        raise PreconditionError("operands live on different groupoids")
    u, out = w.values * f1.values, np.empty(g.n_arrows, dtype=complex)
    for at, by, _, _ in g._product_slots().plan(g.arrow_label).shapes:
        out[at] = np.einsum("oyj,ojk->oyk", u[at], f2.values[by], optimize=False)
    return GroupoidFunction(g, out)


def carrier_weights(sd: SemidirectGroupoid, w_parent: HaarWeights) -> HaarWeights:
    """Product weights on the semidirect carrier: w(g0, g1) = w(g0)·w(g1)."""
    if w_parent.groupoid is not sd.parent:
        raise PreconditionError("weights must live on the carrier's parent groupoid")
    P0, P1 = sd.pair_ids
    return HaarWeights(sd, w_parent.values[P0] * w_parent.values[P1])


def semidirect_convolve_pairform(
    f1: GroupoidFunction,
    f2: GroupoidFunction,
    sd: SemidirectGroupoid,
    w_parent: HaarWeights,
) -> GroupoidFunction:
    """The iterated double sum over the transitive selection and the isotropy
    fiber. Its terms are those of groupoid_convolve under the product carrier
    weights, so it is that kernel; only the order of the sums differs."""
    if f1.groupoid is not sd or f2.groupoid is not sd:
        raise PreconditionError("functions must live on the semidirect carrier")
    return groupoid_convolve(f1, f2, carrier_weights(sd, w_parent))


def K_map(F: BundleFunction, sd: SemidirectGroupoid) -> GroupoidFunction:
    """(KF)(g0, g1) = (F(g1))(g0); linear, multiplicative, bijective. The
    carrier's arrows are in F's row-major order, so this is a copy of F's
    values."""
    if F.parent is not sd.parent or F.g1.arrows != sd.g1.arrows:
        raise PreconditionError("bundle function does not match the carrier")
    return GroupoidFunction(sd, F.values.flatten())


def K_inverse(f: GroupoidFunction, sd: SemidirectGroupoid) -> BundleFunction:
    if f.groupoid is not sd:
        raise PreconditionError("function does not live on the semidirect carrier")
    values = f.values.reshape(sd.layout[1].shape).copy()
    return BundleFunction.__new__(BundleFunction)._set(sd.parent, sd.g1, sd.layout, values)


@dataclass
class Theorem1Report:
    trials: int
    seed: int
    tol: float
    max_deviation: float
    pair_identity_ok: bool
    passed: bool
    witness: str | None = None

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _pair_identity_witness(sd: SemidirectGroupoid) -> str | None:
    """The witness of the first carrier pair (i, j), i ascending, then j
    into tgt i, at which (b0,b1)⁻¹ ∘ (a0,a1) = (α_{b1⁻¹}(b0⁻¹ ∘ a0), b1⁻¹ ∘ a1)
    fails, with (a0,a1) and (b0,b1) the pairs of i and j; None if it holds
    throughout. Gathers over the carrier's slot table for the left side and
    over the parent's for the right."""
    cs, ps = sd._product_slots(), sd.parent._product_slots()
    P0, P1 = sd.pair_ids
    for _, i, j in _walk(*cs.into, cs.tgt, _BLOCK):
        via = cs.compose(cs.inv[j], i)
        ib1 = ps.inv[P1[j]]
        bad = (P0[via] != ps.conj(ib1, ps.compose(ps.inv[P0[j]], P0[i]))) | (
            P1[via] != ps.compose(ib1, P1[i])
        )
        if bad.any():
            k = np.argmax(bad)
            i, j = int(i[k]), int(j[k])
            return f"pair identity fails at ({sd.arrow_label(j)})⁻¹∘({sd.arrow_label(i)})"
    return None


def verify_theorem1(
    sd: SemidirectGroupoid,
    trials: int = 100,
    seed: int = 0,
    tol: float = 1e-9,
    w_parent: HaarWeights | None = None,
) -> Theorem1Report:
    """Randomized check that K intertwines the twisted and groupoid
    convolutions, plus the exact pair-inverse identity used alongside it."""
    p = sd.parent
    if w_parent is None:
        w_parent = HaarWeights.counting(p)
    w_carrier = carrier_weights(sd, w_parent)

    witness = _pair_identity_witness(sd)
    pair_ok = witness is None

    rng = np.random.default_rng(seed)
    max_dev = 0.0
    for _ in range(trials):
        F1 = BundleFunction.random(p, sd.g1, rng)
        F2 = BundleFunction.random(p, sd.g1, rng)
        lhs = K_map(twisted_convolve(F1, F2, w_parent), sd)
        rhs = groupoid_convolve(K_map(F1, sd), K_map(F2, sd), w_carrier)
        dev = float(np.max(np.abs(lhs.values - rhs.values)))
        max_dev = max(max_dev, dev) if dev == dev else dev  # max() drops a second NaN
    passed = pair_ok and max_dev <= tol
    if not passed and witness is None:
        witness = f"max deviation {max_dev:.3e} exceeds tolerance {tol:.1e}"
    return Theorem1Report(
        trials=trials,
        seed=seed,
        tol=tol,
        max_deviation=max_dev,
        pair_identity_ok=pair_ok,
        passed=passed,
        witness=witness,
    )

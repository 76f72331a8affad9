"""Convolution algebras: fiber algebras, the dual action, twisted
convolution on the crossed product, groupoid convolution, and the
isomorphism between the two products.

All integrals are weighted finite sums over a Haar weight system
(counting measure by default).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .groupoid import FiniteGroupoid, SubgroupoidSelection
from .semidirect import SemidirectGroupoid

_BLOCK = 1 << 14  # slots per scatter-add block; bounds the temporaries


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
        iso = np.flatnonzero(s.src == s.tgt)
        bad = iso[self.values[iso] != self.values[np.asarray(g.identity)[s.src[iso]]]]
        if bad.size:
            x = g.base_label(int(s.src[bad].min()))
            raise PreconditionError(f"weights are not constant on the isotropy fiber at {x}")
        # w(γ∘a∘γ⁻¹) = w(a) for every arrow γ and every a in the fiber at src γ
        for _, gamma, a in s.iso_pairs(_BLOCK):
            if (self.values[s.conj(gamma, a)] != self.values[a]).any():
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
        v = rng.random(g.n_arrows) + 1j * rng.random(g.n_arrows)
        if support is not None:
            mask = np.zeros(g.n_arrows, dtype=bool)
            mask[list(support)] = True
            v = np.where(mask, v, 0)
        return cls(g, v)

    def supported_on(self, arrows) -> bool:
        mask = np.ones(self.groupoid.n_arrows, dtype=bool)
        mask[list(arrows)] = False
        return bool(np.all(self.values[mask] == 0))

    def restrict(self, arrows) -> "GroupoidFunction":
        mask = np.zeros(self.groupoid.n_arrows, dtype=bool)
        mask[list(arrows)] = True
        return GroupoidFunction(self.groupoid, np.where(mask, self.values, 0))


def _require_fiber_support(a: GroupoidFunction, x: int):
    fiber = a.groupoid.isotropy_fiber(x)
    if not a.supported_on(fiber):
        raise PreconditionError(
            f"function is not supported on the isotropy fiber at "
            f"{a.groupoid.base_label(x)}"
        )
    return fiber


def fiber_convolve(
    a1: GroupoidFunction, a2: GroupoidFunction, x: int, w: HaarWeights
) -> GroupoidFunction:
    """Convolution in the fiber algebra at x:
    (a1 • a2)(g0) = sum over g0' of w(g0') a1(g0') a2(g0'⁻¹ ∘ g0)."""
    g = a1.groupoid
    if a2.groupoid is not g:
        raise PreconditionError("operands live on different groupoids")
    fiber = _require_fiber_support(a1, x)
    _require_fiber_support(a2, x)
    s, at = g._product_slots(), np.array(fiber, dtype=np.intp)
    prods = s.compose(s.inv[at][:, None], at).tolist()  # row gp, column g0
    out = np.zeros(g.n_arrows, dtype=complex)
    for i, g0 in enumerate(fiber):
        acc = 0j
        for gp, row in zip(fiber, prods):
            acc += w[gp] * a1.values[gp] * a2.values[row[i]]
        out[g0] = acc
    return GroupoidFunction(g, out)


def beta(parent: FiniteGroupoid, g1: int, a: GroupoidFunction) -> GroupoidFunction:
    """Dual action: pull back a fiber function along the conjugation action.
    Maps functions on the fiber at r(g1) to functions on the fiber at d(g1)."""
    _require_fiber_support(a, parent.tgt[g1])
    s = parent._product_slots()
    fiber = np.array(parent.isotropy_fiber(parent.src[g1]), dtype=np.intp)
    out = np.zeros(parent.n_arrows, dtype=complex)
    out[fiber] = a.values[s.conj(np.full(fiber.size, g1), fiber)]
    return GroupoidFunction(parent, out)


@dataclass(eq=False)
class BundleFunction:
    """Element of the crossed product: for each arrow of the transitive
    selection, a fiber-algebra element at its target."""

    parent: FiniteGroupoid
    g1: SubgroupoidSelection
    fibers: dict[int, GroupoidFunction]

    def __post_init__(self):
        if set(self.fibers) != set(self.g1.arrows):
            raise PreconditionError("fiber family must cover exactly the g1 arrows")
        for a1, f in self.fibers.items():
            if f.groupoid is not self.parent:
                raise PreconditionError("fiber values must live on the parent groupoid")
            _require_fiber_support(f, self.parent.tgt[a1])

    @classmethod
    def random(cls, parent, g1, rng: np.random.Generator):
        fibers = {}
        for a1 in sorted(g1.arrows):
            fiber = parent.isotropy_fiber(parent.tgt[a1])
            fibers[a1] = GroupoidFunction.random(parent, rng, support=fiber)
        return cls(parent, g1, fibers)


def twisted_convolve(F1: BundleFunction, F2: BundleFunction, w: HaarWeights) -> BundleFunction:
    """Crossed-product multiplication:
    (F1 ⊛ F2)(g1) = sum over g1' with r(g1') = r(g1) of
    w(g1') · F1(g1') • beta_{g1'⁻¹}(F2(g1'⁻¹ ∘ g1)).

    Runs on the parent's slot table, one target x at a time: each fiber
    product is a gather over the fiber at x, and beta an index permutation.
    Sums run over g1' in g1's iteration order and over the fiber in fiber
    order, so the values are bit-identical to the loop over the definition.
    """
    if F1.parent is not F2.parent or F1.g1.arrows != F2.g1.arrows:
        raise PreconditionError("operands live on different crossed products")
    p = F1.parent
    order = list(F1.g1.arrows)
    if not order:
        return BundleFunction(p, F1.g1, {})
    s = p._product_slots()
    into: dict[int, list[int]] = {}  # the g1 arrows by target, in g1 order
    for b1 in order:
        into.setdefault(p.tgt[b1], []).append(b1)
    fiber = {x: np.array(p.isotropy_fiber(x), dtype=np.intp) for x in into}
    rank = np.zeros(p.n_arrows, dtype=np.intp)  # of an isotropy arrow in its fiber
    for f in fiber.values():
        rank[f] = np.arange(f.size)
    # each g1 arrow's values on the fiber at its target, laid end to end
    sizes = np.array([fiber[p.tgt[a1]].size for a1 in order])
    start = np.full(p.n_arrows, -1)
    start[order] = np.cumsum(sizes) - sizes
    v1, v2 = (
        np.concatenate([F.fibers[a1].values[fiber[p.tgt[a1]]] for a1 in order])
        for F in (F1, F2)
    )
    out = {}
    for x, b1 in into.items():
        f, b1 = fiber[x], np.array(b1)
        ib = s.inv[b1]
        c1 = s.compose(ib, b1[:, None])  # [r, k] = b1_k⁻¹ ∘ a1_r, and a1 runs over b1
        if (start[c1] < 0).any():
            raise PreconditionError("g1 is not closed under composition")
        h = s.compose(s.inv[f][:, None], f)  # [j, i] = f_j⁻¹ ∘ f_i
        beta_h = s.conj(ib[:, None, None], h)
        u = v1[start[b1][:, None] + np.arange(f.size)]  # [k, j] = F1(b1_k)(f_j)
        ur, ui = w.values[f] * u.real, w.values[f] * u.imag
        v = v2[start[c1][:, :, None, None] + rank[beta_h]]  # [r, k, j, i]
        vr, vi = v.real, v.imag
        sr, si = np.zeros((2, b1.size, b1.size, f.size))
        for j in range(f.size):
            xr, xi = ur[:, j, None], ui[:, j, None]
            sr += xr * vr[:, :, j] - xi * vi[:, :, j]
            si += xr * vi[:, :, j] + xi * vr[:, :, j]
        acc = np.zeros((b1.size, f.size), dtype=complex)
        for k, wk in enumerate(w.values[b1]):
            acc.real += wk * sr[:, k]
            acc.imag += wk * si[:, k]
        for a1, values in zip(b1.tolist(), acc):
            full = np.zeros(p.n_arrows, dtype=complex)
            full[f] = values
            out[a1] = GroupoidFunction(p, full)
    return BundleFunction(p, F1.g1, {a1: out[a1] for a1 in order})


def groupoid_convolve(
    f1: GroupoidFunction, f2: GroupoidFunction, w: HaarWeights
) -> GroupoidFunction:
    """Convolution in the groupoid algebra:
    (f1 * f2)(g) = sum over eta with r(eta) = r(g) of w(eta) f1(eta) f2(eta⁻¹ ∘ g).

    A scatter-add per real and imaginary part over the slot table: the
    composable pair (a, b) adds w(a) f1(a) f2(b) to a∘b. Slots run a
    ascending and np.add.at adds in order, so each sum takes its terms in
    the order of the loop over eta; with the complex products spelled out
    as real arithmetic, the values are bit-identical to that loop.
    """
    g = f1.groupoid
    if f2.groupoid is not g or w.groupoid is not g:
        raise PreconditionError("operands live on different groupoids")
    s = g._product_slots()
    wr, wi = w.values * f1.values.real, w.values * f1.values.imag
    out_r, out_i = np.zeros((2, g.n_arrows))
    for first, a, b in s.pairs(_BLOCK):
        bins = s.prod[first:first + a.size]
        xr, xi, y = wr[a], wi[a], f2.values[b]
        np.add.at(out_r, bins, xr * y.real - xi * y.imag)
        np.add.at(out_i, bins, xr * y.imag + xi * y.real)
    out = np.empty(g.n_arrows, dtype=complex)
    out.real, out.imag = out_r, out_i
    return GroupoidFunction(g, out)


def carrier_weights(sd: SemidirectGroupoid, w_parent: HaarWeights) -> HaarWeights:
    """Product weights on the semidirect carrier: w(g0, g1) = w(g0)·w(g1)."""
    if w_parent.groupoid is not sd.parent:
        raise PreconditionError("weights must live on the carrier's parent groupoid")
    P0, P1 = np.array(sd.pair_of, dtype=np.intp).reshape(-1, 2).T
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
    """(KF)(g0, g1) = (F(g1))(g0); linear, multiplicative, bijective."""
    if F.parent is not sd.parent or F.g1.arrows != sd.g1.arrows:
        raise PreconditionError("bundle function does not match the carrier")
    vals = np.array([F.fibers[a1].values[a0] for (a0, a1) in sd.pair_of])
    return GroupoidFunction(sd, vals)


def K_inverse(f: GroupoidFunction, sd: SemidirectGroupoid) -> BundleFunction:
    if f.groupoid is not sd:
        raise PreconditionError("function does not live on the semidirect carrier")
    p = sd.parent
    fibers = {}
    for a1 in sd.g1.arrows:
        v = np.zeros(p.n_arrows, dtype=complex)
        for a0 in p.isotropy_fiber(p.tgt[a1]):
            v[a0] = f.values[sd.pair_index[(a0, a1)]]
        fibers[a1] = GroupoidFunction(p, v)
    return BundleFunction(p, sd.g1, fibers)


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
    P0, P1 = np.array(sd.pair_of, dtype=np.intp).reshape(-1, 2).T
    for _, i, j in cs.pairs(_BLOCK, cs.tgt):
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

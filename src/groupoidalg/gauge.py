"""Finite principal bundles, gauge groupoids, their isotropy ("Lorentz")
and section-induced ("translation") subgroupoids, the decomposition of the
gauge groupoid as a semidirect product, and the explicit convolution
formula on that decomposition.

Only trivialized bundles E = X x G are supported; over a finite discrete
base every principal bundle trivializes, so nothing is lost. The continuum
measures of the motivating construction are replaced by counting measures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import (
    GroupoidFunction,
    HaarWeights,
    carrier_weights,
    groupoid_convolve,
)
from .errors import MAX_GAUGE_PAIRS, MalformedTableError, PreconditionError, SizeCapError
from .groupoid import (
    FiniteGroupoid,
    SubgroupoidSelection,
    _build,
    isotropy_subgroupoid,
    validate_groupoid,
)
from .groups import FiniteGroup
from .semidirect import SemidirectGroupoid, prop1_on_carrier, semidirect_product


@dataclass(eq=False)
class FinitePrincipalBundle:
    """Trivialized bundle over a finite base: total space X x G with the
    right action (x, a)·g = (x, ag)."""

    n_base: int
    group: FiniteGroup

    def __post_init__(self):
        if self.n_base < 1:
            raise PreconditionError("bundle base must be nonempty")


@dataclass(frozen=True)
class Section:
    """A choice of group element per base point, representing x ↦ (x, sigma(x))."""

    sigma: tuple[int, ...]

    @classmethod
    def identity(cls, bundle: FinitePrincipalBundle) -> "Section":
        return cls((bundle.group.identity,) * bundle.n_base)

    @classmethod
    def random(cls, bundle: FinitePrincipalBundle, rng: np.random.Generator) -> "Section":
        return cls(tuple(int(rng.integers(bundle.group.order)) for _ in range(bundle.n_base)))

    @classmethod
    def from_names(cls, bundle: FinitePrincipalBundle, names: dict) -> "Section":
        if not isinstance(names, dict):
            raise MalformedTableError("section file: not a map from base point to element")
        base = {str(x) for x in range(bundle.n_base)}
        if unknown := [key for key in names if key not in base]:
            raise MalformedTableError(f"section file: unknown base point {unknown[0]!r}")
        sigma = []
        for x in range(bundle.n_base):
            key = str(x)
            if key not in names:
                raise MalformedTableError(f"section file misses base point {key}")
            sigma.append(bundle.group.index(str(names[key])))
        return cls(tuple(sigma))


@dataclass(eq=False)
class GaugeGroupoid(FiniteGroupoid):
    """Gauge groupoid in normal form: arrow i is the triple (y, g, x)
    representing the class [(y, g), (x, e)]; triple_index[y, g, x] is its
    id, (y·|G| + g)·n + x, as an (n, |G|, n) array."""

    bundle: FinitePrincipalBundle = None
    triples: tuple[tuple[int, int, int], ...] = ()
    triple_index: np.ndarray = None


def gauge_groupoid(bundle: FinitePrincipalBundle) -> GaugeGroupoid:
    """Gauge groupoid of the bundle, with arrows in (y, g, x) normal form,
    composition (y,h1,x)∘(x,h2,z) = (y, h1·h2, z); arrow (y, g, x) has id
    (y·|G| + g)·n + x. Raises SizeCapError above MAX_GAUGE_PAIRS composable
    pairs, before anything is built."""
    G = bundle.group
    n, k = bundle.n_base, G.order
    if n**3 * k**2 > MAX_GAUGE_PAIRS:
        raise SizeCapError(
            f"gauge groupoid too large: {n}³·{k}² = {n**3 * k**2} composable pairs "
            f"> cap {MAX_GAUGE_PAIRS}"
        )
    triples = [(y, g, x) for y in range(n) for g in range(k) for x in range(n)]
    mul, inv = np.array(G.mul, dtype=np.int32).reshape(k, k), np.array(G.inverse, dtype=np.int32)
    y, g, x = np.array(triples, dtype=np.int32).reshape(-1, 3).T
    base = np.arange(n, dtype=np.int32)
    row = ((base * k)[:, None, None] + mul) * n  # [y, g, h]: (y, g·h, 0)
    return _build(  # the slot row of (y, g, x) over into(x) = (x, h, z) is (y, g·h, z)
        GaugeGroupoid, n, x, y, (x * k + inv[g]) * n + y, (base * k + G.identity) * n + base,
        rows=lambda out: np.add(row[:, :, None, :, None], base, out=out.reshape(n, k, n, k, n)),
        arrow_labels=tuple(f"({y},{G.elements[g]},{x})" for (y, g, x) in triples),
        bundle=bundle,
        triples=tuple(triples),
        triple_index=np.arange(n * k * n).reshape(n, k, n),
    )


def lorentz_subgroupoid(gauge: GaugeGroupoid) -> SubgroupoidSelection:
    """The arrows (x, g, x): classes of fiber-preserving transformations;
    coincides with the isotropy subgroupoid."""
    return isotropy_subgroupoid(gauge)


def _translations(gauge: GaugeGroupoid, s: Section) -> np.ndarray:
    """[y, x] ↦ the arrow [s(y), s(x)] = (y, sigma(y)·sigma(x)⁻¹, x), as (n, n)."""
    G = gauge.bundle.group
    if len(s.sigma) != gauge.n_base:
        raise PreconditionError("section does not cover the base")
    sigma, base = np.array(s.sigma), np.arange(gauge.n_base)
    g = np.array(G.mul)[sigma[:, None], np.array(G.inverse)[sigma]]
    return gauge.triple_index[base[:, None], g, base]


def translation_subgroupoid(gauge: GaugeGroupoid, s: Section) -> SubgroupoidSelection:
    """The arrows [s(y), s(x)]: a wide transitive subgroupoid isomorphic to
    the pair groupoid over the base."""
    return SubgroupoidSelection(gauge, frozenset(_translations(gauge, s).ravel().tolist()))


@dataclass(eq=False)
class PoincareDecomposition:
    """Gauge groupoid decomposed along a section: carrier of the semidirect
    product plus the bookkeeping maps used by the explicit formula."""

    bundle: FinitePrincipalBundle
    section: Section
    gauge: GaugeGroupoid
    g0: SubgroupoidSelection
    g1: SubgroupoidSelection
    sd: SemidirectGroupoid
    translation: np.ndarray  # [tgt, src] -> parent arrow id, as (n, n)


def poincare_decomposition(
    bundle: FinitePrincipalBundle, s: Section
) -> PoincareDecomposition:
    gauge = gauge_groupoid(bundle)
    g0 = lorentz_subgroupoid(gauge)
    translation = _translations(gauge, s)
    g1 = SubgroupoidSelection(gauge, frozenset(translation.ravel().tolist()))
    return PoincareDecomposition(
        bundle=bundle,
        section=s,
        gauge=gauge,
        g0=g0,
        g1=g1,
        sd=semidirect_product(gauge, g0, g1),
        translation=translation,
    )


def verify_poincare_decomposition(bundle: FinitePrincipalBundle, s: Section) -> dict:
    """Full decomposition check for one bundle and section.

    Builds the decomposition, validates the gauge groupoid, checks the
    Lorentz subgroupoid, verifies the semidirect product decomposition in
    both directions on its carrier, and reproduces the identity
    i(rho([s(x)g, s(y)])) = [s(x), s(y)] on every arrow. The translation
    subgroupoid needs no check: semidirect_product raises unless it is
    wide, transitive and closed.
    """
    dec = poincare_decomposition(bundle, s)
    gauge, translation = dec.gauge, dec.translation
    checks = {"gauge_valid": validate_groupoid(gauge).ok}
    base = np.arange(gauge.n_base)  # the arrows (x, g, x), read off the normal form
    fixed = frozenset(gauge.triple_index[base, :, base].ravel().tolist())
    checks["lorentz_is_isotropy"] = dec.g0.arrows == fixed
    result = prop1_on_carrier(dec.sd)
    checks["J_is_iso"] = result.J_is_iso
    checks["j_exists"] = result.j_exists
    checks["prop1_biconditional"] = result.J_is_iso == result.j_exists
    checks["i_map_verified"] = result.i_map_verified

    # i(rho(gamma)) must be the translation arrow between gamma's endpoints
    iota_ok = result.i_map is not None
    if iota_ok:
        # selection_to_groupoid indexes the selection's arrows in sorted order
        inclusion = np.array(sorted(dec.g1.arrows))
        i_rho = np.array(result.i_map.arrow_map)[np.array(result.rho.arrow_map)]
        ends = gauge._product_slots()
        iota_ok = bool((inclusion[i_rho] == translation[ends.tgt, ends.src]).all())
    checks["section_identity"] = iota_ok
    checks["measures"] = "counting (discrete stand-in for Haar/Lebesgue)"
    checks["passed"] = all(v is True for k, v in checks.items() if k != "measures")
    return checks


def poincare_convolve(
    f1: GroupoidFunction,
    f2: GroupoidFunction,
    dec: PoincareDecomposition,
    w_parent: HaarWeights | None = None,
) -> GroupoidFunction:
    """The explicit convolution formula on the decomposed gauge groupoid:
    an outer sum over base points (translations) and an inner sum over group
    elements (fiber transformations), written through the section.

    In the σ-frame the carrier arrow (a0, a1), with a1 from y to x and
    a0 = (x, σ(x)·g·σ(x)⁻¹, x), is labelled (x, g, y), and the formula is an
    n×n matrix product over ℂ[G]:
    out[x, g, y] = Σ_z Σ_g' w(iso_x(g'))·w(t_xz) · f1[x, g', z] · f2[z, g'⁻¹g, y],
    with iso_x(g') = (x, σ(x)·g'·σ(x)⁻¹, x) and t_xz the translation z → x.
    One einsum over j = z·|G| + g', z first as in the loop over the
    formula, on index tables built on the first call and kept with the
    carrier, per section (_poincare_plan): the values are bit-identical to
    that loop.

    Agrees with groupoid_convolve under the product carrier weights.
    """
    sd = dec.sd
    if f1.groupoid is not sd or f2.groupoid is not sd:
        raise PreconditionError("functions must live on the decomposition carrier")
    if w_parent is None:
        w_parent = HaarWeights.counting(dec.gauge)
    if w_parent.groupoid is not dec.gauge:
        raise PreconditionError("weights must live on the decomposition's gauge groupoid")
    iso, ids, by = sd._product_slots().kept(("poincare", dec.section.sigma),
                                            lambda _: _poincare_plan(dec))
    dm = w_parent.values[iso][:, None, :] * w_parent.values[dec.translation][:, :, None]
    u = (dm * f1.values[ids]).reshape(1, len(ids), -1)  # [x, (z, g')]
    out = np.empty(sd.n_arrows, dtype=complex)
    out[ids] = np.einsum("oxj,ojk->oxk", u, f2.values[by], optimize=False).reshape(ids.shape)
    return GroupoidFunction(sd, out)


def _poincare_plan(dec: PoincareDecomposition) -> tuple:
    """(iso, ids, by) of poincare_convolve: iso_x(q) as iso[x, q], the carrier
    arrow (iso_x(q), t_xz) as ids[x, z, q], ids at g'⁻¹g as by[0, (z, g'), (y, g)]."""
    G, sd = dec.bundle.group, dec.sd
    n, k = dec.gauge.n_base, G.order
    mul, inv, sigma = np.array(G.mul), np.array(G.inverse), np.array(dec.section.sigma)
    conj = mul[mul[sigma[:, None], np.arange(k)], inv[sigma][:, None]]
    iso = dec.gauge.triple_index[np.arange(n)[:, None], conj, np.arange(n)[:, None]]
    _, _, row, col = sd.layout
    ids = (row[dec.translation] * k)[:, :, None] + col[iso][:, None, :]
    return iso, ids, ids[:, :, mul[inv]].transpose(0, 2, 1, 3).reshape(1, n * k, n * k)


def poincare_convolve_agreement(
    f1: GroupoidFunction,
    f2: GroupoidFunction,
    dec: PoincareDecomposition,
    w_parent: HaarWeights | None = None,
) -> float:
    """Max absolute difference between the explicit formula and the generic
    convolution kernel on the same carrier."""
    if w_parent is None:
        w_parent = HaarWeights.counting(dec.gauge)
    explicit = poincare_convolve(f1, f2, dec, w_parent)
    generic = groupoid_convolve(f1, f2, carrier_weights(dec.sd, w_parent))
    return float(np.max(np.abs(explicit.values - generic.values)))

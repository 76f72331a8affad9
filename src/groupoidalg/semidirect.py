"""Conjugation action, semidirect product of groupoids, and the
isomorphism criterion relating the product to its parent."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import PreconditionError
from .groupoid import (
    FiniteGroupoid,
    GroupoidMorphism,
    SubgroupoidSelection,
    _build,
    isotropy_subgroupoid,
    quotient_by_isotropy,
    selection_to_groupoid,
    subgroupoid_properties,
)
from .morphism import verify_morphism


def alpha(parent: FiniteGroupoid, g1: int, g0: int) -> int:
    """Conjugation action: g1 ∘ g0 ∘ g1⁻¹.

    g0 must be an isotropy arrow at the source of g1; the result is an
    isotropy arrow at the target of g1.
    """
    if parent.src[g0] != parent.tgt[g0]:
        raise PreconditionError(f"{parent.arrow_label(g0)} is not an isotropy arrow")
    if parent.src[g0] != parent.src[g1]:
        raise PreconditionError(
            f"{parent.arrow_label(g0)} does not sit at the source of {parent.arrow_label(g1)}"
        )
    return parent.compose(parent.compose(g1, g0), parent.inv[g1])


@dataclass(eq=False)
class SemidirectGroupoid(FiniteGroupoid):
    """Carrier of the semidirect product; arrow i is the pair pair_of[i]."""

    pair_of: tuple[tuple[int, int], ...] = ()
    pair_index: dict[tuple[int, int], int] = field(default_factory=dict)
    parent: FiniteGroupoid = None
    g0: SubgroupoidSelection = None
    g1: SubgroupoidSelection = None
    pair_ids: np.ndarray = None  # pair_of as a (2, n) intp array: the a0, then the a1


def semidirect_product(
    parent: FiniteGroupoid,
    g0: SubgroupoidSelection,
    g1: SubgroupoidSelection,
) -> SemidirectGroupoid:
    """The semidirect product of the isotropy selection g0 with a wide
    transitive selection g1, materialized as an explicit groupoid.

    Arrows are pairs (gamma0, gamma1) with d(gamma0) = r(gamma1);
    multiplication twists the second factor through the conjugation action.
    """
    if g0.arrows != isotropy_subgroupoid(parent).arrows:
        raise PreconditionError(
            "g0 must be the full isotropy subgroupoid of the parent"
        )
    props = subgroupoid_properties(parent, g1)
    if not props["is_closed"]:
        raise PreconditionError("g1 is not closed under composition/inverses")
    if not props["is_wide"]:
        raise PreconditionError("g1 is not wide")
    if not props["is_transitive"]:
        raise PreconditionError("g1 is not transitive")

    # g0 is the full isotropy, so its arrows at r(a1) are one isotropy fiber
    pairs = [
        (a0, a1) for a1 in sorted(g1.arrows) for a0 in parent.isotropy_fiber(parent.tgt[a1])
    ]
    P0, P1 = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    rank = np.zeros(parent.n_arrows, dtype=np.intp)  # of an isotropy arrow in its fiber
    rank[P0] = np.arange(P0.size) - np.searchsorted(P1, P1)
    ps, ident = parent._product_slots(), np.asarray(parent.identity)

    def carrier(c0, c1):  # the id of (c0, c1): the first pair on c1 plus the rank of c0
        return np.searchsorted(P1, c1) + rank[c0]

    def product(i, j):  # (a0, a1)∘(b0, b1) = (a0∘α_{a1}(b0), a1∘b1)
        a0, a1 = P0[i], P1[i]
        return carrier(ps.compose(a0, ps.conj(a1, P0[j])), ps.compose(a1, P1[j]))

    inv1 = ps.inv[P1]  # (a0, a1)⁻¹ = (α_{a1⁻¹}(a0⁻¹), a1⁻¹)
    return _build(
        SemidirectGroupoid, parent.n_base, ps.src[P1], ps.tgt[P0],
        carrier(ps.conj(inv1, ps.inv[P0]), inv1), carrier(ident, ident), product,
        arrow_labels=tuple(
            f"({parent.arrow_label(a0)},{parent.arrow_label(a1)})" for (a0, a1) in pairs
        ),
        base_labels=parent.base_labels, pair_of=tuple(pairs),
        pair_index={p: i for i, p in enumerate(pairs)}, pair_ids=np.stack((P0, P1)),
        parent=parent, g0=g0, g1=g1,
    )


def J_map(sd: SemidirectGroupoid) -> GroupoidMorphism:
    """The comparison morphism (gamma0, gamma1) ↦ gamma0 ∘ gamma1 into the parent."""
    parent = sd.parent
    P0, P1 = sd.pair_ids
    return GroupoidMorphism(
        domain=sd,
        codomain=parent,
        arrow_map=tuple(parent._product_slots().compose(P0, P1).tolist()),
        base_map=tuple(parent.base()),
    )


@dataclass
class Prop1Result:
    j_exists: bool
    J_is_iso: bool
    i_map: GroupoidMorphism | None
    i_map_verified: bool
    sd: SemidirectGroupoid
    quotient: FiniteGroupoid
    rho: GroupoidMorphism


def prop1_equivalence(
    parent: FiniteGroupoid,
    g0: SubgroupoidSelection,
    g1: SubgroupoidSelection,
) -> Prop1Result:
    """Both directions of the decomposition criterion on one instance:
    prop1_on_carrier of the semidirect product of g0 and g1."""
    return prop1_on_carrier(semidirect_product(parent, g0, g1))


def prop1_on_carrier(sd: SemidirectGroupoid) -> Prop1Result:
    """Both directions of the decomposition criterion on a built carrier.

    j_exists: the quotient by g0 is isomorphic to g1. Decided on j = rho∘iota:
    the quotient of the transitive parent has one arrow per pair of
    endpoints and j is onto, so some isomorphism exists iff j is one.
    J_is_iso: the comparison morphism from the semidirect product is an
    isomorphism. The two booleans agree on every lawful instance; callers
    treat their equality as a checked postcondition.

    When the comparison map is invertible, the induced map from the
    quotient onto g1 (class of J(gamma0, gamma1) ↦ gamma1) is built and verified.
    """
    quotient, rho = quotient_by_isotropy(sd.parent, sd.g0)
    g1_groupoid, inclusion = selection_to_groupoid(sd.g1)
    j = GroupoidMorphism(
        g1_groupoid, quotient, tuple(rho.arrow_map[a] for a in inclusion.arrow_map),
        base_map=tuple(quotient.base()),
    )
    j_exists = verify_morphism(j, require_iso=True).ok

    J = J_map(sd)
    J_is_iso = verify_morphism(J, require_iso=True).ok

    i_map = None
    i_verified = False
    if J_is_iso:
        g1_index = {a: k for k, a in enumerate(inclusion.arrow_map)}
        arrow_map = [0] * quotient.n_arrows
        for (_, a1), gamma in zip(sd.pair_of, J.arrow_map):
            arrow_map[rho.arrow_map[gamma]] = g1_index[a1]
        i_map = GroupoidMorphism(
            domain=quotient,
            codomain=g1_groupoid,
            arrow_map=tuple(arrow_map),
            base_map=tuple(quotient.base()),
        )
        i_verified = verify_morphism(i_map, require_iso=True).ok
    return Prop1Result(
        j_exists=j_exists,
        J_is_iso=J_is_iso,
        i_map=i_map,
        i_map_verified=i_verified,
        sd=sd,
        quotient=quotient,
        rho=rho,
    )

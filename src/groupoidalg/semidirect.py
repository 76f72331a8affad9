"""Semidirect product of groupoids, twisted by the conjugation action
_Tables.conj, and the isomorphism criterion relating the product to its
parent."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .groupoid import (
    FiniteGroupoid,
    GroupoidMorphism,
    SubgroupoidSelection,
    _build,
    _group,
    isotropy_subgroupoid,
    quotient_by_isotropy,
    selection_to_groupoid,
    subgroupoid_properties,
)
from .morphism import verify_morphism


def _layout(parent: FiniteGroupoid, g1: SubgroupoidSelection):
    """The crossed-product order of both sides of Theorem 1: the rows,
    sorted(g1.arrows); per row the isotropy fiber at its target, as (|g1|, K);
    per parent arrow its row (-1 off g1) and its column, its rank in its fiber.
    Carrier arrow row·K + column is (fiber arrow, row arrow), and values[row, column]
    of a BundleFunction. Read-only, built once per g1 arrow set and kept
    with the parent, next to twisted_convolve's plan."""
    if g1.parent is not parent:
        raise PreconditionError("g1 must be a selection of the parent groupoid")
    return parent._tables.kept(("layout", g1.arrows), _build_layout, parent, g1.arrows)


def _build_layout(_, parent: FiniteGroupoid, arrows) -> tuple:
    rows = np.array(sorted(arrows), dtype=np.intp)
    # the public fibers: a BundleFunction's parent may have had no structure pass
    iso = [parent.isotropy_fiber(x) for x in parent.base()]
    fibers = [iso[parent.tgt[a]] for a in rows.tolist()]
    if len(set(map(len, fibers))) > 1:
        raise PreconditionError("the isotropy fibers at the targets of g1 differ in size")
    fiber = np.array(fibers, dtype=np.intp).reshape(rows.size, len(fibers[0]) if fibers else 0)
    row, col = np.full(parent.n_arrows, -1, dtype=np.intp), np.zeros(parent.n_arrows, np.intp)
    row[rows], col[fiber] = np.arange(rows.size), np.arange(fiber.shape[1])
    for table in (rows, fiber, row, col):
        table.setflags(write=False)
    return rows, fiber, row, col


@dataclass(eq=False)
class SemidirectGroupoid(FiniteGroupoid):
    """Carrier of the semidirect product; arrow i is the pair pair_of[i], in _layout order."""

    pair_of: tuple[tuple[int, int], ...] = ()
    parent: FiniteGroupoid = None
    g0: SubgroupoidSelection = None
    g1: SubgroupoidSelection = None
    pair_ids: np.ndarray = None  # pair_of as a (2, n) intp array: the a0, then the a1
    layout: tuple = None  # _layout(parent, g1)


def semidirect_product(
    parent: FiniteGroupoid,
    g0: SubgroupoidSelection,
    g1: SubgroupoidSelection,
) -> SemidirectGroupoid:
    """The semidirect product of the isotropy selection g0 with a wide
    transitive selection g1, materialized as an explicit groupoid.

    Arrows are pairs (gamma0, gamma1) with d(gamma0) = r(gamma1), and
    (a0, a1)∘(b0, b1) = (a0∘α_{a1}(b0), a1∘b1), twisted by conjugation.
    Carrier arrow i = r·K + a, with a1 the r-th arrow of g1, meets the
    arrows (b1_j, f_c) into src a1 in id order, j then c, so its products
    are the outer sum R[r, j] + C[i, c] of K·row(a1∘b1_j) and col(a0∘α_{a1}(f_c)).
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

    rows, fiber, row, col = layout = _layout(parent, g1)
    K = fiber.shape[1]
    P0, P1 = fiber.ravel(), np.repeat(rows, K)
    ps = parent._product_slots()
    into, ptr = _group(parent.n_base, ps.tgt[rows])  # the rows of the g1 arrows into each x
    m, a1 = ptr[1:] - ptr[:-1], rows[:, None]
    if (m != m[:1]).any():
        raise PreconditionError("the fibers of g1 differ in size")
    at = ptr[ps.src[rows]]  # [r]: the first row into src a1, whose fiber is f
    b1 = rows[into[at[:, None] + np.arange(m.max(initial=0))]]  # [r, j]
    twist = ps.compose(ps.get(a1, fiber[into[at]]), ps.inv[a1])  # [r, c]: α_{a1}(f_c)
    R = (K * row[ps.get(a1, b1)]).astype(np.int32)
    C = col[ps.compose(fiber[:, :, None], twist[:, None])].astype(np.int32)
    inv1 = ps.inv[P1]  # (a0, a1)⁻¹ = (α_{a1⁻¹}(a0⁻¹), a1⁻¹)
    pairs = tuple(zip(P0.tolist(), P1.tolist()))
    return _build(  # the id of (c0, c1) is row(c1)·K + col(c0)
        SemidirectGroupoid, parent.n_base, ps.src[P1], ps.tgt[P0],
        row[inv1] * K + col[ps.conj(inv1, ps.inv[P0])], (row * K + col)[ps.identity],
        rows=lambda out: np.add(R[:, None, :, None], C[:, :, None],
                                out=out.reshape(R.shape[0], K, R.shape[1], K)),
        arrow_labels=tuple(
            f"({parent.arrow_label(a0)},{parent.arrow_label(a1)})" for (a0, a1) in pairs
        ),
        base_labels=parent.base_labels, pair_of=pairs, pair_ids=np.stack((P0, P1)),
        parent=parent, g0=g0, g1=g1, layout=layout,
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
        # carrier arrow i lies on row i // K, the g1 arrow of that index
        arrow_map = np.zeros(quotient.n_arrows, dtype=np.intp)
        arrow_map[np.asarray(rho.arrow_map)[list(J.arrow_map)]] = (
            np.arange(sd.n_arrows) // sd.layout[1].shape[1])
        i_map = GroupoidMorphism(
            domain=quotient,
            codomain=g1_groupoid,
            arrow_map=tuple(arrow_map.tolist()),
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

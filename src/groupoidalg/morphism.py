"""Morphism verification and exhaustive isomorphism search for small instances."""

from __future__ import annotations

import numpy as np

from .errors import SizeCapError
from .groupoid import (
    _PAIR_BLOCK,
    FiniteGroupoid,
    GroupoidMorphism,
    ValidationReport,
    _ids,
)

DEFAULT_ISO_CAP = 64


def verify_morphism(m: GroupoidMorphism, require_iso: bool = False) -> ValidationReport:
    """Check the functoriality invariants of a groupoid morphism.

    With require_iso, additionally checks that both maps are bijections.
    Each check is an array compare; composition is one gather over the
    codomain's slot table per block of the domain's composable pairs.
    Violations come in arrow, base-point and compose-table order.
    """
    rep = ValidationReport()
    d, c = m.domain, m.codomain
    am, bm = m.arrow_map, m.base_map
    if len(am) != d.n_arrows or len(bm) != d.n_base:
        rep.add("morphism", "totality", (), "arrow_map/base_map are not total")
        return rep
    AM, BM = (_ids(t.__iter__, len(t)) for t in (am, bm))  # beyond int32: -1
    if ((AM < 0) | (AM >= c.n_arrows)).any() or ((BM < 0) | (BM >= c.n_base)).any():
        rep.add("morphism", "totality", (), "map values out of range")
        return rep
    ds, cs = d._product_slots(), c._product_slots()
    bad_src, bad_tgt = cs.src[AM] != BM[ds.src], cs.tgt[AM] != BM[ds.tgt]
    for a in np.flatnonzero(bad_src | bad_tgt).tolist():
        if bad_src[a]:
            rep.add("morphism", "source", (a,), f"src not preserved at {d.arrow_label(a)}")
        if bad_tgt[a]:
            rep.add("morphism", "target", (a,), f"tgt not preserved at {d.arrow_label(a)}")
    for x in np.flatnonzero(AM[ds.identity] != cs.identity[BM]).tolist():
        rep.add("morphism", "identity", (x,), f"identity at {d.base_label(x)} not preserved")
    fails = set()
    for a, b, ab in ds.pairs(_PAIR_BLOCK):
        hit = cs.get(AM[a], AM[b]) != AM[ab]
        fails.update(zip(a[hit].tolist(), b[hit].tolist()))
    if fails:  # only a failure walks the compose table, for its witness order
        for a, b in (ab for ab in d.compose_table if ab in fails):
            what = ("composition not preserved" if c.composable(am[a], am[b])
                    else "image pair not composable")
            rep.add("morphism", "composition", (a, b),
                    f"{what} at ({d.arrow_label(a)}, {d.arrow_label(b)})")
    if require_iso:
        if len(set(bm)) != c.n_base or d.n_base != c.n_base:
            rep.add("bijectivity", "base", (), "base_map is not a bijection")
        if len(set(am)) != c.n_arrows or d.n_arrows != c.n_arrows:
            rep.add("bijectivity", "arrows", (), "arrow_map is not a bijection")
    return rep


def _signatures(g: FiniteGroupoid):
    """Per arrow: (is identity, order under repeated composition with
    itself) for an isotropy arrow, (False, 0) for any other. Per base
    point: its fiber sizes and the sorted orders of its isotropy fiber.
    The orders come from repeated gathers over the slot table."""
    s = g._product_slots()
    iso, ptr = s.iso
    e = s.identity[s.src[iso]]
    x, order = iso.copy(), np.ones(iso.size, dtype=np.int64)
    live = np.flatnonzero(x != e)
    while live.size:
        x[live] = s.compose(x[live], iso[live])
        order[live] += 1
        live = live[x[live] != e[live]]
    arrow = [(False, 0)] * g.n_arrows
    orders = order.tolist()
    for a, is_e, k in zip(iso.tolist(), (iso == e).tolist(), orders):
        arrow[a] = (is_e, k)
    sizes = ((p[1:] - p[:-1]).tolist() for p in (s.into[1], s.out[1], ptr))
    base = [(*n, tuple(sorted(orders[lo:hi])))
            for *n, lo, hi in zip(*sizes, ptr[:-1].tolist(), ptr[1:].tolist())]
    return arrow, base


def _extend_arrows(g, h, base_map, cand, order, sig_g, sig_h, prod_g, prod_h):
    """Backtracking arrow assignment with forced-product propagation; sig_*
    are the arrow signatures and prod_* the products."""
    into, out = ([fiber(x) for x in g.base()] for fiber in (g.arrows_into, g.arrows_from))
    amap: dict[int, int] = {}
    used: set[int] = set()
    # identities are forced
    for x in g.base():
        delta = h.identity[base_map[x]]
        amap[g.identity[x]] = delta
        used.add(delta)

    def consistent(a, d):
        # inverse coherence
        ia = g.inv[a]
        if ia in amap and amap[ia] != h.inv[d]:
            return None
        forced = []
        if ia not in amap:
            if h.inv[d] in used and h.inv[d] != d:
                return None
            if ia != a:
                forced.append((ia, h.inv[d]))
        return forced

    def propagate(a, d, trail):
        """Assign a→d plus everything it forces; append to trail, or fail."""
        queue = [(a, d)]
        while queue:
            a, d = queue.pop()
            if a in amap:
                if amap[a] != d:
                    return False
                continue
            if d in used:
                return False
            if h.src[d] != base_map[g.src[a]] or h.tgt[d] != base_map[g.tgt[a]]:
                return False
            if sig_g[a] != sig_h[d]:
                return False
            forced = consistent(a, d)
            if forced is None:
                return False
            amap[a] = d
            used.add(d)
            trail.append(a)
            queue.extend(forced)
            # products with already-assigned partners (a itself included) are
            # forced; the closure, and so the outcome, does not depend on order
            for b in into[g.src[a]]:
                if b in amap:
                    queue.append((prod_g(a, b), prod_h(d, amap[b])))
            for b in out[g.tgt[a]]:
                if b != a and b in amap:
                    queue.append((prod_g(b, a), prod_h(amap[b], d)))
        return True

    def undo(trail, n):
        while len(trail) > n:
            a = trail.pop()
            used.discard(amap.pop(a))

    def search(i):
        while i < len(order) and order[i] in amap:
            i += 1
        if i == len(order):
            return True
        a = order[i]
        for d in cand[a]:
            if d in used:
                continue
            trail: list[int] = []
            if propagate(a, d, trail) and search(i + 1):
                return True
            undo(trail, 0)
        return False

    if search(0):
        return tuple(amap[a] for a in g.arrows())
    return None


def find_isomorphism(
    g: FiniteGroupoid, h: FiniteGroupoid, max_arrows: int = DEFAULT_ISO_CAP
) -> GroupoidMorphism | None:
    """Exhaustive isomorphism search, pruned by fiber-size and isotropy-order
    signatures. Returns a verified isomorphism or None.

    Groupoids of different sizes are rejected before the cap applies;
    raises SizeCapError above max_arrows, since the worst case is factorial.
    """
    if g.n_base != h.n_base or g.n_arrows != h.n_arrows:
        return None
    if g.n_arrows > max_arrows:
        raise SizeCapError(
            f"instance too large for isomorphism search "
            f"({g.n_arrows} arrows > cap {max_arrows})"
        )
    arrow_g, sig_g = _signatures(g)
    arrow_h, sig_h = _signatures(h)
    if sorted(sig_g) != sorted(sig_h):
        return None
    prod_g, prod_h = g._product_slots().lookup(), h._product_slots().lookup()
    into_h = [h.arrows_into(y) for y in h.base()]

    base_candidates = [
        [y for y in h.base() if sig_h[y] == sig_g[x]] for x in g.base()
    ]

    def base_search(x, taken, assignment):
        if x == g.n_base:
            yield tuple(assignment)
            return
        for y in base_candidates[x]:
            if y in taken:
                continue
            assignment.append(y)
            taken.add(y)
            yield from base_search(x + 1, taken, assignment)
            taken.discard(y)
            assignment.pop()

    for base_map in base_search(0, set(), []):
        cand = {}
        feasible = True
        for a in g.arrows():
            cs = [
                d
                for d in into_h[base_map[g.tgt[a]]]
                if h.src[d] == base_map[g.src[a]]
                and arrow_h[d] == arrow_g[a]
            ]
            if not cs:
                feasible = False
                break
            cand[a] = cs
        if not feasible:
            continue
        order = sorted(g.arrows(), key=lambda a: len(cand[a]))
        amap = _extend_arrows(g, h, base_map, cand, order, arrow_g, arrow_h, prod_g, prod_h)
        if amap is not None:
            m = GroupoidMorphism(domain=g, codomain=h, arrow_map=amap, base_map=base_map)
            if verify_morphism(m, require_iso=True).ok:
                return m
    return None

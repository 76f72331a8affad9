"""Morphism verification, and isomorphisms of finite groupoids orbit by
orbit (Brandt's theorem)."""

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
        hit = cs.get(AM[a], AM[b]) != AM[ab.astype(np.intp)]  # numpy gathers slower by int32
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


def _orders(mul, e: int) -> np.ndarray:
    """The order of each element of the group table mul, e its identity."""
    order, x, a = np.ones(len(mul), dtype=np.intp), np.arange(len(mul)), np.arange(len(mul))
    while (live := x != e).any():
        x = np.where(live, mul[x, a], x)
        order += live
    return order


def _close(phi, mul_g, mul_h):
    """The partial map phi of ranks (-1 where unset), extended by
    phi(a·b) = phi(a)·phi(b) until its domain is closed under products, a
    subgroup; None when an element meets two images, or two elements one."""
    phi = phi.copy()
    while True:
        d = np.flatnonzero(phi >= 0)
        p, q = mul_g[np.ix_(d, d)], mul_h[np.ix_(phi[d], phi[d])]
        phi[p] = q  # e·a = a, so an image changed shows as two for one element
        if (phi[p] != q).any():
            return None
        mapped = phi[phi >= 0]
        if np.unique(mapped).size < mapped.size:
            return None
        if mapped.size == d.size:
            return phi


def _group_isomorphism(mul_g, mul_h):
    """A bijection phi of ranks with phi(a·b) = phi(a)·phi(b) between two
    group tables, or None: a backtracking search over the images of a
    generating set of mul_g, each generator the lowest rank outside the
    subgroup the earlier ones generate, each candidate image of the same
    element order and each choice closed under products before the next."""
    eg, eh = (int(np.flatnonzero((m == np.arange(len(m))).all(axis=1))[0])
              for m in (mul_g, mul_h))
    og, oh = _orders(mul_g, eg), _orders(mul_h, eh)

    def search(phi):
        if phi is None or (phi >= 0).all():
            return phi
        a = int(np.argmax(phi < 0))
        for c in np.flatnonzero(oh == og[a]):
            ext = phi.copy()
            ext[a] = c
            if (found := search(_close(ext, mul_g, mul_h))) is not None:
                return found
        return None

    return search(np.where(np.arange(len(mul_g)) == eg, eh, -1))


def _orbits(g: FiniteGroupoid) -> list:
    """g's orbits off its plan (groupoid._block_plan), by shape (n, |G_r|)
    and then in root order: per orbit at[y, h, x], the arrow (y, h, x), and
    the rank table of G_r. PreconditionError when the table is not a
    groupoid's."""
    return [(at.reshape(len(at), -1, len(at)), mul)
            for grid, _, _, muls in g._product_slots().plan(g.arrow_label).shapes
            for at, mul in zip(grid, muls)]


def find_isomorphism(
    g: FiniteGroupoid, h: FiniteGroupoid, max_arrows: int = DEFAULT_ISO_CAP
) -> GroupoidMorphism | None:
    """An isomorphism g → h, verified, or None. By Brandt's theorem every
    orbit is the pair groupoid on its n points times its isotropy group
    G_r, so g ≅ h exactly when their orbits match one to one with equal n
    and isomorphic G_r. Each orbit of g takes the first free orbit of h
    of its shape (n, |G_r|) whose group is isomorphic by some phi
    (_group_isomorphism); the star coordinates (y, k, x) go to (y, phi(k),
    x), the y-th point of one orbit to the y-th of the other.

    Groupoids of different sizes are rejected before the cap applies;
    raises SizeCapError above max_arrows, and PreconditionError when a
    table is not a groupoid's.
    """
    if g.n_base != h.n_base or g.n_arrows != h.n_arrows:
        return None
    if g.n_arrows > max_arrows:
        raise SizeCapError(
            f"instance too large for isomorphism search "
            f"({g.n_arrows} arrows > cap {max_arrows})"
        )
    free = _orbits(h)
    am, bm = np.empty(g.n_arrows, dtype=np.intp), np.empty(g.n_base, dtype=np.intp)
    for at, mul in _orbits(g):
        for i, (to, mul_h) in enumerate(free):
            if to.shape == at.shape and (phi := _group_isomorphism(mul, mul_h)) is not None:
                am[at] = to[:, phi]
                bm[g._tables.tgt[at[:, 0, 0]]] = h._tables.tgt[to[:, 0, 0]]
                del free[i]
                break
        else:
            return None
    m = GroupoidMorphism(domain=g, codomain=h, arrow_map=tuple(am.tolist()),
                         base_map=tuple(bm.tolist()))
    return m if verify_morphism(m, require_iso=True).ok else None

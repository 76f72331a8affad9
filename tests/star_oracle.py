"""The reference for groupoid._block_plan: the star coordinates by two
walks, one over the isotropy fibers at the roots and one over the orbits,
then the grid of every orbit shape by a scatter of each arrow to its
target, its rank in G_r and its source, and the same checks and messages.
_block_plan gathers its grid from the star arrows instead; the two must
give the same arrays and raise on the same tables."""

import numpy as np
import pytest

from groupoidalg.errors import MalformedTableError, PreconditionError
from groupoidalg.groupoid import _PAIR_BLOCK, _block_plan, _group, _left_quotients, _walk
from groupoidalg.groups import FiniteGroup

NO_STAR = "the compose table has no star coordinates: it is not a groupoid's"


def oracle_star_coordinates(s):
    """(root, star, rank) of the table object s, or None when they are not
    seen to cover every arrow: the root r of an orbit is its lowest base
    point, star[x] the first arrow from r into x, and each arrow a: x → y
    must be star[y]∘(k∘inv[star[x]]) for exactly one (y, k, x) with k in
    iso(r), of rank rank[a] there, and have target y and source x."""
    ids, ptr = s.into
    sizes = np.diff(ptr)
    if not (sizes.size and sizes.all()):
        return None
    ends = s.src[ids]
    root = np.minimum.reduceat(ends, ptr[:-1])
    first = np.flatnonzero(ends == np.repeat(root, sizes))
    star = ids[first[first.searchsorted(ptr[:-1])]]
    orbit, optr = _group(len(sizes), root)
    if (np.diff(optr) ** 2 * np.diff(s.iso[1])).sum() != len(s.src):
        return None
    span = np.diff(s.iso[1])[root]
    blocks = list(_walk(*s.iso, root, _PAIR_BLOCK))  # (x, k) with k in iso(root x)
    x, k = (np.concatenate([blk[i] for blk in blocks]) for i in (1, 2))
    k_rank = np.arange(x.size) - np.repeat(np.cumsum(span) - span, span)
    t = s.get(k, s.inv[star[x]])
    if (t < 0).any():
        return None
    rank = np.full(len(s.src), -1, dtype=np.int32)
    for _, i, y in _walk(orbit, optr, root[x], _PAIR_BLOCK):  # y with the root of x[i]
        c = s.get(star[y], t[i])
        if (c < 0).any() or (s.tgt[c] != y).any() or (s.src[c] != x[i]).any():
            return None
        rank[c] = k_rank[i]
    if (rank < 0).any():
        return None
    return root, star, rank


def oracle_block_plan(s, label):
    """The coordinates of oracle_star_coordinates and the list of (at, by)
    per orbit shape, or PreconditionError with _block_plan's message."""
    if not len(s.src):
        return None, []
    coords = oracle_star_coordinates(s)
    if coords is None:
        raise PreconditionError(NO_STAR)
    root, star, rank = coords
    iso_ids, iso_ptr = s.iso
    sizes = np.diff(iso_ptr)
    in_fiber = np.full(len(s.src), -1, dtype=np.intp)
    in_fiber[iso_ids] = np.arange(iso_ids.size) - np.repeat(iso_ptr[:-1], sizes)
    roots = np.flatnonzero(root == np.arange(root.size))
    orbit = roots.searchsorted(root)
    n_of, k_of = np.bincount(orbit), sizes[roots]
    by_orbit, optr = _group(roots.size, orbit)
    local = np.empty(orbit.size, dtype=np.intp)
    local[by_orbit] = np.arange(orbit.size) - np.repeat(optr[:-1], n_of)
    at_orbit = orbit[s.tgt]
    plan, groups, first = [], [], (s.n_slots,)
    for n, K in sorted(set(zip(n_of.tolist(), k_of.tolist()))):
        os = np.flatnonzero((n_of == n) & (k_of == K))
        where = np.full(roots.size, -1, dtype=np.intp)
        where[os] = np.arange(os.size)
        arrows = np.flatnonzero(where[at_orbit] >= 0)
        at = np.empty((os.size, n, K, n), dtype=np.intp)
        at.reshape(-1)[((where[at_orbit[arrows]] * n + local[s.tgt[arrows]]) * K
                        + rank[arrows]) * n + local[s.src[arrows]]] = arrows
        kr = iso_ids[iso_ptr[roots[os], None] + np.arange(K)]
        mul = in_fiber[s.get(kr[:, :, None], kr[:, None, :])]
        groups += [(roots[os[o]], kr[o], mul[o])
                   for o in {m.tobytes(): o for o, m in enumerate(mul)}.values()]
        ldiv = _left_quotients(mul)[:, :, None, :, None]
        by = at[np.arange(os.size)[:, None, None, None, None], np.arange(n)[:, None, None],
                ldiv, np.arange(n)].reshape(os.size, K * n, K * n)
        at = at.reshape(os.size * n, K * n)
        for row in range(len(at)):  # every pair (at[row, j], by[o, j, k]), one row at a time
            slot = s.off[at[row]][:, None] + s.pos[by[row // n]]
            bad = s.prod[slot] != at[row]
            if bad.any():
                j, k = np.unravel_index(np.where(bad, slot, s.n_slots).argmin(), bad.shape)
                first = min(first, (int(slot[j, k]), int(at[row, j]), int(by[row // n, j, k])))
        plan.append((at.reshape(os.size, n, K * n), by))
    if len(first) > 1:
        raise PreconditionError(
            f"the compose table is not a groupoid's: {label(first[1])}∘{label(first[2])} "
            "is not the arrow its star coordinates give")
    for r, k, mul in groups:
        try:
            FiniteGroup(f"of the isotropy at base point {r}", tuple(map(label, k.tolist())),
                        mul.tolist())
        except MalformedTableError as exc:
            raise PreconditionError(f"the compose table is not a groupoid's: {exc}") from None
    return coords, plan


def assert_same_plan(g):
    """groupoid._block_plan on g equals the reference: the same star arrows,
    roots (the sources of the star arrows) and k per arrow, and at and by
    byte for byte, of one dtype, shape and C order; or both raise
    PreconditionError with one message. The plan, or None."""
    s, label = g._product_slots(), g.arrow_label
    try:
        coords, grids = oracle_block_plan(s, label)
    except PreconditionError as exc:
        with pytest.raises(PreconditionError) as info:
            _block_plan(s, label)
        assert str(info.value) == str(exc)
        return None
    plan = _block_plan(s, label)
    if coords is not None:
        root, star, rank = coords
        iso_ids, iso_ptr = s.iso
        assert np.array_equal(plan.star, star) and np.array_equal(s.src[plan.star], root)
        assert np.array_equal(plan.k, iso_ids[iso_ptr[root[s.src]] + rank])
    assert len(plan.shapes) == len(grids)
    for (at, by, _, _), want in zip(plan.shapes, grids):
        for got, ref in zip((at, by), want):
            assert (got.dtype, got.shape) == (ref.dtype, ref.shape)
            assert got.flags.c_contiguous and ref.flags.c_contiguous
            assert got.tobytes() == ref.tobytes()
    return plan

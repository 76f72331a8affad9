"""Finite groupoid data model, axiom validation, subgroupoids and quotients.

Arrows and base points are dense integer ids. Composition follows the
"gamma after xi" convention: compose(g, xi) is defined exactly when
src(g) == tgt(xi), and then src(g∘xi) == src(xi), tgt(g∘xi) == tgt(g).
"""

from __future__ import annotations

import operator
from collections.abc import ItemsView, Mapping
from dataclasses import dataclass, field
from itertools import accumulate, chain

import numpy as np

from .errors import MAX_GAUGE_PAIRS, MalformedTableError, PreconditionError, SizeCapError
from .groups import FiniteGroup

AXIOM_SOURCE_TARGET = "source-target"
AXIOM_ASSOCIATIVITY = "associativity"
AXIOM_IDENTITY = "identity"
AXIOM_INVERSE = "inverse"
AXIOM_IDENTITY_BASE = "identity-base"


@dataclass(frozen=True)
class Violation:
    kind: str  # "malformed" or "axiom" (morphism checks reuse other kinds)
    axiom: str
    witness: tuple
    message: str

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "axiom": self.axiom,
            "witness": list(self.witness),
            "message": self.message,
        }


@dataclass
class ValidationReport:
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def axioms_cited(self) -> set[str]:
        return {v.axiom for v in self.violations}

    def add(self, kind: str, axiom: str, witness: tuple, message: str):
        self.violations.append(Violation(kind, axiom, witness, message))

    def to_dict(self) -> dict:
        return {"ok": self.ok, "violations": [v.to_dict() for v in self.violations]}


def _group(n_base: int, ends):
    """The positions 0..len(ends)-1 grouped by their value in ends, in
    order: group x is at[ptr[x]:ptr[x + 1]]. A value outside the base is
    in no group."""
    at = np.argsort(ends, kind="stable")
    ptr = ends[at].searchsorted(np.arange(n_base + 1, dtype=ends.dtype))
    return at[ptr[0]:ptr[-1]], ptr - ptr[0]


def _walk(ids, ptr, end, block: int):
    """The pairs (a, b) with b in ids[ptr[end[a]]:ptr[end[a] + 1]], a
    ascending, then b in that order. With ids, ptr the arrows grouped by
    target and end = src, these are the composable pairs in slot order. In
    blocks of the pairs of whole arrows a, at most block pairs unless one
    arrow has more: yields (first pair, a, b) with a and b arrays."""
    span = (ptr[1:] - ptr[:-1])[end]  # method calls: at small sizes the overhead is the cost
    off = span.cumsum() - span
    step = max(1, block // max(1, int(span.max(initial=0))))
    shift = ptr[end] - off  # b runs over ids[ptr[end a]:], from pair off[a]
    for lo in range(0, len(span), step):
        hi = min(lo + step, len(span))
        first = int(off[lo])
        a = np.arange(lo, hi).repeat(span[lo:hi])
        at = shift[lo:hi].repeat(span[lo:hi]) + np.arange(first, first + a.size)
        yield first, a, ids[at]


@dataclass(eq=False)
class FiniteGroupoid:
    """compose_table maps each composable pair (a, b) to a∘b. The builders
    and the file reader give a read-only mapping over the slot table, in
    slot order, or over the file's entries, in file order; a caller may
    pass any mapping, such as a dict."""

    n_base: int
    src: tuple[int, ...]
    tgt: tuple[int, ...]
    compose_table: Mapping[tuple[int, int], int]
    inv: tuple[int, ...]
    identity: tuple[int, ...]  # per base point
    arrow_labels: tuple[str, ...] | None = None
    base_labels: tuple[str, ...] | None = None

    def __post_init__(self):
        # set during __init__, not added on first use: an attribute added
        # later makes every attribute load on the instance slower
        self._tables = _Tables(self)

    def _product_slots(self) -> "_Tables":
        """The table object with its products, which a builder writes or the
        structure pass of check_structure parses once, on first use: the
        tables are not to change after that. Malformed tables raise
        PreconditionError with the first violation that pass finds."""
        if self._tables.prod is None:
            rep = _structure(self)
            if not rep.ok:
                raise PreconditionError(rep.violations[0].message)
        return self._tables

    @property
    def n_arrows(self) -> int:
        return len(self.src)

    def arrows(self) -> range:
        return range(self.n_arrows)

    def base(self) -> range:
        return range(self.n_base)

    def composable(self, g: int, xi: int) -> bool:
        return self.src[g] == self.tgt[xi]

    def compose(self, g: int, xi: int) -> int:
        c = self._product_slots().at(g, xi)
        if c is None:
            raise PreconditionError(
                f"arrows {self.arrow_label(g)} and {self.arrow_label(xi)} are not composable"
            )
        return c

    def arrows_into(self, x: int) -> list[int]:
        """The fiber over target x (all arrows with tgt == x)."""
        ids, ptr = self._tables.into
        return ids[ptr[x]:ptr[x + 1]].tolist()

    def arrows_from(self, x: int) -> list[int]:
        """The fiber over source x (all arrows with src == x)."""
        ids, ptr = self._tables.out
        return ids[ptr[x]:ptr[x + 1]].tolist()

    def isotropy_fiber(self, x: int) -> list[int]:
        ids, ptr = self._tables.iso
        return ids[ptr[x]:ptr[x + 1]].tolist()

    def is_identity(self, a: int) -> bool:
        return a == self.identity[self.src[a]]

    def arrow_label(self, a: int) -> str:
        if self.arrow_labels is not None:
            return self.arrow_labels[a]
        return str(a)

    def base_label(self, x: int) -> str:
        if self.base_labels is not None:
            return self.base_labels[x]
        return str(x)


class _Tables:
    """One groupoid's tables as read-only arrays, built once. The id
    tables src, tgt, inv and identity are int32, an id beyond int32 -1.
    The fiber index into, out and iso holds pairs (ids, ptr) with fiber x
    at ids[ptr[x]:ptr[x + 1]], in arrow-id order; an endpoint outside the
    base, or missing where src and tgt differ in length, is in no fiber.

    The products, once a builder or the structure pass has filled them,
    are a slot array; only this module reads its layout. The product of
    the composable pair (a, b) sits at prod[off[a] + pos[b]]: off[a] is
    the running sum of |into(src a)| and pos[b] the rank of b in into(tgt
    b), so slots run in the order of _walk, which is (a, b) order. A tail
    as long as the largest fiber starts at slot n_slots; it holds -1, and
    non-composable lookups read it. The composable pairs are walked off
    the fiber index, not kept. The lists behind scalar lookups and the
    kernels' plans are built on first use and kept."""

    __slots__ = ("src", "tgt", "inv", "identity", "into", "out", "iso",
                 "off", "pos", "n_slots", "prod", "_lists", "_plans")

    def __init__(self, g):
        tables = (g.src, g.tgt, g.inv, g.identity)
        ends = list(accumulate(map(len, tables), initial=0))
        flat = _ids(lambda: chain(*tables), ends[-1])  # one conversion, one read-only flag
        flat.setflags(write=False)
        self.src, self.tgt, self.inv, self.identity = (
            flat[lo:hi] for lo, hi in zip(ends, ends[1:]))
        src, tgt = (t[:min(len(g.src), len(g.tgt))] for t in (self.src, self.tgt))
        self.into, (ids, ptr) = _group(g.n_base, tgt), _group(g.n_base, src)
        self.out, iso = (ids, ptr), ids[src[ids] == tgt[ids]]  # grouped by base point, as ids is
        self.iso = iso, src[iso].searchsorted(np.arange(g.n_base + 1, dtype=np.int32))
        for t in (*self.into, *self.out, *self.iso):
            t.setflags(write=False)
        self.off = self.pos = self.n_slots = self.prod = self._lists = None
        self._plans = {}

    def _lay_out(self) -> int:
        """Lay out the slots of in-range tables, on the first call; the
        length of the product array, its tail included."""
        ids, ptr = self.into
        sizes = ptr[1:] - ptr[:-1]
        if self.off is None:
            self.pos = np.empty(len(self.src), dtype=np.int32)
            self.pos[ids] = np.arange(len(self.src)) - ptr[:-1].repeat(sizes)
            span = sizes[self.src]
            self.off, self.n_slots = span.cumsum() - span, int(span.sum())
        return self.n_slots + int(sizes.max(initial=0))

    def _keep(self, prod):
        """Hold the products, read-only."""
        prod.flags.writeable = False
        self.prod = prod

    def get(self, a, b):
        """compose_table.get over arrays of arrow ids, with -1 for None; take
        gathers with int32 ids about twice as fast as indexing does."""
        return self.prod.take(
            np.where(self.src.take(a) == self.tgt.take(b), self.off.take(a), self.n_slots)
            + self.pos.take(b))

    def at(self, a: int, b: int) -> int | None:
        """The held product of one pair of arrow ids; None when it is not
        composable."""
        if self._lists is None:
            self._lists = tuple(t.tolist() for t in (self.src, self.tgt, self.off, self.pos))
        src, tgt, off, pos = self._lists
        if 0 <= a < len(src) and 0 <= b < len(src) and src[a] == tgt[b]:
            return self.prod.item(off[a] + pos[b])
        return None

    def compose(self, a, b):
        """The products of arrays of arrow ids, which must be composable."""
        c = self.get(a, b)
        if (c < 0).any():
            raise PreconditionError("arrow arrays hold a non-composable pair")
        return c

    def conj(self, g, a):
        """The conjugation action g∘a∘g⁻¹ over arrays of arrow ids."""
        return self.compose(self.compose(g, a), self.inv[g])

    def plan(self, label) -> "_Plan":
        """The star coordinates and convolution plan of _block_plan, built
        on first use and kept (a table that fails its checks keeps none);
        label names arrow ids in the error. A plan that builds proves the
        table a groupoid's."""
        return self.kept("block", _block_plan, label)

    def proves(self) -> bool:
        """Whether the plan builds: whether the table is a groupoid's."""
        try:
            self.plan(str)
            return True
        except PreconditionError:
            return False

    def kept(self, key, build, *args):
        """build(self, *args), built on first use for key and kept (none if it raises)."""
        if key not in self._plans:
            self._plans[key] = build(self, *args)
        return self._plans[key]

    def entries(self):
        """The arrays a, b and a∘b of the composable pairs in slot order,
        int32 and read-only; a and b are walked afresh on each call."""
        a, b = np.empty((2, self.n_slots), dtype=np.int32)
        for first, x, y in _walk(*self.into, self.src, _PAIR_BLOCK):
            a[first:first + x.size], b[first:first + x.size] = x, y
        a.flags.writeable = b.flags.writeable = False
        return a, b, self.prod[:self.n_slots]

    def pairs(self, block: int):
        """The composable pairs in slot order, walked off the fiber index in
        blocks (a, b, a∘b) of whole arrows a, as _walk gives them (intp)."""
        return ((a, b, self.prod[first:first + a.size])
                for first, a, b in _walk(*self.into, self.src, block))


def _rows(*columns):
    """The rows of equal-length arrays as tuples of ints, or the ints of
    one array, converted a block at a time."""
    blocks = (
        [c[lo:lo + _PAIR_BLOCK].tolist() for c in columns]
        for lo in range(0, len(columns[0]), _PAIR_BLOCK)
    )
    return chain.from_iterable(b[0] if len(b) == 1 else zip(*b) for b in blocks)


class _ComposeTable(Mapping):
    """A compose table (a, b) ↦ a∘b as a read-only mapping over arrays:
    the slot table of a built groupoid, in slot order, or the entries of a
    groupoid file, in file order."""

    __slots__ = ("_tables", "_entries", "_keys")

    def __init__(self, entries=None):  # a builder sets _tables
        self._tables, self._entries, self._keys = None, entries, None

    @classmethod
    def of_entries(cls, a, b, c) -> "_ComposeTable":
        """The table dict(zip(zip(a, b), c)) holds, in its order: of equal
        keys, the first position and the last value. a, b and c are int32
        arrays of non-negative ids."""
        table = cls(entries=(a, b, c))
        keys, order = table._index()
        if order is not None and (dup := keys[1:] == keys[:-1]).any():
            first = np.flatnonzero(np.r_[True, ~dup])  # runs of equal keys, in key order
            last = order[np.r_[first[1:], keys.size] - 1]
            first = order[first]  # a stable sort keeps each run in file order
            keep = np.argsort(first)
            table = cls(entries=(a[first[keep]], b[first[keep]], c[last[keep]]))
        return table

    def entries(self):
        """Arrays of a, b and a∘b, in the order of iteration."""
        return self._tables.entries() if self._entries is None else self._entries

    def _index(self):
        """The keys (a << 32) | b in ascending order, and the positions
        that sort them, or None when the entries are in key order."""
        if self._keys is None:
            a, b, _ = self.entries()
            keys, order = (a.astype(np.int64) << 32) | b, None
            if not (keys[1:] > keys[:-1]).all():
                order = np.argsort(keys, kind="stable")
                keys = keys[order]
            self._keys = keys, order
        return self._keys

    def __getitem__(self, key):
        try:
            a, b = map(operator.index, key)
        except (TypeError, ValueError):
            raise KeyError(key) from None
        if self._tables is not None:
            c = self._tables.at(a, b)
        elif 0 <= a <= _INT32.max and 0 <= b <= _INT32.max:
            keys, order = self._index()
            i = int(keys.searchsorted((a << 32) | b))
            hit = i < keys.size and keys[i] == (a << 32) | b
            c = self._entries[2].item(i if order is None else order[i]) if hit else None
        else:
            c = None
        if c is None:  # over a built table, every composable pair is a key
            raise KeyError(key)
        return c

    def __len__(self) -> int:
        return len(self._entries[2]) if self._tables is None else self._tables.n_slots

    def __iter__(self):
        a, b, _ = self.entries()
        return _rows(a, b)

    def items(self):
        return _Items(self)

    def __repr__(self) -> str:
        return f"<compose table of {len(self)} entries>"


class _Items(ItemsView):
    __slots__ = ()

    def __iter__(self):
        a, b, c = self._mapping.entries()
        return zip(_rows(a, b), _rows(c))


_PAIR_BLOCK = 1 << 14  # pairs per block of a walk; bounds the temporaries


def _build(cls, n_base: int, src, tgt, inv, identity, rows=None, walk=None, **fields):
    """A groupoid of class cls from int arrays of its src, tgt, inv and
    identity tables; its compose_table is the mapping over its table
    object. rows(out) writes the products in closed form, in place: a∘b at
    out[a, j] for b the j-th arrow into src a, when all those fibers are
    the same size; walk(a, b) gives them for arrays of pairs of the walk."""
    table = _ComposeTable()
    g = cls(n_base, tuple(src.tolist()), tuple(tgt.tolist()), table,
            tuple(inv.tolist()), tuple(np.asarray(identity).tolist()), **fields)
    t = table._tables = g._tables
    prod = np.full(t._lay_out(), -1, dtype=np.int32)
    if walk is None:  # the tail is as long as the largest fiber
        rows(prod[:t.n_slots].reshape(len(t.src), len(prod) - t.n_slots))
    else:
        for first, x, y in _walk(*t.into, t.src, _PAIR_BLOCK):
            prod[first:first + x.size] = walk(x, y)
    t._keep(prod)
    return g


_INT32 = np.iinfo(np.int32)


def _ids(make, count: int) -> np.ndarray:
    """The ids that make() iterates, as int32. An id beyond int32 becomes -1,
    which every range check rejects; make() then runs a second time."""
    try:
        return np.fromiter(make(), np.int32, count)
    except OverflowError:
        return np.fromiter(
            (v if _INT32.min <= v <= _INT32.max else -1 for v in make()), np.int32, count
        )


def _entries(comp):
    """Arrays of a, b and a∘b in the order of the compose table comp: read
    directly off a _ComposeTable and entry by entry off any other mapping."""
    if isinstance(comp, _ComposeTable):
        return comp.entries()
    ab = _ids(lambda: chain.from_iterable(comp), 2 * len(comp)).reshape(-1, 2)
    return ab[:, 0], ab[:, 1], _ids(comp.values, len(comp))


def _structure(g: FiniteGroupoid) -> ValidationReport:
    """check_structure's report. More than MAX_GAUGE_PAIRS slots, which the
    arrow table alone sets, raise SizeCapError before any array per slot is
    allocated. A table object that holds its products (a builder's, or an
    earlier clean parse's) is clean when each is an arrow id: one compare.
    Any other table is parsed: its compose entries are scattered onto the
    slots, and a clean parse keeps them as the products."""
    rep = ValidationReport()

    def malformed(witness, message):
        rep.add("malformed", "tables", witness, message)

    n, nb, t = g.n_arrows, g.n_base, g._tables
    src, tgt, inv, ident = t.src, t.tgt, t.inv, t.identity
    if len(tgt) != n or len(inv) != n:
        malformed((), "src/tgt/inv tables have inconsistent lengths")
        return rep
    if len(ident) != nb:
        malformed((), "identity table does not cover the base")
        return rep
    u = np.uint32  # a negative id reads 2³¹ or more; one compare per bound
    bad_ends = (src.view(u) >= nb) | (tgt.view(u) >= nb)
    bad_inv = inv.view(u) >= n
    for a in np.flatnonzero(bad_ends | bad_inv).tolist():
        if bad_ends[a]:
            malformed((a,), f"arrow {a}: src/tgt out of range")
        if bad_inv[a]:
            malformed((a,), f"arrow {a}: inv out of range")
    for x in np.flatnonzero(ident.view(u) >= n).tolist():
        malformed((x,), f"base point {x}: identity out of range")
    if not rep.ok:
        return rep
    size = t._lay_out()
    if t.n_slots > MAX_GAUGE_PAIRS:
        raise SizeCapError(f"groupoid: {t.n_slots} composable pairs > cap "
                           f"MAX_GAUGE_PAIRS = {MAX_GAUGE_PAIRS}")
    if t.prod is not None and (t.prod[:t.n_slots].view(u) < n).all():  # -1 reads 2³²-1
        return rep  # a product off the arrows takes the parse, which names its entry

    comp = g.compose_table
    A, B, C = _entries(comp)
    pair_known = (A >= 0) & (A < n) & (B >= 0) & (B < n)
    known = pair_known & (C >= 0) & (C < n)
    off, into_ids, into_ptr = t.off, *t.into
    composable, filled = np.zeros(len(comp), dtype=bool), np.zeros(t.n_slots, dtype=bool)
    prod = np.full(size, -1, dtype=np.int32)
    for lo in range(0, len(comp), _PAIR_BLOCK):  # gathers by intp ids, cast a block at a time
        part = slice(lo, lo + _PAIR_BLOCK)
        ok = pair_known[part]
        a, b = A[part][ok].astype(np.intp), B[part][ok].astype(np.intp)
        fits = src[a] == tgt[b]
        composable[part][ok] = fits
        slot = off[a[fits]] + t.pos[b[fits]]
        filled[slot] = True
        prod[slot] = C[part][ok][fits]
    bad = np.flatnonzero(~(known & composable)).tolist()
    keys = list(comp) if bad else []  # the witnesses keep ids beyond int32
    for i in bad:
        a, b = keys[i]
        if not known[i]:
            malformed((a, b), "compose entry refers to unknown arrow")
        else:
            malformed(
                (a, b),
                f"compose entry on non-composable pair ({g.arrow_label(a)}, {g.arrow_label(b)})",
            )

    missing = np.flatnonzero(~filled)
    ma = np.searchsorted(off, missing, side="right") - 1
    mb = into_ids[into_ptr[src[ma]] + missing - off[ma]]
    for a, b in zip(ma.tolist(), mb.tolist()):
        malformed(
            (a, b),
            f"compose table missing composable pair ({g.arrow_label(a)}, {g.arrow_label(b)})",
        )
    if rep.ok:  # every entry is composable and every slot filled: one entry per slot
        t._keep(prod)
    return rep


def _associativity(s: _Tables, A, B, C):
    """The triples (a, b, c) where (a∘b)∘c ≠ a∘(b∘c), for the entries
    (a, b, a∘b) of A, B, C and every arrow c into src b: one walk, entries
    ascending, then c in fiber order, which is the report's order. Yields a
    block (entry i, arrow c) per block of the walk. Per entry, the slots of
    b∘c and (a∘b)∘c start at b_off and c_off, int32 since the structure pass
    caps the slots; a∘b not composable with c reads the tail."""
    src, pos, prod = s.src, s.pos, s.prod
    off = s.off.astype(np.int32)
    b_off = off.take(B)
    c_off = np.where(src.take(C) == src.take(B), off.take(C), np.int32(s.n_slots))
    for _, i, c in _walk(*s.into, src.take(B), _PAIR_BLOCK):
        j = pos.take(c)
        ab_c = prod.take(c_off.take(i) + j)
        hit = (ab_c < 0) | (ab_c != s.get(A.take(i), prod.take(b_off.take(i) + j)))
        yield i[hit], c[hit]


_NOT_STAR = "the compose table has no star coordinates: it is not a groupoid's"


@dataclass(frozen=True, eq=False)
class _Plan:
    """A groupoid's star coordinates and its convolution plan (_block_plan)."""

    star: np.ndarray  # per base point x: σ_x, the first arrow from its orbit's root into x
    k: np.ndarray  # per arrow a: x → y, the k in G_r with a = σ_y∘k∘σ_x⁻¹
    shapes: list  # per orbit shape: (at, by, kr, mul)


def _block_plan(s: _Tables, label) -> _Plan:
    """The star coordinates of a groupoid, and its convolution as block
    products, one per orbit shape (n, K). The root r of an orbit is its
    lowest base point, σ_x: r → x the first arrow from r into x, and an
    arrow a: x → y is σ_y∘k∘σ_x⁻¹ for one k in the isotropy group G_r: the
    orbit is the pair groupoid on its n base points times G_r (H. Brandt,
    Math. Ann. 96, 1927). For the orbits o of a shape, base points numbered
    in each orbit in id order and kr[o, h] the arrow of G_r of rank h in its
    fiber, at[o, y, h·n + x] is the arrow (y, h, x), gathered as
    σ_y∘(kr[o, h]∘σ_x⁻¹), and by[o, h·n + z, k·n + x] the arrow (z, h⁻¹k, x),
    with h⁻¹k read off mul[o, h, m], the rank of kr[o, h]∘kr[o, m]. In a
    groupoid (y, h, z)∘(z, m, x) = (y, h·m, x), and for each h one m gives
    h·m = k, so with u = w·f1 the convolution is u[at] @ f2[by] for each o.

    The plan proves this on the table it is built from. Every product
    gathered must exist and run from the x-th to the y-th base point, and
    one scatter of k must reach every arrow: as the grids hold as many
    entries as there are arrows, they hold each once. So the pairs (at[o,
    y, j], by[o, j, k]) are the composable pairs, each once; one pass over
    them, in blocks of rows (o, y), finds each product at at[o, y, k], so
    the block products sum exactly the terms w(a)·f1(a)·f2(b) of the pairs
    (a, b) into a∘b. Each distinct table mul[o] must then make a
    FiniteGroup, whose rows are permutations: so a∘b = (y, h·m, x) on every
    pair, and the table is a groupoid's. Any other table raises
    PreconditionError: that it has no star coordinates, or else naming,
    through label, the pair of the lowest slot whose product is elsewhere,
    or else the isotropy group that fails."""
    ids, ptr = s.into
    sizes = ptr[1:] - ptr[:-1]  # array methods, as in _walk
    if not sizes.all():
        raise PreconditionError(_NOT_STAR)  # a base point with no star arrow
    ends = s.src[ids]
    root = np.minimum.reduceat(ends, ptr[:-1])  # the lowest source of an arrow into x
    from_root = np.flatnonzero(ends == root.repeat(sizes))
    star = ids[from_root[from_root.searchsorted(ptr[:-1])]]  # into x is in arrow-id order
    pts, optr = _group(sizes.size, root)  # the base points by root, in id order
    iso_ids, iso_ptr = s.iso
    n_of, k_of = optr[1:] - optr[:-1], iso_ptr[1:] - iso_ptr[:-1]  # per root
    if (n_of ** 2 * k_of).sum() != len(s.src):  # a groupoid's grids hold its arrows, each once
        raise PreconditionError(_NOT_STAR)
    in_fiber = np.full(len(s.src), -1, dtype=np.intp)  # an isotropy arrow's rank in its fiber
    in_fiber[iso_ids] = np.arange(iso_ids.size) - iso_ptr[:-1].repeat(k_of)
    roots = np.flatnonzero(n_of)
    k = np.full(len(s.src), -1, dtype=np.intp)
    shapes, groups, first = [], [], (s.n_slots,)  # first: the failing (slot, a, b) of the lowest slot
    for n, K in sorted(set(zip(n_of[roots].tolist(), k_of[roots].tolist()))):
        r = roots[(n_of[roots] == n) & (k_of[roots] == K)]
        x = pts[optr[r, None] + np.arange(n)]  # [o, x]
        kr = iso_ids[iso_ptr[r, None] + np.arange(K)]  # [o, h]: G_r, by rank
        t = s.get(kr[:, :, None], s.inv[star[x]][:, None, :])  # [o, h, x]: k∘σ_x⁻¹
        at = s.get(star[x][:, :, None, None], t[:, None])  # [o, y, h, x]: σ_y∘k∘σ_x⁻¹
        if ((t < 0).any() or (at < 0).any() or (s.tgt[at] != x[:, :, None, None]).any()
                or (s.src[at] != x[:, None, None, :]).any()):
            raise PreconditionError(_NOT_STAR)
        k[at] = kr[:, None, :, None]
        at = at.astype(np.intp)
        mul = in_fiber[s.get(kr[:, :, None], kr[:, None, :])]  # [o, h, m]: rank of h·m
        groups += [(r[o], kr[o], mul[o])
                   for o in {m.tobytes(): o for o, m in enumerate(mul)}.values()]
        ldiv = _left_quotients(mul)[:, :, None, :, None]
        by = at[np.arange(r.size)[:, None, None, None, None], np.arange(n)[:, None, None],
                ldiv, np.arange(n)].reshape(r.size, K * n, K * n)
        at = at.reshape(r.size * n, K * n)  # rows (o, y)
        off, pos = s.off[at], s.pos[by]
        step = max(1, _PAIR_BLOCK // by[0].size)
        for lo in range(0, len(at), step):
            slot = off[lo:lo + step, :, None] + pos[np.arange(lo, min(lo + step, len(at))) // n]
            bad = s.prod[slot] != at[lo:lo + step, None, :]
            if bad.any():
                i = np.unravel_index(np.where(bad, slot, s.n_slots).argmin(), bad.shape)
                first = min(first, (int(slot[i]), int(at[lo + i[0], i[1]]),
                                    int(by[(lo + i[0]) // n, i[1], i[2]])))
        shapes.append((at.reshape(r.size, n, K * n), by, kr, mul))
    if (k < 0).any():
        raise PreconditionError(_NOT_STAR)
    if len(first) > 1:
        raise PreconditionError(
            f"the compose table is not a groupoid's: {label(first[1])}∘{label(first[2])} "
            "is not the arrow its star coordinates give")
    for r, kr, mul in groups:
        try:
            FiniteGroup(f"of the isotropy at base point {r}", tuple(map(label, kr.tolist())),
                        mul.tolist())
        except MalformedTableError as exc:
            raise PreconditionError(f"the compose table is not a groupoid's: {exc}") from None
    return _Plan(star, k, shapes)


def _left_quotients(mul):
    """[o, h, k] = h⁻¹k, the m with h·m = k, from group tables mul[o, h, m]
    = h·m, whose rows are permutations."""
    return np.argsort(mul, axis=2)


def check_structure(g: FiniteGroupoid) -> ValidationReport:
    """Malformed-table checks: totality and id ranges, before any axiom
    check. A table object is parsed once (see _structure)."""
    return _structure(g)


def validate_groupoid(g: FiniteGroupoid) -> ValidationReport:
    """Check all groupoid axioms; an empty report means the instance is valid.

    Structurally malformed tables are reported as kind "malformed" and
    short-circuit the axiom checks. On any other table the convolution plan
    runs and is kept for the quotient and the kernels: a plan that builds
    proves the source-target and associativity axioms (see _block_plan).
    Only a table it refuses reads its compose entries: the source-target
    check and the full associativity scan name the witnesses. Checks run
    as array expressions; Violations are built only for failing entries.
    """
    rep = _structure(g)
    if not rep.ok:
        return rep
    s = g._tables
    src, tgt, ident, proved = s.src, s.tgt, s.identity, s.proves()
    A, B, C = (None,) * 3 if proved else _entries(g.compose_table)  # for the witnesses only

    base = np.arange(g.n_base)
    for x in np.flatnonzero((src[ident] != base) | (tgt[ident] != base)).tolist():
        e = g.identity[x]
        rep.add(
            "axiom",
            AXIOM_IDENTITY_BASE,
            (x, e),
            f"identity arrow at base {g.base_label(x)} has endpoints "
            f"({g.base_label(g.src[e])},{g.base_label(g.tgt[e])})",
        )

    wrong_ends = () if proved else np.flatnonzero(
        (src.take(C) != src.take(B)) | (tgt.take(C) != tgt.take(A))).tolist()
    for i in wrong_ends:
        a, b = int(A[i]), int(B[i])
        rep.add("axiom", AXIOM_SOURCE_TARGET, (a, b),
                f"product {g.arrow_label(a)}∘{g.arrow_label(b)} has wrong endpoints")

    arrows = np.arange(g.n_arrows)
    left, right = ident[tgt], ident[src]
    bad = (s.get(left, arrows) != arrows) | (s.get(arrows, right) != arrows)
    for a in np.flatnonzero(bad).tolist():
        rep.add("axiom", AXIOM_IDENTITY, (a,), f"identity law fails at arrow {g.arrow_label(a)}")

    bad = (s.get(arrows, s.inv) != left) | (s.get(s.inv, arrows) != right)
    for a in np.flatnonzero(bad).tolist():
        rep.add("axiom", AXIOM_INVERSE, (a,), f"inverse law fails at arrow {g.arrow_label(a)}")

    for entry, arrow in () if proved else _associativity(s, A, B, C):
        for i, c in zip(entry.tolist(), arrow.tolist()):
            a, b = int(A[i]), int(B[i])
            rep.add("axiom", AXIOM_ASSOCIATIVITY, (a, b, c), f"associativity fails at "
                    f"({g.arrow_label(a)}, {g.arrow_label(b)}, {g.arrow_label(c)})")
    return rep


@dataclass(eq=False)
class SubgroupoidSelection:
    parent: FiniteGroupoid
    arrows: frozenset[int]


def isotropy_subgroupoid(g: FiniteGroupoid) -> SubgroupoidSelection:
    """All arrows with equal source and target; always wide and closed. The
    ids go into the frozenset in ascending order."""
    return SubgroupoidSelection(g, frozenset(np.sort(g._tables.iso[0]).tolist()))


def subgroupoid_properties(g: FiniteGroupoid, h: SubgroupoidSelection) -> dict:
    if not h.arrows <= frozenset(g.arrows()):
        raise PreconditionError("selection is not a subset of the parent's arrows")
    s = g._product_slots()
    sel = np.array(sorted(h.arrows), dtype=np.intp)
    inside = np.zeros(g.n_arrows, dtype=bool)
    inside[sel] = True
    touched = np.zeros(g.n_base, dtype=bool)
    touched[s.src[sel]] = touched[s.tgt[sel]] = True
    into, ptr = _group(g.n_base, s.tgt[sel])  # the walk over the selection's pairs
    pairs = _walk(sel[into], ptr, s.src[sel], _PAIR_BLOCK)
    closed = (
        inside[s.inv[sel]].all()
        and all(inside[s.compose(sel[a], b)].all() for _, a, b in pairs)
        and inside[s.identity[touched]].all()
    )
    ends = np.unique(s.tgt[sel].astype(np.int64) * g.n_base + s.src[sel])
    return {"is_wide": bool(touched.all()), "is_transitive": ends.size == g.n_base**2,
            "is_closed": bool(closed)}


@dataclass(eq=False)
class GroupoidMorphism:
    domain: FiniteGroupoid
    codomain: FiniteGroupoid
    arrow_map: tuple[int, ...]
    base_map: tuple[int, ...]


def selection_to_groupoid(sel: SubgroupoidSelection) -> tuple[FiniteGroupoid, GroupoidMorphism]:
    """Reindex a closed selection as a standalone groupoid plus its inclusion.

    The base of the result is the set of touched base points, reindexed;
    for a wide selection this is the parent's base in order.
    """
    p = sel.parent
    props = subgroupoid_properties(p, sel)
    if not props["is_closed"]:
        raise PreconditionError("selection is not closed; cannot form a subgroupoid")
    s, arrows = p._product_slots(), sorted(sel.arrows)
    at = np.array(arrows, dtype=np.intp)
    base_pts = np.union1d(s.src[at], s.tgt[at]).tolist()
    rank = np.zeros(p.n_arrows, dtype=np.intp)  # of a selected arrow, its id in sub
    rank[at] = np.arange(at.size)
    base_rank = np.zeros(p.n_base, dtype=np.intp)
    base_rank[base_pts] = np.arange(len(base_pts))
    sub = _build(
        FiniteGroupoid, len(base_pts), base_rank[s.src[at]], base_rank[s.tgt[at]],
        rank[s.inv[at]], rank[s.identity[base_pts]],
        walk=lambda a, b: rank[s.compose(at[a], at[b])],
        arrow_labels=tuple(p.arrow_label(a) for a in arrows),
        base_labels=tuple(p.base_label(x) for x in base_pts),
    )
    inclusion = GroupoidMorphism(
        domain=sub,
        codomain=p,
        arrow_map=tuple(arrows),
        base_map=tuple(base_pts),
    )
    return sub, inclusion


def quotient_by_isotropy(
    g: FiniteGroupoid, g0: SubgroupoidSelection
) -> tuple[FiniteGroupoid, GroupoidMorphism]:
    """Quotient of g by a wide, conjugation-stable isotropy selection N, and
    the projection morphism.

    An orbit of g with root r is pair(n) × G_r (Brandt's theorem, see
    _block_plan). N is conjugation-stable exactly when N at each x is
    σ_x N_r σ_x⁻¹ and N_r is normal in G_r. Then the class of the arrow
    σ_y∘k∘σ_x⁻¹, its orbit under the left action of N, is (y, N_r·k, x):
    the quotient orbit is pair(n) × G_r/N_r, its composition well defined
    by construction. A class is represented by its smallest arrow, and the
    classes go in the order of their representatives. A table that is no
    groupoid's raises the plan's PreconditionError.
    """
    props = subgroupoid_properties(g, g0)
    if not (props["is_wide"] and props["is_closed"]):
        raise PreconditionError("quotient selection must be wide and closed")
    s, sel = g._product_slots(), np.array(sorted(g0.arrows), dtype=np.intp)
    off = sel[s.src[sel] != s.tgt[sel]]
    if off.size:
        raise PreconditionError(
            f"quotient selection contains non-isotropy arrow {g.arrow_label(int(off[0]))}")
    plan = s.plan(g.arrow_label)
    inside = np.zeros(g.n_arrows, dtype=bool)
    inside[sel] = True

    def unstable(gamma, a):  # a in N at src γ, γ∘a∘γ⁻¹ not in N
        return PreconditionError(
            f"selection is not conjugation-stable: witness arrows "
            f"({g.arrow_label(int(gamma))}, {g.arrow_label(int(a))})")

    iso = s.iso[0]  # the isotropy arrow a at x is σ_x∘k∘σ_x⁻¹, k = plan.k[a]
    bad = iso[inside[iso] != inside[plan.k[iso]]]
    if bad.size:
        a = bad.min()
        star = plan.star[s.src[a]]
        raise unstable(s.inv[star], a) if inside[a] else unstable(star, plan.k[a])
    rep_of = np.empty(g.n_arrows, dtype=np.intp)
    for at, _, kr, mul in plan.shapes:
        member = inside[kr]  # [o, m]: m in N_r
        o, c, h = np.nonzero(member[:, None, :] & ~inside[s.conj(kr[:, :, None], kr[:, None, :])])
        if o.size:
            raise unstable(kr[o[0], c[0]], kr[o[0], h[0]])
        (n_orbits, K), n = kr.shape, at.shape[1]
        at = at.reshape(n_orbits, n, K, n)  # [o, y, h, x]
        coset = np.where(member[:, :, None], mul, np.arange(K))  # [o, m, h]: m·h, or h
        rep_of[at] = at[np.arange(n_orbits)[:, None, None, None, None],
                        np.arange(n)[:, None, None, None], coset[:, None, :, :, None],
                        np.arange(n)].min(axis=2)
    rep, cls = np.unique(rep_of, return_inverse=True)
    quotient = _build(
        FiniteGroupoid, g.n_base, s.src[rep], s.tgt[rep], cls[s.inv[rep]],
        cls[s.identity], walk=lambda c1, c2: cls[s.compose(rep[c1], rep[c2])],
        arrow_labels=tuple(f"[{g.arrow_label(r)}]" for r in rep.tolist()),
        base_labels=g.base_labels,
    )
    rho = GroupoidMorphism(
        domain=g,
        codomain=quotient,
        arrow_map=tuple(cls.tolist()),
        base_map=tuple(g.base()),
    )
    return quotient, rho


# --- builders ---------------------------------------------------------------

def pair_groupoid(n: int) -> FiniteGroupoid:
    """Pair groupoid over {0..n-1}: arrow y·n + x is (y,x), (y,x)∘(x,z) = (y,z)."""
    y, x = np.divmod(np.arange(n * n), n)
    return _build(
        FiniteGroupoid, n, x, y, x * n + y, np.arange(n) * (n + 1),
        rows=lambda out: np.add((y * n)[:, None], x[:n], out=out),
        arrow_labels=tuple(f"({t},{s})" for t, s in zip(y.tolist(), x.tolist())),
    )


def group_groupoid(G: FiniteGroup) -> FiniteGroupoid:
    """A finite group viewed as a groupoid over a one-point base."""
    zero = np.zeros(G.order, int)
    return _build(
        FiniteGroupoid, 1, zero, zero, np.array(G.inverse), np.array([G.identity]),
        rows=lambda out: np.copyto(out, np.reshape(G.mul, out.shape)),
        arrow_labels=G.elements,
        base_labels=("*",),
    )

"""Finite groups given by explicit multiplication tables.

Elements are dense integer indices; names are kept for I/O and labels.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import MAX_GAUGE_PAIRS, MalformedTableError, SizeCapError

_ASSOC_BLOCK = 1 << 16  # triples (a, b, c) per block of the associativity check


def _light_test(t: np.ndarray, e: int) -> bool:
    """Whether the n×n table t with two-sided identity e associates, by
    Light's test. The elements s with (x·s)·y = x·(s·y) for all x, y hold
    e and are closed under products, so checking every s of a set S that
    generates every element with e proves it for all. S is greedy: the
    lowest element not reached yet, then all products of what is reached,
    until every element is."""
    reached = np.zeros(len(t), dtype=bool)
    reached[e] = True
    S = []
    while not reached.all():
        S.append(int(np.argmin(reached)))
        reached[S[-1]] = True
        while True:
            have = np.flatnonzero(reached)
            reached[t[np.ix_(have, have)]] = True
            if np.count_nonzero(reached) == have.size:
                break
    return all((t[t[:, s]] == t[:, t[s]]).all() for s in S)


@dataclass(eq=False)
class FiniteGroup:
    name: str
    elements: tuple[str, ...]
    mul: tuple[tuple[int, ...], ...]  # mul[a][b] = index of a*b
    identity: int = field(init=False)
    inverse: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        n = len(self.elements)
        if len(self.mul) != n or any(len(row) != n for row in self.mul):
            raise MalformedTableError(f"group {self.name}: mul table is not {n}x{n}")
        t = np.array(self.mul).reshape(n, n)
        if not ((0 <= t) & (t < n)).all():
            raise MalformedTableError(f"group {self.name}: mul entry out of range")
        t = t.astype(np.intp)
        # each check finds the witness the loops over a, b, c in order find first
        ident = np.flatnonzero((t == np.arange(n)).all(1) & (t.T == np.arange(n)).all(1))
        if not ident.size:
            raise MalformedTableError(f"group {self.name}: no identity element")
        self.identity = int(ident[0])
        both = (t == self.identity) & (t.T == self.identity)
        if not both.any(1).all():
            a = int(np.argmin(both.any(1)))
            raise MalformedTableError(
                f"group {self.name}: element {self.elements[a]} has no inverse"
            )
        self.inverse = tuple(both.argmax(1).tolist())
        # Light's test where the full scan takes more than one block; the
        # scan runs otherwise, and on a table the test rejects, for the witness
        if n**3 > _ASSOC_BLOCK and _light_test(t, self.identity):
            return
        rows = max(1, _ASSOC_BLOCK // n**2)  # rows a per block: O(n²) memory, not O(n³)
        for a0 in range(0, n, rows):
            block = t[a0:a0 + rows]
            bad = t[block] != block[:, t]  # [a - a0, b, c]: (ab)c != a(bc)
            if bad.any():
                a, b, c = np.unravel_index(np.argmax(bad), bad.shape)
                raise MalformedTableError(
                    f"group {self.name}: not associative at "
                    f"({self.elements[a0 + a]},{self.elements[b]},{self.elements[c]})"
                )

    @property
    def order(self) -> int:
        return len(self.elements)

    def inv(self, a: int) -> int:
        return self.inverse[a]

    def index(self, name: str) -> int:
        try:
            return self.elements.index(name)
        except ValueError:
            raise MalformedTableError(f"group {self.name}: unknown element {name!r}") from None

    def element_order(self, a: int) -> int:
        k, x = 1, a
        while x != self.identity:
            x = self.mul[x][a]
            k += 1
        return k


def cyclic(n: int) -> FiniteGroup:
    """Cyclic group of order n; elements e, a, a^2, ..."""
    names = tuple("e" if k == 0 else ("a" if k == 1 else f"a^{k}") for k in range(n))
    mul = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    return FiniteGroup(f"Z{n}", names, mul)


def symmetric(n: int) -> FiniteGroup:
    """Symmetric group S_n as permutations of {0,..,n-1}; p*q applies q first."""
    perms = list(itertools.permutations(range(n)))
    idx = {p: i for i, p in enumerate(perms)}
    names = tuple("".join(map(str, p)) for p in perms)
    mul = tuple(
        tuple(idx[tuple(p[q[k]] for k in range(n))] for q in perms) for p in perms
    )
    return FiniteGroup(f"S{n}", names, mul)


def dihedral(n: int) -> FiniteGroup:
    """Dihedral group of order 2n: rotations r0..r{n-1}, reflections s0..s{n-1}."""
    # element (k, f): rotation by k composed with f flips
    elems = [(k, f) for f in (0, 1) for k in range(n)]
    idx = {e: i for i, e in enumerate(elems)}
    names = tuple(f"{'s' if f else 'r'}{k}" for (k, f) in elems)

    def compose(e1, e2):
        k1, f1 = e1
        k2, f2 = e2
        k = (k1 + (k2 if f1 == 0 else -k2)) % n
        return (k, f1 ^ f2)

    mul = tuple(tuple(idx[compose(e1, e2)] for e2 in elems) for e1 in elems)
    return FiniteGroup(f"D{n}", names, mul)


BUILTIN_GROUPS = {
    "Z2": lambda: cyclic(2),
    "Z3": lambda: cyclic(3),
    "Z4": lambda: cyclic(4),
    "S3": lambda: symmetric(3),
    "D4": lambda: dihedral(4),
}


def builtin_group(name: str) -> FiniteGroup:
    try:
        return BUILTIN_GROUPS[name]()
    except KeyError:
        raise MalformedTableError(
            f"unknown builtin group {name!r}; choose from {sorted(BUILTIN_GROUPS)}"
        ) from None


def group_from_table(data: dict, name: str = "custom") -> FiniteGroup:
    """Build a group from the table-file dict: elements, mul, identity. An
    order k with k² > MAX_GAUGE_PAIRS, which no gauge groupoid can have,
    raises SizeCapError before the table is read."""
    try:
        elements = data["elements"]
        raw = data["mul"]
    except (KeyError, TypeError) as exc:
        raise MalformedTableError(f"group table file: missing key ({exc})") from None
    if not isinstance(elements, list):
        raise MalformedTableError("group table file: elements is not a list")
    elements = tuple(map(str, elements))
    if len(elements) ** 2 > MAX_GAUGE_PAIRS:
        raise SizeCapError(f"group table file: order {len(elements)}, {len(elements)}² "
                           f"table entries > cap MAX_GAUGE_PAIRS = {MAX_GAUGE_PAIRS}")
    pos = {e: i for i, e in enumerate(elements)}
    if len(pos) != len(elements):
        raise MalformedTableError("group table file: duplicate element names")

    def resolve(v):
        if isinstance(v, str):
            if v not in pos:
                raise MalformedTableError(f"group table file: unknown element {v!r}")
            return pos[v]
        if isinstance(v, bool) or not isinstance(v, int):
            raise MalformedTableError(
                f"group table file: entry {v!r} is neither an element name nor an index"
            )
        return v

    if not isinstance(raw, list) or not all(isinstance(row, list) for row in raw):
        raise MalformedTableError("group table file: mul is not a list of rows")
    mul = tuple(tuple(resolve(v) for v in row) for row in raw)
    g = FiniteGroup(name, elements, mul)
    if "identity" in data and resolve(data["identity"]) != g.identity:
        raise MalformedTableError("group table file: declared identity is not the identity")
    return g


def group_to_table(g: FiniteGroup) -> dict:
    return {
        "elements": list(g.elements),
        "mul": [[g.elements[v] for v in row] for row in g.mul],
        "identity": g.elements[g.identity],
    }

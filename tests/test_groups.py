import itertools
import time
import tracemalloc

import numpy as np
import pytest

from group_oracle import oracle_check_group
from groupoidalg import groups
from groupoidalg.errors import MalformedTableError, SizeCapError
from groupoidalg.groups import (
    FiniteGroup,
    builtin_group,
    cyclic,
    dihedral,
    group_from_table,
    group_to_table,
    symmetric,
)


@pytest.mark.parametrize("name,order", [("Z2", 2), ("Z3", 3), ("Z4", 4), ("S3", 6), ("D4", 8)])
def test_builtin_orders(name, order):
    g = builtin_group(name)
    assert g.order == order
    assert g.mul[g.identity][1] == 1


def test_cyclic_is_abelian():
    g = cyclic(6)
    for a in range(6):
        for b in range(6):
            assert g.mul[a][b] == g.mul[b][a]


def test_s3_not_abelian():
    g = symmetric(3)
    assert any(g.mul[a][b] != g.mul[b][a] for a in range(6) for b in range(6))


def test_dihedral_relations():
    g = dihedral(4)
    r = g.index("r1")
    s = g.index("s0")
    # s r s = r^{-1}
    assert g.mul[g.mul[s][r]][s] == g.inv(r)


def test_element_orders():
    g = symmetric(3)
    orders = sorted(g.element_order(a) for a in range(6))
    assert orders == [1, 2, 2, 2, 3, 3]


def test_table_roundtrip():
    g = dihedral(4)
    g2 = group_from_table(group_to_table(g), name="roundtrip")
    assert g2.elements == g.elements
    assert g2.mul == g.mul
    assert g2.identity == g.identity


def test_bad_table_rejected():
    data = {"elements": ["e", "a"], "mul": [["e", "a"], ["a", "a"]]}
    with pytest.raises(MalformedTableError):
        group_from_table(data)


def test_unknown_builtin():
    with pytest.raises(MalformedTableError):
        builtin_group("E8")


def _outcome(make):
    """What make() returns, or the message of the MalformedTableError it raises."""
    try:
        return make()
    except MalformedTableError as exc:
        return str(exc)


def _checked(name, elements, mul):
    g = FiniteGroup(name, elements, mul)
    return g.identity, g.inverse


@pytest.mark.parametrize(
    "mul, error",
    [
        ([[0, 1]], "mul table is not 2x2"),
        ([[0, 1], [1, 2]], "mul entry out of range"),
        ([[0, 1], [-1, 0]], "mul entry out of range"),
        ([[0, 0], [0, 0]], "no identity element"),
        ([[0, 1], [1, 1]], "element a has no inverse"),
        ([[0, 1, 2], [1, 0, 0], [2, 0, 0]], "not associative at (a,a,b)"),
    ],
)
def test_table_errors_match_the_loops(mul, error):
    elements = ("e", "a", "b")[:len(mul[0])]
    got = _outcome(lambda: _checked("T", elements, mul))
    assert got == _outcome(lambda: oracle_check_group("T", elements, mul))
    assert got == f"group T: {error}"


def test_perturbed_tables_match_the_loops():
    """Tables one to three edits away from a group: an entry set to a value
    in [-1, n], or two rows or two columns swapped."""
    rng = np.random.default_rng(16)
    family = [cyclic(5), cyclic(6), symmetric(3), dihedral(4)]
    kinds, seen = ("out of range", "no identity", "no inverse", "not associative"), set()
    for _ in range(1500):
        G = family[rng.integers(len(family))]
        n = G.order
        mul = [list(row) for row in G.mul]
        for _ in range(rng.integers(1, 4)):
            i, j = rng.integers(n, size=2).tolist()
            edit = rng.integers(3)
            if edit == 0:
                mul[i][j] = int(rng.integers(-1, n + 1))
            elif edit == 1:
                mul[i], mul[j] = mul[j], mul[i]
            else:
                for row in mul:
                    row[i], row[j] = row[j], row[i]
        want = _outcome(lambda: oracle_check_group(G.name, G.elements, mul))
        assert _outcome(lambda: _checked(G.name, G.elements, mul)) == want
        seen.add(next((k for k in kinds if k in want), None) if isinstance(want, str) else "group")
    assert seen == {*kinds, "group"}


def _witness_row(message, elements):
    """The index of a in the message "not associative at (a,b,c)"."""
    return elements.index(message.split("(")[1].split(",")[0])


@pytest.mark.parametrize("block", [1, 100])
def test_associativity_blocks_match_the_loops(block, monkeypatch):
    """With blocks of one to four rows a, the first non-associative triple
    of a perturbed table is the loops' one, also past the first block: on
    the full scan alone, and behind Light's test, which must reject exactly
    the tables the loops find non-associative. Every table here takes more
    than one block, so the constructor runs Light's test first."""
    monkeypatch.setattr(groups, "_ASSOC_BLOCK", block)
    rng = np.random.default_rng(19)
    family = [cyclic(5), cyclic(6), symmetric(3), dihedral(4)]
    past_first = rejected = 0
    for _ in range(300):
        G = family[rng.integers(len(family))]
        mul = [list(row) for row in G.mul]
        i, j, k = rng.integers(1, G.order, size=3).tolist()
        mul[i][j], mul[i][k] = mul[i][k], mul[i][j]  # identity row and column kept
        want = _outcome(lambda: oracle_check_group(G.name, G.elements, mul))
        assert _outcome(lambda: _checked(G.name, G.elements, mul)) == want
        with monkeypatch.context() as m:
            m.setattr(groups, "_light_test", lambda t, e: False)  # the full scan decides
            assert _outcome(lambda: _checked(G.name, G.elements, mul)) == want
        if isinstance(want, str) and "not associative" in want:
            rows = max(1, block // G.order**2)
            past_first += _witness_row(want, G.elements) >= rows
        if not isinstance(want, str) or "not associative" in want:
            lawful = not isinstance(want, str)
            assert groups._light_test(np.array(mul), G.identity) == lawful
            rejected += not lawful
    assert past_first > 50 and rejected > 50


def test_light_test_matches_every_triple_on_small_tables():
    """Light's test against the n³ loop on every 3-element table with
    identity 0 and on 3,000 random 4-element ones: most fail at a few
    triples only, so a check that skips a row, a column or a generator
    disagrees somewhere."""
    rng = np.random.default_rng(20)
    tables = [np.reshape(p, (2, 2)) for p in itertools.product(range(3), repeat=4)]
    tables += list(rng.integers(4, size=(3000, 3, 3)))
    lawful = 0
    for rest in tables:
        n = len(rest) + 1
        t = np.zeros((n, n), dtype=np.intp)
        t[0], t[:, 0], t[1:, 1:] = np.arange(n), np.arange(n), rest
        want = all(t[t[a, b], c] == t[a, t[b, c]]
                   for a in range(n) for b in range(n) for c in range(n))
        assert groups._light_test(t, 0) == want
        lawful += want
    assert 10 < lawful < len(tables) - 1000


def test_light_test_on_cyclic_512():
    """The full scan took 2.2 s at n = 512 (n³ triples); Light's test on
    the generating set {a} checks 2·n² products."""
    G = cyclic(512)
    start = time.perf_counter()
    FiniteGroup(G.name, G.elements, G.mul)
    assert time.perf_counter() - start < 0.5


def _z4_times(loop):
    """Z4 × loop as a table, with the Z4 coordinate fastest: the first four
    elements are (k, e), which associate with everything."""
    n = len(loop)
    return [[4 * loop[p // 4][q // 4] + (p + q) % 4 for q in range(4 * n)]
            for p in range(4 * n)]


def test_witness_past_the_first_block_of_128():
    """At the library's own block size a 128-element table is checked four
    rows at a time; Z4 × (Z32 with two entries of row 1 swapped) first
    fails at a = (0, 1), element 4, in the second block."""
    loop = [list(row) for row in cyclic(32).mul]
    loop[1][2], loop[1][3] = loop[1][3], loop[1][2]
    mul = _z4_times(loop)
    elements = tuple(f"x{i}" for i in range(len(mul)))
    assert groups._ASSOC_BLOCK // len(mul) ** 2 == 4
    want = _outcome(lambda: oracle_check_group("L", elements, mul))
    assert _outcome(lambda: _checked("L", elements, mul)) == want
    assert _witness_row(want, elements) == 4


def test_associativity_check_memory_at_128():
    """The check held (n, n, n) index arrays: 34 MiB at n = 128. Blocks of
    at most _ASSOC_BLOCK triples keep it to O(n²)."""
    G = cyclic(128)
    tracemalloc.start()
    try:
        FiniteGroup(G.name, G.elements, G.mul)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


@pytest.mark.parametrize("mul", ["table", [[None]], [["x"]]])
def test_table_above_the_cap_is_refused_unread(mul, monkeypatch):
    """Order k with k² > MAX_GAUGE_PAIRS: no gauge groupoid over the group
    can be built, so group_from_table raises SizeCapError before it
    resolves an entry of mul or builds the group."""
    table = group_to_table(builtin_group("D4"))
    if mul != "table":
        table["mul"] = mul
    monkeypatch.setattr(groups, "MAX_GAUGE_PAIRS", 8 * 8 - 1)
    monkeypatch.setattr(FiniteGroup, "__post_init__", lambda self: pytest.fail("built"))
    with pytest.raises(SizeCapError, match="order 8, 8² table entries > cap"):
        group_from_table(table)


def test_table_at_the_cap_is_read(monkeypatch):
    monkeypatch.setattr(groups, "MAX_GAUGE_PAIRS", 8 * 8)
    assert group_from_table(group_to_table(builtin_group("D4"))).order == 8

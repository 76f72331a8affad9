"""The fiber index of FiniteGroupoid against brute-force oracles.

The oracles are the O(N) fiber scans and the N² endpoint filter that the
library used before it kept an index: fibers must be equal, and every
builder's compose table must hold exactly the pairs the filter finds, in
the order it finds them, with products computed without the table.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import relabeled_group
from convolution_oracle import alpha
from groupoidalg import (
    FinitePrincipalBundle,
    Section,
    builtin_group,
    group_groupoid,
    isotropy_subgroupoid,
    pair_groupoid,
    poincare_decomposition,
    quotient_by_isotropy,
    selection_to_groupoid,
    validate_groupoid,
)
from groupoidalg import io as gio
from groupoidalg.groups import BUILTIN_GROUPS
from validation_oracle import oracle_validate_groupoid


# an arrow is in a fiber only with both endpoints: where src and tgt differ
# in length, the scans run over the shorter
def scan_into(g, x):
    return [a for a, (_, t) in enumerate(zip(g.src, g.tgt)) if t == x]


def scan_from(g, x):
    return [a for a, (s, _) in enumerate(zip(g.src, g.tgt)) if s == x]


def scan_isotropy(g, x):
    return [a for a, (s, t) in enumerate(zip(g.src, g.tgt)) if s == x and t == x]


def assert_fibers_equal_scans(g):
    for x in g.base():
        assert g.arrows_into(x) == scan_into(g, x)
        assert g.arrows_from(x) == scan_from(g, x)
        assert g.isotropy_fiber(x) == scan_isotropy(g, x)


def brute_table(g, product):
    """The compose table the N² endpoint filter builds from product(a, b)."""
    return {
        (a, b): product(a, b)
        for a in g.arrows()
        for b in g.arrows()
        if g.src[a] == g.tgt[b]
    }


def _pair(n):
    g = pair_groupoid(n)
    labels = list(g.arrow_labels)
    return g, lambda a, b: labels.index(f"({g.tgt[a]},{g.src[b]})")


def _group(name):
    G = builtin_group(name)
    return group_groupoid(G), lambda a, b: G.mul[a][b]


def _decomposition(n, name):
    bundle = FinitePrincipalBundle(n, builtin_group(name))
    return poincare_decomposition(bundle, Section.random(bundle, np.random.default_rng(7)))


def _gauge(n, name, dec=None):
    gauge = (dec or _decomposition(n, name)).gauge
    mul, t = gauge.bundle.group.mul, gauge.triples

    def product(a, b):
        return gauge.triple_index[(t[a][0], mul[t[a][1]][t[b][1]], t[b][2])]

    return gauge, product


def _carrier(n, name, dec=None):
    sd = (dec or _decomposition(n, name)).sd
    p = sd.parent
    pair_index = {pair: i for i, pair in enumerate(sd.pair_of)}

    def product(i, j):
        (a0, a1), (b0, b1) = sd.pair_of[i], sd.pair_of[j]
        return pair_index[(p.compose(a0, alpha(p, a1, b0)), p.compose(a1, b1))]

    return sd, product


def _quotient(n, name):
    dec = _decomposition(n, name)
    gauge = dec.gauge
    q, rho = quotient_by_isotropy(gauge, dec.g0)
    # rho is checked to be a morphism elsewhere; compose class representatives
    rep = [rho.arrow_map.index(c) for c in q.arrows()]
    return q, lambda c1, c2: rho.arrow_map[gauge.compose(rep[c1], rep[c2])]


def _selection(dec, sel):
    sub, incl = selection_to_groupoid(sel)
    at, p = incl.arrow_map, dec.gauge
    return sub, lambda a, b: at.index(p.compose(at[a], at[b]))


def _isotropy(n, name):
    dec = _decomposition(n, name)
    return _selection(dec, dec.g0)


def _translation(n, name):
    dec = _decomposition(n, name)
    return _selection(dec, dec.g1)


def _reloaded(tmp_path_factory):
    sd = _decomposition(3, "S3").sd
    path = tmp_path_factory.mktemp("json") / "carrier.json"
    gio.dump_json(gio.groupoid_to_dict(sd), path)
    g = gio.groupoid_from_dict(gio.load_json(path))
    assert g.arrow_labels == sd.arrow_labels
    return g, lambda a, b: sd.compose_table[(a, b)]


SIZES = ((2, "Z2"), (3, "S3"), (4, "D4"))
BUILDERS = (
    [(f"pair-{n}", lambda n=n: _pair(n)) for n in range(1, 5)]
    + [(f"group-{name}", lambda name=name: _group(name)) for name in sorted(BUILTIN_GROUPS)]
    + [
        (f"{kind.__name__[1:]}-{n}{name}", lambda kind=kind, n=n, name=name: kind(n, name))
        for n, name in SIZES
        for kind in (_gauge, _carrier, _quotient, _isotropy, _translation)
    ]
)


@pytest.fixture(params=[b for _, b in BUILDERS] + ["json"], ids=[i for i, _ in BUILDERS] + ["json"])
def instance(request, tmp_path_factory):
    if request.param == "json":
        return _reloaded(tmp_path_factory)
    return request.param()


def test_fibers_equal_scans(instance):
    assert_fibers_equal_scans(instance[0])


def test_one_array_form(instance):
    """The tables as read-only int32 arrays, built once, in the one table
    object: the accessor gives that object with its products."""
    g, _ = instance
    tables = g._product_slots()
    assert tables is g._tables and g._product_slots() is tables
    assert not hasattr(g, "_slots") and not hasattr(g, "_arrays")
    for name in ("src", "tgt", "inv", "identity"):
        table = getattr(tables, name)
        assert table.dtype == np.int32 and not table.flags.writeable
        assert table.tolist() == list(getattr(g, name))
    assert tables.prod.dtype == np.int32 and not tables.prod.flags.writeable
    for fibers in (tables.into, tables.out, tables.iso):
        assert not any(t.flags.writeable for t in fibers)


def test_fibers_are_copies(instance):
    g, _ = instance
    g.arrows_into(0).append(-1)
    g.isotropy_fiber(0).clear()
    assert g.arrows_into(0) == scan_into(g, 0)
    assert g.isotropy_fiber(0) == scan_isotropy(g, 0)


def test_compose_table_equals_brute_force(instance):
    g, product = instance
    assert list(g.compose_table.items()) == list(brute_table(g, product).items())
    assert validate_groupoid(g).ok


def test_dict_of_compose_table_equals_brute_force(instance):
    """dict() reads the mapping key by key: its keys, in order, and one
    lookup per key."""
    g, product = instance
    want = brute_table(g, product)
    assert list(dict(g.compose_table).items()) == list(want.items())
    assert len(g.compose_table) == len(want) and g.compose_table == want


@settings(max_examples=30, deadline=None)
@given(
    name=st.sampled_from(sorted(BUILTIN_GROUPS)),
    n=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=10_000),
)
def test_gauge_and_carrier_over_relabeled_groups(name, n, seed):
    """Group tables with shuffled elements and the identity off index 0, and
    random sections: the gauge and carrier tables hold exactly the pairs of
    the endpoint filter, in its order, with the products of the formulas."""
    rng = np.random.default_rng(seed)
    bundle = FinitePrincipalBundle(n, relabeled_group(builtin_group(name), rng))
    dec = poincare_decomposition(bundle, Section.random(bundle, rng))
    for g, product in (_gauge(n, name, dec), _carrier(n, name, dec)):
        assert list(g.compose_table.items()) == list(brute_table(g, product).items())


class TestMalformed:
    """Malformed tables index without error and keep their reports."""

    def test_src_out_of_range(self):
        g = pair_groupoid(2)
        src = list(g.src)
        src[1] = 5
        bad = dataclasses.replace(g, src=tuple(src))
        assert [a for x in bad.base() for a in bad.arrows_from(x)] == [0, 2, 3]
        assert validate_groupoid(bad).to_dict() == oracle_validate_groupoid(bad).to_dict()
        assert validate_groupoid(bad).to_dict() == {
            "ok": False,
            "violations": [
                {
                    "kind": "malformed",
                    "axiom": "tables",
                    "witness": [1],
                    "message": "arrow 1: src/tgt out of range",
                }
            ],
        }

    def test_negative_tgt_is_in_no_fiber(self):
        g = pair_groupoid(2)
        tgt = list(g.tgt)
        tgt[2] = -1
        bad = dataclasses.replace(g, tgt=tuple(tgt))
        assert bad.arrows_into(1) == [3]
        assert bad.isotropy_fiber(1) == [3]
        report = validate_groupoid(bad)
        assert report.to_dict() == oracle_validate_groupoid(bad).to_dict()
        assert [v.to_dict()["witness"] for v in report.violations] == [[2]]

    @pytest.mark.parametrize("end", [2**70, 2**64, -1, "n_base"])
    @pytest.mark.parametrize("where", [("src",), ("tgt",), ("src", "tgt")])
    def test_endpoint_outside_the_base(self, where, end):
        """Arrow 1 of the pair groupoid, from 1 to 0, with one or both of its
        endpoints outside the base: in no fiber, even where both are equal."""
        g = pair_groupoid(2)
        fields = {}
        for table in where:
            fields[table] = list(getattr(g, table))
            fields[table][1] = g.n_base if end == "n_base" else end
        bad = dataclasses.replace(g, **{k: tuple(v) for k, v in fields.items()})
        assert_fibers_equal_scans(bad)
        for table, fiber in (("src", bad.arrows_from), ("tgt", bad.arrows_into)):
            assert (1 in [a for x in bad.base() for a in fiber(x)]) == (table not in where)
        assert isotropy_subgroupoid(bad).arrows == {0, 3}
        assert validate_groupoid(bad).to_dict() == oracle_validate_groupoid(bad).to_dict()

    @pytest.mark.parametrize(
        "fields, indexed",
        [({"tgt": (0, 0, 1, 1, 0)}, 4), ({"tgt": (0, 0, 1)}, 3), ({"src": (0, 1, 0)}, 3)],
        ids=["tgt-longer", "tgt-shorter", "src-shorter"],
    )
    def test_src_and_tgt_of_unequal_length(self, fields, indexed):
        """Only the arrows with both endpoints are indexed."""
        bad = dataclasses.replace(pair_groupoid(2), **fields)
        assert_fibers_equal_scans(bad)
        for fiber in (bad.arrows_into, bad.arrows_from):
            assert sorted(a for x in bad.base() for a in fiber(x)) == list(range(indexed))
        assert validate_groupoid(bad).to_dict() == oracle_validate_groupoid(bad).to_dict()

    def test_missing_composable_pairs(self):
        g = pair_groupoid(2)
        comp = dict(g.compose_table)
        del comp[(1, 2)]
        del comp[(0, 0)]
        bad = dataclasses.replace(g, compose_table=comp)
        report = validate_groupoid(bad)
        assert report.to_dict() == oracle_validate_groupoid(bad).to_dict()
        assert report.to_dict() == {
            "ok": False,
            "violations": [
                {
                    "kind": "malformed",
                    "axiom": "tables",
                    "witness": [0, 0],
                    "message": "compose table missing composable pair ((0,0), (0,0))",
                },
                {
                    "kind": "malformed",
                    "axiom": "tables",
                    "witness": [1, 2],
                    "message": "compose table missing composable pair ((0,1), (1,0))",
                },
            ],
        }


def test_replace_builds_a_fresh_index():
    g = pair_groupoid(3)
    before = [g.arrows_into(x) for x in g.base()]
    flipped = dataclasses.replace(g, src=g.tgt, tgt=g.src)
    for x in g.base():
        assert g.arrows_into(x) == before[x]
        assert flipped.arrows_into(x) == scan_into(flipped, x) == g.arrows_from(x)
        assert flipped.arrows_into(x) != before[x]

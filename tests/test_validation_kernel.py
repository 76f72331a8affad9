"""validate_groupoid, check_structure and verify_morphism against the loop
oracles in validation_oracle.py: the same reports, violations in the same
order with the same witnesses and messages, on valid instances and on
random corruptions of them."""

import dataclasses
import tracemalloc
from contextlib import contextmanager
from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import LOOP, Z5, pair_times
from groupoidalg import (
    FinitePrincipalBundle,
    FiniteGroupoid,
    GroupoidMorphism,
    J_map,
    Section,
    builtin_group,
    gauge_groupoid,
    group_groupoid,
    isotropy_subgroupoid,
    pair_groupoid,
    poincare_decomposition,
    quotient_by_isotropy,
    selection_to_groupoid,
    validate_groupoid,
    verify_morphism,
)
from groupoidalg import groupoid
from groupoidalg.errors import PreconditionError, SizeCapError
from groupoidalg.groupoid import check_structure
from groupoidalg.semidirect import prop1_on_carrier
from groupoidalg.groups import BUILTIN_GROUPS
from star_oracle import assert_same_plan, oracle_star_coordinates
from validation_oracle import (
    oracle_check_structure,
    oracle_validate_groupoid,
    oracle_verify_morphism,
)


def assert_same_reports(g):
    assert check_structure(g).to_dict() == oracle_check_structure(g).to_dict()
    report = validate_groupoid(g).to_dict()
    assert report == oracle_validate_groupoid(g).to_dict()
    return report


@pytest.mark.parametrize("n,name", [(2, "Z2"), (3, "S3"), (4, "D4"), (8, "Z4")])
def test_ladder(n, name):
    bundle = FinitePrincipalBundle(n, builtin_group(name))
    dec = poincare_decomposition(bundle, Section.random(bundle, np.random.default_rng(5)))
    quotient, _ = quotient_by_isotropy(dec.gauge, dec.g0)
    for g in (dec.gauge, dec.sd, quotient):
        assert assert_same_reports(g) == {"ok": True, "violations": []}


def test_empty_groupoid():
    empty = FiniteGroupoid(0, (), (), {}, (), ())
    assert assert_same_reports(empty)["ok"]
    assert not assert_same_reports(dataclasses.replace(empty, compose_table={(0, 0): 0}))["ok"]


@pytest.mark.parametrize(
    "fields",
    [
        {"tgt": (0,)},
        {"inv": (0, 1, 2)},
        {"identity": (0,)},
        {"src": (0, 2, 1, 1), "inv": (0, 2, -1, 3)},
        {"identity": (0, 4)},
    ],
)
def test_malformed_tables(fields):
    report = assert_same_reports(dataclasses.replace(pair_groupoid(2), **fields))
    assert [v["kind"] for v in report["violations"]] == ["malformed"] * len(report["violations"])


@pytest.mark.parametrize(
    "fields",
    [
        {"inv": (0, 2**70, 2, 3)},
        {"src": (0, 2**64, 0, 1)},
        {"identity": (0, -(2**70))},
        {"compose_table": {(2**70, 0): 0}},
        {"compose_table": {(0, 0): 2**63}},
    ],
)
def test_ids_beyond_int64_are_out_of_range(fields):
    """An id that does not fit in int64 is reported as malformed, as the
    loop oracle does, instead of raising OverflowError."""
    g = pair_groupoid(2)
    if "compose_table" in fields:
        fields = {"compose_table": {**g.compose_table, **fields["compose_table"]}}
    report = assert_same_reports(dataclasses.replace(g, **fields))
    assert report["violations"]
    assert {v["kind"] for v in report["violations"]} == {"malformed"}


@pytest.mark.parametrize(
    "fields",
    [
        {"tgt": (0, 0, 2**31, 1)},
        {"inv": (0, 2**40, 2, 3)},
        {"identity": (-(2**31) - 1, 3)},
        {"compose_table": {(2**31, 0): 0}},
        {"compose_table": {(0, 0): 2**40}},
    ],
)
def test_ids_beyond_int32_are_out_of_range(fields):
    """The tables are read as int32: an id that fits in int64 but not in
    int32 is out of range too, with the loop oracle's report."""
    g = pair_groupoid(2)
    if "compose_table" in fields:
        fields = {"compose_table": {**g.compose_table, **fields["compose_table"]}}
    report = assert_same_reports(dataclasses.replace(g, **fields))
    assert report["violations"]
    assert {v["kind"] for v in report["violations"]} == {"malformed"}


def test_base_point_without_arrows_into_it():
    """Arrow 1 leaves base point 1, into which no arrow points: it composes
    with nothing, so it owns no slot."""
    g = FiniteGroupoid(2, (0, 1), (0, 0), {(0, 0): 0, (0, 1): 1}, (0, 1), (0, 1))
    assert [v["axiom"] for v in assert_same_reports(g)["violations"]] == [
        "identity-base", "identity", "inverse",
    ]


def _loops(n):
    """n loops on one base point, each its own inverse, with no compose
    entries: n² missing pairs."""
    return FiniteGroupoid(1, (0,) * n, (0,) * n, {}, tuple(range(n)), (0,))


def test_slots_over_the_cap_raise_before_they_are_allocated():
    """The arrow table alone sets the number of slots. 4,097 loops ask for
    4,097² > MAX_GAUGE_PAIRS of them: SizeCapError, raised before any array
    per slot is allocated, not 1.7·10⁷ missing-pair violations."""
    tracemalloc.start()
    try:
        for check in (check_structure, validate_groupoid):
            with pytest.raises(SizeCapError, match=(
                    r"^groupoid: 16785409 composable pairs > cap MAX_GAUGE_PAIRS = 16777216$")):
                check(_loops(4097))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20  # the slots' fill mask alone would be 16 MB


def test_slot_cap_is_inclusive(monkeypatch):
    """At the cap the table is checked, every missing pair named as the
    loop oracle names it; one arrow more raises."""
    monkeypatch.setattr(groupoid, "MAX_GAUGE_PAIRS", 100)
    assert len(assert_same_reports(_loops(10))["violations"]) == 100
    with pytest.raises(SizeCapError, match="^groupoid: 121 composable pairs > cap"):
        validate_groupoid(_loops(11))


@lru_cache(maxsize=None)
def _base_instance(family, size, name):
    if family == "pair":
        return pair_groupoid(size)
    if family == "group":
        return group_groupoid(builtin_group(name))
    return gauge_groupoid(FinitePrincipalBundle(size, builtin_group(name)))


def _redirect(draw, g):
    comp = dict(g.compose_table)
    key = draw(st.sampled_from(sorted(comp)))
    comp[key] = draw(st.integers(0, g.n_arrows - 1))
    return dataclasses.replace(g, compose_table=comp)


def _drop(draw, g):
    comp = dict(g.compose_table)
    for key in draw(st.lists(st.sampled_from(sorted(comp)), min_size=1, max_size=3)):
        comp.pop(key, None)
    return dataclasses.replace(g, compose_table=comp)


def _extra(draw, g):
    """An entry on a pair that may not be composable."""
    comp = dict(g.compose_table)
    arrow = st.integers(0, g.n_arrows - 1)
    comp[(draw(arrow), draw(arrow))] = draw(arrow)
    return dataclasses.replace(g, compose_table=comp)


def _out_of_range(draw, g):
    """An id outside its table's range, in compose keys or values or in
    src, tgt, inv or identity."""
    n, nb = g.n_arrows, g.n_base
    bad_arrow = draw(st.sampled_from([-1, -7, n, n + 3, 2**40, 2**70, -(2**70)]))
    where = draw(st.sampled_from(["key", "value", "src", "tgt", "inv", "identity"]))
    if where in ("key", "value"):
        comp = dict(g.compose_table)
        a, b = draw(st.sampled_from(sorted(comp)))
        if where == "value":
            comp[(a, b)] = bad_arrow
        else:
            comp[(bad_arrow, b) if draw(st.booleans()) else (a, bad_arrow)] = comp.pop((a, b))
        return dataclasses.replace(g, compose_table=comp)
    table = list(getattr(g, where))
    i = draw(st.integers(0, len(table) - 1))
    bad_base = draw(st.sampled_from([-1, nb, nb + 2, 2**64]))
    table[i] = bad_base if where in ("src", "tgt") else bad_arrow
    return dataclasses.replace(g, **{where: tuple(table)})


def _wrong_inv(draw, g):
    inv = list(g.inv)
    inv[draw(st.integers(0, g.n_arrows - 1))] = draw(st.integers(0, g.n_arrows - 1))
    return dataclasses.replace(g, inv=tuple(inv))


def _wrong_identity(draw, g):
    ident = list(g.identity)
    ident[draw(st.integers(0, g.n_base - 1))] = draw(st.integers(0, g.n_arrows - 1))
    return dataclasses.replace(g, identity=tuple(ident))


def _reorder(draw, g):
    """The same entries in another insertion order, which orders witnesses."""
    keys = list(g.compose_table)
    draw(st.randoms(use_true_random=False)).shuffle(keys)
    return dataclasses.replace(g, compose_table={k: g.compose_table[k] for k in keys})


CORRUPTIONS = [_redirect, _drop, _extra, _out_of_range, _wrong_inv, _wrong_identity, _reorder]


@st.composite
def corrupted_groupoids(draw):
    family = draw(st.sampled_from(["pair", "group", "gauge"]))
    size = draw(st.integers(1, 3))
    name = draw(st.sampled_from(sorted(BUILTIN_GROUPS)))
    g = _base_instance(family, size, None if family == "pair" else name)
    for corrupt in draw(st.lists(st.sampled_from(CORRUPTIONS), max_size=4)):
        if g.compose_table:
            g = corrupt(draw, g)
    return g


class TestRandomCorruptions:
    @settings(max_examples=300, deadline=None)
    @given(g=corrupted_groupoids())
    def test_reports_match_oracle(self, g):
        assert_same_reports(g)


@lru_cache(maxsize=None)
def _morphisms(n, name, seed):
    """J, ρ, the inclusion of g1, j = ρ∘ι and the induced i of one
    decomposition."""
    bundle = FinitePrincipalBundle(n, builtin_group(name))
    dec = poincare_decomposition(bundle, Section.random(bundle, np.random.default_rng(seed)))
    res = prop1_on_carrier(dec.sd)
    _, inclusion = selection_to_groupoid(dec.g1)
    j = GroupoidMorphism(inclusion.domain, res.quotient,
                         tuple(res.rho.arrow_map[a] for a in inclusion.arrow_map),
                         tuple(res.quotient.base()))
    return J_map(dec.sd), res.rho, inclusion, j, res.i_map


def _mutate(draw, m):
    """One or two entries of the arrow map or the base map changed: set to
    another id, to one out of range, or swapped with another entry."""
    for _ in range(draw(st.integers(1, 2))):
        field = draw(st.sampled_from(["arrow_map", "base_map"]))
        values = list(getattr(m, field))
        size = m.codomain.n_arrows if field == "arrow_map" else m.codomain.n_base
        i, k = draw(st.integers(0, len(values) - 1)), draw(st.integers(0, len(values) - 1))
        how = draw(st.sampled_from(["set", "swap", "range"]))
        if how == "set":
            values[i] = draw(st.integers(0, size - 1))
        elif how == "swap":
            values[i], values[k] = values[k], values[i]
        else:
            values[i] = draw(st.sampled_from([-1, size, 2**40, 2**70]))
        m = dataclasses.replace(m, **{field: tuple(values)})
    return m


class TestVerifyMorphism:
    @pytest.mark.parametrize("n,name", [(2, "Z2"), (3, "S3"), (4, "D4"), (8, "Z4")])
    def test_ladder(self, n, name):
        for m in _morphisms(n, name, n):
            for iso in (False, True):
                report = verify_morphism(m, iso).to_dict()
                assert report == oracle_verify_morphism(m, iso).to_dict()
                # ρ and the inclusion are functors but no isomorphisms
                assert report["ok"] == (not iso or m.domain.n_arrows == m.codomain.n_arrows)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_mutated_maps_match_oracle(self, data):
        n = data.draw(st.integers(1, 3))
        name = data.draw(st.sampled_from(["Z2", "Z3", "S3"]))
        m = data.draw(st.sampled_from(_morphisms(n, name, data.draw(st.integers(0, 2)))))
        m = _mutate(data.draw, m)
        iso = data.draw(st.booleans())
        assert verify_morphism(m, iso).to_dict() == oracle_verify_morphism(m, iso).to_dict()

    def test_witnesses_in_compose_table_order(self):
        """The composition witnesses follow the domain's compose table,
        whatever its insertion order, and a map shorter than the domain is
        not total."""
        J = _morphisms(2, "Z2", 0)[0]
        keys = list(J.domain.compose_table)
        np.random.default_rng(0).shuffle(keys)
        domain = dataclasses.replace(
            J.domain, compose_table={k: J.domain.compose_table[k] for k in keys})
        am = list(J.arrow_map)
        am[1], am[2] = am[2], am[1]
        m = GroupoidMorphism(domain, J.codomain, tuple(am), J.base_map)
        report = verify_morphism(m).to_dict()
        assert report == oracle_verify_morphism(m).to_dict()
        assert [v["axiom"] for v in report["violations"]].count("composition") > 1
        short = dataclasses.replace(J, arrow_map=J.arrow_map[:-1])
        assert verify_morphism(short).to_dict() == oracle_verify_morphism(short).to_dict()


# --- associativity by the convolution plan ----------------------------------
#
# validate_groupoid builds the convolution plan (groupoid._block_plan) on
# every table that passes the structure pass; a plan that builds proves the
# source-target and associativity axioms, and a table the plan does not build
# on goes to the full scan, which gives the witnesses. The tests below record
# the plans and scans run.


@contextmanager
def recorded_scans():
    """validate_groupoid with its plans and scans recorded. Yields the
    record of the calls: "plan" for a plan that builds, "no plan" for one
    that raises, and "all" for the full scan."""
    calls = []
    plan, scan = groupoid._Tables.plan, groupoid._associativity

    def spy_plan(s, label):
        try:
            kept = plan(s, label)
        except PreconditionError:
            calls.append("no plan")
            raise
        calls.append("plan")
        return kept

    def spy_scan(s, A, B, C):
        calls.append("all")
        return scan(s, A, B, C)

    with mock.patch.object(groupoid._Tables, "plan", spy_plan), \
            mock.patch.object(groupoid, "_associativity", spy_scan):
        yield calls


def forced_report(g):
    """validate_groupoid's report, equal to the loop oracle's, and the
    plans and scans it ran. A plan that builds is the only check, and then
    no triple fails; a plan that raises is followed by the full scan; a
    malformed table runs neither."""
    with recorded_scans() as calls:
        report = validate_groupoid(g).to_dict()
    assert report == oracle_validate_groupoid(g).to_dict()
    assert calls in ([], ["plan"], ["no plan", "all"])
    if calls == ["plan"]:
        assert not any(v["axiom"] == "associativity" for v in report["violations"])
    return report, calls


def _disjoint_union(*parts):
    """The disjoint union of groupoids, ids shifted part by part, with a dict
    compose table."""
    src, tgt, inv, ident, comp = [], [], [], [], {}
    n_base = n_arrows = 0
    for p in parts:
        src += [x + n_base for x in p.src]
        tgt += [x + n_base for x in p.tgt]
        inv += [a + n_arrows for a in p.inv]
        ident += [a + n_arrows for a in p.identity]
        comp.update({(a + n_arrows, b + n_arrows): c + n_arrows
                     for (a, b), c in p.compose_table.items()})
        n_base, n_arrows = n_base + p.n_base, n_arrows + p.n_arrows
    return FiniteGroupoid(n_base, tuple(src), tuple(tgt), comp, tuple(inv), tuple(ident))


def _gauge(n, name):
    return gauge_groupoid(FinitePrincipalBundle(n, builtin_group(name)))


@lru_cache(maxsize=None)
def _non_transitive(kind):
    if kind == "union":
        return _disjoint_union(_gauge(2, "Z2"), _gauge(3, "S3"))
    if kind == "isotropy":
        g = _gauge(3, "S3")
        return selection_to_groupoid(isotropy_subgroupoid(g))[0]
    return _disjoint_union(*(group_groupoid(builtin_group(k)) for k in ("Z2", "S3", "D4")))


def _one_product(draw, g):
    """One compose entry redirected to another arrow with the same endpoints,
    or left as it is when it is no arrow (an earlier corruption put an
    out-of-range id there) or its endpoints hold no other arrow."""
    comp = dict(g.compose_table)
    key = draw(st.sampled_from(sorted(comp)))
    c = comp[key]
    same = [d for d in g.arrows() if c in g.arrows() and d != c
            and (g.src[d], g.tgt[d]) == (g.src[c], g.tgt[c])]
    comp[key] = draw(st.sampled_from(same)) if same else c
    return dataclasses.replace(g, compose_table=comp)


def _wrong_ends(draw, g):
    """One compose entry redirected to an arrow with other endpoints."""
    comp = dict(g.compose_table)
    key = draw(st.sampled_from(sorted(comp)))
    c = comp[key]
    other = [d for d in g.arrows() if (g.src[d], g.tgt[d]) != (g.src[c], g.tgt[c])]
    assume(other)  # a one-point base has no other endpoints
    comp[key] = draw(st.sampled_from(other))
    return dataclasses.replace(g, compose_table=comp)


def _star_product(draw, g):
    """The product k∘σ_x⁻¹ of a k in G_r and a star arrow σ_x, which the
    plan's grid is gathered from, redirected to any arrow; g as it is where
    the structure pass fails or the reference finds no coordinates."""
    coords = oracle_star_coordinates(g._product_slots()) if check_structure(g).ok else None
    if coords is None:
        return g
    root, star, _ = coords
    x = draw(st.integers(0, g.n_base - 1))
    comp = dict(g.compose_table)
    k = draw(st.sampled_from(g.isotropy_fiber(int(root[x]))))
    comp[(k, g.inv[star[x]])] = draw(st.integers(0, g.n_arrows - 1))
    return dataclasses.replace(g, compose_table=comp)


@st.composite
def light_instances(draw):
    kind = draw(st.sampled_from(["pair", "group", "gauge", "union", "isotropy", "bundle"]))
    if kind in ("union", "isotropy", "bundle"):
        return _non_transitive(kind)
    name = draw(st.sampled_from(sorted(BUILTIN_GROUPS)))
    return _base_instance(kind, draw(st.integers(1, 3)), None if kind == "pair" else name)


class TestLightsTest:
    """validate_groupoid's plan path. The class and some tests keep the
    names of Light's generating-set test, which the plan replaced."""

    @pytest.mark.parametrize("n,name", [(2, "Z2"), (3, "S3"), (4, "D4")])
    def test_ladder_takes_the_generating_set(self, n, name):
        """The plan builds on the gauge groupoid, the carrier and the
        quotient, and proves them associative alone."""
        bundle = FinitePrincipalBundle(n, builtin_group(name))
        dec = poincare_decomposition(bundle, Section.random(bundle, np.random.default_rng(5)))
        quotient, _ = quotient_by_isotropy(dec.gauge, dec.g0)
        for g in (dec.gauge, dec.sd, quotient):
            assert forced_report(g) == ({"ok": True, "violations": []}, ["plan"])

    @pytest.mark.parametrize("kind", ["union", "isotropy", "bundle"])
    def test_non_transitive_takes_the_generating_set(self, kind):
        assert forced_report(_non_transitive(kind)) == ({"ok": True, "violations": []}, ["plan"])

    def test_every_size_takes_the_plan(self):
        """Under the library's own rule, fresh gauge groupoids, carriers and
        quotients take the plan alone at every size of the ladder, the
        smallest included, and keep it for the quotient and the kernels."""
        for n, name in [(2, "Z2"), (3, "S3"), (4, "D4"), (8, "Z4")]:
            bundle = FinitePrincipalBundle(n, builtin_group(name))
            dec = poincare_decomposition(bundle, Section.random(bundle, np.random.default_rng(n)))
            quotient, _ = quotient_by_isotropy(dec.gauge, dec.g0)
            for g in (gauge_groupoid(bundle), dec.sd, quotient):
                assert "block" not in g._tables._plans
                with recorded_scans() as calls:
                    assert validate_groupoid(g).ok
                assert calls == ["plan"] and "block" in g._tables._plans

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_one_product_mutants(self, data):
        """Endpoints kept, so the plan path runs, and only associativity
        (and with it the identity and inverse laws) can fail."""
        g = data.draw(light_instances())
        for _ in range(data.draw(st.integers(1, 2))):
            g = _one_product(data.draw, g)
        report, calls = forced_report(g)
        assert calls[0] in ("plan", "no plan")

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_arbitrary_mutants(self, data):
        g = data.draw(light_instances())
        for corrupt in data.draw(st.lists(st.sampled_from(CORRUPTIONS + [_one_product]),
                                          min_size=1, max_size=3)):
            if g.compose_table:
                g = corrupt(data.draw, g)
        forced_report(g)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_plan_raises_as_the_oracle(self, data):
        """_block_plan against the reference of star_oracle.py on mutants
        that pass the structure pass: the same coordinates and grids, or
        the same error, at the coordinates, the slot pass or G_r."""
        g = data.draw(light_instances())
        mutants = [_star_product, _one_product, _redirect, _wrong_inv, _wrong_identity]
        for corrupt in data.draw(st.lists(st.sampled_from(mutants), min_size=1, max_size=3)):
            g = corrupt(data.draw, g)
        if check_structure(g).ok:
            assert_same_plan(g)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_wrong_endpoints_skip_the_generating_set(self, data):
        """The plan refuses a product with wrong endpoints: the full scan
        follows."""
        g = _wrong_ends(data.draw, data.draw(light_instances()))
        report, calls = forced_report(g)
        assert any(v["axiom"] == "source-target" for v in report["violations"])
        assert calls == ["no plan", "all"]

    def test_no_generating_set_falls_back_to_the_scan(self):
        """The inv entry of a star arrow points back at the star arrow, so
        h∘inv[star x] is not composable: there are no star coordinates, the
        plan does not build, and the full scan decides, with only the
        inverse law failing."""
        g = _gauge(3, "S3")
        star = next(a for a in g.arrows_from(0) if g.tgt[a] == 1)
        inv = list(g.inv)
        inv[star] = star
        report, calls = forced_report(dataclasses.replace(g, inv=tuple(inv)))
        assert calls == ["no plan", "all"]
        assert {v["axiom"] for v in report["violations"]} == {"inverse"}

    def test_generating_set_that_misses_arrows_falls_back_to_the_scan(self):
        """Base {0, 1}: e0, z0 at 0 with z0 absorbing, f: 0 → 1, g: 1 → 0 and
        four arrows at 1 that compose as a right-zero band (x∘y = y), with
        f∘g the first of them. Associativity holds at every c of {e0, z0,
        f, g}, which a generating-set test would read, but fails at (f, g,
        c) for the other three arrows at 1, which are no products of them;
        the plan must not build."""
        src, tgt = (0, 0, 0, 1, 1, 1, 1, 1), (0, 0, 1, 0, 1, 1, 1, 1)

        def product(a, b):
            ends = (src[b], tgt[a])
            if ends in ((0, 1), (1, 0)):
                return 2 if ends == (0, 1) else 3
            if ends == (0, 0):
                return b if a == 0 else (a if b == 0 else 1)
            return b if b >= 4 else 4

        comp = {(a, b): product(a, b) for a in range(8) for b in range(8) if src[a] == tgt[b]}
        g = FiniteGroupoid(2, src, tgt, comp, (0, 1, 3, 2, 4, 5, 6, 7), (0, 4))
        s = g._product_slots()
        fails = groupoid._associativity(s, *groupoid._entries(g.compose_table))
        assert not np.isin(np.concatenate([c for _, c in fails]), [0, 1, 2, 3]).any()
        report, calls = forced_report(g)
        assert calls == ["no plan", "all"]
        assert [v["witness"] for v in report["violations"] if v["axiom"] == "associativity"] == [
            [2, 3, 5], [2, 3, 6], [2, 3, 7]]

    def test_more_arrows_than_orbit_products_falls_back_to_the_scan(self):
        """e0 at 0, f: 0 → 1, g: 1 → 0 and e1, z1 at 1 composing as a
        right-zero band, with f∘g = e1: five arrows, but an orbit of two
        points over a trivial isotropy group has four. Associativity fails
        only at (f, g, z1), outside {e0, f, g}; the plan must not build."""
        src, tgt = (0, 0, 1, 1, 1), (0, 1, 0, 1, 1)
        ends = {(0, 0): 0, (0, 1): 1, (1, 0): 2}
        comp = {(a, b): ends.get((src[b], tgt[a]), 3 if (a, b) == (1, 2) else b)
                for a in range(5) for b in range(5) if src[a] == tgt[b]}
        report, calls = forced_report(FiniteGroupoid(2, src, tgt, comp, (0, 2, 1, 3, 4), (0, 3)))
        assert calls == ["no plan", "all"]
        assert [v["witness"] for v in report["violations"] if v["axiom"] == "associativity"] == [
            [1, 2, 4]]

    def test_base_point_without_arrows_into_it_has_no_star_arrow(self):
        g = FiniteGroupoid(2, (0, 1), (0, 0), {(0, 0): 0, (0, 1): 1}, (0, 1), (0, 1))
        assert forced_report(g)[1] == ["no plan", "all"]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_loop_isotropy_falls_back_to_the_scan(self, n):
        """The pair groupoid times the order-5 loop: its star coordinates
        stand and every product is where they put it, but the isotropy is no
        group, so the plan does not build and the full scan finds the
        36·n⁴ failing triples."""
        g = pair_times(n, LOOP)
        with pytest.raises(PreconditionError, match="group of the isotropy at base point 0"):
            g._product_slots().plan(g.arrow_label)  # the coordinates stand, the group fails
        report, calls = forced_report(g)
        assert calls == ["no plan", "all"]
        assert [v["axiom"] for v in report["violations"]] == ["associativity"] * 36 * n**4

    @pytest.mark.parametrize("loop_first", [False, True])
    def test_one_loop_orbit_of_two_falls_back_to_the_scan(self, loop_first):
        """Two orbits of one shape (2, 5), the pair groupoid times Z5 and
        times the loop, so two isotropy tables to check in one block."""
        parts = [pair_times(2, Z5), pair_times(2, LOOP)]
        assert validate_groupoid(parts[0]).ok
        report, calls = forced_report(_disjoint_union(*(parts[::-1] if loop_first else parts)))
        assert calls == ["no plan", "all"]
        assert [v["axiom"] for v in report["violations"]] == ["associativity"] * 576

    def test_plan_kept_for_the_kernels(self):
        """The plan that proves associativity is the one the convolution
        reads: validate_groupoid keeps it on the table object."""
        g = _gauge(4, "D4")
        assert validate_groupoid(g).ok and "block" in g._tables._plans

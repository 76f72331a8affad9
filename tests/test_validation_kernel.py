"""validate_groupoid, check_structure and verify_morphism against the loop
oracles in validation_oracle.py: the same reports, violations in the same
order with the same witnesses and messages, on valid instances and on
random corruptions of them."""

import dataclasses
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupoidalg import (
    FinitePrincipalBundle,
    FiniteGroupoid,
    GroupoidMorphism,
    J_map,
    Section,
    builtin_group,
    gauge_groupoid,
    group_groupoid,
    pair_groupoid,
    poincare_decomposition,
    quotient_by_isotropy,
    selection_to_groupoid,
    validate_groupoid,
    verify_morphism,
)
from groupoidalg.groupoid import check_structure
from groupoidalg.semidirect import prop1_on_carrier
from groupoidalg.groups import BUILTIN_GROUPS
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

"""The compose table as a read-only mapping over the slot table or over the
entries of a groupoid file, and the kernels that gather on the slots in
place of one lookup per product, against the loop oracles."""

import copy
import dataclasses
import gc
import tracemalloc
from collections.abc import Mapping

import numpy as np
import pytest

from groupoidalg import (
    FinitePrincipalBundle,
    Section,
    builtin_group,
    cyclic,
    find_isomorphism,
    gauge_groupoid,
    group_groupoid,
    lorentz_subgroupoid,
    pair_groupoid,
    quotient_by_isotropy,
    selection_to_groupoid,
    semidirect_product,
    symmetric,
    translation_subgroupoid,
    validate_groupoid,
)
from groupoidalg import io as gio
from conftest import relabeled_group
from groupoidalg.errors import PreconditionError
from groupoidalg.groupoid import SubgroupoidSelection
from groupoidalg.semidirect import prop1_on_carrier
from io_oracle import oracle_groupoid_from_dict, oracle_groupoid_to_dict
from validation_oracle import (
    oracle_find_isomorphism,
    oracle_quotient_by_isotropy,
    oracle_validate_groupoid,
)

LADDER = [(2, "Z2"), (3, "S3"), (4, "D4"), (8, "Z4"), (12, "S3"), (16, "D4")]


def _gauge(n, name):
    return gauge_groupoid(FinitePrincipalBundle(n, builtin_group(name)))


def _gauge_file():
    return oracle_groupoid_to_dict(_gauge(2, "Z2"))


def _dup_last_other_value(rows):
    """Row 5 again at the end, with another arrow's product: that value wins."""
    rows.append(rows[5][:2] + [rows[6][2]])


def _dup_first_other_value(rows):
    """Row 5 again at the start, with another value: the later row wins, at
    the first position, so the table keeps its products but not its order."""
    rows.insert(0, rows[5][:2] + [rows[6][2]])


def _dup_three_copies(rows):
    """Row 9 three times, the middle one with another value."""
    rows.insert(3, rows[9][:2] + [rows[0][2]])
    rows.insert(0, list(rows[10]))


def _dup_same_value(rows):
    rows.append(list(rows[0]))


@pytest.mark.parametrize("edit,ok", [(_dup_last_other_value, False),
                                     (_dup_first_other_value, True),
                                     (_dup_three_copies, True), (_dup_same_value, True)])
def test_duplicate_compose_rows(edit, ok):
    """A file with a repeated compose row loads as the dict of its rows:
    the first position and the last value of each key, so its report has
    the same violations with the same witnesses, in the same order."""
    d = _gauge_file()
    edit(d["compose"])
    got, want = gio.groupoid_from_dict(d), oracle_groupoid_from_dict(copy.deepcopy(d))
    assert len(got.compose_table) == len(want.compose_table) == 32
    assert list(got.compose_table.items()) == list(want.compose_table.items())
    report = validate_groupoid(got)
    assert report.to_dict() == oracle_validate_groupoid(want).to_dict()
    assert report.ok == ok


def _with(t, i, v):
    return t[:i] + (v,) + t[i + 1:]


@pytest.mark.parametrize("edit", [
    lambda g: {"src": _with(g.src, 0, 5)},
    lambda g: {"inv": _with(g.inv, 3, 99)},
    lambda g: {"src": _with(g.src, 2, -1), "inv": _with(g.inv, 15, 16)},
    lambda g: {"identity": _with(g.identity, 1, 2**40)},
])
def test_replaced_tables_get_the_structure_pass(edit):
    """A copy of a built groupoid with out-of-range ids carries the built
    compose table, but its own tables: the structure pass checks them."""
    g = pair_groupoid(4)
    bad = dataclasses.replace(g, **edit(g))
    report = validate_groupoid(bad)
    assert not report.ok
    assert report.to_dict() == oracle_validate_groupoid(bad).to_dict()
    assert {v.kind for v in report.violations} == {"malformed"}
    with pytest.raises(PreconditionError, match="out of range"):
        bad._product_slots()


def test_replaced_endpoints_are_checked_against_the_entries():
    """Endpoints swapped in a copy: the built entries are no longer
    composable, and the report names them."""
    g = pair_groupoid(3)
    bad = dataclasses.replace(g, src=g.tgt, tgt=g.src)
    report = validate_groupoid(bad)
    assert report.to_dict() == oracle_validate_groupoid(bad).to_dict()
    assert not report.ok


def test_compose_table_is_read_only(tmp_path):
    g = pair_groupoid(2)
    path = tmp_path / "g.json"
    gio.dump_json(gio.groupoid_to_dict(g), path)
    for t in (g.compose_table, gio.groupoid_from_dict(gio.load_json(path)).compose_table):
        assert isinstance(t, Mapping) and not isinstance(t, dict)
        with pytest.raises(TypeError):
            t[(0, 0)] = 1
        with pytest.raises(TypeError):
            del t[(0, 0)]
        assert not hasattr(t, "update") and not hasattr(t, "pop")
        assert t[(1, 2)] == 0 and t.get((1, 2)) == 0
        for key in [(1, 1), (0, 4), (-1, 0), (2**40, 0), (0.5, 0), ("0", "0"), (0,), "x", None]:
            assert key not in t and t.get(key) is None
            with pytest.raises(KeyError):
                t[key]


def test_slot_arrays_are_read_only():
    s = pair_groupoid(2)._product_slots()
    for arr in s.entries():
        with pytest.raises(ValueError):
            arr[0] = 1


def _entries_cases(tmp_path):
    for n, name in LADDER[:4]:
        yield _gauge(n, name)
    path = tmp_path / "g.json"
    gio.dump_json(gio.groupoid_to_dict(_gauge(3, "S3")), path)
    yield gio.groupoid_from_dict(gio.load_json(path))


def test_entries_are_the_walked_pairs(tmp_path):
    """entries() is int32 and in slot order: the pairs() blocks, concatenated,
    and the keys and values of the compose table, in its order."""
    for g in _entries_cases(tmp_path):
        s = g._product_slots()
        a, b, c = s.entries()
        assert a.dtype == b.dtype == c.dtype == np.int32
        blocks = list(s.pairs(8))
        assert len(blocks) > 1
        for got, want in zip((a, b, c), map(np.concatenate, zip(*blocks))):
            assert np.array_equal(got, want)
        assert list(zip(a.tolist(), b.tolist())) == list(g.compose_table)
        assert c.tolist() == list(g.compose_table.values())
        assert all(np.array_equal(x, y) for x, y in zip(s.entries(), (a, b, c)))


def test_checks_keep_no_pairs():
    """Prop. 1 and the axiom check on a fresh (16,D4) carrier leave less
    than its slot table allocated once their results are dropped: no pass
    keeps the pairs it walked or the entries it built (the kept plan of
    the carrier is 0.2 MB)."""
    bundle = FinitePrincipalBundle(16, builtin_group("D4"))
    g = gauge_groupoid(bundle)
    sel = translation_subgroupoid(g, Section.random(bundle, np.random.default_rng(3)))
    sd = semidirect_product(g, lorentz_subgroupoid(g), sel)
    n_slots = sd._product_slots().n_slots
    gc.collect()
    tracemalloc.start()
    try:
        result = prop1_on_carrier(sd)
        assert result.j_exists and result.J_is_iso and result.i_map_verified
        assert validate_groupoid(sd).ok
        del result
        gc.collect()
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kept < n_slots * 4


def test_mapping_equality(tmp_path):
    g = _gauge(3, "S3")
    path = tmp_path / "g.json"
    gio.dump_json(gio.groupoid_to_dict(g), path)
    reloaded = gio.groupoid_from_dict(gio.load_json(path)).compose_table
    assert reloaded == g.compose_table == dict(g.compose_table)
    assert g.compose_table != pair_groupoid(3).compose_table
    other = dict(g.compose_table)
    other[(0, 0)] = 1
    assert g.compose_table != other
    assert reloaded != _gauge(2, "S3").compose_table


def _relabeled_gauge(n, name):
    G = relabeled_group(builtin_group(name), np.random.default_rng(n))
    return gauge_groupoid(FinitePrincipalBundle(n, G))


@pytest.mark.parametrize("n,name", LADDER)
@pytest.mark.parametrize("build", [_gauge, _relabeled_gauge], ids=["gauge", "relabeled"])
def test_quotient_equals_oracle(build, n, name):
    """Also over group tables with the identity off index 0, where the
    first product of an orbit is not its smallest."""
    g = build(n, name)
    g0 = lorentz_subgroupoid(g)
    q, rho = quotient_by_isotropy(g, g0)
    want = oracle_quotient_by_isotropy(g, g0)
    assert (list(q.src), list(q.tgt)) == (want["src"], want["tgt"])
    assert (list(q.inv), list(q.identity)) == (want["inv"], want["identity"])
    assert list(q.compose_table.items()) == want["compose"]
    assert list(q.arrow_labels) == want["labels"]
    assert list(rho.arrow_map) == want["arrow_map"]


def _normal_subgroup(G, kind):
    """The centre of G, its squares (Z2 in Z4, A3 in S3, a subgroup in both)
    or the trivial subgroup, as element indices."""
    order = range(G.order)
    if kind == "centre":
        return [a for a in order if all(G.mul[a][b] == G.mul[b][a] for b in order)]
    if kind == "squares":
        return sorted({G.mul[a][a] for a in order})
    return [G.identity]


@pytest.mark.parametrize("n,name,kind", [(3, "D4", "centre"), (2, "Z4", "squares"),
                                         (4, "S3", "squares"), (3, "S3", "trivial")])
@pytest.mark.parametrize("build", [_gauge, _relabeled_gauge], ids=["gauge", "relabeled"])
def test_quotient_by_normal_subgroup_equals_oracle(build, n, name, kind):
    """The quotient by a normal subgroup N of the isotropy at every point,
    N proper: each class (y, N·k, x) holds several arrows, each class
    represented by its smallest."""
    g = build(n, name)
    N = _normal_subgroup(g.bundle.group, kind)
    base = np.arange(n)[:, None]
    g0 = SubgroupoidSelection(g, frozenset(g.triple_index[base, N, base].ravel().tolist()))
    q, rho = quotient_by_isotropy(g, g0)
    want = oracle_quotient_by_isotropy(g, g0)
    assert q.n_arrows == g.n_arrows // len(N)
    assert (list(q.src), list(q.tgt)) == (want["src"], want["tgt"])
    assert (list(q.inv), list(q.identity)) == (want["inv"], want["identity"])
    assert list(q.compose_table.items()) == want["compose"]
    assert list(q.arrow_labels) == want["labels"]
    assert list(rho.arrow_map) == want["arrow_map"]


def _ladder_pairs():
    for n, name in LADDER[:4]:
        bundle = FinitePrincipalBundle(n, builtin_group(name))
        g = gauge_groupoid(bundle)
        g1 = translation_subgroupoid(g, Section.random(bundle, np.random.default_rng(7)))
        q, _ = quotient_by_isotropy(g, lorentz_subgroupoid(g))
        yield f"g1-quotient-{n}{name}", selection_to_groupoid(g1)[0], q
    yield "Z6-S3", group_groupoid(cyclic(6)), group_groupoid(symmetric(3))
    yield "Z4-pair2", group_groupoid(cyclic(4)), pair_groupoid(2)
    yield "gauge-2Z2", _gauge(2, "Z2"), _gauge(2, "Z2")
    yield "D4-D4", group_groupoid(builtin_group("D4")), group_groupoid(builtin_group("D4"))


@pytest.mark.parametrize("g,h", [p[1:] for p in _ladder_pairs()],
                         ids=[p[0] for p in _ladder_pairs()])
def test_find_isomorphism_equals_oracle(g, h):
    got, want = find_isomorphism(g, h), oracle_find_isomorphism(g, h)
    assert (got is None) == (want is None)
    if got is not None:
        assert (got.arrow_map, got.base_map) == (want.arrow_map, want.base_map)

"""The groupoid file format against the loops in io_oracle.py: the writer's
bytes equal json.dump(indent=2), the description's compose rows come in
sorted (a, b) order on every builder's output, the reader returns the same
groupoid or raises the same error on malformed files, and every I/O step
leaves the cyclic GC as it found it."""

import contextlib
import copy
import gc
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupoidalg import (
    FinitePrincipalBundle,
    Section,
    builtin_group,
    gauge_groupoid,
    group_groupoid,
    lorentz_subgroupoid,
    pair_groupoid,
    poincare_decomposition,
    quotient_by_isotropy,
    selection_to_groupoid,
    symmetric,
    translation_subgroupoid,
)
from groupoidalg import io as gio
from groupoidalg.cli import main
from groupoidalg.errors import MalformedTableError, PreconditionError
from groupoidalg.groupoid import FiniteGroupoid, check_structure
from io_oracle import oracle_dump, oracle_groupoid_from_dict, oracle_groupoid_to_dict


def dumped(data, path) -> str:
    gio.dump_json(data, path)
    return Path(path).read_text()


# --- the writer -------------------------------------------------------------

LABELS = st.one_of(
    st.text(max_size=5),
    st.sampled_from(['"', "\\", "σ", "\x00", "\x1f", "\n", "a\tb", "(0,e,1)", "", " "]),
)
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-10**20, 10**20),
    st.floats(allow_nan=True, allow_infinity=True), LABELS,
)
VALUES = st.recursive(
    SCALARS,
    lambda kids: st.one_of(st.lists(kids, max_size=4), st.dictionaries(LABELS, kids, max_size=4)),
    max_leaves=16,
)
ROW_TABLES = st.one_of(
    # equal-length rows of str, as lists, and as tuples, which json.dumps writes
    st.integers(0, 4).flatmap(lambda k: st.lists(
        st.lists(LABELS, min_size=k, max_size=k), max_size=6)),
    st.integers(1, 3).flatmap(lambda k: st.lists(
        st.tuples(*[LABELS] * k), min_size=1, max_size=4)),
    # rows of unequal length, and rows with non-str items
    st.lists(st.lists(LABELS, max_size=4), max_size=6),
    st.integers(1, 3).flatmap(lambda k: st.lists(
        st.lists(SCALARS, min_size=k, max_size=k), min_size=1, max_size=4)),
    st.lists(st.lists(VALUES, min_size=2, max_size=2), min_size=1, max_size=3),
)
KEYS = st.one_of(LABELS, st.integers(-3, 3), st.none(), st.booleans())
DOCUMENTS = st.one_of(
    st.dictionaries(LABELS, st.one_of(VALUES, ROW_TABLES), max_size=5),
    st.dictionaries(KEYS, st.one_of(VALUES, ROW_TABLES), max_size=4),
    VALUES,
    ROW_TABLES,
)


@settings(max_examples=300, deadline=None)
@given(data=DOCUMENTS)
def test_writer_equals_json_dump(data):
    """The row-table joins and the json.dumps path write what json.dump
    writes, byte for byte."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.json"
        gio.dump_json(data, path)
        assert path.read_bytes() == oracle_dump(data).encode("ascii")


def test_writer_blocks_of_rows(tmp_path, monkeypatch):
    """A row table longer than one block, with labels that need escaping,
    is joined across the block edges as one table."""
    monkeypatch.setattr(gio, "_ROWS", 3)
    rows = [[f"σ{i}", '"', f"{i}\\"] for i in range(10)]
    data = {"rows": rows, "plain": [[str(i), "x"] for i in range(7)], "n": 1}
    assert dumped(data, tmp_path / "d.json") == oracle_dump(data)


# --- the description ----------------------------------------------------------

def _decomposition(n, name, seed):
    bundle = FinitePrincipalBundle(n, builtin_group(name))
    return poincare_decomposition(bundle, Section.random(bundle, np.random.default_rng(seed)))


def _builders():
    for n, name in ((2, "Z2"), (3, "S3"), (4, "D4")):
        dec = _decomposition(n, name, n)
        yield f"gauge-{n}{name}", dec.gauge
        yield f"carrier-{n}{name}", dec.sd
        yield f"quotient-{n}{name}", quotient_by_isotropy(dec.gauge, dec.g0)[0]
        yield f"translation-{n}{name}", selection_to_groupoid(dec.g1)[0]
        yield f"isotropy-{n}{name}", selection_to_groupoid(dec.g0)[0]
    bundle = FinitePrincipalBundle(2, builtin_group("Z2"))
    gauge = gauge_groupoid(bundle)
    sel = translation_subgroupoid(gauge, Section.identity(bundle))
    yield "quotient-2Z2-lorentz", quotient_by_isotropy(gauge, lorentz_subgroupoid(gauge))[0]
    yield "translation-2Z2-identity", selection_to_groupoid(sel)[0]
    for n in (1, 2, 3):
        yield f"pair-{n}", pair_groupoid(n)
    yield "group-S3", group_groupoid(symmetric(3))
    yield "group-D4", group_groupoid(builtin_group("D4"))


BUILT = list(_builders())


@pytest.mark.parametrize("name,g", BUILT, ids=[name for name, _ in BUILT])
def test_description_equals_oracle(name, g, tmp_path):
    """Compose rows in sorted(compose_table.items()) order, the whole
    description equal to the loop's, and the file byte-identical."""
    want = oracle_groupoid_to_dict(g)
    got = gio.groupoid_to_dict(g)
    assert got == want
    assert list(got) == list(want)
    assert type(got["compose"]) is list and all(type(r) is list for r in got["compose"])
    assert dumped(got, tmp_path / "g.json") == oracle_dump(want)


def test_description_of_a_reloaded_shuffled_file(tmp_path):
    """A groupoid read from a file with its compose rows shuffled keeps
    them in file order; the description still gives them in (a, b) order."""
    d = gio.groupoid_to_dict(_decomposition(3, "S3", 1).sd)
    np.random.default_rng(0).shuffle(d["compose"])
    g = gio.groupoid_from_dict(d)
    assert list(g.compose_table) != sorted(g.compose_table)
    assert gio.groupoid_to_dict(g) == oracle_groupoid_to_dict(g)


@pytest.mark.parametrize("n,name", [(4, "D4"), (8, "Z4")])
def test_carrier_round_trip(n, name, tmp_path):
    """At ladder sizes: the carrier file equals json.dump's, and reading it
    back gives the same tables."""
    sd = _decomposition(n, name, 7).sd
    path = tmp_path / "c.json"
    assert dumped(gio.groupoid_to_dict(sd), path) == oracle_dump(oracle_groupoid_to_dict(sd))
    g = gio.groupoid_from_dict(gio.load_json(path))
    assert (g.src, g.tgt, g.inv, g.identity) == (sd.src, sd.tgt, sd.inv, sd.identity)
    assert g.compose_table == sd.compose_table


def test_malformed_table_is_not_serialized():
    """The rows come off the slot table, so a table that fails the
    structure pass raises PreconditionError with its first message."""
    g = FiniteGroupoid(2, (0, 1), (0, 1), {(0, 0): 0, (0, 1): 0}, (0, 1), (0, 1))
    first = check_structure(g).violations[0].message
    assert first == "compose entry on non-composable pair (0, 1)"
    with pytest.raises(PreconditionError) as info:
        gio.groupoid_to_dict(g)
    assert str(info.value) == first


def test_repeated_arrow_labels_are_not_serialized():
    """Arrow ids in the file are the labels: two arrows with one label
    would be one arrow on reading back."""
    p = pair_groupoid(2)
    g = FiniteGroupoid(p.n_base, p.src, p.tgt, p.compose_table, p.inv, p.identity,
                       arrow_labels=("e0", "t", "t", "e1"))
    with pytest.raises(PreconditionError, match="^arrow labels are not unique; cannot serialize$"):
        gio.groupoid_to_dict(g)


# --- the reader -------------------------------------------------------------

BASE_FILE = oracle_groupoid_to_dict(gauge_groupoid(FinitePrincipalBundle(2, builtin_group("Z2"))))
KEYS_OF_FILE = ("base", "arrows", "compose", "inv", "identity")
JUNK_VALUES = ([], {}, "x", 3, None, ["x"], {"x": 1}, True, 2.5)
# fresh copies per draw: the mutations edit a drawn value in place, and a
# shared list or dict would carry those edits into later examples
JUNK = st.sampled_from(JUNK_VALUES).map(copy.deepcopy)
RECORD = st.just({"id": "x"}).map(copy.deepcopy)
PRISTINE_JUNK = copy.deepcopy(JUNK_VALUES)


def _rows(d):
    compose = d.get("compose")
    return compose if isinstance(compose, list) and compose else None


def _records(d):
    arrows = d.get("arrows")
    return arrows if isinstance(arrows, list) and arrows else None


def _int_labels(d, draw, i):
    """Every arrow id an int, consistently: still a valid file."""
    recs = _records(d)
    if not (recs and all(isinstance(r, dict) for r in recs)):
        return
    ids = {str(r.get("id")): k for k, r in enumerate(recs)}
    for r in recs:
        r["id"] = ids[str(r.get("id"))]
    for row in _rows(d) or []:
        if isinstance(row, list):
            row[:] = [ids.get(str(v), v) for v in row]
    for table in ("inv", "identity"):
        if isinstance(d.get(table), dict):
            d[table] = {k: ids.get(str(v), v) for k, v in d[table].items()}


def _row_edit(edit):
    """A mutation of compose row i, when there is a list row there."""
    def mutate(d, draw, i):
        rows = _rows(d)
        if rows and isinstance(rows[i % len(rows)], list):
            edit(rows, rows[i % len(rows)], draw, i % len(rows))
    return mutate


def _record_edit(d, draw, i):
    recs = _records(d)
    if not recs:
        return
    rec, other = recs[i % len(recs)], recs[(i + 1) % len(recs)]
    kind = draw(st.sampled_from(["duplicate", "junk", "endpoint"]))
    if kind == "junk":
        recs[i % len(recs)] = draw(st.one_of(JUNK, RECORD))
    elif isinstance(rec, dict) and kind == "duplicate" and isinstance(other, dict):
        rec["id"] = other.get("id")
    elif isinstance(rec, dict) and kind == "endpoint":
        rec[draw(st.sampled_from(["src", "tgt"]))] = draw(st.sampled_from(["9", 0, None]))


def _table_edit(d, draw, i):
    table = d.get(draw(st.sampled_from(["inv", "identity"])))
    if isinstance(table, dict) and table:
        k = list(table)[i % len(table)]
        if draw(st.booleans()):
            del table[k]
        else:
            table[k] = draw(st.sampled_from(["nope", 1, None]))


def _duplicate_base(d, draw, i):
    if isinstance(d.get("base"), list) and d["base"]:
        d["base"].append(d["base"][i % len(d["base"])])


def _duplicate_row(rows, row, draw, i):
    """The pair of row i again, with the product of the next row."""
    other = rows[(i + 1) % len(rows)]
    rows.insert(draw(st.integers(0, len(rows))),
                row[:2] + (other[2:3] if isinstance(other, list) else row[2:3]))


def _drop_row(d, draw, i):
    if _rows(d):
        del d["compose"][i % len(d["compose"])]


def _row_junk(d, draw, i):
    if _rows(d):
        d["compose"][i % len(d["compose"])] = draw(JUNK)


MUTATIONS = {
    "drop-key": lambda d, draw, i: d.pop(draw(st.sampled_from(KEYS_OF_FILE)), None),
    "container": lambda d, draw, i: d.__setitem__(draw(st.sampled_from(KEYS_OF_FILE)),
                                                  draw(JUNK)),
    "short-row": _row_edit(lambda rows, row, draw, i: row.__delitem__(slice(2, None))),
    "long-row": _row_edit(lambda rows, row, draw, i: row.append(row[0] if row else "x")),
    "unknown-id": _row_edit(lambda rows, row, draw, i: row and row.__setitem__(
        draw(st.integers(0, len(row) - 1)), draw(st.sampled_from(["nope", "", "(0,e)"])))),
    "int-id": _row_edit(lambda rows, row, draw, i: row and row.__setitem__(
        draw(st.integers(0, len(row) - 1)), draw(st.integers(-2, 9)))),
    "duplicate-row": _row_edit(_duplicate_row),
    "drop-row": _drop_row,
    "row-type": _row_junk,
    "arrow-record": _record_edit,
    "inv-identity": _table_edit,
    "duplicate-base": _duplicate_base,
    "int-labels": _int_labels,
}


@st.composite
def mutated_files(draw):
    """The (2,Z2) gauge file with one to three mutations, or junk."""
    if draw(st.integers(0, 19)) == 0:
        return draw(JUNK)
    d = copy.deepcopy(BASE_FILE)
    for _ in range(draw(st.integers(1, 3))):
        MUTATIONS[draw(st.sampled_from(sorted(MUTATIONS)))](d, draw, draw(st.integers(0, 63)))
    return d


@settings(max_examples=20, deadline=None, database=None)
@given(vs=st.lists(st.one_of(JUNK, RECORD), min_size=30, max_size=30))
def test_drawn_junk_is_fresh(vs):
    """Editing drawn values in place, as the mutations do, leaves the
    values of later draws as they were."""
    for v in vs:
        assert v in [*PRISTINE_JUNK, {"id": "x"}]
        if isinstance(v, list):
            v.append("edited")
        elif isinstance(v, dict):
            v["edited"] = 1


def same_groupoid(got, want):
    assert (got.n_base, got.src, got.tgt) == (want.n_base, want.src, want.tgt)
    assert (got.inv, got.identity) == (want.inv, want.identity)
    assert list(got.compose_table.items()) == list(want.compose_table.items())
    assert (got.arrow_labels, got.base_labels) == (want.arrow_labels, want.base_labels)


@settings(max_examples=400, deadline=None)
@given(d=mutated_files())
def test_reader_matches_oracle(d):
    """The same groupoid, or the same exception type and message, with the
    first offender in file order."""
    try:
        want = oracle_groupoid_from_dict(copy.deepcopy(d))
    except Exception as exc:  # noqa: BLE001 - any error must be the oracle's
        with pytest.raises(type(exc)) as info:
            gio.groupoid_from_dict(d)
        assert str(info.value) == str(exc)
        return
    same_groupoid(gio.groupoid_from_dict(d), want)


def test_identity_at_an_unknown_base_id():
    """An identity table keyed by a base id the file does not list."""
    d = copy.deepcopy(BASE_FILE)
    d["identity"]["9"] = d["identity"].pop("1")
    message = "groupoid file: unknown base id '9'"
    with pytest.raises(MalformedTableError, match=f"^{message}$"):
        gio.groupoid_from_dict(d)
    with pytest.raises(MalformedTableError, match=f"^{message}$"):
        oracle_groupoid_from_dict(copy.deepcopy(d))


def test_compose_entries_as_tuples():
    """Entries given as tuples, as a caller's dict may hold them, are read
    one by one and give the compose table of the list form."""
    d = gio.groupoid_to_dict(gauge_groupoid(FinitePrincipalBundle(3, builtin_group("S3"))))
    want = gio.groupoid_from_dict(d).compose_table
    got = gio.groupoid_from_dict({**d, "compose": [tuple(e) for e in d["compose"]]}).compose_table
    assert list(got.items()) == list(want.items())
    for x, y in zip(got.entries(), want.entries()):
        assert x.dtype == y.dtype == np.int32 and np.array_equal(x, y)


@settings(max_examples=60, deadline=None)
@given(d=mutated_files())
def test_cli_on_malformed_files(d):
    """verify-groupoid --in and quotient --in exit with a documented code
    and never print a traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "g.json"
        src.write_text(oracle_dump(d))
        for argv in (["verify-groupoid", "--in", str(src), "--report", str(Path(tmp) / "r.json")],
                     ["quotient", "--in", str(src), "--out", str(Path(tmp) / "q.json"),
                      "--report", str(Path(tmp) / "r.json")]):
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main(argv)
            assert code in (0, 1, 2, 3)
            assert "Traceback" not in err.getvalue()


# --- the cyclic GC ------------------------------------------------------------

@pytest.mark.parametrize("enabled", [True, False])
def test_gc_state_is_restored(enabled, tmp_path, fix_gauge_2_z2):
    """Every I/O step leaves gc.isenabled() as it was, also when it raises."""
    bad_json, path = tmp_path / "bad.json", tmp_path / "g.json"
    bad_json.write_text("{not json")
    malformed = FiniteGroupoid(1, (0,), (0,), {}, (0,), (0,))
    steps = [
        (lambda: gio.groupoid_to_dict(fix_gauge_2_z2), None),
        (lambda: gio.dump_json(gio.groupoid_to_dict(fix_gauge_2_z2), path), None),
        (lambda: gio.groupoid_from_dict(gio.load_json(path)), None),
        (lambda: gio.load_json(bad_json), json.JSONDecodeError),
        (lambda: gio.load_json(tmp_path / "missing.json"), FileNotFoundError),
        (lambda: gio.groupoid_from_dict({"base": ["0"]}), MalformedTableError),
        (lambda: gio.groupoid_from_dict({**BASE_FILE, "compose": [["x", "y", "z"]]}),
         MalformedTableError),
        (lambda: gio.groupoid_to_dict(malformed), PreconditionError),
        (lambda: gio.dump_json({"a": object()}, tmp_path / "o.json"), TypeError),
    ]
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        for step, error in steps:
            if error is None:
                step()
            else:
                with pytest.raises(error):
                    step()
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()

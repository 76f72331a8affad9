"""File formats: groupoid description files, group tables, sections, and
complex-valued function files. Key order in emitted JSON is fixed so that
builders produce bit-identical output."""

from __future__ import annotations

import gc
import json
import mmap
import os
from contextlib import contextmanager
from itertools import chain
from json.encoder import encode_basestring_ascii

import numpy as np

from .errors import MAX_GAUGE_PAIRS, MalformedTableError, PreconditionError, SizeCapError
from .groupoid import FiniteGroupoid, _ComposeTable, check_structure


@contextmanager
def _gc_paused():
    """Run with the cyclic GC paused and restore its state on exit, also on
    error. The I/O steps make some 10⁵ short-lived containers that hold no
    cycles; the collections they set off would cost as much as the work."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def _labels(g: FiniteGroupoid) -> list:
    """The arrow labels, once they are unique and the tables pass the
    structure pass, held products included; PreconditionError otherwise."""
    aid = [g.arrow_label(a) for a in g.arrows()]
    if len(set(aid)) != g.n_arrows:
        raise PreconditionError("arrow labels are not unique; cannot serialize")
    if not (rep := check_structure(g)).ok:
        raise PreconditionError(rep.violations[0].message)
    return aid


@_gc_paused()
def groupoid_to_dict(g: FiniteGroupoid) -> dict:
    """Groupoid description: keys base, arrows, compose, inv, identity,
    in that order; arrow and base ids are their labels. The compose rows
    are read off the slot table, in (a, b) id order, so a table that fails
    the structure pass raises PreconditionError."""
    aid = _labels(g)
    rows = np.stack(g._tables.entries(), axis=1)  # in (a, b) order
    bid = [g.base_label(x) for x in g.base()]
    return {
        "base": bid,
        "arrows": [
            {"id": a, "src": bid[x], "tgt": bid[y]} for a, x, y in zip(aid, g.src, g.tgt)
        ],
        "compose": np.fromiter(aid, dtype=object, count=len(aid))[rows].tolist(),
        "inv": {a: aid[b] for a, b in zip(aid, g.inv)},
        "identity": {x: aid[e] for x, e in zip(bid, g.identity)},
    }


def _compose_ids(compose: list, aidx: dict) -> np.ndarray | None:
    """The ids of the entries as an int32 array, a, b and a∘b per entry,
    when every entry is a list of three known ids; None otherwise."""
    if not (set(map(type, compose)) <= {list} and set(map(len, compose)) <= {3}):
        return None
    flat = chain.from_iterable
    for labels in (flat(compose), map(str, flat(compose))):  # ids match as strings
        try:
            return np.fromiter(map(aidx.__getitem__, labels), np.int32, 3 * len(compose))
        except (KeyError, TypeError):
            continue
    return None


@_gc_paused()
def groupoid_from_dict(data: dict) -> FiniteGroupoid:
    try:
        base = data["base"]
        arrows = data["arrows"]
        compose = data["compose"]
        inv = data["inv"]
        identity = data["identity"]
    except (KeyError, TypeError) as exc:
        raise MalformedTableError(f"groupoid file: missing key ({exc})") from None
    for key, value, kind in (("base", base, list), ("arrows", arrows, list),
                             ("compose", compose, list), ("inv", inv, dict),
                             ("identity", identity, dict)):
        if not isinstance(value, kind):
            shape = "a list" if kind is list else "an object"
            raise MalformedTableError(f"groupoid file: {key} is not {shape}")
    if len(compose) > MAX_GAUGE_PAIRS:
        raise SizeCapError(f"groupoid file: {len(compose)} compose rows > cap "
                           f"MAX_GAUGE_PAIRS = {MAX_GAUGE_PAIRS}")
    base = [str(x) for x in base]
    bidx = {x: i for i, x in enumerate(base)}
    if len(bidx) != len(base):
        raise MalformedTableError("groupoid file: duplicate base ids")
    aidx = {}
    src, tgt = [], []
    for rec in arrows:
        try:
            aid, s, t = str(rec["id"]), str(rec["src"]), str(rec["tgt"])
        except (KeyError, TypeError) as exc:
            raise MalformedTableError(
                f"groupoid file: arrow record {rec!r} misses {exc}"
            ) from None
        if aid in aidx:
            raise MalformedTableError(f"groupoid file: duplicate arrow id {aid!r}")
        if s not in bidx or t not in bidx:
            raise MalformedTableError(f"groupoid file: arrow {aid!r} has unknown endpoint")
        aidx[aid] = len(src)
        src.append(bidx[s])
        tgt.append(bidx[t])

    def arrow(aid) -> int:
        aid = str(aid)
        if aid not in aidx:
            raise MalformedTableError(f"groupoid file: unknown arrow id {aid!r}")
        return aidx[aid]

    ids = _compose_ids(compose, aidx)
    if ids is None:  # the entry loop raises for the first malformed entry in file order
        ids = []
        for entry in compose:
            if not isinstance(entry, (list, tuple)) or len(entry) != 3:
                raise MalformedTableError(
                    f"groupoid file: compose entry {entry!r} is not [a, b, a∘b]"
                )
            a, b, c = entry
            c = arrow(c)  # an unknown a∘b is reported before an unknown a or b
            ids += (arrow(a), arrow(b), c)
        ids = np.array(ids, dtype=np.int32)
    inv_t = [None] * len(src)
    for a, b in inv.items():
        inv_t[arrow(a)] = arrow(b)
    if any(v is None for v in inv_t):
        raise MalformedTableError("groupoid file: inv table is not total")
    ident_t = [None] * len(base)
    for x, a in identity.items():
        if str(x) not in bidx:
            raise MalformedTableError(f"groupoid file: unknown base id {x!r}")
        ident_t[bidx[str(x)]] = arrow(a)
    if any(v is None for v in ident_t):
        raise MalformedTableError("groupoid file: identity table is not total")
    return FiniteGroupoid(
        n_base=len(base),
        src=tuple(src),
        tgt=tuple(tgt),
        compose_table=_ComposeTable.of_entries(*ids.reshape(-1, 3).T.copy()),
        inv=tuple(inv_t),
        identity=tuple(ident_t),
        arrow_labels=tuple(str(r["id"]) for r in arrows),
        base_labels=tuple(base),
    )


_ROWS = 1 << 12  # rows per write of a row table; bounds the text held at once
# at indent level 1: between items of a row, between rows; an arrow record; a map entry
_INNER, _ROW = '",\n      "', '"\n    ],\n    [\n      "'
_ARROW, _ITEM = '{\n      "id": %s,\n      "src": %s,\n      "tgt": %s\n    }', "%s: %s"


def _row_table(value) -> dict | None:
    """If value is a list of equal-length, non-empty lists of str: the
    escaped text, without quotes, of each distinct string that json
    escapes. None for any other value."""
    if not (type(value) is list and value and type(value[0]) is list):
        return None
    if set(map(type, value)) != {list} or len(set(map(len, value))) != 1:
        return None
    try:
        distinct = set(chain.from_iterable(value))
    except TypeError:  # an unhashable item, so not a str
        return None
    if not (distinct and all(type(v) is str for v in distinct)):
        return None
    return {v: e[1:-1] for v in distinct if (e := encode_basestring_ascii(v))[1:-1] != v}


def _write_rows(fh, blocks) -> None:
    """Write a table of str rows at indent level 1 as json.dump(indent=2)
    lays it out, one join per block; the rows hold the escaped text of
    their strings, without quotes, and there is at least one."""
    fh.write('[\n    [\n      "')
    for i, block in enumerate(blocks):
        if i:
            fh.write(_ROW)
        fh.write(_ROW.join(map(_INNER.join, block)))
    fh.write('"\n    ]\n  ]')


def _blocks(rows, escaped: dict):
    """A row table in blocks of _ROWS rows, rewritten where a string needs escaping."""
    for lo in range(0, len(rows), _ROWS):
        block = rows[lo:lo + _ROWS]
        yield [[escaped.get(v, v) for v in row] for row in block] if escaped else block


@_gc_paused()
def dump_json(data: dict, path) -> None:
    """Write data as json.dump(data, fh, indent=2) does, then a newline. In
    a dict with str keys, each value that is a table of str rows is written
    by joins, and every other value by json.dumps."""
    tables = {}
    if isinstance(data, dict) and all(isinstance(k, str) for k in data):
        tables = {k: esc for k, v in data.items() if (esc := _row_table(v)) is not None}
    with open(path, "w") as fh:
        if not tables:
            fh.write(json.dumps(data, indent=2))
        else:
            sep = "{\n  "
            for key, value in data.items():
                fh.write(sep + encode_basestring_ascii(key) + ": ")
                sep = ",\n  "
                if key in tables:
                    _write_rows(fh, _blocks(value, tables[key]))
                else:
                    fh.write(json.dumps(value, indent=2).replace("\n", "\n  "))
            fh.write("\n}")
        fh.write("\n")


def write_groupoid(g: FiniteGroupoid, path) -> None:
    """Write dump_json(groupoid_to_dict(g), path)'s bytes from the tables:
    labels (str) escaped once, records and map entries from templates, and
    the compose rows gathered off the slot table a block at a time, with no
    list per row. groupoid_to_dict's errors are raised before the open."""
    aid = _labels(g)
    if not aid:  # no arrows and no base: every value is empty
        return dump_json(groupoid_to_dict(g), path)
    arrow = [encode_basestring_ascii(a) for a in aid]
    base = [encode_basestring_ascii(g.base_label(x)) for x in g.base()]
    bare = np.array([a[1:-1] for a in arrow], dtype=object)  # as _write_rows takes them
    ident = dict(zip(base, map(arrow.__getitem__, g.identity)))  # a repeated base label keeps one
    with open(path, "w") as fh:
        fh.write('{\n  "base": [\n    ' + ",\n    ".join(base) + '\n  ],\n  "arrows": [\n    ')
        fh.write(",\n    ".join(map(_ARROW.__mod__, zip(arrow, map(base.__getitem__, g.src), map(
            base.__getitem__, g.tgt)))) + '\n  ],\n  "compose": ')
        _write_rows(fh, (zip(*(bare[ids].tolist() for ids in block))
                         for block in g._tables.pairs(_ROWS)))
        fh.write(',\n  "inv": {\n    ' + ",\n    ".join(map(_ITEM.__mod__, zip(
            arrow, map(arrow.__getitem__, g.inv)))) + '\n  },\n  "identity": {\n    ')
        fh.write(",\n    ".join(map(_ITEM.__mod__, ident.items())) + "\n  }\n}\n")


# the fewest bytes of a compose row as dump_json writes it, ids of one
# character: "    [\n", three indented ids and "    ],\n"
_ROW_BYTES = 45
_CHUNK = 1 << 20  # bytes per read of a stream, or of a file that grew


def _over_cap(path, over: str, cap: int) -> SizeCapError:
    return SizeCapError(f"{path}: file too large to read: {over} {cap} bytes, "
                        f"MAX_GAUGE_PAIRS = {MAX_GAUGE_PAIRS} compose rows of {_ROW_BYTES} bytes")


def _text(path, data) -> str:
    try:
        return str(data, "utf-8")
    except UnicodeDecodeError as exc:
        raise MalformedTableError(f"{path}: not readable as JSON: {exc}") from None


@_gc_paused()
def load_json(path) -> dict:
    """The parsed UTF-8 file. Parsing takes memory in proportion to the
    bytes read, so more than MAX_GAUGE_PAIRS compose rows of the smallest
    written size raise SizeCapError: a file before it is read, a stream,
    which has no size, once it gives more. Text that is not UTF-8, an int
    of too many digits or too deep a nesting raise MalformedTableError.
    The file is read into a mapping of its own, of its size and one byte,
    unmapped once decoded: a heap block of the file's size, freed, can
    leave the heap grown (three loads of the 26 MB (16,D4) carrier peaked
    at 184 against 158 MB). A stream, or a file that grew, is read on in
    chunks."""
    cap = MAX_GAUGE_PAIRS * _ROW_BYTES
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size  # 0 for a pipe or a device
        if size > cap:
            raise _over_cap(path, f"{size} bytes > cap", cap)
        with mmap.mmap(-1, size + 1) as buf:
            read = fh.readinto(buf)
            if read <= size:
                with memoryview(buf)[:read] as view:
                    text = _text(path, view)
            else:  # a stream, or a file that grew
                data = bytearray(buf[:read])
                while len(data) <= cap and (part := fh.read(min(_CHUNK, cap + 1 - len(data)))):
                    data += part
                if len(data) > cap:
                    raise _over_cap(path, "a stream over the cap of", cap)
                text = _text(path, data)
                del data  # the bytes go once decoded
    try:
        return json.loads(text)
    except json.JSONDecodeError:  # a ValueError that keeps its type and message
        raise
    except (ValueError, RecursionError) as exc:
        raise MalformedTableError(f"{path}: not readable as JSON: {exc}") from None


@_gc_paused()
def read_groupoid(path) -> FiniteGroupoid:
    """groupoid_from_dict(load_json(path)) under one pause of the cyclic
    GC: the parsed document is freed before a collection can walk it."""
    return groupoid_from_dict(load_json(path))


def function_to_dict(g: FiniteGroupoid, values: np.ndarray) -> dict:
    return {
        g.arrow_label(a): [float(values[a].real), float(values[a].imag)]
        for a in g.arrows()
    }


def function_from_dict(g: FiniteGroupoid, data: dict) -> np.ndarray:
    if not isinstance(data, dict):
        raise MalformedTableError("function file: not a map from arrow id to [re, im]")
    ids = {g.arrow_label(a): a for a in g.arrows()}
    out = np.zeros(g.n_arrows, dtype=complex)
    for aid, pair in data.items():
        if aid not in ids:
            raise MalformedTableError(f"function file: unknown arrow id {aid!r}")
        try:
            re, im = pair
            out[ids[aid]] = complex(float(re), float(im))
        except (TypeError, ValueError):
            raise MalformedTableError(
                f"function file: value of {aid!r} is {pair!r}, not [re, im]"
            ) from None
        except OverflowError:  # an int beyond the float range
            out[ids[aid]] = np.inf
        if not np.isfinite(out[ids[aid]]):
            raise MalformedTableError(f"function file: value of {aid!r} is {pair!r}, not finite")
    return out

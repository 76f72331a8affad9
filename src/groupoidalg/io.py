"""File formats: groupoid description files, group tables, sections, and
complex-valued function files. Key order in emitted JSON is fixed so that
builders produce bit-identical output."""

from __future__ import annotations

import json

import numpy as np

from .errors import MalformedTableError, PreconditionError
from .groupoid import FiniteGroupoid


def groupoid_to_dict(g: FiniteGroupoid) -> dict:
    """Groupoid description: keys base, arrows, compose, inv, identity,
    in that order; arrow and base ids are their labels."""
    aid = [g.arrow_label(a) for a in g.arrows()]
    if len(set(aid)) != g.n_arrows:
        raise PreconditionError("arrow labels are not unique; cannot serialize")
    bid = [g.base_label(x) for x in g.base()]
    return {
        "base": bid,
        "arrows": [
            {"id": aid[a], "src": bid[g.src[a]], "tgt": bid[g.tgt[a]]}
            for a in g.arrows()
        ],
        "compose": [
            [aid[a], aid[b], aid[c]]
            for (a, b), c in sorted(g.compose_table.items())
        ],
        "inv": {aid[a]: aid[g.inv[a]] for a in g.arrows()},
        "identity": {bid[x]: aid[g.identity[x]] for x in g.base()},
    }


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

    comp = {}
    for entry in compose:
        if not isinstance(entry, (list, tuple)) or len(entry) != 3:
            raise MalformedTableError(
                f"groupoid file: compose entry {entry!r} is not [a, b, a∘b]"
            )
        a, b, c = entry
        comp[(arrow(a), arrow(b))] = arrow(c)
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
        compose_table=comp,
        inv=tuple(inv_t),
        identity=tuple(ident_t),
        arrow_labels=tuple(str(r["id"]) for r in arrows),
        base_labels=tuple(base),
    )


def dump_json(data: dict, path) -> None:
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")


def load_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


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
    return out

"""The loop implementations of the groupoid file format, kept as the oracle
for io's array-fed reader and writer: the description built from
sorted(compose_table.items()), the reader's entry-by-entry loop with its
messages, and the writer json.dump(data, fh, indent=2)."""

import io
import json

from groupoidalg.errors import MalformedTableError, PreconditionError
from groupoidalg.groupoid import FiniteGroupoid


def oracle_groupoid_to_dict(g):
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


def oracle_groupoid_from_dict(data):
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


def oracle_dump(data) -> str:
    """The text the writer put in a file: json.dump with indent 2, then a
    newline."""
    fh = io.StringIO()
    json.dump(data, fh, indent=2)
    fh.write("\n")
    return fh.getvalue()

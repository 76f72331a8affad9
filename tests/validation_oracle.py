"""The loop implementations of check_structure, validate_groupoid and
verify_morphism, kept as the oracles for the library's array kernels: one
dict lookup per composable pair and per composable triple. Their reports
are the reference, violations in the same order and with the same
messages."""

from groupoidalg.groupoid import (
    AXIOM_ASSOCIATIVITY,
    AXIOM_IDENTITY,
    AXIOM_IDENTITY_BASE,
    AXIOM_INVERSE,
    AXIOM_SOURCE_TARGET,
    ValidationReport,
)


def oracle_composable_pairs(g):
    """Every pair (a, b) with src a == tgt b, by the N² endpoint filter: a
    ascending, then b ascending. Endpoints must be in range."""
    return [(a, b) for a in g.arrows() for b in g.arrows() if g.src[a] == g.tgt[b]]


def oracle_check_structure(g):
    rep = ValidationReport()
    n, nb = g.n_arrows, g.n_base
    if len(g.tgt) != n or len(g.inv) != n:
        rep.add("malformed", "tables", (), "src/tgt/inv tables have inconsistent lengths")
        return rep
    if len(g.identity) != nb:
        rep.add("malformed", "tables", (), "identity table does not cover the base")
        return rep
    for a in range(n):
        if not (0 <= g.src[a] < nb and 0 <= g.tgt[a] < nb):
            rep.add("malformed", "tables", (a,), f"arrow {a}: src/tgt out of range")
        if not (0 <= g.inv[a] < n):
            rep.add("malformed", "tables", (a,), f"arrow {a}: inv out of range")
    for x in range(nb):
        if not (0 <= g.identity[x] < n):
            rep.add("malformed", "tables", (x,), f"base point {x}: identity out of range")
    if not rep.ok:
        return rep
    for (a, b), c in g.compose_table.items():
        if not (0 <= a < n and 0 <= b < n and 0 <= c < n):
            rep.add("malformed", "tables", (a, b), "compose entry refers to unknown arrow")
        elif g.src[a] != g.tgt[b]:
            rep.add(
                "malformed",
                "tables",
                (a, b),
                f"compose entry on non-composable pair ({g.arrow_label(a)}, {g.arrow_label(b)})",
            )
    for a, b in oracle_composable_pairs(g):
        if (a, b) not in g.compose_table:
            rep.add(
                "malformed",
                "tables",
                (a, b),
                f"compose table missing composable pair ({g.arrow_label(a)}, {g.arrow_label(b)})",
            )
    return rep


def oracle_validate_groupoid(g):
    rep = oracle_check_structure(g)
    if not rep.ok:
        return rep
    comp = g.compose_table
    src, tgt, inv, ident = g.src, g.tgt, g.inv, g.identity

    for x in range(g.n_base):
        e = ident[x]
        if src[e] != x or tgt[e] != x:
            rep.add(
                "axiom",
                AXIOM_IDENTITY_BASE,
                (x, e),
                f"identity arrow at base {g.base_label(x)} has endpoints "
                f"({g.base_label(src[e])},{g.base_label(tgt[e])})",
            )

    for (a, b), c in comp.items():
        if src[c] != src[b] or tgt[c] != tgt[a]:
            rep.add(
                "axiom",
                AXIOM_SOURCE_TARGET,
                (a, b),
                f"product {g.arrow_label(a)}∘{g.arrow_label(b)} has wrong endpoints",
            )

    for a in range(g.n_arrows):
        if comp.get((ident[tgt[a]], a)) != a or comp.get((a, ident[src[a]])) != a:
            rep.add(
                "axiom",
                AXIOM_IDENTITY,
                (a,),
                f"identity law fails at arrow {g.arrow_label(a)}",
            )

    for a in range(g.n_arrows):
        ia = inv[a]
        if comp.get((a, ia)) != ident[tgt[a]] or comp.get((ia, a)) != ident[src[a]]:
            rep.add(
                "axiom",
                AXIOM_INVERSE,
                (a,),
                f"inverse law fails at arrow {g.arrow_label(a)}",
            )

    for (a, b), ab in comp.items():
        for c in (c for c in g.arrows() if tgt[c] == src[b]):
            lhs = comp.get((ab, c))
            bc = comp.get((b, c))
            rhs = comp.get((a, bc)) if bc is not None else None
            if lhs != rhs or lhs is None:
                rep.add(
                    "axiom",
                    AXIOM_ASSOCIATIVITY,
                    (a, b, c),
                    f"associativity fails at ({g.arrow_label(a)}, "
                    f"{g.arrow_label(b)}, {g.arrow_label(c)})",
                )
    return rep


def oracle_verify_morphism(m, require_iso=False):
    """The loop over the definitions: per arrow, per base point and per
    compose-table entry, with dict lookups in the codomain."""
    rep = ValidationReport()
    d, c = m.domain, m.codomain
    am, bm = m.arrow_map, m.base_map
    if len(am) != d.n_arrows or len(bm) != d.n_base:
        rep.add("morphism", "totality", (), "arrow_map/base_map are not total")
        return rep
    if any(not (0 <= v < c.n_arrows) for v in am) or any(
        not (0 <= v < c.n_base) for v in bm
    ):
        rep.add("morphism", "totality", (), "map values out of range")
        return rep
    for a in d.arrows():
        if c.src[am[a]] != bm[d.src[a]]:
            rep.add("morphism", "source", (a,), f"src not preserved at {d.arrow_label(a)}")
        if c.tgt[am[a]] != bm[d.tgt[a]]:
            rep.add("morphism", "target", (a,), f"tgt not preserved at {d.arrow_label(a)}")
    for x in d.base():
        if am[d.identity[x]] != c.identity[bm[x]]:
            rep.add("morphism", "identity", (x,), f"identity at {d.base_label(x)} not preserved")
    for (a, b), ab in d.compose_table.items():
        if not c.composable(am[a], am[b]):
            rep.add(
                "morphism",
                "composition",
                (a, b),
                f"image pair not composable at ({d.arrow_label(a)}, {d.arrow_label(b)})",
            )
        elif c.compose_table[(am[a], am[b])] != am[ab]:
            rep.add(
                "morphism",
                "composition",
                (a, b),
                f"composition not preserved at ({d.arrow_label(a)}, {d.arrow_label(b)})",
            )
    if require_iso:
        if len(set(bm)) != c.n_base or d.n_base != c.n_base:
            rep.add("bijectivity", "base", (), "base_map is not a bijection")
        if len(set(am)) != c.n_arrows or d.n_arrows != c.n_arrows:
            rep.add("bijectivity", "arrows", (), "arrow_map is not a bijection")
    return rep

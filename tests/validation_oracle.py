"""The loop implementations of check_structure, validate_groupoid,
verify_morphism, quotient_by_isotropy and find_isomorphism, kept as the
oracles for the library's array kernels: one compose_table lookup per
composable pair and per composable triple. Their reports are the
reference, violations in the same order and with the same messages."""

from groupoidalg.errors import GroupoidError, SizeCapError
from groupoidalg.groupoid import (
    AXIOM_ASSOCIATIVITY,
    AXIOM_IDENTITY,
    AXIOM_IDENTITY_BASE,
    AXIOM_INVERSE,
    AXIOM_SOURCE_TARGET,
    FiniteGroupoid,
    GroupoidMorphism,
    ValidationReport,
)
from groupoidalg.morphism import DEFAULT_ISO_CAP


class QuotientUndefinedError(GroupoidError):
    """The oracle's quotient composition depends on the choice of
    representatives, or its orbits do not partition the arrows."""

    def __init__(self, message, witnesses=()):
        super().__init__(message)
        self.witnesses = tuple(witnesses)


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


def oracle_quotient_by_isotropy(g, g0):
    """The quotient of g by the wide, closed, conjugation-stable isotropy
    selection g0, by the orbit loop and a loop over the compose table: the
    quotient's tables, its compose entries in order and the projection's
    arrow map. Raises QuotientUndefinedError where the orbits or the
    composition are not well defined."""
    class_of, classes = [None] * g.n_arrows, []
    for gamma in g.arrows():
        if class_of[gamma] is not None:
            continue
        orbit = sorted(
            g.compose_table[(a, gamma)] for a in g.isotropy_fiber(g.tgt[gamma]) if a in g0.arrows
        )
        cid = len(classes)
        classes.append(orbit)
        for m in orbit:
            if class_of[m] is not None and class_of[m] != cid:
                raise QuotientUndefinedError("orbit structure inconsistent", witnesses=(gamma, m))
            class_of[m] = cid
        if class_of[gamma] is None:
            raise QuotientUndefinedError(
                f"arrow {g.arrow_label(gamma)} lies in no orbit", witnesses=(gamma,)
            )
    order = sorted(range(len(classes)), key=lambda c: classes[c][0])
    rank = {c: i for i, c in enumerate(order)}
    class_of = [rank[c] for c in class_of]
    reps = [classes[c][0] for c in order]
    bad = [
        (class_of[a], class_of[b])
        for (a, b), ab in g.compose_table.items()
        if class_of[ab] != class_of[g.compose_table[(reps[class_of[a]], reps[class_of[b]])]]
    ]
    if bad:
        c1, c2 = min(bad)
        raise QuotientUndefinedError(
            f"quotient undefined: classes [{g.arrow_label(reps[c1])}] and "
            f"[{g.arrow_label(reps[c2])}] compose ambiguously",
            witnesses=(reps[c1], reps[c2]),
        )
    m = len(reps)
    return {
        "src": [g.src[r] for r in reps],
        "tgt": [g.tgt[r] for r in reps],
        "inv": [class_of[g.inv[r]] for r in reps],
        "identity": [class_of[e] for e in g.identity],
        "compose": [
            ((c1, c2), class_of[g.compose_table[(reps[c1], reps[c2])]])
            for c1 in range(m)
            for c2 in range(m)
            if g.src[reps[c1]] == g.tgt[reps[c2]]
        ],
        "labels": [f"[{g.arrow_label(r)}]" for r in reps],
        "arrow_map": class_of,
    }



def _oracle_power_order(g: FiniteGroupoid, a: int) -> int:
    """Order of an isotropy arrow under repeated composition with itself."""
    e = g.identity[g.src[a]]
    k, x = 1, a
    while x != e:
        x = g.compose_table[(x, a)]
        k += 1
    return k


def _oracle_base_signature(g: FiniteGroupoid, x: int):
    iso = g.isotropy_fiber(x)
    return (
        len(g.arrows_into(x)),
        len(g.arrows_from(x)),
        len(iso),
        tuple(sorted(_oracle_power_order(g, a) for a in iso)),
    )


def _oracle_arrow_signature(g: FiniteGroupoid, a: int):
    if g.src[a] == g.tgt[a]:
        return (g.is_identity(a), _oracle_power_order(g, a))
    return (False, 0)


def _oracle_extend_arrows(g, h, base_map, cand, order):
    """Backtracking arrow assignment with forced-product propagation."""
    amap: dict[int, int] = {}
    used: set[int] = set()
    # identities are forced
    for x in g.base():
        delta = h.identity[base_map[x]]
        amap[g.identity[x]] = delta
        used.add(delta)

    def consistent(a, d):
        # inverse coherence
        ia = g.inv[a]
        if ia in amap and amap[ia] != h.inv[d]:
            return None
        forced = []
        if ia not in amap:
            if h.inv[d] in used and h.inv[d] != d:
                return None
            if ia != a:
                forced.append((ia, h.inv[d]))
        return forced

    def propagate(a, d, trail):
        """Assign a→d plus everything it forces; append to trail, or fail."""
        queue = [(a, d)]
        while queue:
            a, d = queue.pop()
            if a in amap:
                if amap[a] != d:
                    return False
                continue
            if d in used:
                return False
            if h.src[d] != base_map[g.src[a]] or h.tgt[d] != base_map[g.tgt[a]]:
                return False
            if _oracle_arrow_signature(g, a) != _oracle_arrow_signature(h, d):
                return False
            forced = consistent(a, d)
            if forced is None:
                return False
            amap[a] = d
            used.add(d)
            trail.append(a)
            queue.extend(forced)
            # products with already-assigned partners (a itself included) are
            # forced; the closure, and so the outcome, does not depend on order
            for b in g.arrows_into(g.src[a]):
                if b in amap:
                    queue.append((g.compose_table[(a, b)], h.compose_table[(d, amap[b])]))
            for b in g.arrows_from(g.tgt[a]):
                if b != a and b in amap:
                    queue.append((g.compose_table[(b, a)], h.compose_table[(amap[b], d)]))
        return True

    def undo(trail, n):
        while len(trail) > n:
            a = trail.pop()
            used.discard(amap.pop(a))

    def search(i):
        while i < len(order) and order[i] in amap:
            i += 1
        if i == len(order):
            return True
        a = order[i]
        for d in cand[a]:
            if d in used:
                continue
            trail: list[int] = []
            if propagate(a, d, trail) and search(i + 1):
                return True
            undo(trail, 0)
        return False

    if search(0):
        return tuple(amap[a] for a in g.arrows())
    return None


def oracle_find_isomorphism(
    g: FiniteGroupoid, h: FiniteGroupoid, max_arrows: int = DEFAULT_ISO_CAP
) -> GroupoidMorphism | None:
    """The exhaustive isomorphism search with one compose_table lookup per
    forced product and per step of an isotropy order. Returns a verified
    isomorphism or None.

    Groupoids of different sizes are rejected before the cap applies;
    raises SizeCapError above max_arrows, since the worst case is factorial.
    """
    if g.n_base != h.n_base or g.n_arrows != h.n_arrows:
        return None
    if g.n_arrows > max_arrows:
        raise SizeCapError(
            f"instance too large for isomorphism search "
            f"({g.n_arrows} arrows > cap {max_arrows})"
        )
    sig_g = [_oracle_base_signature(g, x) for x in g.base()]
    sig_h = [_oracle_base_signature(h, x) for x in h.base()]
    if sorted(sig_g) != sorted(sig_h):
        return None

    base_candidates = [
        [y for y in h.base() if sig_h[y] == sig_g[x]] for x in g.base()
    ]

    def base_search(x, taken, assignment):
        if x == g.n_base:
            yield tuple(assignment)
            return
        for y in base_candidates[x]:
            if y in taken:
                continue
            assignment.append(y)
            taken.add(y)
            yield from base_search(x + 1, taken, assignment)
            taken.discard(y)
            assignment.pop()

    for base_map in base_search(0, set(), []):
        cand = {}
        feasible = True
        for a in g.arrows():
            cs = [
                d
                for d in h.arrows_into(base_map[g.tgt[a]])
                if h.src[d] == base_map[g.src[a]]
                and _oracle_arrow_signature(h, d) == _oracle_arrow_signature(g, a)
            ]
            if not cs:
                feasible = False
                break
            cand[a] = cs
        if not feasible:
            continue
        order = sorted(g.arrows(), key=lambda a: len(cand[a]))
        amap = _oracle_extend_arrows(g, h, base_map, cand, order)
        if amap is not None:
            m = GroupoidMorphism(domain=g, codomain=h, arrow_map=amap, base_map=base_map)
            if oracle_verify_morphism(m, require_iso=True).ok:
                return m
    return None

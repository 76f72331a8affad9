"""The loop implementation of FiniteGroup's table checks, kept as the
oracle for its array checks: identity, inverses and associativity by
nested loops over the elements in order. Its errors are the reference,
the same message with the same first witness."""

from groupoidalg.errors import MalformedTableError


def oracle_check_group(name, elements, mul):
    """(identity, inverse) of a lawful table; MalformedTableError otherwise."""
    n = len(elements)
    if len(mul) != n or any(len(row) != n for row in mul):
        raise MalformedTableError(f"group {name}: mul table is not {n}x{n}")
    if any(v < 0 or v >= n for row in mul for v in row):
        raise MalformedTableError(f"group {name}: mul entry out of range")
    ident = None
    for e in range(n):
        if all(mul[e][a] == a and mul[a][e] == a for a in range(n)):
            ident = e
            break
    if ident is None:
        raise MalformedTableError(f"group {name}: no identity element")
    inv = [None] * n
    for a in range(n):
        for b in range(n):
            if mul[a][b] == ident and mul[b][a] == ident:
                inv[a] = b
                break
        if inv[a] is None:
            raise MalformedTableError(f"group {name}: element {elements[a]} has no inverse")
    for a in range(n):
        for b in range(n):
            ab = mul[a][b]
            for c in range(n):
                if mul[ab][c] != mul[a][mul[b][c]]:
                    raise MalformedTableError(
                        f"group {name}: not associative at "
                        f"({elements[a]},{elements[b]},{elements[c]})"
                    )
    return ident, tuple(inv)

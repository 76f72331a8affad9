"""The references for the builders' slot arrays: each product computed pair
by pair over the walk of the built groupoid's fiber index, as the builders
filled them before they wrote their slot rows in closed form. A builder's
slot array must equal its oracle's byte for byte, tail included."""

import numpy as np

from groupoidalg.groupoid import _PAIR_BLOCK, _walk


def oracle_slots(g, product):
    """g's slot array filled over the walk of its fiber index: product(a, b)
    gives the products of arrays of arrow ids, the tail holds -1."""
    t = g._tables
    prod = np.full(len(t.prod), -1, dtype=np.int32)
    for first, a, b in _walk(*t.into, t.src, _PAIR_BLOCK):
        prod[first:first + a.size] = product(a, b)
    return prod


def oracle_carrier_slots(sd):
    """(a0, a1)∘(b0, b1) = (a0∘α_{a1}(b0), a1∘b1), four compose/conj gathers
    on the parent's table per walk block, to the carrier id row(c1)·K +
    col(c0)."""
    ps, (P0, P1) = sd.parent._product_slots(), sd.pair_ids
    _, fiber, row, col = sd.layout
    K = fiber.shape[1]

    def product(i, j):
        a0, a1 = P0[i], P1[i]
        c0, c1 = ps.compose(a0, ps.conj(a1, P0[j])), ps.compose(a1, P1[j])
        return row[c1] * K + col[c0]

    return oracle_slots(sd, product)


def oracle_gauge_slots(gauge):
    """(y, g, x)∘(x, h, z) = (y, g·h, z), gathered on per-arrow tables."""
    G, n = gauge.bundle.group, gauge.n_base
    mul = np.array(G.mul, dtype=np.int32).reshape(-1)
    y, g, x = np.array(gauge.triples, dtype=np.int32).reshape(-1, 3).T
    k = G.order
    return oracle_slots(gauge, lambda a, b: (y[a] * k + mul[g[a] * k + g[b]]) * n + x[b])


def oracle_pair_slots(p):
    """(y, x)∘(x, z) = (y, z) on arrow ids y·n + x."""
    n = p.n_base
    return oracle_slots(p, lambda a, b: a - a % n + b % n)


def oracle_group_slots(p, G):
    """The group's own table, one base point."""
    mul = np.array(G.mul).reshape(G.order, G.order)
    return oracle_slots(p, lambda a, b: mul[a, b])

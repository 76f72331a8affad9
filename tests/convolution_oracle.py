"""The loop implementations of groupoid_convolve and twisted_convolve, kept
as the oracles for the library's array kernels: one dict lookup per
composable pair, and per term of each fiber product. The kernels sum the
same terms in the same order, so their outputs are equal to these bit for
bit."""

import numpy as np

from groupoidalg.algebra import BundleFunction, GroupoidFunction, beta, fiber_convolve


def oracle_groupoid_convolve(f1, f2, w):
    g = f1.groupoid
    out = np.zeros(g.n_arrows, dtype=complex)
    for gamma in g.arrows():
        acc = 0j
        for eta in g.arrows_into(g.tgt[gamma]):
            acc += w[eta] * f1.values[eta] * f2.values[g.compose_table[(g.inv[eta], gamma)]]
        out[gamma] = acc
    return GroupoidFunction(g, out)


def oracle_twisted_convolve(F1, F2, w):
    p = F1.parent
    into: dict[int, list[int]] = {}  # the g1 arrows by target, in frozenset order
    for b1 in F1.g1.arrows:
        into.setdefault(p.tgt[b1], []).append(b1)
    out = {}
    for a1 in F1.g1.arrows:
        x = p.tgt[a1]
        acc = np.zeros(p.n_arrows, dtype=complex)
        for b1 in into[x]:
            c1 = p.compose_table[(p.inv[b1], a1)]
            pulled = beta(p, p.inv[b1], F2.fibers[c1])
            acc += w[b1] * fiber_convolve(F1.fibers[b1], pulled, x, w).values
        out[a1] = GroupoidFunction(p, acc)
    return BundleFunction(p, F1.g1, out)

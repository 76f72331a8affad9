"""The loop implementations of groupoid_convolve and twisted_convolve, kept
as the oracles for the library's array kernels: one dict lookup per
composable pair, and per term of each fiber product. The kernels sum the
same terms in the same order, so their outputs are equal to these bit for
bit. Also the loop over the carrier's pairs that verify_theorem1's pair
identity check replaces."""

import numpy as np

from groupoidalg.algebra import BundleFunction, GroupoidFunction, beta, fiber_convolve
from groupoidalg.semidirect import alpha


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


def oracle_pair_identity(sd):
    """(pair_identity_ok, witness) of verify_theorem1: the first pair, i
    ascending, then j into tgt i, at which
    (b0,b1)⁻¹ ∘ (a0,a1) = (alpha_{b1⁻¹}(b0⁻¹ ∘ a0), b1⁻¹ ∘ a1) fails."""
    p = sd.parent
    for i, (a0, a1) in enumerate(sd.pair_of):
        for j in sd.arrows_into(sd.tgt[i]):
            b0, b1 = sd.pair_of[j]
            via_table = sd.compose_table[(sd.inv[j], i)]
            expected = (
                alpha(p, p.inv[b1], p.compose_table[(p.inv[b0], a0)]),
                p.compose_table[(p.inv[b1], a1)],
            )
            if sd.pair_of[via_table] != expected:
                where = f"({sd.arrow_label(j)})⁻¹∘({sd.arrow_label(i)})"
                return False, f"pair identity fails at {where}"
    return True, None

"""Independent oracles for the benchmark.

Nothing here calls the library's kernels or checks: every expected value is
computed from the (y, g, x) labels of the gauge groupoid and the group's
multiplication table with plain numpy. The convolution algebra of the gauge
groupoid X x G x X is the algebra of n x n matrices over the group algebra
C[G] (Renault's groupoid C*-algebra picture), so every convolution the
library computes can be checked as one matrix product.
"""

from __future__ import annotations

import numpy as np

TOL = 1e-9


def group_tables(G):
    """Multiplication table and inverses of a FiniteGroup as int arrays."""
    return np.array(G.mul, dtype=np.intp), np.array(G.inverse, dtype=np.intp)


def triple_index(gauge):
    """Arrays (y, g, x) of the gauge groupoid's arrows, in arrow order."""
    t = np.array(gauge.triples, dtype=np.intp)
    return t[:, 0], t[:, 1], t[:, 2]


def carrier_index(sd, gauge, G):
    """(y, g, x) of J(a0, a1) = a0 ∘ a1 for every carrier arrow (a0, a1),
    computed from the labels: (y, h, y) ∘ (y, k, x) = (y, h·k, x)."""
    mul, _ = group_tables(G)
    ty, tg, tx = triple_index(gauge)
    pairs = np.array(sd.pair_of, dtype=np.intp)
    a0, a1 = pairs[:, 0], pairs[:, 1]
    return ty[a0], mul[tg[a0], tg[a1]], tx[a1]


def cg_matrix_product(F1: np.ndarray, F2: np.ndarray, mul, inv) -> np.ndarray:
    """Product of two n x n matrices over C[G], each stored as an array
    F[y, g, x]: (F1 F2)[y, h, x] = sum over z, a of F1[y, a, z] F2[z, a⁻¹h, x]."""
    n, m, _ = F1.shape
    perm = mul[inv[:, None], np.arange(m)[None, :]]  # perm[a, h] = a⁻¹·h
    lhs = F1.transpose(0, 2, 1).reshape(n, n * m)  # [y, (z, a)]
    rhs = F2[:, perm, :].reshape(n * m, m * n)  # [(z, a), (h, x)] = F2[z, a⁻¹h, x]
    return (lhs @ rhs).reshape(n, m, n)


def convolve_on_labels(v1, v2, idx, n, G) -> np.ndarray:
    """Expected groupoid convolution (counting weights) of two functions given
    as value vectors on arrows whose (y, g, x) labels are idx."""
    mul, inv = group_tables(G)
    y, g, x = idx
    F1 = np.zeros((n, G.order, n), dtype=complex)
    F2 = np.zeros_like(F1)
    F1[y, g, x] = v1
    F2[y, g, x] = v2
    return cg_matrix_product(F1, F2, mul, inv)[y, g, x]


def deviation(got, want) -> float:
    """Max absolute deviation, relative to the size of the expected values."""
    want = np.asarray(want)
    scale = max(1.0, float(np.max(np.abs(want)))) if want.size else 1.0
    return float(np.max(np.abs(np.asarray(got) - want))) / scale


def regular_matrices(G) -> list[np.ndarray]:
    """Left regular representation: L(g) e_h = e_{g·h}."""
    m = G.order
    out = []
    for g in range(m):
        L = np.zeros((m, m), dtype=complex)
        L[list(G.mul[g]), np.arange(m)] = 1.0
        out.append(L)
    return out


def quantized_block(fiber_values: np.ndarray, G) -> np.ndarray:
    """sum over g of a(g) L(g), built entry by entry: M[g·h, h] = a(g)."""
    mul, _ = group_tables(G)
    m = G.order
    M = np.zeros((m, m), dtype=complex)
    np.add.at(M, (mul, np.broadcast_to(np.arange(m), (m, m))), fiber_values[:, None])
    return M


def true_norm(blocks) -> float:
    """Essential-sup norm with an exact spectral norm per block."""
    return max(float(np.linalg.norm(b, 2)) for b in blocks)


def gauge_counts(n: int, order: int) -> dict:
    """Computed work on the gauge groupoid (and any carrier isomorphic to it)."""
    return {
        "arrows": n * n * order,
        "pairs": n**3 * order**2,
        "triples": n**4 * order**3,
    }


def commutant_entries(k: int, levels: int) -> int:
    """Entries of the stacked commutator systems that commutant() solves with
    the regular representation on every fiber: k generators, each giving a
    k² x k² block, at each level (the level-1 basis again has k elements)."""
    return levels * k * k**2 * k**2

"""The scalar conjugation action (alpha), the fiber algebra's product
(fiber_convolve) and the dual action (beta) on full-length functions, and the loop implementations of groupoid_convolve,
twisted_convolve (over those two) and poincare_convolve, kept as the oracles
for the library's array kernels: one dict lookup per composable pair, and
per term of each fiber product. The kernels sum the same terms in the same
order, so their outputs are equal to these bit for bit. Also the iterated
pair-form sum, whose terms semidirect_convolve_pairform now sums with the
generic kernel in another order; the loop over the carrier's pairs that
verify_theorem1's pair identity check replaces; the loop of HaarWeights'
invariance check; the per-arrow draws of BundleFunction.random and the
per-pair loop of K_map; and the dicts that the crossed-product layout and
the gauge groupoid's id arithmetic replace."""

import numpy as np

from groupoidalg.algebra import BundleFunction, GroupoidFunction, HaarWeights
from groupoidalg.errors import PreconditionError


def alpha(parent, g1, g0):
    """Conjugation action: g1 ∘ g0 ∘ g1⁻¹, one pair of arrow ids at a time;
    the library's is _Slots.conj over arrays.

    g0 must be an isotropy arrow at the source of g1; the result is an
    isotropy arrow at the target of g1.
    """
    if parent.src[g0] != parent.tgt[g0]:
        raise PreconditionError(f"{parent.arrow_label(g0)} is not an isotropy arrow")
    if parent.src[g0] != parent.src[g1]:
        raise PreconditionError(
            f"{parent.arrow_label(g0)} does not sit at the source of {parent.arrow_label(g1)}"
        )
    return parent.compose(parent.compose(g1, g0), parent.inv[g1])


def _require_fiber_support(a, x):
    fiber = a.groupoid.isotropy_fiber(x)
    if not a.supported_on(fiber):
        raise PreconditionError(
            f"function is not supported on the isotropy fiber at "
            f"{a.groupoid.base_label(x)}"
        )
    return fiber


def fiber_convolve(a1, a2, x, w):
    """Convolution in the fiber algebra at x:
    (a1 • a2)(g0) = sum over g0' of w(g0') a1(g0') a2(g0'⁻¹ ∘ g0)."""
    g = a1.groupoid
    if a2.groupoid is not g:
        raise PreconditionError("operands live on different groupoids")
    fiber = _require_fiber_support(a1, x)
    _require_fiber_support(a2, x)
    out = np.zeros(g.n_arrows, dtype=complex)
    for g0 in fiber:
        acc = 0j
        for gp in fiber:
            acc += w[gp] * a1.values[gp] * a2.values[g.compose_table[(g.inv[gp], g0)]]
        out[g0] = acc
    return GroupoidFunction(g, out)


def beta(parent, g1, a):
    """Dual action: pull back a fiber function along the conjugation action.
    Maps functions on the fiber at r(g1) to functions on the fiber at d(g1)."""
    _require_fiber_support(a, parent.tgt[g1])
    out = np.zeros(parent.n_arrows, dtype=complex)
    for a0 in parent.isotropy_fiber(parent.src[g1]):
        out[a0] = a.values[alpha(parent, g1, a0)]
    return GroupoidFunction(parent, out)


def oracle_bundle_random(p, g1, rng):
    """The fibers BundleFunction.random draws: per arrow of sorted(g1.arrows),
    a real and an imaginary part per parent arrow, zero off the fiber."""
    fibers = {}
    for a1 in sorted(g1.arrows):
        v = rng.random(p.n_arrows) + 1j * rng.random(p.n_arrows)
        off = np.ones(p.n_arrows, dtype=bool)
        off[p.isotropy_fiber(p.tgt[a1])] = False
        v[off] = 0
        fibers[a1] = GroupoidFunction(p, v)
    return fibers


def oracle_K_map(F, sd):
    return GroupoidFunction(sd, np.array([F.fibers[a1].values[a0] for (a0, a1) in sd.pair_of]))


def oracle_pair_of(parent, g1):
    """The carrier's pairs (a0, a1): a1 in sorted order, a0 over the isotropy
    fiber at the target of a1."""
    return tuple(
        (a0, a1) for a1 in sorted(g1.arrows) for a0 in parent.isotropy_fiber(parent.tgt[a1])
    )


def oracle_triple_index(gauge):
    return {t: i for i, t in enumerate(gauge.triples)}


def oracle_translations(gauge, s):
    """(y, x) ↦ the id of the translation arrow (y, sigma(y)·sigma(x)⁻¹, x)."""
    G, index = gauge.bundle.group, oracle_triple_index(gauge)
    return {
        (y, x): index[(y, G.mul[s.sigma[y]][G.inverse[s.sigma[x]]], x)]
        for y in range(gauge.n_base)
        for x in range(gauge.n_base)
    }


def oracle_i_map(sd, rho, J):
    """The arrow map of the induced map from the quotient onto g1: the class
    of J(a0, a1) goes to the index of a1 in sorted(g1.arrows)."""
    g1_index = {a: k for k, a in enumerate(sorted(sd.g1.arrows))}
    arrow_map = [0] * (max(rho.arrow_map) + 1)
    for (_, a1), gamma in zip(sd.pair_of, J.arrow_map):
        arrow_map[rho.arrow_map[gamma]] = g1_index[a1]
    return tuple(arrow_map)


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


def oracle_semidirect_convolve_pairform(f1, f2, sd, w_parent):
    """The iterated double sum over the transitive selection and the isotropy
    fiber, under the product weights w(b0)·w(b1)."""
    p = sd.parent
    pair_index = {pair: i for i, pair in enumerate(sd.pair_of)}
    out = np.zeros(sd.n_arrows, dtype=complex)
    for i, (a0, a1) in enumerate(sd.pair_of):
        x = p.tgt[a1]
        acc = 0j
        for b1 in sd.g1.arrows:
            if p.tgt[b1] != x:
                continue
            for b0 in p.isotropy_fiber(x):
                j = pair_index[(b0, b1)]
                k = sd.compose_table[(sd.inv[j], i)]
                acc += w_parent[b0] * w_parent[b1] * f1.values[j] * f2.values[k]
        out[i] = acc
    return GroupoidFunction(sd, out)


def oracle_poincare_convolve(f1, f2, dec, w_parent=None):
    """The explicit formula through the section: an outer sum over base
    points z (translations), an inner one over group elements g'."""
    sd = dec.sd
    gauge, G, s = dec.gauge, dec.bundle.group, dec.section
    if w_parent is None:
        w_parent = HaarWeights.counting(gauge)

    def iso(x, h):
        return gauge.triple_index[(x, h, x)]

    def conj_by_sigma(x, g):
        return G.mul[G.mul[s.sigma[x]][g]][G.inverse[s.sigma[x]]]

    pair_index = {pair: i for i, pair in enumerate(sd.pair_of)}
    out = np.zeros(sd.n_arrows, dtype=complex)
    for i, (a0, a1) in enumerate(sd.pair_of):
        x = gauge.tgt[a1]
        y = gauge.src[a1]
        # a0 = (x, sigma(x)·g·sigma(x)⁻¹, x) for a unique g
        h = gauge.triples[a0][1]
        g = G.mul[G.mul[G.inverse[s.sigma[x]]][h]][s.sigma[x]]
        acc = 0j
        for z in range(gauge.n_base):
            t_xz = dec.translation[(x, z)]
            t_zy = dec.translation[(z, y)]
            mu = w_parent[t_xz]
            for gp in range(G.order):
                iso_x = iso(x, conj_by_sigma(x, gp))
                dg = w_parent[iso_x]
                j = pair_index[(iso_x, t_xz)]
                k = pair_index[
                    (iso(z, conj_by_sigma(z, G.mul[G.inverse[gp]][g])), t_zy)
                ]
                acc += dg * mu * f1.values[j] * f2.values[k]
        out[i] = acc
    return GroupoidFunction(sd, out)


def oracle_haar_check(g, values):
    """The error message HaarWeights(g, values) raises after its shape and
    positivity checks, or None: per isotropy fiber, exact constancy, then
    invariance under conjugation, arrow by arrow."""
    values = np.asarray(values, dtype=float)
    if (values == values[:1]).all():
        return None
    for x in g.base():
        fiber = g.isotropy_fiber(x)
        if fiber and (values[fiber] != values[fiber[0]]).any():
            return f"weights are not constant on the isotropy fiber at {g.base_label(x)}"
    for gamma in g.arrows():
        for a in g.isotropy_fiber(g.src[gamma]):
            if values[alpha(g, gamma, a)] != values[a]:
                return "weights are not invariant under the conjugation action"
    return None

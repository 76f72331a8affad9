"""groupoid_convolve, twisted_convolve and poincare_convolve against the
loop oracles in convolution_oracle.py: the outputs must be equal byte for
byte (tobytes), on the ladder and on random instances, weights and values.
Also the pair form against its loop, and HaarWeights' invariance check
against the loop it replaces."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import relabeled_group
from convolution_oracle import (
    oracle_groupoid_convolve,
    oracle_haar_check,
    oracle_pair_identity,
    oracle_poincare_convolve,
    oracle_semidirect_convolve_pairform,
    oracle_twisted_convolve,
)
from groupoidalg import (
    BundleFunction,
    FinitePrincipalBundle,
    GroupoidFunction,
    HaarWeights,
    Section,
    SubgroupoidSelection,
    builtin_group,
    carrier_weights,
    cyclic,
    group_groupoid,
    groupoid_convolve,
    pair_groupoid,
    poincare_convolve,
    poincare_decomposition,
    quotient_by_isotropy,
    selection_to_groupoid,
    semidirect_convolve_pairform,
    twisted_convolve,
    verify_theorem1,
)
from groupoidalg.errors import PreconditionError
from groupoidalg.groups import BUILTIN_GROUPS


def assert_same_convolution(f1, f2, w):
    got = groupoid_convolve(f1, f2, w)
    assert got.values.tobytes() == oracle_groupoid_convolve(f1, f2, w).values.tobytes()


def assert_same_twisted(F1, F2, w):
    got, want = twisted_convolve(F1, F2, w), oracle_twisted_convolve(F1, F2, w)
    assert list(got.fibers) == list(want.fibers)
    for a1, f in want.fibers.items():
        assert got.fibers[a1].values.tobytes() == f.values.tobytes()


def assert_same_poincare(f1, f2, dec, w):
    got = poincare_convolve(f1, f2, dec, w)
    assert got.values.tobytes() == oracle_poincare_convolve(f1, f2, dec, w).values.tobytes()


def random_values(rng, n, zeros=0.0):
    """Values in the complex unit square, scaled over many magnitudes, with
    a share of exact zeros of either sign."""
    v = (rng.random(n) - 0.5 + 1j * (rng.random(n) - 0.5)) * 10.0 ** rng.integers(-8, 9, n)
    hit = rng.random(n) < zeros
    v[hit] = np.where(rng.random(hit.sum()) < 0.5, 0.0, complex(-0.0, -0.0))
    return v


def random_weights(g, rng):
    """A Haar system on a transitive groupoid other than counting measure:
    one constant on the isotropy arrows, any positive value elsewhere."""
    iso = np.array([g.src[a] == g.tgt[a] for a in g.arrows()])
    return HaarWeights(g, np.where(iso, rng.uniform(0.1, 3.0), rng.uniform(0.1, 3.0, g.n_arrows)))


def random_bundle_function(p, g1, rng, zeros=0.0):
    fibers = {}
    for a1 in sorted(g1.arrows):
        v = np.zeros(p.n_arrows, dtype=complex)
        fiber = p.isotropy_fiber(p.tgt[a1])
        v[fiber] = random_values(rng, len(fiber), zeros)
        fibers[a1] = GroupoidFunction(p, v)
    return BundleFunction(p, g1, fibers)


@pytest.mark.parametrize("n,name", [(2, "Z2"), (3, "S3"), (4, "D4"), (8, "Z4"), (12, "S3")])
def test_ladder(n, name):
    rng = np.random.default_rng(n)
    bundle = FinitePrincipalBundle(n, builtin_group(name))
    dec = poincare_decomposition(bundle, Section.random(bundle, rng))
    quotient, _ = quotient_by_isotropy(dec.gauge, dec.g0)
    w = HaarWeights.counting(dec.gauge)
    scaled = HaarWeights(dec.gauge, 0.5 * np.ones(dec.gauge.n_arrows))
    for g, wg in (
        (dec.gauge, w),
        (dec.sd, carrier_weights(dec.sd, w)),
        (dec.sd, carrier_weights(dec.sd, scaled)),
        (quotient, HaarWeights.counting(quotient)),
    ):
        f1, f2 = GroupoidFunction.random(g, rng), GroupoidFunction.random(g, rng)
        assert_same_convolution(f1, f2, wg)
    for wp in (w, scaled):
        assert_same_twisted(
            BundleFunction.random(dec.gauge, dec.g1, rng),
            BundleFunction.random(dec.gauge, dec.g1, rng),
            wp,
        )
    for wp in (w, random_weights(dec.gauge, rng)):
        f1, f2 = GroupoidFunction.random(dec.sd, rng), GroupoidFunction.random(dec.sd, rng)
        assert_same_poincare(f1, f2, dec, wp)
        # the pair form is the generic kernel, which sums its loop's terms
        # in another order
        got = semidirect_convolve_pairform(f1, f2, dec.sd, wp).values
        want = oracle_semidirect_convolve_pairform(f1, f2, dec.sd, wp).values
        assert np.max(np.abs(got - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))
    assert_same_poincare(f1, f2, dec, None)


class TestRandomInstances:
    @settings(max_examples=40, deadline=None)
    @given(
        name=st.sampled_from(sorted(BUILTIN_GROUPS)),
        n=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=10_000),
        zeros=st.sampled_from([0.0, 0.3]),
    )
    def test_gauge_carrier_and_twisted(self, name, n, seed, zeros):
        """Gauge groupoids over relabeled group tables with a random section,
        random Haar weights and carriers under the product weights; and
        poincare_convolve there, under counting and the random weights."""
        rng = np.random.default_rng(seed)
        bundle = FinitePrincipalBundle(n, relabeled_group(builtin_group(name), rng))
        dec = poincare_decomposition(bundle, Section.random(bundle, rng))
        w = random_weights(dec.gauge, rng)
        for g, wg in ((dec.gauge, w), (dec.sd, carrier_weights(dec.sd, w))):
            f1, f2 = (GroupoidFunction(g, random_values(rng, g.n_arrows, zeros)) for _ in "12")
            assert_same_convolution(f1, f2, wg)
        F1, F2 = (random_bundle_function(dec.gauge, dec.g1, rng, zeros) for _ in "12")
        assert_same_twisted(F1, F2, w)
        for wp in (HaarWeights.counting(dec.gauge), w):
            f1, f2 = (
                GroupoidFunction(dec.sd, random_values(rng, dec.sd.n_arrows, zeros)) for _ in "12"
            )
            assert_same_poincare(f1, f2, dec, wp)

    @settings(max_examples=40, deadline=None)
    @given(
        family=st.sampled_from(["pair", "group", "quotient", "isotropy", "translation"]),
        name=st.sampled_from(sorted(BUILTIN_GROUPS)),
        n=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_other_groupoids(self, family, name, n, seed):
        """Pair and group groupoids, and the groupoids that quotient_by_isotropy
        and selection_to_groupoid build from a gauge decomposition."""
        rng = np.random.default_rng(seed)
        if family == "pair":
            g = pair_groupoid(n)
        elif family == "group":
            g = group_groupoid(relabeled_group(builtin_group(name), rng))
        else:
            bundle = FinitePrincipalBundle(n, builtin_group(name))
            dec = poincare_decomposition(bundle, Section.random(bundle, rng))
            if family == "quotient":
                g = quotient_by_isotropy(dec.gauge, dec.g0)[0]
            else:
                g = selection_to_groupoid(dec.g0 if family == "isotropy" else dec.g1)[0]
        w = random_weights(g, rng)
        f1, f2 = (GroupoidFunction(g, random_values(rng, g.n_arrows, 0.2)) for _ in "12")
        assert_same_convolution(f1, f2, w)


def test_empty_selection(fix_gauge_2_z2):
    empty = BundleFunction(fix_gauge_2_z2, SubgroupoidSelection(fix_gauge_2_z2, frozenset()), {})
    assert twisted_convolve(empty, empty, HaarWeights.counting(fix_gauge_2_z2)).fibers == {}


def test_missing_composable_pair():
    """A compose table without a composable pair fails with a
    PreconditionError naming the pair, not with a KeyError."""
    g = pair_groupoid(2)
    comp = dict(g.compose_table)
    del comp[(1, 2)]
    g = dataclasses.replace(g, compose_table=comp)
    f = GroupoidFunction.random(g, np.random.default_rng(0))
    with pytest.raises(PreconditionError, match=r"missing composable pair \(\(0,1\), \(1,0\)\)"):
        groupoid_convolve(f, f, HaarWeights.counting(g))


def test_slot_table_is_built_once(fix_gauge_2_z2):
    g = dataclasses.replace(fix_gauge_2_z2)
    assert g._slots is None
    f = GroupoidFunction.random(g, np.random.default_rng(0))
    groupoid_convolve(f, f, HaarWeights.counting(g))
    slots = g._slots
    assert slots.prod.dtype == np.int32
    groupoid_convolve(f, f, HaarWeights.counting(g))
    assert g._slots is slots


def test_endpoint_out_of_range():
    """An endpoint beyond the base fails the slot build with the structure
    check's message, in both kernels and in the invariance check of
    non-constant Haar weights (which took them silently before it used the
    slot table)."""
    g = dataclasses.replace(pair_groupoid(2), tgt=(0, 0, 5, 1))
    w = HaarWeights.counting(g)
    f = GroupoidFunction.random(g, np.random.default_rng(0))
    with pytest.raises(PreconditionError, match=r"^arrow 2: src/tgt out of range$"):
        groupoid_convolve(f, f, w)
    g1 = SubgroupoidSelection(g, frozenset({0}))
    F = BundleFunction(g, g1, {0: GroupoidFunction.delta(g, 0)})
    with pytest.raises(PreconditionError, match=r"^arrow 2: src/tgt out of range$"):
        twisted_convolve(F, F, w)
    with pytest.raises(PreconditionError, match=r"^arrow 2: src/tgt out of range$"):
        HaarWeights(g, [1.0, 2.0, 1.0, 1.0])


def ladder_carrier(n, name):
    bundle = FinitePrincipalBundle(n, builtin_group(name))
    return poincare_decomposition(bundle, Section.random(bundle, np.random.default_rng(n))).sd


def pair_identity(sd):
    rep = verify_theorem1(sd, trials=0)
    return rep.pair_identity_ok, rep.witness


# (12,S3) has 62,208 pairs (i, j), so the kernel walks them in several blocks
@pytest.mark.parametrize("n,name", [(2, "Z2"), (3, "S3"), (4, "D4"), (8, "Z4"), (12, "S3")])
def test_pair_identity(n, name):
    """verify_theorem1's pair identity against the loop it replaces, on the
    carrier and on copies with compose entries pointing at the wrong arrow
    (one entry, then several, where the witness is the loop's first), or
    with an inverse swapped for another arrow with the same endpoints."""
    sd = ladder_carrier(n, name)
    assert pair_identity(sd) == oracle_pair_identity(sd) == (True, None)
    rng = np.random.default_rng(n)
    keys = list(sd.compose_table)
    bad = []
    for count in (1, 1, 1, 4):
        comp = dict(sd.compose_table)
        for k in rng.choice(len(keys), count, replace=False):
            comp[keys[k]] = (comp[keys[k]] + int(rng.integers(1, sd.n_arrows))) % sd.n_arrows
        bad.append(dataclasses.replace(sd, compose_table=comp))
    for a in rng.choice(sd.n_arrows, 2, replace=False).tolist():
        inv = list(sd.inv)
        ends = (sd.src[inv[a]], sd.tgt[inv[a]])
        inv[a] = next(c for c in sd.arrows() if (sd.src[c], sd.tgt[c]) == ends and c != inv[a])
        bad.append(dataclasses.replace(sd, inv=tuple(inv)))
    for g in bad:
        want = oracle_pair_identity(g)
        assert not want[0]
        assert pair_identity(g) == want


def haar_message(g, values):
    try:
        HaarWeights(g, values)
    except PreconditionError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("family", ["gauge", "carrier", "quotient", "pair", "S3", "Z4"])
def test_haar_check(family):
    """HaarWeights' checks against their loop: the same accept or reject,
    and the same message, on valid weights and on copies with one arrow or
    one whole isotropy fiber scaled, by a factor allclose lets through or by
    one it does not. Constancy is exact, so a scaled isotropy arrow fails it
    and only a scaled fiber reaches the invariance check; over one base
    point, constancy implies invariance."""
    rng = np.random.default_rng(7)
    bundle = FinitePrincipalBundle(3, builtin_group("S3"))
    dec = poincare_decomposition(bundle, Section.random(bundle, rng))
    g = {
        "gauge": dec.gauge,
        "carrier": dec.sd,
        "quotient": quotient_by_isotropy(dec.gauge, dec.g0)[0],
        "pair": pair_groupoid(3),
        "S3": group_groupoid(relabeled_group(builtin_group("S3"), rng)),
        "Z4": group_groupoid(relabeled_group(builtin_group("Z4"), rng)),
    }[family]
    if family == "carrier":
        valid = carrier_weights(dec.sd, random_weights(dec.gauge, rng)).values
    else:
        valid = random_weights(g, rng).values
    messages = {haar_message(g, valid)}
    assert messages == {oracle_haar_check(g, valid)} == {None}
    arrows = [[a] for a in rng.choice(g.n_arrows, min(g.n_arrows, 12), replace=False).tolist()]
    for scaled in arrows + [g.isotropy_fiber(x) for x in g.base()]:
        for factor in (1 + 1e-12, 2.0):
            v = valid.copy()
            v[scaled] *= factor
            want = oracle_haar_check(g, v)
            assert haar_message(g, v) == want
            messages.add(want)
    if family not in ("pair", "quotient"):  # their isotropy fibers are single arrows
        assert any(m and m.startswith("weights are not constant") for m in messages)
    if g.n_base > 1:
        assert "weights are not invariant under the conjugation action" in messages


def test_haar_constancy_is_exact():
    """A weight 1e-5 off on an isotropy fiber whose conjugation action is
    trivial was let through by a check up to allclose."""
    message = r"^weights are not constant on the isotropy fiber at \*$"
    with pytest.raises(PreconditionError, match=message):
        HaarWeights(group_groupoid(cyclic(4)), [1.0, 1.000009, 1.0, 1.0])

"""groupoid_convolve, twisted_convolve and poincare_convolve against the
loop oracles in convolution_oracle.py, on the ladder and on random
instances, weights and values. twisted_convolve and poincare_convolve must
equal their loops byte for byte (tobytes). groupoid_convolve, a block
product per orbit, must too where its order of the terms is the loop's
(the gauge groupoids of the builtin groups), and lie within 1e-12 of the
loop elsewhere. Also its plan on groupoids with orbits of several shapes
and on tables that are not a groupoid's, the pair form against its loop,
and HaarWeights' invariance check against the loop it replaces.
BundleFunction.random against the draw loop, row by row with the
generator's state after, on both sides of _SKIP and on generators that
draw whole rows. The plans of twisted_convolve and poincare_convolve:
built once per parent and g1 arrows, or per decomposition, freed with
what they were built from, and none kept by a selection that fails."""

import dataclasses
import gc
import json
import re
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import LOOP, Z5, pair_times, relabeled_group
from convolution_oracle import (
    alpha,
    oracle_bundle_draws,
    oracle_bundle_random,
    oracle_groupoid_convolve,
    oracle_haar_check,
    oracle_i_map,
    oracle_K_map,
    oracle_pair_identity,
    oracle_pair_of,
    oracle_poincare_convolve,
    oracle_semidirect_convolve_pairform,
    oracle_translations,
    oracle_triple_index,
    oracle_twisted_convolve,
)
from groupoidalg import (
    BundleFunction,
    FiniteGroupoid,
    FinitePrincipalBundle,
    GroupoidFunction,
    HaarWeights,
    K_inverse,
    K_map,
    Section,
    SubgroupoidSelection,
    builtin_group,
    carrier_weights,
    cyclic,
    gauge_groupoid,
    group_groupoid,
    groupoid_convolve,
    J_map,
    pair_groupoid,
    poincare_convolve,
    poincare_decomposition,
    quotient_by_isotropy,
    selection_to_groupoid,
    semidirect_convolve_pairform,
    translation_subgroupoid,
    twisted_convolve,
    validate_groupoid,
    verify_theorem1,
)
from groupoidalg import algebra, gauge, groupoid, semidirect
from groupoidalg import io as gio
from groupoidalg.errors import PreconditionError
from groupoidalg.groupoid import check_structure
from groupoidalg.groups import BUILTIN_GROUPS, group_from_table, group_to_table, symmetric
from groupoidalg.semidirect import prop1_on_carrier
from star_oracle import NO_STAR, assert_same_plan, oracle_star_coordinates

LADDER = [(2, "Z2"), (3, "S3"), (4, "D4"), (8, "Z4"), (12, "S3"), (16, "D4")]


def assert_same_convolution(f1, f2, w):
    got = groupoid_convolve(f1, f2, w)
    assert got.values.tobytes() == oracle_groupoid_convolve(f1, f2, w).values.tobytes()


def assert_close_convolution(f1, f2, w):
    """Within 1e-12 of the loop, relative to its largest value: the block
    product sums each value's terms in its order (h, z), not in the loop's
    order of the arrows."""
    got = groupoid_convolve(f1, f2, w).values
    want = oracle_groupoid_convolve(f1, f2, w).values
    assert np.max(np.abs(got - want), initial=0) <= 1e-12 * np.max(np.abs(want), initial=0)


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
    for g, wg, same in (
        (dec.gauge, w, assert_same_convolution),
        (dec.sd, carrier_weights(dec.sd, w), assert_close_convolution),
        (dec.sd, carrier_weights(dec.sd, scaled), assert_close_convolution),
        (quotient, HaarWeights.counting(quotient), assert_close_convolution),
    ):
        f1, f2 = GroupoidFunction.random(g, rng), GroupoidFunction.random(g, rng)
        same(f1, f2, wg)
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
        poincare_convolve there, under counting and the random weights.
        A relabeled table moves the identity off index 0, so the star
        coordinates of the gauge groupoid are not in arrow order either."""
        rng = np.random.default_rng(seed)
        bundle = FinitePrincipalBundle(n, relabeled_group(builtin_group(name), rng))
        dec = poincare_decomposition(bundle, Section.random(bundle, rng))
        w = random_weights(dec.gauge, rng)
        for g, wg in ((dec.gauge, w), (dec.sd, carrier_weights(dec.sd, w))):
            f1, f2 = (GroupoidFunction(g, random_values(rng, g.n_arrows, zeros)) for _ in "12")
            assert_close_convolution(f1, f2, wg)
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
        assert_close_convolution(f1, f2, w)


def disjoint_union(parts, rng=None):
    """The disjoint union of groupoids, its base points and arrows
    shuffled by rng, if given, so that the orbits interleave in id order."""
    n_base, n_arrows = sum(p.n_base for p in parts), sum(p.n_arrows for p in parts)
    order = np.arange if rng is None else rng.permutation
    base, arrow = order(n_base).tolist(), order(n_arrows).tolist()
    src, tgt, inv, ident, comp = [0] * n_arrows, [0] * n_arrows, [0] * n_arrows, [0] * n_base, {}
    b0 = a0 = 0
    for p in parts:
        for a in p.arrows():
            src[arrow[a0 + a]], tgt[arrow[a0 + a]] = base[b0 + p.src[a]], base[b0 + p.tgt[a]]
            inv[arrow[a0 + a]] = arrow[a0 + p.inv[a]]
        for x in p.base():
            ident[base[b0 + x]] = arrow[a0 + p.identity[x]]
        comp.update({(arrow[a0 + a], arrow[a0 + b]): arrow[a0 + c]
                     for (a, b), c in p.compose_table.items()})
        b0, a0 = b0 + p.n_base, a0 + p.n_arrows
    return FiniteGroupoid(n_base, tuple(src), tuple(tgt), comp, tuple(inv), tuple(ident))


def redirected(g, pairs):
    """A copy of g with the product of each pair (a, b) moved to another
    arrow with the same endpoints: the structure stays valid, and
    associativity fails."""
    comp = dict(g.compose_table)
    for a, b in pairs:
        c = comp[(a, b)]
        comp[(a, b)] = next(d for d in g.arrows()
                            if d != c and (g.src[d], g.tgt[d]) == (g.src[c], g.tgt[c]))
    bad = dataclasses.replace(g, compose_table=comp)
    assert check_structure(bad).ok and not validate_groupoid(bad).ok
    return bad


def right_quotients(mul):
    """The mutant of groupoid._left_quotients: k·h⁻¹ in place of h⁻¹k."""
    return np.argsort(mul, axis=1).transpose(0, 2, 1)


class TestBlockPlan:
    def test_orbits_of_different_shapes(self):
        """Seven orbits in five shapes, interleaved: a carrier, a gauge
        groupoid, two relabeled groups, two pair groupoids and a point
        with the trivial group. Orbits of one shape share a block."""
        rng = np.random.default_rng(11)
        parts = [ladder_carrier(2, "Z2"), gauge_groupoid(FinitePrincipalBundle(3, symmetric(3)))]
        parts += [group_groupoid(relabeled_group(symmetric(3), rng)) for _ in "12"]
        parts += [pair_groupoid(3), pair_groupoid(3), pair_groupoid(1)]
        g = disjoint_union(parts, rng)
        assert validate_groupoid(g).ok
        for w in (HaarWeights.counting(g), random_weights(g, rng)):
            f1, f2 = (GroupoidFunction(g, random_values(rng, g.n_arrows, 0.2)) for _ in "12")
            assert_close_convolution(f1, f2, w)
        shapes = sorted(by.shape for _, by, _, _ in assert_same_plan(g).shapes)
        assert shapes == [(1, 1, 1), (1, 4, 4), (1, 18, 18), (2, 3, 3), (2, 6, 6)]

    @pytest.mark.parametrize("n,name", LADDER)
    def test_plan_equals_the_oracle_on_the_ladder(self, n, name):
        """The gathered grid equals the reference's scatter, byte for byte,
        on the gauge groupoid and the carrier of each rung."""
        dec = ladder_decomposition(n, name)
        for g in (dec.gauge, dec.sd):
            assert assert_same_plan(g) is not None

    def test_plan_equals_the_oracle_off_the_ladder(self):
        """Pair groupoids on 1 to 4 points, the group groupoid of every
        builtin group, as given and relabeled with the identity off index
        0 (so σ_r ≠ e at the root), gauge groupoids over relabeled groups,
        and disjoint unions of them, shuffled and not."""
        rng = np.random.default_rng(12)
        groups = [builtin_group(name) for name in sorted(BUILTIN_GROUPS)]
        relabeled = [relabeled_group(G, rng) for G in groups if G.order > 1]
        parts = [pair_groupoid(n) for n in range(1, 5)]
        parts += [group_groupoid(G) for G in groups + relabeled]
        parts += [gauge_groupoid(FinitePrincipalBundle(3, G)) for G in relabeled[:3]]
        for g in parts + [disjoint_union(parts, rng), disjoint_union(parts[::3])]:
            assert assert_same_plan(g) is not None
        for G in relabeled:
            g = group_groupoid(G)
            assert g._tables.plan(g.arrow_label).star[0] != g.identity[0]

    def test_group_read_from_a_table_file(self, tmp_path):
        """S3 and D4 through group_to_table, a JSON file and
        group_from_table, as given and relabeled: the group groupoid and a
        gauge groupoid over it."""
        rng = np.random.default_rng(4)
        for G in (symmetric(3), builtin_group("D4")):
            for H in (G, relabeled_group(G, rng)):
                gio.dump_json(group_to_table(H), tmp_path / "g.json")
                read = group_from_table(gio.load_json(tmp_path / "g.json"))
                for g in (group_groupoid(read), gauge_groupoid(FinitePrincipalBundle(3, read))):
                    w = random_weights(g, rng)
                    f1, f2 = (GroupoidFunction(g, random_values(rng, g.n_arrows)) for _ in "12")
                    assert_close_convolution(f1, f2, w)

    def test_right_quotients_mutant_fails_on_s3(self, monkeypatch):
        """With k·h⁻¹ in place of h⁻¹k the plan sums the wrong pairs on a
        non-abelian group, and its own check finds that; on Z4 the two are
        one table."""
        monkeypatch.setattr(groupoid, "_left_quotients", right_quotients)
        rng = np.random.default_rng(3)
        abelian = gauge_groupoid(FinitePrincipalBundle(3, builtin_group("Z4")))
        f = GroupoidFunction.random(abelian, rng)
        assert_same_convolution(f, f, HaarWeights.counting(abelian))
        for g in (group_groupoid(symmetric(3)),
                  gauge_groupoid(FinitePrincipalBundle(3, symmetric(3))),
                  ladder_carrier(3, "S3")):
            f = GroupoidFunction.random(g, rng)
            with pytest.raises(PreconditionError, match="not the arrow its star coordinates give"):
                groupoid_convolve(f, f, HaarWeights.counting(g))

    def test_non_associative_table_raises_with_its_pair(self):
        """Redirected products off the star arrows and the root's group:
        the coordinates stand, and the error names the pair of the lowest
        slot (a first, then b). The scatter-add summed whatever the table
        held."""
        gauge = gauge_groupoid(FinitePrincipalBundle(3, symmetric(3)))
        c = gauge._product_slots().plan(gauge.arrow_label)
        used = set(c.star.tolist()) | set(gauge.isotropy_fiber(0))
        pairs = [(a, b) for a in range(gauge.n_arrows - 1, 0, -1) if a not in used
                 for b in gauge.arrows_into(gauge.src[a])][::40][:3]
        bad = redirected(gauge, pairs)
        a, b = min(pairs, key=lambda p: (p[0], gauge.arrows_into(gauge.src[p[0]]).index(p[1])))
        f = GroupoidFunction.random(bad, np.random.default_rng(0))
        message = (f"the compose table is not a groupoid's: {bad.arrow_label(a)}∘"
                   f"{bad.arrow_label(b)} is not the arrow its star coordinates give")
        with pytest.raises(PreconditionError, match=f"^{re.escape(message)}$"):
            groupoid_convolve(f, f, HaarWeights.counting(bad))
        group = group_groupoid(symmetric(3))
        bad = redirected(group, [(3, 4)])
        with pytest.raises(PreconditionError, match="not the arrow its star coordinates give"):
            groupoid_convolve(*(GroupoidFunction.delta(bad, 1),) * 2, HaarWeights.counting(bad))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_loop_isotropy_raises(self, n):
        """The pair groupoid times the order-5 loop: every product is where
        the star coordinates put it, so the slot pass holds, but the
        isotropy is no group, and the plan raises naming it."""
        g = pair_times(n, LOOP)
        f = GroupoidFunction.random(g, np.random.default_rng(0))
        with pytest.raises(PreconditionError, match="^the compose table is not a groupoid's: "
                           "group of the isotropy at base point 0: not associative at "):
            groupoid_convolve(f, f, HaarWeights.counting(g))
        assert g._tables._plans == {}

    @pytest.mark.parametrize("loop_first", [False, True])
    def test_one_loop_orbit_raises(self, loop_first):
        """Two orbits of one shape (2, 5), the pair groupoid times Z5 and
        times the loop: two isotropy tables to check in one block, and the
        error names the loop's root."""
        parts = [pair_times(2, Z5), pair_times(2, LOOP)]
        g = disjoint_union(parts[::-1] if loop_first else parts)
        f = GroupoidFunction.random(g, np.random.default_rng(0))
        root = 0 if loop_first else 2
        with pytest.raises(PreconditionError, match=f"group of the isotropy at base point {root}:"):
            groupoid_convolve(f, f, HaarWeights.counting(g))

    def test_no_coordinates_raises(self):
        """The (2,Z2) gauge groupoid with k∘σ_1⁻¹, k the first arrow of
        G_0, redirected to an arrow into 1: no σ_y composes with it, so the
        grid has no coordinates, and no plan is kept."""
        gauge = gauge_groupoid(FinitePrincipalBundle(2, builtin_group("Z2")))
        _, star, _ = oracle_star_coordinates(gauge._product_slots())
        k, back = gauge.isotropy_fiber(0)[0], gauge.inv[star[1]]
        assert gauge.tgt[gauge.compose(k, back)] == 0
        comp = {**gauge.compose_table, (k, back): gauge.arrows_into(1)[0]}
        g = dataclasses.replace(gauge, compose_table=comp)
        assert oracle_star_coordinates(g._product_slots()) is None
        f = GroupoidFunction.random(g, np.random.default_rng(0))
        with pytest.raises(PreconditionError, match=f"^{re.escape(NO_STAR)}$"):
            groupoid_convolve(f, f, HaarWeights.counting(g))
        assert g._tables._plans == {}
        assert_same_plan(g)

    @pytest.mark.parametrize("kind", ["swapped", "wrong inverse", "collapsed"])
    def test_no_coordinates_on_small_tables(self, kind):
        """Tables the grid gathers without a -1 but that have no star
        coordinates: the pair groupoid on 3 points with σ_1∘t_2 and σ_2∘t_1
        swapped (every arrow in the grid once, two with wrong endpoints);
        the pair groupoid on 2 points, (0,1) the last arrow, with σ_1⁻¹
        given as (1,1), so that k∘σ_1⁻¹ does not compose, where the index
        -1 of the failed product is that last arrow; a category with
        G_0 = Z2, one arrow each way between 0 and 1 and G_1 trivial,
        whose grid covers its 5 arrows with 8 entries."""
        if kind == "swapped":
            g = pair_groupoid(3)
            comp = {**g.compose_table, (3, 2): 7, (6, 1): 5}
        elif kind == "wrong inverse":  # arrows (0,0), (1,1), (1,0), (0,1)
            g = FiniteGroupoid(2, (0, 1, 0, 1), (0, 1, 1, 0), {}, (0, 1, 1, 2), (0, 1))
            ends = [(0, 0), (1, 1), (1, 0), (0, 1)]
            comp = {(a, b): ends.index((ends[a][0], ends[b][1]))
                    for a in range(4) for b in range(4) if ends[a][1] == ends[b][0]}
        else:  # e, g at 0; b: 0 → 1; c: 1 → 0; e1 at 1
            g = FiniteGroupoid(2, (0, 0, 0, 1, 1), (0, 0, 1, 0, 1), {}, (0, 1, 3, 2, 4), (0, 4))
            comp = {(0, 0): 0, (0, 1): 1, (0, 3): 3, (1, 0): 1, (1, 1): 0, (1, 3): 3,
                    (2, 0): 2, (2, 1): 2, (2, 3): 4, (3, 2): 0, (3, 4): 3, (4, 2): 2, (4, 4): 4}
        g = dataclasses.replace(g, compose_table=comp)
        assert check_structure(g).ok and oracle_star_coordinates(g._product_slots()) is None
        assert assert_same_plan(g) is None
        f = GroupoidFunction.random(g, np.random.default_rng(0))
        with pytest.raises(PreconditionError, match=f"^{re.escape(NO_STAR)}$"):
            groupoid_convolve(f, f, HaarWeights.counting(g))

    def test_empty_groupoid(self):
        g = FiniteGroupoid(0, (), (), {}, (), ())
        out = groupoid_convolve(GroupoidFunction.zero(g), GroupoidFunction.zero(g),
                                HaarWeights.counting(g))
        assert out.values.shape == (0,)

    def test_plan_built_once_and_freed_with_its_groupoid(self, monkeypatch):
        calls, real = [], groupoid._block_plan
        monkeypatch.setattr(groupoid, "_block_plan",
                            lambda s, label: calls.append(1) or real(s, label))
        g = ladder_carrier(3, "S3")
        f, w = GroupoidFunction.random(g, np.random.default_rng(0)), HaarWeights.counting(g)
        first = groupoid_convolve(f, f, w)
        assert groupoid_convolve(f, f, w).values.tobytes() == first.values.tobytes()
        assert calls == [1]
        ref = weakref.ref(g._tables.plan(g.arrow_label).shapes[0][1])
        del g, f, w, first
        gc.collect()
        assert ref() is None


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
    assert g._tables.prod is None
    f = GroupoidFunction.random(g, np.random.default_rng(0))
    groupoid_convolve(f, f, HaarWeights.counting(g))
    prod = g._tables.prod
    assert prod.dtype == np.int32
    groupoid_convolve(f, f, HaarWeights.counting(g))
    assert g._tables.prod is prod


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


def ladder_decomposition(n, name):
    bundle = FinitePrincipalBundle(n, builtin_group(name))
    return poincare_decomposition(bundle, Section.random(bundle, np.random.default_rng(n)))


def ladder_carrier(n, name):
    return ladder_decomposition(n, name).sd


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


@pytest.mark.parametrize("n,name", LADDER)
def test_bundle_random_equals_draw_loop(n, name):
    """BundleFunction.random draws the stream of one GroupoidFunction.random
    per g1 arrow: the same fiber values bit for bit, and the same state of
    the generator after."""
    dec = ladder_decomposition(n, name)
    got_rng, want_rng = np.random.default_rng(n), np.random.default_rng(n)
    for _ in range(2):
        got = BundleFunction.random(dec.gauge, dec.g1, got_rng)
        want = oracle_bundle_random(dec.gauge, dec.g1, want_rng)
        assert got.values.tobytes() == BundleFunction(dec.gauge, dec.g1, want).values.tobytes()
        for a1, f in want.items():
            assert got.fibers[a1].values.tobytes() == f.values.tobytes()
    assert got_rng.random() == want_rng.random()


def gauge_and_g1(n, name):
    """The gauge groupoid and the g1 of a random section, without the rest
    of the decomposition."""
    bundle = FinitePrincipalBundle(n, builtin_group(name))
    gauge = gauge_groupoid(bundle)
    return gauge, translation_subgroupoid(gauge, Section.random(bundle, np.random.default_rng(n)))


def assert_random_equals_draws(p, g1, rng, want_rng, monkeypatch):
    """BundleFunction.random against oracle_bundle_draws, row by row, and
    the generators' states after; returns the widths of the rows drawn."""
    widths, real = [], np.take_along_axis
    monkeypatch.setattr(np, "take_along_axis",
                        lambda d, *a, **k: widths.append(d.shape[-1]) or real(d, *a, **k))
    got = BundleFunction.random(p, g1, rng)
    monkeypatch.setattr(np, "take_along_axis", real)
    _, fiber, row, _ = got._layout
    for a1, v in oracle_bundle_draws(p, g1, want_rng):
        assert got.values[row[a1]].tobytes() == v[fiber[row[a1]]].tobytes()
    assert json.dumps(rng.bit_generator.state, default=np.ndarray.tolist) == json.dumps(
        want_rng.bit_generator.state, default=np.ndarray.tolist)
    return set(widths)


@pytest.mark.parametrize("make", [np.random.default_rng, lambda seed: np.random.Generator(
    np.random.MT19937(seed))], ids=["PCG64", "MT19937"])
def test_bundle_random_skips_only_on_pcg64(make, monkeypatch):
    """At (32,D4) each row of a PCG64 draw skips 8,192 − 225 doubles of
    each part: the window of the fiber (x·K + g)·n + x is drawn, the rest
    is skipped by advance, with the bytes and the state of the whole draw.
    An MT19937 draws whole rows and gives the same bytes too."""
    p, g1 = gauge_and_g1(32, "D4")
    widths = assert_random_equals_draws(p, g1, make(7), make(7), monkeypatch)
    assert widths == ({(8 - 1) * 32 + 1} if make is np.random.default_rng else {p.n_arrows})


@pytest.mark.parametrize("n,name,skip", [(8, "Z4", 0), (12, "S3", 1 << 30), (16, "D4", 1 << 30)])
def test_bundle_random_on_the_other_side_of_the_crossover(n, name, skip, monkeypatch):
    """Below _SKIP a row draws whole; with the constant moved, (8,Z4)
    takes the skip path and (12,S3) and (16,D4) the whole rows, with the
    same bytes and state."""
    p, g1 = gauge_and_g1(n, name)
    monkeypatch.setattr(algebra, "_SKIP", skip)
    widths = assert_random_equals_draws(
        p, g1, np.random.default_rng(n), np.random.default_rng(n), monkeypatch)
    assert (max(widths) < p.n_arrows) == (skip == 0)


def test_bundle_random_with_a_32_bit_output_held(monkeypatch):
    """advance drops a PCG64's held 32-bit output, so a generator that
    holds one draws whole rows: the same bytes, and the output still held."""
    p, g1 = gauge_and_g1(16, "D4")
    rng, want_rng = np.random.default_rng(16), np.random.default_rng(16)
    for r in (rng, want_rng):
        r.integers(0, 10, dtype=np.int32)
    assert rng.bit_generator.state["has_uint32"]
    assert assert_random_equals_draws(p, g1, rng, want_rng, monkeypatch) == {p.n_arrows}
    assert rng.integers(0, 2**31, dtype=np.int32) == want_rng.integers(0, 2**31, dtype=np.int32)


@pytest.mark.parametrize("n,name", LADDER + [(32, "D4")])
def test_twisted_flat_index_equals_the_two_array_gather(n, name):
    """The plan's flat index c1·K + beta reads from a BundleFunction's
    values what the two-array gather values[c1, beta] reads, with c1 and
    beta from the scalar compose: c1[x, k, r] the row of b1_k⁻¹∘b1_r and
    beta[x, j, k, i] the rank of b1_k⁻¹∘(f_j⁻¹∘f_i)∘b1_k. At (32,D4) each
    block of the kernel holds one target."""
    p, g1 = gauge_and_g1(n, name)
    F2 = BundleFunction.random(p, g1, np.random.default_rng(n))
    F1 = BundleFunction.random(p, g1, np.random.default_rng(n + 1))
    twisted_convolve(F1, F2, HaarWeights.counting(p))
    [(_, b1, f, flat)] = p._tables._plans[("twisted", g1.arrows)]
    _, _, row, rank = F2._layout
    inv = p.inv
    c1 = np.array([[[row[p.compose(inv[bk], br)] for br in bx] for bk in bx] for bx in b1.tolist()])
    beta = np.array([[[[rank[alpha(p, inv[bk], p.compose(inv[fj], fi))] for fi in fx]
                       for bk in bx] for fj in fx] for bx, fx in zip(b1.tolist(), f.tolist())])
    step = max(1, algebra._BLOCK * 4 // flat[0].size)
    assert (step == 1) == (n == 32)
    for lo in range(0, len(b1), step):
        x = slice(lo, lo + step)
        want = F2.values[c1[x][..., None, None], beta[x].transpose(0, 2, 3, 1)[:, :, None]]
        assert F2.values.take(flat[x]).tobytes() == want.tobytes()


@pytest.mark.parametrize("n,name", LADDER)
def test_K_map_equals_pair_loop(n, name):
    dec = ladder_decomposition(n, name)
    F = BundleFunction.random(dec.gauge, dec.g1, np.random.default_rng(n))
    assert K_map(F, dec.sd).values.tobytes() == oracle_K_map(F, dec.sd).values.tobytes()


@pytest.mark.parametrize("section", ["identity", "random"])
@pytest.mark.parametrize("n,name", LADDER)
def test_layout_and_gauge_ids_equal_their_dicts(n, name, section):
    """The carrier's pairs are the comprehension over sorted(g1) and the
    fibers; triple_index and the translations hold the ids of the dicts
    they replace, and the selections built from them hold Python ints."""
    bundle = FinitePrincipalBundle(n, builtin_group(name))
    rng = np.random.default_rng(n)
    s = Section.identity(bundle) if section == "identity" else Section.random(bundle, rng)
    dec = poincare_decomposition(bundle, s)
    gauge, sd, k = dec.gauge, dec.sd, bundle.group.order
    pairs = oracle_pair_of(gauge, dec.g1)
    assert sd.pair_of == pairs
    assert sd.pair_ids.tolist() == [[a0 for a0, _ in pairs], [a1 for _, a1 in pairs]]
    assert gauge.triple_index.shape == (n, k, n)
    assert {t: gauge.triple_index[t] for t in gauge.triples} == oracle_triple_index(gauge)
    assert dec.translation.shape == (n, n)
    assert {(y, x): dec.translation[(y, x)] for y in range(n) for x in range(n)} == (
        oracle_translations(gauge, s))
    assert all(type(a) is int for a in dec.g1.arrows)


@pytest.mark.parametrize("n,name", LADDER[:4])
def test_i_map_equals_pair_loop(n, name):
    dec = ladder_decomposition(n, name)
    result = prop1_on_carrier(dec.sd)
    want = oracle_i_map(dec.sd, result.rho, J_map(dec.sd))
    assert result.i_map.arrow_map == want
    assert all(type(a) is int for a in result.i_map.arrow_map)


def test_K_map_and_K_inverse_copy_their_input():
    """Writing into the result of K_map or K_inverse leaves the input as it was."""
    sd = ladder_carrier(3, "S3")
    rng = np.random.default_rng(3)
    F = BundleFunction.random(sd.parent, sd.g1, rng)
    f = GroupoidFunction(sd, random_values(rng, sd.n_arrows, 0.3))
    F_before, f_before = F.values.copy(), f.values.copy()
    K_map(F, sd).values[:] = 7
    K_inverse(f, sd).values[:] = 7
    assert F.values.tobytes() == F_before.tobytes()
    assert f.values.tobytes() == f_before.tobytes()


def test_K_inverse_round_trip():
    """K_inverse(K_map(F)) is F and K_map(K_inverse(f)) is f, exactly, at
    (12,S3), with exact zeros of either sign among the values."""
    sd = ladder_carrier(12, "S3")
    rng = np.random.default_rng(12)
    F = BundleFunction.random(sd.parent, sd.g1, rng)
    assert K_inverse(K_map(F, sd), sd).values.tobytes() == F.values.tobytes()
    f = GroupoidFunction(sd, random_values(rng, sd.n_arrows, 0.3))
    assert K_map(K_inverse(f, sd), sd).values.tobytes() == f.values.tobytes()


def twisted_blocks(monkeypatch):
    """The blocks twisted_convolve runs, one fiber-product einsum each."""
    specs, real = [], np.einsum
    monkeypatch.setattr(np, "einsum",
                        lambda spec, *a, **k: specs.append(spec) or real(spec, *a, **k))
    return lambda: specs.count("xkj,xkrij->xkri")


def test_twisted_in_blocks_of_one_target(monkeypatch):
    """Of the ladder, only (16,D4) has more targets than one block holds,
    and the loop is slow there. At (4,D4) the 4 targets fit one block; with
    the block bound at 1, set after the plan is built, each block holds one
    target, and the kernel still equals the loop."""
    dec = ladder_decomposition(4, "D4")
    rng = np.random.default_rng(4)
    F1, F2 = (random_bundle_function(dec.gauge, dec.g1, rng, 0.2) for _ in "12")
    w = random_weights(dec.gauge, rng)
    blocks = twisted_blocks(monkeypatch)
    assert_same_twisted(F1, F2, w)
    assert blocks() == 1
    monkeypatch.setattr(algebra, "_BLOCK", 1)
    assert_same_twisted(F1, F2, w)
    assert blocks() == 1 + dec.gauge.n_base


def test_twisted_over_targets_with_unequal_counts():
    """A closed selection that is not transitive: two g1 arrows into each
    of base points 0 and 1, one into 2, so the targets fall into two
    groups. The kernel equals the loop."""
    dec = ladder_decomposition(3, "S3")
    t = dec.translation
    g1 = SubgroupoidSelection(
        dec.gauge, frozenset([t[(x, z)] for x in (0, 1) for z in (0, 1)] + [t[(2, 2)]])
    )
    rng = np.random.default_rng(3)
    F1, F2 = (random_bundle_function(dec.gauge, g1, rng, 0.2) for _ in "12")
    for w in (HaarWeights.counting(dec.gauge), random_weights(dec.gauge, rng)):
        assert_same_twisted(F1, F2, w)
    assert_same_twisted(
        BundleFunction.random(dec.gauge, g1, rng), BundleFunction.random(dec.gauge, g1, rng), w
    )


def test_twisted_rejects_weights_on_another_groupoid():
    """Weights of another groupoid used to be read as if they were the
    parent's: those of a second (3,S3) gauge build and those of the
    carrier (54 arrows each) silently, those of the (2,Z2) gauge groupoid
    with an IndexError."""
    dec = ladder_decomposition(3, "S3")
    rng = np.random.default_rng(3)
    F1, F2 = (BundleFunction.random(dec.gauge, dec.g1, rng) for _ in "12")
    others = (
        gauge_groupoid(FinitePrincipalBundle(3, builtin_group("S3"))),
        dec.sd,
        gauge_groupoid(FinitePrincipalBundle(2, builtin_group("Z2"))),
    )
    for g in others:
        with pytest.raises(PreconditionError, match="^weights must live on the parent groupoid$"):
            twisted_convolve(F1, F2, HaarWeights.counting(g))


def test_bundle_function_rejects_g1_of_another_groupoid():
    """Also once p keeps the layout of a selection with the same arrows."""
    dec, other = ladder_decomposition(3, "S3"), ladder_decomposition(3, "S3")
    p, g1 = dec.gauge, other.g1
    BundleFunction.random(p, dec.g1, np.random.default_rng(0))
    assert g1.arrows == dec.g1.arrows and ("layout", g1.arrows) in p._tables._plans
    message = "^g1 must be a selection of the parent groupoid$"
    with pytest.raises(PreconditionError, match=message):
        BundleFunction.random(p, g1, np.random.default_rng(0))
    with pytest.raises(PreconditionError, match=message):
        BundleFunction(p, g1, {a1: GroupoidFunction.zero(p) for a1 in g1.arrows})


def test_unequal_fiber_sizes():
    """The trivial group at base point 0 and Z2 at 1: the fibers at the
    targets of g1 = both identities have sizes 1 and 2, so no (|g1|, K)
    array holds a function on them."""
    g = FiniteGroupoid(
        n_base=2, src=(0, 1, 1), tgt=(0, 1, 1),
        compose_table={(0, 0): 0, (1, 1): 1, (1, 2): 2, (2, 1): 2, (2, 2): 1},
        inv=(0, 1, 2), identity=(0, 1),
    )
    assert validate_groupoid(g).ok
    g1 = SubgroupoidSelection(g, frozenset({0, 1}))
    message = "^the isotropy fibers at the targets of g1 differ in size$"
    with pytest.raises(PreconditionError, match=message):
        BundleFunction.random(g, g1, np.random.default_rng(0))
    with pytest.raises(PreconditionError, match=message):
        BundleFunction(g, g1, {0: GroupoidFunction.delta(g, 0), 1: GroupoidFunction.delta(g, 1)})


def twisted_plans(p):
    """The g1 arrow sets with a twisted_convolve plan kept on p."""
    return [key[1] for key in p._tables._plans if key[0] == "twisted"]


def test_twisted_rejects_unclosed_selection():
    """g1: the identities and one translation without its inverse. No plan
    is kept, so a second call raises again."""
    dec = ladder_decomposition(3, "S3")
    t = dec.translation
    g1 = SubgroupoidSelection(dec.gauge, frozenset([t[(x, x)] for x in range(3)] + [t[(0, 1)]]))
    F = BundleFunction.random(dec.gauge, g1, np.random.default_rng(3))
    for _ in "12":
        with pytest.raises(PreconditionError, match="^g1 is not closed under composition$"):
            twisted_convolve(F, F, HaarWeights.counting(dec.gauge))
        assert twisted_plans(dec.gauge) == []


@settings(max_examples=30, deadline=None)
@given(
    rung=st.sampled_from(LADDER[:4]),
    data=st.data(),
    seed=st.integers(min_value=0, max_value=10_000),
    zeros=st.sampled_from([0.0, 0.3]),
)
def test_twisted_on_closed_selections_of_blocks(rung, data, seed, zeros):
    """g1 = the arrows (y, σ(y)·k·σ(x)⁻¹, x) with y and x in one block of a
    random partition of the base and k in the subgroup generated by a
    random h, on a random section: closed, not transitive when there are
    two blocks or more, and with m = |block|·|⟨h⟩| at each target; h = e
    gives the σ-translations inside each block. The kernel equals the loop
    under random weights, on values with exact zeros."""
    n, name = rung
    block = data.draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n), label="block")
    rng = np.random.default_rng(seed)
    G = builtin_group(name)
    h = data.draw(st.integers(0, G.order - 1), label="h")
    powers = [G.identity]
    while G.mul[powers[-1]][h] != G.identity:
        powers.append(G.mul[powers[-1]][h])
    bundle = FinitePrincipalBundle(n, G)
    dec = poincare_decomposition(bundle, Section.random(bundle, rng))
    s = dec.section.sigma
    g1 = SubgroupoidSelection(dec.gauge, frozenset(
        int(dec.gauge.triple_index[y, G.mul[G.mul[s[y]][k]][G.inverse[s[x]]], x])
        for y in range(n) for x in range(n) if block[y] == block[x] for k in powers))
    F1, F2 = (random_bundle_function(dec.gauge, g1, rng, zeros) for _ in "12")
    assert_same_twisted(F1, F2, random_weights(dec.gauge, rng))


class TestKernelPlans:
    def test_twisted_plan_built_once_per_selection_and_freed(self, monkeypatch):
        """One build per (parent, g1 arrows), across calls and across the
        trials of verify_theorem1; a second section gives a second g1 on
        the same parent and a second plan, and each result equals the loop.
        The plans go with their parent."""
        calls, real = [], algebra._twisted_plan
        monkeypatch.setattr(algebra, "_twisted_plan",
                            lambda s, p, arrows, layout: calls.append(arrows)
                            or real(s, p, arrows, layout))
        dec = ladder_decomposition(3, "S3")
        p, rng = dec.gauge, np.random.default_rng(5)
        other = translation_subgroupoid(p, Section.random(dec.bundle, np.random.default_rng(8)))
        assert other.arrows != dec.g1.arrows
        w = random_weights(p, rng)
        for g1 in (dec.g1, other, dec.g1, other):
            F1, F2 = (random_bundle_function(p, g1, rng, 0.2) for _ in "12")
            assert_same_twisted(F1, F2, w)
        assert verify_theorem1(dec.sd, trials=3, seed=1).passed
        assert calls == [dec.g1.arrows, other.arrows]
        assert sorted(map(sorted, twisted_plans(p))) == sorted(map(sorted, calls))
        refs = [weakref.ref(p._tables._plans[("twisted", arrows)][0][-1]) for arrows in calls]
        del dec, p, other, g1, F1, F2, w, calls
        gc.collect()
        assert [ref() for ref in refs] == [None, None]

    def test_poincare_plan_built_once_per_decomposition(self, monkeypatch):
        """Two decompositions of one bundle on different sections: a plan
        each, built on the first call and kept with the decomposition's
        carrier across calls and weights; each result equals the loop, and
        the plan goes with its decomposition."""
        calls, real = [], gauge._poincare_plan
        monkeypatch.setattr(gauge, "_poincare_plan", lambda dec: calls.append(dec) or real(dec))
        bundle = FinitePrincipalBundle(4, builtin_group("D4"))
        decs = [poincare_decomposition(bundle, Section.random(bundle, np.random.default_rng(s)))
                for s in (1, 2)]
        assert decs[0].section != decs[1].section
        rng = np.random.default_rng(6)
        for dec in decs + decs:
            f1, f2 = (GroupoidFunction(dec.sd, random_values(rng, dec.sd.n_arrows, 0.2))
                      for _ in "12")
            for w in (None, random_weights(dec.gauge, rng)):
                assert_same_poincare(f1, f2, dec, w)
        assert calls == decs
        ref = weakref.ref(decs[0].sd._tables._plans[("poincare", decs[0].section.sigma)][2])
        del decs, dec, calls, f1, f2
        gc.collect()
        assert ref() is None

    def test_layout_built_once_per_selection(self, monkeypatch):
        """BundleFunction, BundleFunction.random and semidirect_product read
        one layout per (parent, g1 arrows), kept read-only with the parent
        and freed with it."""
        calls, real = [], semidirect._build_layout
        monkeypatch.setattr(semidirect, "_build_layout",
                            lambda s, p, arrows: calls.append(arrows) or real(s, p, arrows))
        dec = ladder_decomposition(3, "S3")
        p, rng = dec.gauge, np.random.default_rng(2)
        other = translation_subgroupoid(p, Section.random(dec.bundle, np.random.default_rng(8)))
        F = [BundleFunction.random(p, g1, rng) for g1 in (dec.g1, other, dec.g1, other)]
        F.append(BundleFunction(p, dec.g1, F[0].fibers))
        sd = semidirect.semidirect_product(p, dec.g0, dec.g1)
        assert calls == [dec.g1.arrows, other.arrows]  # the first by the carrier of dec
        assert F[0]._layout is F[2]._layout is F[4]._layout is sd.layout
        assert F[1]._layout is F[3]._layout and F[0]._layout is not F[1]._layout
        assert not any(t.flags.writeable for t in sd.layout)
        ref = weakref.ref(sd.layout[1])
        del dec, p, other, F, sd
        gc.collect()
        assert ref() is None

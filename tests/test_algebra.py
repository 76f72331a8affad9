import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupoidalg import (
    BundleFunction,
    FinitePrincipalBundle,
    GroupoidFunction,
    HaarWeights,
    K_inverse,
    K_map,
    Section,
    builtin_group,
    carrier_weights,
    group_groupoid,
    groupoid_convolve,
    poincare_decomposition,
    semidirect_convolve_pairform,
    symmetric,
    twisted_convolve,
    verify_theorem1,
)
from conftest import relabeled_group
from convolution_oracle import beta, fiber_convolve, oracle_semidirect_convolve_pairform
from groupoidalg.errors import PreconditionError
from groupoidalg.groups import BUILTIN_GROUPS


def max_dev(a, b):
    return float(np.max(np.abs(a.values - b.values)))


class TestHaarWeights:
    def test_counting_default(self, fix_gauge_2_z2):
        w = HaarWeights.counting(fix_gauge_2_z2)
        assert np.all(w.values == 1.0)

    def test_non_constant_fiber_rejected(self, fix_z3):
        vals = np.ones(fix_z3.n_arrows)
        vals[0] = 2.0
        with pytest.raises(PreconditionError):
            HaarWeights(fix_z3, vals)

    def test_nonpositive_rejected(self, fix_pair):
        with pytest.raises(PreconditionError):
            HaarWeights(fix_pair, np.zeros(fix_pair.n_arrows))

    def test_scaled_counting_accepted(self, fix_gauge_2_z2):
        w = HaarWeights(fix_gauge_2_z2, 0.5 * np.ones(fix_gauge_2_z2.n_arrows))
        assert w[0] == 0.5


class TestFiberConvolve:
    def test_delta_delta(self, fix_z3):
        g = fix_z3
        w = HaarWeights.counting(g)
        gen = next(a for a in g.arrows() if not g.is_identity(a))
        d1 = GroupoidFunction.delta(g, gen)
        out = fiber_convolve(d1, d1, 0, w)
        expected = GroupoidFunction.delta(g, g.compose_table[(gen, gen)])
        assert max_dev(out, expected) == 0.0

    def test_delta_identity_is_unit(self, fix_z3):
        g = fix_z3
        w = HaarWeights.counting(g)
        rng = np.random.default_rng(0)
        a = GroupoidFunction.random(g, rng)
        unit = GroupoidFunction.delta(g, g.identity[0])
        assert max_dev(fiber_convolve(unit, a, 0, w), a) < 1e-12
        assert max_dev(fiber_convolve(a, unit, 0, w), a) < 1e-12

    def test_constant_on_z2_fiber(self, fix_gauge_2_z2):
        g = fix_gauge_2_z2
        w = HaarWeights.counting(g)
        fiber = g.isotropy_fiber(0)
        ones = GroupoidFunction.zero(g)
        ones.values[fiber] = 1.0
        out = fiber_convolve(ones, ones, 0, w)
        assert np.allclose(out.values[fiber], 2.0)

    def test_requires_fiber_support(self, fix_pair):
        g = fix_pair
        w = HaarWeights.counting(g)
        off = next(a for a in g.arrows() if g.src[a] != g.tgt[a])
        bad = GroupoidFunction.delta(g, off)
        with pytest.raises(PreconditionError):
            fiber_convolve(bad, bad, 0, w)


class TestBeta:
    def test_pullback_of_delta(self, fix_gauge_2_z2):
        g = fix_gauge_2_z2
        t = g.triple_index
        a = GroupoidFunction.delta(g, t[(1, 1, 1)])
        out = beta(g, t[(1, 0, 0)], a)
        expected = GroupoidFunction.delta(g, t[(0, 1, 0)])
        assert max_dev(out, expected) == 0.0

    def test_composition_law(self, fix_gauge_3_s3, rng):
        g = fix_gauge_3_s3
        for (a1, b1), c1 in list(g.compose_table.items())[:50]:
            a = GroupoidFunction.random(
                g, rng, support=g.isotropy_fiber(g.tgt[a1])
            )
            lhs = beta(g, c1, a)
            rhs = beta(g, b1, beta(g, a1, a))
            assert max_dev(lhs, rhs) == 0.0

    def test_preserves_fiber_convolution(self, fix_gauge_3_s3, rng):
        g = fix_gauge_3_s3
        w = HaarWeights.counting(g)
        g1 = next(a for a in g.arrows() if g.src[a] != g.tgt[a])
        x, y = g.src[g1], g.tgt[g1]
        a1 = GroupoidFunction.random(g, rng, support=g.isotropy_fiber(y))
        a2 = GroupoidFunction.random(g, rng, support=g.isotropy_fiber(y))
        lhs = beta(g, g1, fiber_convolve(a1, a2, y, w))
        rhs = fiber_convolve(beta(g, g1, a1), beta(g, g1, a2), x, w)
        assert max_dev(lhs, rhs) < 1e-12


class TestTwistedConvolve:
    def test_unit_element(self, decomposition_2_z2, rng):
        sd = decomposition_2_z2.sd
        p = sd.parent
        w = HaarWeights.counting(p)
        F = BundleFunction.random(p, sd.g1, rng)
        # unit: delta at the identity fiber element over each identity arrow
        fibers = {}
        for a1 in sd.g1.arrows:
            if p.is_identity(a1):
                fibers[a1] = GroupoidFunction.delta(p, p.identity[p.tgt[a1]])
            else:
                fibers[a1] = GroupoidFunction.zero(p)
        E = BundleFunction(p, sd.g1, fibers)
        out = twisted_convolve(E, F, w)
        for a1 in sd.g1.arrows:
            assert max_dev(out.fibers[a1], F.fibers[a1]) < 1e-12

    def test_associative(self, decomposition_3_s3, rng):
        sd = decomposition_3_s3.sd
        p = sd.parent
        w = HaarWeights.counting(p)
        for _ in range(5):
            F1 = BundleFunction.random(p, sd.g1, rng)
            F2 = BundleFunction.random(p, sd.g1, rng)
            F3 = BundleFunction.random(p, sd.g1, rng)
            lhs = twisted_convolve(twisted_convolve(F1, F2, w), F3, w)
            rhs = twisted_convolve(F1, twisted_convolve(F2, F3, w), w)
            for a1 in sd.g1.arrows:
                assert max_dev(lhs.fibers[a1], rhs.fibers[a1]) < 1e-9


class TestGroupoidConvolve:
    def test_delta_rule(self, fix_pair):
        g = fix_pair
        w = HaarWeights.counting(g)
        for (a, b), c in g.compose_table.items():
            out = groupoid_convolve(
                GroupoidFunction.delta(g, a), GroupoidFunction.delta(g, b), w
            )
            assert max_dev(out, GroupoidFunction.delta(g, c)) == 0.0

    def test_group_case_constants(self, fix_z3):
        g = fix_z3
        w = HaarWeights.counting(g)
        ones = GroupoidFunction(g, np.ones(g.n_arrows, dtype=complex))
        out = groupoid_convolve(ones, ones, w)
        assert np.allclose(out.values, 3.0)

    def test_group_algebra_oracle(self, rng):
        # independent double loop over group elements
        G = symmetric(3)
        g = group_groupoid(G)
        w = HaarWeights.counting(g)
        f1 = GroupoidFunction.random(g, rng)
        f2 = GroupoidFunction.random(g, rng)
        out = groupoid_convolve(f1, f2, w)
        expected = np.zeros(G.order, dtype=complex)
        for a in range(G.order):
            for b in range(G.order):
                expected[G.mul[a][b]] += f1.values[a] * f2.values[b]
        assert np.max(np.abs(out.values - expected)) < 1e-12

    def test_associative(self, fix_gauge_2_z2, rng):
        g = fix_gauge_2_z2
        w = HaarWeights.counting(g)
        for _ in range(5):
            f1 = GroupoidFunction.random(g, rng)
            f2 = GroupoidFunction.random(g, rng)
            f3 = GroupoidFunction.random(g, rng)
            lhs = groupoid_convolve(groupoid_convolve(f1, f2, w), f3, w)
            rhs = groupoid_convolve(f1, groupoid_convolve(f2, f3, w), w)
            assert max_dev(lhs, rhs) < 1e-9

    def test_pairform_matches_single_sum(self, decomposition_3_s3, rng):
        """The pair form runs the generic kernel; the iterated loop over the
        selection and the fiber is the independent side."""
        sd = decomposition_3_s3.sd
        w_parent = HaarWeights.counting(sd.parent)
        for _ in range(5):
            f1 = GroupoidFunction.random(sd, rng)
            f2 = GroupoidFunction.random(sd, rng)
            lhs = semidirect_convolve_pairform(f1, f2, sd, w_parent)
            rhs = oracle_semidirect_convolve_pairform(f1, f2, sd, w_parent)
            assert max_dev(lhs, rhs) < 1e-12


class TestBundleFunction:
    def test_fibers_view(self, decomposition_3_s3, rng):
        """fibers is a read-only mapping in g1's iteration order, of
        full-length functions zero off the fiber, that compares equal to a
        dict of its items."""
        sd = decomposition_3_s3.sd
        p = sd.parent
        F = BundleFunction.random(p, sd.g1, rng)
        view = F.fibers
        assert list(view) == list(sd.g1.arrows) and len(view) == len(sd.g1.arrows)
        assert view == dict(view) and view != {} and view is F.fibers
        for r, a1 in enumerate(sorted(sd.g1.arrows)):
            fiber = p.isotropy_fiber(p.tgt[a1])
            f = view[a1]
            assert f.groupoid is p and f.supported_on(fiber)
            assert f.values[fiber].tobytes() == F.values[r].tobytes()
        with pytest.raises(TypeError):
            view[a1] = GroupoidFunction.zero(p)
        with pytest.raises(ValueError):
            view[a1].values[fiber[0]] = 1.0
        with pytest.raises(KeyError):
            view[next(a for a in p.arrows() if a not in sd.g1.arrows)]
        assert BundleFunction(p, sd.g1, view).values.tobytes() == F.values.tobytes()

    def test_constructor_messages(self, decomposition_2_z2):
        sd = decomposition_2_z2.sd
        p = sd.parent
        zeros = {a1: GroupoidFunction.zero(p) for a1 in sd.g1.arrows}
        a1 = next(iter(sd.g1.arrows))
        with pytest.raises(PreconditionError, match="^fiber family must cover exactly"):
            BundleFunction(p, sd.g1, {a: f for a, f in zeros.items() if a != a1})
        with pytest.raises(PreconditionError, match="^fiber values must live on the parent"):
            BundleFunction(p, sd.g1, {**zeros, a1: GroupoidFunction.zero(sd)})
        off = next(a for a in p.arrows() if p.tgt[a] != p.tgt[a1] or p.src[a] != p.tgt[a1])
        x = p.base_label(p.tgt[a1])
        with pytest.raises(PreconditionError, match=f"^function is not supported on the "
                                                    f"isotropy fiber at {x}$"):
            BundleFunction(p, sd.g1, {**zeros, a1: GroupoidFunction.delta(p, off)})
        bad = GroupoidFunction.delta(p, p.identity[p.tgt[a1]])
        bad.values[p.identity[p.tgt[a1]]] = np.nan
        with pytest.raises(PreconditionError, match="^function values must be finite$"):
            BundleFunction(p, sd.g1, {**zeros, a1: bad})


class TestKMap:
    def test_bijective(self, decomposition_2_z2, rng):
        sd = decomposition_2_z2.sd
        F = BundleFunction.random(sd.parent, sd.g1, rng)
        back = K_inverse(K_map(F, sd), sd)
        for a1 in sd.g1.arrows:
            assert max_dev(back.fibers[a1], F.fibers[a1]) == 0.0
        f = GroupoidFunction.random(sd, rng)
        assert max_dev(K_map(K_inverse(f, sd), sd), f) == 0.0

    def test_linear(self, decomposition_2_z2, rng):
        sd = decomposition_2_z2.sd
        p = sd.parent
        F1 = BundleFunction.random(p, sd.g1, rng)
        F2 = BundleFunction.random(p, sd.g1, rng)
        summed = BundleFunction(
            p,
            sd.g1,
            {
                a1: GroupoidFunction(
                    p, F1.fibers[a1].values + 2j * F2.fibers[a1].values
                )
                for a1 in sd.g1.arrows
            },
        )
        lhs = K_map(summed, sd).values
        rhs = K_map(F1, sd).values + 2j * K_map(F2, sd).values
        assert np.max(np.abs(lhs - rhs)) == 0.0

    def test_homomorphism(self, decomposition_3_s3, rng):
        sd = decomposition_3_s3.sd
        p = sd.parent
        w = HaarWeights.counting(p)
        wc = carrier_weights(sd, w)
        for _ in range(5):
            F1 = BundleFunction.random(p, sd.g1, rng)
            F2 = BundleFunction.random(p, sd.g1, rng)
            lhs = K_map(twisted_convolve(F1, F2, w), sd)
            rhs = groupoid_convolve(K_map(F1, sd), K_map(F2, sd), wc)
            assert max_dev(lhs, rhs) < 1e-9


class TestKMultiplicativeRandomTables:
    """K intertwines the twisted and groupoid convolutions on gauge carriers
    over relabeled group tables, bases of 1-3 points and random sections."""

    @settings(max_examples=30, deadline=None)
    @given(
        name=st.sampled_from(sorted(BUILTIN_GROUPS)),
        n=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_k_multiplicative(self, name, n, seed):
        rng = np.random.default_rng(seed)
        bundle = FinitePrincipalBundle(n, relabeled_group(builtin_group(name), rng))
        sd = poincare_decomposition(bundle, Section.random(bundle, rng)).sd
        w = HaarWeights.counting(sd.parent)
        F1 = BundleFunction.random(sd.parent, sd.g1, rng)
        F2 = BundleFunction.random(sd.parent, sd.g1, rng)
        lhs = K_map(twisted_convolve(F1, F2, w), sd)
        rhs = groupoid_convolve(K_map(F1, sd), K_map(F2, sd), carrier_weights(sd, w))
        assert max_dev(lhs, rhs) <= 1e-9


class TestVerifyTheorem1:
    def test_z2_fixture(self, decomposition_2_z2):
        rep = verify_theorem1(decomposition_2_z2.sd, trials=25, seed=7)
        assert rep.passed
        assert rep.pair_identity_ok
        assert rep.max_deviation <= 1e-9

    def test_s3_fixture(self, decomposition_3_s3):
        rep = verify_theorem1(decomposition_3_s3.sd, trials=25, seed=7)
        assert rep.passed

    def test_scaled_weights(self, decomposition_2_z2):
        p = decomposition_2_z2.sd.parent
        w = HaarWeights(p, 0.5 * np.ones(p.n_arrows))
        rep = verify_theorem1(decomposition_2_z2.sd, trials=10, seed=3, w_parent=w)
        assert rep.passed

    def test_nan_deviation_fails(self, decomposition_2_z2, monkeypatch):
        """A NaN deviation in a trial after the first is not dropped by the
        running max: the check fails and names it. (GroupoidFunction holds
        finite values only, so the NaN comes from a stand-in result.)"""
        from types import SimpleNamespace

        from groupoidalg import algebra

        calls, convolve = [], algebra.groupoid_convolve

        def nan_on_second_trial(f1, f2, w):
            calls.append(None)
            out = convolve(f1, f2, w)
            return SimpleNamespace(values=out.values * np.nan) if len(calls) == 2 else out

        monkeypatch.setattr(algebra, "groupoid_convolve", nan_on_second_trial)
        rep = verify_theorem1(decomposition_2_z2.sd, trials=3, seed=1)
        assert len(calls) == 3
        assert not rep.passed and np.isnan(rep.max_deviation)
        assert rep.witness == "max deviation nan exceeds tolerance 1.0e-09"

    def test_report_dict(self, decomposition_2_z2):
        d = verify_theorem1(decomposition_2_z2.sd, trials=5, seed=1).to_dict()
        assert d["passed"] is True
        assert set(d) == {
            "trials", "seed", "tol", "max_deviation",
            "pair_identity_ok", "passed", "witness",
        }

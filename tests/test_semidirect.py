import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupoidalg import (
    BundleFunction,
    FiniteGroupoid,
    FinitePrincipalBundle,
    GroupoidFunction,
    J_map,
    Section,
    builtin_group,
    find_isomorphism,
    gauge_groupoid,
    isotropy_subgroupoid,
    lorentz_subgroupoid,
    poincare_decomposition,
    prop1_equivalence,
    quotient_by_isotropy,
    selection_to_groupoid,
    semidirect_product,
    translation_subgroupoid,
    validate_groupoid,
    verify_morphism,
)
from conftest import relabeled_group
from convolution_oracle import alpha
from groupoidalg.errors import PreconditionError
from groupoidalg.groupoid import SubgroupoidSelection
from groupoidalg.groups import BUILTIN_GROUPS


def cyclic_subgroup(G, h):
    """The elements of <h>."""
    H, k = [G.identity], h
    while k != G.identity:
        H.append(k)
        k = G.mul[k][h]
    return H


def twisted_translations(gauge, sigma, H):
    """{(y, sigma(y)·k·sigma(x)⁻¹, x) : k in H}: wide, transitive and closed
    for every subgroup H; the translation subgroupoid when H is trivial."""
    G = gauge.bundle.group
    return SubgroupoidSelection(gauge, frozenset(
        gauge.triple_index[(y, G.mul[G.mul[sigma[y]][k]][G.inverse[sigma[x]]], x)]
        for y in range(gauge.n_base)
        for x in range(gauge.n_base)
        for k in H
    ))


class TestAlpha:
    def test_gauge_conjugation(self, fix_gauge_2_z2):
        g = fix_gauge_2_z2
        t = g.triple_index
        # conjugating (0,a,0) by the translation (1,e,0) lands at (1,a,1)
        assert alpha(g, t[(1, 0, 0)], t[(0, 1, 0)]) == t[(1, 1, 1)]

    def test_conjugation_by_identity(self, fix_gauge_2_z2):
        g = fix_gauge_2_z2
        for x in g.base():
            for a in g.isotropy_fiber(x):
                assert alpha(g, g.identity[x], a) == a

    def test_abelian_conjugation_trivial(self, fix_z3):
        g = fix_z3
        gen = next(a for a in g.arrows() if not g.is_identity(a))
        assert alpha(g, gen, gen) == gen

    def test_non_isotropy_rejected(self, fix_pair):
        g = fix_pair
        arrow = next(a for a in g.arrows() if g.src[a] != g.tgt[a])
        with pytest.raises(PreconditionError):
            alpha(g, g.identity[0], arrow)

    def test_functoriality(self, fix_gauge_3_s3):
        g = fix_gauge_3_s3
        for (a1, b1), c1 in g.compose_table.items():
            for g0 in g.isotropy_fiber(g.src[b1]):
                assert alpha(g, c1, g0) == alpha(g, a1, alpha(g, b1, g0))

    def test_fiber_isomorphism(self, fix_gauge_2_z2):
        g = fix_gauge_2_z2
        for g1 in g.arrows():
            x, y = g.src[g1], g.tgt[g1]
            for a in g.isotropy_fiber(x):
                for b in g.isotropy_fiber(x):
                    lhs = alpha(g, g1, g.compose_table[(a, b)])
                    rhs = g.compose_table[(alpha(g, g1, a), alpha(g, g1, b))]
                    assert lhs == rhs


class TestSemidirectProduct:
    def test_gauge_z2_carrier(self, decomposition_2_z2):
        sd = decomposition_2_z2.sd
        assert sd.n_arrows == 8
        assert validate_groupoid(sd).ok

    def test_arrow_count_formula(self, decomposition_3_s3):
        sd = decomposition_3_s3.sd
        p = sd.parent
        expected = sum(
            len(p.isotropy_fiber(p.tgt[a1])) for a1 in sd.g1.arrows
        )
        assert sd.n_arrows == expected == 54

    def test_trivial_isotropy_collapses(self, fix_pair):
        g0 = isotropy_subgroupoid(fix_pair)
        g1 = SubgroupoidSelection(fix_pair, frozenset(fix_pair.arrows()))
        sd = semidirect_product(fix_pair, g0, g1)
        assert validate_groupoid(sd).ok
        assert find_isomorphism(sd, fix_pair) is not None

    def test_one_point_base_collapses(self, fix_z3):
        g0 = isotropy_subgroupoid(fix_z3)
        g1 = SubgroupoidSelection(fix_z3, frozenset({fix_z3.identity[0]}))
        sd = semidirect_product(fix_z3, g0, g1)
        assert validate_groupoid(sd).ok
        assert find_isomorphism(sd, fix_z3) is not None

    def test_identity_pairs(self, decomposition_2_z2):
        sd = decomposition_2_z2.sd
        p = sd.parent
        for x in sd.base():
            assert sd.pair_of[sd.identity[x]] == (p.identity[x], p.identity[x])

    def test_partial_isotropy_rejected(self, fix_gauge_2_z2):
        g = fix_gauge_2_z2
        iso = isotropy_subgroupoid(g)
        partial = SubgroupoidSelection(g, frozenset(g.identity))
        g1 = SubgroupoidSelection(g, iso.arrows)  # wrong on purpose too
        with pytest.raises(PreconditionError):
            semidirect_product(g, partial, g1)

    def test_non_transitive_g1_rejected(self, fix_pair):
        g0 = isotropy_subgroupoid(fix_pair)
        g1 = SubgroupoidSelection(fix_pair, frozenset(fix_pair.identity))
        with pytest.raises(PreconditionError):
            semidirect_product(fix_pair, g0, g1)

    @pytest.mark.parametrize(
        "keep, message",
        [
            # all translations but the one from 1 to 0: 0 → 1 lost its inverse
            (lambda y, x: (y, x) != (0, 1), "g1 is not closed under composition/inverses"),
            # the translations among 0 and 1: closed, but 2 is not touched
            (lambda y, x: y < 2 and x < 2, "g1 is not wide"),
        ],
        ids=["not-closed", "not-wide"],
    )
    def test_g1_not_closed_or_not_wide_rejected(self, fix_gauge_3_s3, keep, message):
        g = fix_gauge_3_s3
        t = g.triple_index[:, g.bundle.group.identity, :]  # [y, x]: the translation x → y
        g1 = SubgroupoidSelection(g, frozenset(
            int(t[y, x]) for y in g.base() for x in g.base() if keep(y, x)))
        with pytest.raises(PreconditionError, match=f"^{message}$"):
            semidirect_product(g, isotropy_subgroupoid(g), g1)

    def test_g1_of_another_groupoid_rejected(self, bundle_3_s3):
        """A second build of the same gauge groupoid has the same arrow ids;
        its translations used to be read as the parent's."""
        g, other = gauge_groupoid(bundle_3_s3), gauge_groupoid(bundle_3_s3)
        g1 = translation_subgroupoid(other, Section.identity(bundle_3_s3))
        with pytest.raises(PreconditionError, match="^g1 must be a selection of the parent"):
            semidirect_product(g, lorentz_subgroupoid(g), g1)

    def test_isotropy_fibers_from_the_index(self):
        """Z2 at base point 0 and Z3 at 1, with a dict compose table: the
        fibers at the targets of g1 = both identities have sizes 2 and 3.
        And the isotropy selections hold the arrows the endpoint filter
        finds, in its iteration order."""
        z2 = [(a, b, (a + b) % 2) for a in range(2) for b in range(2)]
        z3 = [(2 + a, 2 + b, 2 + (a + b) % 3) for a in range(3) for b in range(3)]
        g = FiniteGroupoid(2, (0, 0, 1, 1, 1), (0, 0, 1, 1, 1),
                           {(a, b): c for a, b, c in z2 + z3}, (0, 1, 2, 4, 3), (0, 2))
        assert validate_groupoid(g).ok
        g1 = SubgroupoidSelection(g, frozenset({0, 2}))
        message = "^the isotropy fibers at the targets of g1 differ in size$"
        with pytest.raises(PreconditionError, match=message):
            BundleFunction(g, g1, {a: GroupoidFunction.delta(g, a) for a in (0, 2)})
        with pytest.raises(PreconditionError, match=message):
            BundleFunction.random(g, g1, np.random.default_rng(0))

        bundle = FinitePrincipalBundle(8, builtin_group("Z4"))
        dec = poincare_decomposition(bundle, Section.random(bundle, np.random.default_rng(5)))
        quotient = quotient_by_isotropy(dec.gauge, dec.g0)[0]
        for h in (g, dec.gauge, dec.sd, quotient):
            want = frozenset(a for a in h.arrows() if h.src[a] == h.tgt[a])
            assert list(isotropy_subgroupoid(h).arrows) == list(want)
        gauge = dec.gauge
        want = frozenset(i for i, (y, _, x) in enumerate(gauge.triples) if y == x)
        assert list(lorentz_subgroupoid(gauge).arrows) == list(want)

    def test_inverse_rule(self, decomposition_3_s3):
        sd = decomposition_3_s3.sd
        p = sd.parent
        for i, (a0, a1) in enumerate(sd.pair_of):
            expected = (
                alpha(p, p.inv[a1], p.inv[a0]),
                p.inv[a1],
            )
            assert sd.pair_of[sd.inv[i]] == expected


class TestJMap:
    def test_j_iso_on_gauge_fixtures(self, decomposition_2_z2, decomposition_3_s3):
        for dec in (decomposition_2_z2, decomposition_3_s3):
            J = J_map(dec.sd)
            assert verify_morphism(J, require_iso=True).ok

    def test_j_respects_inverses(self, decomposition_2_z2):
        sd = decomposition_2_z2.sd
        J = J_map(sd)
        p = sd.parent
        for i in sd.arrows():
            assert J.arrow_map[sd.inv[i]] == p.inv[J.arrow_map[i]]

    def test_j_on_trivial_isotropy(self, fix_pair):
        g0 = isotropy_subgroupoid(fix_pair)
        g1 = SubgroupoidSelection(fix_pair, frozenset(fix_pair.arrows()))
        sd = semidirect_product(fix_pair, g0, g1)
        assert verify_morphism(J_map(sd), require_iso=True).ok


class TestProp1:
    def test_biconditional_gauge_fixtures(self, decomposition_2_z2, decomposition_3_s3):
        for res in (decomposition_2_z2, decomposition_3_s3):
            assert res.j_exists is True
            assert res.J_is_iso is True
            assert res.j_exists == res.J_is_iso
            assert res.i_map_verified

    def test_counterexample_both_false(self, fix_gauge_2_z2):
        # the whole gauge groupoid is wide, transitive and closed, but is
        # not isomorphic to the quotient by the isotropy; both directions
        # must agree on the failure
        g = fix_gauge_2_z2
        g0 = isotropy_subgroupoid(g)
        g1 = SubgroupoidSelection(g, frozenset(g.arrows()))
        res = prop1_equivalence(g, g0, g1)
        assert res.j_exists is False
        assert res.J_is_iso is False
        assert res.j_exists == res.J_is_iso

    def test_non_transitive_precondition(self, fix_pair):
        g0 = isotropy_subgroupoid(fix_pair)
        g1 = SubgroupoidSelection(fix_pair, frozenset(fix_pair.identity))
        with pytest.raises(PreconditionError):
            prop1_equivalence(fix_pair, g0, g1)


class TestProp1Construction:
    """j = rho∘iota against the comparison map J and against the search."""

    @settings(max_examples=40, deadline=None)
    @given(
        name=st.sampled_from(sorted(BUILTIN_GROUPS)),
        n=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=10_000),
        data=st.data(),
    )
    def test_cyclic_twist(self, name, n, seed, data):
        G = builtin_group(name)
        H = cyclic_subgroup(G, data.draw(st.integers(0, G.order - 1), label="h"))
        bundle = FinitePrincipalBundle(n, G)
        gauge = gauge_groupoid(bundle)
        sigma = Section.random(bundle, np.random.default_rng(seed)).sigma
        g1 = twisted_translations(gauge, sigma, H)
        res = prop1_equivalence(gauge, lorentz_subgroupoid(gauge), g1)
        assert res.j_exists == res.J_is_iso == (len(H) == 1)
        assert res.i_map_verified == (len(H) == 1)
        assert verify_morphism(res.rho).ok
        g1_groupoid, _ = selection_to_groupoid(g1)
        if max(g1_groupoid.n_arrows, res.quotient.n_arrows) <= 64:
            found = find_isomorphism(g1_groupoid, res.quotient)
            assert res.j_exists == (found is not None)

    @settings(max_examples=40, deadline=None)
    @given(
        name=st.sampled_from(sorted(BUILTIN_GROUPS)),
        n=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=10_000),
        data=st.data(),
    )
    def test_cyclic_twist_relabeled_tables(self, name, n, seed, data):
        """The same twists over group tables with shuffled elements and the
        identity off index 0, read through group_from_table."""
        rng = np.random.default_rng(seed)
        G = relabeled_group(builtin_group(name), rng)
        H = cyclic_subgroup(G, data.draw(st.integers(0, G.order - 1), label="h"))
        bundle = FinitePrincipalBundle(n, G)
        gauge = gauge_groupoid(bundle)
        g1 = twisted_translations(gauge, Section.random(bundle, rng).sigma, H)
        res = prop1_equivalence(gauge, lorentz_subgroupoid(gauge), g1)
        assert res.j_exists == res.J_is_iso == res.i_map_verified == (len(H) == 1)
        assert verify_morphism(res.rho).ok
        assert validate_groupoid(res.rho.codomain).ok

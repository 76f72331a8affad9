"""The builders' slot arrays in closed form, against the pair-by-pair walk
oracles of builder_oracle.py, byte for byte: the semidirect carrier's as an
outer sum of its two factors, the gauge groupoid's as its (y, g·h, z) grid,
and the pair and group groupoids'."""

import gc
import tracemalloc

import numpy as np
import pytest

from groupoidalg import (
    FiniteGroupoid,
    FinitePrincipalBundle,
    J_map,
    Section,
    builtin_group,
    cyclic,
    gauge_groupoid,
    group_groupoid,
    isotropy_subgroupoid,
    lorentz_subgroupoid,
    pair_groupoid,
    semidirect_product,
    translation_subgroupoid,
    validate_groupoid,
    verify_morphism,
)
from builder_oracle import (
    oracle_carrier_slots,
    oracle_gauge_slots,
    oracle_group_slots,
    oracle_pair_slots,
)
from conftest import Z5, pair_times, relabeled_group
from groupoidalg.errors import PreconditionError
from groupoidalg.groupoid import SubgroupoidSelection
from groupoidalg.groups import BUILTIN_GROUPS

LADDER = [(2, "Z2"), (3, "S3"), (4, "D4"), (8, "Z4"), (12, "S3"), (16, "D4")]


def assert_same_slots(g, oracle):
    prod = g._tables.prod
    assert prod.dtype == oracle.dtype and prod.tobytes() == oracle.tobytes()


def random_carrier(bundle, seed):
    gauge = gauge_groupoid(bundle)
    section = Section.random(bundle, np.random.default_rng(seed))
    return semidirect_product(gauge, lorentz_subgroupoid(gauge),
                              translation_subgroupoid(gauge, section))


def assert_carrier(sd):
    """The carrier's slots equal the walk oracle's, and J is a functor."""
    assert_same_slots(sd, oracle_carrier_slots(sd))
    assert verify_morphism(J_map(sd)).ok


class TestCarrier:
    @pytest.mark.parametrize("n,name", LADDER)
    def test_ladder(self, n, name):
        assert_carrier(random_carrier(FinitePrincipalBundle(n, builtin_group(name)), n))

    @pytest.mark.parametrize("n,name", [(3, "S3"), (4, "D4"), (3, "Z4")])
    def test_relabeled_groups(self, n, name):
        """Element tables with the identity off index 0."""
        rng = np.random.default_rng(n)
        bundle = FinitePrincipalBundle(n, relabeled_group(builtin_group(name), rng))
        assert_carrier(random_carrier(bundle, n + 1))

    def test_non_gauge_parent(self):
        """pair(3) × Z5 with a dict compose table, twisted by a section s:
        g1 = {(y, s(y) − s(x), x)}."""
        p, s, n, k = pair_times(3, Z5), (0, 3, 1), 3, 5
        g1 = SubgroupoidSelection(p, frozenset(
            (y * k + (s[y] - s[x]) % k) * n + x for y in range(n) for x in range(n)))
        sd = semidirect_product(p, isotropy_subgroupoid(p), g1)
        assert sd.n_arrows == n * n * k
        assert_carrier(sd)

    def test_g1_with_isotropy(self, fix_gauge_2_z2):
        """g1 = every arrow of the (2,Z2) gauge groupoid: m = n·K g1 arrows
        into each base point."""
        g = fix_gauge_2_z2
        sd = semidirect_product(g, isotropy_subgroupoid(g),
                                SubgroupoidSelection(g, frozenset(g.arrows())))
        assert sd.n_arrows == 16
        assert_carrier(sd)

    def test_one_point_base(self):
        for g in (group_groupoid(cyclic(3)), group_groupoid(builtin_group("D4"))):
            g1 = SubgroupoidSelection(g, frozenset({g.identity[0]}))
            assert_carrier(semidirect_product(g, isotropy_subgroupoid(g), g1))
        assert_carrier(random_carrier(FinitePrincipalBundle(1, builtin_group("S3")), 1))

    def test_trivial_isotropy(self):
        p = pair_groupoid(3)
        g1 = SubgroupoidSelection(p, frozenset(p.arrows()))
        assert_carrier(semidirect_product(p, isotropy_subgroupoid(p), g1))

    def test_empty_groupoid(self):
        """The empty groupoid keeps its empty carrier."""
        p = pair_groupoid(0)
        sd = semidirect_product(p, isotropy_subgroupoid(p), SubgroupoidSelection(p, frozenset()))
        assert sd.n_arrows == 0 and sd.n_base == 0 and sd.pair_of == ()
        assert len(sd.compose_table) == 0 and validate_groupoid(sd).ok
        assert_carrier(sd)

    def test_g1_fibers_of_different_sizes_rejected(self):
        """A table that is no groupoid's, on which g1 is closed, wide and
        transitive, with three g1 arrows into base point 0 and two into 1:
        every product is the g1 arrow between its ends."""
        src, tgt = (0, 0, 1, 1, 0, 1), (0, 0, 1, 1, 1, 0)
        between = {(0, 0): 0, (1, 1): 2, (1, 0): 4, (0, 1): 5}  # (tgt, src) ↦ arrow
        comp = {(a, b): between[tgt[a], src[b]]
                for a in range(6) for b in range(6) if src[a] == tgt[b]}
        g = FiniteGroupoid(2, src, tgt, comp, (0, 1, 2, 3, 5, 4), (0, 2))
        g1 = SubgroupoidSelection(g, frozenset({0, 1, 2, 4, 5}))
        with pytest.raises(PreconditionError, match="^the fibers of g1 differ in size$"):
            semidirect_product(g, isotropy_subgroupoid(g), g1)

    def test_filled_in_place(self):
        """The builds write their slot arrays in place: at (16,D4) what they
        allocate and free again stays under half a slot array (a grid of
        sums built whole and then copied would be one or two)."""
        bundle = FinitePrincipalBundle(16, builtin_group("D4"))
        gauge = gauge_groupoid(bundle)
        g0 = lorentz_subgroupoid(gauge)
        g1 = translation_subgroupoid(gauge, Section.random(bundle, np.random.default_rng(3)))
        semidirect_product(gauge, g0, g1)  # the layout, kept with the parent
        for build in (lambda: semidirect_product(gauge, g0, g1), lambda: gauge_groupoid(bundle)):
            gc.collect()
            tracemalloc.start()
            try:
                g = build()
                kept, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak - kept < g._tables.prod.nbytes / 2


class TestGauge:
    @pytest.mark.parametrize("n,name", LADDER)
    def test_ladder(self, n, name):
        g = gauge_groupoid(FinitePrincipalBundle(n, builtin_group(name)))
        assert_same_slots(g, oracle_gauge_slots(g))

    @pytest.mark.parametrize("name", sorted(BUILTIN_GROUPS))
    def test_relabeled_groups(self, name):
        G = relabeled_group(builtin_group(name), np.random.default_rng(7))
        g = gauge_groupoid(FinitePrincipalBundle(3, G))
        assert_same_slots(g, oracle_gauge_slots(g))


class TestPairAndGroup:
    @pytest.mark.parametrize("n", range(6))
    def test_pair(self, n):
        p = pair_groupoid(n)
        assert_same_slots(p, oracle_pair_slots(p))

    @pytest.mark.parametrize("name", sorted(BUILTIN_GROUPS))
    def test_group(self, name):
        for G in (builtin_group(name),
                  relabeled_group(builtin_group(name), np.random.default_rng(2))):
            g = group_groupoid(G)
            assert_same_slots(g, oracle_group_slots(g, G))

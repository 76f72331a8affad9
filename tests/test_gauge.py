import itertools
import tracemalloc

import numpy as np
import pytest

from groupoidalg import (
    FinitePrincipalBundle,
    GroupoidFunction,
    HaarWeights,
    Section,
    builtin_group,
    carrier_weights,
    find_isomorphism,
    gauge_groupoid,
    groupoid_convolve,
    isotropy_subgroupoid,
    lorentz_subgroupoid,
    pair_groupoid,
    poincare_convolve,
    poincare_convolve_agreement,
    poincare_decomposition,
    prop1_equivalence,
    selection_to_groupoid,
    semidirect_convolve_pairform,
    subgroupoid_properties,
    translation_subgroupoid,
    validate_groupoid,
    verify_morphism,
    verify_poincare_decomposition,
)
from groupoidalg.errors import PreconditionError, SizeCapError
from groupoidalg.gauge import MAX_GAUGE_PAIRS
from groupoidalg.groupoid import FiniteGroupoid, GroupoidMorphism
from groupoidalg.semidirect import prop1_on_carrier


def gauge_groupoid_raw(bundle: FinitePrincipalBundle):
    """Independent construction of the gauge groupoid straight from the
    raw-pair quotient: arrows are orbits of pairs of bundle points under
    the diagonal right action. Returns the groupoid, the orbit list, and
    the class map orbit ↦ (y, a·b⁻¹, x) into normal form.

    A test oracle for the normal-form construction.
    """
    G = bundle.group
    points = [(x, a) for x in range(bundle.n_base) for a in range(G.order)]
    seen = set()
    orbits = []
    for p1 in points:
        for p2 in points:
            if (p1, p2) in seen:
                continue
            orbit = frozenset(
                ((p1[0], G.mul[p1[1]][g]), (p2[0], G.mul[p2[1]][g]))
                for g in range(G.order)
            )
            seen.update(orbit)
            orbits.append(orbit)
    idx = {o: i for i, o in enumerate(orbits)}

    def tgt_of(o):
        return next(iter(o))[0][0]

    def src_of(o):
        return next(iter(o))[1][0]

    def class_containing(p1, p2):
        for o in orbits:
            if (p1, p2) in o:
                return o
        raise AssertionError("pair not covered by any orbit")

    comp = {}
    for i, o1 in enumerate(orbits):
        for j, o2 in enumerate(orbits):
            if src_of(o1) != tgt_of(o2):
                continue
            p1, p2 = next(iter(o1))
            # find a member (p3, p4) of o2 and g with p3 = p2·g
            found = None
            for (p3, p4) in o2:
                for g in range(G.order):
                    if (p2[0], G.mul[p2[1]][g]) == p3:
                        found = class_containing(p1, (p4[0], G.mul[p4[1]][G.inverse[g]]))
                        break
                if found is not None:
                    break
            comp[(i, j)] = idx[found]
    inv = []
    ident = [None] * bundle.n_base
    for o in orbits:
        p1, p2 = next(iter(o))
        inv.append(idx[class_containing(p2, p1)])
        if p1 == p2:
            ident[p1[0]] = idx[o]
    raw = FiniteGroupoid(
        n_base=bundle.n_base,
        src=tuple(src_of(o) for o in orbits),
        tgt=tuple(tgt_of(o) for o in orbits),
        compose_table=comp,
        inv=tuple(inv),
        identity=tuple(ident),
    )

    def to_normal(o):
        (y, a), (x, b) = next(iter(o))
        return (y, G.mul[a][G.inverse[b]], x)

    class_map = [to_normal(o) for o in orbits]
    return raw, orbits, class_map


SMALL_INSTANCES = [
    (1, "Z3"),
    (2, "Z2"),
    (2, "S3"),
    (3, "Z4"),
    (4, "Z2"),
    (3, "D4"),
]


@pytest.mark.parametrize("n_base,group_name", SMALL_INSTANCES)
def test_normal_form_valid(n_base, group_name):
    bundle = FinitePrincipalBundle(n_base, builtin_group(group_name))
    g = gauge_groupoid(bundle)
    assert g.n_arrows == n_base * n_base * bundle.group.order
    assert validate_groupoid(g).ok


@pytest.mark.parametrize("n_base,group_name", SMALL_INSTANCES)
def test_raw_quotient_oracle_agrees(n_base, group_name):
    bundle = FinitePrincipalBundle(n_base, builtin_group(group_name))
    g = gauge_groupoid(bundle)
    raw, orbits, class_map = gauge_groupoid_raw(bundle)
    assert validate_groupoid(raw).ok
    m = GroupoidMorphism(
        domain=raw,
        codomain=g,
        arrow_map=tuple(g.triple_index[t] for t in class_map),
        base_map=tuple(range(n_base)),
    )
    assert verify_morphism(m, require_iso=True).ok


@pytest.mark.parametrize("n_base,group_name", SMALL_INSTANCES)
def test_lorentz_equals_isotropy(n_base, group_name):
    bundle = FinitePrincipalBundle(n_base, builtin_group(group_name))
    g = gauge_groupoid(bundle)
    assert lorentz_subgroupoid(g).arrows == isotropy_subgroupoid(g).arrows


def test_lorentz_fiber_is_structure_group(fix_gauge_3_s3):
    g = fix_gauge_3_s3
    for x in g.base():
        fiber = g.isotropy_fiber(x)
        assert sorted(g.triples[a][1] for a in fiber) == list(
            range(g.bundle.group.order)
        )


class TestTranslationSubgroupoid:
    def test_identity_section_arrows(self, fix_gauge_2_z2, bundle_2_z2):
        g1 = translation_subgroupoid(fix_gauge_2_z2, Section.identity(bundle_2_z2))
        expected = {
            fix_gauge_2_z2.triple_index[(y, 0, x)] for y in range(2) for x in range(2)
        }
        assert g1.arrows == expected

    def test_twisted_section_arrows(self, fix_gauge_2_z2, bundle_2_z2):
        # sigma(0) = e, sigma(1) = g: off-diagonal arrows carry g
        g1 = translation_subgroupoid(fix_gauge_2_z2, Section((0, 1)))
        t = fix_gauge_2_z2.triple_index
        assert g1.arrows == {
            t[(0, 0, 0)], t[(1, 0, 1)], t[(0, 1, 1)], t[(1, 1, 0)]
        }

    def test_properties_any_section(self, fix_gauge_3_s3, bundle_3_s3):
        rng = np.random.default_rng(5)
        for _ in range(5):
            s = Section.random(bundle_3_s3, rng)
            g1 = translation_subgroupoid(fix_gauge_3_s3, s)
            props = subgroupoid_properties(fix_gauge_3_s3, g1)
            assert props == {
                "is_wide": True,
                "is_transitive": True,
                "is_closed": True,
            }

    def test_isomorphic_to_pair_groupoid(self, fix_gauge_3_s3, bundle_3_s3):
        rng = np.random.default_rng(6)
        for _ in range(3):
            s = Section.random(bundle_3_s3, rng)
            sub, _ = selection_to_groupoid(
                translation_subgroupoid(fix_gauge_3_s3, s)
            )
            assert find_isomorphism(sub, pair_groupoid(3)) is not None

    def test_gauge_fixing_conjugation(self, fix_gauge_3_s3, bundle_3_s3):
        # translations for two sections differ by conjugation with the
        # isotropy arrows (x, sigma'(x)·sigma(x)⁻¹, x)
        g = fix_gauge_3_s3
        G = bundle_3_s3.group
        rng = np.random.default_rng(7)
        s = Section.random(bundle_3_s3, rng)
        sp = Section.random(bundle_3_s3, rng)
        c = {
            x: g.triple_index[(x, G.mul[sp.sigma[x]][G.inverse[s.sigma[x]]], x)]
            for x in g.base()
        }
        t = translation_subgroupoid(g, s)
        tp = translation_subgroupoid(g, sp)
        conjugated = set()
        for a in t.arrows:
            y, x = g.tgt[a], g.src[a]
            conjugated.add(
                g.compose_table[(g.compose_table[(c[y], a)], g.inv[c[x]])]
            )
        assert conjugated == set(tp.arrows)


class TestHaarSums:
    def test_fiber_sum_matches_group_sum(self, fix_gauge_3_s3, rng):
        g = fix_gauge_3_s3
        f = GroupoidFunction.random(g, rng)
        for x in g.base():
            fiber_sum = sum(f.values[a] for a in g.isotropy_fiber(x))
            group_sum = sum(
                f.values[g.triple_index[(x, h, x)]]
                for h in range(g.bundle.group.order)
            )
            assert fiber_sum == group_sum

    def test_translation_sum_matches_base_sum(self, fix_gauge_2_z2, bundle_2_z2, rng):
        g = fix_gauge_2_z2
        s = Section.identity(bundle_2_z2)
        g1 = translation_subgroupoid(g, s)
        f = GroupoidFunction.random(g, rng)
        x = 0
        into = [a for a in g1.arrows if g.tgt[a] == x]
        assert len(into) == g.n_base
        assert sorted(g.src[a] for a in into) == list(g.base())


@pytest.mark.parametrize("n,name", [(10**6, "Z2"), (100, "S3"), (65, "D4")])
def test_size_cap(n, name):
    """Above MAX_GAUGE_PAIRS composable pairs the build stops before it
    allocates anything; (32,D4), 2.1·10⁶ pairs, stays under the cap."""
    assert 32**3 * 8**2 <= MAX_GAUGE_PAIRS < n**3 * builtin_group(name).order ** 2
    bundle = FinitePrincipalBundle(n, builtin_group(name))
    tracemalloc.start()
    try:
        with pytest.raises(SizeCapError, match=r"^gauge groupoid too large: "):
            gauge_groupoid(bundle)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


class TestPoincareDecomposition:
    def test_all_z2_sections(self, bundle_2_z2):
        for sigma in itertools.product(range(2), repeat=2):
            result = verify_poincare_decomposition(bundle_2_z2, Section(sigma))
            assert result["passed"], result

    def test_seeded_s3_sections(self, bundle_3_s3):
        rng = np.random.default_rng(11)
        for _ in range(3):
            s = Section.random(bundle_3_s3, rng)
            result = verify_poincare_decomposition(bundle_3_s3, s)
            assert result["passed"], result

    def test_checks_on_the_decomposition(self, bundle_3_s3):
        """The Prop 1 checks run on the carrier of poincare_decomposition and
        agree with prop1_equivalence building its own."""
        s = Section.random(bundle_3_s3, np.random.default_rng(5))
        dec = poincare_decomposition(bundle_3_s3, s)
        mine, theirs = prop1_on_carrier(dec.sd), prop1_equivalence(dec.gauge, dec.g0, dec.g1)
        assert mine.sd is dec.sd
        for field in ("j_exists", "J_is_iso", "i_map_verified"):
            assert getattr(mine, field) is getattr(theirs, field) is True
        assert mine.i_map.arrow_map == theirs.i_map.arrow_map
        assert mine.rho.arrow_map == theirs.rho.arrow_map
        assert verify_poincare_decomposition(bundle_3_s3, s)["passed"] is True

    def test_lorentz_check_reads_the_normal_form(self, monkeypatch):
        """An isotropy selection that drops the arrow (0, a, 0) of the one
        point Z2 bundle, still wide and closed, as the semidirect product
        and the decomposition read it: the check compares with the arrows
        (x, g, x) and fails. It used to compare that selection with itself."""
        from groupoidalg import gauge, semidirect
        from groupoidalg.groupoid import SubgroupoidSelection

        def dropped(g):
            return SubgroupoidSelection(g, isotropy_subgroupoid(g).arrows - {1})

        for module in (gauge, semidirect):
            monkeypatch.setattr(module, "isotropy_subgroupoid", dropped)
        bundle = FinitePrincipalBundle(1, builtin_group("Z2"))
        result = verify_poincare_decomposition(bundle, Section.identity(bundle))
        assert result["lorentz_is_isotropy"] is False
        assert result["passed"] is False

    def test_report_fields(self, bundle_2_z2):
        result = verify_poincare_decomposition(bundle_2_z2, Section.identity(bundle_2_z2))
        assert result["lorentz_is_isotropy"] is True
        assert result["prop1_biconditional"] is True
        assert result["section_identity"] is True
        assert "counting" in result["measures"]


class TestPoincareConvolve:
    def test_delta_composition(self, bundle_2_z2):
        dec = poincare_decomposition(bundle_2_z2, Section.identity(bundle_2_z2))
        sd = dec.sd
        w = carrier_weights(sd, HaarWeights.counting(dec.gauge))
        for (i, j), k in sd.compose_table.items():
            out = poincare_convolve(
                GroupoidFunction.delta(sd, i), GroupoidFunction.delta(sd, j), dec
            )
            expected = groupoid_convolve(
                GroupoidFunction.delta(sd, i), GroupoidFunction.delta(sd, j), w
            )
            assert np.max(np.abs(out.values - expected.values)) < 1e-12

    def test_random_agreement_z2(self, bundle_2_z2, rng):
        dec = poincare_decomposition(bundle_2_z2, Section((0, 1)))
        for _ in range(10):
            f1 = GroupoidFunction.random(dec.sd, rng)
            f2 = GroupoidFunction.random(dec.sd, rng)
            assert poincare_convolve_agreement(f1, f2, dec) < 1e-12

    def test_random_agreement_s3(self, bundle_3_s3):
        rng = np.random.default_rng(13)
        s = Section.random(bundle_3_s3, rng)
        dec = poincare_decomposition(bundle_3_s3, s)
        for _ in range(3):
            f1 = GroupoidFunction.random(dec.sd, rng)
            f2 = GroupoidFunction.random(dec.sd, rng)
            assert poincare_convolve_agreement(f1, f2, dec) < 1e-9

    def test_scaled_weights_agreement(self, bundle_2_z2, rng):
        dec = poincare_decomposition(bundle_2_z2, Section.identity(bundle_2_z2))
        w = HaarWeights(dec.gauge, 0.25 * np.ones(dec.gauge.n_arrows))
        f1 = GroupoidFunction.random(dec.sd, rng)
        f2 = GroupoidFunction.random(dec.sd, rng)
        assert poincare_convolve_agreement(f1, f2, dec, w) < 1e-12

    def test_carrier_mismatch_rejected(self, bundle_2_z2, fix_pair, rng):
        dec = poincare_decomposition(bundle_2_z2, Section.identity(bundle_2_z2))
        f = GroupoidFunction.random(fix_pair, rng)
        with pytest.raises(PreconditionError):
            poincare_convolve(f, f, dec)

    def test_weights_on_another_groupoid(self, bundle_2_z2, bundle_3_s3, rng):
        """Parent weights must live on the decomposition's gauge groupoid.
        Weights of the (2,Z2) gauge groupoid used to end in a bare IndexError,
        and those of a second (3,S3) gauge groupoid were taken silently."""
        dec = poincare_decomposition(bundle_3_s3, Section.random(bundle_3_s3, rng))
        f = GroupoidFunction.random(dec.sd, rng)
        calls = (
            lambda w: poincare_convolve(f, f, dec, w),
            lambda w: poincare_convolve_agreement(f, f, dec, w),
            lambda w: carrier_weights(dec.sd, w),
            lambda w: semidirect_convolve_pairform(f, f, dec.sd, w),
        )
        for other in (gauge_groupoid(bundle_2_z2), gauge_groupoid(bundle_3_s3)):
            w = HaarWeights.counting(other)
            for call in calls:
                with pytest.raises(PreconditionError, match="^weights must live on the"):
                    call(w)

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import LOOP, pair_times, relabeled_group
from groupoidalg import (
    FinitePrincipalBundle,
    builtin_group,
    cyclic,
    find_isomorphism,
    gauge_groupoid,
    group_groupoid,
    pair_groupoid,
    symmetric,
    verify_morphism,
)
from groupoidalg.errors import PreconditionError, SizeCapError
from groupoidalg.groupoid import FiniteGroupoid, GroupoidMorphism
from groupoidalg.groups import FiniteGroup
from groupoidalg.morphism import _close
from validation_oracle import oracle_find_isomorphism


def relabel(
    g: FiniteGroupoid, base_perm: list[int], arrow_perm: list[int]
) -> FiniteGroupoid:
    """Isomorphic copy with base point x renamed base_perm[x] and arrow a
    renamed arrow_perm[a]: the oracle for isomorphism search."""
    inv_b = [0] * g.n_base
    for x, y in enumerate(base_perm):
        inv_b[y] = x
    inv_a = [0] * g.n_arrows
    for a, b in enumerate(arrow_perm):
        inv_a[b] = a
    src = [0] * g.n_arrows
    tgt = [0] * g.n_arrows
    inv = [0] * g.n_arrows
    for a in g.arrows():
        src[arrow_perm[a]] = base_perm[g.src[a]]
        tgt[arrow_perm[a]] = base_perm[g.tgt[a]]
        inv[arrow_perm[a]] = arrow_perm[g.inv[a]]
    comp = {
        (arrow_perm[a], arrow_perm[b]): arrow_perm[c]
        for (a, b), c in g.compose_table.items()
    }
    ident = [0] * g.n_base
    for x in g.base():
        ident[base_perm[x]] = arrow_perm[g.identity[x]]
    labels = None
    if g.arrow_labels is not None:
        labels = tuple(g.arrow_labels[inv_a[a]] for a in g.arrows())
    blabels = None
    if g.base_labels is not None:
        blabels = tuple(g.base_labels[inv_b[x]] for x in g.base())
    return FiniteGroupoid(
        n_base=g.n_base,
        src=tuple(src),
        tgt=tuple(tgt),
        compose_table=comp,
        inv=tuple(inv),
        identity=tuple(ident),
        arrow_labels=labels,
        base_labels=blabels,
    )


def invert_isomorphism(m: GroupoidMorphism) -> GroupoidMorphism:
    arrow_map = [0] * m.codomain.n_arrows
    for a, b in enumerate(m.arrow_map):
        arrow_map[b] = a
    base_map = [0] * m.codomain.n_base
    for x, y in enumerate(m.base_map):
        base_map[y] = x
    return GroupoidMorphism(
        domain=m.codomain,
        codomain=m.domain,
        arrow_map=tuple(arrow_map),
        base_map=tuple(base_map),
    )


def identity_morphism(g):
    return GroupoidMorphism(
        domain=g,
        codomain=g,
        arrow_map=tuple(g.arrows()),
        base_map=tuple(g.base()),
    )


class TestVerifyMorphism:
    def test_identity_is_iso(self, fix_pair):
        assert verify_morphism(identity_morphism(fix_pair), require_iso=True).ok

    def test_collapse_to_identity_fails_bijectivity(self, fix_z3):
        e = fix_z3.identity[0]
        m = GroupoidMorphism(
            domain=fix_z3,
            codomain=fix_z3,
            arrow_map=(e,) * fix_z3.n_arrows,
            base_map=(0,),
        )
        rep = verify_morphism(m, require_iso=True)
        assert not rep.ok
        assert any(v.kind == "bijectivity" for v in rep.violations)
        # still a homomorphism
        assert verify_morphism(m, require_iso=False).ok

    def test_non_homomorphism_detected(self, fix_z3):
        # swap the two non-identity arrows: an anti-automorphism of Z3,
        # which is a homomorphism only for abelian groups - here it IS one,
        # so instead map the generator to itself and its square to identity
        e = fix_z3.identity[0]
        arrows = [a for a in fix_z3.arrows() if a != e]
        m = GroupoidMorphism(
            domain=fix_z3,
            codomain=fix_z3,
            arrow_map=tuple(
                a if a in (e, arrows[0]) else e for a in fix_z3.arrows()
            ),
            base_map=(0,),
        )
        rep = verify_morphism(m)
        assert not rep.ok
        assert any(v.axiom == "composition" for v in rep.violations)


class TestFindIsomorphism:
    def test_pair_to_self(self, fix_pair):
        m = find_isomorphism(fix_pair, fix_pair)
        assert m is not None
        assert verify_morphism(m, require_iso=True).ok

    def test_different_base_sizes(self, fix_pair, fix_z3):
        assert find_isomorphism(fix_pair, fix_z3) is None

    def test_same_order_different_structure(self):
        # Z4 and Z2 x Z2 would differ; cheaper: Z4 vs pair groupoid over 2
        z4 = group_groupoid(cyclic(4))
        assert find_isomorphism(z4, pair_groupoid(2)) is None

    def test_z6_vs_s3(self):
        assert find_isomorphism(group_groupoid(cyclic(6)), group_groupoid(symmetric(3))) is None

    def test_gauge_quotient_vs_pair(self, fix_gauge_2_z2):
        from groupoidalg import isotropy_subgroupoid, quotient_by_isotropy

        q, _ = quotient_by_isotropy(
            fix_gauge_2_z2, isotropy_subgroupoid(fix_gauge_2_z2)
        )
        m = find_isomorphism(q, pair_groupoid(2))
        assert m is not None
        assert verify_morphism(m, require_iso=True).ok

    def test_size_cap(self, fix_gauge_3_s3):
        with pytest.raises(SizeCapError):
            find_isomorphism(fix_gauge_3_s3, fix_gauge_3_s3, max_arrows=10)

    def test_size_mismatch_rejected_before_cap(self):
        # the whole (4,D4) gauge groupoid against its quotient: 128 arrows
        # against 16, rejected on the counts without reaching the 64 cap
        from groupoidalg import (
            FinitePrincipalBundle, dihedral, gauge_groupoid, isotropy_subgroupoid,
            quotient_by_isotropy, selection_to_groupoid,
        )
        from groupoidalg.groupoid import SubgroupoidSelection

        gauge = gauge_groupoid(FinitePrincipalBundle(4, dihedral(4)))
        whole, _ = selection_to_groupoid(SubgroupoidSelection(gauge, frozenset(gauge.arrows())))
        quotient, _ = quotient_by_isotropy(gauge, isotropy_subgroupoid(gauge))
        assert (whole.n_arrows, quotient.n_arrows) == (128, 16)
        assert find_isomorphism(whole, quotient) is None
        assert find_isomorphism(quotient, whole) is None

    def test_inverse_roundtrip(self, fix_pair):
        m = find_isomorphism(fix_pair, fix_pair)
        inv = invert_isomorphism(m)
        assert verify_morphism(inv, require_iso=True).ok

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_relabeled_copies_always_found(self, seed):
        g = pair_groupoid(3)
        rng = np.random.default_rng(seed)
        h = relabel(
            g,
            list(rng.permutation(g.n_base)),
            list(rng.permutation(g.n_arrows)),
        )
        m = find_isomorphism(g, h)
        assert m is not None
        assert verify_morphism(m, require_iso=True).ok

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_relabeled_gauge_copies_found(self, seed, fix_gauge_2_z2):
        g = fix_gauge_2_z2
        rng = np.random.default_rng(seed)
        h = relabel(
            g,
            list(rng.permutation(g.n_base)),
            list(rng.permutation(g.n_arrows)),
        )
        m = find_isomorphism(g, h)
        assert m is not None
        assert verify_morphism(m, require_iso=True).ok


def _z4_by_z4(sign):
    """Z4×Z4 for sign 1; for sign -1 Z4⋊Z4, b acting on a by a ↦ -a. Both
    have 3 elements of order 2 and 12 of order 4."""
    pairs = [(a, b) for a in range(4) for b in range(4)]
    mul = tuple(tuple(pairs.index(((a + sign ** b * c) % 4, (b + d) % 4)) for c, d in pairs)
                for a, b in pairs)
    return FiniteGroup(f"Z4x{sign}Z4", tuple(f"{a}{b}" for a, b in pairs), mul)


def _union(*gs):
    """The disjoint union of groupoids, each one's ids after the last one's."""
    src, tgt, inv, identity, comp, base, arrow = [], [], [], [], {}, 0, 0
    for g in gs:
        src += [base + x for x in g.src]
        tgt += [base + x for x in g.tgt]
        inv += [arrow + a for a in g.inv]
        identity += [arrow + a for a in g.identity]
        comp.update({(arrow + a, arrow + b): arrow + c for (a, b), c in g.compose_table.items()})
        base, arrow = base + g.n_base, arrow + g.n_arrows
    return FiniteGroupoid(base, tuple(src), tuple(tgt), comp, tuple(inv), tuple(identity))


def _gauge(n, name, group=None):
    return gauge_groupoid(FinitePrincipalBundle(n, group or builtin_group(name)))


def _shuffled(g, seed):
    rng = np.random.default_rng(seed)
    return relabel(g, list(rng.permutation(g.n_base)), list(rng.permutation(g.n_arrows)))


def _verdict_cases():
    z4z4, z4_by_z4 = (group_groupoid(_z4_by_z4(sign)) for sign in (1, -1))
    v4 = group_groupoid(FiniteGroup("Z2xZ2", ("e", "a", "b", "ab"),
                                    tuple(tuple(i ^ j for j in range(4)) for i in range(4))))
    yield "Z4xZ4-Z4:Z4", z4z4, z4_by_z4
    yield "Z4:Z4-Z4:Z4", z4_by_z4, z4_by_z4
    relabeled = relabeled_group(_z4_by_z4(-1), np.random.default_rng(0))
    yield "Z4:Z4-relabeled", z4_by_z4, group_groupoid(relabeled)  # the first images fail
    yield "pair2+Z3-Z3+pair2", _union(pair_groupoid(2), group_groupoid(cyclic(3))), _union(
        group_groupoid(cyclic(3)), pair_groupoid(2))
    yield "pair2+Z4-pair2+V4", _union(pair_groupoid(2), group_groupoid(cyclic(4))), _union(
        pair_groupoid(2), v4)
    for n, name in [(2, "D4"), (2, "S3"), (4, "Z3"), (4, "Z4")]:
        yield f"gauge-{n}{name}-shuffled", _gauge(n, name), _shuffled(_gauge(n, name), n)
    relabeled = relabeled_group(builtin_group("D4"), np.random.default_rng(5))
    yield "gauge-2D4-relabeled-group", _gauge(2, "D4"), _shuffled(_gauge(2, "D4", relabeled), 5)


@pytest.mark.parametrize("g,h", [c[1:] for c in _verdict_cases()],
                         ids=[c[0] for c in _verdict_cases()])
def test_find_isomorphism_verdict_equals_oracle(g, h):
    """The orbit matching finds a map exactly when the exhaustive search
    does, and any map it finds is an isomorphism."""
    got = find_isomorphism(g, h)
    assert (got is None) == (oracle_find_isomorphism(g, h) is None)
    if got is not None:
        assert verify_morphism(got, require_iso=True).ok


def test_find_isomorphism_on_a_table_that_is_no_groupoids():
    """A non-associative table has no star coordinates to match."""
    g = pair_times(1, LOOP)
    with pytest.raises(PreconditionError, match="not a groupoid's"):
        find_isomorphism(g, g)


Z4 = np.array(cyclic(4).mul)


@pytest.mark.parametrize("phi,closed", [
    ([0, 1, -1, -1], [0, 1, 2, 3]),
    ([0, 3, -1, -1], [0, 3, 2, 1]),
    ([0, 1, 3, -1], None),  # 1·1 = 2 is sent to 3, not to 1 + 1
    ([0, 2, -1, -1], None),  # 1 ↦ 2 sends 2 to 0, the image of 0
])
def test_close(phi, closed):
    """A partial map of Z4 to itself closed under products, or None when
    the closure meets two images for one element or one for two."""
    got = _close(np.array(phi), Z4, Z4)
    assert (got is None) if closed is None else (got.tolist() == closed)

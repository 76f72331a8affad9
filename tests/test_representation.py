import re

import numpy as np
import pytest

from groupoidalg import (
    FiniteGroupoid,
    GroupoidFunction,
    HaarWeights,
    HilbertBundle,
    UnitaryRep,
    block_diagonal_generators,
    check_commutation,
    check_equivariance,
    commutant,
    contains_in_span,
    norm_bound,
    operator_norm,
    quantize,
    random_operator_from,
    simple_extension,
    spectral_norm,
    validate_rep,
)
from conftest import identity_translations
from groupoidalg import representation
from groupoidalg.cli import _regular_matrices, _regular_rep
from groupoidalg.errors import PreconditionError, SizeCapError
from rep_oracle import trivial_rep


@pytest.fixture(scope="module")
def reg_z2(fix_gauge_2_z2):
    return _regular_rep(fix_gauge_2_z2)


@pytest.fixture(scope="module")
def reg_s3(fix_gauge_3_s3):
    return _regular_rep(fix_gauge_3_s3)


class TestValidateRep:
    def test_trivial_rep_valid(self, fix_gauge_2_z2, fix_pair):
        for g in (fix_gauge_2_z2, fix_pair):
            assert validate_rep(trivial_rep(g)).ok

    def test_regular_rep_valid(self, reg_z2, reg_s3):
        assert validate_rep(reg_z2).ok
        assert validate_rep(reg_s3).ok

    def test_scaled_rep_fails_unitarity(self, fix_gauge_2_z2, reg_z2):
        scaled = UnitaryRep(
            fix_gauge_2_z2, reg_z2.bundle, {a: 2.0 * m for a, m in reg_z2.U.items()}
        )
        report = validate_rep(scaled)
        assert not report.ok
        assert any(c == "unitarity" for c, _, _ in report.violations)

    def test_broken_composition_detected(self, fix_gauge_2_z2, reg_z2):
        g = fix_gauge_2_z2
        U = dict(reg_z2.U)
        # an order-2 arrow must not get a unitary of order 4
        bad = next(a for a in U if not g.is_identity(a))
        U[bad] = np.diag([1.0, 1j])
        report = validate_rep(UnitaryRep(g, reg_z2.bundle, U))
        assert not report.ok
        assert any(c == "composition" for c, _, _ in report.violations)

    def test_wrong_shape_rejected(self, fix_gauge_2_z2):
        bundle = HilbertBundle((2, 2))
        U = {fix_gauge_2_z2.identity[0]: np.eye(3)}
        with pytest.raises(PreconditionError):
            validate_rep(UnitaryRep(fix_gauge_2_z2, bundle, U))


class TestSimpleExtension:
    def test_identity_translations_z2(self, fix_gauge_2_z2, reg_z2, decomposition_2_z2):
        sd = decomposition_2_z2.sd
        I = identity_translations(fix_gauge_2_z2, sd.g1)
        assert check_commutation(reg_z2, I, sd).ok
        ext = simple_extension(reg_z2, I, sd)
        assert set(ext.U) == set(sd.arrows())
        assert validate_rep(ext).ok

    def test_identity_translations_s3(self, fix_gauge_3_s3, reg_s3, decomposition_3_s3):
        sd = decomposition_3_s3.sd
        I = identity_translations(fix_gauge_3_s3, sd.g1)
        ext = simple_extension(reg_s3, I, sd)
        assert validate_rep(ext).ok

    def test_swap_translations_give_second_extension(
        self, fix_gauge_2_z2, reg_z2, decomposition_2_z2
    ):
        # abelian fiber group: conjugating by any unitary family that is
        # itself a representation still satisfies the commutation relation
        g = fix_gauge_2_z2
        sd = decomposition_2_z2.sd
        swap = np.array([[0, 1], [1, 0]], dtype=complex)
        I = {}
        for a1 in sd.g1.arrows:
            I[a1] = np.eye(2, dtype=complex) if g.src[a1] == g.tgt[a1] else swap
        ext = simple_extension(reg_z2, I, sd)
        assert validate_rep(ext).ok
        ident = identity_translations(g, sd.g1)
        other = simple_extension(reg_z2, ident, sd)
        assert any(
            np.max(np.abs(ext.U[i] - other.U[i])) > 0.5 for i in sd.arrows()
        )

    def test_non_representation_family_rejected(
        self, fix_gauge_2_z2, reg_z2, decomposition_2_z2
    ):
        g = fix_gauge_2_z2
        sd = decomposition_2_z2.sd
        swap = np.array([[0, 1], [1, 0]], dtype=complex)
        I = identity_translations(g, sd.g1)
        # break functoriality in one direction only
        bad = next(a1 for a1 in sd.g1.arrows if g.src[a1] != g.tgt[a1])
        I[bad] = swap
        with pytest.raises(PreconditionError):
            simple_extension(reg_z2, I, sd)

    def test_commutation_failure_rejected(
        self, fix_gauge_3_s3, reg_s3, decomposition_3_s3
    ):
        # conjugate the fiber at base point 0 by a transposition: the family
        # is still a representation of the translations, but it no longer
        # intertwines the (trivial) conjugation action on a nonabelian fiber
        g = fix_gauge_3_s3
        sd = decomposition_3_s3.sd
        G = g.bundle.group
        t = next(a for a in range(G.order) if G.element_order(a) == 2)
        V = [np.eye(6, dtype=complex) for _ in range(3)]
        V[0] = reg_s3.U[g.triple_index[(0, t, 0)]]
        I = {}
        for a1 in sd.g1.arrows:
            y, x = g.tgt[a1], g.src[a1]
            I[a1] = V[y] @ V[x].conj().T
        rep = check_commutation(reg_s3, I, sd)
        assert not rep.ok
        with pytest.raises(PreconditionError):
            simple_extension(reg_s3, I, sd)


class TestPartialRepresentations:
    """A U0 without one of its isotropy arrows, or a U with a key outside
    the groupoid, is refused with PreconditionError naming the arrow, not
    with a KeyError or IndexError from inside a loop."""

    @pytest.fixture
    def partial(self, fix_gauge_2_z2, reg_z2, decomposition_2_z2):
        U = {a: m for a, m in reg_z2.U.items() if a != 0}
        sd = decomposition_2_z2.sd
        I = identity_translations(fix_gauge_2_z2, sd.g1)
        return UnitaryRep(fix_gauge_2_z2, reg_z2.bundle, U), I, sd

    @staticmethod
    def missing(g):
        return f"U0 does not cover arrow {re.escape(g.arrow_label(0))}"

    def test_check_commutation(self, partial, fix_gauge_2_z2):
        U0, I, sd = partial
        with pytest.raises(PreconditionError, match=self.missing(fix_gauge_2_z2)):
            check_commutation(U0, I, sd)

    def test_simple_extension(self, partial, fix_gauge_2_z2):
        U0, I, sd = partial
        with pytest.raises(PreconditionError, match=self.missing(fix_gauge_2_z2)):
            simple_extension(U0, I, sd)

    def test_check_equivariance(self, partial, fix_gauge_2_z2):
        U0, I, sd = partial
        w = HaarWeights.counting(fix_gauge_2_z2)
        with pytest.raises(PreconditionError, match=self.missing(fix_gauge_2_z2)):
            check_equivariance(GroupoidFunction.zero(fix_gauge_2_z2), U0, I, sd, w)

    def test_validate_rep_key_outside_the_groupoid(self, fix_gauge_2_z2, reg_z2):
        U = {**reg_z2.U, 999: np.eye(2)}
        with pytest.raises(PreconditionError, match="arrow 999"):
            validate_rep(UnitaryRep(fix_gauge_2_z2, reg_z2.bundle, U))

    def test_quantize(self, partial, fix_gauge_2_z2):
        U0, _, _ = partial
        g = fix_gauge_2_z2
        with pytest.raises(PreconditionError, match=self.missing(g)):
            quantize(GroupoidFunction.zero(g), U0, g.src[0], HaarWeights.counting(g))

    def test_random_operator_from(self, partial, fix_gauge_2_z2):
        U0, _, _ = partial
        g = fix_gauge_2_z2
        with pytest.raises(PreconditionError, match=self.missing(g)):
            random_operator_from(GroupoidFunction.zero(g), U0, HaarWeights.counting(g))

    def test_a_U0_of_another_groupoid(self, fix_gauge_2_z2, fix_z3):
        # read against the function's groupoid, as before the stack was kept
        # on U0: its one fiber does not fit the two base points
        g = fix_gauge_2_z2
        with pytest.raises(PreconditionError, match="bundle has 1 fibers for 2 base points"):
            random_operator_from(GroupoidFunction.zero(g), trivial_rep(fix_z3),
                                 HaarWeights.counting(g))


class TestKeptStack:
    """A UnitaryRep stacks its unitaries once, on first use, and keeps the
    stack; U is a read-only mapping of read-only matrices, so the stack
    cannot go stale."""

    @pytest.fixture
    def ext(self, fix_gauge_2_z2, reg_z2, decomposition_2_z2):
        sd = decomposition_2_z2.sd
        return simple_extension(reg_z2, identity_translations(fix_gauge_2_z2, sd.g1), sd)

    @pytest.mark.parametrize("which", ["U0", "extension"])
    def test_U_is_read_only(self, which, reg_z2, ext):
        rep = reg_z2 if which == "U0" else ext
        a = next(iter(rep.U))
        with pytest.raises(TypeError):
            rep.U[a] = np.eye(2)
        with pytest.raises(ValueError, match="read-only"):
            rep.U[a][0, 0] = 5
        for kept in rep.stacked:
            with pytest.raises(ValueError, match="read-only"):
                kept[0] = 0

    def test_the_callers_matrices_are_copied(self, fix_gauge_2_z2, reg_z2):
        U = {a: np.array(m) for a, m in reg_z2.U.items()}
        rep = UnitaryRep(fix_gauge_2_z2, reg_z2.bundle, U)
        a = next(iter(U))
        U[a][0, 0] = 7
        U[a] = 2 * U[a]
        assert np.array_equal(rep.U[a], reg_z2.U[a])
        assert validate_rep(rep).ok

    def test_stacked_once_per_rep(self, fix_gauge_2_z2, reg_z2, decomposition_2_z2,
                                  monkeypatch):
        g, sd = fix_gauge_2_z2, decomposition_2_z2.sd
        U0 = UnitaryRep(g, reg_z2.bundle, reg_z2.U)
        I = identity_translations(g, sd.g1)
        calls, stack = [], representation._stack

        def counted(g, b, U, *args, **kw):
            calls.append(U)
            return stack(g, b, U, *args, **kw)

        monkeypatch.setattr(representation, "_stack", counted)
        w = HaarWeights.counting(g)
        a = GroupoidFunction.zero(g)
        exts = []
        for _ in range(2):
            validate_rep(U0)
            random_operator_from(a, U0, w)
            quantize(a, U0, 0, w)
            block_diagonal_generators(g, U0, w)
            check_equivariance(a, U0, I, sd, w)
            exts.append(simple_extension(U0, I, sd))
            validate_rep(exts[-1])
        # U0 once, the extensions never: their kept stacks are the products
        assert sum(U is U0.U for U in calls) == 1
        assert all(ext.stacked[0] is ext.U.S for ext in exts)
        # the family I once per check_equivariance and per simple_extension
        assert sum(U is I for U in calls) == len(calls) - 1 == 4

    @pytest.mark.parametrize("how", ["scaled", "partial"])
    def test_a_read_rep_reports_as_a_fresh_one(self, how, fix_gauge_3_s3, reg_s3):
        g = fix_gauge_3_s3
        U = dict(reg_s3.U)
        a0 = next(iter(U))
        if how == "scaled":
            U[a0] = 1.5 * U[a0]
        else:
            del U[a0]
        read, fresh = (UnitaryRep(g, reg_s3.bundle, U) for _ in range(2))
        f = GroupoidFunction.zero(g)
        try:
            random_operator_from(f, read, HaarWeights.counting(g))
        except PreconditionError:
            assert how == "partial"
        got, want = validate_rep(read), validate_rep(fresh)
        assert not want.ok
        assert (got.violations, got.max_deviation, got.notes, got.composition) == (
            want.violations, want.max_deviation, want.notes, want.composition)

    def test_a_bad_key_is_refused_at_every_reader(self, fix_gauge_2_z2, reg_z2):
        # the stack is built whole on first use, so a U0 reader refuses a
        # key outside the groupoid, though it reads only isotropy arrows
        g = fix_gauge_2_z2
        rep = UnitaryRep(g, reg_z2.bundle, {**reg_z2.U, 999: np.eye(2)})
        w = HaarWeights.counting(g)
        for _ in range(2):
            with pytest.raises(PreconditionError, match="arrow 999"):
                random_operator_from(GroupoidFunction.zero(g), rep, w)


class TestQuantize:
    def test_constant_z2(self, fix_gauge_2_z2, reg_z2):
        g = fix_gauge_2_z2
        w = HaarWeights.counting(g)
        fiber = g.isotropy_fiber(0)
        a = GroupoidFunction.zero(g)
        a.values[fiber] = 1.0
        m = quantize(a, reg_z2, 0, w)
        assert np.allclose(m, np.array([[1, 1], [1, 1]]))

    def test_delta_gives_unitary(self, fix_gauge_3_s3, reg_s3):
        g = fix_gauge_3_s3
        w = HaarWeights.counting(g)
        for g0 in g.isotropy_fiber(1):
            m = quantize(GroupoidFunction.delta(g, g0), reg_s3, 1, w)
            assert np.allclose(m, reg_s3.U[g0])

    def test_off_fiber_support_rejected(self, fix_gauge_2_z2, reg_z2):
        g = fix_gauge_2_z2
        w = HaarWeights.counting(g)
        off = next(a for a in g.arrows() if g.src[a] != g.tgt[a])
        with pytest.raises(PreconditionError):
            quantize(GroupoidFunction.delta(g, off), reg_z2, 0, w)

    def test_multiplicative_via_fiber_convolution(self, fix_gauge_3_s3, reg_s3, rng):
        from convolution_oracle import fiber_convolve

        g = fix_gauge_3_s3
        w = HaarWeights.counting(g)
        fiber = g.isotropy_fiber(2)
        a1 = GroupoidFunction.random(g, rng, support=fiber)
        a2 = GroupoidFunction.random(g, rng, support=fiber)
        lhs = quantize(fiber_convolve(a1, a2, 2, w), reg_s3, 2, w)
        rhs = quantize(a1, reg_s3, 2, w) @ quantize(a2, reg_s3, 2, w)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


class TestNorms:
    def test_spectral_norm_matches_svd(self, rng):
        for _ in range(10):
            m = rng.random((5, 5)) + 1j * rng.random((5, 5))
            assert spectral_norm(m) == pytest.approx(np.linalg.norm(m, 2), abs=1e-9)

    def test_delta_identity_norm_one(self, fix_gauge_3_s3, reg_s3):
        g = fix_gauge_3_s3
        w = HaarWeights.counting(g)
        vals = np.zeros(g.n_arrows, dtype=complex)
        for e in g.identity:
            vals[e] = 1.0
        ro = random_operator_from(GroupoidFunction(g, vals), reg_s3, w)
        assert operator_norm(ro) == pytest.approx(1.0, abs=1e-9)

    def test_z2_constant_norm_two(self, fix_gauge_2_z2, reg_z2):
        g = fix_gauge_2_z2
        w = HaarWeights.counting(g)
        iso = [a for x in g.base() for a in g.isotropy_fiber(x)]
        a = GroupoidFunction.zero(g)
        a.values[iso] = 1.0
        ro = random_operator_from(a, reg_z2, w)
        assert operator_norm(ro) == pytest.approx(2.0, abs=1e-9)

    def test_bound_inequality_random(self, fix_gauge_3_s3, reg_s3, rng):
        g = fix_gauge_3_s3
        w = HaarWeights.counting(g)
        iso = [a for x in g.base() for a in g.isotropy_fiber(x)]
        for _ in range(20):
            a = GroupoidFunction.random(g, rng, support=iso)
            ro = random_operator_from(a, reg_s3, w)
            assert operator_norm(ro) <= norm_bound(a, w)

    def test_bound_with_an_empty_isotropy_fiber(self):
        """Arrow 1 runs from base point 1 to 0, and no arrow sits at 1: the
        tables pass the structure pass, and the fiber at 1 sums to 0."""
        g = FiniteGroupoid(2, (0, 1), (0, 0), {(0, 0): 0, (0, 1): 1}, (0, 1), (0, 1))
        assert g.isotropy_fiber(1) == []
        assert norm_bound(GroupoidFunction(g, [3.0, 5.0]), HaarWeights.counting(g)) == 3.0

    def test_non_isotropy_support_rejected(self, fix_gauge_2_z2, reg_z2):
        g = fix_gauge_2_z2
        w = HaarWeights.counting(g)
        off = next(a for a in g.arrows() if g.src[a] != g.tgt[a])
        with pytest.raises(PreconditionError):
            random_operator_from(GroupoidFunction.delta(g, off), reg_z2, w)


class TestEquivariance:
    def test_z2_regular(self, fix_gauge_2_z2, reg_z2, decomposition_2_z2, rng):
        g = fix_gauge_2_z2
        sd = decomposition_2_z2.sd
        w = HaarWeights.counting(g)
        I = identity_translations(g, sd.g1)
        iso = [a for x in g.base() for a in g.isotropy_fiber(x)]
        a = GroupoidFunction.random(g, rng, support=iso)
        rep = check_equivariance(a, reg_z2, I, sd, w)
        assert rep.ok
        assert rep.max_deviation <= 1e-9

    def test_s3_regular_many_trials(self, fix_gauge_3_s3, reg_s3, decomposition_3_s3):
        g = fix_gauge_3_s3
        sd = decomposition_3_s3.sd
        w = HaarWeights.counting(g)
        I = identity_translations(g, sd.g1)
        iso = [a for x in g.base() for a in g.isotropy_fiber(x)]
        rng = np.random.default_rng(99)
        for _ in range(50):
            a = GroupoidFunction.random(g, rng, support=iso)
            assert check_equivariance(a, reg_s3, I, sd, w).ok


def _mixed(gens):
    """The generators conjugated by one fixed real orthogonal matrix that
    mixes the fibers: the same algebra in another basis, over which no
    generator is block-diagonal, so commutant takes the generic path."""
    k = len(gens[0])
    Q = np.linalg.qr(np.random.default_rng(20).standard_normal((k, k)))[0]
    return [Q @ m @ Q.T for m in gens]


@pytest.fixture
def paths(monkeypatch):
    """The path each commutant level took, in order: "fiber" or "generic".
    A level counts when its path gave the basis or refused it at the cap."""
    ran = []

    def record(name, level):
        def run(*args):
            try:
                basis = level(*args)
            except SizeCapError:
                ran.append(name)
                raise
            if basis is not None:
                ran.append(name)
            return basis
        return run

    monkeypatch.setattr(representation, "_fiber_level",
                        record("fiber", representation._fiber_level))
    monkeypatch.setattr(representation, "_stacked_level",
                        record("generic", representation._stacked_level))
    return ran


class TestCommutant:
    def test_z2_regular_block(self):
        # 2x2 regular representation of the two-element group
        I2 = np.eye(2, dtype=complex)
        swap = np.array([[0, 1], [1, 0]], dtype=complex)
        first = commutant([I2, swap], levels=1)
        second = commutant([I2, swap], levels=2)
        assert first.dimension == 2
        assert second.dimension == 2
        for m in (I2, swap):
            assert contains_in_span(second.basis, m)

    def test_contains_in_span_takes_a_stack(self):
        """A stack is inside when every matrix is: one solve for all."""
        I2 = np.eye(2, dtype=complex)
        swap = np.array([[0, 1], [1, 0]], dtype=complex)
        unit = np.array([[1, 0], [0, 0]], dtype=complex)
        inside = np.stack([I2, swap, 2 * I2 - 3j * swap])
        assert contains_in_span([I2, swap], inside)
        assert not contains_in_span([I2, swap], np.concatenate([inside, unit[None]]))
        assert contains_in_span([I2, swap], list(inside))
        assert not contains_in_span([I2, swap], unit)
        assert contains_in_span([], np.zeros((3, 2, 2)))

    def test_identity_only_has_full_commutant(self):
        res = commutant([np.eye(2, dtype=complex)])
        assert res.dimension == 4

    def test_block_generators_gauge_z2(self, fix_gauge_2_z2, reg_z2):
        from groupoidalg import block_diagonal_generators

        g = fix_gauge_2_z2
        w = HaarWeights.counting(g)
        gens = block_diagonal_generators(g, reg_z2, w)
        first = commutant(gens, levels=1)
        second = commutant(gens, levels=2)
        # block-diagonal algebra over two 2-dim group-algebra blocks
        assert first.dimension == 4
        assert second.dimension == 4
        assert all(contains_in_span(second.basis, m) for m in gens)

    def test_size_cap(self):
        from groupoidalg.errors import SizeCapError

        with pytest.raises(SizeCapError):
            commutant([np.eye(40, dtype=complex)], max_entries=100)

    def test_cap_counts_stacked_system(self, fix_gauge_2_z2, reg_z2, paths):
        """Four 4x4 generators stack a 64x16 system: 1,024 entries, not k² = 16.
        Mixed across the fibers, they take the generic path."""
        from groupoidalg import block_diagonal_generators

        gens = _mixed(block_diagonal_generators(
            fix_gauge_2_z2, reg_z2, HaarWeights.counting(fix_gauge_2_z2)
        ))
        with pytest.raises(SizeCapError, match="1024 entries"):
            commutant(gens, max_entries=100)
        assert commutant(gens, max_entries=1024).dimension == 4
        assert set(paths) == {"generic"}

    def test_cap_counts_fiber_blocks(self, fix_gauge_2_z2, reg_z2, paths):
        """On the fiber path each of the two fibers stacks its two 2x2
        generators as an 8x4 system: 64 entries at each level."""
        from groupoidalg import block_diagonal_generators

        gens = block_diagonal_generators(
            fix_gauge_2_z2, reg_z2, HaarWeights.counting(fix_gauge_2_z2)
        )
        with pytest.raises(SizeCapError, match="^commutator systems of 2 fiber blocks have "
                                               "64 entries, above the cap of 63$"):
            commutant(gens, max_entries=63)
        assert commutant(gens, levels=2, max_entries=64).dimension == 4
        assert set(paths) == {"fiber"}

    def test_cap_checked_at_each_level(self):
        from groupoidalg.errors import SizeCapError

        # one 2x2 generator: 16 entries at level 1; its 4-dim commutant
        # stacks 64 entries at level 2
        gens = [np.eye(2, dtype=complex)]
        assert commutant(gens, levels=1, max_entries=16).dimension == 4
        with pytest.raises(SizeCapError, match="64 entries"):
            commutant(gens, levels=2, max_entries=16)

    def test_default_cap_rejects_4_d4(self, monkeypatch, paths):
        from groupoidalg import FinitePrincipalBundle, block_diagonal_generators, dihedral
        from groupoidalg import gauge_groupoid

        g = gauge_groupoid(FinitePrincipalBundle(4, dihedral(4)))
        gens = _mixed(block_diagonal_generators(g, _regular_rep(g), HaarWeights.counting(g)))

        def no_kron(*args):
            raise AssertionError("the commutator system was built past the cap")

        # 32 generators of size 32, mixed across the fibers: the generic path
        # stacks 3.4e7 entries, refused before any allocation
        monkeypatch.setattr(np, "kron", no_kron)
        with pytest.raises(SizeCapError, match="33554432 entries"):
            commutant(gens)
        assert paths == ["generic"]

    def test_default_cap_runs_4_d4_by_fibers(self, monkeypatch, paths):
        """The same generators unmixed: four fibers of 8 generators of size 8
        stack 4·8·8⁴ = 131,072 entries, under the default cap, and a lower
        cap refuses them before any SVD."""
        from groupoidalg import FinitePrincipalBundle, block_diagonal_generators, dihedral
        from groupoidalg import gauge_groupoid

        g = gauge_groupoid(FinitePrincipalBundle(4, dihedral(4)))
        gens = block_diagonal_generators(g, _regular_rep(g), HaarWeights.counting(g))
        second = commutant(gens, levels=2)
        assert second.dimension == 32
        assert contains_in_span(second.basis, gens)

        def no_svd(*args, **kwargs):
            raise AssertionError("a commutator system was solved past the cap")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        with pytest.raises(SizeCapError, match="131072 entries"):
            commutant(gens, max_entries=131071)
        assert paths == ["fiber", "fiber", "fiber"]

    def test_commutant_members_commute(self, rng):
        m = rng.random((4, 4)) + 1j * rng.random((4, 4))
        res = commutant([m])
        for b in res.basis:
            assert np.max(np.abs(b @ m - m @ b)) < 1e-8

    @pytest.mark.parametrize(
        "gens, levels, message",
        [
            ([np.eye(2)], 3, "levels must be 1 or 2"),
            ([], 1, "at least one generator is required"),
            ([np.eye(2), np.eye(3)], 1, "generators must be square matrices of equal size"),
            ([np.ones((2, 3))], 1, "generators must be square matrices of equal size"),
        ],
        ids=["levels", "no-generators", "unequal", "not-square"],
    )
    def test_preconditions(self, gens, levels, message):
        with pytest.raises(PreconditionError, match=message):
            commutant(gens, levels=levels)

    @pytest.mark.parametrize("name", ["Z5", "S3"])
    def test_qr_reduction_matches_svd_alone(self, name, monkeypatch):
        """The regular representation at k = 5 and 6 stacks 25 and 36
        columns, from _QR_COLUMNS on: the null spaces found through R span
        what the SVD of the whole stack finds."""
        from groupoidalg import cyclic, representation, symmetric

        G = {"Z5": cyclic(5), "S3": symmetric(3)}[name]
        eye = np.eye(G.order, dtype=complex)
        gens = [eye[:, G.mul[g]] for g in range(G.order)]
        qr, calls = np.linalg.qr, []
        monkeypatch.setattr(np.linalg, "qr", lambda *a, **kw: calls.append(1) or qr(*a, **kw))
        reduced = commutant(gens, levels=2)
        assert len(calls) == 2  # one stack per level
        monkeypatch.setattr(representation, "_QR_COLUMNS", 10**9)
        whole = commutant(gens, levels=2)
        assert len(calls) == 2
        assert reduced.dimension == whole.dimension == G.order

        def projector(basis):
            V = np.array([b.ravel() for b in basis])
            return V.T @ V.conj()

        dev = np.max(np.abs(projector(reduced.basis) - projector(whole.basis)))
        assert dev < 1e-9


def _projector(basis):
    V = np.array([b.ravel() for b in basis])
    return V.T @ V.conj()


def _commutant_dim(gens):
    """k² minus the rank of the stacked commutator system, by numpy's rank."""
    k = len(gens[0])
    eye = np.eye(k)
    return k * k - np.linalg.matrix_rank(
        np.vstack([np.kron(eye, m.T) - np.kron(m, eye) for m in gens]), tol=1e-9)


def _block_diag(*blocks):
    k = sum(len(b) for b in blocks)
    m, at = np.zeros((k, k), dtype=complex), 0
    for b in blocks:
        m[at:at + len(b), at:at + len(b)] = b
        at += len(b)
    return m


class TestFiberPath:
    """commutant on the fiber path against the generic stacked SVD, which
    is what runs when _fiber_blocks proves no split."""

    SIZES = [(2, "Z2"), (2, "Z4"), (3, "Z3"), (2, "S3"), (3, "S3"), (2, "file")]

    @staticmethod
    def generators(n, name, tmp_path):
        """block_diagonal_generators of the regular representation at (n, G);
        "file" is S3 relabeled and read back from a group-table file."""
        from conftest import relabeled_group
        from groupoidalg import FinitePrincipalBundle, block_diagonal_generators
        from groupoidalg import builtin_group, gauge_groupoid, symmetric
        from groupoidalg import io as gio
        from groupoidalg.cli import _load_group
        from groupoidalg.groups import group_to_table

        if name == "file":
            path = tmp_path / "group.json"
            G = relabeled_group(symmetric(3), np.random.default_rng(5))
            gio.dump_json(group_to_table(G), path)
            G = _load_group(str(path))
        else:
            G = builtin_group(name)
        g = gauge_groupoid(FinitePrincipalBundle(n, G))
        return block_diagonal_generators(g, _regular_rep(g), HaarWeights.counting(g)), n * G.order

    @pytest.mark.parametrize("levels", [1, 2])
    @pytest.mark.parametrize("n, name", SIZES, ids=[f"{n}{name}" for n, name in SIZES])
    def test_matches_the_stacked_svd(self, n, name, levels, tmp_path, monkeypatch, paths):
        gens, dim = self.generators(n, name, tmp_path)
        fiber = commutant(gens, levels=levels)
        with monkeypatch.context() as m:
            m.setattr(representation, "_fiber_blocks", lambda mats: None)
            generic = commutant(gens, levels=levels, max_entries=10**9)
        assert paths == ["fiber"] * levels + ["generic"] * levels
        assert fiber.dimension == generic.dimension == dim
        assert np.abs(_projector(fiber.basis) - _projector(generic.basis)).max() <= 1e-9
        V = np.array([b.ravel() for b in fiber.basis])
        assert np.abs(V.conj() @ V.T - np.eye(dim)).max() <= 1e-9

    def test_generator_coupling_two_fibers_falls_back(self, tmp_path, paths):
        """A matrix unit between fibers 0 and 1 joins them into one block
        with no c·P_B generator; fiber 2 alone would split off."""
        gens, _ = self.generators(3, "Z2", tmp_path)
        coupling = np.zeros((6, 6), dtype=complex)
        coupling[0, 2] = coupling[2, 0] = 1
        gens = gens + [coupling]
        res = commutant(gens)
        assert paths == ["generic"]
        assert res.dimension == _commutant_dim(gens)
        for b in res.basis:
            assert all(np.abs(b @ m - m @ b).max() <= 1e-9 for m in gens)

    def test_fiber_without_its_projection_falls_back(self, tmp_path, paths):
        """Fiber 1 keeps L(a), L(a²), L(a³) but loses w(e)·U0(e)."""
        gens, dim = self.generators(2, "Z4", tmp_path)
        P1 = _block_diag(np.zeros((4, 4)), np.eye(4))
        gens = [m for m in gens if not np.array_equal(m, P1)]
        assert len(gens) == 7
        res = commutant(gens, levels=2)
        assert paths == ["generic", "generic"]
        assert res.dimension == dim  # L(a)⁴ = P1: the algebra is the same

    def test_repeated_fiber_keeps_its_intertwiners(self, paths, monkeypatch):
        """L(g) ⊕ L(g) has two fibers as support components but no generator
        c·P_B: its commutant holds the maps between the fibers, M₂ ⊗ R(G),
        of dimension 4·|G|. A split forced over the fibers finds 2·|G|."""
        from groupoidalg import symmetric

        G = symmetric(3)
        gens = [_block_diag(L, L) for L in _regular_matrices(G)]
        res = commutant(gens)
        assert paths == ["generic"]
        assert res.dimension == _commutant_dim(gens) == 4 * G.order
        split = (np.arange(12), np.array([0, 6]), np.array([6, 6]))
        monkeypatch.setattr(representation, "_fiber_blocks", lambda mats: split)
        assert commutant(gens).dimension == 2 * G.order
        assert paths == ["generic", "fiber"]

    def test_blocks_of_different_shapes(self, paths, monkeypatch):
        """Blocks of sizes 2, 3, 3 and 1: {I, swap}, {I, L(a)} of Z3,
        {I, N} with N = E₀₁ + E₀₂ and {7i}. The two 3-blocks share a shape
        and one batched SVD but not a rank: their commutants have dimensions
        3 and 5, and at level 2 the four blocks have four shapes."""
        from groupoidalg import cyclic

        swap, La = _regular_matrices(cyclic(2))[1], _regular_matrices(cyclic(3))[1]
        N = np.zeros((3, 3))
        N[0, 1] = N[0, 2] = 1
        blocks = [[np.eye(2), swap], [np.eye(3), La], [np.eye(3), N], [7j * np.eye(1)]]
        zeros = [np.zeros((len(b[0]),) * 2) for b in blocks]
        gens = [_block_diag(*zeros[:i], m, *zeros[i + 1:])
                for i, block in enumerate(blocks) for m in block]
        first, second = commutant(gens), commutant(gens, levels=2)
        assert first.dimension == _commutant_dim(gens) == 2 + 3 + 5 + 1
        assert second.dimension == _commutant_dim(first.basis) == 2 + 3 + 2 + 1
        assert paths == ["fiber"] * 3
        monkeypatch.setattr(representation, "_fiber_blocks", lambda mats: None)
        for fiber in (first, second):
            generic = commutant(gens, levels=2 if fiber is second else 1)
            assert np.abs(_projector(fiber.basis) - _projector(generic.basis)).max() <= 1e-9

    def test_block_without_a_matrix_is_not_split(self):
        """A level whose matrices leave a block empty proves no split there."""
        blocks = (np.arange(4), np.array([0, 2]), np.array([2, 2]))
        mats = np.stack([_block_diag(np.eye(2), np.zeros((2, 2)))])
        assert representation._fiber_level(mats, blocks, 10**9, 1e-9) is None

    def test_rank_rule_per_block(self, fix_gauge_2_z2, reg_z2, paths):
        """s > tol·max(s₀, 1) on each block: generators far below tol leave
        every block its full d×d commutant. The split itself is exact, so
        the generic path, which sees only a system below tol, finds k²."""
        from groupoidalg import block_diagonal_generators

        gens = block_diagonal_generators(
            fix_gauge_2_z2, reg_z2, HaarWeights.counting(fix_gauge_2_z2))
        tiny = [1e-10 * m for m in gens]
        assert commutant(tiny).dimension == 2 * 2**2
        assert commutant(_mixed(tiny)).dimension == 4**2
        assert paths == ["fiber", "generic"]

    def test_zero_generator_is_ignored(self, paths):
        gens = [np.eye(2, dtype=complex), np.zeros((2, 2))]
        gens[0][1, 1] = 0
        gens.append(_block_diag(np.zeros((1, 1)), np.eye(1)))
        assert commutant(gens).dimension == 2
        assert paths == ["fiber"]

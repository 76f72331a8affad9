"""The representation kernels against the loop oracles in rep_oracle.py: the
same violations in the same order with the same witnesses and messages,
max_deviation within 1e-12, and quantize, random_operator_from, norm_bound
and operator_norm bit for bit. Instances: the regular representation over
relabeled group tables and random sections, the same conjugated by a random
unitary per fiber (inexact entries), mixed fiber dimensions, and corrupted
representations."""

from functools import lru_cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import relabeled_group
from groupoidalg import (
    FinitePrincipalBundle,
    GroupoidFunction,
    HaarWeights,
    HilbertBundle,
    Section,
    UnitaryRep,
    builtin_group,
    check_commutation,
    check_equivariance,
    norm_bound,
    operator_norm,
    poincare_decomposition,
    quantize,
    random_operator_from,
    simple_extension,
    validate_rep,
)
from groupoidalg import FiniteGroupoid, gauge_groupoid, groupoid, pair_groupoid
from groupoidalg.cli import _regular_matrices
from groupoidalg.errors import PreconditionError
from rep_oracle import (
    oracle_check_commutation,
    oracle_check_equivariance,
    oracle_norm_bound,
    oracle_quantize,
    oracle_random_operator_from,
    oracle_simple_extension,
    oracle_stack,
    oracle_validate_rep,
)

DEV_TOL = 1e-12


def same_outcome(kernel, oracle):
    """Both give equal reports, or both refuse the input: the oracle with
    its own error (KeyError where an arrow is missing, ValueError where
    shapes do not multiply), the kernel with PreconditionError, the same
    message where the oracle's is one too."""
    try:
        want = oracle()
    except (PreconditionError, KeyError, ValueError) as exc:
        with pytest.raises(PreconditionError) as info:
            kernel()
        if isinstance(exc, PreconditionError):
            assert str(info.value) == str(exc)
        return None
    got = kernel()
    assert got.violations == want.violations
    if np.isnan(want.max_deviation):
        assert np.isnan(got.max_deviation)
    else:
        assert abs(got.max_deviation - want.max_deviation) <= DEV_TOL
    assert got.notes == want.notes
    return got


@lru_cache(maxsize=None)
def decomposition(n, name, relabel, section):
    G = builtin_group(name)
    if relabel is not None:
        G = relabeled_group(G, np.random.default_rng(relabel))
    bundle = FinitePrincipalBundle(n, G)
    return poincare_decomposition(bundle, Section.random(bundle, np.random.default_rng(section)))


def _unitary(d, rng):
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def representation(dec, kind, rng):
    """U0 on the isotropy arrows and the unitary family I on the g1 arrows.
    regular: L(g) on (y, g, x); conjugated: V_y L(g) V_x* with a random
    unitary V_x per fiber; mixed: L(g) at base point 0 and the trivial
    representation elsewhere, with I(a1) the d_y×d_x corner of the identity
    (unitary only between fibers of equal dimension)."""
    gauge = dec.gauge
    L = _regular_matrices(gauge.bundle.group)
    m = len(L)
    iso = [a for x in gauge.base() for a in gauge.isotropy_fiber(x)]
    if kind == "mixed":
        dims = (m,) + (1,) * (gauge.n_base - 1)
        U0 = {a: L[gauge.triples[a][1]] if gauge.src[a] == 0 else np.eye(1) for a in iso}
        I = {a1: np.eye(dims[gauge.tgt[a1]], dims[gauge.src[a1]]) for a1 in dec.g1.arrows}
        return UnitaryRep(gauge, HilbertBundle(dims), U0), I
    V = [_unitary(m, rng) if kind == "conjugated" else np.eye(m) for _ in gauge.base()]

    def conj(a, u):
        return V[gauge.tgt[a]] @ u @ V[gauge.src[a]].conj().T

    U0 = {a: conj(a, L[gauge.triples[a][1]]) for a in iso}
    I = {a1: conj(a1, L[gauge.triples[a1][1]]) for a1 in dec.g1.arrows}
    return UnitaryRep(gauge, HilbertBundle((m,) * gauge.n_base), U0), I


def corrupt(U, how, rng):
    """One matrix scaled, one arrow dropped, one matrix replaced by another
    arrow's, or one matrix made NaN."""
    U = dict(U)
    keys = list(U)
    k = keys[rng.integers(len(keys))]
    if how == "scale":
        U[k] = (1.5 + rng.random()) * U[k]
    elif how == "nan":
        U[k] = np.full(np.shape(U[k]), np.nan)
    elif how == "drop":
        del U[k]
    elif how == "replace" and len(keys) > 1:
        U[k] = U[keys[(keys.index(k) + 1 + rng.integers(len(keys) - 1)) % len(keys)]]
    return U


GROUPS = ["Z2", "Z3", "Z4", "S3", "D4"]


@st.composite
def instances(draw):
    n = draw(st.integers(1, 3))
    name = draw(st.sampled_from(GROUPS))
    relabel = draw(st.sampled_from([None, 0, 1]))
    dec = decomposition(n, name, relabel, draw(st.integers(0, 2)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["regular", "conjugated", "mixed"]))
    U0, I = representation(dec, kind, rng)
    return dec, U0, I, rng


CORRUPTIONS = [None, "scale", "drop", "replace", "nan"]


def _weights(dec, rng):
    """Haar weights: one constant on the isotropy arrows, random elsewhere."""
    gauge = dec.gauge
    iso = np.array([gauge.src[a] == gauge.tgt[a] for a in gauge.arrows()])
    return HaarWeights(gauge, np.where(iso, 0.5 + rng.random(), 0.5 + rng.random(iso.size)))


class TestValidateRep:
    @settings(max_examples=60, deadline=None)
    @given(inst=instances(), target=st.sampled_from(["U0", "I", "extension"]),
           how=st.sampled_from(CORRUPTIONS))
    def test_reports_match_oracle(self, inst, target, how):
        dec, U0, I, rng = inst
        if target == "U0":
            rep = U0
        elif target == "I":
            rep = UnitaryRep(dec.gauge, U0.bundle, I)
        else:
            try:
                rep = oracle_simple_extension(U0, I, dec.sd)
            except PreconditionError:  # mixed dims: I is no representation
                return
        if how is not None:
            rep = UnitaryRep(rep.groupoid, rep.bundle, corrupt(rep.U, how, rng))
        report = same_outcome(lambda: validate_rep(rep), lambda: oracle_validate_rep(rep))
        if how is None and report is not None and target != "I":
            assert report.ok
        if how == "nan" and report is not None:
            assert not report.ok


class TestCommutationAndExtension:
    @settings(max_examples=60, deadline=None)
    @given(inst=instances(), target=st.sampled_from(["U0", "I"]),
           how=st.sampled_from(CORRUPTIONS))
    def test_reports_match_oracle(self, inst, target, how):
        dec, U0, I, rng = inst
        if how is not None and target == "U0":
            U0 = UnitaryRep(U0.groupoid, U0.bundle, corrupt(U0.U, how, rng))
        elif how is not None:
            I = corrupt(I, how, rng)
        same_outcome(lambda: check_commutation(U0, I, dec.sd),
                     lambda: oracle_check_commutation(U0, I, dec.sd))
        try:
            want = oracle_simple_extension(U0, I, dec.sd)
        except (PreconditionError, KeyError, ValueError) as exc:
            with pytest.raises(PreconditionError) as info:
                simple_extension(U0, I, dec.sd)
            if isinstance(exc, PreconditionError):
                assert str(info.value) == str(exc)
            return
        got = simple_extension(U0, I, dec.sd)
        assert list(got.U) == list(want.U)
        for i in want.U:
            assert got.U[i].shape == want.U[i].shape
            assert np.max(np.abs(got.U[i] - want.U[i]), initial=0.0) <= DEV_TOL


class TestQuantization:
    @settings(max_examples=60, deadline=None)
    @given(inst=instances())
    def test_bit_identical(self, inst):
        dec, U0, _, rng = inst
        gauge = dec.gauge
        w = _weights(dec, rng)
        iso = [a for x in gauge.base() for a in gauge.isotropy_fiber(x)]
        a = GroupoidFunction.random(gauge, rng, support=iso)
        ro, want = random_operator_from(a, U0, w), oracle_random_operator_from(a, U0, w)
        assert list(ro.blocks) == list(want.blocks)
        for x in gauge.base():
            assert ro.blocks[x].tobytes() == want.blocks[x].tobytes()
            f = a.restrict(gauge.isotropy_fiber(x))
            assert quantize(f, U0, x, w).tobytes() == oracle_quantize(f, U0, x, w).tobytes()
        assert operator_norm(ro) == operator_norm(want)
        assert norm_bound(a, w) == oracle_norm_bound(a, w)

    @settings(max_examples=60, deadline=None)
    @given(inst=instances(), target=st.sampled_from(["U0", "I"]),
           how=st.sampled_from(CORRUPTIONS))
    def test_equivariance_matches_oracle(self, inst, target, how):
        dec, U0, I, rng = inst
        w = _weights(dec, rng)
        a = GroupoidFunction.random(dec.gauge, rng)  # check_equivariance restricts it
        if how is not None and target == "U0":
            U0 = UnitaryRep(U0.groupoid, U0.bundle, corrupt(U0.U, how, rng))
        elif how is not None:
            I = corrupt(I, how, rng)
        report = same_outcome(lambda: check_equivariance(a, U0, I, dec.sd, w),
                              lambda: oracle_check_equivariance(a, U0, I, dec.sd, w))
        if how is None and U0.bundle.dims == (U0.bundle.dims[0],) * len(U0.bundle.dims):
            assert report.ok


@pytest.mark.parametrize("n,name", [(2, "Z2"), (3, "S3"), (4, "D4")])
def test_ladder(n, name):
    """The regular representation and the simple extension at the ladder
    sizes, random section, against the loops."""
    dec = decomposition(n, name, None, n)
    U0, I = representation(dec, "regular", None)
    assert same_outcome(lambda: validate_rep(U0), lambda: oracle_validate_rep(U0)).ok
    ext = simple_extension(U0, I, dec.sd)
    report = same_outcome(lambda: validate_rep(ext), lambda: oracle_validate_rep(ext))
    assert report.ok and report.max_deviation == 0.0
    a = GroupoidFunction.random(dec.gauge, np.random.default_rng(n))
    w = HaarWeights.counting(dec.gauge)
    assert same_outcome(lambda: check_equivariance(a, U0, I, dec.sd, w),
                        lambda: oracle_check_equivariance(a, U0, I, dec.sd, w)).ok


@pytest.mark.parametrize("n,name", [(2, "Z2"), (3, "S3"), (4, "D4"), (8, "Z4"), (12, "S3"),
                                    (16, "D4")])
@pytest.mark.parametrize("kind", ["regular", "conjugated", "mixed"])
def test_kept_stack_equals_a_fresh_stack(n, name, kind):
    """The stack a rep keeps is its U stacked one arrow at a time, byte for
    byte: for U0, the family I and the extension, whose kept stack is its
    product stack.
    The mixed fiber dimensions pad the stacks of U0 and I with zeros; they
    have no extension, I being unitary on no arrow between fibers of
    different dimensions."""
    dec = decomposition(n, name, None, n)
    U0, I = representation(dec, kind, np.random.default_rng(n))
    reps = [U0, UnitaryRep(dec.gauge, U0.bundle, I)]
    if kind != "mixed":
        reps.append(simple_extension(U0, I, dec.sd))
    for rep in reps:
        S, covered, keys = rep.stacked
        want, want_covered = oracle_stack(rep)
        for got, ref in ((S, want), (covered, want_covered)):
            assert (got.dtype, got.shape) == (ref.dtype, ref.shape)
            assert got.tobytes() == ref.tobytes()
        assert keys.tolist() == list(rep.U)


def test_a_rep_of_an_equal_groupoid_object_reads_the_same():
    """A U0 given on a groupoid object other than the one read, with the
    same arrows, is stacked against the one read: the same operators and
    reports as the U0 on it."""
    dec = decomposition(3, "S3", None, 1)
    rng = np.random.default_rng(5)
    U0, I = representation(dec, "conjugated", rng)
    twin = UnitaryRep(gauge_groupoid(dec.gauge.bundle), U0.bundle, U0.U)
    assert twin.groupoid is not dec.gauge
    w = _weights(dec, rng)
    a = GroupoidFunction.random(dec.gauge, rng, support=dec.gauge._product_slots().iso[0])
    got, want = random_operator_from(a, twin, w), random_operator_from(a, U0, w)
    assert all(got.blocks[x].tobytes() == want.blocks[x].tobytes() for x in want.blocks)
    got, want = check_equivariance(a, twin, I, dec.sd, w), check_equivariance(a, U0, I, dec.sd, w)
    assert (got.violations, got.max_deviation) == (want.violations, want.max_deviation)
    got, want = simple_extension(twin, I, dec.sd), simple_extension(U0, I, dec.sd)
    assert got.stacked[0].tobytes() == want.stacked[0].tobytes()


def test_nan_matrix_is_a_violation(fix_gauge_2_z2):
    """A NaN deviation is a violation that names it, and max_deviation is
    NaN, in the kernel and the oracle alike; both used to pass the matrix
    with max_deviation 0.0."""
    g = fix_gauge_2_z2
    U = {a: np.eye(2, dtype=complex) for a in g.arrows()}
    U[1] = np.full((2, 2), np.nan)
    rep = UnitaryRep(g, HilbertBundle((2, 2)), U)
    report = same_outcome(lambda: validate_rep(rep), lambda: oracle_validate_rep(rep))
    assert not report.ok and np.isnan(report.max_deviation)
    assert f"U({g.arrow_label(1)}) is not unitary (deviation nan)" in [
        m for _, _, m in report.violations
    ]


# --- composition on the star coordinates -------------------------------------
#
# validate_rep checks composition on the star coordinates when U covers every
# arrow, the convolution plan proves the table a groupoid's and every
# deviation it reads is at most min(tol, 1)/(8·D); otherwise it scans the
# composable pairs. The tests compare the two, the pair scan forced by
# reporting that the plan does not build, and the loop oracle where it is
# quick.


def pair_scan(rep, tol=1e-9):
    """validate_rep as if the plan did not build, so on the pair scan."""
    with mock.patch.object(groupoid._Tables, "proves", lambda self: False):
        report = validate_rep(rep, tol)
    assert report.composition == "pairs"
    return report


def extension(n, name, kind, relabel=None, section=None, seed=0):
    dec = decomposition(n, name, relabel, n if section is None else section)
    U0, I = representation(dec, kind, np.random.default_rng(seed))
    return oracle_simple_extension(U0, I, dec.sd)


def replaced(rep, U):
    return UnitaryRep(rep.groupoid, rep.bundle, {**rep.U, **U})


def union(*reps):
    """The representation on the disjoint union of the reps' groupoids,
    ids shifted part by part, with a dict compose table."""
    src, tgt, inv, ident, comp, U, dims = [], [], [], [], {}, {}, ()
    n_base = n_arrows = 0
    for rep in reps:
        p = rep.groupoid
        src += [x + n_base for x in p.src]
        tgt += [x + n_base for x in p.tgt]
        inv += [a + n_arrows for a in p.inv]
        ident += [a + n_arrows for a in p.identity]
        comp.update({(a + n_arrows, b + n_arrows): c + n_arrows
                     for (a, b), c in p.compose_table.items()})
        U.update({a + n_arrows: m for a, m in rep.U.items()})
        dims += rep.bundle.dims
        n_base, n_arrows = n_base + p.n_base, n_arrows + p.n_arrows
    g = FiniteGroupoid(n_base, tuple(src), tuple(tgt), comp, tuple(inv), tuple(ident))
    return UnitaryRep(g, HilbertBundle(dims), U)


def star_coordinates(g):
    """The root, star arrow and k of the plan: root[x] is the source of σ_x."""
    plan = g._product_slots().plan(g.arrow_label)
    return g._tables.src[plan.star], plan.star, plan.k


class TestStarPath:
    @pytest.mark.parametrize("n,name", [(2, "Z2"), (3, "S3"), (4, "D4"), (8, "Z4"),
                                        (12, "S3"), (16, "D4")])
    @pytest.mark.parametrize("kind", ["regular", "conjugated"])
    def test_ladder(self, n, name, kind):
        ext = extension(n, name, kind)
        report = same_outcome(lambda: validate_rep(ext), lambda: pair_scan(ext))
        assert report.ok and report.composition == "star"
        if kind == "regular":
            assert report.max_deviation == 0.0
        if n <= 4:
            same_outcome(lambda: validate_rep(ext), lambda: oracle_validate_rep(ext))

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 3), name=st.sampled_from(GROUPS),
           relabel=st.sampled_from([None, 0, 1]), section=st.integers(0, 2),
           kind=st.sampled_from(["regular", "conjugated"]), seed=st.integers(0, 2**32 - 1))
    def test_random_sections_and_conjugates(self, n, name, relabel, section, kind, seed):
        ext = extension(n, name, kind, relabel, section, seed)
        report = same_outcome(lambda: validate_rep(ext), lambda: oracle_validate_rep(ext))
        assert report.ok and report.composition == "star"

    def test_two_orbits(self):
        """The disjoint union of two carriers, fibers of dimension 2 and 6:
        one root per orbit, and the star check on both."""
        rep = union(extension(2, "Z2", "conjugated"), extension(3, "S3", "conjugated", seed=1))
        report = same_outcome(lambda: validate_rep(rep), lambda: oracle_validate_rep(rep))
        assert report.ok and report.composition == "star"
        assert star_coordinates(rep.groupoid)[0].tolist() == [0, 0, 2, 2, 2]

    def test_composition_off_a_groupoid_takes_the_pair_scan(self):
        """The (2,Z2) gauge groupoid as a dict, (0,a,1)∘(1,e,0), ids (3, 4),
        redirected from (0,a,0) to (0,e,0): no groupoid's table, so its plan
        does not build. The sign representation U(y,g,x) = χ(g) meets every
        star equation and G_r's products, yet U(3)·U(4) = −1 ≠ U(0) = 1;
        the pair scan reports it."""
        gauge = gauge_groupoid(FinitePrincipalBundle(2, builtin_group("Z2")))
        assert gauge.triples[3:5] == ((0, 1, 1), (1, 0, 0)) and gauge.compose(3, 4) == 2
        comp = {**gauge.compose_table, (3, 4): 0}
        g = FiniteGroupoid(2, gauge.src, gauge.tgt, comp, gauge.inv, gauge.identity)
        U = {a: np.array([[(-1.0) ** h]]) for a, (_, h, _) in enumerate(gauge.triples)}
        rep = UnitaryRep(g, HilbertBundle((1, 1)), U)
        report = same_outcome(lambda: validate_rep(rep), lambda: oracle_validate_rep(rep))
        assert not report.ok and report.composition == "pairs"
        assert [(cond, w) for cond, w, _ in report.violations] == [("composition", (3, 4))]

    def test_partial_cover_falls_back(self):
        """U0 on the isotropy arrows, the family I on the g1 arrows, and
        the extension less one arrow cover part of the arrows."""
        dec = decomposition(3, "S3", None, 1)
        U0, I = representation(dec, "conjugated", np.random.default_rng(0))
        ext = oracle_simple_extension(U0, I, dec.sd)
        g = ext.groupoid
        less = UnitaryRep(g, ext.bundle, {a: m for a, m in ext.U.items() if a != 5})
        root = UnitaryRep(g, ext.bundle, {a: ext.U[a] for a in g.isotropy_fiber(0)})
        for rep in (U0, UnitaryRep(dec.gauge, U0.bundle, I), less, root):
            report = same_outcome(lambda: validate_rep(rep), lambda: oracle_validate_rep(rep))
            assert report.composition == "pairs"
        assert report.ok  # the isotropy group at the root: every star equation holds

    def test_isometry_between_fibers_of_two_dimensions_falls_back(self):
        """The pair groupoid on {0, 1}, fibers of dimension 2 and 1, with
        U((1,0)) = [1, 0] and U((0,1)) its adjoint: the identity, inverse
        and star equations hold, unitarity fails at (1,0), and so does the
        composition (0,1)∘(1,0) = (0,0)."""
        g = pair_groupoid(2)
        v = np.array([[1.0, 0.0]])
        rep = UnitaryRep(g, HilbertBundle((2, 1)), {0: np.eye(2), 1: v.T, 2: v, 3: np.eye(1)})
        report = same_outcome(lambda: validate_rep(rep), lambda: oracle_validate_rep(rep))
        assert report.composition == "pairs"
        assert [cond for cond, _, _ in report.violations] == ["unitarity", "composition"]

    def test_nan_falls_back(self):
        ext = extension(2, "D4", "regular")
        rep = replaced(ext, {3: np.full((8, 8), np.nan)})
        report = same_outcome(lambda: validate_rep(rep), lambda: oracle_validate_rep(rep))
        assert report.composition == "pairs" and not report.ok

    def test_no_coordinates_falls_back(self):
        ext = extension(3, "S3", "conjugated")
        same_outcome(lambda: pair_scan(ext), lambda: oracle_validate_rep(ext))
        empty = UnitaryRep(FiniteGroupoid(0, (), (), {}, (), ()), HilbertBundle(()), {})
        report = same_outcome(lambda: validate_rep(empty), lambda: oracle_validate_rep(empty))
        assert report.ok and report.composition == "pairs"

    @pytest.mark.parametrize("scale", [1 / 6, 1 / 2, 1.0, 4.0])
    def test_deviation_between_the_gate_and_tol(self, scale):
        """One matrix moved off by about tol·scale/4: a worst deviation above
        tol/(8·D) goes to the pair scan, whose report the oracle gives, with
        or without violations."""
        tol = 1e-6
        ext = extension(2, "D4", "conjugated")
        rng = np.random.default_rng(3)
        move = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        rep = replaced(ext, {6: ext.U[6] + tol * scale / 4 * move / np.abs(move).max()})
        report = same_outcome(lambda: validate_rep(rep, tol), lambda: oracle_validate_rep(rep, tol))
        assert report.composition == "pairs" and report.max_deviation > tol / (8 * 8)
        assert report.ok == (report.max_deviation <= tol)

    def test_gate_caps_tol_at_one(self):
        """A large tol does not widen the gate past 1/(8·D): the star check
        is sound only while D·ε is small."""
        ext = extension(2, "Z2", "regular")
        rep = replaced(ext, {1: 1.2 * ext.U[1]})
        report = same_outcome(lambda: validate_rep(rep, 10.0),
                              lambda: oracle_validate_rep(rep, 10.0))
        assert report.ok and report.composition == "pairs"

    @pytest.mark.parametrize("on", ["carrier", "gauge"])
    @pytest.mark.parametrize("n,name", [(3, "Z2"), (3, "D4")])
    def test_every_self_inverse_equation_is_read(self, n, name, on):
        """An involution a at a point other than the root is its own inverse,
        so −U(a) keeps unitarity, identity and inverse: only the star
        equation at a, and the compositions through a, see it. On the
        carrier, and on the gauge groupoid with L(g) on (y, g, x)."""
        if on == "carrier":
            ext = extension(n, name, "regular")
        else:
            gauge = gauge_groupoid(FinitePrincipalBundle(n, builtin_group(name)))
            L = _regular_matrices(gauge.bundle.group)
            ext = UnitaryRep(gauge, HilbertBundle((len(L),) * n),
                             {a: L[h] for a, (_, h, _) in enumerate(gauge.triples)})
        g, (root, _, _) = ext.groupoid, star_coordinates(ext.groupoid)
        seen = 0
        for a in g.arrows():
            x = g.src[a]
            if (g.tgt[a] != x or root[x] == x or g.inv[a] != a or a == g.identity[x]):
                continue
            rep = replaced(ext, {a: -ext.U[a]})
            report = same_outcome(lambda: validate_rep(rep), lambda: oracle_validate_rep(rep))
            assert not report.ok and report.composition == "pairs"
            assert {cond for cond, _, _ in report.violations} == {"composition"}
            seen += 1
        assert seen >= n - 1

    @pytest.mark.parametrize("name", ["S3", "D4"])
    def test_every_product_of_the_root_group_is_read(self, name):
        """U(a) = U(σ_y)·W(k)·U(σ_x)* with W the regular representation on
        G_r but for one pair {k, k⁻¹} turned to −W: every star equation,
        unitarity, identity and inverse hold, and only the products of G_r
        can tell that W is no representation."""
        assert_root_group_read(extension(3, name, "conjugated"), 0)

    def test_the_group_of_every_orbit_of_a_shape_is_read(self):
        """Two copies of one extension, so two orbits of one shape, with W
        wrong on the G_r of the second only."""
        ext = extension(3, "S3", "conjugated")
        assert_root_group_read(union(ext, ext), 3)


def assert_root_group_read(ext, r):
    """The test above, with W wrong on the group at root r only."""
    g, (_, star, ks) = ext.groupoid, star_coordinates(ext.groupoid)
    sigma = {x: ext.U[int(star[x])] for x in g.base()}
    seen = 0
    for k in g.isotropy_fiber(r):
        if k == g.identity[r] or k == star[r]:
            continue
        flip = {k, g.inv[k]}
        W = {h: -ext.U[h] if h in flip else ext.U[h] for h in set(ks.tolist())}
        U = {a: sigma[g.tgt[a]] @ W[int(ks[a])] @ sigma[g.src[a]].conj().T for a in g.arrows()}
        rep = UnitaryRep(g, ext.bundle, U)
        want = oracle_validate_rep(rep)
        if want.ok:  # the sign is a character of the group
            continue
        report = same_outcome(lambda: validate_rep(rep), lambda: want)
        assert report.composition == "pairs"
        assert {cond for cond, _, _ in report.violations} == {"composition"}
        seen += 1
    assert seen >= 2

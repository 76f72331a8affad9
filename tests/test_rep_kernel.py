"""The representation kernels against the loop oracles in rep_oracle.py: the
same violations in the same order with the same witnesses and messages,
max_deviation within 1e-12, and quantize, random_operator_from, norm_bound
and operator_norm bit for bit. Instances: the regular representation over
relabeled group tables and random sections, the same conjugated by a random
unitary per fiber (inexact entries), mixed fiber dimensions, and corrupted
representations."""

from functools import lru_cache

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
from groupoidalg.cli import _regular_matrices
from groupoidalg.errors import PreconditionError
from rep_oracle import (
    oracle_check_commutation,
    oracle_check_equivariance,
    oracle_norm_bound,
    oracle_quantize,
    oracle_random_operator_from,
    oracle_simple_extension,
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

"""Acceptance suite: the end-to-end checks, one printed verdict line per
criterion. Run with `pytest tests/test_acceptance.py -s` to see the lines."""

import dataclasses
import itertools
import json
import time

import numpy as np

from groupoidalg import (
    BundleFunction,
    FinitePrincipalBundle,
    GroupoidFunction,
    HaarWeights,
    Section,
    builtin_group,
    check_commutation,
    check_equivariance,
    commutant,
    contains_in_span,
    gauge_groupoid,
    groupoid_convolve,
    isotropy_subgroupoid,
    norm_bound,
    operator_norm,
    poincare_convolve_agreement,
    poincare_decomposition,
    prop1_equivalence,
    random_operator_from,
    simple_extension,
    twisted_convolve,
    validate_groupoid,
    verify_poincare_decomposition,
    verify_theorem1,
)
from conftest import identity_translations
from groupoidalg.cli import _regular_rep, main
from groupoidalg.groupoid import (
    AXIOM_ASSOCIATIVITY,
    AXIOM_IDENTITY,
    AXIOM_INVERSE,
    AXIOM_SOURCE_TARGET,
    SubgroupoidSelection,
)

GROUP_NAMES = ["Z2", "Z3", "Z4", "S3", "D4"]  # every builtin has order <= 8


def verdict(number, name, passed):
    print(f"[criterion {number}] {name}: {'PASS' if passed else 'FAIL'}")
    assert passed, f"criterion {number} ({name}) failed"


def test_criterion_1_axiom_suite(fix_pair, fix_z3, fix_gauge_2_z2, fix_gauge_3_s3):
    start = time.perf_counter()
    ok = all(
        validate_groupoid(g).ok
        for g in (fix_pair, fix_z3, fix_gauge_2_z2, fix_gauge_3_s3)
    )
    rng = np.random.default_rng(2026)
    for _ in range(20):
        n_base = int(rng.integers(1, 5))
        group = builtin_group(GROUP_NAMES[int(rng.integers(len(GROUP_NAMES)))])
        g = gauge_groupoid(FinitePrincipalBundle(n_base, group))
        ok = ok and validate_groupoid(g).ok
        # corrupt one composition entry and demand an attributed detection
        keys = sorted(g.compose_table)
        a, b = keys[int(rng.integers(len(keys)))]
        comp = dict(g.compose_table)
        comp[(a, b)] = (comp[(a, b)] + 1) % g.n_arrows
        report = validate_groupoid(dataclasses.replace(g, compose_table=comp))
        attributed = report.axioms_cited() & {
            AXIOM_SOURCE_TARGET,
            AXIOM_ASSOCIATIVITY,
            AXIOM_IDENTITY,
            AXIOM_INVERSE,
        }
        ok = ok and not report.ok and bool(attributed)
    elapsed = time.perf_counter() - start
    verdict(1, "axiom suite", ok and elapsed < 5.0)


def test_criterion_2_decomposition_biconditional(
    decomposition_2_z2, decomposition_3_s3, fix_gauge_2_z2
):
    start = time.perf_counter()
    ok = True
    for res in (decomposition_2_z2, decomposition_3_s3):
        ok = ok and res.j_exists and res.J_is_iso and res.j_exists == res.J_is_iso
    # counterexample: the full gauge groupoid as the transitive candidate
    g = fix_gauge_2_z2
    bad = prop1_equivalence(
        g, isotropy_subgroupoid(g), SubgroupoidSelection(g, frozenset(g.arrows()))
    )
    ok = ok and not bad.j_exists and not bad.J_is_iso
    elapsed = time.perf_counter() - start
    verdict(2, "decomposition biconditional", ok and elapsed < 10.0)


def test_criterion_3_convolution_isomorphism(decomposition_2_z2, decomposition_3_s3):
    start = time.perf_counter()
    ok = True
    for res in (decomposition_2_z2, decomposition_3_s3):
        report = verify_theorem1(res.sd, trials=100, seed=7, tol=1e-9)
        ok = ok and report.passed
    # associativity of both products on random triples
    sd = decomposition_3_s3.sd
    p = sd.parent
    w = HaarWeights.counting(p)
    w_carrier = HaarWeights.counting(sd)
    rng = np.random.default_rng(7)
    for _ in range(25):
        F = [BundleFunction.random(p, sd.g1, rng) for _ in range(3)]
        lhs = twisted_convolve(twisted_convolve(F[0], F[1], w), F[2], w)
        rhs = twisted_convolve(F[0], twisted_convolve(F[1], F[2], w), w)
        dev = max(
            float(np.max(np.abs(lhs.fibers[a1].values - rhs.fibers[a1].values)))
            for a1 in sd.g1.arrows
        )
        ok = ok and dev <= 1e-9
        f = [GroupoidFunction.random(sd, rng) for _ in range(3)]
        lhs2 = groupoid_convolve(groupoid_convolve(f[0], f[1], w_carrier), f[2], w_carrier)
        rhs2 = groupoid_convolve(f[0], groupoid_convolve(f[1], f[2], w_carrier), w_carrier)
        ok = ok and float(np.max(np.abs(lhs2.values - rhs2.values))) <= 1e-9
    elapsed = time.perf_counter() - start
    verdict(3, "convolution isomorphism", ok and elapsed < 30.0)


def test_criterion_4_norm_bound(fix_gauge_3_s3, fix_gauge_2_z2):
    g = fix_gauge_3_s3
    U0 = _regular_rep(g)
    w = HaarWeights.counting(g)
    iso = [a for x in g.base() for a in g.isotropy_fiber(x)]
    rng = np.random.default_rng(42)
    ok = True
    for _ in range(50):
        a = GroupoidFunction.random(g, rng, support=iso)
        ok = ok and operator_norm(random_operator_from(a, U0, w)) <= norm_bound(a, w)
    # delta at the identities: norm exactly 1
    vals = np.zeros(g.n_arrows, dtype=complex)
    for e in g.identity:
        vals[e] = 1.0
    n1 = operator_norm(random_operator_from(GroupoidFunction(g, vals), U0, w))
    ok = ok and abs(n1 - 1.0) <= 1e-9
    # constant function on the two-element fibers: norm exactly 2
    g2 = fix_gauge_2_z2
    U2 = _regular_rep(g2)
    w2 = HaarWeights.counting(g2)
    iso2 = [a for x in g2.base() for a in g2.isotropy_fiber(x)]
    vals2 = np.zeros(g2.n_arrows, dtype=complex)
    vals2[iso2] = 1.0
    n2 = operator_norm(random_operator_from(GroupoidFunction(g2, vals2), U2, w2))
    ok = ok and abs(n2 - 2.0) <= 1e-9
    verdict(4, "random operator norm bound", ok)


def test_criterion_5_commutation_and_equivariance(
    fix_gauge_2_z2, decomposition_2_z2
):
    g = fix_gauge_2_z2
    sd = decomposition_2_z2.sd
    U0 = _regular_rep(g)
    I = identity_translations(g, sd.g1)
    w = HaarWeights.counting(g)
    comm = check_commutation(U0, I, sd, tol=1e-9)
    ext_ok = True
    try:
        simple_extension(U0, I, sd, tol=1e-9)
    except Exception:
        ext_ok = False
    iso = [a for x in g.base() for a in g.isotropy_fiber(x)]
    rng = np.random.default_rng(17)
    eq_ok = True
    for _ in range(10):
        a = GroupoidFunction.random(g, rng, support=iso)
        report = check_equivariance(a, U0, I, sd, w, tol=1e-9)
        eq_ok = eq_ok and report.ok and report.max_deviation <= 1e-9
    verdict(5, "commutation and equivariance", comm.ok and ext_ok and eq_ok)


def test_criterion_6_section_independence(bundle_2_z2, bundle_3_s3):
    start = time.perf_counter()
    ok = True
    for sigma in itertools.product(range(2), repeat=2):
        ok = ok and verify_poincare_decomposition(bundle_2_z2, Section(sigma))["passed"]
    rng = np.random.default_rng(7)
    for _ in range(10):
        s = Section.random(bundle_3_s3, rng)
        ok = ok and verify_poincare_decomposition(bundle_3_s3, s)["passed"]
    elapsed = time.perf_counter() - start
    verdict(6, "section independence", ok and elapsed < 20.0)


def test_criterion_7_explicit_formula(bundle_2_z2, bundle_3_s3):
    ok = True
    rng = np.random.default_rng(23)
    for bundle in (bundle_2_z2, bundle_3_s3):
        s = Section.random(bundle, rng)
        dec = poincare_decomposition(bundle, s)
        for _ in range(10):
            f1 = GroupoidFunction.random(dec.sd, rng)
            f2 = GroupoidFunction.random(dec.sd, rng)
            ok = ok and poincare_convolve_agreement(f1, f2, dec) <= 1e-9
    verdict(7, "explicit convolution formula", ok)


def test_criterion_8_commutant():
    I2 = np.eye(2, dtype=complex)
    swap = np.array([[0, 1], [1, 0]], dtype=complex)
    gens = [I2, swap]
    first = commutant(gens, levels=1, tol=1e-9)
    second = commutant(gens, levels=2, tol=1e-9)
    contained = all(contains_in_span(second.basis, m, tol=1e-9) for m in gens)
    verdict(
        8,
        "commutant sanity",
        first.dimension == 2 and second.dimension == 2 and contained,
    )


def test_criterion_9_determinism(tmp_path):
    ok = True
    for argv in (
        ["verify-theorem1", "--base", "2", "--group", "Z2", "--trials", "25", "--seed", "7"],
        ["verify-poincare", "--base", "3", "--group", "S3", "--section", "random", "--seed", "7"],
        ["random-op", "--base", "2", "--group", "Z2", "--trials", "5", "--seed", "11"],
    ):
        r1 = tmp_path / "r1.json"
        r2 = tmp_path / "r2.json"
        ok = ok and main(argv + ["--report", str(r1)]) == 0
        ok = ok and main(argv + ["--report", str(r2)]) == 0
        d1 = json.loads(r1.read_text())
        d2 = json.loads(r2.read_text())
        d1.pop("timing_ms"), d2.pop("timing_ms")
        ok = ok and d1 == d2
    verdict(9, "deterministic reports", ok)

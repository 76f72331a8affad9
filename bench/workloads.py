"""The four benchmark workloads and the known-defect probes.

Each workload builds its fixed inputs once (``setup``) and then yields passes
of ops (``pass_ops``). Every pass holds the same multiset of ops, in an order
drawn from the seed, so the mix, and with it the rank of every percentile, is
the same in every pass and every run. An op is one call to a public library
function at one ladder size (one ``cli.main`` invocation in ``cli``). Its
inputs are prepared, and its output checked against an oracle, outside the
timed interval.

Why these workloads:

- ``decompose`` builds the tables (gauge groupoid, semidirect carrier,
  quotient) and validates them: the cubic associativity check, morphism
  checks, the Prop 1 search, the Poincaré check and a JSON round trip of the
  carrier. No convolution runs. Left out: ``validate_groupoid`` at (16,D4),
  which takes about 30 s per call here; ``find_isomorphism``, prop1 and the
  Poincaré check above base 8, where the 64-arrow search cap stops them.
- ``convolve`` reads the same tables through the four convolution kernels;
  decompositions and carriers are built in set-up, so table builders move
  only its set-up time.
- ``quantize`` exercises the representation layer: quantization, norms,
  equivariance, the simple extension and commutants. Left out:
  ``commutant`` at (4,D4) (k = 32), which asks for 16 GiB and dies with a
  MemoryError; once that is fixed its cost changes, and a later benchmark
  change should add it. ``commutant`` at (3,Z4) (k = 12), whose BLAS-bound
  time made ``ops_per_s`` unsteady (see COMMUTANT_SIZES). The power-iteration
  norm returns max over x of |Σ_g a_x(g)| (DEFECT_POWER_ITERATION), which
  is seldom short of the norm for random values in the complex unit
  square; the ops where it is are predicted from the values and marked as
  hitting that defect.
- ``cli`` runs all ten subcommands in process through ``cli.main`` with
  files in a temporary directory; it is the only workload that measures the
  CLI layer and its file writes. ``commutant`` runs only at k = n·|G| <= 9;
  (3,S3) takes about 30 s. At (9,Z2) only the subcommands that need no
  isomorphism search run. ``rep-check`` runs with the identity section.

The four workloads hold no op that is known to fail, so that a run's failed
count is 0 and the same in every run. The known defects are measured by
``probes``, which runs each of them once per pass and expects every op to
fail:

- ``prop1_equivalence`` at (9,Z2) and the six gauge subcommands that search
  for an isomorphism at (9,Z2): the 64-arrow cap of ``find_isomorphism``;
- ``operator_norm`` on zero-sum fiber functions δ_e − δ_a, where power
  iteration returns 0 against the true 2;
- ``rep-check --section random`` at (3,S3) and (4,D4) with a section whose
  translations are not central: the CLI pairs them with identity matrices.
"""

from __future__ import annotations

import contextlib
import io as _io
import json
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import groupoidalg as ga

import oracles as orc

LADDER = [(2, "Z2"), (3, "S3"), (4, "D4"), (8, "Z4"), (12, "S3"), (16, "D4")]

DEFECT_ISO_CAP = (
    "find_isomorphism is capped at 64 arrows; prop1 at base 9 compares two "
    "81-arrow pair groupoids (ROADMAP item 2, size ceiling)"
)
DEFECT_POWER_ITERATION = (
    "spectral_norm runs power iteration from the all-ones vector, an eigenvector "
    "of every L(g) with eigenvalue Σ_g a(g), so it returns max over x of "
    "|Σ_g a_x(g)|: 0 on zero-sum fiber functions, short of the norm whenever "
    "a non-trivial representation of G attains it (ROADMAP item 2, wrong norm)"
)
DEFECT_REP_CHECK_SECTION = (
    "rep-check pairs the section's translations with identity matrices, which "
    "breaks the commutation relation when a translation is not central"
)


def label(n: int, gname: str) -> str:
    return f"({n},{gname})"


@dataclass
class Op:
    """One op: ``call`` is timed; ``prepare`` and ``check`` are not.

    ``prepare(raw)`` returns the call's arguments, using the untraced library
    ``raw``; ``call(lib, *args)`` makes the library calls; ``check(result,
    *args)`` returns None when the output is right and a witness otherwise.
    ``work`` holds computed work counts; ``defect`` names the known defect an
    op probes, if it is expected to fail at this size. ``scaled`` is False
    for an op whose time is mostly spent outside the interpreter, which
    run.py does not scale by the reference work.
    """

    kind: str
    size: str
    prepare: Callable
    call: Callable
    check: Callable
    work: dict = field(default_factory=dict)
    defect: str | None = None
    scaled: bool = True


def _witness(dev: float, what: str = "deviation") -> str | None:
    return None if dev <= orc.TOL else f"{what} {dev:.3e} > tol {orc.TOL:.0e}"


def _expect(cond: bool, message: str) -> str | None:
    return None if cond else message


def _fixed(*args):
    return lambda raw: args


class Workload:
    """Base class: fixed inputs from ``setup``, ops from ``pass_ops``."""

    # chains (ops at one size) per pass, by size label; tuned so that the
    # p50 and p90 ranks fall inside a size class, not between two
    repeats: dict[str, int] = {}

    def __init__(self, out_dir: str):
        self.out_dir = out_dir

    def setup(self, lib, rng: np.random.Generator) -> dict:
        raise NotImplementedError

    def pass_ops(self, state: dict, rng: np.random.Generator):
        """The ops of one pass, chain by chain in seeded order. Ops are made
        lazily, so a chain's tables are freed before the next chain runs."""
        chains = []
        for key, chain in self.chains(state, rng):
            chains += [chain] * self.repeats.get(key, 1)
        for i in rng.permutation(len(chains)):
            yield from chains[i](rng)

    def chains(self, state, rng):
        raise NotImplementedError


class Decompose(Workload):
    # 203 ops per pass: the p50 rank falls among the 12 gauge_groupoid ops
    # at (4,D4), the p90 rank among the 12 verify_poincare_decomposition ops
    # at (4,D4), each at least 5 ops from the end of its block
    repeats = {"(2,Z2)": 4, "(4,D4)": 12, "(8,Z4)": 2}

    def setup(self, lib, rng):
        groups = {g: lib.builtin_group(g) for g in ("Z2", "S3", "D4", "Z4")}
        bundles = {label(n, g): ga.FinitePrincipalBundle(n, groups[g]) for n, g in LADDER}
        return {"bundles": bundles, "path": os.path.join(self.out_dir, "carrier.json")}

    def chains(self, state, rng):
        for n, g in LADDER:
            key = label(n, g)
            yield key, (lambda r, n=n, key=key: self.chain(state, key, n, r))

    def chain(self, state, key, n, rng):
        bundle = state["bundles"][key]
        m = bundle.group.order
        counts = orc.gauge_counts(n, m)
        st = {}
        seed = int(rng.integers(2**31))

        def build_gauge(result, b):
            st["gauge"] = result
            return _expect(
                result.n_arrows == counts["arrows"]
                and len(result.compose_table) == counts["pairs"],
                f"gauge groupoid has {result.n_arrows} arrows, "
                f"{len(result.compose_table)} pairs; want {counts['arrows']}, {counts['pairs']}",
            )

        def sections(raw):
            s = ga.Section.random(bundle, np.random.default_rng(seed))
            gauge = st["gauge"]
            st["section"] = s
            st["g0"] = raw.lorentz_subgroupoid(gauge)
            st["g1"] = raw.translation_subgroupoid(gauge, s)
            return gauge, st["g0"], st["g1"]

        def check_sd(sd, *args):
            st["sd"] = sd
            return _expect(
                sd.n_arrows == counts["arrows"],
                f"carrier has {sd.n_arrows} arrows, want n²·|G| = {counts['arrows']}",
            )

        def check_quotient(result, *args):
            st["quotient"], st["rho"] = result
            return _expect(
                result[0].n_arrows == n * n,
                f"quotient has {result[0].n_arrows} arrows, want n² = {n * n}",
            )

        def check_iso(m_, g, h):
            if m_ is None:
                return "no isomorphism found between g1 and the quotient"
            am = m_.arrow_map
            ok = sorted(am) == list(h.arrows()) and all(
                h.src[am[a]] == m_.base_map[g.src[a]] and h.tgt[am[a]] == m_.base_map[g.tgt[a]]
                for a in g.arrows()
            )
            return _expect(ok, "isomorphism is not a bijection preserving endpoints")

        def roundtrip(lib, sd, path):
            lib.dump_json(lib.groupoid_to_dict(sd), path)
            return lib.groupoid_from_dict(lib.load_json(path))

        io_work = dict(counts)

        def check_roundtrip(g2, sd, path):
            io_work["bytes_written"] = io_work["bytes_read"] = os.path.getsize(path)
            same = (
                g2.src == sd.src
                and g2.tgt == sd.tgt
                and g2.inv == sd.inv
                and g2.identity == sd.identity
                and g2.compose_table == sd.compose_table
            )
            return _expect(same, "reloaded carrier differs from the written one")

        ops = [
            Op("gauge.gauge_groupoid", key, _fixed(bundle),
               lambda lib, b: lib.gauge_groupoid(b), build_gauge, counts),
        ]
        if n < 16:
            ops.append(Op(
                "groupoid.validate_groupoid", key, lambda raw: (st["gauge"],),
                lambda lib, g: lib.validate_groupoid(g),
                lambda rep, g: _expect(rep.ok, f"{len(rep.violations)} axiom violations"),
                counts,
            ))
        ops += [
            Op("semidirect.semidirect_product", key, sections,
               lambda lib, *a: lib.semidirect_product(*a), check_sd, counts),
            Op("groupoid.quotient_by_isotropy", key, lambda raw: (st["gauge"], st["g0"]),
               lambda lib, *a: lib.quotient_by_isotropy(*a), check_quotient, counts),
            Op("morphism.verify_morphism", key + " rho", lambda raw: (st["rho"],),
               lambda lib, m_: lib.verify_morphism(m_),
               lambda rep, m_: _expect(rep.ok, "projection rho is not a morphism"), counts),
            Op("morphism.verify_morphism", key + " J", lambda raw: (raw.J_map(st["sd"]),),
               lambda lib, m_: lib.verify_morphism(m_, require_iso=True),
               lambda rep, m_: _expect(rep.ok, "J is not an isomorphism"), counts),
        ]
        if n <= 8:
            ops += [
                Op("morphism.find_isomorphism", key,
                   lambda raw: (raw.selection_to_groupoid(st["g1"])[0], st["quotient"]),
                   lambda lib, g, h: lib.find_isomorphism(g, h), check_iso,
                   {"arrows": n * n}),
                Op("semidirect.prop1_equivalence", key,
                   lambda raw: (st["gauge"], st["g0"], st["g1"]),
                   lambda lib, *a: lib.prop1_equivalence(*a), _check_prop1, counts),
                Op("gauge.verify_poincare_decomposition", key,
                   lambda raw: (bundle, st["section"]),
                   lambda lib, b, s: lib.verify_poincare_decomposition(b, s),
                   lambda res, b, s: _expect(res["passed"] is True,
                                             f"failed checks: {_failed_keys(res)}"),
                   counts),
            ]
        # at (16,D4) the round trip moves 27 MB through the json C code and
        # the file system, whose time does not follow the reference work
        ops.append(Op("io.roundtrip", key, lambda raw: (st["sd"], state["path"]),
                      roundtrip, check_roundtrip, io_work, scaled=n < 16))
        return ops


def _check_prop1(result, *args):
    return _expect(
        result.j_exists and result.J_is_iso,
        f"j_exists={result.j_exists} J_is_iso={result.J_is_iso}; both must hold "
        "on a gauge decomposition",
    )


def _failed_keys(res: dict) -> list[str]:
    return [k for k, v in res.items() if v is False]


def _carrier_setup(lib, bundle, seed: int, decompose: bool) -> dict:
    """Gauge groupoid, section, carrier and oracle indices at one size."""
    s = ga.Section.random(bundle, np.random.default_rng(seed))
    if decompose:
        dec = lib.poincare_decomposition(bundle, s)
        gauge, sd = dec.gauge, dec.sd
    else:
        dec = None
        gauge = lib.gauge_groupoid(bundle)
        sd = lib.semidirect_product(
            gauge, lib.lorentz_subgroupoid(gauge), lib.translation_subgroupoid(gauge, s)
        )
    G = bundle.group
    cidx = orc.carrier_index(sd, gauge, G)
    if len(set(zip(*cidx))) != sd.n_arrows:
        raise RuntimeError(f"J is not injective at {label(bundle.n_base, G.name)}")
    return {"bundle": bundle, "gauge": gauge, "sd": sd, "dec": dec,
            "gidx": orc.triple_index(gauge), "cidx": cidx}


class Convolve(Workload):
    sizes = LADDER[1:]
    # 131 ops per pass: the p50 rank falls among the 24 groupoid_convolve
    # ops at (4,D4), the p90 rank among the 12 twisted_convolve ops at
    # (4,D4), each at least 3 ops from the end of its block
    repeats = {"(3,S3)": 12, "(4,D4)": 12}

    def setup(self, lib, rng):
        state = {}
        for n, g in self.sizes:
            bundle = ga.FinitePrincipalBundle(n, lib.builtin_group(g))
            st = _carrier_setup(lib, bundle, int(rng.integers(2**31)), decompose=n <= 8)
            st["w"] = ga.HaarWeights.counting(st["gauge"])
            st["wc"] = lib.carrier_weights(st["sd"], st["w"])
            state[label(n, g)] = st
        return state

    def chains(self, state, rng):
        for n, g in self.sizes:
            key = label(n, g)
            yield key, (lambda r, n=n, key=key: self.chain(state[key], key, n, r))

    def chain(self, st, key, n, rng):
        gauge, sd, G = st["gauge"], st["sd"], st["bundle"].group
        counts = orc.gauge_counts(n, G.order)

        def rand(g):
            return ga.GroupoidFunction.random(g, rng)

        def against(idx):
            def check(out, f1, f2, *rest):
                want = orc.convolve_on_labels(f1.values, f2.values, idx, n, G)
                return _witness(orc.deviation(out.values, want))

            return check

        def k_values(F):
            return np.array([F.fibers[a1].values[a0] for (a0, a1) in sd.pair_of])

        def check_theorem1(out, F1, F2, w):
            want = orc.convolve_on_labels(k_values(F1), k_values(F2), st["cidx"], n, G)
            return _witness(orc.deviation(out.values, want))

        conv = "algebra.groupoid_convolve"
        ops = [
            Op(conv, key + " gauge", _fixed(rand(gauge), rand(gauge), st["w"]),
               lambda lib, *a: lib.groupoid_convolve(*a), against(st["gidx"]), counts),
            Op(conv, key + " carrier", _fixed(rand(sd), rand(sd), st["wc"]),
               lambda lib, *a: lib.groupoid_convolve(*a), against(st["cidx"]), counts),
        ]
        if n > 12:
            return ops
        F1 = ga.BundleFunction.random(gauge, sd.g1, rng)
        F2 = ga.BundleFunction.random(gauge, sd.g1, rng)
        ops += [
            Op("algebra.twisted_convolve", key, _fixed(F1, F2, st["w"]),
               lambda lib, F1, F2, w: lib.K_map(lib.twisted_convolve(F1, F2, w), sd),
               check_theorem1, counts),
            Op("algebra.semidirect_convolve_pairform", key, _fixed(rand(sd), rand(sd), sd, st["w"]),
               lambda lib, *a: lib.semidirect_convolve_pairform(*a), against(st["cidx"]), counts),
        ]
        if st["dec"] is not None:
            ops.append(Op("gauge.poincare_convolve", key, _fixed(rand(sd), rand(sd), st["dec"]),
                          lambda lib, *a: lib.poincare_convolve(*a), against(st["cidx"]), counts))
        return ops


# k = n·|G| <= 9. (3,Z4), k = 12, is left out: its two commutant ops took
# 3.3 s of a 3.6 s pass, and their BLAS-bound CPU time does not follow the
# reference work (run.py), which put the spread of quantize's ops_per_s
# across seeds at 0.2 of the 0.25 bound
COMMUTANT_SIZES = [(2, "Z2"), (2, "Z4"), (3, "Z3")]


def _norm_op(a, size, st):
    """operator_norm of the quantization of ``a`` by the regular
    representation ``st["U0"]``, checked against the exact norm."""
    gauge, U0, w = a.groupoid, st["U0"], st["w"]
    G = gauge.bundle.group
    F = _fiber_values(gauge, a.values)

    def check_norm(norm, ro, a):
        want = _true_norm(F, G)
        return _witness(abs(norm - want) / max(1.0, want), f"norm {norm:.6g} vs {want:.6g}:")

    return Op("representation.operator_norm", size,
              lambda raw: (raw.random_operator_from(a, U0, w), a),
              lambda lib, ro, a: lib.operator_norm(ro), check_norm,
              {"arrows": gauge.n_arrows}, _power_iteration_defect([F], G))


def _zero_sum(gauge, rng):
    """δ_e − δ_a on every isotropy fiber, a ≠ e drawn per fiber."""
    G = gauge.bundle.group
    v = np.zeros(gauge.n_arrows, dtype=complex)
    others = [g for g in range(G.order) if g != G.identity]
    for x in range(gauge.n_base):
        v[gauge.triple_index[(x, G.identity, x)]] = 1
        v[gauge.triple_index[(x, others[rng.integers(G.order - 1)], x)]] = -1
    return ga.GroupoidFunction(gauge, v)


def _regular_rep(gauge, L):
    """Regular representation of the structure group on every isotropy fiber."""
    m = gauge.bundle.group.order
    U = {i: L[g] for i, (y, g, x) in enumerate(gauge.triples) if y == x}
    return ga.UnitaryRep(gauge, ga.HilbertBundle((m,) * gauge.n_base), U)


class Quantize(Workload):
    # 144 ops per pass: the p50 rank falls among the 14 level-1 commutant
    # ops at (2,Z2), the p90 rank among the 10 validate_rep ops at (4,D4),
    # each at least 3 ops from the end of its block. The p90 op is
    # interpreter-bound on purpose: the larger commutants are BLAS-bound,
    # and their CPU time does not follow the reference work (run.py); with
    # the p90 rank on them it spread 0.2 across seeds, on validate_rep 0.03
    repeats = {"(4,D4)": 10, "(8,Z4)": 3, "(16,D4)": 2, "commutant (2,Z2) L1": 14,
               "commutant (2,Z2) L2": 4, "commutant (2,Z4) L1": 4, "commutant (3,Z3) L1": 3}

    def setup(self, lib, rng):
        state = {}
        for n, g in LADDER:
            bundle = ga.FinitePrincipalBundle(n, lib.builtin_group(g))
            if n <= 8:
                st = _carrier_setup(lib, bundle, int(rng.integers(2**31)), decompose=True)
            else:
                gauge = lib.gauge_groupoid(bundle)
                st = {"bundle": bundle, "gauge": gauge, "sd": None}
            st.update(self._rep(st["gauge"]))
            if st["sd"] is not None:
                L = st["L"]
                st["I"] = {a1: L[st["gauge"].triples[a1][1]] for a1 in st["sd"].g1.arrows}
            state[label(n, g)] = st
        for n, g in COMMUTANT_SIZES:
            gauge = lib.gauge_groupoid(ga.FinitePrincipalBundle(n, lib.builtin_group(g)))
            rep = self._rep(gauge)
            rep["gens"] = lib.block_diagonal_generators(gauge, rep["U0"], rep["w"])
            state["commutant " + label(n, g)] = rep
        return state

    @staticmethod
    def _rep(gauge):
        G = gauge.bundle.group
        L = orc.regular_matrices(G)
        iso = [i for i, (y, _, x) in enumerate(gauge.triples) if y == x]
        return {"L": L, "U0": _regular_rep(gauge, L), "w": ga.HaarWeights.counting(gauge),
                "iso": iso}

    def chains(self, state, rng):
        for n, g in LADDER:
            key = label(n, g)
            yield key, (lambda r, n=n, key=key: self.chain(state[key], key, n, r))
        for n, g in COMMUTANT_SIZES:
            key = "commutant " + label(n, g)
            for levels in (1, 2):
                yield f"{key} L{levels}", (
                    lambda r, n=n, g=g, key=key, levels=levels:
                    [self.commutant_op(state[key], n, g, levels)]
                )

    def chain(self, st, key, n, rng):
        gauge, G, U0, w = st["gauge"], st["bundle"].group, st["U0"], st["w"]
        counts = {"arrows": gauge.n_arrows}

        def fiber_values(a):
            return _fiber_values(gauge, a.values)

        def fn():
            return ga.GroupoidFunction.random(gauge, rng, support=st["iso"])

        def check_blocks(ro, a, *rest):
            want = [orc.quantized_block(v, G) for v in fiber_values(a)]
            dev = max(orc.deviation(ro.blocks[x], want[x]) for x in range(n))
            return _witness(dev)

        def check_bound(bound, a, w):
            want = float(np.max(np.abs(fiber_values(a)).sum(axis=1)))
            return _witness(abs(bound - want) / max(1.0, want))

        ops = [
            Op("representation.random_operator_from", key, _fixed(fn(), U0, w),
               lambda lib, *a: lib.random_operator_from(*a), check_blocks, counts),
            _norm_op(fn(), key, st),
            Op("representation.norm_bound", key, _fixed(fn(), w),
               lambda lib, *a: lib.norm_bound(*a), check_bound, counts),
            _norm_op(fn(), key, st),
        ]
        sd = st["sd"]
        if sd is None:
            return ops
        I = st["I"]
        cg = st["cidx"][1]

        def check_extension(ext, *args):
            if len(ext.U) != sd.n_arrows:
                return f"extension covers {len(ext.U)} arrows, want {sd.n_arrows}"
            dev = max(orc.deviation(ext.U[i], st["L"][cg[i]]) for i in range(sd.n_arrows))
            return _witness(dev)

        ops += [
            Op("representation.check_equivariance", key, _fixed(fn(), U0, I, sd, w),
               lambda lib, *a: lib.check_equivariance(*a),
               lambda rep, *a: _expect(rep.ok, f"max deviation {rep.max_deviation:.3e}"),
               counts),
            Op("representation.simple_extension", key, _fixed(U0, I, sd),
               lambda lib, *a: lib.simple_extension(*a), check_extension, counts),
            Op("representation.validate_rep", key,
               lambda raw: (raw.simple_extension(U0, I, sd),),
               lambda lib, ext: lib.validate_rep(ext),
               lambda rep, ext: _expect(rep.ok, f"max deviation {rep.max_deviation:.3e}"),
               orc.gauge_counts(n, G.order)),
        ]
        return ops

    def commutant_op(self, st, n, g, levels):
        k = n * st["U0"].bundle.dims[0]

        def check(res, gens, levels):
            return _expect(res.dimension == k,
                           f"dimension {res.dimension}, want n·|G| = {k}")

        # at k = 4 the SVD is small and the time is the interpreter's
        return Op("representation.commutant", f"{label(n, g)} L{levels}",
                  _fixed(st["gens"], levels),
                  lambda lib, gens, levels: lib.commutant(gens, levels=levels), check,
                  {"system_entries": orc.commutant_entries(k, levels)}, scaled=k < 8)


class Cli(Workload):
    sizes = [(2, "Z2"), (3, "S3"), (4, "D4"), (8, "Z4"), (9, "Z2")]
    GAUGE_COMMANDS = ("semidirect", "verify-prop1", "verify-theorem1", "rep-check",
                      "random-op", "commutant", "verify-poincare", "convolve")
    # the gauge subcommands that run no isomorphism search; the others exit
    # 3 above base 8 (DEFECT_ISO_CAP) and run in Probes
    ISO_FREE = ("random-op", "commutant")
    # 175 ops per pass: the p50 rank falls among the 100 ops at (2,Z2), the
    # p90 rank among the 30 ops of 90 ms and more at (8,Z4), each at least
    # 10 ops from the end of its block
    repeats = {"(2,Z2)": 10, "(8,Z4)": 6}

    def setup(self, lib, rng):
        files = {}
        for n, g in self.sizes:
            G = lib.builtin_group(g)
            gauge = lib.gauge_groupoid(ga.FinitePrincipalBundle(n, G))
            path = os.path.join(self.out_dir, f"gauge-{n}-{g}.json")
            lib.dump_json(lib.groupoid_to_dict(gauge), path)
            files[label(n, g)] = (path, gauge)
        return {"files": files}

    def chains(self, state, rng):
        for n, g in self.sizes:
            key = label(n, g)
            yield key, (lambda r, n=n, g=g, key=key: self.chain(state, key, n, g, r))

    def chain(self, state, key, n, gname, rng):
        src, gauge = state["files"][key]
        counts = orc.gauge_counts(n, gauge.bundle.group.order)
        ops = []
        for cmd in ("verify-groupoid", "quotient"):
            argv = [cmd, "--in", src, "--report", self.path(cmd + "-report", n, gname)]
            if cmd == "quotient":
                argv += ["--out", self.path("quotient", n, gname)]
            ops.append(self.op(cmd, key, argv, counts, None, _check_cli_report(cmd, n, counts)))
        for cmd in self.GAUGE_COMMANDS:
            if cmd == "commutant" and counts["arrows"] // n > 9:
                continue
            if n > 8 and cmd not in self.ISO_FREE:
                continue
            section = "identity" if cmd == "rep-check" else "random"
            ops.append(self.gauge_op(cmd, gauge, int(rng.integers(2**31)), section))
        return ops

    def path(self, name, n, gname):
        return os.path.join(self.out_dir, f"{name}-{n}-{gname}.json")

    def gauge_op(self, cmd, gauge, seed, section):
        """One gauge subcommand (--base/--group/--section) on ``gauge``'s
        bundle, with its oracle and the known defect it hits, if any."""
        n, G = gauge.n_base, gauge.bundle.group
        key = label(n, G.name)
        counts = orc.gauge_counts(n, G.order)
        argv = [cmd, "--base", str(n), "--group", G.name, "--section", section,
                "--seed", str(seed), "--report", self.path(cmd + "-report", n, G.name)]
        if cmd in ("semidirect", "convolve"):
            argv += ["--out", self.path(cmd + "-out", n, G.name)]
        if cmd == "verify-theorem1":
            argv += ["--trials", "1"]
        if cmd == "random-op":
            argv += ["--trials", "4"]
        defect = None
        check = _check_cli_report(cmd, n, counts)
        if cmd == "random-op":
            check, defect = _random_op_oracle(gauge, seed, trials=4)
        elif cmd == "convolve":
            check = _convolve_oracle(n, G, seed)
        if n > 8 and cmd not in self.ISO_FREE:
            defect = DEFECT_ISO_CAP
        elif cmd == "rep-check" and section == "random" and not _translations_central(n, G, seed):
            defect = DEFECT_REP_CHECK_SECTION
        return self.op(cmd, key, argv, counts, defect, check)

    def op(self, cmd, key, argv, counts, defect, check_report):
        """One cli.main op. ``check_report(report, files)`` checks the
        report and output files of an op that exited 0 and passed."""
        work = dict(counts)
        files = [argv[i + 1] for i, a in enumerate(argv) if a in ("--report", "--out")]

        def prepare(raw):
            # a file left by an earlier pass must not pass for this op's output
            for f in files:
                with contextlib.suppress(FileNotFoundError):
                    os.remove(f)
            return argv, _io.StringIO()

        def call(lib, argv, err):
            with contextlib.redirect_stderr(err):
                return lib.main(argv)

        def check(code, argv, err):
            work["bytes_written"] = sum(os.path.getsize(f) for f in files if os.path.exists(f))
            if "--in" in argv:
                work["bytes_read"] = os.path.getsize(argv[argv.index("--in") + 1])
            if code not in (0, 1):
                return f"exit {code}: {err.getvalue().strip()[:200]}"
            with open(files[0]) as fh:
                report = json.load(fh)
            if code != 0 or report["passed"] is not True:
                failed = [c["name"] for c in report["checks"] if not c.get("passed")]
                return f"exit {code}, failed checks {failed}"
            return check_report(report, files)

        return Op("cli." + cmd, key, prepare, call, check, work, defect)


def _fiber_values(gauge, values) -> np.ndarray:
    """F[x, g] = a(x, g, x): a function's values on the isotropy fibers."""
    G = gauge.bundle.group
    ty, tg, tx = orc.triple_index(gauge)
    iso = ty == tx
    F = np.zeros((gauge.n_base, G.order), dtype=complex)
    F[ty[iso], tg[iso]] = np.asarray(values)[iso]
    return F


def _true_norm(F, G) -> float:
    return orc.true_norm([orc.quantized_block(v, G) for v in F])


def _power_iteration_defect(fibers, G) -> str | None:
    """DEFECT_POWER_ITERATION if operator_norm misses the true norm on any
    of the functions with fiber values ``fibers``. Its start vector is an
    eigenvector of every block, so it returns max over x of |Σ_g F[x, g]|."""
    for F in fibers:
        stuck = float(np.max(np.abs(F.sum(axis=1))))
        want = _true_norm(F, G)
        if abs(stuck - want) / max(1.0, want) > orc.TOL:
            return DEFECT_POWER_ITERATION
    return None


def _translations_central(n, G, seed) -> bool:
    """Whether every translation σ(y)σ(x)⁻¹ of the CLI's random section is
    central, the case in which identity matrices satisfy the commutation
    relation."""
    s = ga.Section.random(ga.FinitePrincipalBundle(n, G), np.random.default_rng(seed)).sigma
    center = {z for z in range(G.order) if all(G.mul[z][h] == G.mul[h][z] for h in range(G.order))}
    return all(G.mul[s[y]][G.inverse[s[x]]] in center for y in range(n) for x in range(n))


def _check_cli_report(cmd, n, counts):
    """Oracle for a subcommand's report and output files. verify-groupoid,
    verify-theorem1, rep-check and verify-poincare write no values the
    benchmark can recompute, so only their own checks (exit 0, passed)
    count for them."""

    def check(report, files):
        checks = {c["name"]: c for c in report["checks"]}
        if cmd == "commutant":
            c = checks["commutant"]
            k = counts["arrows"] // n
            return _expect(c["commutant_dim"] == k and c["bicommutant_dim"] == k,
                           f"dims {c['commutant_dim']}/{c['bicommutant_dim']}, want n·|G| = {k}")
        if cmd == "verify-prop1":
            c = checks["prop1-biconditional"]
            return _expect(c["j_exists"] is True and c["J_is_iso"] is True,
                           f"j_exists={c['j_exists']} J_is_iso={c['J_is_iso']}; both must hold "
                           "on a gauge decomposition")
        if cmd in ("semidirect", "quotient"):
            with open(files[1]) as fh:
                arrows = len(json.load(fh)["arrows"])
            want = counts["arrows"] if cmd == "semidirect" else n * n
            return _expect(arrows == want, f"{cmd} wrote {arrows} arrows, want {want}")
        return None

    return check


def _random_op_oracle(gauge, seed, trials):
    """Check and predicted defect for ``random-op --seed seed``: its fiber
    functions are redrawn as the CLI draws them, and every reported norm and
    bound is compared with the exact norm and the fiberwise l1 bound."""
    G = gauge.bundle.group
    rng = np.random.default_rng(seed)
    iso = [i for i, (y, _, x) in enumerate(gauge.triples) if y == x]
    fibers = [_fiber_values(gauge, ga.GroupoidFunction.random(gauge, rng, support=iso).values)
              for _ in range(trials)]

    def check(report, files):
        checks = {c["name"]: c for c in report["checks"]}
        for t, F in enumerate(fibers):
            c = checks[f"norm-bound-{t}"]
            norm, bound = _true_norm(F, G), float(np.max(np.abs(F).sum(axis=1)))
            dev = max(abs(c["norm"] - norm) / max(1.0, norm),
                      abs(c["bound"] - bound) / max(1.0, bound))
            witness = _witness(dev, f"trial {t}: norm {c['norm']:.6g} vs {norm:.6g}, "
                                    f"bound {c['bound']:.6g} vs {bound:.6g}:")
            if witness:
                return witness
        return None

    return check, _power_iteration_defect(fibers, G)


def _convolve_oracle(n, G, seed):
    """Check for ``convolve --seed seed --out``: the two carrier functions
    are redrawn as the CLI draws them, and the written convolution is
    compared with the C[G]-matrix product on the carrier's (y, g, x) labels."""

    def check(report, files):
        bundle = ga.FinitePrincipalBundle(n, G)
        section = ga.Section.random(bundle, np.random.default_rng(seed))
        dec = ga.poincare_decomposition(bundle, section)
        sd = dec.sd
        rng = np.random.default_rng(seed)
        f1 = ga.GroupoidFunction.random(sd, rng)
        f2 = ga.GroupoidFunction.random(sd, rng)
        idx = orc.carrier_index(sd, dec.gauge, G)
        want = orc.convolve_on_labels(f1.values, f2.values, idx, n, G)
        with open(files[1]) as fh:
            written = json.load(fh)
        ids = sd.arrow_labels if sd.arrow_labels is not None else [str(a) for a in sd.arrows()]
        if sorted(written) != sorted(ids):
            return f"convolve wrote {len(written)} arrows, want the carrier's {sd.n_arrows}"
        got = np.array([complex(*written[i]) for i in ids])
        return _witness(orc.deviation(got, want))

    return check


class Probes(Workload):
    """The known-defect probes listed at the top of this module, each once
    per pass. Every op here is expected to fail with the defect it names;
    one that passes means the defect is gone. Run it with
    ``python3 bench/run.py --workload probes --seed 1 --seconds 1``."""

    NORM_SIZES = [(2, "Z2"), (4, "D4"), (8, "Z4")]
    REP_CHECK_SIZES = [(3, "S3"), (4, "D4")]

    def __init__(self, out_dir: str):
        super().__init__(out_dir)
        self.cli = Cli(out_dir)

    def setup(self, lib, rng):
        def gauge(n, g):
            return lib.gauge_groupoid(ga.FinitePrincipalBundle(n, lib.builtin_group(g)))

        state = {"probe": gauge(9, "Z2")}
        for n, g in self.NORM_SIZES:
            state["norm " + label(n, g)] = Quantize._rep(gauge(n, g))
        for n, g in self.REP_CHECK_SIZES:
            state["rep-check " + label(n, g)] = gauge(n, g)
        return state

    def chains(self, state, rng):
        yield "prop1", lambda r: [self.prop1_op(state["probe"], r)]
        for cmd in self.cli.GAUGE_COMMANDS:
            if cmd not in self.cli.ISO_FREE:
                yield "cli " + cmd, (lambda r, cmd=cmd: [
                    self.cli.gauge_op(cmd, state["probe"], int(r.integers(2**31)), "random")])
        for n, g in self.REP_CHECK_SIZES:
            yield "rep-check", (lambda r, gauge=state["rep-check " + label(n, g)]: [
                self.cli.gauge_op("rep-check", gauge, _noncentral_seed(gauge, r), "random")])
        for n, g in self.NORM_SIZES:
            key = label(n, g)
            yield "norm", (lambda r, key=key, st=state["norm " + key]: [
                _norm_op(_zero_sum(st["U0"].groupoid, r), key + " zero-sum", st)])

    @staticmethod
    def prop1_op(gauge, rng):
        seed = int(rng.integers(2**31))

        def prepare(raw):
            s = ga.Section.random(gauge.bundle, np.random.default_rng(seed))
            return gauge, raw.lorentz_subgroupoid(gauge), raw.translation_subgroupoid(gauge, s)

        return Op("semidirect.prop1_equivalence", label(gauge.n_base, gauge.bundle.group.name),
                  prepare, lambda lib, *a: lib.prop1_equivalence(*a), _check_prop1,
                  orc.gauge_counts(gauge.n_base, gauge.bundle.group.order),
                  defect=DEFECT_ISO_CAP)


def _noncentral_seed(gauge, rng) -> int:
    """A seed whose random section has a translation that is not central."""
    while True:
        seed = int(rng.integers(2**31))
        if not _translations_central(gauge.n_base, gauge.bundle.group, seed):
            return seed


WORKLOADS = {"decompose": Decompose, "convolve": Convolve, "quantize": Quantize, "cli": Cli,
             "probes": Probes}

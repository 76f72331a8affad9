"""groupoidalg benchmark: one closed-loop caller, no concurrency.

Run from the repository root:

    python3 bench/run.py --workload decompose --seed 1 --seconds 20 --trace 0

Workloads: decompose, convolve, quantize, cli (see bench/workloads.py for
what each one runs and why). None of them holds an op that is known to
fail; --workload probes runs the known-defect probes instead. The run
builds the workload's fixed inputs, then runs whole passes of ops until
--seconds have passed, checking every op against an independent oracle
outside its timed interval. Op times are
CPU times scaled by a reference work timed next to each op (REFERENCE_MS).

With --trace 0 the last line of stdout is a JSON object with the end-to-end
metrics; with --trace 1 it holds the per-layer metrics, taken from spans
recorded around every library call in alternate passes (the passes in
between run untraced, which gives the tracing overhead). The span file and a
full result record are written to bench/out/.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
# set-up time is the median of fresh-interpreter imports plus the median of
# in-process builds; imports vary most from run to run and cost least
IMPORT_REPEATS = 5
BUILD_REPEATS = 5
BLAS_THREADS = 1
# Ops and set-up are timed in CPU time of the calling thread. With one BLAS
# thread every op runs on that thread, and CPU time leaves out the time a
# shared machine takes the vCPU away, which wall time takes in. Wall times
# are kept in the run record and the op table as an extra.
clock = time.thread_time
# CPU time still drifts with the load on the shared machine: on the 2-vCPU
# VM the benchmark was tuned on, the same pass took 1.5 s in one run and 3 s
# in another. So a fixed reference work is timed next to every op, outside
# its interval, and op times are scaled by REFERENCE_MS over the median
# reference time of the REFERENCE_WINDOW ops around it. REFERENCE_MS is the
# reference's usual CPU time there, so scaled times stay in ms. Ops whose
# time is mostly spent outside the interpreter (Op.scaled False: the
# commutant SVDs at k = 8 and 9, the 27 MB JSON round trip at (16,D4)) keep
# their CPU time. The machine's speed swings barely reach them: between two
# runs the reference's CPU time changed 1.7x and the commutants' 1.15x, so
# scaling made them less steady, not more.
REFERENCE_MS = 0.6
REFERENCE_WINDOW = 21

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_ms.p50": "ms",
    "op_ms.p90": "ms",
    "peak_rss_mb": "MB",
}

MODULES = ("groups", "groupoid", "morphism", "semidirect", "algebra",
           "representation", "gauge", "io", "cli")
CLI_COMMANDS = ("verify-groupoid", "semidirect", "quotient", "verify-prop1",
                "verify-theorem1", "rep-check", "random-op", "commutant",
                "verify-poincare", "convolve")
BUSY = (
    "groups.builtin_group",
    "groupoid.validate_groupoid",
    "groupoid.quotient_by_isotropy",
    "gauge.gauge_groupoid",
    "gauge.poincare_decomposition",
    "gauge.verify_poincare_decomposition",
    "gauge.poincare_convolve",
    "semidirect.semidirect_product",
    "semidirect.prop1_equivalence",
    "morphism.verify_morphism",
    "morphism.find_isomorphism",
    "algebra.groupoid_convolve",
    "algebra.twisted_convolve",
    "algebra.semidirect_convolve_pairform",
    "algebra.K_map",
    *(f"representation.{f}" for f in (
        "random_operator_from", "operator_norm", "norm_bound", "check_equivariance",
        "simple_extension", "validate_rep", "commutant")),
    "io.groupoid_to_dict",
    "io.dump_json",
    "io.load_json",
    "io.groupoid_from_dict",
    *(f"cli.{c}" for c in CLI_COMMANDS),
)
PER_LAYER = {
    **{f"{name}.busy_s": "s" for name in BUSY},
    "groupoid.validate_groupoid.triples_per_s": "1/s",
    "algebra.groupoid_convolve.pairs_per_s": "1/s",
    "representation.commutant.system_entries": "count",
    "io.bytes_written": "B",
    "cli.exit_nonzero": "count",
    **{f"{m}.calls": "count" for m in MODULES},
    **{f"{m}.failed": "count" for m in MODULES},
    "trace.overhead_frac": "fraction",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("decompose", "convolve", "quantize", "cli", "probes"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def time_import() -> float:
    """CPU seconds from the start of a fresh interpreter until groupoidalg
    (and numpy) are imported."""
    code = "import time, groupoidalg; print(time.process_time())"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    return float(out.stdout)


def make_reference():
    """The reference work: a pure-Python dict loop and a small complex SVD,
    the two kinds of work the library does. It allocates no tracked objects,
    so the library's heap does not change its time. Returns a function that
    gives the reference's CPU time in ms."""
    import numpy as np

    keys = list(range(512))
    table = {k: (k * 7919) % 512 for k in keys}
    rng = np.random.default_rng(0)
    mat = rng.random((32, 32)) + 1j * rng.random((32, 32))

    def work():
        acc = 0
        for _ in range(10):
            for k in keys:
                acc ^= table[k]
        np.linalg.svd(mat)
        return acc

    def reference():
        work()  # warm the caches, which the op before it may have emptied
        t0 = clock()
        work()
        return (clock() - t0) * 1e3

    return reference


def scale_to_reference(passes):
    """Set each record's ``ms``: its CPU time scaled by the local speed of
    the machine, from the reference times of the ops around it, or its CPU
    time for an op that is not scaled."""
    recs = [r for p in passes for r in p["records"]]
    refs = [r["ref_ms"] for r in recs]
    h = REFERENCE_WINDOW // 2
    for i, r in enumerate(recs):
        scale = REFERENCE_MS / statistics.median(refs[max(0, i - h):i + h + 1])
        r["ms"] = r["cpu_ms"] * scale if r["scaled"] else r["cpu_ms"]


def blas_threads():
    """Thread count the bundled OpenBLAS reports, or None if not found."""
    import ctypes

    import numpy

    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def run_record(args) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        commit = res.stdout.strip() or None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "mem_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_threads_requested": BLAS_THREADS,
        "git_commit": commit,
    }


def run_pass(ops, lib, raw, tracer, pass_no, failures, reference):
    """Run one pass of ops through ``lib``; returns one record per op.
    Preparing inputs, checking outputs and the reference work stay outside
    the timed interval."""
    records = []
    for i, op in enumerate(ops):
        witness, out, dt, wall = None, None, 0.0, 0.0
        ref_ms = reference()
        try:
            args = op.prepare(raw)
        except Exception as exc:  # a broken input chain fails the op, not the run
            witness = f"prepare raised {type(exc).__name__}: {exc}"
        else:
            if tracer is not None:
                tracer.op = f"p{pass_no}.{i}"
            with tracer.span(f"op:{op.kind} {op.size}") if tracer else nullcontext():
                w0, t0 = time.perf_counter(), clock()
                try:
                    out = op.call(lib, *args)
                except Exception as exc:  # the library raised: record it and go on
                    witness = f"raised {type(exc).__name__}: {exc}"
                dt, wall = clock() - t0, time.perf_counter() - w0
            if witness is None:
                try:
                    witness = op.check(out, *args)
                except Exception as exc:
                    witness = f"check raised {type(exc).__name__}: {exc}"
        if witness is not None:
            failures.append({"kind": op.kind, "size": op.size, "witness": witness,
                             "defect": op.defect})
            tag = "known defect" if op.defect else "UNEXPECTED"
            print(f"FAIL {op.kind} {op.size} [{tag}]: {witness}", file=sys.stderr)
        records.append({
            "kind": op.kind,
            "size": op.size,
            "cpu_ms": dt * 1e3,
            "wall_ms": wall * 1e3,
            "ref_ms": ref_ms,
            "scaled": op.scaled,
            "ok": witness is None,
            "nonzero_exit": op.kind.startswith("cli.") and out != 0,
            "work": dict(op.work),
        })
    return records


def quantile_ms(values, q):
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end(passes, setup_s):
    """End-to-end metrics over the untraced passes. Every pass runs the same
    mix, so throughput is taken per pass and reported as the median pass;
    percentiles pool the latencies of all passes."""
    untraced = [p["records"] for p in passes if not p["traced"]]
    recs = [r for p in untraced for r in p]
    ms = [r["ms"] for r in recs]
    ok = sum(r["ok"] for r in recs)
    return {
        "setup_s": setup_s,
        "ops_per_s": statistics.median(
            sum(r["ok"] for r in p) / (sum(r["ms"] for r in p) / 1e3) for p in untraced),
        "op_ms.p50": quantile_ms(ms, 50),
        "op_ms.p90": quantile_ms(ms, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }, {"samples": len(ms), "failed_frac": (len(recs) - ok) / len(recs)}


def per_layer(passes, spans):
    """Per-layer metrics: busy time and calls count one set-up plus the mean
    traced pass; counts of work and failures are per pass."""
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    nt, na = len(traced), len(passes)
    busy_setup, busy_pass, calls = {}, {}, {}
    for name, start, end, _parent, op in spans:
        if name.startswith("op:"):
            continue
        share = 1.0 if op == "setup" else 1.0 / nt
        target = busy_setup if op == "setup" else busy_pass
        target[name] = target.get(name, 0.0) + (end - start)
        module = name.split(".")[0]
        calls[module] = calls.get(module, 0.0) + share
    m = {}
    for name in BUSY:
        m[f"{name}.busy_s"] = busy_setup.get(name, 0.0) + busy_pass.get(name, 0.0) / nt

    def work(kind, key, group=passes):
        return sum(r["work"].get(key, 0) for p in group for r in p["records"]
                   if r["kind"] == kind)

    def rate(kind, key):
        busy = busy_pass.get(kind, 0.0)
        return work(kind, key, traced) / busy if busy else 0.0

    all_recs = [r for p in passes for r in p["records"]]
    m["groupoid.validate_groupoid.triples_per_s"] = rate("groupoid.validate_groupoid", "triples")
    m["algebra.groupoid_convolve.pairs_per_s"] = rate("algebra.groupoid_convolve", "pairs")
    m["representation.commutant.system_entries"] = work(
        "representation.commutant", "system_entries") / na
    m["io.bytes_written"] = sum(r["work"].get("bytes_written", 0) for r in all_recs) / na
    m["cli.exit_nonzero"] = sum(r["nonzero_exit"] for r in all_recs) / na
    for mod in MODULES:
        m[f"{mod}.calls"] = calls.get(mod, 0.0)
        m[f"{mod}.failed"] = sum(
            not r["ok"] for r in all_recs if r["kind"].split(".")[0] == mod) / na

    def op_time(p):
        return sum(r["ms"] for r in p["records"])

    m["trace.overhead_frac"] = (
        statistics.mean(map(op_time, traced)) / statistics.mean(map(op_time, untraced)) - 1
    )
    return m


def op_table(passes):
    table = {}
    for p in passes:
        for r in p["records"]:
            row = table.setdefault((r["kind"], r["size"]),
                                   {"ms": [], "cpu_ms": [], "wall_ms": [], "failed": 0})
            for key in ("ms", "cpu_ms", "wall_ms"):
                row[key].append(r[key])
            row["failed"] += not r["ok"]
            row["computed"] = r["work"]
    return [
        {"kind": k, "size": s, "count": len(row["ms"]), "median_ms": statistics.median(row["ms"]),
         "median_cpu_ms": statistics.median(row["cpu_ms"]),
         "median_wall_ms": statistics.median(row["wall_ms"]), "failed": row["failed"],
         "computed": row["computed"]}
        for (k, s), row in sorted(table.items(), key=lambda kv: -statistics.median(kv[1]["ms"]))
    ]


def print_report(record, table, e2e, info, layer, failures):
    print("run record: " + json.dumps(record))
    print(f"{'op':36s} {'size':22s} {'n':>5s} {'ms':>10s} {'cpu_ms':>10s} {'wall_ms':>10s} "
          f"{'failed':>6s}  computed work")
    for row in table:
        work = " ".join(f"{k}={v}" for k, v in row["computed"].items())
        print(f"{row['kind']:36s} {row['size']:22s} {row['count']:5d} {row['median_ms']:10.3f} "
              f"{row['median_cpu_ms']:10.3f} {row['median_wall_ms']:10.3f} {row['failed']:6d}  "
              f"{work}")
    print(f"end-to-end metrics over {info['samples']} untraced ops:")
    for name, value in e2e.items():
        print(f"  {name:14s} {value:14.6g} {END_TO_END[name]}")
    print(f"  {'failed_frac':14s} {info['failed_frac']:14.6g} fraction")
    defects = sorted({f["defect"] for f in failures if f["defect"]})
    for d in defects:
        print(f"  known defect probed: {d}")
    if layer is not None:
        print("per-layer metrics (traced passes):")
        for name, value in layer.items():
            print(f"  {name:52s} {value:14.6g} {PER_LAYER[name]}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "groupoidalg" / "__init__.py").is_file():
        print(f"error: no groupoidalg sources under {SRC}", file=sys.stderr)
        return 2
    # One BLAS thread: on a shared 2-vCPU machine a second spinning BLAS
    # thread made the commutant SVDs up to 3x slower whenever a vCPU was
    # preempted, which no run length could average away.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))

    import numpy as np

    from spans import Tracer, library
    from workloads import WORKLOADS

    OUT.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        tracer = Tracer() if args.trace else None
        raw = library()
        traced_lib = library(tracer) if tracer else None
        workload = WORKLOADS[args.workload](tmp)
        reference = make_reference()

        # each set-up step is scaled like an op, by the reference times
        # taken right before and after it
        setup_scales = []

        def scaled(step):
            before = [reference() for _ in range(5)]
            seconds, result = step()
            after = [reference() for _ in range(5)]
            setup_scales.append(REFERENCE_MS / statistics.median(before + after))
            return seconds, seconds * setup_scales[-1], result

        def build(lib):
            t0 = clock()
            state = workload.setup(lib, np.random.default_rng([args.seed, 0]))
            return clock() - t0, state

        imports, builds = [], []
        for _ in range(IMPORT_REPEATS):
            seconds, scaled_s, _ = scaled(lambda: (time_import(), None))
            imports.append((seconds, scaled_s))
        for i in range(BUILD_REPEATS):
            state = None  # one set of inputs at a time, so peak_rss_mb counts one
            lib = traced_lib if tracer and i == BUILD_REPEATS - 1 else raw
            seconds, scaled_s, state = scaled(lambda: build(lib))
            builds.append((seconds, scaled_s))
        setup_s = (statistics.median(s for _, s in imports)
                   + statistics.median(s for _, s in builds))

        rng = np.random.default_rng([args.seed, 1])
        passes, failures = [], []
        begin = time.perf_counter()
        while True:
            n = len(passes)
            traced = tracer is not None and n % 2 == 1
            ops = workload.pass_ops(state, rng)
            records = run_pass(ops, traced_lib if traced else raw, raw,
                               tracer if traced else None, n, failures, reference)
            passes.append({"traced": traced, "records": records})
            if time.perf_counter() - begin >= args.seconds and (tracer is None or n >= 1):
                break

        scale_to_reference(passes)
        e2e, info = end_to_end(passes, setup_s)
        layer = per_layer(passes, tracer.spans) if tracer else None
        table = op_table(passes)
        record = run_record(args)
        all_refs = [r["ref_ms"] for p in passes for r in p["records"]]
        record.update(passes=len(passes), setup_import_s=[s for s, _ in imports],
                      setup_build_s=[s for s, _ in builds], setup_scales=setup_scales,
                      reference_ms=statistics.median(all_refs),
                      pass_op_s=[sum(r["ms"] for r in p["records"]) / 1e3 for p in passes],
                      pass_op_cpu_s=[sum(r["cpu_ms"] for r in p["records"]) / 1e3
                                     for p in passes],
                      pass_op_wall_s=[sum(r["wall_ms"] for r in p["records"]) / 1e3
                                      for p in passes])
        print_report(record, table, e2e, info, layer, failures)

        stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if tracer:
            tracer.dump(f"{stem}-spans.jsonl")
        attempted = sum(len(p["records"]) for p in passes)
        metrics = layer if tracer else e2e
        units = PER_LAYER if tracer else END_TO_END
        result = {
            "correct": all(f["defect"] for f in failures),
            "attempted": attempted,
            "failed": len(failures),
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }
        with open(f"{stem}.json", "w") as fh:
            json.dump({"record": record, "ops": table, "end_to_end": e2e, **info,
                       "per_layer": layer, "result": result, "failures": failures},
                      fh, indent=1)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

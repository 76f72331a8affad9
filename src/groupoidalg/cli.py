"""Command-line verification driver.

Every subcommand maps onto one library operation and writes a JSON report
with stable key order. Exit codes: 0 all checks passed, 1 a check failed,
2 input could not be read or parsed (or a file not written), 3 a size cap
was exceeded.

The subcommands are the rows of ``COMMANDS``: each row names its extra
arguments, the argument names echoed in the report's ``config`` (in that
order), and a function from the parsed arguments to the report's checks.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import io as gio
from .algebra import (
    GroupoidFunction, HaarWeights, carrier_weights, groupoid_convolve, verify_theorem1,
)
from .errors import GroupoidError, MalformedTableError, SizeCapError
from .gauge import (
    FinitePrincipalBundle, Section, gauge_groupoid, lorentz_subgroupoid,
    poincare_convolve, poincare_decomposition, translation_subgroupoid,
    verify_poincare_decomposition,
)
from .groupoid import isotropy_subgroupoid, quotient_by_isotropy, validate_groupoid
from .groups import builtin_group, group_from_table
from .morphism import verify_morphism
from .representation import (
    MAX_COMMUTANT_ENTRIES, HilbertBundle, UnitaryRep, _commutation, _extension,
    block_diagonal_generators, commutant, contains_in_span, norm_bound, operator_norm,
    random_operator_from, validate_rep,
)
from .semidirect import prop1_equivalence

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE_ERROR = 2
EXIT_SIZE_CAP = 3


def _load_group(spec: str):
    if os.path.exists(spec):
        data = gio.load_json(spec)
        return group_from_table(data, name=os.path.basename(spec))
    return builtin_group(spec)


def _load_section(spec: str, bundle: FinitePrincipalBundle, seed: int) -> Section:
    if spec == "identity":
        return Section.identity(bundle)
    if spec == "random":
        return Section.random(bundle, np.random.default_rng(seed))
    return Section.from_names(bundle, gio.load_json(spec))


def _bundle_section(args) -> tuple[FinitePrincipalBundle, Section]:
    """The bundle and section named by --base, --group, --section, --seed."""
    bundle = FinitePrincipalBundle(args.base, _load_group(args.group))
    return bundle, _load_section(args.section, bundle, args.seed)


def _regular_matrices(G) -> list[np.ndarray]:
    """L(g) for every g: the permutation matrix of h ↦ g·h."""
    eye = np.eye(G.order, dtype=complex)
    return [eye[:, G.mul[g]] for g in range(G.order)]


def _regular_rep(gauge):
    """Fiberwise regular representation of the structure group on the
    isotropy arrows, dims |G| at each base point."""
    G = gauge.bundle.group
    L = _regular_matrices(G)
    bundle = HilbertBundle((G.order,) * gauge.n_base)
    U = {i: L[g] for i, (y, g, x) in enumerate(gauge.triples) if y == x}
    return UnitaryRep(gauge, bundle, U)


def _regular_translations(gauge, g1):
    """L(g) on each translation arrow (y, g, x): the unitary family that
    satisfies the commutation relation with the regular representation
    for every section (L(e) = I under the identity section)."""
    L = _regular_matrices(gauge.bundle.group)
    return {a1: L[gauge.triples[a1][1]] for a1 in g1.arrows}


def _verify_groupoid(args) -> list[dict]:
    rep = validate_groupoid(gio.groupoid_from_dict(gio.load_json(getattr(args, "in"))))
    return [
        {
            "name": "groupoid-axioms",
            "passed": rep.ok,
            "violations": [v.to_dict() for v in rep.violations],
        }
    ]


def _semidirect(args) -> list[dict]:
    bundle, section = _bundle_section(args)
    sd = poincare_decomposition(bundle, section).sd
    gio.dump_json(gio.groupoid_to_dict(sd), args.out)
    return [
        {"name": "carrier-valid", "passed": validate_groupoid(sd).ok},
        {
            "name": "arrow-count",
            "passed": sd.n_arrows == args.base**2 * bundle.group.order,
            "arrows": sd.n_arrows,
        },
    ]


def _quotient(args) -> list[dict]:
    g = gio.groupoid_from_dict(gio.load_json(getattr(args, "in")))
    q, rho = quotient_by_isotropy(g, isotropy_subgroupoid(g))
    gio.dump_json(gio.groupoid_to_dict(q), args.out)
    return [
        {"name": "quotient-valid", "passed": validate_groupoid(q).ok},
        {"name": "projection-morphism", "passed": verify_morphism(rho).ok},
    ]


def _verify_prop1(args) -> list[dict]:
    bundle, section = _bundle_section(args)
    gauge = gauge_groupoid(bundle)
    g1 = translation_subgroupoid(gauge, section)
    result = prop1_equivalence(gauge, lorentz_subgroupoid(gauge), g1)
    return [
        {
            "name": "prop1-biconditional",
            "passed": result.j_exists == result.J_is_iso,
            "j_exists": result.j_exists,
            "J_is_iso": result.J_is_iso,
        },
        {"name": "i-map", "passed": result.i_map_verified},
    ]


def _verify_theorem1(args) -> list[dict]:
    sd = poincare_decomposition(*_bundle_section(args)).sd
    rep = verify_theorem1(sd, trials=args.trials, seed=args.seed, tol=args.tol)
    return [{"name": "theorem1", "passed": rep.passed, **rep.to_dict()}]


def _rep_check(args) -> list[dict]:
    dec = poincare_decomposition(*_bundle_section(args))
    U0 = _regular_rep(dec.gauge)
    I = _regular_translations(dec.gauge, dec.g1)
    u0_report = validate_rep(U0, args.tol)
    commutation = _commutation(U0, I, dec.sd, args.tol)  # the extension reuses it
    comm = commutation[0]
    checks = [
        {"name": "isotropy-rep", "passed": u0_report.ok, **u0_report.to_dict()},
        {"name": "commutation", "passed": comm.ok, **comm.to_dict()},
    ]
    if comm.ok:
        ext = _extension(U0, I, dec.sd, args.tol, commutation)
        ext_report = validate_rep(ext, args.tol)
        checks.append(
            {"name": "simple-extension", "passed": ext_report.ok, **ext_report.to_dict()}
        )
    return checks


def _random_op(args) -> list[dict]:
    gauge = gauge_groupoid(_bundle_section(args)[0])
    U0 = _regular_rep(gauge)
    w = HaarWeights.counting(gauge)
    iso = sorted(lorentz_subgroupoid(gauge).arrows)
    rng = np.random.default_rng(args.seed)
    args.trials = 1 if args.fn else args.trials  # the report echoes the trials run
    checks = []
    for t in range(args.trials):
        if args.fn:
            a = GroupoidFunction(gauge, gio.function_from_dict(gauge, gio.load_json(args.fn)))
            if (off := np.flatnonzero(a.values != a.restrict(iso).values)).size:
                raise MalformedTableError(f"function file: value of {gauge.arrow_label(off[0])!r}"
                                          " is not 0, and it is not an isotropy arrow")
        else:
            a = GroupoidFunction.random(gauge, rng, support=iso)
        norm = operator_norm(random_operator_from(a, U0, w))
        bound = norm_bound(a, w)
        checks.append(
            {
                "name": f"norm-bound-{t}",
                "passed": bool(norm <= bound + args.tol),
                "norm": norm,
                "bound": bound,
            }
        )
    return checks


def _max_entries() -> int:
    text = os.environ.get("GROUPOIDALG_MAX_ENTRIES", str(MAX_COMMUTANT_ENTRIES))
    try:
        return _at_least(1)(text)
    except (ValueError, argparse.ArgumentTypeError):
        raise MalformedTableError(
            f"GROUPOIDALG_MAX_ENTRIES must be an integer of at least 1, got {text!r}"
        ) from None


def _commutant(args) -> list[dict]:
    max_entries = _max_entries()
    gauge = gauge_groupoid(_bundle_section(args)[0])
    gens = block_diagonal_generators(gauge, _regular_rep(gauge), HaarWeights.counting(gauge))
    second = commutant(gens, levels=2, max_entries=max_entries, tol=args.tol)
    first_dim = second.dimensions[0]  # level 1, computed on the way to level 2
    # the regular representation on every fiber: both dimensions are n·|G|
    k = args.base * gauge.bundle.group.order
    return [
        {
            "name": "commutant",
            "passed": first_dim == second.dimension == k,
            "commutant_dim": first_dim,
            "bicommutant_dim": second.dimension,
        },
        {
            "name": "generators-in-bicommutant",
            "passed": contains_in_span(second.basis, gens, args.tol),
        },
    ]


def _verify_poincare(args) -> list[dict]:
    result = verify_poincare_decomposition(*_bundle_section(args))
    return [{"name": "poincare-decomposition", **result, "passed": result["passed"]}]


def _convolve(args) -> list[dict]:
    if (args.f1 is None) != (args.f2 is None):
        missing = "--f1" if args.f1 is None else "--f2"
        raise MalformedTableError(f"{missing} is missing: give both --f1 and --f2 or neither")
    dec = poincare_decomposition(*_bundle_section(args))
    if args.f1 is not None:
        f1, f2 = (
            GroupoidFunction(dec.sd, gio.function_from_dict(dec.sd, gio.load_json(path)))
            for path in (args.f1, args.f2)
        )
    else:
        rng = np.random.default_rng(args.seed)
        f1, f2 = GroupoidFunction.random(dec.sd, rng), GroupoidFunction.random(dec.sd, rng)
    # gauge.poincare_convolve_agreement, keeping the carrier product for --out
    w = HaarWeights.counting(dec.gauge)
    result = groupoid_convolve(f1, f2, carrier_weights(dec.sd, w))
    dev = float(np.max(np.abs(poincare_convolve(f1, f2, dec, w).values - result.values)))
    if args.out:
        gio.dump_json(gio.function_to_dict(dec.sd, result.values), args.out)
    return [
        {
            "name": "explicit-formula-agreement",
            "passed": dev <= args.tol,
            "max_deviation": dev,
            "tol": args.tol,
        }
    ]


def _at_least(low: int, kind=int):
    """An argparse type: a finite number of the given kind, at least low."""
    def parse(text: str):
        value = kind(text)
        if low <= value < math.inf:  # false for NaN too
            return value
        raise argparse.ArgumentTypeError(f"must be a finite number of at least {low}, got {text}")

    parse.__name__ = kind.__name__  # argparse names it in "invalid int value"
    return parse


@dataclass(frozen=True)
class Command:
    name: str
    help: str
    checks: Callable[[argparse.Namespace], list[dict]]
    config: tuple[str, ...]
    args: tuple[tuple[str, dict], ...] = ()


IN = ("--in", {"required": True})
OUT = ("--out", {"required": True})
TRIALS = ("--trials", {"type": _at_least(1), "default": 50})
GAUGE = ("base", "group", "section")

COMMANDS = (
    Command("verify-groupoid", "check the groupoid axioms on a file",
            _verify_groupoid, ("in",), (IN,)),
    Command("semidirect", "build a gauge decomposition carrier",
            _semidirect, GAUGE + ("seed", "out"), (OUT,)),
    Command("quotient", "quotient a groupoid file by its isotropy",
            _quotient, ("in", "out"), (IN, OUT)),
    Command("verify-prop1", "check the decomposition biconditional",
            _verify_prop1, GAUGE + ("seed",)),
    Command("verify-theorem1", "check the convolution isomorphism",
            _verify_theorem1, GAUGE + ("trials", "seed", "tol"), (TRIALS,)),
    Command("rep-check", "validate the regular-rep simple extension",
            _rep_check, GAUGE + ("seed", "tol")),
    Command("random-op", "quantize functions and check the norm bound",
            _random_op, GAUGE + ("fn", "trials", "seed", "tol"),
            (("--fn", {"help": "function file (defaults to random functions)"}), TRIALS)),
    Command("commutant", "commutant/bicommutant of the quantized algebra",
            _commutant, GAUGE + ("seed", "tol")),
    Command("verify-poincare", "full gauge decomposition check",
            _verify_poincare, GAUGE + ("seed",)),
    Command("convolve", "explicit formula vs generic convolution",
            _convolve, GAUGE + ("f1", "f2", "seed", "tol", "out"),
            (("--f1", {}), ("--f2", {}), ("--out", {}))),
)


def _writable(path: str) -> None:
    """Raise now the error that writing path would raise once every check
    has run: it is a directory, its parent is not one, or the process may
    not write the file or create it in its parent."""
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(parent):
        code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
    elif not (os.access(path, os.W_OK) if os.path.exists(path)
              else os.access(parent, os.W_OK | os.X_OK)):
        code = errno.EACCES
    else:
        return
    raise OSError(code, os.strerror(code), path)  # the subclass open would raise


def _run(args) -> int:
    for path in (getattr(args, "out", None), args.report):
        if path:
            _writable(path)
    start = time.perf_counter()
    command = args.command_row
    checks = command.checks(args)
    passed = all(c.get("passed", False) for c in checks)
    report = {
        "command": command.name,
        "config": {key: getattr(args, key) for key in command.config},
        "checks": checks,
        "passed": passed,
        "timing_ms": round((time.perf_counter() - start) * 1000.0, 3),
    }
    text = json.dumps(report, indent=2) + "\n"
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK if passed else EXIT_CHECK_FAILED


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first call: parse_args
    leaves it as it was, and callers must not change it either."""
    parser = argparse.ArgumentParser(
        prog="groupoidalg",
        description="Finite groupoid algebra constructions and verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        p = sub.add_parser(command.name, help=command.help)
        for flag, kwargs in command.args:
            p.add_argument(flag, **kwargs)
        if "seed" in command.config:
            p.add_argument("--seed", type=_at_least(0), default=0)
        if "tol" in command.config:
            p.add_argument("--tol", type=_at_least(0, float), default=1e-9)
        p.add_argument("--report", help="write the JSON report to this path")
        if "base" in command.config:  # a gauge subcommand
            p.add_argument(
                "--base", type=_at_least(1), required=True, help="number of base points"
            )
            p.add_argument("--group", required=True, help="builtin group name or table file")
            p.add_argument("--section", default="identity", help="identity | random | section file")
        p.set_defaults(command_row=command)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # usage errors (2) and --help (0)
        return exc.code
    try:
        return _run(args)
    except SizeCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SIZE_CAP
    except (MalformedTableError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except GroupoidError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())

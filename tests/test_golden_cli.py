"""Golden CLI reports: every subcommand's report and ``--out`` file compared
with the committed copies under ``tests/data/golden/``.

Strings, ints, booleans and key order must match exactly; floats within
1e-12 relative; ``timing_ms`` is ignored. Input files are written by the
test itself, and every path is relative to a temporary working directory,
so the ``config`` echoes are stable.

Regenerate the copies (only when a change to the reports is intended) with

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import json
import math
import os
import pathlib
import sys
import tempfile

import pytest

from groupoidalg import FinitePrincipalBundle, builtin_group, gauge_groupoid
from groupoidalg import io as gio
from groupoidalg.cli import main

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden"
REL_TOL = 1e-12

# (base, group, section flags); commutant runs only at the first size
SIZES = (
    (2, "Z2", ()),
    (3, "S3", ("--section", "random", "--seed", "5")),
)
GAUGE_COMMANDS = (
    "semidirect", "verify-prop1", "verify-theorem1", "rep-check", "random-op",
    "commutant", "verify-poincare", "convolve",
)
FILE_COMMANDS = ("verify-groupoid", "quotient")
WRITES_OUT = ("semidirect", "quotient", "convolve")


def _cases():
    for n, group, section in SIZES:
        for cmd in GAUGE_COMMANDS + FILE_COMMANDS:
            if cmd == "commutant" and n != 2:
                continue
            yield f"{cmd}-{n}{group}", cmd, n, group, section


CASES = list(_cases())


def run_case(cmd, n, group, section, workdir):
    """Run one subcommand inside workdir; return (exit code, report, out file)."""
    if cmd in FILE_COMMANDS:
        gauge = gauge_groupoid(FinitePrincipalBundle(n, builtin_group(group)))
        gio.dump_json(gio.groupoid_to_dict(gauge), workdir / "in.json")
        argv = [cmd, "--in", "in.json"]
    else:
        argv = [cmd, "--base", str(n), "--group", group, *section]
    if cmd in WRITES_OUT:
        argv += ["--out", "out.json"]
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        code = main(argv + ["--report", "report.json"])
    finally:
        os.chdir(cwd)
    report = json.loads((workdir / "report.json").read_text())
    out = json.loads((workdir / "out.json").read_text()) if cmd in WRITES_OUT else None
    return code, report, out


def assert_same(got, want, path="$"):
    if isinstance(want, dict):
        assert isinstance(got, dict), f"{path}: {got!r} is not an object"
        got = {k: v for k, v in got.items() if k != "timing_ms"}
        want = {k: v for k, v in want.items() if k != "timing_ms"}
        assert list(got) == list(want), f"{path}: keys {list(got)} != {list(want)}"
        for key in want:
            assert_same(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list), f"{path}: {got!r} is not a list"
        assert len(got) == len(want), f"{path}: length {len(got)} != {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same(g, w, f"{path}[{i}]")
    elif isinstance(want, float):
        assert type(got) is float, f"{path}: {got!r} is not a float"
        assert math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0), (
            f"{path}: {got!r} != {want!r}"
        )
    else:
        assert type(got) is type(want) and got == want, f"{path}: {got!r} != {want!r}"


@pytest.mark.parametrize("name,cmd,n,group,section", CASES, ids=[c[0] for c in CASES])
def test_golden_report(name, cmd, n, group, section, tmp_path):
    code, report, out = run_case(cmd, n, group, section, tmp_path)
    golden = json.loads((GOLDEN / f"{name}.json").read_text())
    assert code == golden["exit_code"]
    assert_same(report, golden["report"])
    if cmd in WRITES_OUT:
        assert_same(out, json.loads((GOLDEN / f"{name}.out.json").read_text()))


def regenerate():
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name, cmd, n, group, section in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            code, report, out = run_case(cmd, n, group, section, pathlib.Path(tmp))
        report.pop("timing_ms", None)
        gio.dump_json({"exit_code": code, "report": report}, GOLDEN / f"{name}.json")
        if out is not None:
            gio.dump_json(out, GOLDEN / f"{name}.out.json")
        print(f"{name}: exit {code}", file=sys.stderr)


if __name__ == "__main__":
    regenerate()

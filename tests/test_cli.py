import argparse
import contextlib
import io
import json
import os
import pathlib
import resource
import subprocess
import sys
import tempfile
import threading
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupoidalg import (
    FinitePrincipalBundle,
    GroupoidFunction,
    HaarWeights,
    Section,
    builtin_group,
    carrier_weights,
    gauge_groupoid,
    groupoid_convolve,
    lorentz_subgroupoid,
    pair_groupoid,
    poincare_convolve_agreement,
    poincare_decomposition,
    translation_subgroupoid,
    validate_groupoid,
)
from groupoidalg import cli, groups
from groupoidalg import io as gio
from groupoidalg.cli import COMMANDS, main
from groupoidalg.errors import GroupoidError, SizeCapError
from groupoidalg.groups import group_to_table
from groupoidalg.morphism import find_isomorphism
from star_oracle import NO_STAR


def read_report(path):
    with open(path) as fh:
        return json.load(fh)


def strip_timing(report):
    out = dict(report)
    out.pop("timing_ms", None)
    return out


class TestIO:
    def test_groupoid_roundtrip(self, fix_gauge_2_z2, tmp_path):
        path = tmp_path / "gauge.json"
        gio.dump_json(gio.groupoid_to_dict(fix_gauge_2_z2), path)
        g2 = gio.groupoid_from_dict(gio.load_json(path))
        assert validate_groupoid(g2).ok
        assert g2.arrow_labels == fix_gauge_2_z2.arrow_labels
        assert find_isomorphism(g2, fix_gauge_2_z2) is not None

    def test_function_roundtrip(self, fix_pair, rng, tmp_path):
        f = GroupoidFunction.random(fix_pair, rng)
        path = tmp_path / "fn.json"
        gio.dump_json(gio.function_to_dict(fix_pair, f.values), path)
        values = gio.function_from_dict(fix_pair, gio.load_json(path))
        assert np.max(np.abs(values - f.values)) < 1e-15

    def test_unknown_arrow_id_rejected(self, fix_pair):
        from groupoidalg.errors import MalformedTableError

        with pytest.raises(MalformedTableError):
            gio.function_from_dict(fix_pair, {"nope": [1.0, 0.0]})

    def test_missing_key_rejected(self):
        from groupoidalg.errors import MalformedTableError

        with pytest.raises(MalformedTableError):
            gio.groupoid_from_dict({"base": ["0"]})

    def test_stable_key_order(self, fix_pair):
        d = gio.groupoid_to_dict(fix_pair)
        assert list(d) == ["base", "arrows", "compose", "inv", "identity"]


@pytest.fixture
def pair_file(tmp_path):
    path = tmp_path / "pair.json"
    gio.dump_json(gio.groupoid_to_dict(pair_groupoid(2)), path)
    return str(path)


class TestExitCodes:
    def test_verify_groupoid_ok(self, pair_file, tmp_path):
        report = tmp_path / "r.json"
        assert main(["verify-groupoid", "--in", pair_file, "--report", str(report)]) == 0
        data = read_report(report)
        assert data["passed"] is True
        assert data["command"] == "verify-groupoid"

    def test_verify_groupoid_failure(self, tmp_path):
        d = gio.groupoid_to_dict(pair_groupoid(2))
        # break the inverse table
        d["inv"]["(0,1)"] = "(0,1)"
        path = tmp_path / "bad.json"
        gio.dump_json(d, path)
        report = tmp_path / "r.json"
        assert main(["verify-groupoid", "--in", str(path), "--report", str(report)]) == 1
        data = read_report(report)
        assert data["passed"] is False
        assert data["checks"][0]["violations"]

    def test_parse_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["verify-groupoid", "--in", str(path)]) == 2

    def test_missing_file(self):
        assert main(["verify-groupoid", "--in", "/nonexistent.json"]) == 2

    def test_slots_over_the_cap(self, tmp_path, capsys):
        """A file of 4,097 loops on one point and no compose rows, about
        226 KB, asks for 4,097² composable pairs: exit 3 with one error
        line, not 1.7·10⁷ missing-pair violations."""
        ids = [str(a) for a in range(4097)]
        path = tmp_path / "loops.json"
        path.write_text(json.dumps({
            "base": ["*"], "arrows": [{"id": a, "src": "*", "tgt": "*"} for a in ids],
            "compose": [], "inv": {a: a for a in ids}, "identity": {"*": "0"}}, indent=2))
        report = tmp_path / "r.json"
        assert main(["verify-groupoid", "--in", str(path), "--report", str(report)]) == 3
        assert capsys.readouterr().err == (
            "error: groupoid: 16785409 composable pairs > cap MAX_GAUGE_PAIRS = 16777216\n")
        assert not report.exists()

    def test_unknown_group(self, capsys):
        assert main(["verify-prop1", "--base", "2", "--group", "E8"]) == 2
        assert "error" in capsys.readouterr().err

    def test_quotient_of_non_groupoid(self, fix_gauge_2_z2, tmp_path, capsys):
        d = gio.groupoid_to_dict(fix_gauge_2_z2)
        for entry in d["compose"]:
            if entry[:2] == ["(0,e,0)", "(0,e,1)"]:
                entry[2] = "(0,a,1)"
        path = tmp_path / "bad.json"
        gio.dump_json(d, path)
        assert main(["quotient", "--in", str(path), "--out", str(tmp_path / "q.json")]) == 1
        assert capsys.readouterr().err == f"error: {NO_STAR}\n"

    def test_quotient_of_incomplete_table(self, fix_gauge_2_z2, tmp_path, capsys):
        """A file without its first compose entry is reported with the
        missing pair, not with a KeyError and a traceback."""
        d = gio.groupoid_to_dict(fix_gauge_2_z2)
        del d["compose"][0]
        path, out = tmp_path / "bad.json", tmp_path / "q.json"
        gio.dump_json(d, path)
        assert main(["quotient", "--in", str(path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: compose table missing composable pair ((0,e,0), (0,e,0))\n"
        )
        assert not out.exists()

    def test_gauge_size_cap(self, tmp_path, capsys):
        """10⁶ base points ask for 4·10¹⁸ composable pairs: exit 3 before
        anything is built or written."""
        out = tmp_path / "sd.json"
        argv = ["semidirect", "--base", "1000000", "--group", "Z2", "--out", str(out)]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: gauge groupoid too large") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not out.exists()

    def test_size_cap(self, monkeypatch, tmp_path):
        monkeypatch.setenv("GROUPOIDALG_MAX_ENTRIES", "10")
        report = tmp_path / "r.json"
        code = main(
            ["commutant", "--base", "2", "--group", "Z2", "--report", str(report)]
        )
        assert code == 3


    def test_size_cap_counts_stacked_system(self, monkeypatch, tmp_path, capsys):
        # k² = 16 is under the cap; the two fibers stack their 2-generator
        # 8x4 systems, 64 entries in all
        monkeypatch.setenv("GROUPOIDALG_MAX_ENTRIES", "63")
        report = tmp_path / "r.json"
        code = main(
            ["commutant", "--base", "2", "--group", "Z2", "--report", str(report)]
        )
        assert code == 3
        assert "64 entries" in capsys.readouterr().err
        assert not report.exists()

    @pytest.mark.parametrize("value", ["abc", "0", "-3", "2.5", ""])
    def test_invalid_size_cap(self, monkeypatch, tmp_path, capsys, value):
        monkeypatch.setenv("GROUPOIDALG_MAX_ENTRIES", value)
        report = tmp_path / "r.json"
        code = main(["commutant", "--base", "2", "--group", "Z2", "--report", str(report)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: GROUPOIDALG_MAX_ENTRIES must be an integer of at least 1, got {value!r}\n"
        )
        assert not report.exists()


class TestSubcommands:
    def test_semidirect_writes_carrier(self, tmp_path):
        out = tmp_path / "sd.json"
        report = tmp_path / "r.json"
        code = main(
            [
                "semidirect", "--base", "2", "--group", "Z2",
                "--out", str(out), "--report", str(report),
            ]
        )
        assert code == 0
        carrier = gio.groupoid_from_dict(gio.load_json(out))
        assert carrier.n_arrows == 8
        assert validate_groupoid(carrier).ok

    def test_quotient(self, tmp_path, bundle_2_z2):
        src = tmp_path / "gauge.json"
        gio.dump_json(gio.groupoid_to_dict(gauge_groupoid(bundle_2_z2)), src)
        out = tmp_path / "q.json"
        assert main(["quotient", "--in", str(src), "--out", str(out)]) == 0
        q = gio.groupoid_from_dict(gio.load_json(out))
        assert q.n_arrows == 4
        assert find_isomorphism(q, pair_groupoid(2)) is not None

    def test_verify_prop1(self, tmp_path):
        report = tmp_path / "r.json"
        code = main(
            ["verify-prop1", "--base", "2", "--group", "Z2", "--report", str(report)]
        )
        assert code == 0
        data = read_report(report)
        names = [c["name"] for c in data["checks"]]
        assert names == ["prop1-biconditional", "i-map"]

    def test_verify_theorem1(self, tmp_path):
        report = tmp_path / "r.json"
        code = main(
            [
                "verify-theorem1", "--base", "2", "--group", "Z2",
                "--trials", "10", "--seed", "7", "--report", str(report),
            ]
        )
        assert code == 0
        data = read_report(report)
        assert data["checks"][0]["max_deviation"] <= 1e-9

    def test_rep_check(self, tmp_path):
        report = tmp_path / "r.json"
        code = main(
            ["rep-check", "--base", "2", "--group", "Z2", "--report", str(report)]
        )
        assert code == 0
        names = [c["name"] for c in read_report(report)["checks"]]
        assert "simple-extension" in names

    def test_random_op(self, tmp_path):
        report = tmp_path / "r.json"
        code = main(
            [
                "random-op", "--base", "2", "--group", "Z2",
                "--trials", "5", "--report", str(report),
            ]
        )
        assert code == 0
        for check in read_report(report)["checks"]:
            assert check["norm"] <= check["bound"]

    def test_commutant(self, tmp_path):
        report = tmp_path / "r.json"
        code = main(
            ["commutant", "--base", "2", "--group", "Z2", "--report", str(report)]
        )
        assert code == 0
        check = read_report(report)["checks"][0]
        assert check["commutant_dim"] == check["bicommutant_dim"] == 4

    def test_commutant_4_d4(self, monkeypatch, tmp_path):
        """Four fibers of size 8: it exited 3 on the cap when the system was
        stacked whole. The generators are checked in the bicommutant by
        one least-squares solve, not one per generator."""
        lstsq, calls = np.linalg.lstsq, []
        monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **k: calls.append(1) or lstsq(*a, **k))
        code, data = run_report(["commutant", "--base", "4", "--group", "D4"], tmp_path)
        assert code == 0
        check, inside = data["checks"]
        assert check["commutant_dim"] == check["bicommutant_dim"] == 32
        assert inside == {"name": "generators-in-bicommutant", "passed": True}
        assert len(calls) == 1

    def test_commutant_solves_each_level_once(self, monkeypatch, tmp_path):
        """One commutant call gives both dimensions: level 1 is solved once,
        not again under level 2."""
        from groupoidalg import representation

        real, calls = representation._fiber_level, []
        monkeypatch.setattr(representation, "_fiber_level",
                            lambda *args: calls.append(1) or real(*args))
        code, data = run_report(["commutant", "--base", "2", "--group", "Z2"], tmp_path)
        assert code == 0 and len(calls) == 2
        check = data["checks"][0]
        assert check["commutant_dim"] == check["bicommutant_dim"] == 4

    def test_rep_check_reports_the_composition_check(self, tmp_path):
        """U0 covers the isotropy arrows only, so its composition takes the
        pair scan; the extension covers every arrow and takes the star
        coordinates."""
        code, data = run_report(["rep-check", *GAUGE_ARGS, "--section", "random"], tmp_path)
        assert code == 0
        assert [c.get("composition") for c in data["checks"]] == ["pairs", None, "star"]

    def test_rep_check_runs_the_commutation_check_once(self, monkeypatch, tmp_path):
        """The simple extension reuses the report and the stacks of the
        commutation check that rep-check reports."""
        from groupoidalg import representation

        real, calls = representation._commutation, []

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(representation, "_commutation", counted)
        monkeypatch.setattr(cli, "_commutation", counted)
        code, data = run_report(["rep-check", *GAUGE_ARGS, "--section", "random"], tmp_path)
        assert code == 0
        assert [c["name"] for c in data["checks"]] == [
            "isotropy-rep", "commutation", "simple-extension"]
        assert len(calls) == 1

    def test_verify_poincare_random_section(self, tmp_path):
        report = tmp_path / "r.json"
        code = main(
            [
                "verify-poincare", "--base", "3", "--group", "S3",
                "--section", "random", "--seed", "7", "--report", str(report),
            ]
        )
        assert code == 0

    def test_convolve_with_output(self, tmp_path):
        out = tmp_path / "conv.json"
        report = tmp_path / "r.json"
        code = main(
            [
                "convolve", "--base", "2", "--group", "Z2",
                "--seed", "3", "--out", str(out), "--report", str(report),
            ]
        )
        assert code == 0
        assert out.exists()
        assert read_report(report)["checks"][0]["max_deviation"] <= 1e-9

    def test_section_file(self, tmp_path):
        section = tmp_path / "section.json"
        section.write_text(json.dumps({"0": "e", "1": "a"}))
        report = tmp_path / "r.json"
        code = main(
            [
                "verify-poincare", "--base", "2", "--group", "Z2",
                "--section", str(section), "--report", str(report),
            ]
        )
        assert code == 0


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify-theorem1", "--base", "2", "--group", "Z2", "--trials", "10", "--seed", "7"],
            ["random-op", "--base", "2", "--group", "Z2", "--trials", "5", "--seed", "11"],
            ["verify-poincare", "--base", "3", "--group", "S3", "--section", "random", "--seed", "7"],
        ],
    )
    def test_reports_identical_modulo_timing(self, argv, tmp_path):
        r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(argv + ["--report", str(r1)]) == 0
        assert main(argv + ["--report", str(r2)]) == 0
        assert strip_timing(read_report(r1)) == strip_timing(read_report(r2))

    def test_report_key_order(self, tmp_path):
        r = tmp_path / "r.json"
        main(["verify-prop1", "--base", "2", "--group", "Z2", "--report", str(r)])
        assert list(read_report(r)) == [
            "command", "config", "checks", "passed", "timing_ms"
        ]


GAUGE_ARGS = ["--base", "2", "--group", "Z2"]


def run_report(argv, tmp_path):
    report = tmp_path / "r.json"
    code = main(argv + ["--report", str(report)])
    return code, read_report(report)


class TestConfigKeys:
    @pytest.mark.parametrize(
        "argv,keys",
        [
            (["verify-groupoid", "--in", "{pair}"], ["in"]),
            (["semidirect", *GAUGE_ARGS, "--out", "{out}"],
             ["base", "group", "section", "seed", "out"]),
            (["quotient", "--in", "{pair}", "--out", "{out}"], ["in", "out"]),
            (["verify-prop1", *GAUGE_ARGS], ["base", "group", "section", "seed"]),
            (["verify-theorem1", *GAUGE_ARGS, "--trials", "2"],
             ["base", "group", "section", "trials", "seed", "tol"]),
            (["rep-check", *GAUGE_ARGS], ["base", "group", "section", "seed", "tol"]),
            (["random-op", *GAUGE_ARGS, "--trials", "2"],
             ["base", "group", "section", "fn", "trials", "seed", "tol"]),
            (["commutant", *GAUGE_ARGS], ["base", "group", "section", "seed", "tol"]),
            (["verify-poincare", *GAUGE_ARGS], ["base", "group", "section", "seed"]),
            (["convolve", *GAUGE_ARGS],
             ["base", "group", "section", "f1", "f2", "seed", "tol", "out"]),
        ],
    )
    def test_config_keys(self, argv, keys, pair_file, tmp_path):
        argv = [a.format(pair=pair_file, out=tmp_path / "out.json") for a in argv]
        code, data = run_report(argv, tmp_path)
        assert code == 0
        assert data["command"] == argv[0]
        assert list(data["config"]) == keys


class TestWithoutIsomorphismSearch:
    @pytest.mark.parametrize(
        "argv",
        [
            ["semidirect", "--out", "{out}"],
            ["verify-theorem1", "--trials", "1"],
            ["rep-check"],
            ["convolve"],
            ["verify-prop1"],
            ["verify-poincare"],
        ],
    )
    def test_base_9(self, argv, tmp_path):
        # 324 arrows: above the 64-arrow cap of find_isomorphism
        argv = [a.format(out=tmp_path / "out.json") for a in argv]
        code, data = run_report(argv + ["--base", "9", "--group", "Z2"], tmp_path)
        assert code == 0
        assert data["passed"] is True

    def test_only_prop1_commands_search(self, monkeypatch, pair_file, tmp_path):
        # Prop 1 is decided by construction: no subcommand, verify-prop1 and
        # verify-poincare included, reaches the search under any name
        import sys

        def no_search(*args):
            raise AssertionError("find_isomorphism reached")

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "groupoidalg" and hasattr(module, "find_isomorphism"):
                monkeypatch.setattr(module, "find_isomorphism", no_search)
        out = str(tmp_path / "out.json")
        for argv in (
            ["verify-groupoid", "--in", pair_file],
            ["quotient", "--in", pair_file, "--out", out],
            ["semidirect", *GAUGE_ARGS, "--out", out],
            ["verify-prop1", *GAUGE_ARGS],
            ["verify-theorem1", *GAUGE_ARGS, "--trials", "2"],
            ["rep-check", *GAUGE_ARGS],
            ["random-op", *GAUGE_ARGS, "--trials", "2"],
            ["commutant", *GAUGE_ARGS],
            ["verify-poincare", *GAUGE_ARGS],
            ["convolve", *GAUGE_ARGS, "--out", out],
        ):
            assert run_report(argv, tmp_path)[0] == 0, argv[0]


class TestChecksCheck:
    def test_zero_sum_norm(self, tmp_path):
        # δ_e − δ_a at base point 0: L(e) − L(a) has norm 2, and its
        # values sum to zero
        fn = tmp_path / "f.json"
        fn.write_text(json.dumps({"(0,e,0)": [1.0, 0.0], "(0,a,0)": [-1.0, 0.0]}))
        code, data = run_report(["random-op", *GAUGE_ARGS, "--fn", str(fn)], tmp_path)
        assert code == 0
        (check,) = data["checks"]
        assert check["norm"] == pytest.approx(2.0, abs=1e-12)
        assert check["bound"] == pytest.approx(2.0, abs=1e-12)

    def test_semidirect_arrow_count(self, monkeypatch, tmp_path):
        import groupoidalg.gauge as gauge_mod

        real = gauge_mod.semidirect_product

        def smaller_carrier(parent, g0, g1):
            # the carrier of the (2, Z2) bundle: 8 arrows, not 2²·|Z4| = 16
            small = gauge_groupoid(FinitePrincipalBundle(2, builtin_group("Z2")))
            s = Section.identity(small.bundle)
            return real(small, lorentz_subgroupoid(small), translation_subgroupoid(small, s))

        monkeypatch.setattr(gauge_mod, "semidirect_product", smaller_carrier)
        argv = ["semidirect", "--base", "2", "--group", "Z4", "--out", str(tmp_path / "o.json")]
        code, data = run_report(argv, tmp_path)
        assert code == 1
        check = {c["name"]: c for c in data["checks"]}["arrow-count"]
        assert check["arrows"] == 8
        assert check["passed"] is False

    def test_commutant_dimension(self, monkeypatch, tmp_path):
        import groupoidalg.cli as cli

        real = cli.commutant

        def one_short(gens, levels, **kwargs):
            result = real(gens, levels=levels, **kwargs)
            result.dimension -= 1
            return result

        monkeypatch.setattr(cli, "commutant", one_short)
        code, data = run_report(["commutant", *GAUGE_ARGS], tmp_path)
        assert code == 1
        assert data["checks"][0]["passed"] is False

    @pytest.mark.parametrize("cmd", ["random-op", "verify-theorem1"])
    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_trials_below_one_rejected(self, cmd, trials, capsys):
        assert main([cmd, *GAUGE_ARGS, "--trials", trials]) == 2
        assert "--trials" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "cmd", ["convolve", "verify-prop1", "random-op", "verify-theorem1", "semidirect"])
    def test_negative_seed_rejected(self, cmd, tmp_path, capsys):
        # numpy's ValueError used to escape as a traceback
        out = ["--out", str(tmp_path / "c.json")] if cmd == "semidirect" else []
        assert main([cmd, *GAUGE_ARGS, "--section", "random", "--seed", "-1", *out]) == 2
        assert "argument --seed: must be a finite number of at least 0" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1", "-1e-12"])
    @pytest.mark.parametrize("cmd", ["convolve", "commutant", "rep-check"])
    def test_tolerance_not_finite_or_negative_rejected(self, cmd, tol, capsys):
        # NaN made every check fail silently; commutant --tol -1 reported
        # an empty commutant basis
        assert main([cmd, *GAUGE_ARGS, f"--tol={tol}"]) == 2
        assert "argument --tol: must be a finite number of at least 0" in capsys.readouterr().err

    def test_zero_seed_and_tolerance_accepted(self, tmp_path):
        argv = ["convolve", *GAUGE_ARGS, "--section", "random", "--seed", "0", "--tol", "0"]
        code, data = run_report(argv, tmp_path)
        assert (data["config"]["seed"], data["config"]["tol"]) == (0, 0.0)
        # tol 0 is applied as given: the two kernels sum in different orders,
        # and the check passes exactly when they agree to the bit
        check = data["checks"][0]
        assert check["max_deviation"] < 1e-15
        assert check["passed"] is (check["max_deviation"] == 0.0)
        assert code == (0 if check["passed"] else 1)

    def test_convolve_computes_the_carrier_product_once(self, monkeypatch, tmp_path):
        """One groupoid_convolve call gives both the report's deviation and
        the --out file, each the same as from a call of its own."""
        seen = {}

        def spy(name):
            real = getattr(cli, name)
            return lambda *args: seen.setdefault(name, []).append(args) or real(*args)

        for name in ("groupoid_convolve", "poincare_convolve"):
            monkeypatch.setattr(cli, name, spy(name))
        out = tmp_path / "f.json"
        argv = ["convolve", "--base", "3", "--group", "S3", "--section", "random", "--seed", "5",
                "--out", str(out)]
        code, data = run_report(argv, tmp_path)
        assert code == 0 and len(seen["groupoid_convolve"]) == 1
        f1, f2, dec, _ = seen["poincare_convolve"][0]
        assert data["checks"][0]["max_deviation"] == poincare_convolve_agreement(f1, f2, dec)
        want = groupoid_convolve(f1, f2, carrier_weights(dec.sd, HaarWeights.counting(dec.gauge)))
        gio.dump_json(gio.function_to_dict(dec.sd, want.values), tmp_path / "want.json")
        assert out.read_bytes() == (tmp_path / "want.json").read_bytes()

    def test_random_op_norm_tolerance(self, monkeypatch, tmp_path):
        import groupoidalg.cli as cli

        # a norm that meets its bound up to rounding: δ_e has norm = bound = 1
        monkeypatch.setattr(cli, "operator_norm", lambda ro: 1.0 + 1e-12)
        fn = tmp_path / "f.json"
        fn.write_text(json.dumps({"(0,e,0)": [1.0, 0.0]}))
        code, data = run_report(["random-op", *GAUGE_ARGS, "--fn", str(fn)], tmp_path)
        assert data["config"]["tol"] == 1e-9
        assert data["checks"][0]["bound"] == 1.0
        assert code == 0

    def test_rep_check_noncentral_section(self, tmp_path):
        G = builtin_group("S3")
        sigma = Section.random(FinitePrincipalBundle(3, G), np.random.default_rng(0)).sigma
        t = G.mul[sigma[0]][G.inverse[sigma[1]]]
        assert any(G.mul[t][h] != G.mul[h][t] for h in range(G.order))
        argv = ["rep-check", "--base", "3", "--group", "S3", "--section", "random", "--seed", "0"]
        code, data = run_report(argv, tmp_path)
        assert code == 0
        assert [c["name"] for c in data["checks"]] == [
            "isotropy-rep", "commutation", "simple-extension"
        ]


class TestMalformedInput:
    def test_arrow_without_tgt(self, tmp_path):
        d = gio.groupoid_to_dict(pair_groupoid(2))
        del d["arrows"][0]["tgt"]
        path = tmp_path / "bad.json"
        gio.dump_json(d, path)
        assert main(["verify-groupoid", "--in", str(path)]) == 2

    def test_two_element_compose_entry(self, tmp_path):
        d = gio.groupoid_to_dict(pair_groupoid(2))
        d["compose"][0] = d["compose"][0][:2]
        path = tmp_path / "bad.json"
        gio.dump_json(d, path)
        assert main(["quotient", "--in", str(path), "--out", str(tmp_path / "q.json")]) == 2

    def test_function_value_not_a_pair(self, tmp_path):
        fn = tmp_path / "f.json"
        fn.write_text(json.dumps({"(0,e,0)": [1]}))
        assert main(["random-op", *GAUGE_ARGS, "--fn", str(fn)]) == 2

    @pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
    @pytest.mark.parametrize("cmd", ["convolve", "random-op"])
    def test_function_value_not_finite(self, cmd, value, tmp_path, capsys):
        # NaN and Infinity parse as JSON numbers; they used to exit 1, "a
        # check failed", though no check ran
        bundle = FinitePrincipalBundle(2, builtin_group("Z2"))
        dec = poincare_decomposition(bundle, Section.identity(bundle))
        g = dec.sd if cmd == "convolve" else dec.gauge
        values, aid = gio.function_to_dict(g, np.zeros(g.n_arrows)), g.arrow_label(1)
        bad, good = tmp_path / "bad.json", tmp_path / "good.json"
        bad.write_text(json.dumps({**values, aid: [value, 0.0]}))
        good.write_text(json.dumps(values))
        argv = (["convolve", *GAUGE_ARGS, "--f1", str(bad), "--f2", str(good)]
                if cmd == "convolve" else ["random-op", *GAUGE_ARGS, "--fn", str(bad)])
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"value of {aid!r}" in err and "not finite" in err

    def test_function_value_off_the_isotropy(self, tmp_path, capsys):
        """random-op quantizes functions on the isotropy arrows: a nonzero
        value on another arrow exits 2 naming it, with no report. It used
        to be dropped, and the zero function passed. Zeros there, as
        function_to_dict writes them, are accepted."""
        fn, report = tmp_path / "f.json", tmp_path / "r.json"
        argv = ["random-op", *GAUGE_ARGS, "--fn", str(fn), "--report", str(report)]
        fn.write_text(json.dumps({"(1,a,0)": [5.0, 0.0]}))
        assert main(argv) == 2
        assert capsys.readouterr().err == ("error: function file: value of '(1,a,0)' is not 0,"
                                           " and it is not an isotropy arrow\n")
        assert not report.exists()
        gauge = gauge_groupoid(FinitePrincipalBundle(2, builtin_group("Z2")))
        on_iso = np.equal(gauge.src, gauge.tgt)
        gio.dump_json(gio.function_to_dict(gauge, np.where(on_iso, 2.0, -0.0)), fn)
        assert main(argv) == 0
        assert read_report(report)["checks"][0]["bound"] == 4.0  # 2 on each of |Z2| arrows

    def test_function_file_not_a_map(self, tmp_path):
        fn = tmp_path / "f.json"
        fn.write_text(json.dumps([1, 2]))
        assert main(["random-op", *GAUGE_ARGS, "--fn", str(fn)]) == 2

    @pytest.mark.parametrize("names", [{"0": "e"}, ["e", "e"]])
    def test_section_file_not_total(self, names, tmp_path):
        section = tmp_path / "section.json"
        section.write_text(json.dumps(names))
        assert main(["verify-prop1", *GAUGE_ARGS, "--section", str(section)]) == 2

    @pytest.mark.parametrize("extra", ["5", "2", "-1", "01", "x"])
    def test_section_file_with_a_point_outside_the_base(self, extra, tmp_path, capsys):
        """Every base point named, and one more key: exit 2 naming it."""
        section = tmp_path / "section.json"
        section.write_text(json.dumps({"0": "e", "1": "a", extra: "a"}))
        assert main(["verify-prop1", *GAUGE_ARGS, "--section", str(section)]) == 2
        assert f"section file: unknown base point {extra!r}" in capsys.readouterr().err

    def test_empty_base_rejected(self, capsys):
        assert main(["verify-prop1", "--base", "0", "--group", "Z2"]) == 2
        assert "--base" in capsys.readouterr().err

    def test_missing_required_flag(self, capsys):
        assert main(["verify-prop1", "--base", "2"]) == 2
        assert "--group" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "verify-prop1" in capsys.readouterr().out

    @pytest.mark.parametrize("given, missing", [("--f1", "--f2"), ("--f2", "--f1")])
    def test_convolve_one_function_file(self, given, missing, tmp_path, capsys):
        # a file that is not a function map: it must not be silently
        # replaced by random functions
        fn = tmp_path / "f.json"
        fn.write_text(json.dumps([1, 2]))
        assert main(["convolve", *GAUGE_ARGS, given, str(fn)]) == 2
        assert missing in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value",
        [("inv", []), ("identity", ["(0,0)"]), ("arrows", 5), ("compose", None), ("base", "01")],
        ids=["inv-not-object", "identity-not-object", "arrows-not-list", "compose-not-list",
             "base-not-list"],
    )
    def test_groupoid_file_wrong_shape(self, key, value, tmp_path, capsys):
        d = gio.groupoid_to_dict(pair_groupoid(2))
        d[key] = value
        path = tmp_path / "bad.json"
        gio.dump_json(d, path)
        assert main(["verify-groupoid", "--in", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: groupoid file: {key} is not")

    @pytest.mark.parametrize(
        "mul",
        [[0, 1], [[0, 1], [1, None]], [[0, 1], [1, 0.5]]],
        ids=["mul-not-rows", "mul-holds-null", "mul-holds-fraction"],
    )
    def test_group_table_bad_mul(self, mul, tmp_path, capsys):
        table = tmp_path / "group.json"
        table.write_text(json.dumps({"elements": ["e", "a"], "mul": mul}))
        assert main(["verify-prop1", "--base", "2", "--group", str(table)]) == 2
        assert capsys.readouterr().err.startswith("error: group table file:")

    def test_group_elements_not_a_list(self, tmp_path, capsys):
        # a string of one-letter names used to be split into its letters
        table = tmp_path / "group.json"
        table.write_text(json.dumps({"elements": "ea", "mul": [["e", "a"], ["a", "e"]]}))
        assert main(["verify-prop1", "--base", "2", "--group", str(table)]) == 2
        assert "elements is not a list" in capsys.readouterr().err

    @pytest.mark.parametrize("table, message", [
        ({"elements": ["e", "e"], "mul": [["e", "e"], ["e", "e"]]}, "duplicate element names"),
        ({"elements": ["e", "a"], "mul": [["e", "a"], ["a", "b"]]}, "unknown element 'b'"),
        ({"elements": ["e", "a"], "mul": [["e", "a"], ["a", "e"]], "identity": "a"},
         "declared identity is not the identity"),
    ], ids=["duplicate-names", "unknown-name", "wrong-identity"])
    def test_group_table_refused(self, table, message, tmp_path, capsys):
        path = tmp_path / "group.json"
        path.write_text(json.dumps(table))
        assert main(["verify-prop1", "--base", "2", "--group", str(path)]) == 2
        assert capsys.readouterr().err == f"error: group table file: {message}\n"


class TestEchoedOptions:
    @pytest.mark.parametrize("cmd, flag", [
        ("verify-groupoid", "--seed"), ("verify-groupoid", "--tol"), ("quotient", "--seed"),
        ("quotient", "--tol"), ("semidirect", "--tol"), ("verify-prop1", "--tol"),
        ("verify-poincare", "--tol"),
    ])
    def test_unread_flag_rejected(self, cmd, flag, pair_file, tmp_path, capsys):
        # a subcommand takes --seed and --tol only when its config echoes
        # them; these seven were parsed, never read, and exited 0 (the
        # checks of verify-poincare are exact: --tol 1e300 passed them too)
        out = str(tmp_path / "out.json")
        args = {"verify-groupoid": ["--in", pair_file],
                "quotient": ["--in", pair_file, "--out", out],
                "semidirect": [*GAUGE_ARGS, "--out", out], "verify-prop1": GAUGE_ARGS,
                "verify-poincare": GAUGE_ARGS}[cmd]
        report = tmp_path / "r.json"
        assert main([cmd, *args, flag, "5", "--report", str(report)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: groupoidalg")
        assert err.endswith(f"error: unrecognized arguments: {flag} 5\n")
        assert not report.exists()

    def test_random_op_function_file_echoes_one_trial(self, tmp_path):
        # the report echoed the default 50 trials and ran one check
        fn = tmp_path / "f.json"
        fn.write_text(json.dumps({"(0,e,0)": [1.0, 0.0]}))
        code, data = run_report(["random-op", *GAUGE_ARGS, "--fn", str(fn)], tmp_path)
        assert code == 0
        assert data["config"]["trials"] == len(data["checks"]) == 1


class TestReaderCap:
    """load_json refuses a file larger than MAX_GAUGE_PAIRS compose rows of
    the smallest size dump_json writes, before parsing it; the cap is
    patched down to the size of a small file."""

    @staticmethod
    def _cap_rows(monkeypatch, path, extra_bytes):
        rows = (os.path.getsize(path) + extra_bytes) // gio._ROW_BYTES
        monkeypatch.setattr(gio, "MAX_GAUGE_PAIRS", rows)
        return rows

    @pytest.mark.parametrize("cmd", ["verify-groupoid", "quotient"])
    def test_file_above_the_cap_exits_3_unparsed(self, cmd, pair_file, monkeypatch, capsys,
                                                 tmp_path):
        rows = self._cap_rows(monkeypatch, pair_file, -1)
        monkeypatch.setattr(json, "load", lambda fh: pytest.fail("the file was parsed"))
        out = ["--out", str(tmp_path / "q.json")] if cmd == "quotient" else []
        assert main([cmd, "--in", pair_file, *out]) == 3
        err = capsys.readouterr().err
        size = os.path.getsize(pair_file)
        assert err == (f"error: {pair_file}: file too large to read: {size} bytes > cap "
                       f"{rows * gio._ROW_BYTES} bytes, MAX_GAUGE_PAIRS = {rows} compose rows "
                       f"of {gio._ROW_BYTES} bytes\n")

    def test_file_at_the_cap_is_read(self, pair_file, monkeypatch, tmp_path):
        self._cap_rows(monkeypatch, pair_file, gio._ROW_BYTES - 1)
        assert main(["verify-groupoid", "--in", pair_file, "--report",
                     str(tmp_path / "r.json")]) == 0

    def test_every_file_argument_is_capped(self, monkeypatch, tmp_path, capsys):
        fn = tmp_path / "f.json"
        fn.write_text(json.dumps({"(0,e,0)": [1.0, 0.0]}))
        self._cap_rows(monkeypatch, fn, -1)
        assert main(["random-op", *GAUGE_ARGS, "--fn", str(fn)]) == 3
        assert "MAX_GAUGE_PAIRS" in capsys.readouterr().err

    def test_a_read_asks_for_the_file_not_the_cap(self, tmp_path):
        # the reader asked for the cap and one byte more, 755 MB, on every
        # read: under 600 MB of address space the 283 KB (4,D4) gauge file
        # exited 1 with a MemoryError traceback
        path, report = tmp_path / "gauge.json", tmp_path / "r.json"
        gauge = gauge_groupoid(FinitePrincipalBundle(4, builtin_group("D4")))
        gio.dump_json(gio.groupoid_to_dict(gauge), path)
        limit = 600 << 20
        src = os.path.dirname(os.path.dirname(gio.__file__))
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        done = subprocess.run(
            [sys.executable, "-m", "groupoidalg.cli", "verify-groupoid", "--in", str(path),
             "--report", str(report)],
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
            env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert read_report(report)["passed"] is True

    def test_a_file_that_grew_is_read_on_in_chunks(self, pair_file, monkeypatch):
        # fstat gives fewer bytes than the file holds, as for a file that
        # grew after it: the reader reads on, to the cap and one byte more
        monkeypatch.setattr(gio, "_CHUNK", 7)
        monkeypatch.setattr(gio.os, "fstat", lambda fd: SimpleNamespace(st_size=10))
        with open(pair_file) as fh:
            assert gio.load_json(pair_file) == json.load(fh)
        rows = self._cap_rows(monkeypatch, pair_file, -1)
        with pytest.raises(SizeCapError, match=f"a stream over the cap of {rows * 45} bytes"):
            gio.load_json(pair_file)


class TestStreamCap:
    """The reader cap bounds the bytes read, also from a pipe, whose size
    fstat reports as 0: a stream above the cap exits 3 once it has given
    more bytes than the cap."""

    @staticmethod
    def _run_on_fifo(tmp_path, text, argv_tail=()):
        fifo = tmp_path / "in.fifo"
        os.mkfifo(fifo)

        def write():
            try:
                with open(fifo, "w") as fh:
                    fh.write(text)
            except BrokenPipeError:  # the reader stopped at the cap
                pass

        writer = threading.Thread(target=write, daemon=True)
        writer.start()
        code = main(["verify-groupoid", "--in", str(fifo), *argv_tail])
        writer.join(timeout=10)
        assert not writer.is_alive()
        return code

    @staticmethod
    def _text():
        """A groupoid file padded with spaces to a whole number of rows."""
        text = json.dumps(gio.groupoid_to_dict(pair_groupoid(2)), indent=2)
        return text + " " * (-len(text) % gio._ROW_BYTES)

    def test_stream_above_the_cap_exits_3(self, monkeypatch, tmp_path, capsys):
        text = self._text()
        rows = len(text) // gio._ROW_BYTES - 1
        monkeypatch.setattr(gio, "MAX_GAUGE_PAIRS", rows)
        monkeypatch.setattr(json, "loads", lambda s: pytest.fail("the stream was parsed"))
        assert self._run_on_fifo(tmp_path, text) == 3
        assert capsys.readouterr().err == (
            f"error: {tmp_path / 'in.fifo'}: file too large to read: a stream over the cap of "
            f"{rows * gio._ROW_BYTES} bytes, MAX_GAUGE_PAIRS = {rows} compose rows of "
            f"{gio._ROW_BYTES} bytes\n")

    def test_stream_at_the_cap_is_read(self, monkeypatch, tmp_path):
        text = self._text()
        monkeypatch.setattr(gio, "MAX_GAUGE_PAIRS", len(text) // gio._ROW_BYTES)
        report = tmp_path / "r.json"
        assert self._run_on_fifo(tmp_path, text, ["--report", str(report)]) == 0
        assert read_report(report)["passed"] is True

    @pytest.mark.parametrize("over", [False, True])
    def test_stream_read_in_chunks(self, over, monkeypatch, tmp_path, capsys):
        text = self._text()
        monkeypatch.setattr(gio, "_CHUNK", 7)
        monkeypatch.setattr(gio, "MAX_GAUGE_PAIRS", len(text) // gio._ROW_BYTES - over)
        assert self._run_on_fifo(tmp_path, text) == (3 if over else 0)
        assert ("a stream over the cap" in capsys.readouterr().err) == over


class TestTableCaps:
    """A groupoid file of more than MAX_GAUGE_PAIRS compose rows, and a
    group table of an order k with k² > MAX_GAUGE_PAIRS, raise SizeCapError
    (exit 3) before any array of them is built. The byte cap of load_json
    does not bound the rows of a file without indentation. The caps are
    patched down to small tables."""

    @staticmethod
    def _compose_rows(monkeypatch, g, over):
        """g's description with the cap patched to its rows less over; over
        the cap, reading a row fails the test."""
        data = gio.groupoid_to_dict(g)
        rows = len(data["compose"]) - over
        monkeypatch.setattr(gio, "MAX_GAUGE_PAIRS", rows)
        if over:
            monkeypatch.setattr(gio, "_compose_ids", lambda *a: pytest.fail("a row was read"))
        return data, rows

    def test_compose_rows_at_the_cap_are_read(self, fix_gauge_2_z2, monkeypatch):
        data, _ = self._compose_rows(monkeypatch, fix_gauge_2_z2, 0)
        g = gio.groupoid_from_dict(data)
        assert g.compose_table == fix_gauge_2_z2.compose_table

    def test_one_compose_row_more_raises(self, fix_gauge_2_z2, monkeypatch):
        data, rows = self._compose_rows(monkeypatch, fix_gauge_2_z2, 1)
        with pytest.raises(SizeCapError, match=f"{rows + 1} compose rows > cap "
                                               f"MAX_GAUGE_PAIRS = {rows}$"):
            gio.groupoid_from_dict(data)

    def test_compact_file_over_the_rows_cap_exits_3(self, monkeypatch, tmp_path, capsys):
        gauge = gauge_groupoid(FinitePrincipalBundle(4, builtin_group("D4")))
        data, rows = self._compose_rows(monkeypatch, gauge, 1)
        path = tmp_path / "g.json"
        path.write_text(json.dumps(data, separators=(",", ":")))
        assert path.stat().st_size <= rows * gio._ROW_BYTES  # under the byte cap
        assert main(["verify-groupoid", "--in", str(path)]) == 3
        assert capsys.readouterr().err == (
            f"error: groupoid file: {rows + 1} compose rows > cap MAX_GAUGE_PAIRS = {rows}\n")

    def test_group_table_above_the_cap_exits_3(self, monkeypatch, tmp_path, capsys):
        path = tmp_path / "d4.json"
        path.write_text(json.dumps(group_to_table(builtin_group("D4"))))
        monkeypatch.setattr(groups, "MAX_GAUGE_PAIRS", 8 * 8 - 1)
        monkeypatch.setattr(groups.FiniteGroup, "__post_init__",
                            lambda self: pytest.fail("the table was built"))
        assert main(["verify-prop1", "--base", "1", "--group", str(path)]) == 3
        assert capsys.readouterr().err == (
            "error: group table file: order 8, 8² table entries > cap MAX_GAUGE_PAIRS = 63\n")


class TestUnreadableInput:
    """A file argument that cannot be read, or holds what cannot be
    parsed, exits 2 with an error line, not with a traceback."""

    @pytest.mark.parametrize("argv", [
        ["verify-groupoid", "--in", "{dir}"],
        ["quotient", "--in", "{pair}", "--out", "{dir}"],
        ["semidirect", *GAUGE_ARGS, "--out", "{dir}"],
        ["verify-prop1", "--base", "2", "--group", "{dir}"],
        ["verify-prop1", *GAUGE_ARGS, "--section", "{dir}"],
        ["verify-prop1", *GAUGE_ARGS, "--report", "{dir}"],
    ], ids=["in", "out", "semidirect-out", "group", "section", "report"])
    def test_directory_exits_2(self, argv, pair_file, tmp_path, capsys):
        paths = {"dir": str(tmp_path), "pair": pair_file}
        assert main([a.format(**paths) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Is a directory" in err

    @pytest.mark.parametrize("flag", ["--in", "--group", "--section", "--fn", "--f1"])
    def test_file_not_utf8_exits_2(self, flag, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"elements": ["é"]}'.encode("latin-1"))
        argv = {
            "--in": ["verify-groupoid", "--in", str(path)],
            "--group": ["verify-prop1", "--base", "2", "--group", str(path)],
            "--section": ["verify-prop1", *GAUGE_ARGS, "--section", str(path)],
            "--fn": ["random-op", *GAUGE_ARGS, "--fn", str(path)],
            "--f1": ["convolve", *GAUGE_ARGS, "--f1", str(path), "--f2", str(path)],
        }[flag]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {path}: not readable as JSON: 'utf-8' codec can't decode byte 0xe9")

    @pytest.mark.parametrize("value", ["10" * 200, "1" * 5000, "[" * 100_000],
                             ids=["beyond-float", "beyond-int-digits", "too-deep"])
    def test_function_value_out_of_reach_exits_2(self, value, tmp_path, capsys):
        fn = tmp_path / "f.json"
        fn.write_text('{"(0,e,0)": [' + value + ', 0]}')
        assert main(["random-op", *GAUGE_ARGS, "--fn", str(fn)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        if value == "10" * 200:
            assert "value of '(0,e,0)'" in err and err.endswith("not finite\n")


class TestWritePathsFirst:
    """A --report or --out path that cannot be written exits 2 before any
    check runs; the report itself is still written only at the end."""

    @pytest.mark.parametrize("argv, call, error", [
        (["verify-prop1", *GAUGE_ARGS, "--report", "{dir}"], "prop1_equivalence",
         "Is a directory"),
        (["verify-prop1", *GAUGE_ARGS, "--report", "{dir}/no/r.json"], "prop1_equivalence",
         "No such file or directory"),
        (["verify-theorem1", *GAUGE_ARGS, "--report", "{pair}/r.json"], "verify_theorem1",
         "Not a directory"),
        (["semidirect", *GAUGE_ARGS, "--out", "{dir}"], "poincare_decomposition",
         "Is a directory"),
        (["quotient", "--in", "{pair}", "--out", "{dir}/no/q.json"], "quotient_by_isotropy",
         "No such file or directory"),
        (["convolve", *GAUGE_ARGS, "--out", "{dir}"], "poincare_decomposition",
         "Is a directory"),
    ], ids=["report-dir", "report-no-parent", "report-parent-file", "semidirect-out-dir",
            "quotient-out-no-parent", "convolve-out-dir"])
    def test_exits_2_before_any_check(self, argv, call, error, pair_file, tmp_path,
                                      monkeypatch, capsys):
        monkeypatch.setattr(cli, call, lambda *a, **k: pytest.fail(f"{call} ran"))
        paths = {"dir": str(tmp_path), "pair": pair_file}
        assert main([a.format(**paths) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno ") and error in err

    @pytest.mark.parametrize("existing", [False, True], ids=["new-file", "existing-file"])
    @pytest.mark.parametrize("flag", ["--report", "--out"])
    def test_path_the_process_may_not_write_exits_2_first(self, existing, flag, tmp_path,
                                                          monkeypatch, capsys):
        """os.access denies writing the file, or creating it in its
        directory: exit 2 before any check runs, the file left as it was."""
        path = tmp_path / "locked" / "r.json"
        path.parent.mkdir()
        if existing:
            path.write_text("kept\n")
        denied, real = str(path if existing else path.parent), os.access
        monkeypatch.setattr(os, "access", lambda p, mode, **kw: (
            os.fspath(p) != denied and real(p, mode, **kw)))
        monkeypatch.setattr(cli, "poincare_decomposition",
                            lambda *a, **k: pytest.fail("poincare_decomposition ran"))
        assert main(["semidirect", *GAUGE_ARGS, flag, str(path)]
                    + (["--out", str(tmp_path / "o.json")] if flag == "--report" else [])) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno ") and "Permission denied" in err
        assert (path.read_text() == "kept\n") if existing else not path.exists()

    @pytest.mark.parametrize("exc, code", [(SizeCapError, 3), (GroupoidError, 1)])
    def test_report_untouched_until_the_end(self, exc, code, tmp_path, monkeypatch):
        old, new = tmp_path / "old.json", tmp_path / "new.json"
        old.write_text("kept\n")

        def fail(*args, **kwargs):
            assert old.read_text() == "kept\n" and not new.exists()
            raise exc("stopped")

        monkeypatch.setattr(cli, "prop1_equivalence", fail)
        for report in (old, new):
            assert main(["verify-prop1", *GAUGE_ARGS, "--report", str(report)]) == code
        assert old.read_text() == "kept\n" and not new.exists()


class TestOneParser:
    """main builds its parser once per process and reuses it; parse_args
    leaves it as it was, so a call sees nothing of the calls before it."""

    def test_built_once(self, monkeypatch, capsys):
        cli.build_parser.cache_clear()
        progs, init = [], argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            progs.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        assert main(["verify-prop1", "--base", "2"]) == 2
        assert main(["--help"]) == 0
        assert progs.count("groupoidalg") == 1 and len(progs) == 1 + len(COMMANDS)

    def test_no_state_from_call_to_call(self, tmp_path, capsys):
        fn = tmp_path / "f.json"
        fn.write_text(json.dumps({"(0,e,0)": [1.0, 0.0]}))
        sequence = [["verify-prop1", "--base", "2"], ["--help"],
                    ["random-op", *GAUGE_ARGS, "--fn", str(fn)], ["random-op", *GAUGE_ARGS]]

        def outcome(argv, fresh):
            if fresh:
                cli.build_parser.cache_clear()
            code = main(argv)
            out, err = capsys.readouterr()
            return code, strip_timing(json.loads(out)) if out.startswith("{") else out, err

        reused = [outcome(argv, fresh=False) for argv in sequence]
        assert reused == [outcome(argv, fresh=True) for argv in sequence]
        assert [code for code, _, _ in reused] == [2, 0, 0, 0]
        assert [r[1]["config"]["trials"] for r in reused[2:]] == [1, 50]


def _json_values():
    leaves = (st.none() | st.booleans() | st.integers() | st.floats()
              | st.sampled_from([10**400, -(2**70), 2**63, "e", "a", "(0,e,0)", ""]))
    return st.recursive(
        leaves, lambda kids: st.lists(kids, max_size=3)
        | st.dictionaries(st.sampled_from(["0", "1", "2", "elements", "mul", "(0,e,0)"])
                          | st.text(max_size=3), kids, max_size=3),
        max_leaves=10)


@st.composite
def _file_contents(draw, kind):
    """The contents of a group, section, function or groupoid file: near
    the right shape, any JSON value, bytes that are not JSON, or a
    directory (None)."""
    how = draw(st.sampled_from(["shaped", "shaped", "json", "bytes", "dir"]))
    if how == "dir":
        return None
    if how == "bytes":
        return draw(st.sampled_from([b"", b"{", b"\xff\xfe{}", b"[" * 5000, b"1" * 4400]))
    if how == "json":
        return json.dumps(draw(_json_values())).encode()
    elements = st.sampled_from(["e", "a", "b", "x", 0, 1, 2, 5, -1, 10**400, None, 0.5])
    if kind == "group":
        n = draw(st.integers(0, 3))
        names = draw(st.lists(st.sampled_from(["e", "a", "b", "e"]), min_size=n, max_size=n))
        mul = draw(st.lists(st.lists(elements, min_size=n, max_size=n), min_size=n, max_size=n))
        data = {"elements": names, "mul": mul}
    elif kind == "section":
        data = draw(st.dictionaries(st.sampled_from(["0", "1", "2", "3", "x"]), elements,
                                    max_size=4))
    elif kind == "function":
        labels = st.sampled_from(["(0,e,0)", "(1,e,0)", "(0,a,0)", "((0,e,0),(0,e,0))", "z"])
        numbers = st.sampled_from([0, 1.5, -2, 10**400, None, "1", float("nan"), [0]])
        data = draw(st.dictionaries(labels, st.lists(numbers, min_size=1, max_size=3),
                                    max_size=4))
    else:
        data = gio.groupoid_to_dict(pair_groupoid(2))
        how = draw(st.sampled_from(["valid", "product", "key"]))
        if how == "product":  # one product redirected: the axioms may fail
            entry = draw(st.sampled_from(data["compose"]))
            entry[2] = draw(st.sampled_from([a["id"] for a in data["arrows"]]))
        elif how == "key":
            data[draw(st.sampled_from(sorted(data)))] = draw(_json_values())
    return json.dumps(data).encode()


FUZZ_FILES = {"--group": "group", "--section": "section", "--fn": "function",
              "--f1": "function", "--f2": "function", "--in": "groupoid"}


FUZZ_VALUES = {
    "--base": st.sampled_from(["1", "2", "3", "2", "3", "0", "x"]),
    "--group": st.sampled_from(["Z2", "Z3", "FILE", "FILE", "E8"]),
    "--section": st.sampled_from(["identity", "random", "FILE", "FILE"]),
    "--seed": st.sampled_from(["0", "7", "-1"]),
    "--tol": st.sampled_from(["1e-9", "0", "nan"]),
    "--trials": st.sampled_from(["1", "2", "0"]),
    "--in": st.just("FILE"), "--fn": st.just("FILE"), "--f1": st.just("FILE"),
    "--f2": st.just("FILE"), "--out": st.sampled_from(["OUT", "OUT", "DIR"]),
    "--report": st.sampled_from(["REPORT", "REPORT", "DIR"]),
}


@st.composite
def _argv(draw):
    """A subcommand with its required flags and some of its other flags,
    now and then one it does not take, each value well formed or not; and
    the files to write, by name."""
    command = draw(st.sampled_from(COMMANDS))
    takes = ["--" + name for name in command.config] + ["--report"]
    required = [f for f in ("--in", "--base", "--group", "--out") if f in takes
                and (f != "--out" or command.name != "convolve")]
    flags = required + draw(st.lists(st.sampled_from(takes), max_size=4))
    if draw(st.integers(0, 9)) == 0:
        flags.append(draw(st.sampled_from(sorted(FUZZ_VALUES))))
    argv, files = [command.name], {}
    for flag in dict.fromkeys(flags):
        value = draw(FUZZ_VALUES[flag])
        if value == "FILE":
            value = flag[2:] + ".json"
            files[value] = draw(_file_contents(FUZZ_FILES[flag]))
        argv += [flag, value]
    return argv, files


class TestFuzz:
    @settings(max_examples=60, deadline=None)
    @given(case=_argv())
    def test_any_input_exits_with_a_documented_code(self, case):
        """Exit 0, 1, 2 or 3, with no exception escaping, and every check
        entry of a report carries a boolean passed."""
        argv, files = case
        with tempfile.TemporaryDirectory() as tmp:
            for name, content in files.items():
                path = pathlib.Path(tmp, name)
                path.mkdir() if content is None else path.write_bytes(content)
            paths = {"OUT": "out.json", "REPORT": "report.json", "DIR": ".", **{f: f for f in files}}
            argv = [os.path.join(tmp, paths[a]) if a in paths else a for a in argv]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code in (0, 1, 2, 3), (argv, err.getvalue())
            assert "Traceback" not in err.getvalue()
            report = pathlib.Path(tmp, "report.json")
            text = report.read_text() if report.is_file() else out.getvalue()
            if code in (0, 1) and text:  # an error that exits 1 writes no report
                checks = json.loads(text)["checks"]
                assert all(isinstance(c["passed"], bool) for c in checks)

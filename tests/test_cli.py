"""Command-line interface: exit codes, determinism, round trips, file formats."""

import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from kerrcat import cli
from kerrcat.cli import main
from kerrcat.metrics import condition_at, fidelity_curve, outcome_density


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestArgumentValidation:
    def test_rejects_zero_alpha(self, capsys):
        code, _, err = run(["decompose", "--alpha", "0"], capsys)
        assert code == 1

    def test_rejects_negative_alpha(self, capsys):
        code, _, _ = run(["decompose", "--alpha", "-4"], capsys)
        assert code == 1

    def test_rejects_off_grid_interaction_phase(self, capsys):
        code, _, _ = run(["decompose", "--lambda-tau", "0.33"], capsys)
        assert code == 1

    def test_rejects_conflicting_n(self, capsys):
        code, _, _ = run(
            ["decompose", "--n", "5", "--lambda-tau", str(math.pi / 8)], capsys)
        assert code == 1

    @pytest.mark.parametrize("n,message", [("0", "must be a positive integer"),
                                           ("5000", "capped at 4096")])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_decompose_checks_n_on_both_paths(self, capsys, fmt, n, message):
        code, out, err = run(["decompose", "--n", n, "--format", fmt], capsys)
        assert code == 1 and out == ""
        assert err == f"kerrcat: error: number of components {message}\n"

    def test_decompose_csv_builds_no_state(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "kerr_decompose", lambda *a: pytest.fail("state built"))
        code, out, _ = run(["decompose", "--n", "3"], capsys)
        assert code == 0 and out.startswith("n,re,im,magnitude,zeta_n\n1,")

    def test_lambda_tau_equals_n(self, capsys, tmp_path):
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(["decompose", "--n", "8", "--output", str(f1)], capsys)[0] == 0
        assert run(["decompose", "--lambda-tau", str(math.pi / 8),
                    "--output", str(f2)], capsys)[0] == 0
        assert f1.read_bytes() == f2.read_bytes()

    def test_unknown_command(self, capsys):
        code, _, err = run(["frobnicate"], capsys)
        assert code == 1
        assert "error: argument command: invalid choice: 'frobnicate'" in err
        code, _, err = run([], capsys)
        assert code == 1
        assert "error: the following arguments are required: command" in err

    CURVE = ["fidelity-curve", "--alpha", "2", "--n", "2", "--x-min", "0", "--x-max", "0.1"]

    @pytest.mark.parametrize("args,env,code", [
        (CURVE + ["--workers", "2"], None, 1),
        (["window", "--alpha", "2", "--n", "2", "--f-min", "0.9", "--workers", "2"], None, 1),
        (["success-prob", "--alpha", "2", "--n", "2", "--f-min", "0.9", "--workers", "2"],
         None, 1),
        (["reproduce", "fig2", "--workers", "2"], None, 1),
        (CURVE, "two", 0),
    ], ids=["fidelity-curve", "window", "success-prob", "reproduce", "env-ignored"])
    def test_workers_removed(self, capsys, monkeypatch, args, env, code):
        if env is not None:
            monkeypatch.setenv("KERRCAT_WORKERS", env)
        got, out, err = run(args, capsys)
        assert got == code
        if code:
            assert out == ""
            assert "unrecognized arguments: --workers 2" in err

    @pytest.mark.parametrize("args,message", [
        # at alpha = 1e-7 the target cat's branches overlap to 1 - 1e-14
        (["fidelity", "--alpha", "1e-7"], "branches coincide"),
        (["fidelity-curve", "--alpha", "1e-7"], "branches coincide"),
        (["noise-phase", "--alpha", "1e-7"], "branches coincide"),
        (["success-prob", "--alpha", "1e-7", "--f-min", "0.5"], "branches coincide"),
        (["condition", "--x", "inf"], "measurement outcome must be finite"),
        (["condition", "--x", "nan"], "measurement outcome must be finite"),
        (["fidelity", "--target-re", "nan", "--target-im", "0"], "amplitudes must be finite"),
        (["evolve-fock", "--alpha", "nan", "--lambda-tau", "0.1"], "alpha must be finite"),
        (["evolve-fock", "--alpha", "inf", "--lambda-tau", "0.1"], "alpha must be finite"),
        (["noise-loss", "--loss-probs", "0.5", "--direct-flip"], "must be below 1/2"),
        (["noise-loss", "--loss-probs", ","], "--loss-probs must be a comma-separated list"),
        (["noise-loss", "--loss-probs", ""], "--loss-probs must be a comma-separated list"),
    ], ids=["fidelity-tiny-alpha", "curve-tiny-alpha", "noise-phase-tiny-alpha",
            "success-prob-tiny-alpha", "condition-inf-x", "condition-nan-x", "nan-target",
            "fock-nan-alpha", "fock-inf-alpha", "half-flip", "empty-loss-probs",
            "blank-loss-probs"])
    def test_rejects_bad_input(self, capsys, args, message):
        code, out, err = run(args, capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("kerrcat: error:") and message in err

    def test_tiny_alpha_conditions_without_a_cat(self, capsys, tmp_path):
        # no target cat exists at alpha = 1e-7, but conditioning needs none;
        # the commands that score a fidelity refuse it (test_rejects_bad_input)
        for args in (["condition"], ["pdist-post", "--p-step", "0.5"]):
            code, _, err = run([*args, "--alpha", "1e-7", "--output",
                                str(tmp_path / "o.csv")], capsys)
            assert code == 0, err
        assert outcome_density(1e-7, 4, 0.0) == pytest.approx(math.exp(-5e-14) / math.sqrt(math.pi))
        assert condition_at(1e-7, 4, 0.0).squared_norm() == pytest.approx(1.0, abs=1e-12)

    # every subcommand built by _add_common, with the arguments it requires
    RING = [["decompose"], ["condition"], ["fidelity"], ["fidelity-curve"],
            ["pdist-pre"], ["pdist-post"], ["success-prob", "--f-min", "0.9"],
            ["window", "--f-min", "0.9"], ["noise-loss"], ["noise-phase"]]

    @pytest.mark.parametrize("bad", [["--alpha", "0"], ["--lambda-tau", "0.33"]],
                             ids=["alpha", "lambda-tau"])
    @pytest.mark.parametrize("args", RING, ids=[a[0] for a in RING])
    def test_ring_commands_reject_bad_ring(self, capsys, args, bad):
        code, out, err = run(args + bad, capsys)
        assert code == 1
        assert out == ""
        assert "kerrcat: error:" in err

    @pytest.mark.parametrize("args", [a for a in RING if a[0] not in ("decompose", "condition")],
                             ids=lambda a: a[0])
    def test_format_only_where_read(self, capsys, tmp_path, args):
        target = tmp_path / "o.out"
        code, out, err = run(args + ["--format", "json", "--output", str(target)], capsys)
        assert code == 1
        assert out == ""
        assert "unrecognized arguments: --format json" in err
        assert not target.exists()

    @pytest.mark.parametrize("args", [
        [cmd] + bad for cmd in ("pdist-pre", "pdist-post")
        for bad in (["--p-step", "0"], ["--p-step", "-0.05"], ["--p-min", "5", "--p-max", "-5"])
    ] + [["fidelity-curve", "--x-step", "0"], ["fidelity-curve", "--x-max", "inf"],
         ["noise-phase", "--sigma-max", "-0.1"]],
        ids=lambda a: " ".join(a))
    def test_bad_grid(self, capsys, tmp_path, args):
        target = tmp_path / "g.csv"
        code, out, err = run(args + ["--alpha", "4", "--n", "4", "--output", str(target)],
                             capsys)
        assert code == 1
        assert out == ""
        assert "bad grid" in err
        assert not target.exists()

    @pytest.mark.parametrize("step", ["0", "-0.01"])
    @pytest.mark.parametrize("cmd", ["window", "success-prob"])
    def test_bad_scan_step(self, capsys, tmp_path, cmd, step):
        target = tmp_path / "w.csv"
        code, out, err = run([cmd, "--alpha", "4", "--n", "4", "--f-min", "0.9",
                              "--scan-step", step, "--output", str(target)], capsys)
        assert code == 1
        assert out == ""
        assert "scan_step must be positive" in err
        assert not target.exists()

    def test_magnitude_only_removed(self, capsys):
        code, out, err = run(["noise-phase", "--alpha", "4", "--n", "4",
                              "--magnitude-only"], capsys)
        assert code == 1
        assert out == ""
        assert "unrecognized arguments: --magnitude-only" in err


class TestParser:
    """main builds only the subparser its first word names; every help text
    and usage error is what the parser of all 13 commands gives."""

    ARGV = [[], ["-h"], ["--help"], ["--version"], ["decompose", "-h"],
            ["reproduce", "--help"], ["-h", "decompose"], ["frobnicate"],
            ["window"], ["evolve-fock", "--alpha", "2"], ["reproduce", "fig9"],
            ["decompose", "--alpha", "x"], ["decompose", "--bogus", "1"],
            ["verify", "extra"]]

    @pytest.mark.parametrize("argv", ARGV, ids=lambda a: " ".join(a) or "none")
    def test_same_output_as_full_parser(self, capsys, monkeypatch, argv):
        got = run(argv, capsys)
        full = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda command=None: full())
        assert got == run(argv, capsys)

    def test_one_command_parser(self, capsys, monkeypatch):
        one, full = cli.build_parser("window"), cli.build_parser()
        sub = [a for a in one._actions if isinstance(a, argparse._SubParsersAction)]
        assert list(sub[0].choices) == ["window"]
        assert one.format_usage() == full.format_usage()
        asked, build = [], cli.build_parser
        monkeypatch.setattr(cli, "build_parser",
                            lambda command=None: asked.append(command) or build(command))
        for argv in (["window", "-h"], ["-h"], ["frobnicate"]):
            run(argv, capsys)
        assert asked == ["window", None, None]


class TestFileErrors:
    def test_missing_state_file(self, capsys, tmp_path):
        code, out, err = run(["fidelity", "--state", str(tmp_path / "missing.json")], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("kerrcat: error:") and err.count("\n") == 1

    def test_missing_output_directory(self, capsys, tmp_path):
        code, out, err = run(["decompose", "--n", "4",
                              "--output", str(tmp_path / "missing" / "c.csv")], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("kerrcat: error:") and err.count("\n") == 1

    def test_state_missing_field(self, capsys, tmp_path):
        state = tmp_path / "s.json"
        assert run(["condition", "--alpha", "4", "--n", "4", "--output", str(state)],
                   capsys)[0] == 0
        doc = json.loads(state.read_text())
        del doc["components"][0]["coeff_im"]
        state.write_text(json.dumps(doc))
        code, out, err = run(["fidelity", "--state", str(state)], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("kerrcat: error:") and "'coeff_im'" in err

    COMPONENT = {"coeff_re": 1.0, "coeff_im": 0.0, "amp_re": 2.0, "amp_im": 0.0}

    @pytest.mark.parametrize("doc", [
        {"components": 5},
        {"components": [1]},
        {"components": [{**COMPONENT, "coeff_re": "1"}]},
        {"components": [{**COMPONENT, "coeff_im": None}]},
        {"components": [COMPONENT], "measurement": "x"},
        [COMPONENT],
        {"components": [COMPONENT], "normalized": "false"},
        {"components": [COMPONENT], "measurement": {"quadrature": "X", "value": math.nan}},
        {"components": [COMPONENT], "measurement": {"quadrature": "X", "value": math.inf}},
        {"components": [COMPONENT], "measurement": {"quadrature": "X", "value": "0.5"}},
        {"components": [COMPONENT], "measurement": {"quadrature": "X", "value": True}},
        {"components": [{**COMPONENT, "amp_re": True}]},
        {"components": [{**COMPONENT, "coeff_re": 10 ** 400}]},
    ], ids=["components-number", "component-number", "string-coefficient",
            "null-coefficient", "measurement-string", "top-level-list", "string-normalized",
            "nan-measurement", "infinite-measurement", "string-measurement",
            "bool-measurement", "bool-amplitude", "integer-past-float"])
    def test_state_malformed(self, capsys, tmp_path, doc):
        state = tmp_path / "s.json"
        state.write_text(json.dumps(doc))
        code, out, err = run(["fidelity", "--state", str(state)], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("kerrcat: error:") and err.count("\n") == 1


class TestDecompose:
    def test_coefficient_csv(self, capsys, tmp_path):
        out = tmp_path / "c.csv"
        code, _, _ = run(["decompose", "--alpha", "5", "--n", "6",
                          "--output", str(out)], capsys)
        assert code == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0] == ["n", "re", "im", "magnitude", "zeta_n"]
        assert len(rows) == 7
        for row in rows[1:]:
            assert float(row[3]) == pytest.approx(1 / math.sqrt(6), rel=1e-12)
            assert -math.pi < float(row[4]) <= math.pi

    def test_state_json(self, capsys, tmp_path):
        out = tmp_path / "s.json"
        code, _, _ = run(["decompose", "--alpha", "5", "--n", "4",
                          "--format", "json", "--output", str(out)], capsys)
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["normalized"] is True
        assert len(doc["components"]) == 4


class TestEvolveFock:
    def test_probabilities_sum_to_one(self, capsys, tmp_path):
        out = tmp_path / "f.csv"
        code, _, _ = run(["evolve-fock", "--alpha", "2", "--lambda-tau", "0.7",
                          "--output", str(out)], capsys)
        assert code == 0
        rows = list(csv.reader(out.read_text().splitlines()))[1:]
        assert sum(float(r[3]) for r in rows) == pytest.approx(1.0, abs=1e-8)

    def test_truncation_failure_exit_code(self, capsys):
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code, _, err = run(["evolve-fock", "--alpha", "20",
                                "--lambda-tau", "0.7", "--cutoff", "60"], capsys)
        assert code == 2
        assert "numerical failure" in err


class TestConditionAndFidelity:
    def test_condition_json_has_measurement(self, capsys, tmp_path):
        out = tmp_path / "s.json"
        code, _, _ = run(["condition", "--alpha", "20", "--n", "20", "--x", "0.7",
                          "--output", str(out)], capsys)
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["measurement"] == {"quadrature": "X", "value": 0.7}
        assert doc["normalized"] is True

    def test_condition_csv_matches_json(self, capsys, tmp_path):
        args = ["condition", "--alpha", "20", "--n", "20", "--x", "0.7"]
        assert run(args + ["--format", "csv", "--output", str(tmp_path / "s.csv")], capsys)[0] == 0
        assert run(args + ["--output", str(tmp_path / "s.json")], capsys)[0] == 0
        with open(tmp_path / "s.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        comps = json.loads((tmp_path / "s.json").read_text())["components"]
        assert len(rows) == len(comps) == 20
        assert [{k: float(v) for k, v in r.items()} for r in rows] == comps

    def test_condition_degenerate_exit_code(self, capsys):
        code, _, err = run(["condition", "--alpha", "20", "--n", "20",
                            "--x", "48"], capsys)
        assert code == 2
        assert "numerical failure" in err

    @pytest.mark.parametrize("args", [
        ["--n", "1024", "--x", "5"],
        ["--n", "4096"],
        ["--alpha", "10", "--n", "1024"],
    ], ids=["n1024-x5", "n4096", "alpha10-n1024"])
    def test_fidelity_refuses_norm_past_budget(self, capsys, args):
        # the conditioned states' squared norms lose 8.01, 14.71 and 12.92
        # digits; each printed a wrong fidelity before the norm was checked
        code, out, err = run(["fidelity"] + args, capsys)
        assert code == 2
        assert out == ""
        assert "digits to cancellation" in err

    def test_round_trip_matches_one_shot(self, capsys, tmp_path):
        state = tmp_path / "s.json"
        assert run(["condition", "--x", "0.7", "--output", str(state)], capsys)[0] == 0
        code, direct_out, _ = run(["fidelity", "--x", "0.7"], capsys)
        assert code == 0
        code, loaded_out, _ = run(["fidelity", "--state", str(state)], capsys)
        assert code == 0
        assert direct_out.splitlines()[-1] == loaded_out.splitlines()[-1]

    @pytest.mark.parametrize("args", [["--x", "-1.5"], ["--x", "3.0"],
                                      ["--n", "200", "--x", "25"]])
    def test_round_trip_at_other_outcomes(self, capsys, tmp_path, args):
        # the flagged file passes the norm check unchanged; at N = 200, X = 25
        # its pair sum loses 7.7 digits and reads 1 + 4e-8
        state = tmp_path / "s.json"
        assert run(["condition", *args, "--output", str(state)], capsys)[0] == 0
        code, direct_out, _ = run(["fidelity", *args], capsys)
        assert code == 0
        code, loaded_out, _ = run(["fidelity", *args[:-2], "--state", str(state)], capsys)
        assert code == 0
        assert direct_out.splitlines()[-1] == loaded_out.splitlines()[-1]

    def test_flagged_large_ring_round_trip(self, capsys, tmp_path):
        # the pair sum loses 13 digits on the N = 1024 ring at X = 1; a ring's
        # norm is measured by the spectral sum instead, which loses 4.97
        state = tmp_path / "s.json"
        args = ["--n", "1024", "--x", "1"]
        assert run(["condition", *args, "--output", str(state)], capsys)[0] == 0
        code, direct_out, _ = run(["fidelity", *args], capsys)
        assert code == 0
        code, loaded_out, err = run(["fidelity", "--n", "1024", "--state", str(state)], capsys)
        assert code == 0, err
        assert direct_out.splitlines()[-1] == loaded_out.splitlines()[-1]

    def test_unflagged_large_ring_round_trip(self, capsys, tmp_path):
        # the same file marked unnormalized is renormalized by its spectral
        # norm (4.97 digits lost), not refused for the pair sum's 13
        state = tmp_path / "s.json"
        args = ["--n", "1024", "--x", "1"]
        assert run(["condition", *args, "--output", str(state)], capsys)[0] == 0
        doc = json.loads(state.read_text())
        doc["normalized"] = False
        state.write_text(json.dumps(doc))
        code, direct_out, _ = run(["fidelity", *args], capsys)
        assert code == 0
        code, loaded_out, err = run(["fidelity", "--n", "1024", "--state", str(state)], capsys)
        assert code == 0, err
        got, want = (float(out.split("fidelity=")[1].split()[0]) for out in (loaded_out, direct_out))
        assert abs(got - want) <= 1e-9  # the bench's FIDELITY tolerance

    def test_flagged_large_ring_off_norm_rejected(self, capsys, tmp_path):
        # the same file with every coefficient doubled: squared norm 4
        state = tmp_path / "s.json"
        assert run(["condition", "--n", "1024", "--x", "1", "--output", str(state)],
                   capsys)[0] == 0
        doc = json.loads(state.read_text())
        for comp in doc["components"]:
            comp["coeff_re"], comp["coeff_im"] = 2.0 * comp["coeff_re"], 2.0 * comp["coeff_im"]
        state.write_text(json.dumps(doc))
        code, out, err = run(["fidelity", "--n", "1024", "--state", str(state)], capsys)
        assert code == 1
        assert out == "" and "marked normalized but has squared norm 4.0000000000" in err

    def _fidelity_of_file(self, capsys, tmp_path, coeff, normalized=False):
        """fidelity --state on coeff (|i b> + |-i b>), b = 20 / sqrt2."""
        doc = {"components": [{"coeff_re": coeff, "coeff_im": 0.0,
                               "amp_re": 0.0, "amp_im": sign * 20.0 / math.sqrt(2)}
                              for sign in (1, -1)],
               "normalized": normalized}
        state = tmp_path / "s.json"
        state.write_text(json.dumps(doc))
        return run(["fidelity", "--state", str(state)], capsys)

    def test_unnormalized_state_is_scored_normalized(self, capsys, tmp_path):
        # the even cat with coefficients 2 instead of 1/sqrt(2)
        code, out, _ = self._fidelity_of_file(capsys, tmp_path, 2.0)
        assert code == 0
        assert float(out.split("fidelity=")[1].split()[0]) == pytest.approx(1.0, abs=1e-12)

    def test_null_state_exit_code(self, capsys, tmp_path):
        code, out, err = self._fidelity_of_file(capsys, tmp_path, 0.0)
        assert code == 2
        assert out == "" and "numerical failure" in err

    def test_flagged_state_off_norm_rejected(self, capsys, tmp_path):
        # squared norm 8, marked normalized: rejected, not scored as 8
        code, out, err = self._fidelity_of_file(capsys, tmp_path, 2.0, normalized=True)
        assert code == 1
        assert out == "" and "marked normalized but has squared norm 7.99" in err

    def test_flagged_null_state_exit_code(self, capsys, tmp_path):
        code, out, err = self._fidelity_of_file(capsys, tmp_path, 0.0, normalized=True)
        assert code == 2
        assert out == "" and "numerical failure" in err

    def test_fidelity_prints_value(self, capsys):
        code, out, _ = run(["fidelity", "--x", "0"], capsys)
        assert code == 0
        val = float(out.split("fidelity=")[1].split()[0])
        assert val > 0.99999

    def test_explicit_target(self, capsys):
        code, out, _ = run(["fidelity", "--x", "0", "--target-re", "0",
                            "--target-im", str(-20 / math.sqrt(2))], capsys)
        assert code == 0
        assert float(out.split("fidelity=")[1].split()[0]) > 0.99999


class TestCurvesAndWindows:
    def test_curve_deterministic(self, capsys, tmp_path):
        f1, f2 = tmp_path / "c1.csv", tmp_path / "c2.csv"
        args = ["fidelity-curve", "--x-min", "-0.5", "--x-max", "0.5",
                "--x-step", "0.1"]
        assert run(args + ["--output", str(f1)], capsys)[0] == 0
        assert run(args + ["--output", str(f2)], capsys)[0] == 0
        assert f1.read_bytes() == f2.read_bytes()

    def test_flagship_success_probability(self, capsys):
        code, out, _ = run(["success-prob", "--alpha", "20", "--n", "20",
                            "--f-min", "0.99999", "--scan-step", "0.02"], capsys)
        assert code == 0
        prob = float(out.split("success_probability=")[1].split()[0])
        assert prob == pytest.approx(0.10, abs=0.02)

    def test_window_and_success(self, capsys, tmp_path):
        rep = tmp_path / "rep.csv"
        code, out, _ = run(["success-prob", "--alpha", "6", "--n", "2",
                            "--f-min", "0.9", "--scan-step", "0.05",
                            "--output", str(rep)], capsys)
        assert code == 0
        prob = float(out.split("success_probability=")[1].split()[0])
        assert 0.0 < prob < 0.5
        rows = list(csv.reader(rep.read_text().splitlines()))
        assert rows[0] == ["n", "alpha_i", "f_min", "window_intervals", "probability"]
        assert float(rows[1][4]) == pytest.approx(prob, rel=1e-12, abs=0)

    def test_window_csv(self, capsys, tmp_path):
        out = tmp_path / "w.csv"
        code, printed, _ = run(["window", "--alpha", "6", "--n", "2",
                                "--f-min", "0.9", "--scan-step", "0.05",
                                "--output", str(out)], capsys)
        assert code == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0] == ["x_lo", "x_hi"]
        assert len(rows) >= 2
        assert "[" in printed


    def test_window_stdout_is_intervals_only(self, capsys):
        code, printed, _ = run(["window", "--alpha", "6", "--n", "2",
                                "--f-min", "0.9", "--scan-step", "0.05"], capsys)
        assert code == 0
        lines = printed.splitlines()
        assert lines
        for line in lines:
            lo, hi = line.removeprefix("[").removesuffix("]").split(", ")
            assert line == f"[{lo}, {hi}]" and float(lo) < float(hi)


class TestDistributionsAndNoise:
    def test_pdist_pre(self, capsys, tmp_path):
        out = tmp_path / "p.csv"
        code, _, _ = run(["pdist-pre", "--alpha", "4", "--n", "4",
                          "--p-step", "0.25", "--output", str(out)], capsys)
        assert code == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0] == ["p", "density"]
        dens = [float(r[1]) for r in rows[1:]]
        assert sum(dens) * 0.25 == pytest.approx(1.0, abs=1e-3)

    def test_pdist_post(self, capsys, tmp_path):
        out = tmp_path / "p.csv"
        code, _, _ = run(["pdist-post", "--alpha", "4", "--n", "4", "--x", "0",
                          "--p-step", "0.25", "--output", str(out)], capsys)
        assert code == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        dens = [float(r[1]) for r in rows[1:]]
        assert sum(dens) * 0.25 == pytest.approx(1.0, abs=1e-3)

    def test_noise_loss_series(self, capsys, tmp_path):
        out = tmp_path / "l.csv"
        code, printed, _ = run(["noise-loss", "--loss-probs", "0,0.1,0.3",
                                "--output", str(out)], capsys)
        assert code == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0] == ["loss_prob", "fidelity"]
        fids = [float(r[1]) for r in rows[1:]]
        assert fids[0] > fids[1] > fids[2]

    def test_noise_phase_series(self, capsys, tmp_path):
        out = tmp_path / "s.csv"
        code, _, _ = run(["noise-phase", "--alpha", "4", "--n", "4",
                          "--sigma-max", "0.04", "--sigma-step", "0.02",
                          "--output", str(out)], capsys)
        assert code == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0] == ["sigma", "avg_fidelity"]
        assert len(rows) == 4


class TestCsvWriter:
    @staticmethod
    def reference(header, rows):
        """csv.writer on every row, floats through _fmt."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([cli._fmt(v) if isinstance(v, float) else v for v in row])
        return buf.getvalue()

    @pytest.mark.parametrize("rows", [
        [(1, 0.1, -0.0), (2, math.inf, -math.nan), (3, 5e-324, 2.0 / 3.0)],
        [(np.float64(0.1), np.float64(-1.5e300), 1e22)],
        # a float where the first row has an int, and the reverse: no %d on 2.5
        [(1, 0.5, 0.25), (2.5, 0.5, 0.25), (3, 7, 0.25), (4, 0.5)],
        # a str in the first row or a later one: csv.writer quotes it
        [("a,b", 0.1, 1), ('q"uote', 2.0, 3)],
        [(0.5, 0.25, 1), (0.5, "x y,z", 1)],
        # bools and numpy ints print as csv.writer prints them
        [(True, 0.5, 1), (np.int64(3), 0.25, 1)],
        [[1.0, 2, 0.5]],
        [],
    ], ids=["ints-floats", "numpy-floats", "changed-types", "str-first", "str-later",
            "bool-numpy-int", "list-rows", "empty"])
    def test_same_bytes_as_csv_writer(self, capsys, rows):
        cli._write_csv(None, ("a", "b", "c"), iter(rows))
        assert capsys.readouterr().out == self.reference(("a", "b", "c"), rows)


class TestReproduceAndVerify:
    def test_reproduce_fig3_columns(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("KERRCAT_OUTDIR", str(tmp_path))
        code, _, _ = run(["reproduce", "fig3"], capsys)
        assert code == 0
        rows = list(csv.reader((tmp_path / "fig3.csv").read_text().splitlines()))
        assert rows[0] == ["x", "fidelity_n20", "phi_max_n20", "fidelity_n40",
                           "phi_max_n40", "fidelity_n60", "phi_max_n60"]
        xs = [float(r[0]) for r in rows[1:]]
        assert xs[0] == -3.0 and xs[-1] == pytest.approx(3.0)
        mid = rows[1 + xs.index(0.0)]
        assert float(mid[1]) > 0.99999            # N = 20 peak
        assert float(mid[5]) == pytest.approx(0.975, abs=0.005)  # N = 60 peak

    def test_reproduce_fig3_bytes_from_points(self, capsys, tmp_path):
        # the columns fig3 writes are those of the points of fidelity_curve
        code, _, _ = run(["reproduce", "fig3", "--outdir", str(tmp_path)], capsys)
        assert code == 0
        grid, ns = cli._grid(-3.0, 3.0, 0.01), (20, 40, 60)
        series = [fidelity_curve(20.0, n, grid) for n in ns]
        want = io.StringIO()
        writer = csv.writer(want, lineterminator="\n")
        writer.writerow(["x", *(f"{q}_n{n}" for n in ns for q in ("fidelity", "phi_max"))])
        for pts in zip(*series):
            writer.writerow([cli._fmt(v) for v in (pts[0].x, *(v for p in pts
                                                              for v in (p.fidelity, p.phi_max)))])
        assert (tmp_path / "fig3.csv").read_text() == want.getvalue()

    def test_reproduce_fig2(self, capsys, tmp_path):
        code, _, _ = run(["reproduce", "fig2", "--outdir", str(tmp_path)], capsys)
        assert code == 0
        rows = list(csv.reader((tmp_path / "fig2.csv").read_text().splitlines()))
        assert rows[0] == ["p", "density_before_split", "density_conditioned_x0"]

    # a relative KERRCAT_OUTDIR prefixes the directory once
    @pytest.mark.parametrize("outdir,written", [([], ("rel", "fig2.csv")),
                                                (["--outdir", "a"], ("rel", "a", "fig2.csv"))],
                             ids=["env", "outdir-under-env"])
    def test_reproduce_relative_outdir_env(self, capsys, tmp_path, monkeypatch, outdir,
                                           written):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("KERRCAT_OUTDIR", "rel")
        code, out, _ = run(["reproduce", "fig2", *outdir], capsys)
        assert code == 0
        assert out == f"wrote {os.path.join(*written)}\n"
        assert tmp_path.joinpath(*written).is_file()

    def test_reproduce_absolute_outdir_ignores_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("KERRCAT_OUTDIR", "rel")
        code, out, _ = run(["reproduce", "fig2", "--outdir", str(tmp_path / "abs")], capsys)
        assert code == 0
        assert out == f"wrote {tmp_path / 'abs' / 'fig2.csv'}\n"
        assert (tmp_path / "abs" / "fig2.csv").is_file()

    def test_verify_fast(self, capsys):
        code, out, _ = run(["verify", "--fast"], capsys)
        assert code == 0
        assert out.count("ok  ") == 3
        assert "FAIL" not in out

    def test_verify_failure_exit_code(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "verify_phase_identity", lambda n: 1.0)
        code, out, _ = run(["verify", "--fast"], capsys)
        assert code == 3
        assert out.startswith("FAIL ring-coefficient exactness identity max residual 1.00e+00\n")
        assert out.count("ok  ") == 2

    def test_summary_commands_document_output(self, capsys):
        code, out, _ = run(["window", "--help"], capsys)
        assert code == 0
        text = " ".join(out.split())
        assert "default stdout" not in text
        assert "--output OUTPUT also write the window's intervals to this CSV file " \
               "(they are printed either way)" in text

    def test_outdir_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("KERRCAT_OUTDIR", str(tmp_path))
        code, _, _ = run(["decompose", "--n", "3", "--output", "c.csv"], capsys)
        assert code == 0
        assert (tmp_path / "c.csv").exists()


def test_console_script_entry():
    proc = subprocess.run([sys.executable, "-m", "kerrcat", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "kerrcat" in proc.stdout


def test_import_leaves_scipy_unloaded():
    code = ("import sys, kerrcat, kerrcat.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"

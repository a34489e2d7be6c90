"""Command-line interface: exit codes, determinism, round trips, file formats."""

import csv
import json
import math
import subprocess
import sys

import pytest

from kerrcat.cli import main


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

    def test_lambda_tau_equals_n(self, capsys, tmp_path):
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(["decompose", "--n", "8", "--output", str(f1)], capsys)[0] == 0
        assert run(["decompose", "--lambda-tau", str(math.pi / 8),
                    "--output", str(f2)], capsys)[0] == 0
        assert f1.read_bytes() == f2.read_bytes()

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 1

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

    def test_condition_degenerate_exit_code(self, capsys):
        code, _, err = run(["condition", "--alpha", "20", "--n", "20",
                            "--x", "48"], capsys)
        assert code == 2
        assert "numerical failure" in err

    def test_round_trip_matches_one_shot(self, capsys, tmp_path):
        state = tmp_path / "s.json"
        assert run(["condition", "--x", "0.7", "--output", str(state)], capsys)[0] == 0
        code, direct_out, _ = run(["fidelity", "--x", "0.7"], capsys)
        assert code == 0
        code, loaded_out, _ = run(["fidelity", "--state", str(state)], capsys)
        assert code == 0
        assert direct_out.splitlines()[-1] == loaded_out.splitlines()[-1]

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
        assert float(rows[1][4]) == pytest.approx(prob, rel=1e-12)

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

    def test_reproduce_fig2(self, capsys, tmp_path):
        code, _, _ = run(["reproduce", "fig2", "--outdir", str(tmp_path)], capsys)
        assert code == 0
        rows = list(csv.reader((tmp_path / "fig2.csv").read_text().splitlines()))
        assert rows[0] == ["p", "density_before_split", "density_conditioned_x0"]

    def test_verify_fast(self, capsys):
        code, out, _ = run(["verify", "--fast"], capsys)
        assert code == 0
        assert out.count("ok  ") == 3
        assert "FAIL" not in out

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

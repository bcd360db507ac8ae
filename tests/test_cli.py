"""Command line interface tests.

Everything runs in-process through ``main(argv)`` so exit codes and stderr
diagnostics are observable; one test runs the ``mismatch-quant`` console
script end to end, as the wrapper an installer would generate from the
``[project.scripts]`` entry in this checkout's ``pyproject.toml``.
"""

import csv
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import mismatch_quant
from mismatch_quant import cli
from mismatch_quant.cli import ExperimentConfig, main, validate

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"
REPORT_HEADER = ["bits", "d_fix", "d_gen", "d_ideal", "gain_pct",
                 "ideal_gain_pct", "method"]
MC_HEADER = ["d_fix_mc", "d_gen_mc", "mc_stderr"]


def _write_cfg(tmp_path, name="cfg.json", **overrides):
    cfg = {"experiment": "mean_sweep", "bits": [1],
           "mu1_values": [0.0, 1.0]}
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestValidateCommand:
    def test_good_config_passes(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path)
        assert main(["validate", "--config", str(cfg)]) == 0
        assert "config ok" in capsys.readouterr().out

    def test_unknown_experiment(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, experiment="frequency_sweep")
        assert main(["validate", "--config", str(cfg)]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_unknown_key(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, typo_key=3)
        assert main(["validate", "--config", str(cfg)]) == 2
        assert "typo_key" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["validate", "--config", str(tmp_path / "nope.json")]) == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["validate", "--config", str(path)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    def test_bad_law_spec(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, design={"kind": "gaussian", "mean": 0.0,
                                           "std": -1.0})
        assert main(["validate", "--config", str(cfg)]) == 2
        assert "design law" in capsys.readouterr().err

    def test_mc_needs_seed(self, tmp_path):
        cfg = _write_cfg(tmp_path, mc_samples=1000)
        assert main(["validate", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_rician_is_not_a_design_law(self, tmp_path, capsys, command):
        cfg = _write_cfg(tmp_path, design={"kind": "rician", "k_factor": 3.0},
                         output=str(tmp_path / "out.csv"))
        assert main([command, "--config", str(cfg)]) == 2
        assert "design law:" in capsys.readouterr().err
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("text", [
        '{"experiment": "mean_sweep", "mc_samples": "x"}',
        '{"experiment": "mean_sweep", "bits": 3}',
        '{"experiment": "semantic_mixture", "n_classes": 2.5}',
        '{"experiment": "variance_sweep", "sigma1_values": ["a"]}',
        '{"experiment": "mean_sweep", "bits": [true]}',
        '{"experiment": "mean_sweep", "mu1_values": [1e400]}',
        '{"experiment": "rician_csi", "k_t_values": [1e400]}',
        '{"experiment": "bsc_sweep", "sigma0": NaN}',
        '{"experiment": "mean_sweep", "seed": "abc", "mc_samples": 10}',
        '{"experiment": "bsc_sweep", "seed": 1, "mc_samples": 1}',
        '{"experiment": "mean_sweep", "design": {"kind": "gaussian", "std": [1]}}',
        '{"experiment": "laplace_table", "true": {"kind": "mixture", '
        '"components": [[1.0, 0.0, 1.0]]}}',
        '[{"experiment": "mean_sweep"}]',
    ])
    def test_mistyped_config_is_a_config_error(self, tmp_path, capsys, command,
                                               text):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        out = tmp_path / "out.csv"
        argv = [command, "--config", str(path)]
        assert main(argv + (["--out", str(out)] if command == "run" else [])) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "Traceback" not in err
        assert not out.exists()

    def test_validate_collects_multiple_problems(self):
        cfg = ExperimentConfig(experiment="bsc_sweep", epsilon_values=[0.9],
                               sigma0=-1.0)
        problems = validate(cfg)
        assert len(problems) == 2


class TestRunCommand:
    def test_mean_sweep_writes_expected_rows(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, output=str(tmp_path / "out.csv"))
        assert main(["run", "--config", str(cfg)]) == 0
        assert "wrote" in capsys.readouterr().out
        rows = _read_csv(tmp_path / "out.csv")
        assert rows[0] == ["mu1", "bits", "d_fix", "d_gen", "d_ideal",
                           "gain_pct", "ideal_gain_pct", "method"]
        assert len(rows) == 3
        # matched row: moving codewords to the true conditional means buys nothing
        matched = rows[1]
        assert float(matched[0]) == 0.0
        assert abs(float(matched[5])) < 1e-9

    def test_rerun_is_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        cfg = _write_cfg(tmp_path, mc_samples=5000, seed=11)
        assert main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["run", "--config", str(cfg), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_flag_overrides_win(self, tmp_path):
        out = tmp_path / "o.csv"
        cfg = _write_cfg(tmp_path, bits=[1])
        assert main(["run", "--config", str(cfg), "--bits", "1,2",
                     "--out", str(out)]) == 0
        rows = _read_csv(out)
        assert [r[1] for r in rows[1:]] == ["1", "2", "1", "2"]

    def test_invalid_config_does_not_run(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, bits=[])
        assert main(["run", "--config", str(cfg)]) == 2
        assert "bits grid is empty" in capsys.readouterr().err

    def test_runtime_failure_exits_one(self, tmp_path, capsys):
        # classes this far apart leave design bins with literally no mass
        # under the single true class, which the labeler refuses to gloss over
        cfg = _write_cfg(tmp_path, experiment="semantic_mixture", n_classes=2,
                         class_spacing=600.0, class_std=0.5, bits=[1],
                         k_values=[1])
        assert main(["run", "--config", str(cfg),
                     "--out", str(tmp_path / "x.csv")]) == 1
        assert "ZeroMassBin" in capsys.readouterr().err

    @pytest.mark.parametrize("exc_type", [ValueError, RuntimeError])
    def test_failure_while_running_exits_one(self, tmp_path, capsys,
                                             monkeypatch, exc_type):
        def fail(cfg):
            raise exc_type("numeric trouble")

        monkeypatch.setitem(cli._RUNNERS, "mean_sweep",
                            cli._RUNNERS["mean_sweep"]._replace(runner=fail))
        cfg = _write_cfg(tmp_path, output=str(tmp_path / "out.csv"))
        assert main(["run", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err == f"operation failed: {exc_type.__name__}: numeric trouble\n"

    @pytest.mark.parametrize("experiment, prefix, n_rows", [
        ("variance_sweep", ["sigma1"], 4),
        ("laplace_table", [], 2),
        ("single_report", ["design", "true"], 2),
    ])
    @pytest.mark.parametrize("mc", [False, True])
    def test_report_experiment_columns(self, tmp_path, experiment, prefix,
                                       n_rows, mc):
        out = tmp_path / "rep.csv"
        cfg = _write_cfg(tmp_path, experiment=experiment, bits=[1, 3],
                         sigma1_values=[0.5, 2.0])
        extra = ["--mc-samples", "20000", "--seed", "4"] if mc else []
        assert main(["run", "--config", str(cfg), "--out", str(out)]
                    + extra) == 0
        rows = _read_csv(out)
        assert rows[0] == prefix + REPORT_HEADER + (MC_HEADER if mc else [])
        assert len(rows) == 1 + n_rows
        for row in rows[1:]:
            rec = dict(zip(rows[0], row))
            assert float(rec["d_gen"]) <= float(rec["d_fix"])
            if mc:
                se = float(rec["mc_stderr"])
                assert abs(float(rec["d_fix_mc"]) - float(rec["d_fix"])) < 5 * se
                assert abs(float(rec["d_gen_mc"]) - float(rec["d_gen"])) < 5 * se
        if experiment == "single_report":
            assert json.loads(rows[1][0]) == json.loads(rows[1][1]) == {
                "kind": "gaussian", "mean": 0.0, "std": 1.0}

    def test_readme_lists_every_experiment(self):
        text = (ROOT / "README.md").read_text()
        start = text.index("Available experiments:")
        listed = text[start:text.index(". ", start)]
        assert tuple(re.findall(r"`(\w+)`", listed)) == cli.EXPERIMENTS

    def test_bsc_sweep_columns(self, tmp_path):
        out = tmp_path / "bsc.csv"
        cfg = _write_cfg(tmp_path, experiment="bsc_sweep",
                         epsilon_values=[0.1], bsc_sigma1_values=[2.0])
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        rows = _read_csv(out)
        assert rows[0][:3] == ["epsilon", "sigma0", "sigma1"]
        d_std, d_hard, d_opt = map(float, rows[1][3:6])
        assert d_hard - d_opt == pytest.approx(
            4.0 * 0.01 * 4.0 * 2.0 / math.pi, abs=1e-12)

    def test_rician_csi_values(self, tmp_path):
        out = tmp_path / "csi.csv"
        cfg = _write_cfg(tmp_path, experiment="rician_csi",
                         k_t_values=[0.0, 3.0])
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        rows = _read_csv(out)
        assert rows[0] == ["k_t", "k_d", "phi_t", "phi_d", "eta_pct"]
        assert float(rows[1][2]) == pytest.approx(1.5957691216057308, abs=1e-10)
        assert float(rows[2][4]) == pytest.approx(0.0, abs=1e-12)

    def test_semantic_mixture_single_class_is_perfectly_recoverable(self, tmp_path):
        out = tmp_path / "sem.csv"
        cfg = _write_cfg(tmp_path, experiment="semantic_mixture", n_classes=4,
                         bits=[2], k_values=[1, 4])
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        rows = _read_csv(out)
        assert rows[0] == ["k", "bits", "acc_fix", "acc_gen", "acc_ideal",
                           "recovery_pct"]
        k1 = rows[1]
        assert float(k1[3]) == pytest.approx(1.0, abs=1e-12)
        k4 = rows[2]
        assert k4[5] == "na"
        assert float(k4[2]) == pytest.approx(float(k4[3]), abs=1e-12)

    def test_rate_recovery_columns(self, tmp_path):
        out = tmp_path / "rr.csv"
        cfg = _write_cfg(tmp_path, experiment="rate_recovery", bits=[2, 3])
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        rows = _read_csv(out)
        assert rows[0] == ["bits", "d_fix", "d_gen", "d_ideal_pd",
                           "bias_part", "penalty_factor"]
        for row in rows[1:]:
            assert float(row[2]) <= float(row[1])


class TestReportCommand:
    def test_one_bit_mismatch_numbers(self, capsys):
        rc = main(["report",
                   "--design", '{"kind": "gaussian", "mean": 0.0, "std": 1.0}',
                   "--true", '{"kind": "gaussian", "mean": 0.0, "std": 2.0}',
                   "--bits", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        values = {line.split(":")[0].strip(): line.split(":")[1].strip()
                  for line in out.strip().splitlines()}
        assert float(values["d_fix"]) == pytest.approx(4.0 - 6.0 / math.pi,
                                                       rel=1e-10)
        assert float(values["d_gen"]) == pytest.approx(
            4.0 * (1.0 - 2.0 / math.pi), rel=1e-10)

    def test_bad_json_spec(self, capsys):
        rc = main(["report", "--design", "{oops", "--true", "{}", "--bits", "2"])
        assert rc == 2
        assert "valid JSON" in capsys.readouterr().err

    def test_bad_law_spec(self, capsys):
        rc = main(["report",
                   "--design", '{"kind": "gaussian", "mean": 0.0, "std": -1.0}',
                   "--true", '{"kind": "gaussian", "mean": 0.0, "std": 1.0}',
                   "--bits", "2"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("config error: law spec:")

    def test_bits_out_of_range(self, capsys):
        rc = main(["report",
                   "--design", '{"kind": "gaussian", "mean": 0.0, "std": 1.0}',
                   "--true", '{"kind": "gaussian", "mean": 0.0, "std": 1.0}',
                   "--bits", "17"])
        assert rc == 2

    def test_mc_needs_seed(self, capsys):
        rc = main(["report",
                   "--design", '{"kind": "gaussian", "mean": 0.0, "std": 1.0}',
                   "--true", '{"kind": "gaussian", "mean": 0.0, "std": 1.0}',
                   "--bits", "2", "--mc-samples", "1000"])
        assert rc == 2
        assert "requires --seed" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [["--mc-samples", "1000", "--seed", "-1"],
                                       ["--mc-samples", "1", "--seed", "1"],
                                       ["--mc-samples", "-5", "--seed", "1"]])
    def test_bad_monte_carlo_settings(self, capsys, extra):
        rc = main(["report",
                   "--design", '{"kind": "gaussian", "mean": 0.0, "std": 1.0}',
                   "--true", '{"kind": "gaussian", "mean": 0.0, "std": 1.0}',
                   "--bits", "2", *extra])
        assert rc == 2
        assert capsys.readouterr().err.startswith("config error: --mc-samples")

    def test_mc_lines_present_when_requested(self, capsys):
        rc = main(["report",
                   "--design", '{"kind": "gaussian", "mean": 0.0, "std": 1.0}',
                   "--true", '{"kind": "gaussian", "mean": 0.0, "std": 1.5}',
                   "--bits", "2", "--mc-samples", "20000", "--seed", "1"])
        assert rc == 0
        assert "mc stderr" in capsys.readouterr().out


class TestConsoleScript:
    def test_installed_entry_point(self, tmp_path):
        tomllib = pytest.importorskip("tomllib")
        with open(PYPROJECT, "rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        module, attr = scripts["mismatch-quant"].split(":")
        script = tmp_path / "mismatch-quant"
        script.write_text(f"import sys\nfrom {module} import {attr}\n"
                          f"sys.exit({attr}())\n")
        # The package root must be absolute: the script runs from tmp_path.
        pkg_root = str(Path(mismatch_quant.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (pkg_root, env.get("PYTHONPATH")) if p)
        cfg = _write_cfg(tmp_path, output=str(tmp_path / "out.csv"))
        proc = subprocess.run(
            [sys.executable, str(script), "run", "--config", str(cfg)],
            capture_output=True, text=True, cwd=tmp_path, env=env)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "out.csv").exists()

    def test_module_requires_a_command(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "from mismatch_quant.cli import main; raise SystemExit(main([]))"],
            capture_output=True, text=True)
        assert proc.returncode == 2

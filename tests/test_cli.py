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
from dataclasses import fields
from pathlib import Path

import pytest

import mismatch_quant
from mismatch_quant import cli, quantizer
from mismatch_quant.cli import ExperimentConfig, main, validate

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"
DEFAULT_CSV = Path(__file__).resolve().parent / "data" / "default_csv"
# Columns that echo the experiment grid or name the method; every other
# column is a computed number.
GRID_COLUMNS = {"mu1", "sigma1", "sigma0", "epsilon", "bits", "k_t", "k_d", "k",
                "design", "true", "method"}
REPORT_HEADER = ["bits", "d_fix", "d_gen", "d_ideal", "gain_pct",
                 "ideal_gain_pct", "method"]
MC_HEADER = ["d_fix_mc", "d_gen_mc", "mc_stderr"]
# Values each key's check refuses: an unparseable law, an empty grid (listed
# first) and an out-of-range entry or setting.
REFUSED = {
    "design": [{"kind": "nope"}],
    "true": [{"kind": "gaussian", "std": -1.0}],
    "bits": [[], [17]],
    "mu1_values": [[]],
    "sigma1_values": [[], [1.0, -1.0]],
    "epsilon_values": [[], [0.6]],
    "sigma0": [0.0],
    "bsc_sigma1_values": [[], [0.0]],
    "k_t_values": [[], [-1.0]],
    "k_d": [-1.0],
    "n_classes": [0],
    "class_std": [0.0],
    "class_spacing": [-1.0],
    "k_values": [[], [0]],
}
# The keys every experiment reads besides those it declares.
ALWAYS_READ = {"experiment", "output", "seed"}


def _write_cfg(tmp_path, name="cfg.json", **overrides):
    cfg = {"experiment": "mean_sweep", "bits": [1],
           "mu1_values": [0.0, 1.0]}
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def _package_env():
    """The environment with this checkout's package first on PYTHONPATH.

    The package root must be absolute: subprocesses may run from tmp_path.
    """
    pkg_root = str(Path(mismatch_quant.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (pkg_root, env.get("PYTHONPATH")) if p)
    return env


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

    @pytest.mark.parametrize("text", [
        '{"experiment": "bsc_sweep", "design": {"kind": "gaussian", "std": -1}}',
        '{"experiment": "rician_csi", "design": {"kind": "laplace", "scale": 0}}',
        '{"experiment": "mean_sweep", "true": {"kind": "gaussian", "std": -1}}',
        '{"experiment": "variance_sweep", "true": {"kind": "nope"}}',
    ])
    def test_unread_laws_are_not_checked(self, tmp_path, capsys, text):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        assert main(["validate", "--config", str(path)]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("experiment", ["mean_sweep", "single_report"])
    def test_a_bad_design_law_is_reported_once(self, tmp_path, capsys, experiment):
        cfg = _write_cfg(tmp_path, experiment=experiment,
                         design={"kind": "gaussian", "std": -1.0})
        assert main(["validate", "--config", str(cfg)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and "design law:" in lines[0]

    def test_a_bad_true_law_is_reported_when_read(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, experiment="rate_recovery",
                         true={"kind": "laplace", "scale": -2.0})
        assert main(["validate", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "config error: true law: scale must be positive, got -2.0"]

    def test_validate_collects_multiple_problems(self):
        cfg = ExperimentConfig(experiment="bsc_sweep", epsilon_values=[0.9],
                               sigma0=-1.0)
        problems = validate(cfg)
        assert len(problems) == 2

    @pytest.mark.parametrize("experiment, key, value", [
        (experiment, key, value)
        for experiment, spec in cli._RUNNERS.items()
        for key in spec.reads if key != "mc_samples"
        for value in REFUSED[key]
    ])
    def test_every_read_key_is_checked(self, tmp_path, capsys, experiment, key, value):
        cfg = _write_cfg(tmp_path, experiment=experiment, **{key: value})
        assert main(["validate", "--config", str(cfg)]) == 2
        [line] = capsys.readouterr().err.splitlines()
        if key in ("design", "true"):
            assert line.startswith(f"config error: {key} law: ")
        elif value == []:
            assert line == f"config error: {key} grid is empty"
        else:
            text, _ = cli._RANGES[key]
            assert line == f"config error: {key} must be {text}, got {value!r}"

    def test_range_edges_validate(self):
        edges = dict(bits=[1, 16], sigma1_values=[5e-324], epsilon_values=[0.0, 0.5],
                     sigma0=5e-324, bsc_sigma1_values=[5e-324], k_t_values=[0.0],
                     k_d=0.0, n_classes=1, class_std=5e-324, class_spacing=5e-324,
                     k_values=[1])
        for experiment in cli.EXPERIMENTS:
            assert validate(ExperimentConfig(experiment=experiment, **edges)) == []

    def test_k_values_must_lie_within_n_classes(self):
        cfg = ExperimentConfig(experiment="semantic_mixture", n_classes=3, k_values=[3, 4])
        assert validate(cfg) == ["k_values must be in [1, n_classes], got [3, 4]"]

    @pytest.mark.parametrize("experiment", ["rate_recovery", "rician_csi", "semantic_mixture"])
    def test_monte_carlo_needs_an_experiment_that_takes_it(self, tmp_path, capsys, experiment):
        cfg = _write_cfg(tmp_path, experiment=experiment, mc_samples=100, seed=1)
        assert main(["validate", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == (
            f"config error: Monte Carlo cross-checks are not available for {experiment}\n")

    def test_config_needs_an_experiment(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text('{"bits": [1]}')
        assert main(["validate", "--config", str(path)]) == 2
        assert capsys.readouterr().err == "config error: config needs an 'experiment' key\n"

    def test_unparseable_bits_flag(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path)
        assert main(["run", "--config", str(cfg), "--bits", "1,x",
                     "--out", str(tmp_path / "out.csv")]) == 2
        assert capsys.readouterr().err == "config error: cannot parse bits list '1,x'\n"
        assert not (tmp_path / "out.csv").exists()


class TestReadKeys:
    """``_RUNNERS[...].reads`` is the one list of the config keys an
    experiment reads: ``validate`` checks exactly those, and leaves every
    other key to its JSON type check."""

    @pytest.mark.parametrize("experiment, key", [("bsc_sweep", "bsc_sigma1_values"),
                                                 ("semantic_mixture", "k_values")])
    def test_an_empty_grid_does_not_run(self, tmp_path, capsys, experiment, key):
        out = tmp_path / "out.csv"
        cfg = _write_cfg(tmp_path, experiment=experiment, **{key: []}, output=str(out))
        assert main(["run", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"config error: {key} grid is empty\n"
        assert not out.exists()

    @pytest.mark.parametrize("experiment, bits", [("rician_csi", []), ("bsc_sweep", [17])])
    def test_unread_bits_are_not_checked(self, tmp_path, experiment, bits):
        plain = tmp_path / "plain.json"
        plain.write_text(json.dumps({"experiment": experiment}))
        with_bits = tmp_path / "bits.json"
        with_bits.write_text(json.dumps({"experiment": experiment, "bits": bits}))
        assert main(["validate", "--config", str(with_bits)]) == 0
        for cfg, out in ((plain, "plain.csv"), (with_bits, "bits.csv")):
            assert main(["run", "--config", str(cfg), "--out", str(tmp_path / out)]) == 0
        assert (tmp_path / "bits.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()

    @pytest.mark.parametrize("variant", [0, -1], ids=["empty", "out_of_range"])
    @pytest.mark.parametrize("experiment", cli.EXPERIMENTS)
    def test_unread_keys_change_nothing(self, tmp_path, experiment, variant):
        # Every key the experiment does not declare is set to a value its
        # check refuses; if the runner read one, the CSV would change or the
        # run would fail.  A config that logs its reads then shows the runner
        # reads exactly the declared keys.
        reads = cli._RUNNERS[experiment].reads
        unread = {key: values[variant] for key, values in REFUSED.items() if key not in reads}
        assert unread
        base = ExperimentConfig(experiment=experiment, output=str(tmp_path / "base.csv"))
        cfg = ExperimentConfig(experiment=experiment, output=str(tmp_path / "unread.csv"),
                               **unread)
        assert validate(cfg) == []
        cli.run(base)
        cli.run(cfg)
        assert (tmp_path / "unread.csv").read_bytes() == (tmp_path / "base.csv").read_bytes()

        names = {f.name for f in fields(ExperimentConfig)}
        logged = set()

        class Logged(ExperimentConfig):
            def __getattribute__(self, name):
                if name in names:
                    logged.add(name)
                return super().__getattribute__(name)

        cli._RUNNERS[experiment].runner(Logged(experiment=experiment))
        assert logged - ALWAYS_READ == set(reads)

    def test_readme_table_lists_the_keys_each_experiment_reads(self):
        text = (ROOT / "README.md").read_text()
        start = text.index("| experiment | MC | keys read (defaults) |")
        rows = text[start:text.index("\n\n", start)].splitlines()[2:]
        table = {}
        for row in rows:
            _, name, mc, keys, _ = row.split("|")
            [name] = re.findall(r"`(\w+)`", name)
            table[name] = (mc.strip(), set(re.findall(r"`(\w+)`", keys)))
        assert tuple(table) == cli.EXPERIMENTS
        for name, (mc, keys) in table.items():
            reads = set(cli._RUNNERS[name].reads)
            assert mc == ("yes" if "mc_samples" in reads else "no"), name
            assert keys == reads - {"mc_samples"}, name


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

    def test_default_mean_sweep_shares_one_d_ideal_per_bit_depth(self, tmp_path):
        # Every true law N(mu1, 1) is a shift of N(0, 1), so its redesign
        # has the same distortion; per-law redesigns printed up to 9
        # distinct values at one bit depth.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "mean_sweep",
                                   "output": str(tmp_path / "out.csv")}))
        assert main(["run", "--config", str(cfg)]) == 0
        header, *rows = _read_csv(tmp_path / "out.csv")
        bits, d_ideal = header.index("bits"), header.index("d_ideal")
        by_bits = {}
        for row in rows:
            by_bits.setdefault(row[bits], set()).add(row[d_ideal])
        assert sorted(by_bits) == ["1", "2", "3", "4"]
        assert all(len(values) == 1 for values in by_bits.values()), by_bits

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

    def test_consecutive_calls_parse_independently(self, tmp_path, capsys):
        # The parser is built once per process; no override may outlive its call.
        cfg = _write_cfg(tmp_path, bits=[1])
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        assert main(["run", "--config", str(cfg), "--bits", "1,2", "--seed", "4",
                     "--mc-samples", "500", "--out", str(first)]) == 0
        assert main(["report", "--design", '{"kind": "gaussian"}',
                     "--true", '{"kind": "laplace"}', "--bits", "3"]) == 0
        assert "bits:        3" in capsys.readouterr().out
        assert main(["validate", "--config", str(cfg)]) == 0
        assert main(["run", "--config", str(cfg), "--out", str(second)]) == 0
        head1, *rows1 = _read_csv(first)
        head2, *rows2 = _read_csv(second)
        assert head1 == ["mu1"] + REPORT_HEADER + MC_HEADER
        assert [r[1] for r in rows1] == ["1", "2", "1", "2"]
        assert head2 == ["mu1"] + REPORT_HEADER
        assert [r[1] for r in rows2] == ["1", "1"]
        assert cli._build_parser() is cli._build_parser()

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

    def test_bsc_monte_carlo_columns(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": "bsc_sweep"}))
        outs = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for out in outs:
            assert main(["run", "--config", str(cfg), "--mc-samples", "20000",
                         "--seed", "3", "--out", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        header, *rows = _read_csv(outs[0])
        assert header == ["epsilon", "sigma0", "sigma1", "d_std", "d_hard", "d_opt",
                          "d_std_mc", "d_hard_mc", "d_opt_mc", "mc_stderr"]
        assert len(rows) == 18
        for row in rows:
            rec = {name: float(value) for name, value in zip(header, row)}
            se = rec["mc_stderr"]
            assert se > 0.0
            for name in ("d_std", "d_hard", "d_opt"):
                assert abs(rec[f"{name}_mc"] - rec[name]) < 5 * se, (name, row)

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

    def test_semantic_mixture_designs_each_marginal_once(self, tmp_path, monkeypatch):
        # 17 classes at 4 bit depths: 68 distinct designs (the design
        # marginal is the k = 17 one), more than the design memo holds, so
        # a report could only find its design there if each batch is read
        # before the next one is designed.
        monkeypatch.setattr(quantizer, "_STANDARD_DESIGNS", {})
        designed = []
        designs = quantizer._designs

        def counted(laws, *args):
            designed.extend(laws)
            return designs(laws, *args)

        monkeypatch.setattr(quantizer, "_designs", counted)
        out = tmp_path / "sem.csv"
        cfg = _write_cfg(tmp_path, experiment="semantic_mixture", n_classes=17,
                         bits=[1, 2, 3, 4])
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        rows = _read_csv(out)[1:]
        assert [(int(r[0]), int(r[1])) for r in rows] == [
            (k, bits) for k in range(1, 18) for bits in (1, 2, 3, 4)]
        assert len(designed) == 68

    def test_rate_recovery_columns(self, tmp_path):
        out = tmp_path / "rr.csv"
        cfg = _write_cfg(tmp_path, experiment="rate_recovery", bits=[2, 3])
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        rows = _read_csv(out)
        assert rows[0] == ["bits", "d_fix", "d_gen", "d_ideal_pd",
                           "bias_part", "penalty_factor"]
        for row in rows[1:]:
            assert float(row[2]) <= float(row[1])


class TestDefaultTables:
    """Each experiment's default CSV against the table committed in
    ``tests/data/default_csv``.  Headers, grid cells and ``method`` must match
    exactly; computed numbers within ``rel=1e-12`` / ``abs=1e-14``, which
    leaves room for another BLAS build's last-bit differences."""

    @pytest.mark.parametrize("experiment", cli.EXPERIMENTS)
    def test_default_csv_matches_the_committed_table(self, tmp_path, experiment):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"experiment": experiment}))
        out = tmp_path / "out.csv"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        header, *rows = _read_csv(out)
        want_header, *want_rows = _read_csv(DEFAULT_CSV / f"{experiment}.csv")
        assert header == want_header
        assert len(rows) == len(want_rows)
        for row, want in zip(rows, want_rows):
            assert len(row) == len(want)
            for name, got, ref in zip(header, row, want):
                if name in GRID_COLUMNS or ref == "na":
                    assert got == ref, (name, want)
                else:
                    assert float(got) == pytest.approx(float(ref), rel=1e-12, abs=1e-14), (
                        name, want)


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
        for bits in ("17", "0"):
            rc = main(["report",
                       "--design", '{"kind": "gaussian", "mean": 0.0, "std": 1.0}',
                       "--true", '{"kind": "gaussian", "mean": 0.0, "std": 1.0}',
                       "--bits", bits])
            assert rc == 2
            # the rule of the config key bits
            assert capsys.readouterr().err == (
                f"config error: bits must be in [1, 16], got {bits}\n")

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
        env = _package_env()
        cfg = _write_cfg(tmp_path, output=str(tmp_path / "out.csv"))
        proc = subprocess.run(
            [sys.executable, str(script), "run", "--config", str(cfg)],
            capture_output=True, text=True, cwd=tmp_path, env=env)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "out.csv").exists()

    def test_module_runs_as_a_script(self, tmp_path):
        env = _package_env()
        good = tmp_path / "good.json"
        good.write_text('{"experiment": "rician_csi"}')
        bad = tmp_path / "bad.json"
        bad.write_text('{"experiment": "rician_csi", "k_d": -1}')
        runs = {
            name: subprocess.run(
                [sys.executable, "-m", "mismatch_quant.cli", "run", "--config", str(cfg)],
                capture_output=True, text=True, cwd=tmp_path, env=env)
            for name, cfg in (("good", good), ("bad", bad))
        }
        assert runs["good"].returncode == 0, runs["good"].stderr
        assert len(_read_csv(tmp_path / "rician_csi.csv")) == 9
        assert runs["bad"].returncode == 2
        assert runs["bad"].stderr.startswith("config error:")

    def test_module_requires_a_command(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "from mismatch_quant.cli import main; raise SystemExit(main([]))"],
            capture_output=True, text=True)
        assert proc.returncode == 2

    def test_import_leaves_quadrature_and_search_modules_unloaded(self):
        # Loading scipy.integrate, which pulls in scipy.optimize, takes several
        # times as long as the rest of the package's import.
        env = _package_env()
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, mismatch_quant; "
             "print(sorted(m for m in ('scipy.integrate', 'scipy.optimize') "
             "if m in sys.modules))"],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

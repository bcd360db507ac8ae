"""Tests of the benchmark itself.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
import scipy.integrate

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import mismatch_quant  # noqa: E402
import inputs  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from worker import SpeedProbe, _run_tasks  # noqa: E402


@pytest.mark.parametrize("workload", sorted(inputs.GENERATORS))
def test_same_seed_same_inputs(workload):
    make = inputs.GENERATORS[workload]
    assert make(7) == make(7)
    assert make(7) != make(8)


def test_fixed_core_does_not_depend_on_the_seed():
    a, b = inputs.decode_tasks(1), inputs.decode_tasks(2)
    assert a["channel"][0] == b["channel"][0] == inputs.DECODE_FIXED["channel"]
    assert inputs.high_rate(1)[:2] == inputs.high_rate(2)[:2] == inputs.HIGH_RATE_FIXED


def _snapshot():
    owners = [mismatch_quant, scipy.integrate, *tracing.FAMILIES]
    owners += [getattr(mismatch_quant, layer) for layer in tracing.LAYERS]
    return {id(o): dict(vars(o)) for o in owners}


def test_wrappers_are_installed_and_then_restored():
    before = _snapshot()
    tr = tracing.Tracer()
    with tr.installed():
        for ns in (mismatch_quant.quantizer, mismatch_quant.mismatch,
                   mismatch_quant.asymptotics, mismatch_quant.taskaware, mismatch_quant.cli):
            assert ns.lloyd_max_design is not before[id(mismatch_quant.quantizer)][
                "lloyd_max_design"]
        assert scipy.integrate.quad is not before[id(scipy.integrate)]["quad"]
        mismatch_quant.Gaussian().edge_stats([-float("inf"), 0.0, float("inf")])
    after = _snapshot()
    for key, namespace in before.items():
        changed = [k for k in namespace if after[key].get(k) is not namespace[k]]
        assert not changed
    assert tr.layer_metrics()["distributions.edge_stats.calls"] == 1


def _fast_tasks(workload, tmp_path):
    tasks = workloads.build(workload, 3, str(tmp_path))
    if workload == "cli_defaults":
        keep = ("rate_recovery", "bsc_sweep", "rician_csi", "single_report", "laplace_table+mc")
        return [t for t in tasks if t.name in keep]
    return [t for t in tasks if not t.name.startswith(("channel:7", "channel:8"))][::3]


def _outputs(tasks, tracer=None, probe=None):
    outputs, _ = _run_tasks(tasks, tracer, probe)
    ck = workloads.Checker({})
    for task, out in zip(tasks, outputs):
        assert not isinstance(out, BaseException), (task.name, out)
        task.check(out, ck)
    assert not ck.failures
    return ck.digest


@pytest.mark.parametrize("workload", ["cli_defaults", "decode_tasks"])
def test_traced_probed_and_plain_outputs_agree(workload, tmp_path):
    tasks = _fast_tasks(workload, tmp_path)
    plain = _outputs(tasks)
    probe = SpeedProbe()
    assert _outputs(tasks, probe=probe) == plain
    assert probe.samples and probe.mean_s > 0.0
    tr = tracing.Tracer()
    assert _outputs(tasks, tracer=tr) == plain
    metrics = tr.layer_metrics()
    # single_report and the laplace_table rerun design twice per row.
    assert metrics["quantizer.lloyd_max_design.calls"] == (workload == "cli_defaults") * 20
    assert all(rec[tracing.END] >= rec[tracing.START] for rec in tr.spans)


def test_digits_are_capped_and_floored():
    assert workloads.digits(1.0, 1.0) == workloads.DIGITS_CAP
    assert workloads.digits(1.0 + 1e-15, 1.0) == workloads.DIGITS_CAP
    assert workloads.digits(1.001, 1.0) == pytest.approx(3.0, abs=1e-6)
    assert workloads.digits(5.0, 1.0) == 0.0


def _run(trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "decode_tasks",
         "--seed", "5", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    return result


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_every_declared_metric(trace, kind):
    result = _run(trace)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec[kind]}
    if trace:
        assert result["metrics"]["quantizer.lloyd_max_design.calls"]["value"] == 0


def test_run_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns(".work"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "high_rate", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout

"""Benchmark of mismatch_quant: one workload per invocation.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (inputs in ``inputs.py``, calls and checks in ``workloads.py``):

* ``cli_defaults``  the eight CLI experiments at their default configs via
  ``cli.main(["run", ...])`` plus one Monte Carlo rerun; items are CSV rows.
* ``high_rate``     ``rate_recovery_sweep`` with ``init="cube_root"`` and
  ``max_iters=5000`` on Gaussian, Laplace and mixture pairs at 6-12 bits;
  items are (pair, bits) rows.
* ``decode_tasks``  channel decoders, task codebooks, Rice-factor moments and
  bin labels on partitions built during set-up; no quantizer design is
  timed; items are public calls.

Each pass runs in a fresh single-threaded process (``worker.py``), a closed
loop with one caller: users pay for quantizer design on every CLI
invocation, so a cache may help only within one pass.  Passes repeat until
the next one would end after ``--seconds``, with at least two per run.
Extra set-up-only processes bring the set-up samples to five.

With ``--trace 0`` the run reports the end-to-end metrics: ``setup_s``
(median over processes of package import, input generation and loading the
oracle), ``items_per_s`` (median over passes of items per reference
second of the timed phase, see below), ``accuracy_digits_min`` (fewest
correct significant digits of the oracle-checked outputs, capped at 12)
and ``peak_rss_mb`` (median peak resident memory of a pass).
``error_frac`` (failed / attempted items) is printed with them and carried
by the ``failed`` and ``attempted`` fields.
With ``--trace 1`` passes alternate untraced and traced; the run reports the
per-layer metrics of the traced passes (medians) and
``trace.overhead_frac`` (a ratio of raw wall times, so it carries the host
drift described below).  Spans of the last traced pass are written to
``bench/.work/spans-<workload>.jsonl``.

Reference seconds: the benchmark runs on shared hosts whose speed drifts
by up to 40% over minutes, which moves a wall-clock rate by that much
between runs of the same code.  The passes of ``--trace 0`` therefore
run ``worker.SpeedProbe``, a fixed package-free kernel timed every 0.1 s
inside the measured process; its time is removed from the timed phase and
the phase's wall time is scaled by ``PROBE_REF_S / mean probe time``.  The
raw wall-clock rate is printed as ``items_per_wall_s``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Lines before it
give every metric with its unit, ``error_frac``, and the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
WORKLOADS = ("cli_defaults", "high_rate", "decode_tasks")
MIN_PASSES = 2
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170.0   # a run must end within 180 s
PROBE_REF_S = 0.010   # speed probe time that defines one reference second

BLAS_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _units() -> dict[str, str]:
    """Unit of every metric, as declared in ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def _source_identity() -> dict:
    """The commit, when the checkout is a git work tree, and a digest of ``src``."""
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else None
        commit = ref
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {"commit": commit, "src_sha256": digest.hexdigest()}


class PassFailed(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env.update({k: "1" for k in BLAS_THREADS})
    env.pop("MQ_THREADS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _run_pass(args, mode: str, workdir: Path, deadline: float, spans: Path | None) -> dict:
    workdir.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--mode", mode, "--workdir", str(workdir)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    timeout = max(5.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise PassFailed(f"{mode} pass exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassFailed(f"{mode} pass exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(lines[-1])


def _collect(args) -> tuple[list[dict], list[float]]:
    """Run passes for ``args.seconds``, then set-up-only processes."""
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    modes = ("untraced", "traced") if args.trace else ("probed",)
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    spans = WORK / f"spans-{args.workload}.jsonl"
    passes, walls = [], []
    try:
        while True:
            mode = modes[len(passes) % len(modes)]
            t0 = time.monotonic()
            passes.append(_run_pass(args, mode, workdir / str(len(passes)), deadline,
                                    spans if mode == "traced" else None))
            passes[-1]["mode"] = mode
            walls.append(time.monotonic() - t0)
            elapsed = time.monotonic() - start
            next_end = elapsed + statistics.median(walls) * len(modes)
            if (len(passes) >= MIN_PASSES and len(passes) % len(modes) == 0
                    and (next_end > args.seconds or next_end > RUN_LIMIT_S - 10.0)):
                break
        setups = [p["setup_s"] for p in passes]
        while len(setups) < SETUP_SAMPLES:
            setups.append(_run_pass(args, "setup", workdir / f"setup{len(setups)}",
                                    deadline, None)["setup_s"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return passes, setups


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mismatch_quant" / "__init__.py").is_file():
        print(f"no package source under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 1
    try:
        passes, setups = _collect(args)
    except PassFailed as exc:
        print(f"benchmark pass failed: {exc}", file=sys.stderr)
        return 1

    plain = [p for p in passes if p["mode"] != "traced"]
    traced = [p for p in passes if p["mode"] == "traced"]
    attempted = sum(p["items"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    digests = {p["digest"] for p in passes}
    missing = sorted({k for p in passes for k in p["oracle_missing"]})
    digits = [p["digits_min"] for p in plain if p["digits_min"] is not None]
    correct = failed == 0 and len(digests) == 1 and not missing and bool(digits)

    if args.trace:
        layers = [p["layers"] for p in traced]
        values = {k: statistics.median(layer[k] for layer in layers) for k in layers[0]}
        # Raw wall times: the probe would run inside the spans.
        untraced_s, traced_s = (statistics.median(p["timed_s"] for p in group)
                                for group in (plain, traced))
        values["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s
    else:
        values = {
            "setup_s": statistics.median(setups),
            "items_per_s": statistics.median(
                p["items"] / p["timed_s"] * p["probe_s"] / PROBE_REF_S for p in plain),
            "accuracy_digits_min": min(digits) if digits else 0.0,
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in plain),
        }
    units = _units()

    print(f"workload {args.workload}  seed {args.seed}  passes {len(plain)} timed"
          f" + {len(traced)} traced  set-up samples {len(setups)}")
    for name, value in values.items():
        print(f"  {name:44s} {value:.6g} {units[name]}")
    print("  timed phase per pass (s): "
          + " ".join(f"{p['timed_s']:.3f}{'t' if p['mode'] == 'traced' else ''}" for p in passes))
    print(f"  {'error_frac':44s} {failed / attempted:.6g} frac ({failed}/{attempted})")
    if not args.trace:
        wall_rate = statistics.median(p["items"] / p["timed_s"] for p in plain)
        probe_ms = statistics.median(1e3 * p["probe_s"] for p in plain)
        print(f"  {'items_per_wall_s':44s} {wall_rate:.6g} 1/s (probe {probe_ms:.3f} ms)")
    worst = min((p for p in plain if p["digits_min"] is not None),
                key=lambda p: p["digits_min"], default=None)
    if worst:
        print(f"  fewest digits at {worst['digits_min_key']}")
    for message in sorted({m for p in passes for m in p["failures"]})[:20]:
        print(f"  FAILED {message}")
    for key in missing[:20]:
        print(f"  MISSING oracle output {key}")
    if len(digests) != 1:
        print("  MISMATCH outputs differ between passes")
    print("env " + json.dumps({**passes[0]["env"], **_source_identity()}, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One pass of one workload in a fresh process; ``run.py`` starts it.

Usage: python3 bench/worker.py --workload W --seed N --mode MODE --workdir DIR
       [--spans FILE]

MODE is ``setup`` (import, generate inputs, load the oracle, then stop),
``probed`` (timed, with the host speed probe), ``untraced`` or ``traced``.
The last line of standard output is a JSON object with the set-up time,
the timed-phase time, item and failure counts, the fewest correct digits,
the peak resident memory, the output fingerprint, the mean probe time when
probed and, when traced, the per-layer metrics.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"


def _import_package():
    """Import the package from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import mismatch_quant

    if Path(mismatch_quant.__file__).resolve().parent.parent != SRC.resolve():
        raise SystemExit(f"mismatch_quant was imported from {mismatch_quant.__file__}, "
                         f"not from {SRC}")
    return mismatch_quant


def environment(seed: int) -> dict:
    """Machine and software the numbers were measured on."""
    import numpy
    import scipy

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "MQ_THREADS")},
        "seed": seed,
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "probed", "untraced", "traced"),
                        required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans")
    args = parser.parse_args()

    _import_package()
    sys.path.insert(0, str(BENCH))
    import workloads

    with open(BENCH / "oracle.json") as fh:
        oracle = json.load(fh)[args.workload]
    tasks = workloads.build(args.workload, args.seed, args.workdir)
    setup_s = time.perf_counter() - T_START
    result = {"setup_s": setup_s}

    if args.mode != "setup":
        tracer = probe = None
        if args.mode == "traced":
            import tracer as tracing

            tracer = tracing.Tracer()
        elif args.mode == "probed":
            probe = SpeedProbe()
        outputs, timed_s = _run_tasks(tasks, tracer, probe)
        ck = workloads.Checker(oracle)
        failed = 0
        for task, out in zip(tasks, outputs):
            before = len(ck.failures)
            if isinstance(out, BaseException):
                ck.record(repr(out))
                for _ in range(task.items):
                    ck.fail(f"{task.name}: {type(out).__name__}: {out}")
            else:
                task.check(out, ck)
            failed += min(task.items, len(ck.failures) - before)
        worst = min(ck.digits, key=ck.digits.get) if ck.digits else None
        result.update(
            timed_s=timed_s,
            items=sum(t.items for t in tasks),
            failed=failed,
            failures=ck.failures[:20],
            digits_min=ck.digits[worst] if worst else None,
            digits_min_key=worst,
            oracle_checked=len(ck.digits),
            oracle_missing=ck.missing,
            digest=ck.digest,
            probe_s=probe.mean_s if probe else None,
        )
        if tracer is not None:
            result["layers"] = tracer.layer_metrics()
            if args.spans:
                tracer.write(args.spans)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["env"] = environment(args.seed)
    print(json.dumps(result))
    return 0


def _probe_kernel() -> float:
    """Fixed package-free work in the package's style: a Python loop and
    scipy.special on small and medium arrays; about 10 ms on a 2-core Xeon."""
    import numpy as np
    from scipy import special

    acc = 0.0
    for i in range(30000):
        acc += i ** 0.5
    small = np.linspace(-3.0, 3.0, 16)
    for _ in range(1000):
        acc += float(np.dot(special.ndtr(small), np.exp(-0.5 * small * small)))
    big = np.linspace(-5.0, 5.0, 4096)
    for _ in range(60):
        acc += float(np.sum(special.ndtr(big)))
    return acc


class SpeedProbe:
    """Times ``_probe_kernel`` every ``PERIOD`` seconds of the timed phase.

    The host is shared: a pass can run 40% slower for minutes when other
    work lands on the same physical core.  The probe runs from a SIGALRM
    handler in the measured process, so it samples the same slow and fast
    periods the calls do; its mean time is the host's speed during the pass.
    Its own time is taken out of the timed phase.
    """

    PERIOD = 0.1

    def __init__(self):
        self.samples: list[float] = []
        self.total_s = 0.0

    def _handler(self, signum, frame):
        start = time.perf_counter()
        _probe_kernel()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        self.total_s += elapsed

    def __enter__(self):
        _probe_kernel()  # first call pays one-time costs
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD, self.PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # a phase shorter than PERIOD still gets a speed
            self._handler(signal.SIGALRM, None)

    @property
    def mean_s(self) -> float:
        return sum(self.samples) / len(self.samples)


def _run_tasks(tasks, tracer=None, probe=None):
    """Call every task in order; only these calls are timed."""
    outputs = []
    timed_s = 0.0
    clock = time.perf_counter
    sink = io.StringIO()  # the CLI reports each written file on stdout
    with contextlib.ExitStack() as stack:
        stack.enter_context(contextlib.redirect_stdout(sink))
        if tracer:
            stack.enter_context(tracer.installed())
        if probe:
            stack.enter_context(probe)
        for task in tasks:
            span = tracer.span("bench", task.name) if tracer else contextlib.nullcontext()
            probed_before = probe.total_s if probe else 0.0
            start = clock()
            try:
                with span:
                    out = task.call()
            except Exception as exc:  # a failing item is counted, not fatal
                out = exc
            timed_s += clock() - start - ((probe.total_s if probe else 0.0) - probed_before)
            outputs.append(out)
    return outputs, timed_s


if __name__ == "__main__":
    sys.exit(main())

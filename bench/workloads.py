"""The calls each workload times, and the checks applied to their outputs.

``build(workload, seed, workdir)`` turns the plain inputs of ``inputs.py``
into package objects and returns a list of ``Task``.  A task's ``call`` is
the only code inside the timed phase; its ``check`` runs afterwards and
reports, per item, whether the output is correct, how many digits the
oracle-checked outputs carry, and the bytes that fingerprint the output.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import mismatch_quant as mq
from mismatch_quant import cli

import inputs

TOL = 1e-9            # slack of the d_ideal <= d_gen <= d_fix hierarchy, relative
MC_SIGMAS = 5.0       # Monte Carlo estimates must sit this close to the exact value
DIGITS_CAP = 12.0     # correct significant digits are counted up to this
SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


@dataclass
class Task:
    """One timed call; ``items`` is how many items it completes."""

    name: str
    items: int
    call: Callable[[], Any]
    check: Callable[[Any, "Checker"], None]


class Checker:
    """Collects failed items, oracle digits and the output fingerprint."""

    def __init__(self, oracle: dict):
        self.values = oracle.get("values", {})
        self.labels = oracle.get("labels", {})
        self.failures: list[str] = []
        self.digits: dict[str, float] = {}
        self.used: set[str] = set()
        self._hash = hashlib.sha256()

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def record(self, obj) -> None:
        self._hash.update(obj.tobytes() if isinstance(obj, np.ndarray) else repr(obj).encode())

    @property
    def digest(self) -> str:
        return self._hash.hexdigest()

    def compare(self, key: str, value: float) -> None:
        """Count the correct digits of ``value`` if the oracle holds ``key``."""
        ref = self.values.get(key)
        if ref is not None:
            self.used.add(key)
            self.digits[key] = digits(value, float(ref))

    def labels_match(self, key: str, labels) -> bool:
        ref = self.labels.get(key)
        if ref is None:
            return True
        self.used.add(key)
        return ",".join(labels) == ref

    @property
    def missing(self) -> list[str]:
        return sorted((set(self.values) | set(self.labels)) - self.used)


def digits(value: float, ref: float) -> float:
    """Correct significant digits of ``value`` against ``ref``, in [0, 12]."""
    if value == ref:
        return DIGITS_CAP
    err = abs(value - ref) / abs(ref) if ref != 0.0 else abs(value)
    if not math.isfinite(err):
        return 0.0
    return max(0.0, min(DIGITS_CAP, -math.log10(err)))


def _leq(a: float, b: float) -> bool:
    return a <= b + TOL * abs(b)


def _finite(*xs) -> bool:
    return all(x is not None and math.isfinite(x) for x in xs)


def law(rec: tuple) -> mq.Distribution:
    kind = rec[0]
    if kind == "gaussian":
        return mq.Gaussian(mean=rec[1], std=rec[2])
    if kind == "laplace":
        return mq.Laplace(loc=rec[1], scale=rec[2])
    return mq.GaussianMixture(components=rec[1])


# --- cli_defaults -----------------------------------------------------------

_REPORT_COLS = ["bits", "d_fix", "d_gen", "d_ideal", "gain_pct", "ideal_gain_pct", "method"]
_MC_COLS = ["d_fix_mc", "d_gen_mc", "mc_stderr"]
# Header, row count and grid columns of each experiment at its default config.
CLI_SHAPES = {
    "mean_sweep": (["mu1"] + _REPORT_COLS, 68, ("mu1", "bits")),
    "variance_sweep": (["sigma1"] + _REPORT_COLS, 36, ("sigma1", "bits")),
    "laplace_table": (_REPORT_COLS, 4, ("bits",)),
    "rate_recovery": (["bits", "d_fix", "d_gen", "d_ideal_pd", "bias_part", "penalty_factor"],
                      4, ("bits",)),
    "bsc_sweep": (["epsilon", "sigma0", "sigma1", "d_std", "d_hard", "d_opt"], 18,
                  ("epsilon", "sigma1")),
    "rician_csi": (["k_t", "k_d", "phi_t", "phi_d", "eta_pct"], 8, ("k_t",)),
    "semantic_mixture": (["k", "bits", "acc_fix", "acc_gen", "acc_ideal", "recovery_pct"],
                         40, ("k", "bits")),
    "single_report": (["design", "true"] + _REPORT_COLS, 4, ("bits",)),
}
# Columns compared with the oracle.
CLI_CHECKED = {
    "mean_sweep": ("d_fix", "d_gen", "d_ideal"),
    "variance_sweep": ("d_fix", "d_gen", "d_ideal"),
    "laplace_table": ("d_fix", "d_gen", "d_ideal"),
    "single_report": ("d_fix", "d_gen", "d_ideal"),
    "rate_recovery": ("d_fix", "d_gen", "d_ideal_pd"),
    "rician_csi": ("phi_t", "eta_pct"),
    "semantic_mixture": ("acc_fix", "acc_gen", "acc_ideal"),
    "bsc_sweep": (),
}


def _num(text: str) -> float | None:
    return None if text == "na" else float(text)


def _report_problem(row: dict) -> str | None:
    d_fix, d_gen, d_ideal = (_num(row[c]) for c in ("d_fix", "d_gen", "d_ideal"))
    if not _finite(d_fix, d_gen, d_ideal) or min(d_fix, d_gen, d_ideal) <= 0.0:
        return "distortions not finite and positive"
    if not (_leq(d_ideal, d_gen) and _leq(d_gen, d_fix)):
        return f"hierarchy broken: d_ideal={d_ideal!r} d_gen={d_gen!r} d_fix={d_fix!r}"
    if row["method"] != "closed_form":
        return f"method {row['method']!r}"
    if "mc_stderr" in row:
        se = _num(row["mc_stderr"])
        if not _finite(se) or se <= 0.0:
            return "Monte Carlo standard error missing"
        for exact, est in ((d_fix, _num(row["d_fix_mc"])), (d_gen, _num(row["d_gen_mc"]))):
            if not _finite(est) or abs(est - exact) > MC_SIGMAS * se:
                return f"Monte Carlo {est!r} is more than {MC_SIGMAS} SE from {exact!r}"
    return None


def _rate_problem(row: dict) -> str | None:
    d_fix, d_gen, pd, bias, pen = (_num(row[c]) for c in CLI_SHAPES["rate_recovery"][0][1:])
    if not _finite(d_fix, d_gen, pd, bias, pen) or min(d_gen, pd) <= 0.0:
        return "non-finite or non-positive terms"
    if not _leq(d_gen, d_fix) or bias < -TOL * d_fix:
        return f"d_gen={d_gen!r} exceeds d_fix={d_fix!r} or negative bias"
    if abs(pen - d_gen / pd) > 1e-12 * pen:
        return "penalty_factor is not d_gen / d_ideal_pd"
    return None


def _bsc_problem(row: dict) -> str | None:
    d_std, d_hard, d_opt = (_num(row[c]) for c in ("d_std", "d_hard", "d_opt"))
    if not _finite(d_std, d_hard, d_opt) or d_opt <= 0.0:
        return "non-finite distortions"
    if not (_leq(d_opt, d_hard) and _leq(d_opt, d_std)):
        return "soft table is not the best of the three strategies"
    return None


def _rician_problem(row: dict) -> str | None:
    phi_t, eta_pct = _num(row["phi_t"]), _num(row["eta_pct"])
    if not _finite(phi_t, eta_pct):
        return "non-finite phi or eta"
    if not 1.0 - 1e-12 <= phi_t <= 2.0 * SQRT_2_OVER_PI + 1e-12:
        return f"phi_t={phi_t!r} outside [1, 2 sqrt(2/pi)]"
    if not -TOL <= eta_pct <= 100.0:
        return f"eta_pct={eta_pct!r} outside [0, 100]"
    return None


def _semantic_problem(row: dict) -> str | None:
    accs = [_num(row[c]) for c in ("acc_fix", "acc_gen", "acc_ideal")]
    if not _finite(*accs) or not all(-1e-12 <= a <= 1.0 + 1e-12 for a in accs):
        return "accuracy outside [0, 1]"
    if accs[0] > accs[1] + 1e-12:
        return "relabeling lowered the accuracy"
    return None


_ROW_CHECKS = {
    "mean_sweep": _report_problem,
    "variance_sweep": _report_problem,
    "laplace_table": _report_problem,
    "single_report": _report_problem,
    "rate_recovery": _rate_problem,
    "bsc_sweep": _bsc_problem,
    "rician_csi": _rician_problem,
    "semantic_mixture": _semantic_problem,
}


def _cli_task(experiment: str, config: str, out: str, extra: tuple = ()) -> Task:
    header, n_rows, grid = CLI_SHAPES[experiment]
    if extra:
        header = header + _MC_COLS
    argv = ["run", "--config", config, "--experiment", experiment, "--out", out, *extra]
    name = experiment + ("+mc" if extra else "")

    def check(code, ck: Checker) -> None:
        try:
            with open(out, newline="") as fh:
                text = fh.read()
        except OSError:
            text = ""
        ck.record(text)
        table = list(csv.reader(text.splitlines()))
        if code != 0 or not table or table[0] != header or len(table) - 1 != n_rows:
            for _ in range(n_rows):
                ck.fail(f"{name}: exit {code}, header or row count differs from the defaults")
            return
        for values in table[1:]:
            row = dict(zip(header, values))
            problem = _ROW_CHECKS[experiment](row)
            if problem:
                ck.fail(f"{name} {[row[g] for g in grid]}: {problem}")
            prefix = "|".join([experiment] + [row[g] for g in grid])
            for col in CLI_CHECKED[experiment]:
                value = _num(row[col])
                if value is not None:
                    ck.compare(f"{prefix}|{col}", value)

    return Task(name, n_rows, lambda: cli.main(argv), check)


def _cli_defaults(spec: dict, workdir: str) -> list[Task]:
    config = os.path.join(workdir, "config.json")
    with open(config, "w") as fh:
        json.dump({"experiment": spec["experiments"][0]}, fh)
    tasks = [_cli_task(e, config, os.path.join(workdir, f"{e}.csv"))
             for e in spec["experiments"]]
    mc = spec["mc"]
    extra = ("--mc-samples", str(mc["mc_samples"]), "--seed", str(mc["seed"]))
    tasks.append(_cli_task(mc["experiment"], config,
                           os.path.join(workdir, f"{mc['experiment']}_mc.csv"), extra))
    return tasks


# --- high_rate --------------------------------------------------------------

def _high_rate(spec: tuple, workdir: str) -> list[Task]:
    tasks = []
    for name, design_rec, true_rec, bits in spec:
        design_d, true_d = law(design_rec), law(true_rec)

        def call(design_d=design_d, true_d=true_d, bits=bits):
            return mq.rate_recovery_sweep(
                design_d, true_d, list(bits),
                max_iters=inputs.HIGH_RATE_MAX_ITERS, init=inputs.HIGH_RATE_INIT,
            )

        def check(reports, ck: Checker, name=name, bits=bits) -> None:
            ck.record(reports)
            if [r.bits for r in reports] != list(bits):
                for _ in bits:
                    ck.fail(f"high_rate {name}: rows do not match the requested bits")
                return
            for r in reports:
                terms = (r.d_granular, r.d_overload_fix, r.d_overload_gen, r.d_total_fix,
                         r.d_total_gen, r.d_ideal_pd, r.penalty_factor)
                if not _finite(*terms) or min(r.d_granular, r.d_total_gen, r.d_ideal_pd) <= 0:
                    ck.fail(f"high_rate {name} {r.bits}: non-finite or non-positive terms")
                elif not (_leq(r.d_total_gen, r.d_total_fix)
                          and _leq(r.d_overload_gen, r.d_overload_fix)):
                    ck.fail(f"high_rate {name} {r.bits}: adapted decoder is worse than fixed")
                prefix = f"high_rate|{name}|{r.bits}"
                ck.compare(prefix + "|d_fix", r.d_total_fix)
                ck.compare(prefix + "|d_gen", r.d_total_gen)
                ck.compare(prefix + "|d_ideal_pd", r.d_ideal_pd)

        tasks.append(Task(f"rate_recovery_sweep:{name}", len(bits), call, check))
    return tasks


# --- decode_tasks -----------------------------------------------------------

def _partition(design: tuple, bits: int) -> tuple[mq.Partition, mq.Codebook]:
    thresholds, codebook = inputs.gaussian_quantile_partition(design[0], design[1], bits)
    return mq.Partition(thresholds), mq.Codebook(codebook)


def _table_ok(values, n: int) -> bool:
    return len(values) == n and all(math.isfinite(v) for v in values)


def _channel_task(cfg: dict, bits: int, eps: float, fixed: bool) -> Task:
    p, design_cb = _partition(cfg["design"], bits)
    true_d = law(cfg["true"])
    n = p.n_bins

    def call():
        ch = mq.bsc_channel(bits, eps)
        soft = mq.soft_codebook(p, true_d, ch)
        hard = mq.generative_codebook(p, true_d)
        dists = tuple(
            mq.noisy_distortion(p, ch, mq.NoisyDecoder(strategy, table), true_d)
            for strategy, table in (("standard_separation", design_cb),
                                    ("hard_generative", hard), ("soft_generative", soft))
        )
        return ch, soft, hard, dists

    def check(out, ck: Checker) -> None:
        ch, soft, hard, dists = out
        ck.record(ch.as_array())
        ck.record((soft, hard, dists))
        where = f"channel {bits} bits eps={eps}"
        m = ch.as_array()
        if m.shape != (n, n) or np.any(np.abs(m.sum(axis=1) - 1.0) > 1e-12):
            ck.fail(f"{where}: BSC matrix is not {n}x{n} row-stochastic")
        gen = hard.as_array()
        if not _table_ok(soft.values, n) or not (
            np.all(soft.as_array() >= gen.min() - 1e-12)
            and np.all(soft.as_array() <= gen.max() + 1e-12)
        ):
            ck.fail(f"{where}: soft table not finite, of size {n}, inside the hull")
        d_std, d_hard, d_soft = dists
        for label, d in zip(("std", "hard", "soft"), dists):
            if not _finite(d) or d <= 0.0:
                ck.fail(f"{where}: {label} distortion {d!r}")
            elif label == "soft" and not (_leq(d_soft, d_hard) and _leq(d_soft, d_std)):
                ck.fail(f"{where}: soft decoder is not the best of the three")
        if fixed:
            prefix = f"decode|{bits}|{eps!r}"
            for j, v in enumerate(soft.values):
                ck.compare(f"{prefix}|soft|{j}", v)
            for label, d in zip(("std", "hard", "soft"), dists):
                ck.compare(f"{prefix}|noisy_{label}", d)

    # Items: bsc_channel, soft_codebook and three noisy_distortion calls.
    return Task(f"channel:{bits}:{eps}", 5, call, check)


def _shrinkage_task(sigma1: float, eps: float) -> Task:
    p = mq.Partition((0.0,))
    true_d = mq.Gaussian(mean=0.0, std=sigma1)

    def call():
        return mq.soft_codebook(p, true_d, mq.bsc_channel(1, eps))

    def check(soft, ck: Checker) -> None:
        ck.record(soft)
        a = (1.0 - 2.0 * eps) * sigma1 * SQRT_2_OVER_PI
        if not (_table_ok(soft.values, 2) and all(
            abs(v - ref) <= 1e-12 * a for v, ref in zip(soft.values, (-a, a))
        )):
            ck.fail(f"1-bit shrinkage sigma1={sigma1} eps={eps}: got {soft.values}, "
                    f"expected +/-{a!r}")

    # Items: bsc_channel and soft_codebook.
    return Task(f"shrinkage:{sigma1}:{eps}", 2, call, check)


def _task_codebook_task(cfg: dict, bits: int, fixed: bool) -> Task:
    p, _ = _partition(cfg["design"], bits)
    true_d = law(cfg["true"])

    def call():
        return mq.task_codebook(p, true_d, mq.weighted_mse_csi())

    def check(table, ck: Checker) -> None:
        ck.record(table)
        if not _table_ok(table.values, p.n_bins):
            ck.fail(f"task_codebook {bits} bits: table not finite or not of size {p.n_bins}")
        if fixed:
            for j, v in enumerate(table.values):
                ck.compare(f"decode|task|{bits}|{j}", v)

    return Task(f"task_codebook:{bits}", 1, call, check)


def _rician_task(k: float, fixed: bool) -> Task:
    def call():
        moments = tuple(mq.rician_moment(k, n) for n in (2, 3, 4))
        return moments, tuple(mq.eta(k, kd) for kd in inputs.RICIAN_K_DESIGN)

    def check(out, ck: Checker) -> None:
        ck.record(out)
        (m2, m3, m4), etas = out
        if not _finite(m2, m3, m4, *etas) or min(m2, m3, m4) <= 0.0:
            ck.fail(f"rician K={k}: non-finite or non-positive moments")
        if m3 * m3 > m2 * m4 * (1.0 + TOL):
            ck.fail(f"rician K={k}: moments break Cauchy-Schwarz")
        for kd, e in zip(inputs.RICIAN_K_DESIGN, etas):
            if not (_finite(e) and -TOL <= e <= 100.0):
                ck.fail(f"eta({k}, {kd}) = {e!r} outside [0, 100]")
        if fixed:
            for n, m in zip((2, 3, 4), (m2, m3, m4)):
                ck.compare(f"decode|rician|{k!r}|{n}", m)
            for kd, e in zip(inputs.RICIAN_K_DESIGN, etas):
                ck.compare(f"decode|eta|{k!r}|{kd!r}", e)

    # Items: three rician_moment calls and one eta call per design factor.
    return Task(f"rician:{k}", 3 + len(inputs.RICIAN_K_DESIGN), call, check)


def labeled_source(cfg: dict) -> mq.LabeledSource:
    return mq.LabeledSource(classes=tuple(
        mq.LabeledClass(label=lab, weight=w, distribution=mq.Gaussian(mean=m, std=s))
        for lab, w, m, s in cfg["classes"]
    ))


def _labels_task(cfg: dict, bits: int, fixed: bool) -> Task:
    p, _ = _partition(cfg["design"], bits)
    src = labeled_source(cfg)
    valid = {c.label for c in src.classes}

    def check(labels, ck: Checker) -> None:
        ck.record(labels)
        if len(labels) != p.n_bins or not set(labels) <= valid:
            ck.fail(f"map_labels {bits} bits: {len(labels)} labels for {p.n_bins} bins")
        elif fixed and not ck.labels_match(f"decode|labels|{bits}", labels):
            ck.fail(f"map_labels {bits} bits: labels differ from the oracle")

    return Task(f"map_labels:{bits}", 1, lambda: mq.map_labels(p, src), check)


def _decode_tasks(spec: dict, workdir: str) -> list[Task]:
    tasks = []
    for i, cfg in enumerate(spec["channel"]):
        for bits in cfg["bits"]:
            for eps in cfg["eps"]:
                tasks.append(_channel_task(cfg, bits, eps, fixed=i == 0))
    tasks += [_shrinkage_task(s, e) for s, e in spec["shrinkage"]]
    for i, cfg in enumerate(spec["task"]):
        tasks += [_task_codebook_task(cfg, b, fixed=i == 0) for b in inputs.TASK_BITS]
    n_fixed_k = len(inputs.DECODE_FIXED["rician_k"])
    tasks += [_rician_task(k, fixed=i < n_fixed_k) for i, k in enumerate(spec["rician_k"])]
    for i, cfg in enumerate(spec["labels"]):
        tasks += [_labels_task(cfg, b, fixed=i == 0) for b in inputs.LABEL_BITS]
    return tasks


_FACTORIES = {
    "cli_defaults": _cli_defaults,
    "high_rate": _high_rate,
    "decode_tasks": _decode_tasks,
}


def build(workload: str, seed: int, workdir: str) -> list[Task]:
    """Generate the workload's inputs from ``seed`` and wrap them as tasks."""
    return _FACTORIES[workload](inputs.GENERATORS[workload](seed), workdir)

"""Command line front end: canned experiments written to deterministic CSV.

Usage:
    mismatch-quant run --config cfg.json [--experiment NAME] [--bits 1,2,3]
                       [--seed N] [--mc-samples N] [--out FILE]
    mismatch-quant validate --config cfg.json
    mismatch-quant report --design JSON --true JSON --bits N

Configs are JSON objects; command line flags override config keys.  Exit
codes: 0 success, 1 an operation failed, 2 the config did not validate.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import asymptotics, channel, distributions, mismatch, taskaware
from .errors import MismatchQuantError
from .quantizer import lloyd_max_design

__all__ = ["ExperimentConfig", "main", "run", "validate"]

EXPERIMENTS = (
    "mean_sweep",
    "variance_sweep",
    "laplace_table",
    "rate_recovery",
    "bsc_sweep",
    "rician_csi",
    "semantic_mixture",
    "single_report",
)

_MC_EXPERIMENTS = (
    "mean_sweep",
    "variance_sweep",
    "laplace_table",
    "bsc_sweep",
    "single_report",
)

_GAUSS_01 = {"kind": "gaussian", "mean": 0.0, "std": 1.0}


class ConfigError(Exception):
    """Raised while turning a config mapping into an ExperimentConfig."""


@dataclass
class ExperimentConfig:
    """Declarative description of one experiment run."""

    experiment: str
    bits: list[int] = field(default_factory=lambda: [1, 2, 3, 4])
    seed: int | None = None
    mc_samples: int = 0
    output: str | None = None
    design: dict = field(default_factory=lambda: dict(_GAUSS_01))
    true: dict | None = None
    # Per-experiment grids; unused keys stay at their defaults.
    mu1_values: list[float] = field(
        default_factory=lambda: [round(-2.0 + 0.25 * i, 10) for i in range(17)]
    )
    sigma1_values: list[float] = field(
        default_factory=lambda: [2.0 ** (k / 2.0) for k in range(-4, 5)]
    )
    epsilon_values: list[float] = field(
        default_factory=lambda: [0.01, 0.05, 0.1, 0.2, 0.3, 0.4]
    )
    sigma0: float = 1.0
    bsc_sigma1_values: list[float] = field(default_factory=lambda: [0.5, 2.0, 4.0])
    k_t_values: list[float] = field(
        default_factory=lambda: [0.0, 1.0, 2.0, 3.0, 6.0, 10.0, 50.0, 200.0]
    )
    k_d: float = 3.0
    n_classes: int = 10
    class_std: float = 0.5
    class_spacing: float = 1.0
    k_values: list[int] | None = None

    _KNOWN = (
        "experiment", "bits", "seed", "mc_samples", "output", "design", "true",
        "mu1_values", "sigma1_values", "epsilon_values", "sigma0",
        "bsc_sigma1_values", "k_t_values", "k_d", "n_classes", "class_std",
        "class_spacing", "k_values",
    )

    @classmethod
    def from_mapping(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError(f"config must be a JSON object, got {type(raw).__name__}")
        unknown = sorted(set(raw) - set(cls._KNOWN))
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        if "experiment" not in raw:
            raise ConfigError("config needs an 'experiment' key")
        kwargs = dict(raw)
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise ConfigError(str(exc)) from exc

    @property
    def default_true(self) -> dict:
        defaults = {
            "laplace_table": {"kind": "laplace", "loc": 0.0, "scale": math.sqrt(0.5)},
            "rate_recovery": {"kind": "gaussian", "mean": 0.0, "std": 2.0},
        }
        return self.true or defaults.get(self.experiment, dict(self.design))


def validate(cfg: ExperimentConfig) -> list[str]:
    """Collect human-readable diagnostics; an empty list means runnable."""
    problems = []
    if cfg.experiment not in EXPERIMENTS:
        problems.append(
            f"unknown experiment {cfg.experiment!r}; choose from {', '.join(EXPERIMENTS)}"
        )
        return problems
    if not cfg.bits:
        problems.append("bits grid is empty")
    if any((not isinstance(b, int)) or not 1 <= b <= 16 for b in cfg.bits):
        problems.append(f"bits must be integers in [1, 16], got {cfg.bits}")
    if cfg.mc_samples < 0:
        problems.append("mc_samples must be >= 0")
    if cfg.mc_samples > 0 and cfg.seed is None:
        problems.append("mc_samples > 0 requires an explicit seed")
    if cfg.mc_samples > 0 and cfg.experiment not in _MC_EXPERIMENTS:
        problems.append(
            f"Monte Carlo cross-checks are not available for {cfg.experiment}"
        )
    for name, rec in (("design", cfg.design), ("true", cfg.default_true)):
        try:
            distributions.from_config(rec)
        except ValueError as exc:
            problems.append(f"{name} law: {exc}")
    if cfg.experiment == "mean_sweep" and not cfg.mu1_values:
        problems.append("mu1_values grid is empty")
    if cfg.experiment == "variance_sweep":
        if not cfg.sigma1_values:
            problems.append("sigma1_values grid is empty")
        if any(s <= 0 for s in cfg.sigma1_values):
            problems.append("sigma1_values must be positive")
    if cfg.experiment == "bsc_sweep":
        if not cfg.epsilon_values:
            problems.append("epsilon_values grid is empty")
        if any(not 0.0 <= e <= 0.5 for e in cfg.epsilon_values):
            problems.append("epsilon_values must lie in [0, 0.5]")
        if cfg.sigma0 <= 0 or any(s <= 0 for s in cfg.bsc_sigma1_values):
            problems.append("sigma0 and bsc_sigma1_values must be positive")
    if cfg.experiment == "rician_csi":
        if not cfg.k_t_values:
            problems.append("k_t_values grid is empty")
        if any(k < 0 for k in cfg.k_t_values) or cfg.k_d < 0:
            problems.append("Rice factors must be >= 0")
    if cfg.experiment == "semantic_mixture":
        if cfg.n_classes < 1:
            problems.append("n_classes must be at least 1")
        if cfg.class_std <= 0 or cfg.class_spacing <= 0:
            problems.append("class_std and class_spacing must be positive")
        for k in cfg.k_values or range(1, cfg.n_classes + 1):
            if not 1 <= k <= cfg.n_classes:
                problems.append(f"k_values entries must lie in [1, {cfg.n_classes}]")
                break
    return problems


def _fmt(x) -> str:
    if x is None:
        return "na"
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _points(cfg: ExperimentConfig):
    """Grid of work items for the configured experiment, in output order."""
    if cfg.experiment == "mean_sweep":
        return [(mu, b) for mu in cfg.mu1_values for b in cfg.bits]
    if cfg.experiment == "variance_sweep":
        return [(s, b) for s in cfg.sigma1_values for b in cfg.bits]
    if cfg.experiment in ("laplace_table", "rate_recovery", "single_report"):
        return list(cfg.bits)
    if cfg.experiment == "bsc_sweep":
        return [(e, s) for e in cfg.epsilon_values for s in cfg.bsc_sigma1_values]
    if cfg.experiment == "rician_csi":
        return list(cfg.k_t_values)
    if cfg.experiment == "semantic_mixture":
        ks = cfg.k_values or list(range(1, cfg.n_classes + 1))
        return [(k, b) for k in ks for b in cfg.bits]
    raise ConfigError(f"unknown experiment {cfg.experiment!r}")


def _point_seed(seed: int | None, index: int) -> int | None:
    if seed is None:
        return None
    return (int(seed) + 9973 * (index + 1)) % (2**63)


def _report_row(design_d, true_d, bits, cfg: ExperimentConfig, index: int):
    rep = mismatch.report(
        design_d, true_d, bits,
        mc_samples=cfg.mc_samples,
        seed=_point_seed(cfg.seed, index),
    )
    row = [bits, rep.d_fix, rep.d_gen, rep.d_ideal,
           rep.relative_gain_pct, rep.ideal_gain_pct, rep.method]
    if cfg.mc_samples:
        row += [rep.d_fix_mc, rep.d_gen_mc, rep.mc_stderr]
    return row


def _report_header(cfg: ExperimentConfig) -> list[str]:
    header = ["bits", "d_fix", "d_gen", "d_ideal",
              "gain_pct", "ideal_gain_pct", "method"]
    if cfg.mc_samples:
        header += ["d_fix_mc", "d_gen_mc", "mc_stderr"]
    return header


def _run_mean_sweep(cfg: ExperimentConfig):
    design_d = distributions.from_config(cfg.design)

    def work(index, item):
        mu, bits = item
        true_d = distributions.Gaussian(mean=mu, std=1.0)
        return [mu] + _report_row(design_d, true_d, bits, cfg, index)

    return ["mu1"] + _report_header(cfg), [work(i, pt) for i, pt in enumerate(_points(cfg))]


def _run_variance_sweep(cfg: ExperimentConfig):
    design_d = distributions.from_config(cfg.design)

    def work(index, item):
        sigma, bits = item
        true_d = distributions.Gaussian(mean=0.0, std=sigma)
        return [sigma] + _report_row(design_d, true_d, bits, cfg, index)

    return ["sigma1"] + _report_header(cfg), [work(i, pt) for i, pt in enumerate(_points(cfg))]


def _run_laplace_table(cfg: ExperimentConfig):
    design_d = distributions.from_config(cfg.design)
    true_d = distributions.from_config(cfg.default_true)

    def work(index, bits):
        return _report_row(design_d, true_d, bits, cfg, index)

    return _report_header(cfg), [work(i, pt) for i, pt in enumerate(_points(cfg))]


def _run_single_report(cfg: ExperimentConfig):
    design_d = distributions.from_config(cfg.design)
    true_d = distributions.from_config(cfg.default_true)
    design_json = json.dumps(cfg.design, sort_keys=True)
    true_json = json.dumps(cfg.default_true, sort_keys=True)

    def work(index, bits):
        return [design_json, true_json] + _report_row(
            design_d, true_d, bits, cfg, index
        )

    rows = [work(i, pt) for i, pt in enumerate(_points(cfg))]
    return ["design", "true"] + _report_header(cfg), rows


def _run_rate_recovery(cfg: ExperimentConfig):
    design_d = distributions.from_config(cfg.design)
    true_d = distributions.from_config(cfg.default_true)
    reports = asymptotics.rate_recovery_sweep(design_d, true_d, cfg.bits)
    header = ["bits", "d_fix", "d_gen", "d_ideal_pd", "bias_part", "penalty_factor"]
    # The overload variance term is common to both codebooks, so the fixed
    # decoder's overload bias is exactly the difference of the two totals.
    rows = [
        [rep.bits, rep.d_total_fix, rep.d_total_gen, rep.d_ideal_pd,
         rep.d_overload_fix - rep.d_overload_gen, rep.penalty_factor]
        for rep in reports
    ]
    return header, rows


def _run_bsc_sweep(cfg: ExperimentConfig):
    def work(index, item):
        eps, sigma1 = item
        rep = channel.strategy_report(cfg.sigma0, sigma1, eps)
        row = [eps, cfg.sigma0, sigma1, rep.d_std, rep.d_hard, rep.d_opt]
        if cfg.mc_samples:
            row += _bsc_monte_carlo(cfg.sigma0, sigma1, eps, cfg.mc_samples,
                                    _point_seed(cfg.seed, index))
        return row

    header = ["epsilon", "sigma0", "sigma1", "d_std", "d_hard", "d_opt"]
    if cfg.mc_samples:
        header += ["d_std_mc", "d_hard_mc", "d_opt_mc", "mc_stderr"]
    return header, [work(i, pt) for i, pt in enumerate(_points(cfg))]


def _bsc_monte_carlo(sigma0, sigma1, eps, n, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, sigma1, size=n)
    sent = (x >= 0.0).astype(int)
    flip = rng.random(n) < eps
    received = np.where(flip, 1 - sent, sent)
    sign = 2.0 * received - 1.0
    k = math.sqrt(2.0 / math.pi)
    out = []
    errs = []
    for a in (sigma0 * k, sigma1 * k, (1.0 - 2.0 * eps) * sigma1 * k):
        err = np.square(x - sign * a)
        out.append(float(err.mean()))
        errs.append(float(err.std(ddof=1) / math.sqrt(n)))
    return out + [max(errs)]


def _run_rician_csi(cfg: ExperimentConfig):
    phi_d = taskaware.phi(cfg.k_d)

    def work(index, k_t):
        return [k_t, cfg.k_d, taskaware.phi(k_t), phi_d, taskaware.eta(k_t, cfg.k_d)]

    header = ["k_t", "k_d", "phi_t", "phi_d", "eta_pct"]
    return header, [work(i, pt) for i, pt in enumerate(_points(cfg))]


def _semantic_sources(cfg: ExperimentConfig, k: int):
    m = cfg.n_classes
    offset = 0.5 * (m - 1) * cfg.class_spacing
    def make(count):
        return taskaware.LabeledSource(
            classes=tuple(
                taskaware.LabeledClass(
                    label=f"c{y}",
                    weight=1.0 / count,
                    distribution=distributions.Gaussian(
                        mean=y * cfg.class_spacing - offset, std=cfg.class_std
                    ),
                )
                for y in range(count)
            )
        )
    return make(m), make(k)


def _run_semantic_mixture(cfg: ExperimentConfig):
    def work(index, item):
        k, bits = item
        src_design, src_true = _semantic_sources(cfg, k)
        q = lloyd_max_design(src_design.marginal(), bits)
        rep = taskaware.classification_report(q.partition, src_true, src_design)
        return [k, bits, rep.acc_fix, rep.acc_gen, rep.acc_ideal, rep.recovery_pct]

    header = ["k", "bits", "acc_fix", "acc_gen", "acc_ideal", "recovery_pct"]
    return header, [work(i, pt) for i, pt in enumerate(_points(cfg))]


_RUNNERS = {
    "mean_sweep": _run_mean_sweep,
    "variance_sweep": _run_variance_sweep,
    "laplace_table": _run_laplace_table,
    "rate_recovery": _run_rate_recovery,
    "bsc_sweep": _run_bsc_sweep,
    "rician_csi": _run_rician_csi,
    "semantic_mixture": _run_semantic_mixture,
    "single_report": _run_single_report,
}


def run(cfg: ExperimentConfig) -> str:
    """Execute the experiment and write its CSV; returns the output path."""
    header, rows = _RUNNERS[cfg.experiment](cfg)
    path = cfg.output or f"{cfg.experiment}.csv"
    _write_csv(path, header, rows)
    return path


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc


def _parse_bits(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"cannot parse bits list {text!r}") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mismatch-quant",
        description="Quantizer mismatch experiments with generative decoding.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment from a config file")
    p_run.add_argument("--config", required=True, help="JSON config path")
    p_run.add_argument("--experiment", help="override the configured experiment")
    p_run.add_argument("--bits", help="override bits, comma separated")
    p_run.add_argument("--seed", type=int, help="override the seed")
    p_run.add_argument("--mc-samples", type=int, dest="mc_samples",
                       help="override Monte Carlo sample count")
    p_run.add_argument("--out", help="override the output CSV path")

    p_val = sub.add_parser("validate", help="check a config without running it")
    p_val.add_argument("--config", required=True, help="JSON config path")

    p_rep = sub.add_parser("report", help="one design/true/bits report to stdout")
    p_rep.add_argument("--design", required=True, help="design law as JSON")
    p_rep.add_argument("--true", dest="true_law", required=True,
                       help="true law as JSON")
    p_rep.add_argument("--bits", type=int, required=True)
    p_rep.add_argument("--mc-samples", type=int, dest="mc_samples", default=0)
    p_rep.add_argument("--seed", type=int)
    return parser


def _config_from_args(args) -> ExperimentConfig:
    raw = _load_config(args.config)
    if args.experiment:
        raw["experiment"] = args.experiment
    if args.bits:
        raw["bits"] = _parse_bits(args.bits)
    if args.seed is not None:
        raw["seed"] = args.seed
    if args.mc_samples is not None:
        raw["mc_samples"] = args.mc_samples
    if args.out:
        raw["output"] = args.out
    return ExperimentConfig.from_mapping(raw)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    try:
        if args.command == "run":
            cfg = _config_from_args(args)
            problems = validate(cfg)
            if problems:
                for msg in problems:
                    print(f"config error: {msg}", file=sys.stderr)
                return 2
            path = run(cfg)
            print(f"wrote {path}")
            return 0

        if args.command == "validate":
            raw = _load_config(args.config)
            cfg = ExperimentConfig.from_mapping(raw)
            problems = validate(cfg)
            if problems:
                for msg in problems:
                    print(f"config error: {msg}", file=sys.stderr)
                return 2
            print("config ok")
            return 0

        if args.command == "report":
            try:
                design_rec = json.loads(args.design)
                true_rec = json.loads(args.true_law)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"law specs must be valid JSON: {exc}") from exc
            if not 1 <= args.bits <= 16:
                raise ConfigError(f"bits must lie in [1, 16], got {args.bits}")
            if args.mc_samples and args.seed is None:
                raise ConfigError("--mc-samples requires --seed")
            design_d = distributions.from_config(design_rec)
            true_d = distributions.from_config(true_rec)
            rep = mismatch.report(
                design_d, true_d, args.bits,
                mc_samples=args.mc_samples, seed=args.seed,
            )
            print(f"bits:        {args.bits}")
            print(f"d_fix:       {rep.d_fix:.12g}")
            print(f"d_gen:       {rep.d_gen:.12g}")
            print(f"d_ideal:     {rep.d_ideal:.12g}")
            print(f"excess:      {rep.excess:.12g}")
            print(f"gain:        {rep.relative_gain_pct:.6f}%")
            print(f"ideal gain:  {rep.ideal_gain_pct:.6f}%")
            if rep.mc_stderr is not None:
                print(f"mc d_fix:    {rep.d_fix_mc:.12g}")
                print(f"mc d_gen:    {rep.d_gen_mc:.12g}")
                print(f"mc stderr:   {rep.mc_stderr:.3g}")
            return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MismatchQuantError as exc:
        print(f"operation failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1

    parser.error(f"unknown command {args.command!r}")
    return 2

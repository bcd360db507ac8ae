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
import functools
import itertools
import json
import math
import sys
import types
import typing
from dataclasses import dataclass, field, fields

import numpy as np

from . import asymptotics, channel, distributions, mismatch, taskaware
# lloyd_max_design stays in this namespace: the benchmark's tracer wraps it here.
from .quantizer import _MEMO_SIZE, lloyd_max_design, lloyd_max_designs  # noqa: F401

__all__ = ["ExperimentConfig", "main", "run", "validate"]


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
    design: dict = field(default_factory=lambda: {"kind": "gaussian", "mean": 0.0, "std": 1.0})
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

    @classmethod
    def from_mapping(cls, raw: dict) -> "ExperimentConfig":
        unknown = sorted(set(raw) - {f.name for f in fields(cls)})
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        if "experiment" not in raw:
            raise ConfigError("config needs an 'experiment' key")
        return cls(**raw)

    @property
    def default_true(self) -> dict:
        return self.true or _RUNNERS[self.experiment].true or dict(self.design)


_type_hints = functools.cache(typing.get_type_hints)  # resolved once per process


def _conforms(value, tp) -> bool:
    """Whether a JSON value has the annotated type; floats must be finite."""
    if isinstance(tp, types.UnionType):
        return any(_conforms(value, t) for t in typing.get_args(tp))
    if typing.get_origin(tp) is list:
        (item,) = typing.get_args(tp)
        return isinstance(value, list) and all(_conforms(v, item) for v in value)
    if isinstance(value, bool):
        return False
    if tp is float:
        return isinstance(value, (int, float)) and math.isfinite(value)
    return isinstance(value, tp)


# One range rule per key an experiment can read: (what each value must be,
# its test).  A list key's rule applies to every entry.
_RANGES = {
    "bits": ("in [1, 16]", lambda b, cfg: 1 <= b <= 16),
    "sigma1_values": ("> 0", lambda s, cfg: s > 0),
    "epsilon_values": ("in [0, 0.5]", lambda e, cfg: 0 <= e <= 0.5),
    "sigma0": ("> 0", lambda s, cfg: s > 0),
    "bsc_sigma1_values": ("> 0", lambda s, cfg: s > 0),
    "k_t_values": (">= 0", lambda k, cfg: k >= 0),
    "k_d": (">= 0", lambda k, cfg: k >= 0),
    "n_classes": (">= 1", lambda n, cfg: n >= 1),
    "class_std": ("> 0", lambda s, cfg: s > 0),
    "class_spacing": ("> 0", lambda s, cfg: s > 0),
    "k_values": ("in [1, n_classes]", lambda k, cfg: 1 <= k <= cfg.n_classes),
}


def _out_of_range(key: str, value, cfg) -> list[str]:
    """The diagnostic of ``key``'s range rule for ``value``, if it breaks it."""
    text, holds = _RANGES[key]
    if all(holds(v, cfg) for v in (value if isinstance(value, list) else [value])):
        return []
    return [f"{key} must be {text}, got {value!r}"]


def validate(cfg: ExperimentConfig) -> list[str]:
    """Collect human-readable diagnostics; an empty list means runnable."""
    hints = _type_hints(ExperimentConfig)
    problems = [
        f"{f.name} must be {f.type.replace('float', 'finite float')}, "
        f"got {getattr(cfg, f.name)!r}"
        for f in fields(cfg) if not _conforms(getattr(cfg, f.name), hints[f.name])
    ]
    if problems:
        return problems
    if cfg.experiment not in _RUNNERS:
        return [f"unknown experiment {cfg.experiment!r}; choose from {', '.join(EXPERIMENTS)}"]
    reads = _RUNNERS[cfg.experiment].reads
    if cfg.mc_samples < 0 or cfg.mc_samples == 1:
        problems.append("mc_samples must be 0 or at least 2")
    if cfg.mc_samples > 0 and cfg.seed is None:
        problems.append("mc_samples > 0 requires an explicit seed")
    if cfg.mc_samples > 0 and "mc_samples" not in reads:
        problems.append(f"Monte Carlo cross-checks are not available for {cfg.experiment}")
    checked = []
    for key in reads:  # only what the experiment reads is range-checked
        value = cfg.default_true if key == "true" else getattr(cfg, key)
        if key in ("design", "true"):
            if value in checked:  # a true law that defaults to the design law
                continue
            checked.append(value)
            try:
                distributions.from_config(value)
            except ValueError as exc:
                problems.append(f"{key} law: {exc}")
        elif value == []:
            problems.append(f"{key} grid is empty")
        elif key in _RANGES and value is not None:
            problems += _out_of_range(key, value, cfg)
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


def _point_seed(seed: int | None, index: int) -> int | None:
    if seed is None:
        return None
    return (int(seed) + 9973 * (index + 1)) % (2**63)


def _reports(cfg: ExperimentConfig, prefix: list[str], items):
    """Header and rows of ``mismatch.report`` under the design law.

    ``items`` yields ``(prefix values, true law, bits)`` in output order; the
    Monte Carlo seed of each row follows from its position.
    """
    design_d = distributions.from_config(cfg.design)
    header = prefix + ["bits", "d_fix", "d_gen", "d_ideal",
                       "gain_pct", "ideal_gain_pct", "method"]
    if cfg.mc_samples:
        header += ["d_fix_mc", "d_gen_mc", "mc_stderr"]
    rows = []
    for index, (values, true_d, bits) in enumerate(items):
        rep = mismatch.report(
            design_d, true_d, bits,
            mc_samples=cfg.mc_samples,
            seed=_point_seed(cfg.seed, index),
        )
        row = [*values, bits, rep.d_fix, rep.d_gen, rep.d_ideal,
               rep.relative_gain_pct, rep.ideal_gain_pct, rep.method]
        if cfg.mc_samples:
            row += [rep.d_fix_mc, rep.d_gen_mc, rep.mc_stderr]
        rows.append(row)
    return header, rows


def _run_mean_sweep(cfg: ExperimentConfig):
    return _reports(cfg, ["mu1"], (
        ([mu], distributions.Gaussian(mean=mu, std=1.0), bits)
        for mu, bits in itertools.product(cfg.mu1_values, cfg.bits)
    ))


def _run_variance_sweep(cfg: ExperimentConfig):
    return _reports(cfg, ["sigma1"], (
        ([sigma], distributions.Gaussian(mean=0.0, std=sigma), bits)
        for sigma, bits in itertools.product(cfg.sigma1_values, cfg.bits)
    ))


def _run_laplace_table(cfg: ExperimentConfig):
    true_d = distributions.from_config(cfg.default_true)
    return _reports(cfg, [], (([], true_d, bits) for bits in cfg.bits))


def _run_single_report(cfg: ExperimentConfig):
    true_d = distributions.from_config(cfg.default_true)
    laws = [json.dumps(rec, sort_keys=True) for rec in (cfg.design, cfg.default_true)]
    return _reports(cfg, ["design", "true"], ((laws, true_d, bits) for bits in cfg.bits))


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
    header = ["epsilon", "sigma0", "sigma1", "d_std", "d_hard", "d_opt"]
    if cfg.mc_samples:
        header += ["d_std_mc", "d_hard_mc", "d_opt_mc", "mc_stderr"]
    rows = []
    points = itertools.product(cfg.epsilon_values, cfg.bsc_sigma1_values)
    for index, (eps, sigma1) in enumerate(points):
        rep = channel.strategy_report(cfg.sigma0, sigma1, eps)
        row = [eps, cfg.sigma0, sigma1, rep.d_std, rep.d_hard, rep.d_opt]
        if cfg.mc_samples:
            row += _bsc_monte_carlo(cfg.sigma0, sigma1, eps, cfg.mc_samples,
                                    _point_seed(cfg.seed, index))
        rows.append(row)
    return header, rows


def _bsc_monte_carlo(sigma0, sigma1, eps, n, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, sigma1, size=n)
    sign = np.where((x >= 0.0) != (rng.random(n) < eps), 1.0, -1.0)  # received bit, as +-1
    k = mismatch._SQRT_2_OVER_PI
    errs = [np.square(x - sign * (s * k)) for s in (sigma0, sigma1, (1.0 - 2.0 * eps) * sigma1)]
    stderr = max(float(e.std(ddof=1)) for e in errs) / math.sqrt(n)
    return [float(e.mean()) for e in errs] + [stderr]


def _run_rician_csi(cfg: ExperimentConfig):
    phi_d = taskaware.phi(cfg.k_d)
    header = ["k_t", "k_d", "phi_t", "phi_d", "eta_pct"]
    return header, [
        [k_t, cfg.k_d, taskaware.phi(k_t), phi_d, taskaware.eta(k_t, cfg.k_d)]
        for k_t in cfg.k_t_values
    ]


def _semantic_source(cfg: ExperimentConfig, count: int) -> taskaware.LabeledSource:
    """The first ``count`` of ``n_classes`` evenly spaced classes, equally weighted."""
    offset = 0.5 * (cfg.n_classes - 1) * cfg.class_spacing
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


def _run_semantic_mixture(cfg: ExperimentConfig):
    src_design = _semantic_source(cfg, cfg.n_classes)
    marginal = src_design.marginal()
    ks = list(cfg.k_values or range(1, cfg.n_classes + 1))
    sources = [_semantic_source(cfg, k) for k in ks]
    # Each bit depth designs the design marginal, which does not depend on k,
    # together with the true marginals, and then runs their reports, whose
    # ideal redesigns read the design memo.  A batch of at most _MEMO_SIZE
    # laws stays whole in the memo until its reports have read it.
    step = _MEMO_SIZE - 1
    reports = {}
    for bits in dict.fromkeys(cfg.bits):
        for lo in range(0, len(ks), step):
            chunk = sources[lo : lo + step]
            laws = [marginal, *(src.marginal() for src in chunk)]
            partition = lloyd_max_designs(laws, bits)[0].partition
            for k, src_true in zip(ks[lo : lo + step], chunk):
                reports[k, bits] = taskaware.classification_report(partition, src_true, src_design)
    rows = [[k, bits, rep.acc_fix, rep.acc_gen, rep.acc_ideal, rep.recovery_pct]
            for k in ks for bits in cfg.bits for rep in [reports[k, bits]]]
    header = ["k", "bits", "acc_fix", "acc_gen", "acc_ideal", "recovery_pct"]
    return header, rows


class _Experiment(typing.NamedTuple):
    runner: typing.Callable[[ExperimentConfig], tuple[list[str], list[list]]]
    # The config keys the runner reads besides experiment, output and seed:
    # its laws, grids and settings, and mc_samples if it takes Monte Carlo.
    reads: tuple[str, ...]
    true: dict | None = None  # default true law; None means the design law


# The experiments, in the order the CLI lists them.
_RUNNERS = {
    "mean_sweep": _Experiment(_run_mean_sweep, ("design", "mu1_values", "bits", "mc_samples")),
    "variance_sweep": _Experiment(
        _run_variance_sweep, ("design", "sigma1_values", "bits", "mc_samples")),
    "laplace_table": _Experiment(
        _run_laplace_table, ("design", "true", "bits", "mc_samples"),
        true={"kind": "laplace", "loc": 0.0, "scale": math.sqrt(0.5)},
    ),
    "rate_recovery": _Experiment(
        _run_rate_recovery, ("design", "true", "bits"),
        true={"kind": "gaussian", "mean": 0.0, "std": 2.0},
    ),
    "bsc_sweep": _Experiment(
        _run_bsc_sweep, ("epsilon_values", "sigma0", "bsc_sigma1_values", "mc_samples")),
    "rician_csi": _Experiment(_run_rician_csi, ("k_t_values", "k_d")),
    "semantic_mixture": _Experiment(
        _run_semantic_mixture,
        ("n_classes", "class_std", "class_spacing", "k_values", "bits")),
    "single_report": _Experiment(_run_single_report, ("design", "true", "bits", "mc_samples")),
}

EXPERIMENTS = tuple(_RUNNERS)


def run(cfg: ExperimentConfig) -> str:
    """Execute the experiment and write its CSV; returns the output path."""
    header, rows = _RUNNERS[cfg.experiment].runner(cfg)
    path = cfg.output or f"{cfg.experiment}.csv"
    _write_csv(path, header, rows)
    return path


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config must be a JSON object, got {type(raw).__name__}")
    return raw


def _parse_bits(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"cannot parse bits list {text!r}") from exc


@functools.cache  # built once per process; each parse fills a fresh namespace
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
    if args.command == "run":
        overrides = {
            "experiment": args.experiment, "seed": args.seed,
            "mc_samples": args.mc_samples, "output": args.out,
            "bits": _parse_bits(args.bits) if args.bits else None,
        }
        raw.update((key, value) for key, value in overrides.items() if value is not None)
    return ExperimentConfig.from_mapping(raw)


def _print_report(args) -> None:
    try:
        design_d, true_d = (distributions.from_config(json.loads(spec))
                            for spec in (args.design, args.true_law))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"law specs must be valid JSON: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"law spec: {exc}") from exc
    if problems := _out_of_range("bits", args.bits, None):
        raise ConfigError(problems[0])
    if args.mc_samples < 0 or args.mc_samples == 1:
        raise ConfigError("--mc-samples must be 0 or at least 2")
    if args.mc_samples and (args.seed is None or args.seed < 0):
        raise ConfigError("--mc-samples requires --seed >= 0")
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


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "report":
            _print_report(args)
            return 0
        cfg = _config_from_args(args)
        problems = validate(cfg)
        if not problems:
            print(f"wrote {run(cfg)}" if args.command == "run" else "config ok")
            return 0
    except ConfigError as exc:
        problems = [str(exc)]
    except Exception as exc:  # the exit-code contract: a failure is reported, not raised
        print(f"operation failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    for msg in problems:
        print(f"config error: {msg}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main())

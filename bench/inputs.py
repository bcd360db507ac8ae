"""Workload inputs as plain data, generated from the workload seed.

Nothing here imports the package, so the same records feed the timed calls
(``workloads.py``) and the mpmath oracle (``oracle.py``).  Laws are tuples:
``("gaussian", mean, std)``, ``("laplace", loc, scale)`` or
``("mixture", ((weight, mean, std), ...))``.

Each workload has a fixed core, identical for every seed, whose outputs are
compared with the committed oracle values, and a seeded part: a fixed base
grid whose values the seed jitters by a few percent.  The seed thus changes
every seeded input but neither the number nor the size of the calls, and
barely the effort adaptive quadrature spends on them, so the amount of work
does not depend on the seed.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

SQRT_HALF = math.sqrt(0.5)

# --- cli_defaults -----------------------------------------------------------

CLI_EXPERIMENTS = (
    "mean_sweep",
    "variance_sweep",
    "laplace_table",
    "rate_recovery",
    "bsc_sweep",
    "rician_csi",
    "semantic_mixture",
    "single_report",
)
# One Monte Carlo rerun; 4 rows x 2 codebooks x MC_SAMPLES draws keeps the
# sampling path well under 1% of the pass.
MC_EXPERIMENT = "laplace_table"
MC_SAMPLES = 400_000

# Grid points of the default configs whose outputs the oracle holds.
ORACLE_MU1 = (-2.0, -0.75, 0.5, 1.75)
ORACLE_SIGMA1_EXPONENTS = (-4, -1, 2, 4)          # sigma1 = 2 ** (k / 2)
ORACLE_SEMANTIC_K = (2, 5, 8)
CLI_BITS = (1, 2, 3, 4)


def cli_defaults(seed: int) -> dict:
    """The eight default experiments plus one seeded Monte Carlo rerun."""
    return {
        "experiments": CLI_EXPERIMENTS,
        "mc": {"experiment": MC_EXPERIMENT, "mc_samples": MC_SAMPLES, "seed": int(seed)},
    }


# --- high_rate --------------------------------------------------------------

HIGH_RATE_MAX_ITERS = 5000
HIGH_RATE_INIT = "cube_root"
# (name, design law, true law, bits); fixed pairs are oracle-checked.
HIGH_RATE_FIXED = (
    ("gauss", ("gaussian", 0.0, 1.0), ("gaussian", 0.0, 2.0), (6, 12)),
    ("laplace", ("laplace", 0.0, SQRT_HALF), ("laplace", 0.0, 1.0), (10,)),
)
HIGH_RATE_MIX_DESIGN = ("mixture", ((0.3, -1.5, 0.6), (0.4, 0.0, 0.8), (0.3, 1.5, 0.6)))
HIGH_RATE_MIX_TRUE = ((0.25, -1.4, 0.7), (0.45, 0.1, 0.9), (0.3, 1.6, 0.65))  # jittered
HIGH_RATE_MIX_BITS = (7,)


def _jitter(rng: np.random.Generator, x: float, rel: float = 0.02) -> float:
    return float(x * (1.0 + rel * rng.uniform(-1.0, 1.0)))


def _shift(rng: np.random.Generator, x: float, width: float = 0.02) -> float:
    return float(x + width * rng.uniform(-1.0, 1.0))


def _normalized(weights) -> list[float]:
    """Weights scaled to sum to one, the last absorbing the rounding."""
    total = sum(weights)
    out = [w / total for w in weights[:-1]]
    return out + [1.0 - sum(out)]


def _jittered_mixture(rng: np.random.Generator, comps) -> tuple:
    weights = _normalized([_jitter(rng, w) for w, _, _ in comps])
    return ("mixture", tuple((w, _shift(rng, m), _jitter(rng, s))
                             for w, (_, m, s) in zip(weights, comps)))


def high_rate(seed: int) -> tuple:
    """Design/true pairs for the rate sweep; the mixture's true law is seeded."""
    rng = np.random.default_rng([seed % 2**63, 1])
    mix_true = _jittered_mixture(rng, HIGH_RATE_MIX_TRUE)
    return HIGH_RATE_FIXED + (("mixture", HIGH_RATE_MIX_DESIGN, mix_true, HIGH_RATE_MIX_BITS),)


# --- decode_tasks -----------------------------------------------------------

DECODE_BITS = (2, 3, 4, 5, 6, 7, 8)
DECODE_EPS = (0.02, 0.25)
TASK_BITS = (2, 3, 4, 5, 6)
LABEL_BITS = (2, 3, 4, 5, 6, 7, 8)
RICIAN_K_DESIGN = (1.0, 10.0)
# (sigma1, epsilon) for the 1-bit soft-shrinkage identity.
SHRINKAGE_CASES = ((0.5, 0.05), (1.0, 0.1), (2.0, 0.3), (3.0, 0.45))

DECODE_FIXED = {
    # Channel and task partitions come from N(0, 1) quantile midpoints.
    "channel": {"design": (0.0, 1.0), "true": ("gaussian", 0.2, 1.3), "eps": DECODE_EPS,
                "bits": DECODE_BITS},
    "task": {"design": (0.0, 1.0), "true": ("gaussian", 0.3, 1.1)},
    "rician_k": (0.0, 0.5, 1.0, 2.0, 5.0, 10.0, 30.0, 100.0),
    "labels": {
        "design": (0.0, 1.2),
        "classes": (("c0", 0.25, -1.5, 0.5), ("c1", 0.25, -0.5, 0.5),
                    ("c2", 0.25, 0.5, 0.5), ("c3", 0.25, 1.5, 0.5)),
    },
}
N_SEEDED_TASK_LAWS = 7
N_SEEDED_RICIAN_K = 24
N_SEEDED_SOURCES = 11
SEEDED_EPS = 0.1


def gaussian_quantile_partition(mean: float, std: float, bits: int):
    """Thresholds at the midpoints of the ``(i + 0.5) / N`` quantiles of
    N(mean, std^2), and those quantiles as the design codebook."""
    n = 1 << bits
    codebook = mean + std * special.ndtri((np.arange(n) + 0.5) / n)
    thresholds = 0.5 * (codebook[:-1] + codebook[1:])
    return tuple(float(t) for t in thresholds), tuple(float(c) for c in codebook)


def _base_source(index: int) -> list:
    """Class list (label, weight, mean, std) of the index-th seeded source."""
    n = 3 + index % 3
    means = np.linspace(-1.5, 1.5, n) + 0.3 * np.sin(np.arange(n) + index)
    stds = 0.4 + 0.1 * np.cos(np.arange(n) * 2.0 + index)
    weights = 1.0 + 0.3 * np.sin(np.arange(n) * 1.7 + index)
    return [(f"s{k}", float(w), float(m), float(s))
            for k, (w, m, s) in enumerate(zip(weights, means, stds))]


def decode_tasks(seed: int) -> dict:
    """Decoder inputs: channel grids, task-loss laws, Rice factors, sources."""
    rng = np.random.default_rng([seed % 2**63, 2])
    channel_seeded = {
        "design": (_shift(rng, 0.1), _jitter(rng, 0.9)),
        "true": ("gaussian", _shift(rng, -0.2), _jitter(rng, 1.5)),
        "eps": (_jitter(rng, SEEDED_EPS, 0.05),),
        "bits": DECODE_BITS[:-1],
    }
    task_seeded = [
        {"design": (_shift(rng, dm), _jitter(rng, ds)),
         "true": ("gaussian", _shift(rng, tm), _jitter(rng, ts))}
        for dm, ds, tm, ts in zip(np.linspace(-0.3, 0.3, N_SEEDED_TASK_LAWS),
                                  np.linspace(1.2, 0.8, N_SEEDED_TASK_LAWS),
                                  np.linspace(-0.5, 0.5, N_SEEDED_TASK_LAWS),
                                  np.linspace(0.7, 1.5, N_SEEDED_TASK_LAWS))
    ]
    rician_seeded = tuple(_jitter(rng, k) for k in
                          np.expm1(np.linspace(0.1, math.log1p(200.0), N_SEEDED_RICIAN_K)))
    sources = []
    for i in range(N_SEEDED_SOURCES):
        base = _base_source(i)
        weights = _normalized([_jitter(rng, w) for _, w, _, _ in base])
        sources.append({
            "design": (_shift(rng, 0.0, 0.2), _jitter(rng, 1.2, 0.1)),
            "classes": tuple((lab, w, _shift(rng, m), _jitter(rng, s))
                             for (lab, _, m, s), w in zip(base, weights)),
        })
    return {
        "channel": (DECODE_FIXED["channel"], channel_seeded),
        "task": (DECODE_FIXED["task"], *task_seeded),
        "rician_k": DECODE_FIXED["rician_k"] + rician_seeded,
        "labels": (DECODE_FIXED["labels"], *sources),
        "shrinkage": SHRINKAGE_CASES,
    }


GENERATORS = {"cli_defaults": cli_defaults, "high_rate": high_rate, "decode_tasks": decode_tasks}

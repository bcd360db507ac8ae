"""Index noise between encoder and decoder, and decoders that handle it.

The channel acts on quantizer indices.  Three decoding strategies are
compared throughout: reconstruct with the design codebook (pure
separation), swap in the true-law conditional means (hard generative), or
average those means under the index posterior (soft generative, the MMSE
table for the given channel).
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .distributions import ZERO_MASS_TOL, Distribution, _conditional_means, _table_distortion
from .errors import ZeroEvidence
from .mismatch import generative_codebook
from .quantizer import Codebook, Partition, Quantizer, _bin_arrays, _FrozenArray, _moment_table

__all__ = [
    "Channel",
    "NoisyDecoder",
    "StrategyReport",
    "bsc_channel",
    "index_posterior",
    "make_noisy_decoder",
    "noisy_distortion",
    "soft_codebook",
    "strategy_report",
]

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)

STRATEGIES = ("standard_separation", "hard_generative", "soft_generative")


class Channel(_FrozenArray):
    """Row-stochastic index transition matrix ``P(received j | sent i)`` from
    a square array-like; ``matrix`` is its tuple of tuples of floats."""

    _NDIM, _VIEW = 2, "matrix"
    matrix = functools.cached_property(_FrozenArray._as_tuple)

    def _check(self, m: np.ndarray) -> None:
        if m.shape[0] != m.shape[1]:
            raise ValueError(f"transition matrix must be square, got shape {m.shape}")
        if np.any(m < 0.0) or np.any(np.abs(m.sum(axis=1) - 1.0) > 1e-12):
            raise ValueError("transition probabilities must be >= 0, each row summing to 1 within 1e-12")

    @property
    def n(self) -> int:
        return self._array.shape[0]


@dataclass(frozen=True)
class NoisyDecoder:
    """A decoding strategy together with its reconstruction table."""

    strategy: str
    table: Codebook

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise ValueError(
                f"strategy must be one of {STRATEGIES}, got {self.strategy!r}"
            )


def bsc_channel(bits: int, epsilon: float) -> Channel:
    """Memoryless binary symmetric channel on natural-binary index labels.

    Flipping each of the ``bits`` label bits independently with probability
    ``epsilon`` gives ``P(j | i) = eps^h (1-eps)^(bits-h)`` where ``h`` is
    the Hamming distance between the labels of ``i`` and ``j``.
    """
    if not isinstance(bits, int) or not 1 <= bits <= 12:
        raise ValueError(f"bits must be an integer in [1, 12], got {bits!r}")
    if not 0.0 <= epsilon <= 0.5:
        raise ValueError(f"epsilon must lie in [0, 0.5], got {epsilon}")
    # The entry depends only on the Hamming weight of i ^ j, so it is looked
    # up among the bits + 1 distinct values.  Popcounts of 0..n-1 follow by
    # doubling (setting bit k adds one to the weights of 0..2^k - 1), which
    # gives row 0; row i is row 0 at the columns j ^ i.
    n = 1 << bits
    weight = np.zeros(n, dtype=np.uint8)
    for k in range(bits):
        weight[1 << k : 2 << k] = weight[: 1 << k] + 1
    h = np.arange(bits + 1)
    row = ((epsilon**h) * (1.0 - epsilon) ** (bits - h))[weight]
    idx = np.arange(n, dtype=np.uint16)
    return Channel(row[idx[:, None] ^ idx])


def index_posterior(ch: Channel, priors, received: int) -> np.ndarray:
    """Posterior over sent indices given the received index.

    Raises
    ------
    ZeroEvidence
        If the received index has zero marginal probability.
    """
    pri = np.asarray(priors, dtype=float)
    if pri.shape != (ch.n,):
        raise ValueError(f"priors must have shape ({ch.n},), got {pri.shape}")
    if np.any(pri < 0.0):
        raise ValueError("priors must be non-negative")
    j = operator.index(received) if hasattr(type(received), "__index__") else -1
    if isinstance(received, bool) or not 0 <= j < ch.n:
        raise ValueError(f"received index {received!r} is not an integer in [0, {ch.n})")
    weights = ch.as_array()[:, j] * pri
    evidence = float(weights.sum())
    if evidence < ZERO_MASS_TOL:
        raise ZeroEvidence(
            f"received index {received} has zero marginal probability"
        )
    return weights / evidence


def soft_codebook(
    p: Partition,
    true_d: Distribution,
    ch: Channel,
    fallback: Codebook | None = None,
) -> Codebook:
    """MMSE reconstruction table for a noisy index: posterior-averaged
    conditional means.

    Entry ``j`` is ``sum_i P(i) P(j | i) gen_i / sum_i P(i) P(j | i)``, the
    same Bayes rule as ``index_posterior``, for all received indices at
    once.  A received index that cannot occur (zero evidence) falls back to
    the prior-weighted mean of the conditional means, which is the best
    guess with no usable observation.
    """
    m, spare = _bin_arrays(p, ch, fallback)
    mass, m1 = _moment_table(true_d, p, 1)
    gen, _ = _conditional_means((mass, m1), true_d, spare)
    priors = mass / mass.sum()
    joint = m * priors[:, None]
    evidence = joint.sum(axis=0)
    values = np.full(ch.n, priors @ gen)
    np.divide(gen @ joint, evidence, out=values, where=evidence >= ZERO_MASS_TOL)
    return Codebook(values)


def make_noisy_decoder(
    strategy: str,
    quantizer: Quantizer,
    true_d: Distribution,
    ch: Channel | None = None,
) -> NoisyDecoder:
    """Build the reconstruction table for one of the three strategies;
    ``NoisyDecoder`` rejects any other strategy."""
    p = quantizer.partition
    table = quantizer.design_codebook
    if strategy == "hard_generative":
        table = generative_codebook(p, true_d, quantizer.design_codebook)
    elif strategy == "soft_generative":
        if ch is None:
            raise ValueError("soft_generative needs the channel")
        table = soft_codebook(p, true_d, ch, fallback=quantizer.design_codebook)
    return NoisyDecoder(strategy=strategy, table=table)


def noisy_distortion(
    p: Partition, ch: Channel, dec: NoisyDecoder, true_d: Distribution
) -> float:
    """Exact end-to-end MSE through the index channel.

    Averages the per-bin moments over the transition matrix:
    ``sum_i sum_j P(x in bin i) P(j | i) E[(X - a_j)^2 | bin i]``.
    """
    t, a = _bin_arrays(p, ch, dec.table)
    return _table_distortion(_moment_table(true_d, p), t @ a, t @ (a * a))


@dataclass(frozen=True)
class StrategyReport:
    """Closed-form 1-bit BSC comparison for zero-mean Gaussian laws.

    ``source_bias_gap = d_std - d_hard`` isolates the cost of decoding with
    the wrong source scale; ``separation_gap = d_hard - d_opt`` isolates the
    cost of ignoring channel noise in the table, equal to
    ``4 eps^2 sigma1^2 (2/pi)``.
    """

    epsilon: float
    sigma0: float
    sigma1: float
    d_std: float
    d_hard: float
    d_opt: float
    source_bias_gap: float
    separation_gap: float


def strategy_report(sigma0: float, sigma1: float, epsilon: float) -> StrategyReport:
    """Distortion of the three decoding strategies for the 1-bit sign
    quantizer on a BSC, all in closed form.

    With ``c = sigma1 sqrt(2/pi)`` and table magnitude ``A``, the end-to-end
    distortion is ``sigma1^2 - 2 A c (1 - 2 eps) + A^2``; the strategies
    plug in ``A = sigma0 sqrt(2/pi)`` (standard), ``A = c`` (hard
    generative), and ``A = (1 - 2 eps) c`` (soft generative, the minimizer).
    """
    if sigma0 <= 0.0 or sigma1 <= 0.0:
        raise ValueError("standard deviations must be positive")
    if not 0.0 <= epsilon <= 0.5:
        raise ValueError(f"epsilon must lie in [0, 0.5], got {epsilon}")
    var1 = sigma1 * sigma1
    c = sigma1 * _SQRT_2_OVER_PI
    shrink = 1.0 - 2.0 * epsilon

    def end_to_end(a: float) -> float:
        return var1 - 2.0 * a * c * shrink + a * a

    d_std = end_to_end(sigma0 * _SQRT_2_OVER_PI)
    d_hard = end_to_end(c)
    d_opt = end_to_end(shrink * c)
    return StrategyReport(
        epsilon=epsilon,
        sigma0=sigma0,
        sigma1=sigma1,
        d_std=d_std,
        d_hard=d_hard,
        d_opt=d_opt,
        source_bias_gap=d_std - d_hard,
        separation_gap=d_hard - d_opt,
    )

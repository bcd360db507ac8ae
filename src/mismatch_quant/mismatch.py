"""Distortion of a fixed encoder under the law the data actually follows.

The central objects are three distortions for a quantizer designed under
one law and fed data from another:

* ``d_fix``   keep the design codebook (no adaptation),
* ``d_gen``   keep the partition, move each codeword to the conditional
              mean under the true law (decoder-side adaptation),
* ``d_ideal`` redesign the whole quantizer for the true law.

All three are exact expectations computed from interval moments, with an
optional Monte Carlo cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import (
    Distribution, Gaussian, _conditional_means, _table_distortion, inverse_mills)
from .quantizer import (
    Codebook, Partition, Quantizer, _bin_arrays, _moment_table, _standard_member, lloyd_max_design)

__all__ = [
    "DistortionReport",
    "OneBitGaussianReport",
    "expected_distortion",
    "generative_codebook",
    "ideal_distortion",
    "monte_carlo_distortion",
    "one_bit_gaussian_report",
    "one_bit_quantizer",
    "report",
]

_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


@dataclass(frozen=True)
class DistortionReport:
    """Exact distortions for one (design law, true law, bit depth) setup.

    ``excess = d_fix - d_gen`` is what decoder-side adaptation saves,
    computed as ``sum_i mass_i (a_i - g_i)^2`` (design codewords ``a``,
    conditional means ``g``); ``relative_gain_pct`` expresses it relative
    to ``d_fix``.  ``method``
    records how the exact numbers were produced.  The ``*_mc`` fields are
    present when a Monte Carlo cross-check was requested; ``mc_stderr`` is
    the larger of the two standard errors.  ``substituted_bins`` lists bins
    where the true law had no mass and the design codeword was kept.
    """

    d_fix: float
    d_gen: float
    d_ideal: float
    excess: float
    relative_gain_pct: float
    method: str
    mc_stderr: float | None = None
    d_fix_mc: float | None = None
    d_gen_mc: float | None = None
    substituted_bins: tuple[int, ...] = ()

    @property
    def ideal_gain_pct(self) -> float:
        return 100.0 * (1.0 - self.d_ideal / self.d_fix)


@dataclass(frozen=True)
class OneBitGaussianReport:
    """Closed-form 1-bit numbers for a Gaussian design/true pair."""

    alpha: float
    lambda_left: float
    lambda_right: float
    d_fix: float
    d_min: float
    gain_pct: float


def expected_distortion(p: Partition, c: Codebook, d: Distribution) -> float:
    """Exact MSE of the fixed map (partition ``p``, codebook ``c``) under ``d``.

    Bins without mass contribute nothing, whatever their codeword.
    """
    [a] = _bin_arrays(p, c)
    return _table_distortion(_moment_table(d, p), a, a * a)


def generative_codebook(
    p: Partition, true_d: Distribution, fallback: Codebook | None = None
) -> Codebook:
    """Per-bin conditional means under the true law (the MMSE codebook).

    If some bin has no mass under ``true_d``, its entry falls back to the
    corresponding value of ``fallback`` when one is given; otherwise
    ``ZeroMassBin`` is raised.
    """
    [spare] = _bin_arrays(p, fallback)
    values, _ = _conditional_means(_moment_table(true_d, p, 1), true_d, spare)
    return Codebook(values)


def ideal_distortion(true_d: Distribution, bits: int, **lloyd_kwargs) -> float:
    """Distortion of a quantizer redesigned from scratch for ``true_d``.

    ``true_d`` is ``loc + scale * X`` for its standard member ``X`` (see
    ``lloyd_max_design``), and this is ``scale**2 * D*``, ``D*`` the final
    design distortion of ``X`` (Max 1960), with no quantizer mapped.  For a
    standard member or a mixture (``scale = 1``) it is bit for bit the
    expanded sum ``expected_distortion`` forms for the returned quantizer.
    Any other Gaussian or Laplace law gets bit for bit what its mapped
    design reports, even where that design would raise ``DegenerateDesign``
    because its thresholds coincide in floating point.
    """
    law, _, scale = _standard_member(true_d)
    return scale * scale * lloyd_max_design(law, bits, **lloyd_kwargs).distortion_history[-1]


def _sampled_mse(x: np.ndarray, idx: np.ndarray, c: Codebook) -> tuple[float, float]:
    """Sampled MSE of ``c`` on draws ``x`` already encoded as ``idx``, and
    its standard error.  The errors are squared in place in the array the
    lookup returns, so no other draw-sized temporary is live."""
    err = c.as_array()[idx]
    np.subtract(x, err, out=err)
    np.square(err, out=err)
    return float(np.mean(err)), float(np.std(err, ddof=1) / math.sqrt(err.size))


def monte_carlo_distortion(
    p: Partition, c: Codebook, d: Distribution, n_samples: int, seed: int
) -> tuple[float, float]:
    """Sampled MSE of the map and its standard error."""
    if n_samples < 2:
        raise ValueError("n_samples must be at least 2")
    _bin_arrays(p, c)
    x = d.sample(seed, n_samples)
    return _sampled_mse(x, p.encode(x), c)


def _exact_terms(q: Quantizer, true_d: Distribution):
    """``(gen, substituted, d_fix, d_gen, excess)`` of ``q`` under ``true_d``,
    all from its moment table on the partition: the conditional means
    (design codewords in the ``substituted`` empty bins), both exact
    distortions, and ``excess = d_fix - d_gen`` by the identity
    ``sum_i mass_i (a_i - gen_i)^2``, which has no cancellation."""
    table = _moment_table(true_d, q.partition)
    fix = q.design_codebook.as_array()
    gen, substituted = _conditional_means(table, true_d, fix)
    shift = fix - gen
    return (gen, substituted,
            _table_distortion(table, fix, fix * fix), _table_distortion(table, gen, gen * gen),
            float(np.dot(table[0], shift * shift)))


def report(
    design_d: Distribution,
    true_d: Distribution,
    bits: int,
    *,
    mc_samples: int = 0,
    seed: int | None = None,
    max_iters: int = 500,
    init: str = "quantile",
) -> DistortionReport:
    """Design under ``design_d``, evaluate everything under ``true_d``.

    ``d_fix`` and ``d_gen`` are exact expectations on the design partition;
    ``d_ideal`` is ``ideal_distortion``.  With ``mc_samples`` the Monte
    Carlo cross-check draws ``mc_samples`` values from ``true_d`` with
    ``seed`` once, encodes them once and scores both codebooks on those
    draws, so ``d_fix_mc`` and ``d_gen_mc`` equal two
    ``monte_carlo_distortion`` calls with that seed, bit for bit.
    """
    q = lloyd_max_design(design_d, bits, max_iters=max_iters, init=init)
    gen_values, substituted, d_fix, d_gen, excess = _exact_terms(q, true_d)
    gen_codebook = Codebook(gen_values)
    d_ideal = ideal_distortion(true_d, bits, max_iters=max_iters, init=init)

    mc_stderr = d_fix_mc = d_gen_mc = None
    if mc_samples:
        if seed is None:
            raise ValueError("a seed is required when mc_samples > 0")
        if mc_samples < 2:
            raise ValueError("mc_samples must be 0 or at least 2")
        x = true_d.sample(seed, mc_samples)
        idx = q.encode(x).astype(np.uint16)  # 16 bits at most
        d_fix_mc, se_fix = _sampled_mse(x, idx, q.design_codebook)
        d_gen_mc, se_gen = _sampled_mse(x, idx, gen_codebook)
        mc_stderr = max(se_fix, se_gen)

    return DistortionReport(
        d_fix=d_fix,
        d_gen=d_gen,
        d_ideal=d_ideal,
        excess=excess,
        relative_gain_pct=100.0 * excess / d_fix,
        method="closed_form",
        mc_stderr=mc_stderr,
        d_fix_mc=d_fix_mc,
        d_gen_mc=d_gen_mc,
        substituted_bins=substituted,
    )


def one_bit_gaussian_report(
    mu0: float, sigma0: float, mu1: float, sigma1: float
) -> OneBitGaussianReport:
    """Closed-form 1-bit sign quantizer under a Gaussian design/true pair.

    The design threshold sits at ``mu0`` with codewords
    ``mu0 -/+ sigma0 * sqrt(2/pi)``.  With ``alpha = (mu0 - mu1) / sigma1``
    and the inverse Mills ratios ``lL, lR`` at ``alpha``, the adapted
    (per-bin conditional mean) distortion is

        d_min = sigma1^2 * (Phi(alpha) * (1 - alpha*lL - lL^2)
                            + (1 - Phi(alpha)) * (1 + alpha*lR - lR^2))

    and ``d_fix`` is the same expectation with the design codewords kept,
    evaluated from the normalized codeword offsets.  Both match
    ``expected_distortion`` to within rounding.  No experiment calls this:
    it stays as the paper's closed-form 1-bit result, against which the
    tests cross-check the general moment path.
    """
    if sigma0 <= 0.0 or sigma1 <= 0.0:
        raise ValueError("standard deviations must be positive")
    alpha = (mu0 - mu1) / sigma1
    lam_l, lam_r = inverse_mills(alpha)
    phi_alpha = float(Gaussian().cdf(alpha))
    left = 1.0 - alpha * lam_l - lam_l * lam_l
    right = 1.0 + alpha * lam_r - lam_r * lam_r
    d_min = sigma1 * sigma1 * (phi_alpha * left + (1.0 - phi_alpha) * right)

    # Design codewords expressed in units of the true law.
    a_lo = (mu0 - sigma0 * _SQRT_2_OVER_PI - mu1) / sigma1
    a_hi = (mu0 + sigma0 * _SQRT_2_OVER_PI - mu1) / sigma1
    fix_left = 1.0 - alpha * lam_l + 2.0 * a_lo * lam_l + a_lo * a_lo
    fix_right = 1.0 + alpha * lam_r - 2.0 * a_hi * lam_r + a_hi * a_hi
    d_fix = sigma1 * sigma1 * (phi_alpha * fix_left + (1.0 - phi_alpha) * fix_right)

    return OneBitGaussianReport(
        alpha=alpha,
        lambda_left=lam_l,
        lambda_right=lam_r,
        d_fix=d_fix,
        d_min=d_min,
        gain_pct=100.0 * (1.0 - d_min / d_fix),
    )


def one_bit_quantizer(mu0: float, sigma0: float) -> Quantizer:
    """The 1-bit sign quantizer a Gaussian design law produces."""
    return Quantizer(
        partition=Partition((mu0,)),
        design_codebook=Codebook(
            (mu0 - sigma0 * _SQRT_2_OVER_PI, mu0 + sigma0 * _SQRT_2_OVER_PI)
        ),
        design_law=Gaussian(mean=mu0, std=sigma0),
    )

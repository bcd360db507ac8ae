"""High-rate distortion structure: granular term, overload term, and the
penalty for quantizing with a point density tuned to the wrong law.

The granular model is the classical companding integral: a quantizer whose
codewords follow point density ``lam(x)`` costs about
``(1/(12 N^2)) int f_t / lam^2`` inside its granular span.  An MSE-optimal
design uses ``lam ~ f_d^{1/3}``; evaluating that density against a different
law ``f_t`` and normalizing the same integral by the best achievable
constant gives a dimensionless penalty factor that equals 1 only when the
laws agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .distributions import Distribution
from .errors import DivergentIntegral
from .mismatch import expected_distortion, generative_codebook
from .quantizer import Codebook, Partition, Quantizer, lloyd_max_design

__all__ = [
    "HighRateReport",
    "OverloadSplit",
    "bennett_granular",
    "fit_decay_slope",
    "mismatch_penalty_factor",
    "overload_split",
    "panter_dite",
    "rate_recovery_sweep",
]

_QUAD_LIMIT = 10_000
_QUAD_EPSABS = 1e-10


@dataclass(frozen=True)
class OverloadSplit:
    """Outer-bin distortion split into spread and offset components.

    ``variance_part`` is what any codeword placement must pay (conditional
    variance of the tails); ``bias_part`` is the extra from codewords that
    sit away from the tail conditional means.  A conditional-mean codebook
    zeroes the bias exactly.
    """

    variance_part: float
    bias_part: float

    @property
    def total(self) -> float:
        return self.variance_part + self.bias_part


@dataclass(frozen=True)
class HighRateReport:
    """One row of a rate sweep, exact totals next to model terms."""

    bits: int
    d_granular: float
    d_overload_fix: float
    d_overload_gen: float
    d_total_fix: float
    d_total_gen: float
    d_ideal_pd: float
    penalty_factor: float


def _quad(fn, lo: float, hi: float, *, breakpoints=()) -> float:
    """Adaptive quadrature that refuses to return a dubious value."""
    pieces = [lo, *[b for b in breakpoints if lo < b < hi], hi]
    total = 0.0
    for a, b in zip(pieces, pieces[1:]):
        val, abserr, *rest = integrate.quad(
            fn, a, b, epsabs=_QUAD_EPSABS, epsrel=1e-10,
            limit=_QUAD_LIMIT, full_output=1,
        )
        if len(rest) > 1:  # QUADPACK attached an explanation: did not converge
            raise DivergentIntegral(
                f"quadrature on [{a}, {b}] failed: {rest[1].strip().splitlines()[0]}"
            )
        if not math.isfinite(val):
            raise DivergentIntegral(f"quadrature on [{a}, {b}] returned {val}")
        total += val
    return total


def _breakpoints(*dists: Distribution) -> list[float]:
    return sorted(x for d in dists for x in d.centers())


def _cube_root_mass(d: Distribution) -> float:
    """``int f^{1/3}`` over the whole line."""
    return _quad(lambda x: d.pdf(x) ** (1.0 / 3.0), -np.inf, np.inf,
                 breakpoints=_breakpoints(d))


def panter_dite(true_d: Distribution, n_levels: int) -> float:
    """High-rate distortion floor of the best N-level quantizer for ``true_d``.

    This is ``(1/(12 N^2)) * (int f^{1/3})^3``; for a Gaussian it reduces to
    ``sqrt(3) pi sigma^2 / (2 N^2)``.
    """
    _check_levels(n_levels)
    c = _cube_root_mass(true_d)
    return c**3 / (12.0 * n_levels**2)


def _check_levels(n_levels: int) -> None:
    if not isinstance(n_levels, int) or n_levels < 2 or n_levels & (n_levels - 1):
        raise ValueError(f"n_levels must be a power of two >= 2, got {n_levels!r}")


def bennett_granular(
    design_d: Distribution,
    true_d: Distribution,
    n_levels: int,
    *,
    quantizer: Quantizer | None = None,
) -> float:
    """Granular distortion of the design-law point density under ``true_d``.

    The granular span is taken as the interval between the first and last
    thresholds of the actual Lloyd-Max design (pass ``quantizer`` to reuse
    one already built); the design point density ``~ f_d^{1/3}`` is
    normalized on that span.
    """
    _check_levels(n_levels)
    if quantizer is None:
        quantizer = lloyd_max_design(design_d, n_levels.bit_length() - 1)
    bnd = quantizer.partition.boundaries
    lo, hi = bnd[0], bnd[-1]
    if not lo < hi:  # 1-bit design: no interior span
        return 0.0
    brk = [b for b in _breakpoints(design_d, true_d) if lo < b < hi]
    c = _quad(lambda x: design_d.pdf(x) ** (1.0 / 3.0), lo, hi, breakpoints=brk)
    ratio = _quad(
        lambda x: true_d.pdf(x) / design_d.pdf(x) ** (2.0 / 3.0),
        lo, hi, breakpoints=brk,
    )
    return c * c * ratio / (12.0 * n_levels**2)


def overload_split(p: Partition, c: Codebook, true_d: Distribution) -> OverloadSplit:
    """Variance/bias split of the two outer (overload) bins under ``true_d``."""
    if len(c) != p.n_bins:
        raise ValueError(f"codebook size {len(c)} does not match {p.n_bins} bins")
    mass, m1, m2 = true_d.edge_stats(p.edges())
    a = c.as_array()
    variance = 0.0
    bias = 0.0
    for i in (0, p.n_bins - 1):
        if mass[i] <= 0.0:
            continue
        mean_i = m1[i] / mass[i]
        var_i = m2[i] / mass[i] - mean_i * mean_i
        variance += mass[i] * max(var_i, 0.0)
        bias += mass[i] * (mean_i - a[i]) ** 2
    return OverloadSplit(variance_part=variance, bias_part=bias)


def mismatch_penalty_factor(design_d: Distribution, true_d: Distribution) -> float:
    """Asymptotic ratio of mismatched to matched granular distortion.

    With the design point density ``lam ~ f_d^{1/3}`` normalized over the
    whole line, this is ``int f_t / lam^2`` divided by ``(int f_t^{1/3})^3``.
    It is 1 exactly when the laws agree and greater otherwise; when the true
    tails are too heavy for the design density the integral diverges and
    ``DivergentIntegral`` is raised.
    """
    brk = _breakpoints(design_d, true_d)
    center = 0.5 * (brk[0] + brk[-1])
    span = max(design_d.std, true_d.std, (brk[-1] - brk[0]) / 2.0, 1.0)

    # The ratio f_t / f_d^{2/3} must be formed in log space: both densities
    # underflow far out in the tails while their log-combination is a
    # perfectly ordinary number there.
    def log_integrand(x):
        lfd = design_d.log_pdf(x)
        lft = true_d.log_pdf(x)
        if math.isinf(lfd) and lfd < 0.0:
            if math.isinf(lft) and lft < 0.0:
                return -math.inf
            raise DivergentIntegral(f"design density vanishes at x={x}")
        return lft - (2.0 / 3.0) * lfd

    def integrand(x):
        return math.exp(min(log_integrand(x), 700.0))

    # A divergent integrand over an infinite range can fool the adaptive
    # rule into a finite answer; probe the far tails for growth first.
    probes = [center + s * k * span for s in (-1.0, 1.0) for k in (12.0, 18.0, 24.0)]
    for s in (-1.0, 1.0):
        vals = [log_integrand(center + s * k * span) for k in (12.0, 18.0, 24.0)]
        if vals[2] == -math.inf:
            continue
        if vals[1] >= vals[0] or vals[2] >= vals[1]:
            raise DivergentIntegral(
                "true-law tail is too heavy for the design point density "
                f"(integrand not decaying near x={probes})"
            )
    c_design = _cube_root_mass(design_d)
    numerator = c_design * c_design * _quad(
        integrand, -np.inf, np.inf, breakpoints=brk
    )
    return numerator / _cube_root_mass(true_d) ** 3


def fit_decay_slope(bits_seq, values, n_points: int = 4) -> float:
    """Least-squares slope of ``log2(values)`` against bits, last ``n_points``."""
    bits_arr = np.asarray(list(bits_seq), dtype=float)[-n_points:]
    vals = np.asarray(list(values), dtype=float)[-n_points:]
    if len(bits_arr) < 2 or len(bits_arr) != len(vals):
        raise ValueError("need at least two aligned (bits, value) pairs")
    if np.any(vals <= 0.0):
        raise ValueError("values must be positive to fit a log slope")
    return float(np.polyfit(bits_arr, np.log2(vals), 1)[0])


def rate_recovery_sweep(
    design_d: Distribution,
    true_d: Distribution,
    bits_list,
    *,
    max_iters: int = 500,
    tol: float = 1e-10,
    init: str = "quantile",
) -> list[HighRateReport]:
    """Exact and model distortion terms across bit depths.

    ``penalty_factor`` is reported operationally as ``d_total_gen`` over the
    matched high-rate floor at the same rate; when the asymptotic penalty
    integral converges this ratio approaches it from above as bits grow.

    At high bit depths the design step dominates the cost.  Both starts
    converge in 12-21 Newton iterations at 8-12 bits, and the default
    quantile start is the cheaper one for Gaussian and Laplace laws; for a
    mixture each quantile is a root solve, so pass ``init="cube_root"``
    there (about ten times faster at 12 bits).
    """
    reports = []
    for bits in bits_list:
        q = lloyd_max_design(design_d, bits, max_iters=max_iters, tol=tol, init=init)
        p = q.partition
        gen = generative_codebook(p, true_d, fallback=q.design_codebook)
        d_fix = expected_distortion(p, q.design_codebook, true_d)
        d_gen = expected_distortion(p, gen, true_d)
        granular = bennett_granular(design_d, true_d, p.n_bins, quantizer=q)
        over_fix = overload_split(p, q.design_codebook, true_d)
        over_gen = overload_split(p, gen, true_d)
        pd_floor = panter_dite(true_d, p.n_bins)
        reports.append(
            HighRateReport(
                bits=bits,
                d_granular=granular,
                d_overload_fix=over_fix.total,
                d_overload_gen=over_gen.total,
                d_total_fix=d_fix,
                d_total_gen=d_gen,
                d_ideal_pd=pd_floor,
                penalty_factor=d_gen / pd_floor,
            )
        )
    return reports

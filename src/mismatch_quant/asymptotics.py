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

from .distributions import ZERO_MASS_TOL, Distribution
from .errors import DivergentIntegral
from .mismatch import _exact_terms
from .quantizer import Codebook, Partition, Quantizer, _bin_arrays, _moment_table, lloyd_max_design

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
_QUAD_EPSREL = 1e-10
_QUAD_START_PANELS = 4


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


# The Gauss-Kronrod (7, 15) pair of QUADPACK's qk15 (Piessens et al.,
# 1983) on [-1, 1]: the 15 Kronrod nodes, their weights, and the weights of
# the 7-point Gauss rule on every second node (zero elsewhere).
_GK_X = np.array([
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
])
_GK_X = np.concatenate((-_GK_X, [0.0], _GK_X[::-1]))
_GK_WK = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
])
_GK_WK = np.concatenate((_GK_WK, [0.209482141084727828012999174891714], _GK_WK[::-1]))
_GK_WG = np.array([
    0.0, 0.129484966168869693270611432679082, 0.0, 0.279705391489276667901467771423780,
    0.0, 0.381830050505118944950369775488975, 0.0,
])
_GK_WG = np.concatenate((_GK_WG, [0.417959183673469387755102040816327], _GK_WG[::-1]))
_GK_W = np.stack((_GK_WK, _GK_WG), axis=1)


def _gk15(fn, panels):
    """Kronrod values and qk15 error estimates of ``panels``, all from one
    call of ``fn``.  The estimates leave out qk15's round-off floor
    ``50 eps int |f|``, far below the tolerance for the non-negative
    integrands of this module.

    Each row of ``panels`` is ``(a, b, side, anchor)``.  A row with
    ``side == 0`` is the interval ``[a, b]`` of the real line; any other
    row is ``[a, b]`` in ``t`` in ``(0, 1]``, mapped to a half-line by
    ``x = anchor + side (1 - t) / t`` with Jacobian ``1 / t^2``, as in qagi.
    """
    a, b, side, anchor = panels.T
    half = 0.5 * (b - a)
    t = (a + half)[:, None] + half[:, None] * _GK_X
    tail = (side != 0.0)[:, None]
    u = np.where(tail, t, 1.0)
    x = np.where(tail, anchor[:, None] + side[:, None] * ((1.0 - u) / u), t)
    f = np.asarray(fn(x), dtype=float) / (u * u)
    if not np.all(np.isfinite(f)):
        raise DivergentIntegral("integrand is not finite on the integration range")
    res_k, res_g = (f @ _GK_W).T
    err = np.abs((res_k - res_g) * half)
    # qk15 scales |K - G| by the spread of f about its mean on the panel.
    res_asc = np.abs(f - 0.5 * res_k[:, None]) @ _GK_W[:, 0] * half
    ratio = np.divide(200.0 * err, res_asc, out=np.zeros_like(err), where=res_asc > 0.0)
    err = np.where((res_asc > 0.0) & (err > 0.0), res_asc * np.minimum(1.0, ratio) ** 1.5, err)
    return res_k * half, err


def _quad(fn, lo: float, hi: float, *, breakpoints=()) -> float:
    """Adaptive Gauss-Kronrod (7, 15) quadrature of the array function ``fn``.

    ``breakpoints`` cut ``[lo, hi]`` into pieces, an infinite piece is
    mapped onto ``t`` in ``(0, 1]``, and each piece starts as
    ``_QUAD_START_PANELS`` equal panels.  Each round evaluates every new
    panel in one call of ``fn``, then bisects every panel whose error
    estimate exceeds an equal share of half the tolerance
    ``max(_QUAD_EPSABS, _QUAD_EPSREL |value|)``, until the estimates sum to
    at most the tolerance.  ``DivergentIntegral`` is raised for a
    non-finite integrand or value, and when more than ``_QUAD_LIMIT``
    panels would be needed.
    """
    cuts = [lo, *[b for b in breakpoints if lo < b < hi], hi]
    if len(cuts) == 2 and math.isinf(lo) and math.isinf(hi):
        cuts = [lo, 0.0, hi]
    pieces = []  # (a, b, side, anchor), as in _gk15
    for a, b in zip(cuts, cuts[1:]):
        if math.isinf(a):
            pieces.append((0.0, 1.0, -1.0, b))
        elif math.isinf(b):
            pieces.append((0.0, 1.0, 1.0, a))
        elif a < b:
            pieces.append((a, b, 0.0, 0.0))
    if not pieces:
        return 0.0
    a, b, side, anchor = np.array(pieces).T
    ends = a[:, None] + (b - a)[:, None] * (np.arange(_QUAD_START_PANELS + 1) / _QUAD_START_PANELS)
    ends[:, -1] = b  # a + (b - a) may round away from b
    panels = np.column_stack((
        ends[:, :-1].ravel(), ends[:, 1:].ravel(),
        np.repeat(side, _QUAD_START_PANELS), np.repeat(anchor, _QUAD_START_PANELS),
    ))
    val, err = _gk15(fn, panels)
    while True:
        total = math.fsum(val)
        if not math.isfinite(total):
            raise DivergentIntegral(f"quadrature on [{lo}, {hi}] returned {total}")
        tol = max(_QUAD_EPSABS, _QUAD_EPSREL * abs(total))
        if math.fsum(err) <= tol:
            return total
        split = err > 0.5 * tol / len(err)
        if len(err) + np.count_nonzero(split) > _QUAD_LIMIT:
            raise DivergentIntegral(
                f"quadrature on [{lo}, {hi}] did not converge within {_QUAD_LIMIT} panels"
            )
        left, right = panels[split], panels[split]
        left[:, 1] = right[:, 0] = 0.5 * (left[:, 0] + left[:, 1])
        new = np.concatenate((left, right))
        new_val, new_err = _gk15(fn, new)
        panels = np.concatenate((panels[~split], new))
        val = np.concatenate((val[~split], new_val))
        err = np.concatenate((err[~split], new_err))


def _breakpoints(*dists: Distribution) -> list[float]:
    return sorted(x for d in dists for x in d.centers())


def _frame(*dists: Distribution) -> tuple[float, float]:
    """``(center, span)`` of the laws together: the midpoint of their
    centres, and the largest of their standard deviations and half the
    spread of their centres.  Integrals in ``u = (x - center) / span`` have
    the same probes, panels and tolerance at every scale of the laws."""
    brk = _breakpoints(*dists)
    return 0.5 * (brk[0] + brk[-1]), max(*(d.std for d in dists), (brk[-1] - brk[0]) / 2.0)


def _cube_root_mass(d: Distribution, lo: float = -np.inf, hi: float = np.inf,
                    breakpoints=None) -> float:
    """``int_lo^hi f^{1/3}``, by default over the whole line.

    With ``g = d.cube_root_law()``, ``f^{1/3} = K g`` where the normaliser
    ``K = f(m)^{1/3} / g(m)`` may be read off at any point ``m``; the mean
    is taken.  That gives ``(2 pi)^{1/3} sqrt(3) sigma^{2/3}`` for a
    Gaussian and ``6 b (2 b)^{-1/3}`` for a Laplace law, and the integral
    is ``K`` times the ``g``-mass of ``[lo, hi)``.  Mixtures have no
    cube-root law and are integrated numerically, split at
    ``breakpoints`` (by default the centres of ``d``), in ``u = (x -
    center) / span`` of ``d``'s own ``_frame``: ``span^{2/3}`` times the
    integral of the cube root of ``u``'s density ``span f(center + span u)``,
    which is the same at every scale of ``d``.
    """
    g = d.cube_root_law()
    if g is None:
        center, span = _frame(d)
        brk = _breakpoints(d) if breakpoints is None else breakpoints
        mass = _quad(lambda u: np.cbrt(span * d.pdf(center + span * u)),
                     (lo - center) / span, (hi - center) / span,
                     breakpoints=[(b - center) / span for b in brk])
        return span ** (2.0 / 3.0) * mass
    m = d.mean
    (mass,) = g.edge_stats(np.array([lo, hi]), order=0)
    return math.exp(d.log_pdf(m) / 3.0 - g.log_pdf(m)) * float(mass[0])


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
    elif quantizer.partition.n_bins != n_levels:
        raise ValueError(
            f"quantizer has {quantizer.partition.n_bins} bins, not n_levels={n_levels}"
        )
    lo, hi = quantizer.partition.as_array()[[0, -1]].tolist()
    if not lo < hi:  # 1-bit design: no interior span
        return 0.0
    brk = _breakpoints(design_d, true_d)
    c = _cube_root_mass(design_d, lo, hi, breakpoints=brk)
    ratio = _quad(
        lambda x: true_d.pdf(x) / design_d.pdf(x) ** (2.0 / 3.0),
        lo, hi, breakpoints=brk,
    )
    return c * c * ratio / (12.0 * n_levels**2)


def overload_split(p: Partition, c: Codebook, true_d: Distribution) -> OverloadSplit:
    """Variance/bias split of the two outer (overload) bins under ``true_d``."""
    [a] = _bin_arrays(p, c)
    mass, m1, m2 = _moment_table(true_d, p)
    variance = bias = 0.0
    for i in (0, len(mass) - 1):
        if mass[i] < ZERO_MASS_TOL:
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
    ``DivergentIntegral`` is raised.  No experiment calls this: it stays as
    the high-rate limit that ``rate_recovery_sweep``'s ``penalty_factor``
    column converges to, the reference the tests hold that column to, and
    the only mixture caller of ``GaussianMixture.log_pdf``.
    """
    brk = _breakpoints(design_d, true_d)
    center, span = _frame(design_d, true_d)
    log_span = math.log(span)

    # Integrated in u = (x - center) / span, so probes, panels and tolerance
    # are the same at every scale.  The ratio f_t / f_d^{2/3} must be formed
    # in log space: both densities underflow far out in the tails while their
    # log-combination is a perfectly ordinary number there.
    def log_integrand(u):
        x = center + span * u
        lfd = design_d.log_pdf(x) + log_span
        lft = true_d.log_pdf(x) + log_span
        vanish = lfd == -np.inf
        bad = vanish & (lft > -np.inf)
        if bad.any():
            raise DivergentIntegral(f"design density vanishes at x={x[bad][0]}")
        return np.where(vanish, -np.inf, lft - (2.0 / 3.0) * np.where(vanish, 0.0, lfd))

    def integrand(u):
        return np.exp(np.minimum(log_integrand(u), 700.0))

    # A divergent integrand over an infinite range can fool the adaptive
    # rule into a finite answer; probe the far tails for growth first.
    probes = np.array([[-12.0, -18.0, -24.0], [12.0, 18.0, 24.0]])
    for vals in log_integrand(probes):
        if vals[2] == -np.inf:
            continue
        if vals[1] >= vals[0] or vals[2] >= vals[1]:
            raise DivergentIntegral(
                "true-law tail is too heavy for the design point density "
                f"(integrand not decaying near x={(center + span * probes).ravel().tolist()})"
            )
    unit = span ** (2.0 / 3.0)  # int f^{1/3} dx / unit is the same integral in u
    c_design = _cube_root_mass(design_d) / unit
    ratio = _quad(integrand, -np.inf, np.inf, breakpoints=[(b - center) / span for b in brk])
    return c_design * c_design * ratio / (_cube_root_mass(true_d) / unit) ** 3


def fit_decay_slope(bits_seq, values, n_points: int = 4) -> float:
    """Least-squares slope of ``log2(values)`` against bits, last ``n_points``."""
    if n_points < 2:
        raise ValueError(f"n_points must be at least 2, got {n_points}")
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
    init: str = "quantile",
) -> list[HighRateReport]:
    """Exact and model distortion terms across bit depths.

    ``penalty_factor`` is reported operationally as ``d_total_gen`` over the
    matched high-rate floor at the same rate; when the asymptotic penalty
    integral converges this ratio approaches it from above as bits grow.

    At high bit depths the design step dominates the cost.  At 8-12 bits a
    mixture design converges in 13-18 Newton iterations from either start;
    a Gaussian or Laplace design, solved on one half-line with its centre
    threshold pinned and its Newton steps undamped, takes 6-8 from the
    quantile start and 5-6 from the cube-root start.  The cube-root start is
    closed-form for Gaussian and Laplace laws and a ``64 N + 1``-point grid
    for mixtures.
    """
    reports = []
    for bits in bits_list:
        q = lloyd_max_design(design_d, bits, max_iters=max_iters, init=init)
        p = q.partition
        # Every exact term of the row reads one memoised moment table.
        _, _, d_fix, d_gen, _ = _exact_terms(q, true_d)
        granular = bennett_granular(design_d, true_d, p.n_bins, quantizer=q)
        # The generative split is all variance: its outer codewords are the tail means.
        over_fix = overload_split(p, q.design_codebook, true_d)
        pd_floor = panter_dite(true_d, p.n_bins)
        reports.append(
            HighRateReport(
                bits=bits,
                d_granular=granular,
                d_overload_fix=over_fix.total,
                d_overload_gen=over_fix.variance_part,
                d_total_fix=d_fix,
                d_total_gen=d_gen,
                d_ideal_pd=pd_floor,
                penalty_factor=d_gen / pd_floor,
            )
        )
    return reports

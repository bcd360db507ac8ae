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
from dataclasses import dataclass, replace

import numpy as np

from .distributions import (
    Distribution, Gaussian, _conditional_means, _gaussian_blocks, _table_distortion, _table_terms,
    inverse_mills)
from .quantizer import (
    _BLOCK_BYTES, Codebook, Partition, Quantizer, _bin_arrays, _moment_table, _standard_designs,
    _standard_member, _check_bits, _integer, lloyd_max_design)

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
    "reports",
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
    table = _moment_table(d, p)
    offset = a - table[0]
    return _table_distortion(table, offset, offset * offset)


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
    standard member (``scale = 1``) it is bit for bit the expanded sum
    ``expected_distortion`` forms for the returned quantizer.  Any other
    law gets bit for bit what its mapped design reports, even where that
    design would raise ``DegenerateDesign`` because its thresholds coincide
    in floating point.
    """
    law, _, scale = _standard_member(true_d)
    return scale * scale * lloyd_max_design(law, bits, **lloyd_kwargs).distortion_history[-1]


def _score(x: np.ndarray, idx: np.ndarray, tables) -> list:
    """``(np.mean, np.std(ddof=1) / sqrt(n))`` of the squared errors
    ``(x - a[idx])**2`` of each array ``a`` of ``tables`` on the draw ``x``,
    bit for bit.  ``x`` and the index ``idx`` (any unsigned type, every
    entry below ``len(a)``) are only read.  One error array serves every
    table: its entries are gathered, subtracted and squared a block at a
    time, the mean is formed over the whole array, then the errors are
    centred and squared a block at a time and summed over the whole array,
    so the sums are numpy's own pairwise ones."""
    n = x.size
    err = np.empty(n)
    step = _BLOCK_BYTES // np.dtype(np.intp).itemsize  # take copies a block of idx to intp
    blocks = [slice(i, i + step) for i in range(0, n, step)]
    out = []
    for a in tables:
        for b in blocks:
            e = err[b]
            # No index is out of range (NaN is encoded into the last bin), so
            # "clip" never clips; it only spares the checked, buffered mode.
            np.take(a, idx[b], out=e, mode="clip")
            np.square(np.subtract(x[b], e, out=e), out=e)
        mean = np.mean(err)
        for b in blocks:
            e = err[b]
            np.square(np.subtract(e, mean, out=e), out=e)
        se = np.sqrt(np.sum(err) / (n - 1)) / math.sqrt(n)
        out.append((float(mean), float(se)))
    return out


def monte_carlo_distortion(
    p: Partition, c: Codebook, d: Distribution, n_samples: int, seed: int
) -> tuple[float, float]:
    """Sampled MSE of the map and its standard error: ``n_samples`` draws
    from ``d`` with ``seed``, encoded once and scored by ``_score`` a block
    of draws at a time, bit for bit ``np.mean`` and
    ``np.std(ddof=1) / sqrt(n)`` of the squared errors."""
    if (n := _integer(n_samples)) is None or n < 2:
        raise ValueError(f"n_samples must be an integer of at least 2, got {n_samples!r}")
    [a] = _bin_arrays(p, c)
    x = d.sample(seed, n)
    return _score(x, p._narrow_index(x), [a])[0]


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
    ``monte_carlo_distortion`` calls with that seed, bit for bit.  This is
    the one-row call of ``reports``.
    """
    [rep] = reports(design_d, true_d, [bits], mc_samples=mc_samples, seed=seed,
                    max_iters=max_iters, init=init)
    return rep


def reports(
    design_d: Distribution,
    true_d: Distribution,
    bits_list,
    *,
    mc_samples: int = 0,
    seed: int | None = None,
    max_iters: int = 500,
    init: str = "quantile",
) -> tuple[DistortionReport, ...]:
    """``report(design_d, true_d, b, ...)`` for each ``b`` in ``bits_list``,
    bit for bit: the one-run call of ``_report_rows``.

    With ``mc_samples``, ``true_d.sample(seed, mc_samples)`` is drawn once,
    after every bit depth is designed, and each bit depth scores that same
    draw: common random numbers, which sharpen the rows' differences.
    """
    return _report_rows(design_d, [(true_d, tuple(bits_list), seed)],
                        mc_samples, max_iters, init)[0]


def _report_rows(design_d: Distribution, runs, mc_samples: int = 0,
                 max_iters: int = 500, init: str = "quantile") -> list:
    """``reports(design_d, true_d, bits_list, mc_samples=mc_samples,
    seed=seed, ...)`` of each run ``(true_d, bits_list, seed)`` of ``runs``.

    Every design the rows read, the design law's and the standard member of
    each true law at every bit depth, is designed first, in one flat
    ``_designs`` call (``_standard_designs``), and read back from the design
    memo by ``lloyd_max_design`` and ``ideal_distortion``, so a failing
    design raises where it is read, in row order (a call that needs more
    standard designs than the memo holds designs the evicted ones again as
    it reads them).  Each bit depth's true laws take their tables from
    ``_gaussian_blocks``, the Gaussian ones one kernel call a block, and
    ``d_ideal`` one standard design a family.  Then each run draws once; each
    row scores it with the conditional means of its exact terms, which are
    kept only when ``mc_samples`` is set."""
    if mc_samples:
        if any(seed is None for _, _, seed in runs):
            raise ValueError("a seed is required when mc_samples > 0")
        if (n := _integer(mc_samples)) is None or n < 2:
            raise ValueError(f"mc_samples must be 0 or an integer of at least 2, "
                             f"got {mc_samples!r}")
        mc_samples = n
    settings, exact, means = {"max_iters": max_iters, "init": init}, {}, {}
    depths = dict.fromkeys(_check_bits(bits) for _, bits_list, _ in runs for bits in bits_list)
    true_laws = {bits: list(dict.fromkeys(true_d for true_d, bits_list, _ in runs
                                          if bits in bits_list)) for bits in depths}
    _standard_designs([d for bits in depths for d in (design_d, *true_laws[bits])],
                      [bits for bits in depths for _ in range(1 + len(true_laws[bits]))],
                      max_iters, init)
    designs = {bits: lloyd_max_design(design_d, bits, **settings) for bits in depths}
    for bits, q in designs.items():
        p, fix = q.partition, q.design_codebook.as_array()
        laws = true_laws[bits]
        members = [_standard_member(d) for d in laws]
        stars = {law: ideal_distortion(law, bits, **settings)
                 for law in dict.fromkeys(standard for standard, _, _ in members)}
        for rows, table in _gaussian_blocks(laws, p.edges(), 2):
            terms = _table_terms(table, fix, [laws[i] for i in rows])
            for i, (substituted, d_fix, d_gen, excess, gen) in zip(rows, terms):
                if mc_samples:
                    means[laws[i], bits] = gen
                standard, _, scale = members[i]
                exact[laws[i], bits] = DistortionReport(
                    d_fix=d_fix, d_gen=d_gen, d_ideal=scale * scale * stars[standard],
                    excess=excess, relative_gain_pct=100.0 * excess / d_fix,
                    method="closed_form", substituted_bins=substituted)
    out = []
    for true_d, bits_list, seed in runs:
        cells = [exact[true_d, bits] for bits in bits_list]
        if mc_samples:
            x = true_d.sample(seed, mc_samples)
            x.flags.writeable = False  # every bit depth reads the same draw
            for j, bits in enumerate(bits_list):
                q = designs[bits]
                (fix_mc, se_fix), (gen_mc, se_gen) = _score(
                    x, q.partition._narrow_index(x),
                    (q.design_codebook.as_array(), means[true_d, bits]))
                cells[j] = replace(cells[j], mc_stderr=max(se_fix, se_gen),
                                   d_fix_mc=fix_mc, d_gen_mc=gen_mc)
            del x  # one draw is live at a time
        out.append(tuple(cells))
    return out


def _check_finite(low: float | None = None, **values) -> None:
    """ValueError naming the first of ``values`` that is not finite, or not
    above ``low`` if one is given."""
    for name, x in values.items():
        if not (math.isfinite(x) and (low is None or x > low)):
            above = "" if low is None else f" and above {low}"
            raise ValueError(f"{name} must be finite{above}, got {x!r}")


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
    _check_finite(mu0=mu0, mu1=mu1)
    _check_finite(0.0, sigma0=sigma0, sigma1=sigma1)
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

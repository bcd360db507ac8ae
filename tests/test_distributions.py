"""Tests for the source laws: closed-form interval moments against quadrature."""

import json
import math
import pickle
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, optimize

from scipy import special

from mismatch_quant import (
    Distribution,
    Gaussian,
    GaussianMixture,
    Laplace,
    MismatchQuantError,
    Partition,
    ZeroMassBin,
    from_config,
    generative_codebook,
    inverse_mills,
    lloyd_max_design,
)
from mismatch_quant import distributions
from mismatch_quant.distributions import (
    _MIXTURE_BLOCK, _anchored, _anchors, _component_grid, _mixture_design_stats,
    _mixture_quantiles, _ragged_blocks,
)
from mismatch_quant.quantizer import _start_law

SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def _erf_cdf(x):
    """Standard normal CDF through the library erf, as an independent check."""
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def _mass(d, lo, hi):
    """Mass of ``[lo, hi)`` under ``d`` from the moment kernel."""
    (mass,) = d.edge_stats([lo, hi], order=0)
    return float(mass[0])


def _conditional_moment(d, n, lo, hi):
    """``E[X^n | lo <= X < hi]`` under ``d`` from the kernel's moments ``J_j``
    about the bin's anchor ``e``: ``sum_j C(n, j) e^(n-j) J_j / J_0``."""
    e, *stats = (float(x[0]) for x in _anchored(d, [lo, hi], n))
    return sum(math.comb(n, j) * e ** (n - j) * stats[j] for j in range(n + 1)) / stats[0]


def _quad_conditional_moment(d, n, lo, hi):
    """Quadrature oracle for E[X^n | lo <= X < hi], clipping infinite ends."""
    span_lo = lo if math.isfinite(lo) else d.mean - 40.0 * d.std
    span_hi = hi if math.isfinite(hi) else d.mean + 40.0 * d.std
    mass, _ = integrate.quad(d.pdf, span_lo, span_hi, limit=300)
    num, _ = integrate.quad(lambda x: x**n * d.pdf(x), span_lo, span_hi, limit=300)
    return num / mass


class TestAbstractBase:
    def test_log_pdf_is_abstract(self):
        # Every law supplies its own log density; the base class has no body.
        assert "log_pdf" in Distribution.__abstractmethods__
        methods = {name: getattr(Gaussian, name)
                   for name in Distribution.__abstractmethods__ - {"log_pdf"}}
        with pytest.raises(TypeError, match="log_pdf"):
            type("NoLogPdf", (Distribution,), methods)()


class TestDensities:
    def test_standard_normal_mode(self):
        assert Gaussian(0, 1).pdf(0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi))

    def test_unit_variance_laplace_at_location(self):
        lap = Laplace(0.0, math.sqrt(0.5))
        assert lap.pdf(0.0) == pytest.approx(math.sqrt(2) / 2)

    def test_symmetric_mixture_at_midpoint(self):
        mix = GaussianMixture(((0.5, -1.0, 1.0), (0.5, 1.0, 1.0)))
        phi1 = math.exp(-0.5) / math.sqrt(2 * math.pi)
        assert mix.pdf(0.0) == pytest.approx(phi1, rel=1e-12)
        assert mix.pdf(0.0) == pytest.approx(0.24197, abs=5e-6)

    def test_log_pdf_matches_log_of_pdf(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-8, 8, size=200)
        for d in (Gaussian(0.3, 1.7), Laplace(-1.0, 0.8),
                  GaussianMixture(((0.4, -1.0, 0.5), (0.6, 2.0, 1.5)))):
            np.testing.assert_allclose(d.log_pdf(x), np.log(d.pdf(x)), atol=1e-12)

    def test_log_pdf_is_finite_where_pdf_underflows(self):
        # The direct density is flushed to zero far out; the log form is not.
        assert Gaussian(0, 1).pdf(60.0) == 0.0
        assert Gaussian(0, 1).log_pdf(60.0) == pytest.approx(-1800.9189385332046)

    def test_pdf_integrates_to_one(self):
        for d in (Gaussian(2.0, 3.0), Laplace(-1.0, 0.7),
                  GaussianMixture(((0.3, -2.0, 0.5), (0.7, 1.0, 2.0)))):
            lo = d.mean - 12.0 * d.std
            hi = d.mean + 12.0 * d.std
            total, err = integrate.quad(
                d.pdf, lo, hi, limit=400, epsabs=1e-12,
                points=[d.mean - d.std, d.mean, d.mean + d.std],
            )
            # A 12-sigma window leaves ~4e-8 of Laplace mass outside; the
            # bound accommodates the heaviest supported tail, not quadrature.
            assert total == pytest.approx(1.0, abs=1e-7)


class TestMass:
    def test_half_line_symmetry(self):
        assert _mass(Gaussian(0, 1), -math.inf, 0.0) == pytest.approx(0.5)

    def test_full_line_normalization(self):
        assert _mass(Gaussian(0, 1), -math.inf, math.inf) == pytest.approx(1.0)

    def test_shifted_gaussian_half_line(self):
        got = _mass(Gaussian(1.0, 2.0), 0.0, math.inf)
        assert got == pytest.approx(_erf_cdf(0.5), abs=1e-14)
        assert got == pytest.approx(0.6914624612740131, abs=1e-15)

    def test_partition_masses_sum_to_one(self):
        rng = np.random.default_rng(11)
        laws = [Gaussian(0.5, 1.2), Laplace(0.0, 1.0),
                GaussianMixture(((0.2, -3.0, 0.4), (0.8, 0.5, 1.1)))]
        for d in laws:
            cuts = np.sort(rng.uniform(-6, 6, size=7))
            edges = np.concatenate(([-np.inf], cuts, [np.inf]))
            total = sum(_mass(d, a, b) for a, b in zip(edges[:-1], edges[1:]))
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_far_tail_mass_does_not_cancel_to_zero(self):
        # Differences of the CDF would lose everything past ~8 sigma; the
        # survival-function branch keeps relative accuracy out much further.
        got = _mass(Gaussian(0, 1), 20.0, 21.0)
        oracle, _ = integrate.quad(Gaussian(0, 1).pdf, 20.0, 21.0)
        assert got == pytest.approx(oracle, rel=1e-10)
        assert got > 0

    def test_far_tail_laplace_mass_matches_closed_form(self):
        # 0.5 (e^(-20/b) - e^(-21/b)) with b = 1, formed without a difference.
        got = _mass(Laplace(0.0, 1.0), 20.0, 21.0)
        want = 0.5 * math.exp(-20.0) * -math.expm1(-1.0)
        assert got == pytest.approx(want, rel=1e-13)

    def test_far_tail_mixture_mass_is_weight_combined(self):
        mix = GaussianMixture(((0.3, -1.0, 0.5), (0.7, 1.5, 1.2)))
        want = sum(w * _mass(Gaussian(m, s), 20.0, 21.0)
                   for w, m, s in mix.components)
        got = _mass(mix, 20.0, 21.0)
        assert got == pytest.approx(want, rel=1e-12)
        assert got > 0


class TestTruncatedMoments:
    def test_half_gaussian_mean(self):
        got = _conditional_moment(Gaussian(0, 1), 1, 0.0, math.inf)
        assert got == pytest.approx(SQRT_2_OVER_PI, abs=1e-15)

    def test_full_support_second_moment(self):
        got = _conditional_moment(Gaussian(0, 1), 2, -math.inf, math.inf)
        assert got == pytest.approx(1.0, abs=1e-14)

    def test_symmetric_interval_mean_is_zero(self):
        got = _conditional_moment(Gaussian(0, 1), 1, -1.0, 1.0)
        assert got == pytest.approx(0.0, abs=1e-15)

    def test_zero_mass_bin_raises(self):
        # [60, 61) has exactly zero mass, so m1/m0 is undefined there; the
        # kernel reports the zero and the conditional-mean table refuses it.
        (mass,) = Gaussian(0, 1).edge_stats([60.0, 61.0], order=0)
        assert mass.tolist() == [0.0]
        with pytest.raises(ZeroMassBin):
            generative_codebook(Partition((60.0,)), Gaussian(0, 1))

    def test_agrees_with_quadrature_on_random_intervals(self):
        """100 random intervals per law against an adaptive quadrature oracle."""
        rng = np.random.default_rng(7)
        laws = [Gaussian(0.0, 1.0), Gaussian(-1.5, 2.5), Laplace(0.4, 0.9),
                GaussianMixture(((0.35, -2.0, 0.6), (0.65, 1.0, 1.4)))]
        for d in laws:
            for _ in range(25):
                a, b = np.sort(rng.uniform(d.mean - 5 * d.std, d.mean + 5 * d.std, 2))
                if b - a < 1e-3:
                    b = a + 1e-3
                for n in (1, 2):
                    got = _conditional_moment(d, n, a, b)
                    want = _quad_conditional_moment(d, n, a, b)
                    assert got == pytest.approx(want, rel=1e-7, abs=1e-9)

    def test_semi_infinite_intervals_against_quadrature(self):
        d = Laplace(-0.3, 1.1)
        for n in (1, 2):
            got = _conditional_moment(d, n, 0.7, math.inf)
            want = _quad_conditional_moment(d, n, 0.7, math.inf)
            assert got == pytest.approx(want, rel=1e-9)

    def test_law_of_total_expectation(self):
        rng = np.random.default_rng(23)
        for d in (Gaussian(0.8, 1.3), Laplace(0.0, 0.6),
                  GaussianMixture(((0.5, -1.0, 0.8), (0.5, 2.0, 0.5)))):
            cuts = np.sort(rng.uniform(d.mean - 4, d.mean + 4, size=5))
            edges = np.concatenate(([-np.inf], cuts, [np.inf]))
            acc = 0.0
            for a, b in zip(edges[:-1], edges[1:]):
                acc += _mass(d, a, b) * _conditional_moment(d, 1, a, b)
            assert acc == pytest.approx(d.mean, abs=1e-8)

    def test_mixture_moment_is_weight_combined(self):
        mix = GaussianMixture(((0.3, -1.0, 0.5), (0.7, 1.5, 1.2)))
        lo, hi = -0.5, 2.0
        num = 0.0
        den = 0.0
        for w, m, s in mix.components:
            comp = Gaussian(m, s)
            p = _mass(comp, lo, hi)
            num += w * p * _conditional_moment(comp, 1, lo, hi)
            den += w * p
        assert _conditional_moment(mix, 1, lo, hi) == pytest.approx(num / den, rel=1e-12)


class TestEdgeStatsOracle:
    """Moments of order 0..4 about each bin's anchor ``clip(mean, a, b)``
    against a 40-digit quadrature oracle about the same point.

    The error is measured against ``mass * R^k``, with ``R`` the largest
    distance of a finite bin edge from the law's mean, or the law's std: a
    narrow bin has moments about its anchor far below that scale, so a
    relative bound would only measure cancellation in the oracle's own
    subject.
    """

    LAWS = [Gaussian(0.7, 1.3), Laplace(-0.4, 0.8),
            GaussianMixture(((0.35, -1.2, 0.6), (0.65, 0.9, 1.1)))]
    FAR = [Gaussian(1e6, 1.3), Laplace(1e6, 0.8),
           GaussianMixture(((0.35, 1e6 - 1.2, 0.6), (0.65, 1e6 + 0.9, 1.1)))]

    @staticmethod
    def _check(d, a, b, tol, mp_raw_moment):
        got = d.edge_stats(np.array([a, b]), order=4)
        assert len(got) == 5
        e = float(_anchors(d.mean, np.array([a, b]))[0])
        mass = mp_raw_moment(d, a, b, 0)
        scale = max([d.std] + [abs(x - d.mean) for x in (a, b) if math.isfinite(x)])
        for k in range(5):
            want = mp_raw_moment(d, a, b, k, about=e)
            err = abs(float(got[k][0]) - want)
            assert err <= tol * float(mass) * scale**k, (d, a, b, k, float(err))

    @pytest.mark.parametrize("d", LAWS)
    def test_semi_infinite_bins(self, d, mp_raw_moment):
        self._check(d, -math.inf, d.mean - 1.5 * d.std, 1e-13, mp_raw_moment)
        self._check(d, d.mean + 0.5 * d.std, math.inf, 1e-13, mp_raw_moment)

    @pytest.mark.parametrize("d", LAWS)
    def test_narrow_bins_at_the_mean_and_four_sigma_out(self, d, mp_raw_moment):
        w = 1e-3
        for a in (d.mean, d.mean - 0.5 * w, d.mean + 4.0 * d.std, d.mean - 4.0 * d.std - w):
            self._check(d, a, a + w, 1e-11, mp_raw_moment)

    @pytest.mark.parametrize("d", FAR)
    def test_a_law_at_a_million_as_at_zero(self, d, mp_raw_moment):
        # About the anchors nothing is shifted by the location: moments about
        # the origin lost every digit of a narrow bin here.
        w = 1e-3
        self._check(d, -math.inf, d.mean - 1.5 * d.std, 1e-13, mp_raw_moment)
        self._check(d, d.mean + 0.5 * d.std, math.inf, 1e-13, mp_raw_moment)
        for a in (d.mean - 0.5 * w, d.mean + 4.0 * d.std, d.mean - 4.0 * d.std - w):
            self._check(d, a, a + w, 1e-11, mp_raw_moment)

    @pytest.mark.parametrize("y", [10.0, 20.0, 30.0])
    def test_laplace_far_right_tail_bins(self, y, mp_raw_moment):
        # Right-side bins were once differences of k! b^k - G_k(y): 3e-6
        # relative error at y = 20, and the y = 30 bin came out empty.  The
        # moments are about the anchor y, the edge nearest the mean.
        d = Laplace(0.0, 1.0)
        got = d.edge_stats(np.array([y, y + 1e-3]), order=4)
        for k in range(5):
            want = mp_raw_moment(d, y, y + 1e-3, k, about=y)
            assert abs(float(got[k][0]) - want) <= 1e-13 * abs(want), (y, k)
        if y == 30.0:
            assert got[0][0] == pytest.approx(4.6764728582905924e-17, rel=1e-13)

    def test_laplace_moments_mirror_exactly(self):
        d = Laplace(0.0, 0.8)
        e = np.array([-np.inf, -31.0, -4.2, -0.3, 0.0, 0.2, 1.7, 25.0, 25.001, np.inf])
        got = d.edge_stats(e, order=4)
        mirrored = d.edge_stats(-e[::-1], order=4)
        for k in range(5):
            np.testing.assert_allclose(got[k], (-1) ** k * mirrored[k][::-1],
                                       rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("d", LAWS)
    def test_lower_orders_are_prefixes(self, d):
        edges = np.array([-np.inf, -1.0, 0.2, 2.5, np.inf])
        full = d.edge_stats(edges, order=4)
        for order in range(4):
            part = d.edge_stats(edges, order=order)
            assert len(part) == order + 1
            for a, b in zip(part, full):
                assert np.array_equal(a, b)


def _random_mixture(rng, k):
    weights = rng.uniform(0.1, 1.0, k)
    weights /= weights.sum()
    return GaussianMixture(tuple(zip(
        weights.tolist(), rng.normal(0.0, 3.0, k).tolist(), rng.uniform(0.2, 2.0, k).tolist()
    )))


class TestMixtureBlocks:
    """The blocked mixture kernel against the per-component loop, bit for bit.

    Bin counts cover one and two bins, 16, 100 and 4096, and partitions
    whose component-by-edge count falls just below, at and just above the
    block budget, both for a block holding every component and for one
    component per block.  A single bin with eight or more components is a
    contiguous column, which numpy's own sum would take pairwise and change
    in the last bit.  50 components on 100 bins come in blocks of 40 and 10,
    so a second block of several rows must add onto the first block's
    totals row by row too (reducing each block, then adding, would change
    bits).  Edges run into both far tails, so some bins carry masses and
    moments that underflow to zero.
    """

    @staticmethod
    def _bin_counts(k):
        whole = _MIXTURE_BLOCK // k  # edges at which one block holds all k components
        counts = {1, 2, 16, 100, 4096}
        for n_edges in (whole - 1, whole, whole + 1,
                        _MIXTURE_BLOCK - 1, _MIXTURE_BLOCK, _MIXTURE_BLOCK + 1):
            counts.add(max(1, n_edges - 1))
        return sorted(counts)

    def test_the_grid_means_are_each_laws_mean(self):
        # One law alone, and laws of 1 to 50 components in one grid, most of
        # them padded; a symmetric law's mean is exactly 0.
        rng = np.random.default_rng(7000)
        laws = [_random_mixture(rng, k) for k in (3, 12, 1, 8, 50, 2, 7)]
        laws.append(GaussianMixture(((0.5, -1.5, 0.6), (0.5, 1.5, 0.6))))
        for batch in (laws[:1], laws):
            *_, means = _component_grid(batch)
            want = np.array([d.mean for d in batch])
            assert np.array_equal(means, want)
            assert np.array_equal(np.signbit(means), np.signbit(want))

    def test_fifty_components_on_a_hundred_bins_take_blocks_of_forty_and_ten(self):
        assert [hi - lo for lo, hi in _ragged_blocks([101] * 50)] == [40, 10]
        assert _ragged_blocks([]) == []

    @pytest.mark.parametrize("k", [1, 3, 8, 10, 17, 50])
    def test_bitwise_equal_to_the_component_loop(self, k, component_loop):
        rng = np.random.default_rng(1000 + k)
        mix = _random_mixture(rng, k)
        for n_bins in self._bin_counts(k):
            inner = np.unique(rng.normal(0.0, 15.0, n_bins - 1))
            while inner.size < n_bins - 1:
                inner = np.unique(np.append(inner, rng.normal(0.0, 15.0)))
            edges = np.concatenate(([-np.inf], inner, [np.inf]))
            for order in range(5):
                got = mix.edge_stats(edges, order)
                want = component_loop.edge_stats(mix, edges, order)
                assert len(got) == order + 1
                for g, w in zip(got, want):
                    assert g.shape == (n_bins,)
                    assert np.array_equal(g, w), (k, n_bins, order)
                    assert np.array_equal(np.signbit(g), np.signbit(w)), (k, n_bins, order)


    @pytest.mark.parametrize("n_bins", [2, 16, 512, 4096])
    def test_stacked_laws_bitwise_equal_their_own_sums(self, n_bins):
        # Laws of 1 to 50 components walked together (at 512 and 4096 bins in
        # several blocks of laws, and one law at a time), against each law's
        # own anchored table, pdf at the inner edges and ppf.  Every sum is folded
        # in component order, also from eight components on, where numpy's
        # own sum along a contiguous axis would go pairwise.
        rng = np.random.default_rng(3000 + n_bins)
        laws = [_random_mixture(rng, k) for k in (3, 12, 1, 8, 9, 50, 2, 7, 10, 8)]
        inner = np.sort(rng.normal(0.0, 15.0, (len(laws), n_bins - 1)), axis=1)
        assert np.all(np.diff(inner, axis=1) > 0.0)
        edges = np.concatenate((np.full((len(laws), 1), -np.inf), inner,
                                np.full((len(laws), 1), np.inf)), axis=1)
        sizes = np.full(len(laws), n_bins - 1)
        flat = _mixture_design_stats(_component_grid(laws), np.arange(len(laws)), inner.ravel(),
                                     sizes)
        stacked = [a.reshape(len(laws), -1) for a in flat]
        q = (np.arange(n_bins) + 0.5) / n_bins
        quantiles = _mixture_quantiles(laws, [q] * len(laws))
        for i, d in enumerate(laws):
            own = [*_anchored(d, edges[i]), d.pdf(inner[i]), d.ppf(q)]
            for g, w in zip([row[i] for row in stacked] + [quantiles[i]], own):
                assert g.shape == w.shape
                assert np.array_equal(g, w), (i, n_bins)
                assert np.array_equal(np.signbit(g), np.signbit(w)), (i, n_bins)

    @pytest.mark.parametrize("n_bins", [2, 16, 512, 4096])
    def test_a_column_gather_of_the_grid_keeps_each_laws_sums(self, n_bins):
        # A design round walks the runs still iterating, their laws' columns
        # of the batch's grid in any order and repeated (one law at several
        # bit depths), each run with its own bin count: n_bins, or a half,
        # a quarter or one bin, so runs of several sizes share a block, and
        # at 4096 bins a block holds one run.  Laws of 8 to 50 components,
        # against each law's own anchored table and pdf at the inner edges: at
        # two bins a reduction over that layout would sum the components
        # pairwise.
        rng = np.random.default_rng(5000 + n_bins)
        batch = [_random_mixture(rng, k) for k in (8, 12, 9, 50, 10, 8, 17, 11, 20, 14, 8, 30)]
        cols = [5, 0, 11, 3, 7, 2, 9, 4, 10, 5, 0]
        sizes = np.array([max(1, n_bins >> (i % 4)) - 1 if n_bins > 2 else 1
                          for i in range(len(cols))])
        inner = [np.sort(rng.normal(0.0, 15.0, n)) for n in sizes]
        assert all(np.all(np.diff(t) > 0.0) for t in inner)
        flat = _mixture_design_stats(_component_grid(batch), np.array(cols),
                                     np.concatenate(inner), sizes)
        bins = np.split(np.arange(len(flat[0])), np.cumsum(sizes + 1)[:-1])
        points = np.split(np.arange(len(flat[4])), np.cumsum(sizes)[:-1])
        for i, (col, t) in enumerate(zip(cols, inner)):
            d = batch[col]
            edges = np.concatenate(([-np.inf], t, [np.inf]))
            got = [part[bins[i]] for part in flat[:4]] + [flat[4][points[i]]]
            for g, w in zip(got, [*_anchored(d, edges), d.pdf(t)]):
                assert g.shape == w.shape
                assert np.array_equal(g, w), (i, n_bins)
                assert np.array_equal(np.signbit(g), np.signbit(w)), (i, n_bins)

    def test_stacked_quantiles_stay_in_one_laws_memory(self, traced_peak):
        # Four 10-component laws at 14 bits: 163,840 component-by-quantile
        # entries a law, so each law takes a block of its own.  One block of
        # all four peaked at 9.0 times one law's 7.5 MB under tracemalloc,
        # blocks of one law at 1.05 times.
        laws = [GaussianMixture(tuple((0.1, j - 4.5 + 0.1 * i, 0.5 + 0.05 * j)
                                      for j in range(10))) for i in range(4)]
        n = 1 << 14
        q = (np.arange(n) + 0.5) / n
        _, one = traced_peak(lambda: _mixture_quantiles(laws[:1], [q]))
        quantiles, peak = traced_peak(lambda: _mixture_quantiles(laws, [q] * len(laws)))
        assert peak <= 1.25 * one
        for d, row in zip(laws, quantiles):
            assert np.array_equal(row, d.ppf(q))


class TestMixturePointwise:
    """``GaussianMixture.pdf`` and ``cdf`` against a loop over the components,
    bit for bit, signed zeros and the float of a scalar included.  The
    shapes cover one block of every component (a single point, which numpy
    would sum pairwise, and up to 15 points), several blocks (127 points of
    50 components, and the (28, 15) grid of the quadrature panels from 10
    components on) and one component at a time (8193 points).  Points run past both tails and
    include the infinities, where the terms are exactly 0 and 1."""

    @pytest.mark.parametrize("k", [1, 3, 8, 10, 17, 50])
    @pytest.mark.parametrize("shape", [(), (1,), (3,), (15,), (127,), (28, 15), (8193,)])
    def test_bitwise_equal_to_the_component_loop(self, k, shape, component_loop):
        rng = np.random.default_rng(2000 + k)
        mix = _random_mixture(rng, k)
        x = rng.normal(0.0, 15.0, shape)
        if x.size >= 3:
            x.flat[:2] = -np.inf, np.inf
        points = float(x) if x.ndim == 0 else x
        for name in ("pdf", "cdf"):
            got = getattr(mix, name)(points)
            want = getattr(component_loop, name)(mix, points)
            assert type(got) is type(want), (name, k, shape)
            assert np.shape(got) == shape
            assert np.array_equal(got, want), (name, k, shape)
            assert np.array_equal(np.signbit(got), np.signbit(want)), (name, k, shape)

    @pytest.mark.parametrize("components", [
        ((0.2, -3.0, 0.5), (0.5, 0.0, 1.0), (0.3, 4.0, 2.0)),
        ((1.0, 1.5, 0.3),),
        tuple((0.1, 3.0 * j - 13.5, 0.4 + 0.1 * j) for j in range(10)),
    ])
    def test_log_pdf_against_forty_digits(self, components, mp_density):
        # Out to 1e150 the squares stay finite and every component's term
        # is far below the nearest one's; the log density is then -1e300.
        mp = pytest.importorskip("mpmath").mp
        mix = GaussianMixture(components)
        x = np.concatenate((np.linspace(-60.0, 60.0, 241),
                            [-1e150, -1e5, -1e3, -300.5, 1e3, 1e5, 1e150]))
        f = mp_density(mix)
        with mp.workdps(40):
            want = np.array([float(mp.log(f(mp.mpf(v)))) for v in x])
        got = mix.log_pdf(x)
        assert np.all(np.abs(got - want) <= 4 * np.finfo(float).eps * np.abs(want))
        assert mix.log_pdf(float(x[100])) == got[100]
        assert np.array_equal(mix.log_pdf([-np.inf, np.inf]), [-np.inf, -np.inf])

    def test_log_pdf_adds_components_in_place(self, traced_peak):
        # The total, the next component's term and one temporary: 3 n floats
        # at peak (23.5 n when the terms were stacked for a logsumexp).
        n = 262_145
        mix = GaussianMixture(((0.2, -3.0, 0.5), (0.5, 0.0, 1.0), (0.3, 4.0, 2.0)))
        x = np.linspace(-12.0, 12.0, n)
        out, peak = traced_peak(lambda: mix.log_pdf(x))
        assert out.shape == (n,)
        assert peak < 4 * 8 * n

    def test_columns_stay_out_of_equality_hash_and_pickles(self):
        mix = GaussianMixture(((0.25, -1.0, 0.5), (0.75, 2.0, 1.5)))
        fresh = pickle.dumps(mix)
        mix.pdf(0.5)  # builds the cached columns
        assert "_columns" in vars(mix)
        assert pickle.dumps(mix) == fresh
        twin = GaussianMixture(((0.25, -1.0, 0.5), (0.75, 2.0, 1.5)))
        assert mix == twin and hash(mix) == hash(twin)
        again = pickle.loads(fresh)
        assert again == mix and again.pdf(0.5) == mix.pdf(0.5)


class TestInverseMills:
    def test_zero_threshold(self):
        left, right = inverse_mills(0.0)
        assert left == pytest.approx(SQRT_2_OVER_PI, abs=1e-15)
        assert right == pytest.approx(SQRT_2_OVER_PI, abs=1e-15)

    def test_at_one_against_erf_oracle(self):
        phi = math.exp(-0.5) / math.sqrt(2 * math.pi)
        left, right = inverse_mills(1.0)
        assert left == pytest.approx(phi / _erf_cdf(1.0), rel=1e-13)
        assert right == pytest.approx(phi / (1.0 - _erf_cdf(1.0)), rel=1e-13)
        assert (round(left, 5), round(right, 5)) == (0.28760, 1.52514)

    def test_right_ratio_tracks_large_thresholds(self):
        # lambda_R(a)/a -> 1; the log-space form stays finite far beyond the
        # point where the density and tail mass both underflow.
        for a in (10.0, 40.0, 100.0, 300.0):
            _, right = inverse_mills(a)
            assert right / a == pytest.approx(1.0, rel=1e-2)
            assert math.isfinite(right)

    def test_left_ratio_mirrors_right(self):
        for a in (-3.0, -0.7, 0.4, 2.5):
            left, right = inverse_mills(a)
            mirror_right, mirror_left = inverse_mills(-a)[1], inverse_mills(-a)[0]
            assert left == pytest.approx(mirror_right, rel=1e-12)
            assert right == pytest.approx(mirror_left, rel=1e-12)

    def test_both_positive(self):
        rng = np.random.default_rng(5)
        for a in rng.uniform(-30, 30, size=100):
            left, right = inverse_mills(float(a))
            assert left > 0 and right > 0


    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
    def test_non_finite_threshold_rejected(self, alpha):
        with pytest.raises(ValueError, match="alpha must be finite"):
            inverse_mills(alpha)


class TestParameterChecks:
    @pytest.mark.parametrize("make, match", [
        (lambda: Gaussian(math.nan, 1.0), "Gaussian parameters must be finite"),
        (lambda: Gaussian(0.0, math.inf), "Gaussian parameters must be finite"),
        (lambda: Laplace(math.inf, 1.0), "Laplace parameters must be finite"),
        (lambda: Laplace(0.0, math.nan), "Laplace parameters must be finite"),
        (lambda: GaussianMixture(()), "at least one component"),
        (lambda: GaussianMixture(((0.0, 0.0, 1.0), (1.0, 1.0, 1.0))), "weight must be positive"),
        (lambda: GaussianMixture(((1.0, 0.0, -1.0),)), "std must be positive"),
        (lambda: GaussianMixture(((1.0, math.inf, 1.0),)), "parameters must be finite"),
        (lambda: GaussianMixture(((0.5, 0.0, 1.0), (0.6, 1.0, 1.0))), "weights must sum to 1"),
    ])
    def test_bad_parameters_rejected(self, make, match):
        with pytest.raises(ValueError, match=match):
            make()


class TestSampling:
    def test_deterministic_streams(self):
        d = Gaussian(1.0, 2.0)
        a = d.sample(123, 1000)
        b = d.sample(123, 1000)
        np.testing.assert_array_equal(a, b)

    def test_gaussian_sample_mean(self):
        x = Gaussian(0, 1).sample(42, 1_000_000)
        assert abs(np.mean(x)) < 4.0 / math.sqrt(len(x))

    def test_laplace_sample_variance(self):
        x = Laplace(0.0, math.sqrt(0.5)).sample(9, 1_000_000)
        assert np.var(x) == pytest.approx(1.0, rel=0.01)

    def test_laplace_sample_fits_the_cdf(self):
        # Kolmogorov-Smirnov distance of 10**6 draws, below its 1% critical
        # value 1.63 / sqrt(n).
        d = Laplace(0.7, 1.3)
        x = np.sort(d.sample(11, 1_000_000))
        n = x.size
        f = d.cdf(x)
        ks = max(np.max(np.arange(1, n + 1) / n - f), np.max(f - np.arange(n) / n))
        assert ks < 1.63 / math.sqrt(n)

    def test_laplace_sample_tail_frequency(self):
        # P(|X - loc| > 8 scale) = e**-8, within 4 binomial SE.
        d = Laplace(-2.5, 0.4)
        n = 1_000_000
        x = d.sample(12, n)
        p = math.exp(-8.0)
        freq = np.count_nonzero(np.abs(x - d.loc) > 8.0 * d.scale) / n
        assert abs(freq - p) < 4.0 * math.sqrt(p * (1.0 - p) / n)

    def test_laplace_streams_are_per_seed(self):
        d = Laplace(0.3, 1.7)
        a = d.sample(5, 10_000)
        assert np.array_equal(a, d.sample(5, 10_000))
        b = d.sample(6, 10_000)
        assert a.shape == b.shape == (10_000,) and not np.any(a == b)

    @pytest.mark.parametrize("loc, scale", [(0.0, math.sqrt(0.5)), (3.25, 0.01), (-1e6, 42.0)])
    def test_laplace_sample_is_the_standard_draw_shifted_and_scaled(self, loc, scale):
        for seed in (0, 7):
            want = loc + scale * Laplace(0.0, 1.0).sample(seed, 5_000)
            assert np.array_equal(Laplace(loc, scale).sample(seed, 5_000), want)

    def test_mixture_sampling_matches_moments(self):
        mix = GaussianMixture(((0.25, -2.0, 0.5), (0.75, 1.0, 1.0)))
        x = mix.sample(77, 1_000_000)
        se = mix.std / math.sqrt(len(x))
        assert abs(np.mean(x) - mix.mean) < 5 * se

    def test_conditional_sample_means_match_closed_form(self):
        """Per-bin empirical means against the analytic conditional means."""
        d = Gaussian(0.5, 1.5)
        x = d.sample(2024, 1_000_000)
        cuts = np.array([-1.0, 0.5, 2.0])
        edges = np.concatenate(([-np.inf], cuts, [np.inf]))
        idx = np.searchsorted(cuts, x, side="right")
        for i in range(4):
            sel = x[idx == i]
            want = _conditional_moment(d, 1, edges[i], edges[i + 1])
            se = np.std(sel, ddof=1) / math.sqrt(len(sel))
            assert abs(np.mean(sel) - want) < 5 * se


class TestMixtureMoments:
    @pytest.mark.parametrize("components", [
        ((0.5, 1e6, 1e-3), (0.5, 1e6 + 1e-3, 1e-3)),
        ((0.3, 1e8, 1.0), (0.7, 1e8 + 3.0, 2.0)),
        ((1.0, 1e9, 0.01),),
    ])
    def test_variance_of_a_law_far_from_zero_is_exact(self, components):
        # Exact in rationals from the stored doubles: sum w (s^2 + (m - mu)^2),
        # mu = sum w m.  The raw-moment difference sum w (m^2 + s^2) - mu^2
        # gave -1.22e-4, 4.0 and 0.0 here (true 1.25e-6, 4.99 and 1e-4).
        w, m, s = ([Fraction(x) for x in col] for col in zip(*components))
        mu = sum(wi * mi for wi, mi in zip(w, m))
        want = float(sum(wi * (si * si + (mi - mu) ** 2) for wi, mi, si in zip(w, m, s)))
        d = GaussianMixture(components)
        assert d.variance == pytest.approx(want, rel=1e-14, abs=0.0)
        assert d.std == pytest.approx(math.sqrt(want), rel=1e-14, abs=0.0)

    def test_spread_is_exact_at_every_scale(self):
        # Squared unscaled, these spreads underflowed: the first law's std
        # read 0.0, the second's 9.99994e-161.
        pair = GaussianMixture(((0.5, -1e-170, 1e-170), (0.5, 1e-170, 1e-170)))
        assert pair.std == pytest.approx(math.sqrt(2.0) * 1e-170, rel=1e-15, abs=0.0)
        assert GaussianMixture(((1.0, 0.0, 1e-160),)).std == 1e-160
        # Offsets far wider than the spreads square without overflow.
        wide = GaussianMixture(((0.5, -1e100, 1e-60), (0.5, 1e100, 1e-60)))
        assert wide.std == 1e100 and wide.variance == 1e200

    def test_spread_is_bit_for_bit_the_central_sum_in_range(self):
        rng = np.random.default_rng(3701)
        for _ in range(200):
            k = int(rng.integers(1, 6))
            w = rng.dirichlet(np.ones(k))
            w[-1] = 1.0 - float(np.sum(w[:-1]))
            m, s = rng.normal(0.0, 3.0, k), rng.uniform(0.05, 4.0, k)
            d = GaussianMixture(tuple(zip(w.tolist(), m.tolist(), s.tolist())))
            mu = d.mean
            want = sum(wi * (si * si + (mi - mu) * (mi - mu)) for wi, mi, si in d.components)
            assert (d.variance, d.std) == (want, math.sqrt(want))


class TestConfigRoundTrip:
    @pytest.mark.parametrize(
        "d",
        [
            Gaussian(0.5, 2.0),
            Laplace(-1.0, 0.9),
            GaussianMixture(((0.4, -1.0, 1.0), (0.6, 2.0, 0.5))),
        ],
    )
    def test_round_trip(self, d):
        clone = from_config(d.to_config())
        assert clone == d

    def test_unknown_kind_rejected(self):
        for kind in ("cauchy", "rician"):
            with pytest.raises(ValueError, match=f"unknown distribution kind: '{kind}'"):
                from_config({"kind": kind, "k_factor": 3.0})

    @pytest.mark.parametrize("record", [[1], "gaussian", None,
                                        {"kind": "mixture", "components": [[1.0, 0.0, 1.0]]}])
    def test_a_record_must_be_a_mapping(self, record):
        with pytest.raises(ValueError, match="must be a mapping"):
            from_config(record)

    @pytest.mark.parametrize("record", [{"kind": "mixture"},
                                        {"kind": "mixture", "components": []}])
    def test_a_mixture_needs_components(self, record):
        with pytest.raises(ValueError, match="non-empty 'components' list"):
            from_config(record)

    @pytest.mark.parametrize("record, key", [
        ({"kind": "gaussian", "sigma": 3}, "sigma"),
        ({"kind": "laplace", "loc": 0.0, "std": 1.0}, "std"),
        ({"kind": "mixture", "components": [{"weight": 1.0, "mean": 0.0, "std": 1.0}],
          "weights": [1.0]}, "weights"),
        ({"kind": "mixture", "components": [{"weight": 1.0, "mean": 0.0, "sigma": 1.0}]},
         "sigma"),
        ({"kind": "mixture", "components": [{"weight": 1.0, "mean": 0.0, "std": 1.0,
                                             "kind": "gaussian"}]}, "kind"),
    ])
    def test_an_unknown_key_is_rejected(self, record, key):
        with pytest.raises(ValueError, match=f"unknown key '{key}'"):
            from_config(record)

    @pytest.mark.parametrize("record, key", [
        ({"kind": "gaussian", "mean": True}, "mean"),
        ({"kind": "gaussian", "std": "2"}, "std"),
        ({"kind": "laplace", "scale": None}, "scale"),
        ({"kind": "laplace", "loc": [0.0]}, "loc"),
        ({"kind": "mixture", "components": [{"weight": 1.0, "mean": False, "std": 1.0}]},
         "mean"),
        ({"kind": "mixture", "components": [{"weight": "1", "mean": 0.0, "std": 1.0}]},
         "weight"),
        ({"kind": "mixture", "components": [{"weight": 1.0, "mean": 0.0}]}, "std"),
    ])
    def test_a_value_that_is_not_a_number_is_rejected(self, record, key):
        with pytest.raises(ValueError, match=f"'{key}' must be a number"):
            from_config(record)

    def test_missing_keys_take_their_defaults(self):
        assert from_config({"kind": "gaussian"}) == Gaussian()
        assert from_config({"kind": "laplace", "loc": 2}) == Laplace(2.0, math.sqrt(0.5))
        assert from_config({"kind": "gaussian", "mean": np.float32(0.5), "std": 2}) == (
            Gaussian(0.5, 2.0))

    def test_readme_law_examples_parse(self):
        """Every ``{"kind": ...}`` record in the README builds a law."""
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        decoder = json.JSONDecoder()
        starts = [m.start() for m in re.finditer(r'\{"kind"', text)]
        assert len(starts) >= 3
        for start in starts:
            record, _ = decoder.raw_decode(text, start)
            assert from_config(record).to_config()["kind"] == record["kind"]


class TestCdfPpf:
    def test_cdf_limits(self):
        for d in (Gaussian(0, 1), Laplace(0.0, 1.0),
                  GaussianMixture(((0.5, -1.0, 1.0), (0.5, 1.0, 1.0)))):
            assert d.cdf(-1e12) == pytest.approx(0.0, abs=1e-12)
            assert d.cdf(1e12) == pytest.approx(1.0, abs=1e-12)

    def test_ppf_inverts_cdf(self):
        rng = np.random.default_rng(8)
        q = rng.uniform(0.01, 0.99, size=50)
        for d in (Gaussian(1.0, 0.5), Laplace(-2.0, 1.3),
                  GaussianMixture(((0.3, 0.0, 1.0), (0.7, 3.0, 0.5)))):
            x = d.ppf(q)
            np.testing.assert_allclose(d.cdf(x), q, atol=1e-9)

    def test_cdf_monotone(self):
        d = GaussianMixture(((0.5, -2.0, 0.3), (0.5, 2.0, 0.3)))
        x = np.linspace(-6, 6, 500)
        assert np.all(np.diff(d.cdf(x)) >= 0)


class TestCubeRootLaw:
    @pytest.mark.parametrize("d", [Gaussian(0.4, 0.3), Gaussian(-2.0, 7.5),
                                   Laplace(1.2, 0.05), Laplace(-0.3, 4.0)])
    def test_density_is_the_cube_root_up_to_a_constant(self, d):
        g = d.cube_root_law()
        assert type(g) is type(d)
        x = d.mean + d.std * np.linspace(-10.0, 10.0, 601)
        gap = g.log_pdf(x) - d.log_pdf(x) / 3.0
        assert np.ptp(gap) < 1e-13

    def test_mixture_has_no_closed_form(self):
        assert GaussianMixture(((0.5, -1.0, 1.0), (0.5, 1.0, 0.5))).cube_root_law() is None


_MIXTURES = [
    GaussianMixture(((0.3, -1.5, 0.6), (0.4, 0.0, 0.8), (0.3, 1.5, 0.6))),
    GaussianMixture(((0.5, -2.0, 1.0), (0.5, 2.0, 1.0))),
    GaussianMixture(((0.2, -1.0, 0.5), (0.3, 1.0, 1.0), (0.5, 3.0, 0.7))),
    GaussianMixture(tuple((0.1, y - 4.5, 0.5) for y in range(10))),
]


def _probabilities():
    tail = np.logspace(-12, math.log10(0.5), 120)
    return np.unique(np.concatenate([tail, 1.0 - tail, np.linspace(0.01, 0.99, 99)]))


class TestMixturePpf:
    def test_shapes_are_kept(self):
        d = _MIXTURES[0]
        assert isinstance(d.ppf(0.3), float)
        assert d.ppf(np.array([[0.1, 0.2, 0.9]])).shape == (1, 3)
        assert d.ppf([0.25, 0.75]).shape == (2,)
        assert d.ppf(np.array(0.5)) == d.ppf(0.5)

    def test_single_component_is_the_gaussian_quantile(self):
        q = _probabilities()
        mix = GaussianMixture(((1.0, 0.7, 1.3),))
        np.testing.assert_array_equal(mix.ppf(q), Gaussian(0.7, 1.3).ppf(q))

    def test_ragged_quantile_grids_are_each_laws_own(self):
        # The (law, quantile) pairs of laws at several bit depths, in one
        # block and, past _MIXTURE_BLOCK pairs, in several.
        rng = np.random.default_rng(4100)
        laws = [_random_mixture(rng, k) for k in (3, 12, 1, 8, 50, 2)]
        for bits in ((1, 4, 2, 6, 3, 1), (9, 1, 10, 8, 2, 7)):
            qs = [(np.arange(1 << b) + 0.5) / (1 << b) for b in bits]
            for d, q, row in zip(laws, qs, _mixture_quantiles(laws, qs)):
                assert np.array_equal(row, d.ppf(q)), (len(d.components), q.size)

    def test_a_bracket_of_many_binades_is_bisected_in_the_exponent(self):
        # The second component's quantile is 1.15e150 to the left of the
        # first's, and the density between underflows, so each step
        # bisects; halving the bracket's width stopped at -9.07e119 (cdf
        # 5e-301) after the 100 steps of the cap.
        d = GaussianMixture(((1.0, 0.0, 1.0), (1e-300, 0.0, 1e150)))
        want = special.ndtri(0.125)
        assert abs(d.ppf(0.125) / want - 1.0) <= 1e-14
        start = _start_law(d, "quantile").ppf((np.arange(4) + 0.5) / 4)
        assert np.all(np.isfinite(start)) and np.all(np.diff(start) > 0.0)

    def test_an_unconverged_quantile_raises(self, monkeypatch):
        d = GaussianMixture(((1.0, 0.0, 1.0), (1e-300, 0.0, 1e150)))
        monkeypatch.setattr(distributions, "_PPF_MAX_ITERS", 5)
        with pytest.raises(MismatchQuantError, match="did not converge in 5 steps"):
            d.ppf(0.125)

    def test_a_root_between_two_doubles_keeps_its_last_iterate(self):
        # Newton's step on log F alternates between two neighbouring
        # doubles about this root (3e-15 apart, above the 1e-14 relative
        # stop at -0.139), so the iteration runs to the cap; the bracket is
        # those two doubles, and the last iterate is kept.
        d = GaussianMixture(((0.2438523035207304, -1.103240747366089, 0.731677554501531),
                             (0.1554349680266627, 2.6303710376017273, 1.208898928665041),
                             (0.14734410137054316, 2.969449144280046, 1.1089760925559375),
                             (0.28132309958441015, -1.1405552002364279, 0.2146118875875079),
                             (0.0810821611562886, -1.66407386516602, 0.9760233199520587),
                             (0.0909633663413649, -1.7729800396477022, 0.5373988039056026)))
        x = d.ppf(0.6875)
        assert x == pytest.approx(0.13884422932800639, rel=1e-15)
        assert d.cdf(x) == pytest.approx(0.6875, rel=1e-14)

    def test_bitwise_equal_to_the_component_loop(self, component_loop):
        # Laws of 8 to 50 components (the 10-class semantic_mixture marginal
        # among them), listed in no order of component count, on the
        # quantile grids of 1 to 6 bits.  Each quantile, alone and stacked,
        # adds the components in order, where numpy's own sum over 8 or more
        # would go pairwise.
        rng = np.random.default_rng(4000)
        ten_classes = GaussianMixture(tuple((0.1, y - 4.5, 0.5) for y in range(10)))
        laws = [_random_mixture(rng, 12), ten_classes, _random_mixture(rng, 50),
                _random_mixture(rng, 3), _random_mixture(rng, 8), _random_mixture(rng, 10),
                GaussianMixture(((1.0, 0.7, 1.3),))]
        for bits in range(1, 7):
            n = 1 << bits
            q = (np.arange(n) + 0.5) / n
            stacked = _mixture_quantiles(laws, [q] * len(laws))
            for d, row in zip(laws, stacked):
                want = component_loop.ppf(d, q)
                for got in (d.ppf(q), row):
                    assert np.array_equal(got, want), (len(d.components), bits)

    @pytest.mark.parametrize("d", _MIXTURES)
    def test_monotone(self, d):
        assert np.all(np.diff(d.ppf(_probabilities())) > 0.0)

    @pytest.mark.parametrize("d", _MIXTURES)
    def test_inverts_the_tail_probability_to_rounding(self, d):
        # Below the median F(ppf(q)) must return q; above it the survival
        # function, the distribution function of the mirrored mixture at
        # -x, must return 1 - q.  Rounding x itself moves F by about
        # eps |x| f(x), so that is allowed on top of a few ulps of q.
        q = _probabilities()
        x = d.ppf(q)
        mirrored = GaussianMixture(tuple((w, -m, s) for w, m, s in d.components))
        tail = np.where(q > 0.5, mirrored.cdf(-x), d.cdf(x))
        p = np.where(q > 0.5, 1.0 - q, q)
        eps = np.finfo(float).eps
        assert np.all(np.abs(tail - p) <= 4.0 * eps * (p + np.abs(x) * d.pdf(x)))

    @pytest.mark.parametrize("d", _MIXTURES)
    def test_matches_a_root_solve(self, d):
        q = np.linspace(0.001, 0.999, 37)
        lo = min(m - 14.0 * s for _, m, s in d.components)
        hi = max(m + 14.0 * s for _, m, s in d.components)
        ref = [optimize.brentq(lambda x, p=p: d.cdf(x) - p, lo, hi, xtol=1e-15)
               for p in q]
        np.testing.assert_allclose(d.ppf(q), ref, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("weight", [0.3, 0.1, 0.01])
    def test_components_far_apart_take_steps_within_the_bracket(self, weight):
        # Between components 10,000 standard deviations apart the density is
        # subnormal, and an unbounded Newton step overflowed (a RuntimeWarning,
        # an error under the suite's filter) before the bisection took over.
        d = GaussianMixture(((weight, -5000.0, 1.0), (1.0 - weight, 5000.0, 1.0)))
        for n in (8, 16, 32):
            q = (np.arange(n) + 0.5) / n
            x = d.ppf(q)
            assert np.all(np.diff(x) > 0.0)
            np.testing.assert_allclose(d.cdf(x), q, rtol=1e-12)
        assert lloyd_max_design(d, 3).converged

    def test_limits(self):
        d = _MIXTURES[0]
        out = d.ppf(np.array([0.0, 1.0, np.nan]))
        assert out[0] == -math.inf and out[1] == math.inf and math.isnan(out[2])

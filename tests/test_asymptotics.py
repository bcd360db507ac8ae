"""High-rate model tests.

Closed forms used as oracles:

    Gaussian floor    sqrt(3) pi sigma^2 / (2 N^2)
    Laplace floor     9 b^2 / N^2          (scale parameter b)
    Gaussian penalty  s0^3 / (s1^2 sqrt(3 s0^2 - 2 s1^2)),  s1 < s0 sqrt(3/2)

The penalty form follows from evaluating the companding integral for a
normal design density against a normal truth; it blows up as the truth's
scale approaches sqrt(3/2) times the design's and is undefined beyond.
"""

import math

import numpy as np
import pytest

from mismatch_quant import (
    DivergentIntegral,
    Gaussian,
    GaussianMixture,
    Laplace,
    bennett_granular,
    fit_decay_slope,
    generative_codebook,
    lloyd_max_design,
    mismatch_penalty_factor,
    overload_split,
    panter_dite,
    rate_recovery_sweep,
    report,
)
from mismatch_quant import asymptotics
from mismatch_quant.asymptotics import _cube_root_mass, _quad
from mismatch_quant.distributions import ZERO_MASS_TOL, _anchored

MIX_DESIGN = GaussianMixture(((0.3, -1.5, 0.6), (0.4, 0.0, 0.8), (0.3, 1.5, 0.6)))
MIX_TRUE = GaussianMixture(((0.25, -1.4, 0.7), (0.45, 0.1, 0.9), (0.3, 1.6, 0.65)))


def _gaussian_penalty(s0, s1):
    return s0**3 / (s1**2 * math.sqrt(3.0 * s0**2 - 2.0 * s1**2))


class TestPanterDite:
    def test_gaussian_closed_form(self):
        for sigma in (1.0, 2.5):
            for n in (4, 64, 1024):
                want = math.sqrt(3.0) * math.pi * sigma**2 / (2.0 * n**2)
                assert panter_dite(Gaussian(0, sigma), n) == pytest.approx(
                    want, rel=1e-9)

    def test_laplace_closed_form(self):
        b = 0.8
        assert panter_dite(Laplace(0.0, b), 256) == pytest.approx(
            9.0 * b * b / 256**2, rel=1e-9)

    def test_location_invariance(self):
        assert panter_dite(Gaussian(3.0, 1.0), 16) == pytest.approx(
            panter_dite(Gaussian(0, 1), 16), rel=1e-10)

    def test_quarters_per_level_doubling(self):
        d = GaussianMixture(((0.4, -1.0, 0.7), (0.6, 1.0, 1.2)))
        assert panter_dite(d, 64) == pytest.approx(panter_dite(d, 32) / 4.0,
                                                   rel=1e-10)

    def test_level_count_validation(self):
        for bad in (1, 3, 12, 8.0, -4, True, np.float64(8.0)):
            with pytest.raises(ValueError):
                panter_dite(Gaussian(0, 1), bad)
        g = Gaussian(0, 1)
        assert panter_dite(g, np.int64(8)) == panter_dite(g, 8)
        assert bennett_granular(g, Laplace(), np.int32(16)) == bennett_granular(g, Laplace(), 16)
        with pytest.raises(ValueError):
            bennett_granular(g, Laplace(), True)


class TestCubeRootMass:
    @pytest.mark.parametrize("spread", [0.1, 0.37, 1.0, 2.5, 10.0])
    @pytest.mark.parametrize("family", [Gaussian, Laplace])
    def test_closed_form_against_40_digit_quadrature(self, family, spread):
        mp = pytest.importorskip("mpmath").mp
        d = family(0.3, spread)
        with mp.workdps(40):
            a = mp.mpf(spread)
            if family is Gaussian:
                half = mp.quad(lambda y: mp.npdf(y, 0, a) ** (mp.mpf(1) / 3), [0, mp.inf])
            else:
                half = mp.quad(lambda y: (mp.exp(-y / a) / (2 * a)) ** (mp.mpf(1) / 3),
                               [0, mp.inf])
            want = 2 * half
        assert abs(_cube_root_mass(d) - want) / want < 1e-14

    def test_partial_span_is_the_normalised_cube_root_law_mass(self):
        d = Laplace(0.5, 0.8)
        g = d.cube_root_law()
        lo, hi = -1.0, 4.0
        assert _cube_root_mass(d, lo, hi) == pytest.approx(
            _cube_root_mass(d) * (g.cdf(hi) - g.cdf(lo)), rel=1e-14)

    @pytest.mark.parametrize("scale", [1e-160, 1e-5, 1.0, 1e5])
    def test_mixture_is_scale_invariant(self, scale):
        # The quadrature runs in u = (x - center) / span of the law's own
        # frame, so its tails are sampled at every scale.
        # At 1e-160 the floor itself, about 1e-326, underflows to 0 on both
        # sides, so the cube-root mass behind it is held to scale^(2/3).
        def law(s):
            return GaussianMixture(((0.4, -1.2 * s, 0.7 * s), (0.6, 0.9 * s, 0.5 * s)))

        d = law(scale)
        mass = _cube_root_mass(d)
        assert mass / scale ** (2.0 / 3.0) == pytest.approx(_cube_root_mass(law(1.0)), rel=1e-12)
        assert panter_dite(d, 256) == pytest.approx(
            scale**2 * panter_dite(law(1.0), 256), rel=1e-12)
        assert mismatch_penalty_factor(d, d) == pytest.approx(1.0, abs=1e-12)

    def test_mixture_keeps_quadrature(self):
        d = GaussianMixture(((0.4, -1.0, 0.7), (0.6, 1.0, 1.2)))
        x = np.linspace(-25.0, 25.0, 200_001)
        f3 = np.cbrt(d.pdf(x))
        trapezoid = float(np.sum(0.5 * (f3[1:] + f3[:-1]) * np.diff(x)))
        assert _cube_root_mass(d) == pytest.approx(trapezoid, rel=1e-8)


class TestBennettGranular:
    def test_matched_approaches_the_floor_from_below(self):
        g = Gaussian(0, 1)
        ratios = []
        for bits in (4, 6, 8):
            q = lloyd_max_design(g, bits, max_iters=3000, init="cube_root")
            ratios.append(bennett_granular(g, g, 1 << bits, quantizer=q)
                          / panter_dite(g, 1 << bits))
        assert all(r < 1.0 for r in ratios)
        assert ratios == sorted(ratios)
        assert ratios[-1] > 0.95

    def test_one_bit_span_is_empty(self):
        assert bennett_granular(Gaussian(0, 1), Gaussian(0, 2), 2) == 0.0

    def test_reuses_supplied_quantizer(self):
        g = Gaussian(0, 1)
        q = lloyd_max_design(g, 5)
        a = bennett_granular(g, Laplace(0.0, 1.0), 32, quantizer=q)
        b = bennett_granular(g, Laplace(0.0, 1.0), 32)
        assert a == pytest.approx(b, rel=1e-12)

    def test_quantizer_must_have_n_levels_bins(self):
        g = Gaussian(0, 1)
        q = lloyd_max_design(g, 6)
        with pytest.raises(ValueError, match="64 bins"):
            bennett_granular(g, Gaussian(0, 2), 16, quantizer=q)
        assert bennett_granular(g, Gaussian(0, 2), 64, quantizer=q) > 0.0


class TestOverloadSplit:
    def test_generative_codebook_zeroes_the_bias(self):
        q = lloyd_max_design(Gaussian(0, 1), 3)
        true_d = Gaussian(0, 3.0)
        gen = generative_codebook(q.partition, true_d)
        split = overload_split(q.partition, gen, true_d)
        assert split.bias_part <= 1e-25
        assert split.variance_part > 0.0

    def test_fixed_codebook_pays_a_bias(self):
        q = lloyd_max_design(Gaussian(0, 1), 3)
        true_d = Gaussian(0, 3.0)
        fix = overload_split(q.partition, q.design_codebook, true_d)
        gen = overload_split(q.partition, generative_codebook(q.partition, true_d),
                             true_d)
        assert fix.bias_part > 0.0
        assert gen.total < fix.total
        assert fix.total == pytest.approx(fix.variance_part + fix.bias_part,
                                          rel=1e-14)

    def test_size_mismatch_rejected(self):
        q = lloyd_max_design(Gaussian(0, 1), 2)
        with pytest.raises(ValueError):
            overload_split(q.partition, lloyd_max_design(Gaussian(0, 1), 3)
                           .design_codebook, Gaussian(0, 1))


class TestPenaltyFactor:
    def test_matched_is_one(self):
        for d in (Gaussian(0, 1), Gaussian(2.0, 0.5), Laplace(0.0, 1.0)):
            assert mismatch_penalty_factor(d, d) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("family", [Gaussian, Laplace])
    @pytest.mark.parametrize("scale", [1e-160, 1e-5, 1.0, 1e5])
    def test_matched_is_one_at_every_scale(self, family, scale):
        # The factor is scale invariant: the probes and quadrature panels
        # sit in units of the laws' own scale, not of x.
        d = family(3.0 * scale, scale)
        assert mismatch_penalty_factor(d, d) == pytest.approx(1.0, abs=1e-9)

    def test_gaussian_closed_form(self):
        cases = [(1.0, 1.2), (1.0, 0.5), (2.0, 1.0)]
        for s0, s1 in cases:
            got = mismatch_penalty_factor(Gaussian(0, s0), Gaussian(0, s1))
            assert got == pytest.approx(_gaussian_penalty(s0, s1), rel=1e-7)

    def test_narrow_truth_frozen_value(self):
        got = mismatch_penalty_factor(Gaussian(0, 1), Gaussian(0, 0.5))
        assert got == pytest.approx(2.5298221281347035, rel=1e-9)

    def test_penalty_grows_as_truth_narrows(self):
        vals = [mismatch_penalty_factor(Gaussian(0, 1), Gaussian(0, s))
                for s in (0.8, 0.5, 0.2)]
        assert vals[0] < vals[1] < vals[2]

    def test_heavy_truth_diverges(self):
        for s1 in (1.5, 2.0):
            with pytest.raises(DivergentIntegral):
                mismatch_penalty_factor(Gaussian(0, 1), Gaussian(0, s1))

    def test_laplace_truth_under_gaussian_design_diverges(self):
        # Exponential tails always overwhelm a squared-exponential density.
        with pytest.raises(DivergentIntegral):
            mismatch_penalty_factor(Gaussian(0, 1), Laplace(0.0, 1.0))

    def test_vanishing_design_density_raises(self):
        # The design log density overflows to -inf beyond |x| of about 1e-6,
        # where the true law still has mass.
        with np.errstate(over="ignore"), pytest.raises(
                DivergentIntegral, match="design density vanishes"):
            mismatch_penalty_factor(Gaussian(0, 1e-160), Gaussian(0, 1))

    def test_a_true_tail_that_vanishes_passes_the_growth_probe(self):
        # A true law whose log density reads -inf beyond 20 standard
        # deviations, as a law of bounded support would: the far probes see
        # no tail, and the mass left out (below exp(-200)) moves nothing.
        class Cut(Gaussian):
            def log_pdf(self, x):
                z = (np.asarray(x, dtype=float) - self.mean) / self.std
                return np.where(np.abs(z) > 20.0, -np.inf, super().log_pdf(x))

        got = mismatch_penalty_factor(Gaussian(0, 1), Cut(0, 0.5))
        assert got == pytest.approx(_gaussian_penalty(1.0, 0.5), rel=1e-9)

    def test_gaussian_truth_under_laplace_design_converges(self):
        got = mismatch_penalty_factor(Laplace(0.0, 1.0), Gaussian(0, 1))
        assert math.isfinite(got)
        assert got > 1.0


class TestFitDecaySlope:
    def test_exact_power_law(self):
        bits = [6, 7, 8, 9, 10]
        vals = [2.0 ** (-2 * b) for b in bits]
        assert fit_decay_slope(bits, vals) == pytest.approx(-2.0, abs=1e-12)

    def test_uses_only_the_tail(self):
        bits = [1, 2, 8, 9, 10, 11]
        vals = [5.0, 4.9] + [2.0 ** (-1.5 * b) for b in bits[2:]]
        assert fit_decay_slope(bits, vals, n_points=4) == pytest.approx(
            -1.5, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_decay_slope([4], [1.0])
        with pytest.raises(ValueError):
            fit_decay_slope([4, 5], [1.0])
        with pytest.raises(ValueError):
            fit_decay_slope([4, 5], [1.0, 0.0])

    def test_non_finite_points_rejected(self):
        # A NaN value passed the old ``<= 0`` test and gave a NaN slope.
        with pytest.raises(ValueError, match="values must be finite"):
            fit_decay_slope([1, 2, 3], [1.0, math.nan, 0.25], 3)
        with pytest.raises(ValueError, match="bits must be finite"):
            fit_decay_slope([1, math.inf, 3], [1.0, 0.5, 0.25], 3)

    @pytest.mark.parametrize("n_points", [1, 0, -1, -3])
    def test_fewer_than_two_points_rejected(self, n_points):
        bits = [6, 7, 8, 9, 10]
        vals = [2.0 ** (-2 * b) for b in bits]
        with pytest.raises(ValueError, match="n_points"):
            fit_decay_slope(bits, vals, n_points=n_points)


class TestRateRecoverySweep:
    def test_numpy_bit_depths_are_ints(self):
        reps = rate_recovery_sweep(Gaussian(0, 1), Laplace(), np.arange(3, 6))
        assert reps == rate_recovery_sweep(Gaussian(0, 1), Laplace(), [3, 4, 5])
        assert [type(r.bits) for r in reps] == [int] * 3
        with pytest.raises(ValueError, match="got True"):
            rate_recovery_sweep(Gaussian(0, 1), Laplace(), [3, True])

    def test_reports_are_structured_and_consistent(self):
        reps = rate_recovery_sweep(Gaussian(0, 1), Laplace(0.0, 1.0),
                                   [3, 4, 5])
        assert [r.bits for r in reps] == [3, 4, 5]
        for r in reps:
            assert r.d_total_gen <= r.d_total_fix
            assert r.d_overload_gen <= r.d_overload_fix
            assert r.penalty_factor == pytest.approx(
                r.d_total_gen / r.d_ideal_pd, rel=1e-12)

    def test_totals_dominate_the_granular_model(self):
        for true_d in (Gaussian(0, 1.1), Laplace(0.0, 1.0)):
            reps = rate_recovery_sweep(Gaussian(0, 1), true_d, range(3, 9),
                                       max_iters=2000, init="cube_root")
            for r in reps:
                assert r.d_total_fix >= r.d_granular
                assert r.d_total_gen >= r.d_granular

    def test_ratio_converges_to_penalty_factor(self):
        """Exact adapted distortion over the matched floor approaches the
        asymptotic penalty as the rate grows, when the penalty exists."""
        design = Gaussian(0, 1)
        for s1 in (1.0, 1.1):
            true_d = Gaussian(0, s1)
            target = mismatch_penalty_factor(design, true_d)
            reps = rate_recovery_sweep(design, true_d, range(6, 13),
                                       max_iters=2000, init="cube_root")
            ratios = np.array([r.penalty_factor for r in reps])
            gaps = np.abs(ratios - target)
            assert np.all(np.diff(gaps) < 0.0)
            assert gaps[-1] / target < 0.15


class TestQuadrature:
    """The vectorised Gauss-Kronrod rule against 40-digit mpmath."""

    @staticmethod
    def _rel(got, want):
        return abs(got - float(want)) / abs(float(want))

    def test_mixture_cube_root_mass_over_the_line(self, mp_density):
        mp = pytest.importorskip("mpmath").mp
        f = mp_density(MIX_TRUE)
        with mp.workdps(40):
            pts = [-mp.inf, *MIX_TRUE.centers(), mp.inf]
            want = mp.quad(lambda x: mp.cbrt(f(x)), pts)
        assert self._rel(_cube_root_mass(MIX_TRUE), want) < 1e-13

    def test_mixture_cube_root_mass_over_a_span(self, mp_density):
        mp = pytest.importorskip("mpmath").mp
        f = mp_density(MIX_DESIGN)
        lo, hi = -2.25, 3.125
        with mp.workdps(40):
            want = mp.quad(lambda x: mp.cbrt(f(x)), [lo, *MIX_DESIGN.centers(), hi])
        assert self._rel(_cube_root_mass(MIX_DESIGN, lo, hi), want) < 1e-13

    @pytest.mark.parametrize("design_d, true_d, bits", [
        (Gaussian(0, 1), Gaussian(0, 2), 8),
        (MIX_DESIGN, MIX_TRUE, 7),
    ])
    def test_bennett_granular(self, mp_density, design_d, true_d, bits):
        mp = pytest.importorskip("mpmath").mp
        q = lloyd_max_design(design_d, bits, init="cube_root")
        lo, hi = q.partition.boundaries[0], q.partition.boundaries[-1]
        fd, ft = mp_density(design_d), mp_density(true_d)
        with mp.workdps(40):
            pts = [lo, *sorted(set(design_d.centers()) | set(true_d.centers())), hi]
            c = mp.quad(lambda x: mp.cbrt(fd(x)), pts)
            ratio = mp.quad(lambda x: ft(x) / mp.cbrt(fd(x)) ** 2, pts)
            want = c * c * ratio / (12 * mp.mpf(2) ** (2 * bits))
        got = bennett_granular(design_d, true_d, 1 << bits, quantizer=q)
        assert self._rel(got, want) < 1e-13

    def test_mixture_penalty_factor(self, mp_density):
        mp = pytest.importorskip("mpmath").mp
        fd, ft = mp_density(MIX_DESIGN), mp_density(MIX_TRUE)
        with mp.workdps(40):
            pts = [-mp.inf, *sorted(MIX_DESIGN.centers() + MIX_TRUE.centers()), mp.inf]
            c_design = mp.quad(lambda x: mp.cbrt(fd(x)), pts)
            c_true = mp.quad(lambda x: mp.cbrt(ft(x)), pts)
            ratio = mp.quad(lambda x: ft(x) / mp.cbrt(fd(x)) ** 2, pts)
            want = c_design**2 * ratio / c_true**3
        assert self._rel(mismatch_penalty_factor(MIX_DESIGN, MIX_TRUE), want) < 1e-13

    def test_integrand_is_called_on_arrays(self):
        shapes = []

        def fn(x):
            shapes.append(np.shape(x))
            return np.exp(-x * x)

        got = _quad(fn, -np.inf, np.inf)  # no breakpoint: split at 0
        assert got == pytest.approx(math.sqrt(math.pi), rel=1e-14)
        assert all(len(shape) == 2 and shape[1] == 15 for shape in shapes)

    def test_non_finite_integrand_raises(self):
        with pytest.raises(DivergentIntegral, match="not finite"):
            _quad(lambda x: np.where(x < 0.25, np.nan, 1.0), 0.0, 1.0)
        with pytest.raises(DivergentIntegral, match="not finite"):
            _quad(lambda x: np.full_like(x, np.inf), -np.inf, 0.0)

    def test_exhausted_panel_budget_raises(self):
        # About 16,000 periods on [0, 1]: more panels than the budget holds.
        with pytest.raises(DivergentIntegral, match="panels"):
            _quad(lambda x: np.cos(1e5 * x), 0.0, 1.0)

    def test_panel_budget_is_read_at_call_time(self, monkeypatch):
        def fn(x):
            return np.sqrt(np.abs(x))

        assert _quad(fn, -1.0, 1.0) == pytest.approx(4.0 / 3.0, rel=1e-10)
        monkeypatch.setattr(asymptotics, "_QUAD_LIMIT", 8)
        with pytest.raises(DivergentIntegral, match="within 8 panels"):
            _quad(fn, -1.0, 1.0)

    def test_an_overflowing_value_raises(self):
        # The integrand is finite, but each panel's value, 5e307 times its
        # width of 25, overflows.
        with np.errstate(over="ignore"), pytest.raises(DivergentIntegral, match="returned inf"):
            _quad(lambda x: np.full_like(x, 5e307), 0.0, 100.0)

    def test_empty_range_is_zero(self):
        assert _quad(lambda x: np.ones_like(x), 2.0, 2.0) == 0.0


def _separate_call_row(q, true_d):
    """``d_fix``, ``d_gen``, the two overload totals, the substituted bins
    and the generative codebook of one row, composed from
    ``generative_codebook``, ``expected_distortion`` and ``overload_split``
    with one kernel call each: the reference the shared table must match."""
    p = q.partition
    design = q.design_codebook.as_array()
    e1, mass1, m11 = _anchored(true_d, p.edges(), order=1)
    empty = mass1 < ZERO_MASS_TOL
    with np.errstate(invalid="ignore", divide="ignore"):
        gen = e1 + np.where(empty, 0.0, m11) / np.where(empty, 1.0, mass1)
    if np.any(empty):
        gen = np.where(empty, design, gen)
    gen = np.asarray(tuple(gen.tolist()))

    def distortion(a):
        e, mass, m1, m2 = _anchored(true_d, p.edges())
        d = a - e
        return float(np.sum(m2) - 2.0 * np.dot(d, m1) + np.dot(d * d, mass))

    def overload(a):
        # d_gen and excess of the two outer bins, formed as _table_terms forms them.
        e, mass, m1, m2 = (part[[0, -1]] for part in _anchored(true_d, p.edges()))
        g = gen[[0, -1]]
        offset, shift = g - e, a[[0, -1]] - g
        u = offset - np.divide(m1, mass, out=np.zeros_like(m1), where=mass >= ZERO_MASS_TOL)
        variance = float(np.sum(m2) - 2.0 * np.dot(offset, m1) + np.dot(offset * offset, mass))
        return variance + float(np.dot(mass, shift * (shift + 2.0 * u)))

    subst = tuple(np.flatnonzero(empty).tolist())
    return distortion(design), distortion(gen), overload(design), overload(gen), subst, gen


_SHARED_CASES = [
    (Gaussian(0, 1), Gaussian(0, 2), (1, 3, 6, 9)),
    (Laplace(0.0, math.sqrt(0.5)), Laplace(0.0, 1.0), (2, 5, 10)),
    (Gaussian(0, 1), Laplace(0.3, 0.8), (4, 7)),
    (MIX_DESIGN, MIX_TRUE, (3, 7)),
    # N(40, 0.5) puts no mass on the lower bins of an N(0, 1) design,
    # which fall back to the design codewords.
    (Gaussian(0, 1), Gaussian(40.0, 0.5), (2, 5)),
]

_GENERATIVE_OVERLOAD_PAIRS = [
    (Gaussian(0, 1), Gaussian(0, 2)),
    (Laplace(0.0, math.sqrt(0.5)), Laplace(0.0, 1.0)),
    (MIX_DESIGN, MIX_TRUE),
    (Gaussian(0, 1), Laplace(0.3, 0.8)),
    (Laplace(0.0, 1.0), Gaussian(-0.2, 1.3)),
    (Gaussian(0, 1), Gaussian(8.0, 0.1)),
]


class TestSharedMomentTable:
    """One moment table per row gives the numbers of separate calls, bit for bit."""

    @pytest.mark.parametrize("design_d, true_d, bits", _SHARED_CASES)
    def test_rate_sweep_matches_separate_calls(self, design_d, true_d, bits):
        reps = rate_recovery_sweep(design_d, true_d, bits)
        for r in reps:
            q = lloyd_max_design(design_d, r.bits)
            d_fix, d_gen, over_fix, over_gen, _, _ = _separate_call_row(q, true_d)
            assert (r.d_total_fix, r.d_total_gen) == (d_fix, d_gen)
            assert (r.d_overload_fix, r.d_overload_gen) == (over_fix, over_gen)

    @staticmethod
    def _outer_bin_loop(p, a, true_d):
        """The split as a loop over the two outer bins, skipping an empty one:
        the conditional variance ``mass (J_2 / J_0 - g^2)`` and the bias
        ``mass s (s + 2 u)``, ``g = J_1 / J_0``, ``s = a - (e + g)``."""
        e, mass, m1, m2 = _anchored(true_d, p.edges())
        variance = bias = 0.0
        for i in (0, p.n_bins - 1):
            if mass[i] < ZERO_MASS_TOL:
                continue
            g = m1[i] / mass[i]
            mean = e[i] + g
            s = a[i] - mean
            variance += mass[i] * (m2[i] / mass[i] - g * g)
            bias += mass[i] * s * (s + 2.0 * ((mean - e[i]) - g))
        return variance, bias

    @pytest.mark.parametrize("design_d, true_d, bits", _SHARED_CASES + [
        (design_d, true_d, range(1, 13)) for design_d, true_d in _GENERATIVE_OVERLOAD_PAIRS])
    def test_overload_split_is_the_outer_bin_loop(self, design_d, true_d, bits):
        # Summed as _table_terms sums every table, the split moves off the
        # loop's rounding only, and an empty outer bin adds nothing to either.
        for b in bits:
            q = lloyd_max_design(design_d, b)
            gen = generative_codebook(q.partition, true_d, fallback=q.design_codebook)
            for c in (q.design_codebook, gen):
                split = overload_split(q.partition, c, true_d)
                variance, bias = self._outer_bin_loop(q.partition, c.as_array(), true_d)
                assert split.variance_part == pytest.approx(variance, rel=1e-14, abs=0.0), b
                assert split.bias_part == pytest.approx(bias, rel=1e-14, abs=0.0), b
            assert split.bias_part == 0.0, b

    @pytest.mark.parametrize("design_d, true_d, bits", _SHARED_CASES)
    def test_report_matches_separate_calls(self, design_d, true_d, bits):
        for b in bits:
            rep = report(design_d, true_d, b)
            q = lloyd_max_design(design_d, b)
            d_fix, d_gen, _, _, subst, gen = _separate_call_row(q, true_d)
            assert (rep.d_fix, rep.d_gen, rep.substituted_bins) == (d_fix, d_gen, subst)
            codebook = generative_codebook(q.partition, true_d, fallback=q.design_codebook)
            assert codebook.as_array().tobytes() == gen.tobytes()

    @pytest.mark.parametrize("design_d, true_d", _GENERATIVE_OVERLOAD_PAIRS)
    def test_generative_overload_is_the_fixed_variance_part(self, design_d, true_d):
        # The generative codebook's outer entries are the outer bins'
        # conditional means, so its split has no bias part, and the sweep's
        # variance part of the fixed split is bitwise the generative total.
        for r in rate_recovery_sweep(design_d, true_d, range(1, 13)):
            q = lloyd_max_design(design_d, r.bits)
            gen = generative_codebook(q.partition, true_d, fallback=q.design_codebook)
            split = overload_split(q.partition, gen, true_d)
            assert split.bias_part == 0.0, r.bits
            assert r.d_overload_gen == split.total, r.bits

    def test_fallback_case_substitutes_bins(self):
        rep = report(Gaussian(0, 1), Gaussian(40.0, 0.5), 5)
        assert 0 < len(rep.substituted_bins) < 32

    def test_public_wrappers_agree_with_the_sweep(self):
        q = lloyd_max_design(MIX_DESIGN, 5)
        (r,) = rate_recovery_sweep(MIX_DESIGN, MIX_TRUE, [5])
        gen = generative_codebook(q.partition, MIX_TRUE, fallback=q.design_codebook)
        assert overload_split(q.partition, gen, MIX_TRUE).total == r.d_overload_gen
        assert (overload_split(q.partition, q.design_codebook, MIX_TRUE).total
                == r.d_overload_fix)

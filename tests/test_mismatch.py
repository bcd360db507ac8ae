"""Cross-law distortion tests.

The 1-bit Gaussian geometry admits hand-derivable answers:

    design N(0, s0), true N(0, s1), sign quantizer at 0
    d_fix = s1^2 - (4/pi) s0 s1 + (2/pi) s0^2
    d_gen = s1^2 (1 - 2/pi)

These serve as exact oracles below, alongside quadrature and Monte Carlo.
"""

import math

import numpy as np
import pytest
from scipy import integrate

from mismatch_quant import (
    Codebook,
    DegenerateDesign,
    Gaussian,
    GaussianMixture,
    Laplace,
    Partition,
    ZeroMassBin,
    expected_distortion,
    generative_codebook,
    ideal_distortion,
    lloyd_max_design,
    monte_carlo_distortion,
    one_bit_gaussian_report,
    one_bit_quantizer,
    overload_split,
    report,
    reports,
)
from mismatch_quant import cli, distributions, mismatch, quantizer
from mismatch_quant.distributions import ZERO_MASS_TOL, _anchored

TWO_OVER_PI = 2.0 / math.pi


def _one_bit_fix(s0, s1):
    return s1 * s1 - 2.0 * TWO_OVER_PI * s0 * s1 + TWO_OVER_PI * s0 * s0


class TestExpectedDistortion:
    def test_matched_one_bit_gaussian(self):
        q = one_bit_quantizer(0.0, 1.0)
        d = expected_distortion(q.partition, q.design_codebook, Gaussian(0, 1))
        assert d == pytest.approx(1.0 - TWO_OVER_PI, abs=1e-14)

    def test_mismatched_one_bit_closed_form(self):
        q = one_bit_quantizer(0.0, 1.0)
        for s1 in (0.5, 1.0, 2.0, 3.7):
            d = expected_distortion(q.partition, q.design_codebook, Gaussian(0, s1))
            assert d == pytest.approx(_one_bit_fix(1.0, s1), rel=1e-13)

    def test_sigma_one_equals_two_frozen_value(self):
        q = one_bit_quantizer(0.0, 1.0)
        d = expected_distortion(q.partition, q.design_codebook, Gaussian(0, 2))
        assert d == pytest.approx(4.0 - 6.0 / math.pi, abs=1e-13)

    def test_quadrature_cross_check_with_laplace_truth(self):
        q = lloyd_max_design(Gaussian(0, 1), 3)
        table = q.design_codebook.as_array()
        cuts = np.array(q.partition.boundaries)
        scale = 0.9

        def err(x):
            i = np.searchsorted(cuts, x, side="right")
            return (x - table[i]) ** 2 * math.exp(-abs(x) / scale) / (2 * scale)

        want, _ = integrate.quad(err, -45, 45, limit=800, points=list(cuts))
        got = expected_distortion(q.partition, q.design_codebook, Laplace(0.0, scale))
        assert got == pytest.approx(want, rel=1e-9)

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            expected_distortion(Partition((0.0,)), Codebook((0.0, 1.0, 2.0, 3.0)),
                                Gaussian(0, 1))


class TestGenerativeCodebook:
    def test_one_bit_moves_codewords_to_true_scale(self):
        q = one_bit_quantizer(0.0, 1.0)
        c = generative_codebook(q.partition, Gaussian(0, 2))
        want = 2.0 * math.sqrt(TWO_OVER_PI)
        np.testing.assert_allclose(c.as_array(), [-want, want], atol=1e-13)

    def test_is_optimal_for_its_partition(self):
        """Perturbing any generative codeword can only increase distortion."""
        q = lloyd_max_design(Gaussian(0, 1), 2)
        true_d = Laplace(0.3, 1.1)
        c = generative_codebook(q.partition, true_d)
        base = expected_distortion(q.partition, c, true_d)
        for i in range(4):
            for eps in (-1e-3, 1e-3):
                bumped = c.as_array().copy()
                bumped[i] += eps
                worse = expected_distortion(q.partition, Codebook(tuple(bumped)), true_d)
                assert worse >= base

    def test_empty_bins_need_a_fallback(self):
        q = lloyd_max_design(Gaussian(0, 1), 2)
        far = Gaussian(50.0, 0.1)
        with pytest.raises(ZeroMassBin):
            generative_codebook(q.partition, far)
        c = generative_codebook(q.partition, far, fallback=q.design_codebook)
        # untouched bins keep the design codeword, the live bin tracks the truth
        np.testing.assert_array_equal(c.as_array()[:3], q.design_codebook.as_array()[:3])
        assert c.values[3] == pytest.approx(50.0, abs=1e-6)


class TestReport:
    def test_matched_pair_has_zero_excess(self):
        r = report(Gaussian(0, 1), Gaussian(0, 1), 3)
        assert r.excess == pytest.approx(0.0, abs=1e-15)
        assert r.relative_gain_pct == pytest.approx(0.0, abs=1e-12)
        assert r.substituted_bins == ()

    def test_one_bit_closed_forms(self):
        r = report(Gaussian(0, 1), Gaussian(0, 2), 1)
        assert r.d_fix == pytest.approx(4.0 - 6.0 / math.pi, abs=1e-12)
        assert r.d_gen == pytest.approx(4.0 * (1.0 - TWO_OVER_PI), abs=1e-12)
        assert r.excess == pytest.approx(r.d_fix - r.d_gen, abs=1e-15)
        assert r.relative_gain_pct == pytest.approx(
            100.0 * (1.0 - r.d_gen / r.d_fix), abs=1e-12)

    def test_gen_never_beats_fix(self):
        pairs = [
            (Gaussian(0, 1), Gaussian(0.5, 1.5)),
            (Gaussian(0, 1), Laplace(0.0, 1.0)),
            (Laplace(0.0, 1.0), Gaussian(0, 1)),
            (Gaussian(0, 1),
             GaussianMixture(((0.3, -1.0, 0.5), (0.7, 1.2, 0.8)))),
        ]
        for design_d, true_d in pairs:
            for bits in (1, 2, 4):
                r = report(design_d, true_d, bits)
                assert r.d_gen <= r.d_fix + 1e-14

    def test_ideal_never_beats_gen(self):
        # Redesigning for the truth removes the partition constraint, so the
        # converged redesign must fall at or below the adapted decoder.
        pairs = [
            (Gaussian(0, 1), Gaussian(0.5, 1.5)),
            (Gaussian(0, 1), Laplace(0.2, 0.7)),
        ]
        for design_d, true_d in pairs:
            r = report(design_d, true_d, 3, max_iters=2000, init="cube_root")
            assert r.d_ideal <= r.d_gen + 1e-12

    def test_ideal_matches_direct_call(self):
        r = report(Gaussian(0, 1), Laplace(0.0, 1.0), 2)
        assert r.d_ideal == pytest.approx(ideal_distortion(Laplace(0.0, 1.0), 2),
                                          rel=1e-12)

    def test_monte_carlo_agrees_with_closed_form(self):
        r = report(Gaussian(0, 1), Gaussian(0.3, 1.4), 2,
                   mc_samples=2_000_000, seed=7)
        assert r.mc_stderr is not None
        assert abs(r.d_fix_mc - r.d_fix) < 5 * r.mc_stderr
        assert abs(r.d_gen_mc - r.d_gen) < 5 * r.mc_stderr

    def test_mc_requires_seed(self):
        with pytest.raises(ValueError):
            report(Gaussian(0, 1), Gaussian(0, 2), 1, mc_samples=1000)
        with pytest.raises(ValueError):
            report(Gaussian(0, 1), Gaussian(0, 2), 1, mc_samples=1, seed=0)

    def test_distant_truth_reports_substituted_bins(self):
        r = report(Gaussian(0, 1), Gaussian(50.0, 0.1), 2)
        assert r.substituted_bins == (0, 1, 2)
        assert r.d_gen < r.d_fix

    @pytest.mark.parametrize("true_d", [Gaussian(0.3, 1.4), Laplace(-0.2, 0.9)])
    @pytest.mark.parametrize("bits", [1, 2, 3, 4])
    def test_monte_carlo_scores_one_draw_with_both_codebooks(self, true_d, bits):
        self._assert_mc_matches_two_calls(Gaussian(0, 1), true_d, bits, 20_000, 5)

    def test_monte_carlo_reaches_the_top_sixteen_bit_index(self):
        # The widest bins of a 16-bit Laplace design start near 31 scales
        # out; a true law five times wider still lands draws in the last one.
        design_d, true_d = Laplace(), Laplace(0.0, 5.0)
        q = lloyd_max_design(design_d, 16)
        assert q.converged
        assert q.encode(true_d.sample(3, 50_000)).max() == (1 << 16) - 1
        self._assert_mc_matches_two_calls(design_d, true_d, 16, 50_000, 3)

    @staticmethod
    def _assert_mc_matches_two_calls(design_d, true_d, bits, n, seed):
        r = report(design_d, true_d, bits, mc_samples=n, seed=seed)
        q = lloyd_max_design(design_d, bits)
        gen = generative_codebook(q.partition, true_d, fallback=q.design_codebook)
        fix_mc, se_fix = monte_carlo_distortion(q.partition, q.design_codebook,
                                                true_d, n, seed)
        gen_mc, se_gen = monte_carlo_distortion(q.partition, gen, true_d, n, seed)
        assert (r.d_fix_mc, r.d_gen_mc, r.mc_stderr) == (fix_mc, gen_mc,
                                                         max(se_fix, se_gen))


class TestReports:
    """``reports`` is ``report`` at each bit depth, bit for bit, scoring one
    Monte Carlo draw of the true law for all of them."""

    # Counted indices at 1 and 4 bits, searched ones at 7 and 9; one byte a
    # draw to 8 bits, two from 9 on.
    BITS = (1, 4, 7, 9)

    @pytest.mark.parametrize("design_d, true_d", [
        (Gaussian(), Gaussian(0.3, 1.4)),
        (Gaussian(), Laplace(-0.2, 0.9)),
        (Laplace(), GaussianMixture(((0.3, -1.0, 0.5), (0.7, 1.5, 1.2)))),
        (Gaussian(), Gaussian(50.0, 0.1)),  # every bin but the last is empty
    ])
    def test_each_row_is_the_one_row_report(self, design_d, true_d):
        n, seed = 20_000, 6
        rows = reports(design_d, true_d, self.BITS, mc_samples=n, seed=seed)
        singles = tuple(report(design_d, true_d, b, mc_samples=n, seed=seed)
                        for b in self.BITS)
        assert [repr(r) for r in rows] == [repr(r) for r in singles]
        assert all(r.d_gen_mc is not None for r in rows)
        if true_d == Gaussian(50.0, 0.1):
            assert rows[-1].substituted_bins == tuple(range((1 << 9) - 1))

    @pytest.mark.parametrize("true_d", [
        Gaussian(0.3, 1.4), Laplace(-0.2, 0.9),
        GaussianMixture(((0.3, -1.0, 0.5), (0.7, 1.5, 1.2))),
    ])
    def test_one_draw_per_call(self, true_d, sample_calls):
        calls = sample_calls()
        reports(Gaussian(), true_d, self.BITS, mc_samples=5_000, seed=3)
        assert calls == {type(true_d).__name__: 1}

    def test_draw_is_read_only(self, monkeypatch):
        draws = []
        sample = Laplace.sample

        def kept(self, *args):
            draws.append(sample(self, *args))
            return draws[-1]

        monkeypatch.setattr(Laplace, "sample", kept)
        reports(Gaussian(), Laplace(), self.BITS, mc_samples=5_000, seed=3)
        [x] = draws
        assert not x.flags.writeable
        np.testing.assert_array_equal(x, Laplace().sample(3, 5_000))

    def test_no_draw_without_valid_mc_arguments(self, sample_calls):
        calls = sample_calls()
        rows = reports(Gaussian(), Laplace(), self.BITS)
        assert rows == tuple(report(Gaussian(), Laplace(), b) for b in self.BITS)
        assert all(r.mc_stderr is None for r in rows)
        with pytest.raises(ValueError, match="seed"):
            reports(Gaussian(), Laplace(), self.BITS, mc_samples=1000)
        with pytest.raises(ValueError, match="at least 2"):
            reports(Gaussian(), Laplace(), self.BITS, mc_samples=1, seed=0)
        for n in (2.5, 1000.0, True):  # not integers: numpy's TypeError from sample once
            with pytest.raises(ValueError, match="an integer"):
                reports(Gaussian(), Laplace(), self.BITS, mc_samples=n, seed=1)
        assert not calls

    @pytest.mark.parametrize("n", [100_000, 400_000])
    def test_three_bit_depths_keep_one_error_array_live(self, n, traced_peak):
        # The draw (8 bytes a draw) stays for the whole call; each bit depth
        # adds its index (1 or 2) and one error array (8), and its index
        # goes before the next bit depth encodes.
        design_d, true_d, bits = Laplace(), Laplace(0.2, 1.1), (4, 8, 10)
        reports(design_d, true_d, bits)  # designs and moment tables first
        rows, peak = traced_peak(
            lambda: reports(design_d, true_d, bits, mc_samples=n, seed=2))
        assert all(r.d_gen_mc is not None for r in rows)
        assert peak < 20 * n

    def test_any_integer_but_a_bool_is_a_bit_depth(self):
        design_d, true_d = Gaussian(), Laplace(0.2, 1.1)
        assert reports(design_d, true_d, np.arange(1, 4)) == reports(design_d, true_d, [1, 2, 3])
        assert ideal_distortion(true_d, np.int64(3)) == ideal_distortion(true_d, 3)
        for bits in ([2, True], [1, True]):  # True == 1 as a dict key
            with pytest.raises(ValueError, match="got True"):
                reports(design_d, true_d, bits)
        with pytest.raises(ValueError, match="got True"):
            ideal_distortion(true_d, True)

    def test_every_bit_depth_is_checked_before_the_draw(self, sample_calls):
        calls = sample_calls()
        with pytest.raises(ValueError, match="bits must be an integer"):
            reports(Laplace(), Laplace(0, 1), [3, 0], mc_samples=2_000_000, seed=1)
        assert not calls


class TestReportRows:
    """The sweep core ``_report_rows`` takes the true laws of a bit depth
    together; each row must be bit for bit the one-law ``report``, and that
    the report composed from the public one-law functions."""

    MIX = GaussianMixture(((0.3, -1.0, 0.5), (0.7, 1.5, 1.2)))
    # Gaussian runs (one law twice, once with another seed), a Laplace law, a
    # mixture, a far-off Gaussian with substituted bins, and bit depths that
    # repeat within a run and across runs in another order.
    RUNS = [
        (Gaussian(0.3, 1.4), [1, 4, 7], 11),
        (Gaussian(-0.5, 0.8), [4, 2], 12),
        (Laplace(-0.2, 0.9), [3, 4], 13),
        (Gaussian(0.3, 1.4), [2, 2, 9], 14),
        (MIX, [4, 1], 15),
        (Gaussian(50.0, 0.1), [9, 3], 16),
        (Gaussian(), [3], 17),
    ]

    @staticmethod
    def _composed(design_d, true_d, bits):
        """The exact cells of the row, from the law's own moment tables: the
        excess as ``mass (s^2 + 2 s u)``, ``s = fix - gen`` and ``u = (gen -
        e) - J_1 / J_0`` (``J_1 / J_0`` taken as 0 in an empty bin), the
        rounding of ``gen``."""
        q = lloyd_max_design(design_d, bits)
        p, fix = q.partition, q.design_codebook
        gen = generative_codebook(p, true_d, fallback=fix)
        e, mass, m1 = _anchored(true_d, p.edges(), order=1)
        shift = fix.as_array() - gen.as_array()
        g = np.divide(m1, mass, out=np.zeros_like(m1), where=mass >= ZERO_MASS_TOL)
        u = (gen.as_array() - e) - g
        return (expected_distortion(p, fix, true_d), expected_distortion(p, gen, true_d),
                ideal_distortion(true_d, bits), float(np.dot(mass, shift * (shift + 2.0 * u))))

    @pytest.mark.parametrize("design_d", [Gaussian(), Laplace(0.1, 1.2)])
    @pytest.mark.parametrize("mc_samples", [0, 5_000])
    def test_rows_are_the_one_law_reports(self, design_d, mc_samples):
        rows = mismatch._report_rows(design_d, self.RUNS, mc_samples)
        assert [len(run) for run in rows] == [len(bits) for _, bits, _ in self.RUNS]
        for (true_d, bits_list, seed), run in zip(self.RUNS, rows):
            for bits, row in zip(bits_list, run):
                single = report(design_d, true_d, bits, mc_samples=mc_samples, seed=seed)
                assert repr(row) == repr(single), (true_d, bits)
                got = (row.d_fix, row.d_gen, row.d_ideal, row.excess)
                assert got == self._composed(design_d, true_d, bits), (true_d, bits)
                assert (row.d_gen_mc is None) == (not mc_samples)
        assert rows[5][0].substituted_bins  # the far-off law empties bins at 9 bits

    def test_one_draw_per_run(self, sample_calls):
        calls = sample_calls()
        mismatch._report_rows(Gaussian(), self.RUNS, 2_000)
        assert calls == {"Gaussian": 5, "Laplace": 1, "GaussianMixture": 1}

    def test_default_mean_sweep_makes_one_kernel_call_a_bit_depth(
            self, gaussian_kernel_calls):
        # With the designs memoised, the 17 true laws of each of the 4 bit
        # depths share one call of the Gaussian moment kernel.
        cfg = cli.ExperimentConfig(experiment="mean_sweep")
        header, want = cli._run_mean_sweep(cfg)
        calls = gaussian_kernel_calls()
        assert cli._run_mean_sweep(cfg) == (header, want)
        assert len(want) == 68
        assert len(calls) == 4
        assert all(np.shape(mean) == (17, 1) for mean, _ in calls)

    def test_monte_carlo_rows_leave_the_moment_table_memo_empty(self):
        # Each Monte Carlo row scores the conditional means of its exact
        # terms, and every true law, Gaussian or not, reads its table from
        # the kernel, so nothing is kept in the memo.
        laws = [Gaussian(0.05 * i - 1.0, 0.7 + 0.02 * i) for i in range(40)] + [
            Laplace(-0.2, 0.9), self.MIX]
        runs = [(d, [12], 100 + i) for i, d in enumerate(laws)]
        rows = mismatch._report_rows(Gaussian(), runs, 2_000)
        assert quantizer._moment_tables.cache_info().currsize == 0
        for (d, _, seed), [row] in zip(runs, rows):
            assert repr(row) == repr(report(Gaussian(), d, 12, mc_samples=2_000, seed=seed))

    def test_sixty_four_laws_at_twelve_bits_hold_one_block(self, traced_peak):
        # At 12 bits a block is one law (4097 edges).  The kernel's
        # temporaries for it are about 14 arrays of a block's 4096 entries
        # (0.46 MB by tracemalloc); the tables of all 64 laws alone would
        # be 64 * 3 * 4096 * 8 bytes = 6.3 MB.
        laws = [Gaussian(0.05 * i - 1.6, 0.6 + 0.02 * i) for i in range(64)]
        runs = [(d, [12], None) for d in laws]
        want = mismatch._report_rows(Gaussian(), runs)  # the designs first
        rows, peak = traced_peak(lambda: mismatch._report_rows(Gaussian(), runs))
        assert [repr(r) for r in rows] == [repr(r) for r in want]
        assert peak < 24 * 8 * distributions._MIXTURE_BLOCK


def _mp_bin_stats(d, edges):
    """``(mass, mean, variance)`` of ``d`` on each bin of ``edges`` as
    40-digit ``mpf``, in closed form about the law's own centre: a Gaussian
    component from ``ncdf`` and ``npdf``, a Laplace law from the
    antiderivatives of ``y^k e^(-|y|/b)``, ``y = x - loc``."""
    mp = pytest.importorskip("mpmath").mp
    with mp.workdps(40):
        def point(x):
            return mp.inf if x == math.inf else -mp.inf if x == -math.inf else mp.mpf(x)

        def below(x):  # E[(X - centre)^k 1{X < x}], k = 0, 1, 2, and the centre
            if isinstance(d, Laplace):
                b, y = mp.mpf(d.scale), point(x) - mp.mpf(d.loc)
                if y in (mp.inf, -mp.inf):
                    return [1, 0, 2 * b * b] if y > 0 else [0, 0, 0]
                if y <= 0:
                    h = mp.exp(y / b) / 2
                    return [h, h * (y - b), h * (y * y - 2 * b * y + 2 * b * b)]
                h = mp.exp(-y / b) / 2
                return [1 - h, -h * (y + b), 2 * b * b - h * (y * y + 2 * b * y + 2 * b * b)]
            out, centre = [0, 0, 0], mp.mpf(d.mean)
            comps = d.components if isinstance(d, GaussianMixture) else [(1.0, d.mean, d.std)]
            for w, m, s in comps:
                w, s, shift = mp.mpf(w), mp.mpf(s), mp.mpf(m) - centre
                z = (point(x) - mp.mpf(m)) / s
                cdf = mp.ncdf(z)
                pdf, zpdf = (0, 0) if z in (mp.inf, -mp.inf) else (mp.npdf(z), z * mp.npdf(z))
                i1, i2 = -pdf, cdf - zpdf  # E[Z^k 1{Z < z}]
                out[0] += w * cdf
                out[1] += w * (shift * cdf + s * i1)
                out[2] += w * (shift * shift * cdf + 2 * shift * s * i1 + s * s * i2)
            return out

        centre = mp.mpf(d.mean)
        cum = [below(x) for x in edges]
        stats = []
        for lo, hi in zip(cum, cum[1:]):
            m0, m1, m2 = (h - l for l, h in zip(lo, hi))
            stats.append((m0, centre + m1 / m0, m2 / m0 - (m1 / m0) ** 2))
        return stats


class TestFarOffLaws:
    """``expected_distortion``, ``report`` and ``overload_split`` of a law at
    loc 0, 1e3 and 1e6 against a 40-digit evaluation of the same partition
    and codebook: about each bin's anchor nothing is shifted by the
    location.  Raw moments about the origin put the 8-bit Gaussian
    ``d_fix`` off by 2.1e-6 at 1e3 and by 128% at 1e6 (largest error
    measured with anchored moments: 4.5e-12)."""

    @staticmethod
    def _pair(family, loc):
        if family == "gaussian":
            return Gaussian(loc, 1.0), Gaussian(loc, 1.1), 8
        if family == "laplace":
            return Laplace(loc, math.sqrt(0.5)), Laplace(loc, 0.8), 6
        return (GaussianMixture(((0.4, loc - 1.0, 0.7), (0.6, loc + 0.8, 1.0))),
                GaussianMixture(((0.4, loc - 0.9, 0.75), (0.6, loc + 0.85, 1.05))), 6)

    @pytest.mark.parametrize("loc", [0.0, 1e3, 1e6])
    @pytest.mark.parametrize("family", ["gaussian", "laplace", "mixture"])
    def test_against_40_digits(self, family, loc):
        mp = pytest.importorskip("mpmath").mp
        design_d, true_d, bits = self._pair(family, loc)
        q = lloyd_max_design(design_d, bits)
        r = report(design_d, true_d, bits)
        split = overload_split(q.partition, q.design_codebook, true_d)
        stats = _mp_bin_stats(true_d, q.partition.edges().tolist())
        with mp.workdps(40):
            bias = [m0 * (mean - mp.mpf(a)) ** 2
                    for (m0, mean, _), a in zip(stats, q.design_codebook.values)]
            spread = [m0 * var for m0, _, var in stats]
            want = {"d_fix": sum(bias) + sum(spread), "d_gen": sum(spread), "excess": sum(bias),
                    "variance_part": spread[0] + spread[-1], "bias_part": bias[0] + bias[-1]}
            got = {"d_fix": r.d_fix, "d_gen": r.d_gen, "excess": r.excess,
                   "variance_part": split.variance_part, "bias_part": split.bias_part}
            errors = {k: float(abs(got[k] - w) / w) for k, w in want.items()}
            errors["expected_distortion"] = float(abs(expected_distortion(
                q.partition, q.design_codebook, true_d) - want["d_fix"]) / want["d_fix"])
        assert max(errors.values()) <= 1e-10, errors


class TestExcessIdentity:
    """``excess`` is ``sum_i mass_i (a_i - g_i)^2`` (design codewords ``a``,
    conditional means ``g``), which equals ``d_fix - d_gen`` because ``g`` is
    the per-bin mean, and ``relative_gain_pct`` is ``100 excess / d_fix``.
    The sum is non-negative term by term and has no cancellation."""

    # Relative error of ``excess`` and of ``relative_gain_pct`` (the larger
    # of the two) against 40 digits, design N(0, 1) and truth N(delta, 1),
    # as measured when the identity went in; each case is held to 10x its
    # measurement.  By subtraction the same cases were off by 3e-5 relative
    # (1e-5, 1 bit) up to a factor of 940 (1e-7, 5 bits), and 1e-7 at 6-8
    # bits read 0.  What remains is the ``a - g`` cancellation in the
    # raw moments about the origin.
    MEASURED = {
        (1e-5, 1): 3.94e-11, (1e-5, 2): 1.1e-10, (1e-5, 3): 8.3e-11,
        (1e-5, 4): 1.58e-9, (1e-5, 5): 3.31e-9, (1e-5, 6): 2.16e-9,
        (1e-5, 7): 9.41e-9, (1e-5, 8): 1.11e-8,
        (1e-7, 1): 3.17e-10, (1e-7, 2): 9.29e-9, (1e-7, 3): 4.59e-9,
        (1e-7, 4): 1.68e-8, (1e-7, 5): 1.59e-7, (1e-7, 6): 2.42e-7,
        (1e-7, 7): 1.17e-7, (1e-7, 8): 9.45e-7,
    }

    @pytest.mark.parametrize("delta, bits", sorted(MEASURED))
    def test_near_matched_pairs_against_40_digits(self, delta, bits):
        mp = pytest.importorskip("mpmath").mp
        r = report(Gaussian(0, 1), Gaussian(delta, 1), bits)
        q = lloyd_max_design(Gaussian(0, 1), bits)
        with mp.workdps(40):
            mu = mp.mpf(delta)

            def below(x):
                """``E[X^k 1{X < x}]``, k = 0, 1, 2, under N(mu, 1)."""
                if x == -mp.inf:
                    return (0, 0, 0)
                if x == mp.inf:
                    return (1, mu, mu * mu + 1)
                z = x - mu
                cdf, pdf = mp.ncdf(z), mp.npdf(z)
                return (cdf, mu * cdf - pdf, mu * mu * cdf - 2 * mu * pdf + cdf - z * pdf)

            edges = [-mp.inf, *map(mp.mpf, q.partition.boundaries), mp.inf]
            cum = [below(x) for x in edges]
            d_fix = excess = 0
            for i, a in enumerate(map(mp.mpf, q.design_codebook.values)):
                m0, m1, m2 = (hi - lo for lo, hi in zip(cum[i], cum[i + 1]))
                d_fix += m2 - 2 * a * m1 + a * a * m0
                excess += m0 * (a - m1 / m0) ** 2
            err_excess = abs(r.excess - excess) / excess
            err_gain = abs(r.relative_gain_pct - 100 * excess / d_fix) / (100 * excess / d_fix)
        assert max(float(err_excess), float(err_gain)) <= 10.0 * self.MEASURED[delta, bits]

    def test_excess_is_never_negative_on_the_hierarchy_setups(self):
        # The 500 setups of acceptance claim c05, drawn the same way.
        rng = np.random.default_rng(42)
        for _ in range(500):
            bits = int(rng.integers(1, 7))
            if rng.random() < 0.3:
                w = float(rng.uniform(0.2, 0.8))
                design = GaussianMixture((
                    (w, float(rng.uniform(-2, 2)), float(rng.uniform(0.5, 2))),
                    (1 - w, float(rng.uniform(-2, 2)), float(rng.uniform(0.5, 2)))))
            else:
                design = Gaussian(float(rng.uniform(-2, 2)), float(rng.uniform(0.3, 3)))
            if rng.random() < 0.3:
                true_d = Laplace(float(rng.uniform(-2, 2)), float(rng.uniform(0.3, 2)))
            else:
                true_d = Gaussian(float(rng.uniform(-2, 2)), float(rng.uniform(0.3, 3)))
            r = report(design, true_d, bits, max_iters=2000, init="cube_root")
            assert r.excess >= 0.0, (design, true_d, bits)
            assert r.relative_gain_pct >= 0.0, (design, true_d, bits)

    @pytest.mark.parametrize("bits", range(1, 9))
    def test_matched_truth_moves_no_codeword(self, bits):
        # The default mean_sweep's mu1 = 0 rows: the conditional means are
        # the design codewords bit for bit, so the gain is exactly zero.
        q = lloyd_max_design(Gaussian(0, 1), bits)
        gen = generative_codebook(q.partition, Gaussian(0.0, 1.0))
        assert gen.values == q.design_codebook.values
        r = report(Gaussian(0, 1), Gaussian(0.0, 1.0), bits)
        assert (r.excess, r.relative_gain_pct) == (0.0, 0.0)


class TestIdealDistortion:
    # Expanding sum(m2) - 2 c m1 + c^2 m0 about the origin cancels when
    # |mean| >> std: a redesign of each law on its own reported converged
    # designs whose d_ideal was off by 1.1e-2, 2.0 and 1.0 relative for
    # N(1e6, 1) at 4, 8 and 12 bits, 4.7 for N(1000, 1e-3) at 8 bits and
    # 0.33 and 1.0 for Laplace(-50, 1e-4) at 8 and 12 bits.
    @pytest.mark.parametrize("d, standard, scale", [
        (Gaussian(1e6, 1.0), Gaussian(), 1.0),
        (Gaussian(1000.0, 1e-3), Gaussian(), 1e-3),
        (Laplace(-50.0, 1e-4), Laplace(), 1e-4 / math.sqrt(0.5)),
    ])
    @pytest.mark.parametrize("bits", [4, 8, 12])
    def test_far_off_law_scales_the_standard_distortion(self, d, standard, scale, bits):
        want = scale * scale * ideal_distortion(standard, bits)
        assert ideal_distortion(d, bits) == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("init", ["quantile", "cube_root"])
    @pytest.mark.parametrize("d", [
        Gaussian(), Gaussian(2.5, 1.0), Gaussian(0.0, 3.7), Gaussian(-40.0, 0.02),
        Laplace(), Laplace(-1.5, 1.0 / math.sqrt(2.0)), Laplace(0.0, 2.2),
        Laplace(300.0, 0.05),
    ])
    def test_bitwise_equal_to_the_design_distortion(self, d, init):
        for bits in range(1, 13):
            want = lloyd_max_design(d, bits, init=init).distortion_history[-1]
            got = ideal_distortion(d, bits, init=init)
            assert type(got) is float and got == want, bits

    def test_coinciding_mapped_thresholds_still_scale_the_standard(self):
        # lloyd_max_design rejects this law (its mapped thresholds coincide),
        # but its redesign distortion is still scale**2 D* of N(0, 1).
        d = Gaussian(1e6, 1e-12)
        with pytest.raises(DegenerateDesign):
            lloyd_max_design(d, 8)
        assert ideal_distortion(d, 8) == 1e-12 * 1e-12 * ideal_distortion(Gaussian(), 8)

    @pytest.mark.parametrize("d", [
        Gaussian(), Gaussian(1.0, 2.0), Laplace(0.5, 2.0),
        GaussianMixture(((0.5, -1.5, 0.6), (0.5, 1.5, 0.6)))])
    @pytest.mark.parametrize("kwargs", [
        {"bits": 0}, {"bits": 17}, {"bits": 2.0}, {"bits": 3, "init": "uniform"},
        {"bits": 3, "max_iters": 0}])
    def test_bad_settings_raise(self, d, kwargs):
        with pytest.raises(ValueError):
            ideal_distortion(d, **kwargs)

    @pytest.mark.parametrize("d", [
        Gaussian(), Laplace(), GaussianMixture(((0.5, -1.5, 0.6), (0.5, 1.5, 0.6)))])
    def test_directly_designed_law_gives_the_expanded_sum(self, d):
        q = lloyd_max_design(d, 5)
        assert ideal_distortion(d, 5) == expected_distortion(
            q.partition, q.design_codebook, d)


class TestMonteCarloDistortion:
    def test_same_seed_same_answer(self):
        q = lloyd_max_design(Gaussian(0, 1), 2)
        a = monte_carlo_distortion(q.partition, q.design_codebook,
                                   Gaussian(0, 1.5), 10_000, seed=3)
        b = monte_carlo_distortion(q.partition, q.design_codebook,
                                   Gaussian(0, 1.5), 10_000, seed=3)
        assert a == b

    @pytest.mark.parametrize("design_d, true_d", [
        (Gaussian(0, 1), Gaussian(0.4, 1.3)),
        (Laplace(0.0, 1.0), Laplace(-0.3, 1.6)),
        (GaussianMixture(((0.5, -1.5, 0.6), (0.5, 1.5, 0.6))),
         GaussianMixture(((0.3, -1.0, 0.5), (0.7, 1.5, 1.2)))),
    ])
    @pytest.mark.parametrize("n", [2, 3, 7, 8, 9, 1_001, (1 << 14) - 1, 1 << 14, (1 << 14) + 1,
                                   3 * (1 << 14) + 5, 400_000])
    @pytest.mark.parametrize("bits", [1, 4, 7, 9])
    def test_is_the_mean_squared_error_of_one_seeded_draw(self, design_d,
                                                          true_d, n, bits):
        # Counted indices below 256 thresholds (1, 4 and 7 bits), searched
        # ones from 256 on (9 bits); sample sizes on both sides of the unrolled
        # blocks of numpy's pairwise sum and of the scorer's 2**14-draw
        # gather blocks.
        q = lloyd_max_design(design_d, bits)
        x = true_d.sample(5, n)
        err = np.square(x - q.design_codebook.as_array()[q.encode(x)])
        want = (float(np.mean(err)),
                float(np.std(err, ddof=1) / math.sqrt(n)))
        got = monte_carlo_distortion(q.partition, q.design_codebook, true_d,
                                     n, seed=5)
        assert got == want

    @pytest.mark.parametrize("bits", [1, 6, 7, 8, 9, 12])
    def test_report_scores_one_index_of_at_most_two_bytes_a_draw(self, bits, monkeypatch):
        # Records the index block of every gather from a codebook: the
        # scorer reads the codebooks with np.take, a block of draws a call.
        n, blocks, take = 20_000, [], np.take

        def recorder(a, indices, *args, **kwargs):
            blocks.append(indices)
            return take(a, indices, *args, **kwargs)

        monkeypatch.setattr(np, "take", recorder)
        true_d = Laplace(0.1, 0.9)
        r = report(Gaussian(), true_d, bits, mc_samples=n, seed=4)
        monkeypatch.undo()
        assert r.d_fix_mc is not None
        # Both codebooks read blocks of one shared index array, n draws each.
        shared = blocks[0].base
        assert shared is not None and all(b.base is shared for b in blocks)
        half = len(blocks) // 2
        idx = np.concatenate(blocks[:half])
        np.testing.assert_array_equal(np.concatenate(blocks[half:]), idx)
        assert idx.size == n and idx.itemsize == (1 if bits <= 8 else 2)
        q = lloyd_max_design(Gaussian(), bits)
        np.testing.assert_array_equal(idx, q.encode(true_d.sample(4, n)))

    @pytest.mark.parametrize("n", [100_000, 400_000])
    @pytest.mark.parametrize("bits", [4, 8, 10])
    def test_report_keeps_one_error_array_live(self, bits, n, traced_peak):
        # The draws (8 bytes each), their index (1 or 2) and one error array
        # (8): at 400,000 draws 17.4 n bytes at peak at 4 and 8 bits, 18.4 n
        # at 10, where searchsorted's intp result lives until its narrow
        # copy is made; the two 128 KB block temporaries add about 0.65 n
        # at 100,000 (26.1 n when every index went through intp, two error
        # arrays were live and np.std formed its own deviations).
        design_d, true_d = Laplace(), Laplace(0.2, 1.1)
        report(design_d, true_d, bits)  # designs and moment tables first
        r, peak = traced_peak(lambda: report(design_d, true_d, bits, mc_samples=n, seed=2))
        assert r.d_gen_mc is not None
        assert peak < 20 * n

    def test_seventeen_bit_indices_are_not_truncated(self):
        # 131,071 thresholds: the index needs more than two bytes.
        p = Partition(np.linspace(-6.0, 6.0, (1 << 17) - 1))
        c = Codebook(np.concatenate(([-6.0], p.as_array())))
        x = Gaussian(0.0, 3.0).sample(8, 20_000)
        err = np.square(x - c.as_array()[np.searchsorted(p.as_array(), x, side="right")])
        got = monte_carlo_distortion(p, c, Gaussian(0.0, 3.0), 20_000, seed=8)
        assert got == (float(np.mean(err)), float(np.std(err, ddof=1) / math.sqrt(20_000)))

    def test_tiny_sample_rejected(self):
        q = one_bit_quantizer(0.0, 1.0)
        with pytest.raises(ValueError):
            monte_carlo_distortion(q.partition, q.design_codebook,
                                   Gaussian(0, 1), 1, seed=0)

    @pytest.mark.parametrize("n", [1000.0, 2.5, True, "1000"])
    def test_sample_count_must_be_an_integer(self, n):
        # A float count once reached ``sample`` and raised numpy's TypeError.
        q = one_bit_quantizer(0.0, 1.0)
        with pytest.raises(ValueError, match="n_samples must be an integer"):
            monte_carlo_distortion(q.partition, q.design_codebook, Gaussian(0, 1), n, seed=1)


class TestOneBitGaussianReport:
    def test_agrees_with_interval_moment_machinery(self):
        cases = [
            (0.0, 1.0, 0.0, 2.0),
            (0.0, 1.0, 0.7, 1.3),
            (-0.4, 0.8, 0.9, 2.2),
            (1.0, 2.0, 1.0, 2.0),
        ]
        for mu0, s0, mu1, s1 in cases:
            fast = one_bit_gaussian_report(mu0, s0, mu1, s1)
            q = one_bit_quantizer(mu0, s0)
            d_fix = expected_distortion(q.partition, q.design_codebook,
                                        Gaussian(mu1, s1))
            gen = generative_codebook(q.partition, Gaussian(mu1, s1))
            d_gen = expected_distortion(q.partition, gen, Gaussian(mu1, s1))
            assert fast.d_fix == pytest.approx(d_fix, rel=1e-10)
            assert fast.d_min == pytest.approx(d_gen, rel=1e-10)

    def test_matched_case_gain_is_zero(self):
        r = one_bit_gaussian_report(0.0, 1.0, 0.0, 1.0)
        assert r.gain_pct == pytest.approx(0.0, abs=1e-12)
        assert r.alpha == 0.0

    def test_bad_scale_rejected(self):
        with pytest.raises(ValueError):
            one_bit_gaussian_report(0.0, -1.0, 0.0, 1.0)

    @pytest.mark.parametrize("args, name", [
        ((0.0, math.nan, 0.0, 1.0), "sigma0"), ((0.0, 1.0, 0.0, math.inf), "sigma1"),
        ((math.nan, 1.0, 0.0, 1.0), "mu0"), ((0.0, 1.0, -math.inf, 1.0), "mu1")])
    def test_non_finite_arguments_rejected(self, args, name):
        # NaN passed the old ``<= 0`` test and came back as NaN distortions.
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            one_bit_gaussian_report(*args)

    def test_quantizer_matches_design(self):
        q = one_bit_quantizer(0.5, 2.0)
        designed = lloyd_max_design(Gaussian(0.5, 2.0), 1)
        np.testing.assert_allclose(q.partition.boundaries,
                                   designed.partition.boundaries, atol=1e-10)
        np.testing.assert_allclose(q.design_codebook.as_array(),
                                   designed.design_codebook.as_array(), atol=1e-10)

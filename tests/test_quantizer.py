"""Quantizer structure and Lloyd-Max design tests.

The classical Gaussian values used as oracles here are recomputed from
scratch with an independent fixed-point iteration written directly against
erf, so they do not share code with the implementation under test.
"""

import itertools
import math
import os
import pickle
import re
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, linalg

import mismatch_quant
from mismatch_quant import (
    Codebook,
    DegenerateDesign,
    Gaussian,
    GaussianMixture,
    Laplace,
    NoisyDecoder,
    Partition,
    Quantizer,
    ZeroMassBin,
    bsc_channel,
    expected_distortion,
    generative_codebook,
    ideal_distortion,
    lloyd_max_design,
    lloyd_max_designs,
    monte_carlo_distortion,
    noisy_distortion,
    one_bit_quantizer,
    overload_split,
    rate_recovery_sweep,
    report,
    soft_codebook,
)
from mismatch_quant import quantizer
from mismatch_quant.distributions import _anchored, _ragged_blocks, _table_distortion
from mismatch_quant.quantizer import (
    _damped_newton_steps,
    _designs,
    _evaluator,
    _gaussian_half_tables,
    _laplace_half_states,
    _layout,
    _moment_table,
    _moment_tables,
    _partition_state,
    _per_run,
    _start_law,
    _table_states,
)

SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)
# The design mixture of the high_rate benchmark workload.
HIGH_RATE_MIXTURE = ((0.3, -1.5, 0.6), (0.4, 0.0, 0.8), (0.3, 1.5, 0.6))


def _image(components, loc, s):
    """The mixture of ``components`` moved by ``x -> loc + s * x``."""
    return GaussianMixture(tuple((w, loc + s * m, s * sd) for w, m, sd in components))


def _unmemoised_design(d, bits, max_iters, init):
    """The design iteration of ``lloyd_max_design`` on ``d`` itself, past
    the memo and the mapping of a location-scale law."""
    [q] = _designs([(d, bits)], max_iters, init)
    if not isinstance(q, Quantizer):
        raise q
    return q


def _reference_gaussian_design(n, iters=4000):
    """Independent Lloyd fixed point for N(0,1) via erf only."""

    def cdf(x):
        return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))

    def pdf(x):
        return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)

    # conditional mean on [a, b): (pdf(a) - pdf(b)) / (cdf(b) - cdf(a))
    levels = [Gaussian(0, 1).ppf((i + 0.5) / n) for i in range(n)]
    for _ in range(iters):
        cuts = [(levels[i] + levels[i + 1]) / 2 for i in range(n - 1)]
        edges = [-math.inf] + cuts + [math.inf]
        new = []
        for a, b in zip(edges[:-1], edges[1:]):
            pa = pdf(a) if math.isfinite(a) else 0.0
            pb = pdf(b) if math.isfinite(b) else 0.0
            ca = cdf(a) if math.isfinite(a) else 0.0
            cb = cdf(b) if math.isfinite(b) else 1.0
            new.append((pa - pb) / (cb - ca))
        levels = new
    cuts = [(levels[i] + levels[i + 1]) / 2 for i in range(n - 1)]
    return cuts, levels


class TestPartition:
    def test_boundary_count_must_fit_power_of_two(self):
        with pytest.raises(ValueError):
            Partition((0.0, 1.0))  # 3 bins

    def test_boundaries_must_increase(self):
        with pytest.raises(ValueError):
            Partition((1.0, 0.0, 2.0))

    def test_bits_property(self):
        p = Partition((-1.0, 0.0, 1.0))
        assert p.n_bins == 4
        assert p.bits == 2

    def test_encode_is_zero_based_and_half_open(self):
        p = Partition((-1.0, 0.0, 1.0))
        x = np.array([-5.0, -1.0, -0.5, 0.0, 0.99, 1.0, 7.0])
        np.testing.assert_array_equal(p.encode(x), [0, 1, 1, 2, 2, 3, 3])

    def test_one_bit_sign_encoding(self):
        p = Partition((0.0,))
        assert p.encode(np.array([-0.3]))[0] == 0
        assert p.encode(np.array([0.0]))[0] == 1

    @pytest.mark.parametrize("bad", [
        (), (math.nan,), (0.0, math.inf, 1.0), (1.0, 1.0, 2.0), (0.0, 1.0),
        ((0.0, 1.0), (2.0, 3.0), (4.0, 5.0)), ("a",),
    ])
    def test_rejects_malformed_boundaries(self, bad):
        with pytest.raises(ValueError):
            Partition(bad)

    def test_stores_the_given_floats(self):
        t = np.sort(np.random.default_rng(3).normal(size=4095))
        p = Partition(t)
        assert type(p.boundaries) is tuple
        assert all(type(b) is float for b in p.boundaries)
        assert p.boundaries == tuple(float(b) for b in t)
        assert Partition((-1, 0, 2)).boundaries == (-1.0, 0.0, 2.0)

    def test_intervals_tile_the_line(self):
        # Bin i is [edges[i], edges[i + 1]); consecutive bins share an edge.
        p = Partition((-2.0, 0.0, 2.0))
        edges = p.edges()
        assert edges.tolist() == [-math.inf, -2.0, 0.0, 2.0, math.inf]
        assert len(edges) == p.n_bins + 1


# Every public reader of a table against a partition, given a table of the
# wrong size.  Under FAR, bins 0-2 of P2 are empty, so a fallback is read.
P1, P2 = Partition((0.0,)), Partition((-1.0, 0.0, 1.0))
BOOK2, BOOK4 = Codebook((-1.0, 1.0)), Codebook((-1.5, -0.5, 0.5, 1.5))
FAR = Gaussian(50.0, 0.1)
SEPARATED2 = NoisyDecoder("standard_separation", BOOK2)
WRONG_SIZE = {
    "Quantizer": lambda: Quantizer(P1, BOOK4, Gaussian()),
    "decode": lambda: one_bit_quantizer(0.0, 1.0).decode(np.array([0, 1]), BOOK4),
    "expected_distortion": lambda: expected_distortion(P1, BOOK4, Gaussian()),
    "monte_carlo_distortion": lambda: monte_carlo_distortion(P1, BOOK4, Gaussian(), 100, 1),
    "overload_split": lambda: overload_split(P1, BOOK4, Gaussian()),
    "generative_codebook": lambda: generative_codebook(P2, FAR, Codebook((7.0,))),
    "soft_codebook-fallback1": lambda: soft_codebook(P2, FAR, bsc_channel(2, 0.1), Codebook((7.0,))),
    "soft_codebook-fallback2": lambda: soft_codebook(P2, FAR, bsc_channel(2, 0.1), BOOK2),
    "soft_codebook-channel": lambda: soft_codebook(P2, Gaussian(), bsc_channel(1, 0.1)),
    "noisy_distortion-table": lambda: noisy_distortion(P2, bsc_channel(2, 0.1), SEPARATED2, Gaussian()),
    "noisy_distortion-channel": lambda: noisy_distortion(P1, bsc_channel(2, 0.1), SEPARATED2, Gaussian()),
}


@pytest.mark.parametrize("call", WRONG_SIZE.values(), ids=WRONG_SIZE.keys())
def test_a_table_of_the_wrong_size_is_rejected(call):
    with pytest.raises(ValueError, match=r"(Codebook|Channel) size \d+ does not match \d+ bins"):
        call()


class TestCodebook:
    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            Codebook((0.0, math.inf))

    def test_array_round_trip(self):
        c = Codebook((-1.0, 1.0))
        np.testing.assert_array_equal(c.as_array(), [-1.0, 1.0])

    @pytest.mark.parametrize("bad", [(), (math.nan, 0.0), ((1.0,),), ("x",)])
    def test_rejects_malformed_values(self, bad):
        with pytest.raises(ValueError):
            Codebook(bad)

    def test_stores_the_given_floats(self):
        v = np.random.default_rng(4).normal(size=64)
        assert Codebook(v).values == tuple(float(x) for x in v)
        assert all(type(x) is float for x in Codebook([1, 2]).values)


class TestCentroidCodebook:
    def test_one_bit_gaussian(self):
        c = generative_codebook(Partition((0.0,)), Gaussian(0, 2.0))
        assert c.values[0] == pytest.approx(-2.0 * SQRT_2_OVER_PI, abs=1e-14)
        assert c.values[1] == pytest.approx(2.0 * SQRT_2_OVER_PI, abs=1e-14)

    def test_shifted_one_bit_uses_both_mills_ratios(self):
        mu1, s1 = 0.7, 1.4
        c = generative_codebook(Partition((0.0,)), Gaussian(mu1, s1))
        a = -mu1 / s1
        phi = math.exp(-0.5 * a * a) / math.sqrt(2 * math.pi)
        big_phi = 0.5 * (1.0 + math.erf(a / math.sqrt(2)))
        lam_l = phi / big_phi
        lam_r = phi / (1.0 - big_phi)
        assert c.values[0] == pytest.approx(mu1 - s1 * lam_l, rel=1e-12)
        assert c.values[1] == pytest.approx(mu1 + s1 * lam_r, rel=1e-12)

    def test_design_codebook_is_a_fixed_point(self):
        q = lloyd_max_design(Gaussian(0, 1), 3)
        again = generative_codebook(q.partition, Gaussian(0, 1))
        np.testing.assert_allclose(again.as_array(),
                                   q.design_codebook.as_array(), atol=1e-12)

    def test_empty_bin_raises_with_indices(self):
        p = Partition((50.0, 51.0, 52.0))
        with pytest.raises(ZeroMassBin):
            generative_codebook(p, Gaussian(0, 1))


class TestLloydMaxDesign:
    def test_one_bit_gaussian_closed_form(self):
        q = lloyd_max_design(Gaussian(0, 1), 1)
        assert q.partition.boundaries == pytest.approx((0.0,), abs=1e-12)
        np.testing.assert_allclose(
            q.design_codebook.as_array(),
            [-SQRT_2_OVER_PI, SQRT_2_OVER_PI], atol=1e-11)

    def test_two_bit_gaussian_against_independent_fixed_point(self):
        cuts, levels = _reference_gaussian_design(4)
        q = lloyd_max_design(Gaussian(0, 1), 2)
        np.testing.assert_allclose(q.partition.boundaries, cuts, atol=1e-9)
        np.testing.assert_allclose(q.design_codebook.as_array(), levels, atol=1e-9)
        # classical published values
        np.testing.assert_allclose(q.partition.boundaries,
                                   [-0.9816, 0.0, 0.9816], atol=1e-4)
        np.testing.assert_allclose(q.design_codebook.as_array(),
                                   [-1.510, -0.4528, 0.4528, 1.510], atol=1e-3)

    def test_four_bit_outer_entries_match_classical_table(self):
        q = lloyd_max_design(Gaussian(0, 1), 4)
        assert q.partition.boundaries[-1] == pytest.approx(2.4008, abs=2e-4)
        assert q.design_codebook.values[-1] == pytest.approx(2.7326, abs=2e-4)

    def test_symmetric_law_yields_symmetric_design(self):
        q = lloyd_max_design(Laplace(0.0, 1.0), 3)
        b = np.array(q.partition.boundaries)
        v = q.design_codebook.as_array()
        np.testing.assert_allclose(b, -b[::-1], atol=1e-9)
        np.testing.assert_allclose(v, -v[::-1], atol=1e-9)

    def test_one_bit_boundary_sits_at_the_mean(self):
        q = lloyd_max_design(Gaussian(1.7, 0.4), 1)
        assert q.partition.boundaries[0] == pytest.approx(1.7, abs=1e-10)

    def test_distortion_history_non_increasing(self):
        # The scale mixture at 4 bits is a case where an unguarded Newton
        # step from the quantile start would raise the distortion.
        for d, bits in ((Gaussian(0, 1), 3), (Laplace(0.0, 0.8), 3),
                        (GaussianMixture(((0.5, -1.5, 0.6), (0.5, 1.5, 0.6))), 3),
                        (GaussianMixture(((0.9, 0.0, 1.0), (0.1, 0.0, 10.0))), 4)):
            q = lloyd_max_design(d, bits)
            h = np.array(q.distortion_history)
            assert np.all(np.diff(h) <= 1e-14)

    def test_both_optimality_conditions_hold(self):
        q = lloyd_max_design(Gaussian(0.3, 1.1), 3)
        v = q.design_codebook.as_array()
        midpoints = 0.5 * (v[:-1] + v[1:])
        np.testing.assert_allclose(q.partition.boundaries, midpoints, atol=1e-12)
        cents = generative_codebook(q.partition, Gaussian(0.3, 1.1)).as_array()
        np.testing.assert_allclose(v, cents, atol=1e-12)

    def test_returned_codebook_is_exactly_centroidal(self):
        # The codebook is the centroid table of the returned partition by
        # construction, so the equality is bitwise, not just within tol.
        q = lloyd_max_design(Laplace(0.2, 0.9), 2)
        cents = generative_codebook(q.partition, Laplace(0.2, 0.9))
        assert q.design_codebook.values == cents.values

    def test_cube_root_init_reaches_the_same_design(self):
        qa = lloyd_max_design(Gaussian(0, 1), 4, max_iters=20_000)
        qb = lloyd_max_design(Gaussian(0, 1), 4, max_iters=20_000, init="cube_root")
        np.testing.assert_allclose(qa.design_codebook.as_array(),
                                   qb.design_codebook.as_array(), atol=1e-8)

    @pytest.mark.parametrize("d", [
        Gaussian(0.3, 1.1), Laplace(0.0, 0.8),
        GaussianMixture(((0.3, -5e4, 1.0), (0.7, 5e4, 2.0)))])
    def test_cube_root_start_matches_a_fine_grid(self, d):
        # Trapezoid quantiles of f^{1/3} on 2^20 points a centre, spanning 40
        # cube-root standard deviations either side of it.  The mixture's
        # components do not overlap, so its start law is f^{1/3} normalised.
        n = 4096
        q = (np.arange(n) + 0.5) / n
        spans = ([(m, s) for _, m, s in d.components] if isinstance(d, GaussianMixture)
                 else [(d.mean, d.std)])
        grid = np.concatenate([np.linspace(m - 40.0 * math.sqrt(3.0) * s,
                                           m + 40.0 * math.sqrt(3.0) * s, 1 << 20)
                               for m, s in spans])
        weight = np.cbrt(d.pdf(grid))
        cdf = np.concatenate(([0.0], np.cumsum((weight[1:] + weight[:-1]) * np.diff(grid))))
        ref = np.interp(q, cdf / cdf[-1], grid)
        np.testing.assert_allclose(_start_law(d, "cube_root").ppf(q), ref, rtol=0.0, atol=1e-7)

    @pytest.mark.parametrize("bits", [3, 6])
    def test_an_overlapping_mixture_starts_at_its_components_cube_root_laws(
            self, bits, monkeypatch):
        # Component j becomes N(m_j, sqrt(3) s_j), weighted by its own
        # f_j^{1/3} mass w_j^{1/3} s_j^{2/3}; the design starts bit for bit
        # at the (i + 0.5) / N quantiles of that mixture.
        d = GaussianMixture(((0.3, -1.5, 0.6), (0.4, 0.0, 0.8), (0.3, 1.5, 0.6)))
        mass = [w ** (1.0 / 3.0) * s ** (2.0 / 3.0) for w, _, s in d.components]
        law = _start_law(d, "cube_root")
        np.testing.assert_allclose(
            law.components,
            [(v / sum(mass), m, math.sqrt(3.0) * s) for v, (_, m, s) in zip(mass, d.components)],
            rtol=1e-15, atol=0.0)
        starts = []
        start_codebooks = quantizer._start_codebooks

        def recording(kind, pairs, init):
            out = start_codebooks(kind, pairs, init)
            starts.extend(codebook.copy() for codebook in out)
            return out

        monkeypatch.setattr(quantizer, "_start_codebooks", recording)
        monkeypatch.setattr(quantizer, "_STANDARD_DESIGNS", {})
        assert lloyd_max_design(d, bits, init="cube_root").converged
        n = 1 << bits
        np.testing.assert_array_equal(starts, [law.ppf((np.arange(n) + 0.5) / n)])

    @pytest.mark.parametrize("w", [0.5, 0.3, 0.1, 0.01])
    @pytest.mark.parametrize("bits", [2, 3, 4])
    def test_components_far_apart_converge_from_the_cube_root_start(self, w, bits):
        # Each component's cube-root law starts its own codewords, so none
        # starts in the gap, where a bin would hold no design mass.
        d = GaussianMixture(((w, -5e4, 1.0), (1.0 - w, 5e4, 1.0)))
        assert lloyd_max_design(d, bits, init="cube_root").converged

    @pytest.mark.parametrize("d", [
        Gaussian(0.2, 1.3), Laplace(0.1, 0.7),
        GaussianMixture(((0.3, -1.5, 0.6), (0.4, 0.0, 0.8), (0.3, 1.5, 0.6)))])
    @pytest.mark.parametrize("bits", [4, 8, 12])
    def test_quantile_and_cube_root_starts_agree(self, d, bits):
        qa = lloyd_max_design(d, bits)
        qb = lloyd_max_design(d, bits, init="cube_root")
        assert qa.converged and qb.converged
        ta = np.asarray(qa.partition.boundaries)
        tb = np.asarray(qb.partition.boundaries)
        # A Laplace law is mapped from the half-line design of Laplace(),
        # whose centre threshold is pinned at 0: the two starts agree to
        # 1.2e-15 at 4 bits, 2.7e-15 at 8 and 4.2e-12 at 12 (near t = -8.0).
        # The Gaussian is mapped from Gaussian()'s half-line design too:
        # 7.1e-15, 2.6e-13 and 4.0e-11.
        # On the full line the residual's Jacobian at the Laplace design is
        # numerically singular (smallest |eigenvalue| 2.5e-13 at 3 bits,
        # 5.6e-13 at 8; the Gaussian's is 3.7e-5 at 8 bits and 1.5e-7 at
        # 12), along a uniform translation of every threshold, and there the
        # two starts ended 2.1e-9 apart at 12 bits; the 12-bit Laplace atol
        # covers that full-line gap.
        atol = 5e-8 if isinstance(d, Laplace) and bits == 12 else 1e-9
        np.testing.assert_allclose(ta, tb, rtol=0.0, atol=atol)
        assert qa.distortion_history[-1] == pytest.approx(
            qb.distortion_history[-1], rel=1e-12)

    def test_cube_root_init_converges_design_distortion_fast(self):
        # The point-density start reaches the 10-bit optimum well inside this
        # budget.  The reference is the converged design distortion from
        # bench/oracle.py's design() (Newton on the thresholds in 50-digit
        # mpmath, residual below 1e-35); it sits 2.04e-3 below the
        # Panter-Dite floor sqrt(3) pi / (2 N^2).
        q = lloyd_max_design(Gaussian(0, 1), 10, max_iters=300, init="cube_root")
        assert q.converged
        assert q.distortion_history[-1] == pytest.approx(
            2.5893758376188149567e-06, rel=1e-9)

    def test_a_fourteen_bit_mixture_cube_root_start_stays_in_its_memory(self, traced_peak):
        # The cube-root start solves the quantiles of the components'
        # cube-root mixture on (10, 16,384) component-by-quantile arrays.
        # This design peaked at 7,661,249 bytes under tracemalloc; the bound
        # is 1.2 times that.
        mix = GaussianMixture(tuple((0.1, j - 4.5, 0.5 + 0.05 * j) for j in range(10)))
        q, peak = traced_peak(lambda: lloyd_max_design(mix, 14, init="cube_root"))
        assert q.converged
        assert peak <= 1.2 * 7_661_249

    @pytest.mark.parametrize("d", [
        Gaussian(0.3, 1.1), Laplace(0.0, 0.8),
        GaussianMixture(((0.5, -1.5, 0.6), (0.5, 1.5, 0.6)))])
    def test_default_designs_converge_at_every_bit_depth(self, d):
        for bits in range(1, 13):
            q = lloyd_max_design(d, bits)
            t = np.array(q.partition.boundaries)
            v = q.design_codebook.as_array()
            scale = max(1.0, float(np.max(np.abs(t))))
            assert q.converged, (bits, q.iterations, q.residual)
            assert q.iterations == len(q.distortion_history) - 1
            assert q.residual == float(np.max(np.abs(t - 0.5 * (v[:-1] + v[1:]))))
            assert q.residual <= 1e-12 * scale, (bits, q.residual)

    @pytest.mark.parametrize("s", [1e-3, 1e-9, 1e-100, 1e-200])
    def test_a_law_of_small_spread_is_designed_as_its_unit_image(self, s):
        # The stop tests scale with max(1, max|t|) of the standard member,
        # whose spread is at least 1/16.  Designed in place with that scale,
        # this mixture scaled by 1e-9 stopped after 1 iteration and by 1e-100
        # after 0, each reporting converged with its thresholds 0.78-0.85 s
        # off the unit design.
        unit = lloyd_max_design(GaussianMixture(HIGH_RATE_MIXTURE), 7)
        q = lloyd_max_design(_image(HIGH_RATE_MIXTURE, 0.0, s), 7)
        assert q.converged and q.iterations == unit.iterations
        assert np.max(np.abs(q.partition.as_array() / s - unit.partition.as_array())) <= 1e-12

    @pytest.mark.parametrize("loc, s", [(1e3, 1.0), (1e6, 1.0), (0.0, 1e-9), (0.0, 1e9),
                                        (1e6, 1e-3)])
    @pytest.mark.parametrize("base", [HIGH_RATE_MIXTURE, ((0.7, 0.0, 1.0), (0.3, 3.0, 0.3))],
                             ids=["high_rate", "skewed"])
    def test_a_moved_mixture_is_designed_as_its_unit_image(self, base, loc, s):
        # Designed in place, the high_rate mixture moved by (1e6, 1e-3)
        # stopped after 1 iteration at 4-10 bits, reporting converged with
        # d_fix up to 40 times s^2 that of the unit law at 10 bits.  The
        # bounds allow 8 ulps of loc in the thresholds of the image.
        true = ((0.25, -1.4, 0.7), (0.45, 0.1, 0.9), (0.3, 1.6, 0.65))
        off = 8.0 * math.ulp(loc) / s
        for bits in range(2, 11):
            unit = lloyd_max_design(GaussianMixture(base), bits)
            q = lloyd_max_design(_image(base, loc, s), bits)
            t0 = unit.partition.as_array()
            assert q.converged and abs(q.iterations - unit.iterations) <= 2, bits
            gap = np.max(np.abs((q.partition.as_array() - loc) / s - t0))
            assert gap <= off + 1e-10 * max(1.0, float(np.max(np.abs(t0)))), bits
            want = report(GaussianMixture(base), GaussianMixture(true), bits)
            got = report(_image(base, loc, s), _image(true, loc, s), bits)
            for name, a, b in [("design", q.distortion_history[-1], unit.distortion_history[-1]),
                               *((k, getattr(got, k), getattr(want, k))
                                 for k in ("d_fix", "d_gen", "d_ideal"))]:
                assert a == pytest.approx(s * s * b, rel=1e-9 + off, abs=0.0), (bits, name)

    def test_iteration_cap_is_reported(self):
        q = lloyd_max_design(Laplace(0.0, math.sqrt(0.5)), 10, max_iters=1)
        assert q.converged is False
        assert q.iterations == 1
        assert len(q.distortion_history) == 2
        assert q.residual > 1e-6

    def test_convergence_record_is_not_part_of_equality_or_record(self):
        q = lloyd_max_design(Gaussian(0, 1), 2)
        bare = Quantizer(q.partition, q.design_codebook, q.design_law)
        assert (bare.converged, bare.iterations) == (False, 0)
        assert bare.distortion_history == ()
        assert math.isnan(bare.residual)
        assert q == bare
        assert q.to_record() == bare.to_record()
        assert set(q.to_record()) == {"bits", "boundaries", "codebook", "design_law"}

    def test_invalid_bits_rejected(self):
        with pytest.raises(ValueError):
            lloyd_max_design(Gaussian(0, 1), 0)
        with pytest.raises(ValueError):
            lloyd_max_design(Gaussian(0, 1), 17)
        with pytest.raises(ValueError, match="got True"):
            lloyd_max_design(Gaussian(0, 1), True)
        with pytest.raises(ValueError):
            lloyd_max_design(Gaussian(0, 1), 2, init="kmeans")

    @pytest.mark.parametrize("cap", [0, -3, 2.5, True, False, math.nan, math.inf, "500", None])
    def test_invalid_max_iters_rejected(self, cap):
        # Any integer but a bool of at least 1 is an iteration cap.  Unchecked,
        # 2.5 ran 2 iterations, True 1, NaN and inf ran uncapped, and "500"
        # raised TypeError.
        with pytest.raises(ValueError, match=f"max_iters must be an integer of at least 1, "
                                             f"got {re.escape(repr(cap))}"):
            lloyd_max_design(Gaussian(), 4, max_iters=cap)
        with pytest.raises(ValueError, match="max_iters"):
            report(Gaussian(), Laplace(), 4, max_iters=cap)
        with pytest.raises(ValueError, match="max_iters"):
            rate_recovery_sweep(Gaussian(), Laplace(), [4], max_iters=cap)

    def test_a_numpy_integer_is_an_iteration_cap(self, monkeypatch):
        # Kept in the memo as an int, so it shares the design of the int cap.
        monkeypatch.setattr(quantizer, "_STANDARD_DESIGNS", {})
        q = lloyd_max_design(Laplace(), 10, max_iters=np.int64(3))
        assert [type(key[2]) for key in quantizer._STANDARD_DESIGNS] == [int]
        assert (q.iterations, q.converged) == (3, False)
        assert _same_design(q, lloyd_max_design(Laplace(), 10, max_iters=3))
        assert len(quantizer._STANDARD_DESIGNS) == 1

    def test_a_numpy_integer_is_a_bit_depth(self, monkeypatch):
        # Any integer but a bool is a bit depth, kept in the memo as an int.
        monkeypatch.setattr(quantizer, "_STANDARD_DESIGNS", {})
        q = lloyd_max_design(Gaussian(0.5, 2.0), np.int64(4))
        assert [key[1] for key in quantizer._STANDARD_DESIGNS] == [4]
        assert all(type(key[1]) is int for key in quantizer._STANDARD_DESIGNS)
        assert _same_design(q, lloyd_max_design(Gaussian(0.5, 2.0), 4))
        assert lloyd_max_designs([Laplace()], np.uint8(3)) == lloyd_max_designs([Laplace()], 3)

    def test_empirical_bin_means_match_codebook(self):
        """Encode a large sample; per-bin averages approximate the codebook."""
        d = Gaussian(0, 1)
        q = lloyd_max_design(d, 2)
        x = d.sample(31, 1_000_000)
        idx = q.encode(x)
        for i in range(4):
            sel = x[idx == i]
            se = np.std(sel, ddof=1) / math.sqrt(len(sel))
            assert abs(np.mean(sel) - q.design_codebook.values[i]) < 5 * se

    def test_design_distortion_matches_quadrature(self):
        q = lloyd_max_design(Gaussian(0, 1), 3)
        table = q.design_codebook.as_array()
        cuts = np.array(q.partition.boundaries)

        def err(x):
            i = np.searchsorted(cuts, x, side="right")
            return (x - table[i]) ** 2 * math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)

        want, _ = integrate.quad(err, -12, 12, limit=500,
                                 points=list(cuts))
        assert q.distortion_history[-1] == pytest.approx(want, rel=1e-8)


class TestHalfLineLaplaceDesign:
    """``Laplace()`` is solved on its positive half-line, with the centre
    threshold pinned at 0, and mirrored."""

    @pytest.mark.parametrize("init", ["quantile", "cube_root"])
    def test_thresholds_mirror_bit_for_bit(self, init):
        for bits in range(1, 17):
            t = np.asarray(lloyd_max_design(Laplace(), bits, init=init).partition.boundaries)
            c = len(t) // 2
            assert t[c] == 0.0, bits
            assert np.array_equal(t[:c][::-1], -t[c + 1:]), bits
            for loc, s in ((-3.0, 0.3), (0.5, 5.0), (-50.0, 1e-4)):
                mapped = lloyd_max_design(Laplace(loc, s), bits, init=init)
                assert mapped.partition.boundaries[c] == loc, (bits, loc, s)

    @pytest.mark.parametrize("init", ["quantile", "cube_root"])
    def test_thresholds_match_the_recursion(self, init, laplace_recursion):
        # Worst measured gap, in units of max(1, |t|): at 1-12 bits 4.2e-12
        # (12 bits, quantile start; 6.9e-15 from the cube-root start); at
        # 13-14 bits 2.3e-9 (13 bits, quantile start, as with the general
        # kernel; 4.4e-14 from the cube-root start).  That design stops on
        # its residual, 4 eps max|t|, while the thresholds near t = 1 are
        # still 2.3e-9 off.  A full-line solve, whose centre drifts along the
        # translation mode, was off by up to 1.5e-9 at 12 bits.
        for bits in range(1, 15):
            t = np.asarray(lloyd_max_design(Laplace(), bits, init=init).partition.boundaries)
            want = laplace_recursion(bits)
            bound = 2e-11 if bits <= 12 else 5e-9
            assert np.all(np.abs(t - want) <= bound * np.maximum(1.0, np.abs(want))), bits

    @pytest.mark.parametrize("d", [Laplace(), Gaussian()], ids=["Laplace", "Gaussian"])
    def test_a_rejected_step_is_followed_by_lloyd_then_undamped_newton(
            self, d, monkeypatch, laplace_recursion):
        # The damping starts at 0, and a rejection multiplies it by 4, so it
        # stays 0: each rejected Newton step is replaced by one Lloyd step
        # and the next Newton step is again undamped.  The Laplace design is
        # held to the recursion, the Gaussian one to the unpatched design.
        design = _unmemoised_design
        want = (laplace_recursion(8) if isinstance(d, Laplace)
                else np.asarray(design(d, 8, 500, "quantile").partition.boundaries))
        dampings = []

        def first_fails(f, t, mass, c, r, damping, layout):
            dampings.extend(damping.tolist())  # one run
            step, solved = _damped_newton_steps(f, t, mass, c, r, damping, layout)
            return step, solved & (len(dampings) > 1)

        monkeypatch.setattr(quantizer, "_damped_newton_steps", first_fails)
        q = design(d, 8, 500, "quantile")
        assert len(dampings) > 2 and set(dampings) == {0.0}
        assert q.converged and q.iterations == len(dampings)
        t = np.asarray(q.partition.boundaries)
        assert np.all(np.abs(t - want) <= 2e-11 * np.maximum(1.0, np.abs(want)))


class TestHalfLineGaussianDesign:
    """``Gaussian()`` takes the half-line path of ``Laplace()``: a
    log-concave law has one fixed point, so a symmetric one has a symmetric
    design.  16 bits is left out: its cube-root design runs to the cap."""

    @pytest.mark.parametrize("init", ["quantile", "cube_root"])
    def test_thresholds_mirror_bit_for_bit(self, init):
        for bits in range(1, 16):
            t = np.asarray(lloyd_max_design(Gaussian(), bits, init=init).partition.boundaries)
            c = len(t) // 2
            assert t[c] == 0.0, bits
            assert np.array_equal(t[:c][::-1], -t[c + 1:]), bits
            for loc, s in ((-3.0, 0.3), (0.5, 5.0), (-50.0, 1e-4)):
                mapped = lloyd_max_design(Gaussian(loc, s), bits, init=init)
                assert mapped.partition.boundaries[c] == loc, (bits, loc, s)

    @pytest.mark.parametrize("init", ["quantile", "cube_root"])
    def test_few_iterations_at_every_bit_depth(self, init):
        # Measured: 4-8 iterations.
        for bits in range(2, 16):
            q = lloyd_max_design(Gaussian(), bits, init=init)
            assert q.converged and q.iterations <= 10, (bits, q.iterations)

    @pytest.mark.parametrize("init", ["quantile", "cube_root"])
    def test_thresholds_match_40_digits(self, init, gaussian_mp_design):
        # Worst measured gap: 4.7e-14·max(1, |t|) at 6 bits (quantile start).
        for bits in range(2, 7):
            t = np.asarray(lloyd_max_design(Gaussian(), bits, init=init).partition.boundaries)
            want = np.array([float(x) for x in gaussian_mp_design(bits)])
            assert np.all(np.abs(t - want) <= 1e-13 * np.maximum(1.0, np.abs(want))), bits


def _general_half_line_state(d, t):
    """Masses, centroids, design distortion, midpoint residual and second
    moments about the anchors of ``d`` on the bins ``[0, t..., inf)`` from its
    general kernel and ``_table_distortion``: the reference the Gaussian
    half-line state keeps."""
    table = _anchored(d, np.concatenate(([0.0], t, [np.inf])))
    e, mass, m1, m2 = table
    c = e + m1 / mass
    return (mass, c, _table_distortion(table, c - e, (c - e) * (c - e)),
            t - 0.5 * (c[:-1] + c[1:]), m2)


def _one_run(d, t):
    """The round state (``_evaluator``) of ``d`` alone at the thresholds ``t``."""
    return _evaluator(type(d), [d])(np.array([0]), t, _layout(np.array([len(t)])))


class TestHalfLineState:
    """The half-line design state of ``Gaussian()`` (bit for bit the general
    kernel's) and of ``Laplace()`` (closed form, against 40 digits), and the
    one full-line evaluation that finishes either design."""

    @pytest.mark.parametrize("bits", range(1, 16))
    def test_gaussian_state_is_the_general_kernel(self, bits):
        d = Gaussian()
        t = lloyd_max_design(d, bits).partition.as_array()
        t = t[len(t) // 2 + 1:]
        # Each threshold moved by at most a quarter of the gap below it.
        perturbed = t + 0.25 * np.diff(t, prepend=0.0) * np.sin(np.arange(len(t)))
        for t in (t, perturbed):
            assert np.all(np.diff(t, prepend=0.0) > 0.0)
            s = _one_run(d, t)
            *_, m2, f = _gaussian_half_tables(t, s.layout)
            got = (s.mass, s.c, s.distortion[0], s.r, m2)
            for g, w in zip(got, _general_half_line_state(d, t)):
                assert np.array_equal(g, w), bits
            assert np.array_equal(s.f, d.pdf(t)) and np.array_equal(f, s.f)

    @pytest.mark.parametrize("init", ["quantile", "cube_root"])
    @pytest.mark.parametrize("d", [Gaussian(), Laplace()])
    def test_a_finished_design_is_its_mirrored_partition_state(self, d, init):
        # Codebook, residual and last distortion are those of the full-line
        # partition (-t[::-1], 0, t) under the law, t the positive thresholds.
        for bits in range(1, 17):
            q = _unmemoised_design(d, bits, 500, init)
            full = q.partition.as_array()
            t = full[len(full) // 2 + 1:]
            mirrored = np.concatenate((-t[::-1], [0.0], t))
            assert np.array_equal(full, mirrored), bits
            _, c, r, distortion = _partition_state(d, mirrored)
            assert np.array_equal(q.design_codebook.as_array(), c), bits
            assert q.residual == float(np.max(np.abs(r))), bits
            assert q.distortion_history[-1] == distortion, bits

    @pytest.mark.parametrize("lo", [0.0, 0.5, 3.0, 12.0, 30.0])
    def test_laplace_masses_and_centroids_against_40_digits(self, lo, mp_raw_moment):
        # Bins [lo, lo + w), w = 1e-6 ... 10, and the outer bin after each.
        # At lo = 0 the centroid is the offset g itself, which depends on w
        # alone.  Rounding lo / b moves e^(-lo/b), so the mass, by up to
        # lo/b eps/2 relative in any double evaluation (2.6e-15 measured at
        # lo = 30); elsewhere the worst measured is 7.5e-16, and 1.2e-16 for g.
        d = Laplace()
        eps = np.finfo(float).eps
        for w in 10.0 ** np.arange(-6, 2):
            hi = lo + w
            t = np.array([hi]) if lo == 0.0 else np.array([lo, hi])
            mass, c, _, f, _ = _laplace_half_states(t, _layout(np.array([len(t)])))
            for i, (a, z) in enumerate(((lo, hi), (hi, math.inf)), start=len(t) - 1):
                m0, m1 = (mp_raw_moment(d, a, z, k) for k in (0, 1))
                assert abs(float(mass[i] / m0 - 1)) <= 1e-15 + a / d.scale * eps / 2, (lo, w)
                assert abs(float(c[i] / (m1 / m0) - 1)) <= 1e-15, (lo, w)
            assert np.array_equal(f, d.pdf(t))

    @pytest.mark.parametrize("bits", [1, 2, 3, 7, 12])
    def test_one_run_laplace_sums_are_the_one_run_formulas(self, bits, monkeypatch):
        # A run alone sums over its layout's one block, bit for bit
        # mass.dot(var) of the run's own arrays.
        calls = []

        def recorded(blocks, a, b=None):
            calls.append((a, b))
            return _per_run(blocks, a, b)

        t = lloyd_max_design(Laplace(), bits).partition.as_array()
        t = t[len(t) // 2 + 1:]
        monkeypatch.setattr(quantizer, "_per_run", recorded)
        *_, distortion = _laplace_half_states(t, _layout(np.array([len(t)])))
        [(mass, var)] = calls
        assert len(mass) == len(t) + 1
        assert distortion.tolist() == [mass.dot(var)]

    def test_a_twelve_bit_design_reads_the_general_kernel_once(self, kernel_calls):
        # Each family's rounds are closed form; its final full-line table is
        # the one general kernel call.
        design = _unmemoised_design
        gaussian, laplace = kernel_calls(Gaussian), kernel_calls(Laplace)
        for d in (Gaussian(), Laplace()):
            assert design(d, 12, 500, "quantile").converged
        assert gaussian == [Gaussian()] and laplace == [Laplace()]


class TestDesignState:
    """``_table_states`` is the one design state, for one run and many: of
    a round's runs, of a mirrored half-line partition and of a mapped law
    (``_partition_state``), each run's sums taken over ``layout.blocks``."""

    @pytest.mark.parametrize("d", [
        Gaussian(), Laplace(), Gaussian(0.3, 2.0),
        GaussianMixture(((0.3, -2.0, 0.7), (0.5, 0.4, 1.0), (0.2, 2.5, 0.5)))])
    def test_one_run_state_is_table_distortion(self, d):
        # The reference is the one-run formula: _table_distortion of the
        # centroid codebook, its offsets from the anchors.
        for bits in range(1, 13):
            n = (1 << bits) - 1
            t = np.asarray(d.ppf((np.arange(n) + 1.0) / (n + 1)), dtype=float).reshape(n)
            table = _anchored(d, np.concatenate(([-np.inf], t, [np.inf])))
            f = d.pdf(t)
            mass, c, r, f_out, distortion = _table_states((*table, f), t, _layout(np.array([n])))
            e = table[0]
            want_c = e + table[2] / table[1]
            assert np.array_equal(c, want_c) and mass is table[1] and f_out is f, bits
            assert np.array_equal(r, t - 0.5 * (want_c[:-1] + want_c[1:])), bits
            offset = want_c - e
            assert distortion.tolist() == [_table_distortion(table, offset, offset * offset)]
            p_mass, p_c, p_r, p_distortion = _partition_state(d, t)
            assert np.array_equal(p_mass, table[1]) and np.array_equal(p_c, c)
            assert np.array_equal(p_r, r), bits
            assert type(p_distortion) is float and p_distortion == distortion[0], bits

    @pytest.mark.parametrize("sizes, want", [
        # Ragged: runs of 3, 3, 1, 1, 1, 7 and 3 thresholds.
        ([3, 3, 1, 1, 1, 7, 3], [(slice(0, 8), 2), (slice(8, 14), 3), (slice(14, 22), 1),
                                 (slice(22, 26), 1)]),
        # Half-line runs without a threshold (one bin each) among others.
        ([0, 0, 1, 3, 3, 0], [(slice(0, 2), 2), (slice(2, 4), 1), (slice(4, 12), 2),
                              (slice(12, 13), 1)]),
        ([5], [(slice(0, 6), 1)]),
        ([0], [(slice(0, 1), 1)]),
    ])
    def test_layout_blocks_are_its_stretches_of_one_bin_count(self, sizes, want):
        layout = _layout(np.array(sizes))
        assert layout.blocks == want
        # Each run's sum and dot over the blocks are bit for bit its own.
        rng = np.random.default_rng(len(sizes))
        a, b = rng.normal(size=(2, sum(sizes) + len(sizes)))
        runs = [slice(b0, b0 + n + 1) for b0, n in zip(layout.bin0.tolist(), sizes)]
        assert _per_run(layout.blocks, a).tolist() == [a[k].sum() for k in runs]
        assert _per_run(layout.blocks, a, b).tolist() == [a[k].dot(b[k]) for k in runs]


def _banded_newton_step(f, t, mass, c, r, damping):
    """The damped Newton step through ``linalg.solve_banded`` on a 3 x n
    band, ``f`` the density at ``t``: the reference the direct tridiagonal
    solve keeps."""
    phi = 1.0 - damping
    right = 0.5 * f * (t - c[:-1]) / mass[:-1]
    left = 0.5 * f * (c[1:] - t) / mass[1:]
    ab = np.zeros((3, len(t)))
    ab[0, 1:] = -phi * right[1:]
    ab[1] = 1.0 - phi * (right + left)
    ab[2, :-1] = -phi * left[:-1]
    return linalg.solve_banded((1, 1), ab, r, check_finite=False)


class TestNewtonStepSolve:
    MIXTURE = GaussianMixture(((0.3, -2.0, 0.7), (0.5, 0.4, 1.0), (0.2, 2.5, 0.5)))

    @pytest.mark.parametrize("n", [1, 2, 3, 15, 4095])
    @pytest.mark.parametrize("damping", [0.0, 0.5, 1.0])
    def test_bitwise_equal_to_solve_banded(self, n, damping):
        # Thresholds off the fixed point, so the residual and every band
        # entry are nonzero.
        d = self.MIXTURE
        t = np.asarray(d.ppf((np.arange(n) + 1.0) / (n + 1)), dtype=float)
        t = t + 0.01 * np.sin(np.arange(n))
        mass, c, r, _ = _partition_state(d, t)
        got, solved = _damped_newton_steps(d.pdf(t), t, mass, c, r, np.array([damping]),
                                           _layout(np.array([n])))
        want = _banded_newton_step(d.pdf(t), t, mass, c, r, damping)
        assert got.shape == (n,) and solved.tolist() == [True]
        assert np.array_equal(got, want)

    def test_singular_system_returns_none(self):
        # t = (0, 1), centroids (-1, 0, 2), masses 1/2 and a unit density:
        # the first column of the matrix is zero.
        t, unit = np.array([0.0, 1.0]), np.ones(2)
        mass = np.full(3, 0.5)
        c = np.array([-1.0, 0.0, 2.0])
        r = np.array([1.0, 1.0])
        with pytest.raises(linalg.LinAlgError):
            _banded_newton_step(unit, t, mass, c, r, 0.0)
        _, solved = _damped_newton_steps(unit, t, mass, c, r, np.zeros(1), _layout(np.array([2])))
        assert solved.tolist() == [False]

    @staticmethod
    def _blocks(rng, sizes):
        """Random flat inputs of runs of ``sizes`` thresholds: unordered
        thresholds and centroids, so the bands have either sign and the
        elimination often swaps rows."""
        layout = _layout(np.array(sizes))
        n = int(sum(sizes))
        f, t, r = rng.uniform(0.5, 2.0, n), rng.normal(0.0, 2.0, n), rng.normal(0.0, 1.0, n)
        mass, c = rng.uniform(0.1, 1.0, n + len(sizes)), rng.normal(0.0, 2.0, n + len(sizes))
        damping = rng.choice([0.0, 0.25, 0.5, 1.0], len(sizes))
        return layout, f, t, mass, c, r, damping

    @staticmethod
    def _per_block(layout, f, t, mass, c, r, damping):
        """Each run's step by ``solve_banded`` alone, or None if singular."""
        out = []
        for k, (t0, b0, n) in enumerate(zip(layout.first, layout.bin0, layout.sizes)):
            bins, ts = slice(b0, b0 + n + 1), slice(t0, t0 + n)
            try:
                out.append(_banded_newton_step(f[ts], t[ts], mass[bins], c[bins], r[ts],
                                               damping[k]))
            except linalg.LinAlgError:
                out.append(None)
        return out

    def test_one_block_diagonal_solve_is_each_blocks_own(self):
        # 500 stacks of 1 to 8 blocks of 1 to 6 rows, 1x1 blocks among them,
        # with row interchanges in the elimination.
        rng = np.random.default_rng(2700)
        for _ in range(500):
            sizes = rng.integers(1, 7, rng.integers(1, 9)).tolist()
            args = self._blocks(rng, sizes)
            step, solved = _damped_newton_steps(*args[1:], args[0])
            want = self._per_block(*args)
            assert solved.tolist() == [w is not None for w in want]
            for k, w in enumerate(want):
                got = step[args[0].first[k] : args[0].first[k] + sizes[k]]
                assert np.array_equal(got, w) if w is not None else np.isnan(got).all()

    def test_a_zero_pivot_rejects_only_its_own_runs_step(self):
        # The singular system of test_singular_system_returns_none as the
        # second of four blocks.  The third, one threshold, takes the
        # per-block fallback's division: dgtsv rejects a 1x1 system.
        rng = np.random.default_rng(2701)
        layout, f, t, mass, c, r, damping = self._blocks(rng, [3, 2, 1, 4])
        f[3:5], t[3:5], r[3:5], damping[1] = 1.0, (0.0, 1.0), 1.0, 0.0
        mass[4:7], c[4:7] = 0.5, (-1.0, 0.0, 2.0)
        step, solved = _damped_newton_steps(f, t, mass, c, r, damping, layout)
        want = self._per_block(layout, f, t, mass, c, r, damping)
        assert solved.tolist() == [True, False, True, True] and want[1] is None
        assert np.array_equal(step[:3], want[0]) and np.array_equal(step[5:6], want[2])
        assert np.array_equal(step[6:], want[3])
        assert np.isnan(step[3:5]).all()

    def test_one_bit_mixture_design_takes_newton_steps(self, monkeypatch):
        sizes = []

        def counted(f, t, mass, c, r, damping, layout):
            sizes.extend(layout.sizes.tolist())
            return _damped_newton_steps(f, t, mass, c, r, damping, layout)

        monkeypatch.setattr(quantizer, "_damped_newton_steps", counted)
        q = lloyd_max_design(self.MIXTURE, 1)
        assert sizes and set(sizes) == {1}
        assert q.converged
        assert q.residual <= 1e-12


class TestStandardMemberDesign:
    """Gaussian and Laplace laws are designed at their family's zero-mean,
    unit-variance member, memoised, and mapped by ``loc + scale * t0``."""

    @pytest.mark.parametrize("family", [Gaussian, Laplace])
    @pytest.mark.parametrize("init", ["quantile", "cube_root"])
    def test_mapped_thresholds_match_a_direct_design(
            self, family, init, laplace_recursion, gaussian_mp_design):
        # The reference is the standard member's thresholds from a direct
        # solve, mapped by m + scale * t0: the exponential-width recursion of
        # Laplace() at 1-12 bits, and the 40-digit Newton design of
        # Gaussian() at 2-6 bits.  The largest gap, in units of max(1,
        # max|t|), is 2.7e-13, Laplace(0.5, 5) at 12 bits from the quantile
        # start; the largest Gaussian gap is 3.1e-14, N(0.5, 5) at 6 bits.
        if family is Laplace:
            depths, reference = range(1, 13), laplace_recursion
        else:
            depths = range(2, 7)

            def reference(bits):
                return np.array([float(x) for x in gaussian_mp_design(bits)])
        for m in (-3.0, 0.5):
            for s in (0.3, 0.7, 5.0):
                d = family(m, s)
                scale = s / Laplace().scale if family is Laplace else s
                for bits in depths:
                    q = lloyd_max_design(d, bits, init=init)
                    t = np.asarray(q.partition.boundaries)
                    gap = np.max(np.abs(t - (m + scale * reference(bits))))
                    assert gap <= 1e-9 * max(1.0, float(np.max(np.abs(t)))), (m, s, bits)

    @pytest.mark.parametrize("d", [Gaussian(-3.0, 0.3), Gaussian(1e6, 1.0),
                                   Laplace(0.5, 5.0), Laplace(-50.0, 1e-4)])
    @pytest.mark.parametrize("bits", [1, 4, 12])
    def test_mapped_design_is_centroidal_with_its_own_residual(self, d, bits):
        q = lloyd_max_design(d, bits)
        assert q.design_law is d
        assert q.design_codebook.values == generative_codebook(q.partition, d).values
        t = np.asarray(q.partition.boundaries)
        v = q.design_codebook.as_array()
        assert q.residual == float(np.max(np.abs(t - 0.5 * (v[:-1] + v[1:]))))

    @pytest.mark.parametrize("d", [Gaussian(), Laplace()])
    def test_standard_member_is_the_memoised_design(self, d):
        q = lloyd_max_design(d, 6)
        ref = _unmemoised_design(d, 6, 500, "quantile")
        assert q.partition.boundaries == ref.partition.boundaries
        assert q.design_codebook.values == ref.design_codebook.values
        assert q.distortion_history == ref.distortion_history
        assert (q.converged, q.iterations, q.residual) == (
            ref.converged, ref.iterations, ref.residual)

    def test_record_of_a_mapped_design(self):
        scale = 0.5 / Laplace().scale
        ref = lloyd_max_design(Laplace(), 5)
        q = lloyd_max_design(Laplace(2.0, 0.5), 5)
        assert q.distortion_history == tuple(scale * scale * h
                                             for h in ref.distortion_history)
        assert (q.converged, q.iterations) == (ref.converged, ref.iterations)

    @pytest.mark.parametrize("family", [Gaussian, Laplace])
    def test_memo_hit_makes_no_kernel_call(self, family, kernel_calls):
        lloyd_max_design(family(), 7)
        calls = kernel_calls(family)
        lloyd_max_design(family(), 7)
        assert calls == []
        shifted = family(0.25, 3.0)
        lloyd_max_design(shifted, 7)
        assert calls == [shifted]

    def test_mixtures_share_the_memo(self, gaussian_kernel_calls):
        # A mixture near 0 is its own standard member: designed once per bit
        # depth and setting, alone or in a batch, then served from the memo.  Its
        # design reads the Gaussian kernel directly, so that is what counts.
        d = GaussianMixture(((0.5, -1.5, 0.6), (0.5, 1.5, 0.6)))
        first = lloyd_max_design(d, 4)
        calls = gaussian_kernel_calls()
        second = lloyd_max_design(d, 4)
        assert calls == []
        assert second == first
        assert second.distortion_history == first.distortion_history
        assert (second.converged, second.iterations, second.residual) == (
            first.converged, first.iterations, first.residual)
        lloyd_max_design(d, 4, max_iters=499)
        assert calls
        del calls[:]
        lloyd_max_design(d, 4, init="cube_root")
        assert calls
        others = [GaussianMixture(((0.3, -1.0, 0.5), (0.7, 1.0, 0.8))),
                  GaussianMixture(((0.2, -2.0, 0.4), (0.5, 0.0, 1.0), (0.3, 2.5, 0.6)))]
        batch = lloyd_max_designs([*others, d, others[0]], 5)
        del calls[:]
        for law, q in zip([*others, d], batch):
            alone = lloyd_max_design(law, 5)
            assert alone == q and alone.distortion_history == q.distortion_history
        assert calls == []

    def test_a_batch_that_repeats_a_memoised_law_designs_nothing(self, gaussian_kernel_calls):
        # Each memo key is taken out once, however often its law repeats.
        d = GaussianMixture(((0.5, -1.5, 0.6), (0.5, 1.5, 0.6)))
        first = lloyd_max_design(d, 4)
        calls = gaussian_kernel_calls()
        assert lloyd_max_designs([d, d, d], 4) == (first, first, first)
        assert calls == []

    def test_collapsed_thresholds_are_degenerate(self):
        with pytest.raises(DegenerateDesign):
            lloyd_max_design(Gaussian(1e6, 1e-12), 8)

    def test_coincident_start_is_degenerate(self):
        # A component 1e-17 wide at 1: the quantile start rounds many of its
        # codewords to 1.0.
        d = GaussianMixture(((0.5, 1.0, 1e-17), (0.5, -1.0, 1.0)))
        with pytest.raises(DegenerateDesign, match="quantile initialization produced coincident"):
            lloyd_max_design(d, 8)

    def test_a_far_off_narrow_mixture_has_coincident_thresholds(self):
        # Two components 1e-10 wide at 1e6: their standard member is designed,
        # and its thresholds, mapped back, round many to the same double.
        d = GaussianMixture(((0.5, 1e6, 1e-10), (0.5, 1e6 + 1.0, 1e-10)))
        with pytest.raises(DegenerateDesign, match="thresholds .* coincide in floating point"):
            lloyd_max_design(d, 8)

    def test_a_bin_without_design_mass_is_degenerate(self, monkeypatch):
        # Components 1e5 apart, started at the quantiles of one component of
        # std 1e5: the 2-bit codewords sit near +-3.2e4 and +-1.15e5, so the
        # outer thresholds, near +-7.3e4, leave the two outer bins below
        # ZERO_MASS_TOL in the first Lloyd state.
        d = GaussianMixture(((0.5, -5e4, 1.0), (0.5, 5e4, 1.0)))
        monkeypatch.setattr(quantizer, "_start_law", lambda law, init: (
            GaussianMixture(((1.0, 0.0, 1e5),)) if init == "cube_root" else law))
        monkeypatch.setattr(quantizer, "_STANDARD_DESIGNS", {})
        with pytest.raises(DegenerateDesign, match=r"bins \[0, 3\] lost all design mass"):
            lloyd_max_design(d, 2, init="cube_root")
        assert lloyd_max_design(d, 2).converged


def _random_mixtures(seed, count):
    """``count`` seeded mixtures of 1 to 12 components, in turn."""
    rng = np.random.default_rng(seed)
    laws = []
    for i in range(count):
        k = 1 + i % 12
        w = rng.uniform(0.1, 1.0, k)
        w /= w.sum()
        laws.append(GaussianMixture(tuple(zip(
            w.tolist(), rng.normal(0.0, 2.0, k).tolist(), rng.uniform(0.2, 1.5, k).tolist()))))
    return laws


class _GaussianSubclass(Gaussian):
    """A Gaussian law by its density, of a family of its own by its type."""


class _LaplaceSubclass(Laplace):
    """A Laplace law by its density, of a family of its own by its type."""


# The ten marginals of semantic_mixture at its defaults: k of ten classes
# N(y - 4.5, 0.5^2), y < k, weighted 1/k.
SEMANTIC_MARGINALS = [GaussianMixture(tuple((1.0 / k, y - 4.5, 0.5) for y in range(k)))
                      for k in range(1, 11)]


def _same_design(a, b):
    return (a.partition == b.partition and a.design_codebook == b.design_codebook
            and a.distortion_history == b.distortion_history
            and (a.iterations, a.converged) == (b.iterations, b.converged)
            and a.residual == b.residual and a.design_law == b.design_law)


class TestStackedDesigns:
    """``lloyd_max_designs`` is bit for bit ``lloyd_max_design`` law by law,
    with its mixtures' rounds, moment walks and quantile starts stacked.
    The laws are the ten semantic_mixture marginals and 60 seeded mixtures
    of 1 to 12 components (a round walks the column gather of its laws
    still iterating, and sums their components in order whatever that
    gather's layout), at 1 bit (one threshold) to 6; in these sets 30-47
    (law, bits, start) designs take a Lloyd step."""

    LAWS = SEMANTIC_MARGINALS + _random_mixtures(2024, 60)

    @staticmethod
    def _one_at_a_time(laws, bits, init):
        out = []
        for d in laws:
            quantizer._STANDARD_DESIGNS.clear()
            out.append(lloyd_max_design(d, bits, init=init))
        quantizer._STANDARD_DESIGNS.clear()
        return out

    @pytest.mark.parametrize("init", ["quantile", "cube_root"])
    def test_bitwise_equal_to_one_law_at_a_time(self, init, monkeypatch):
        monkeypatch.setattr(quantizer, "_STANDARD_DESIGNS", {})
        # A mapped law and the two half-line laws ride along with the
        # mixtures, so one call holds every kind of law, and every bit depth
        # goes in it: 438 ragged pairs.
        laws = [*self.LAWS, Gaussian(0.3, 2.0), Gaussian(), Laplace()]
        depths = range(1, 7)
        together = quantizer._lloyd_max_designs(
            tuple(laws) * len(depths), [bits for bits in depths for _ in laws], 500, init)
        assert len(together) == len(laws) * len(depths)
        for j, bits in enumerate(depths):
            alone = self._one_at_a_time(laws, bits, init)
            depth = together[j * len(laws) : (j + 1) * len(laws)]
            for d, a, b in zip(laws, depth, alone):
                assert _same_design(a, b), (d, bits)
            assert all(q.converged for q in depth), bits
        # Two 11-bit mixtures: 2,049 edges a run, so the kernel walk takes
        # each run alone in a block of its own.
        assert _ragged_blocks([2049, 2049]) == [(0, 1), (1, 2)]
        pair = (self.LAWS[9], self.LAWS[14])
        quantizer._STANDARD_DESIGNS.clear()
        together = quantizer._lloyd_max_designs(pair, 11, 500, init)
        for d, a, b in zip(pair, together, self._one_at_a_time(pair, 11, init)):
            assert _same_design(a, b) and a.converged, d

    def test_rounds_with_lloyd_steps_stay_bitwise(self, monkeypatch):
        # Every Newton step taken at damping 0.5 (the first of each mixture)
        # is rejected, so whole rounds fall back to Lloyd steps.
        monkeypatch.setattr(quantizer, "_STANDARD_DESIGNS", {})
        rejected = []

        def first_fails(f, t, mass, c, r, damping, layout):
            step, solved = _damped_newton_steps(f, t, mass, c, r, damping, layout)
            rejected.extend(layout.sizes[damping == 0.5].tolist())
            return step, solved & (damping != 0.5)

        monkeypatch.setattr(quantizer, "_damped_newton_steps", first_fails)
        laws = self.LAWS[::3]
        for bits in (1, 3, 5):
            alone = self._one_at_a_time(laws, bits, "quantile")
            del rejected[:]
            together = lloyd_max_designs(laws, bits)
            assert len(rejected) >= len(laws) // 2, bits
            for d, a, b in zip(laws, together, alone):
                assert _same_design(a, b), (d, bits)

    def test_a_round_of_kept_rejected_and_failed_steps_stays_bitwise(self, monkeypatch):
        # A seeded fifth of the solves fail, chosen by a hash of each run's
        # thresholds, so a run fails alike alone and beside others; mixtures
        # also have Newton steps rejected after evaluation.  Some round of
        # the one call holds all three outcomes.  (A mixture's thresholds
        # have no lower bound.)
        rounds = []  # per round: runs, Newton steps, those rejected after evaluation

        def flaky(f, t, mass, c, r, damping, layout):
            step, solved = _damped_newton_steps(f, t, mass, c, r, damping, layout)
            solved &= [zlib.crc32(t[t0 : t0 + n].tobytes(), 2024) % 5 != 0
                       for t0, n in zip(layout.first.tolist(), layout.sizes.tolist())]
            newton = solved & quantizer._ordered(t - step, layout, -np.inf)
            rounds.append([len(newton), int(newton.sum()), 0])
            return step, solved

        put = quantizer._State.put

        def redone(self, keep, new):
            rounds[-1][2] += int(keep.sum())
            put(self, keep, new)

        monkeypatch.setattr(quantizer, "_damped_newton_steps", flaky)
        monkeypatch.setattr(quantizer._State, "put", redone)
        pairs = [(d, bits) for bits in range(1, 7) for d in self.LAWS[::3]]
        alone = [_designs([pair], 500, "quantile")[0] for pair in pairs]
        del rounds[:]
        together = _designs(pairs, 500, "quantile")
        assert any(0 < redo < newton < runs for runs, newton, redo in rounds)
        for (d, bits), a, b in zip(pairs, together, alone):
            assert _same_design(a, b), (d, bits)

    def test_a_batch_raises_the_first_failure_of_the_loop(self, monkeypatch):
        good = GaussianMixture(((0.5, -1.5, 0.6), (0.5, 1.5, 0.6)))
        # The quantile start rounds many codewords to one double.
        coincident = GaussianMixture(((0.5, 1.0, 1e-17), (0.5, -1.0, 1.0)))
        # The mapped thresholds coincide.
        narrow = Gaussian(1e6, 1e-12)
        for laws in ([good, coincident, good], [narrow, coincident], [coincident, narrow],
                     [good, narrow, coincident, good]):
            with pytest.raises(DegenerateDesign) as loop:
                for d in laws:
                    lloyd_max_design(d, 8)
            with pytest.raises(DegenerateDesign) as batch:
                lloyd_max_designs(laws, 8)
            assert str(batch.value) == str(loop.value)
        # A bin that empties during the iteration, next to one that converges:
        # the start of test_a_bin_without_design_mass_is_degenerate.
        apart = GaussianMixture(((0.5, -5e4, 1.0), (0.5, 5e4, 1.0)))
        start_law = quantizer._start_law
        monkeypatch.setattr(quantizer, "_start_law", lambda law, init: (
            GaussianMixture(((1.0, 0.0, 1e5),)) if law == apart else start_law(law, init)))
        monkeypatch.setattr(quantizer, "_STANDARD_DESIGNS", {})
        with pytest.raises(DegenerateDesign, match=r"bins \[0, 3\] lost all design mass"):
            quantizer._lloyd_max_designs((good, apart), 2, 500, "cube_root")

    def test_an_iteration_cap_stays_bitwise(self, monkeypatch):
        monkeypatch.setattr(quantizer, "_STANDARD_DESIGNS", {})
        laws = self.LAWS[::4]
        alone = []
        for d in laws:
            quantizer._STANDARD_DESIGNS.clear()
            alone.append(lloyd_max_design(d, 4, max_iters=2))
        quantizer._STANDARD_DESIGNS.clear()
        together = quantizer._lloyd_max_designs(tuple(laws), 4, 2, "quantile")
        assert not all(q.converged for q in together)
        for d, a, b in zip(laws, together, alone):
            assert _same_design(a, b), d

    def test_empty_batch_and_argument_checks(self):
        assert lloyd_max_designs([], 3) == ()
        assert lloyd_max_designs([], []) == ()
        with pytest.raises(ValueError, match="bits"):
            lloyd_max_designs([Gaussian()], 0)
        with pytest.raises(ValueError, match="bits"):
            lloyd_max_designs([Gaussian(), Laplace()], [3, 17])
        with pytest.raises(ValueError, match="2 bit depths for 1 laws"):
            lloyd_max_designs([Gaussian()], [3, 4])
        with pytest.raises(ValueError, match="init"):
            quantizer._lloyd_max_designs((Gaussian(),), 3, 500, "uniform")
        with pytest.raises(ValueError, match="max_iters"):
            quantizer._lloyd_max_designs((Gaussian(),), 3, 0, "quantile")

    @pytest.mark.parametrize("other", [_GaussianSubclass(0.3, 2.0), _LaplaceSubclass(-1.0, 0.4)])
    @pytest.mark.parametrize("init", ["quantile", "cube_root"])
    def test_a_law_of_another_family_is_not_designed(self, other, init, monkeypatch):
        # Only Gaussian, Laplace and GaussianMixture laws are designed; a
        # subclass of one is another family.  The TypeError names the law
        # and comes before any design of the call, so the memo is left as it
        # was: empty, then holding two other designs in their order.
        monkeypatch.setattr(quantizer, "_STANDARD_DESIGNS", {})
        mixture, settings = self.LAWS[0], {"init": init}
        designs = quantizer._designs
        calls = [
            lambda: lloyd_max_design(other, 3, **settings),
            lambda: quantizer._lloyd_max_designs((mixture, other), 3, 500, init),
            lambda: ideal_distortion(other, 3, **settings),
            lambda: report(Gaussian(), other, 3, **settings),
            lambda: report(other, Gaussian(), 3, **settings),
        ]
        if init == "quantile":
            calls.append(lambda: lloyd_max_designs((mixture, other), 3))
        for fill in ([], [(mixture, 4), (Gaussian(), 3)]):
            monkeypatch.setattr(quantizer, "_designs", designs)
            for d, bits in fill:
                lloyd_max_design(d, bits, **settings)
            before = list(quantizer._STANDARD_DESIGNS.items())
            assert len(before) == len(fill)
            monkeypatch.setattr(quantizer, "_designs",
                                lambda *args: pytest.fail("a design started"))
            for call in calls:
                with pytest.raises(TypeError, match=re.escape(
                        f"cannot design a quantizer for {other!r}")):
                    call()
                assert list(quantizer._STANDARD_DESIGNS.items()) == before


class TestMomentTableMemo:
    """Partition-level moment tables come from one bounded memo keyed by
    ``(law, partition, max(order, 2))`` as read-only arrays."""

    MIXTURE = GaussianMixture(((0.4, -1.2, 0.7), (0.6, 0.9, 0.5)))

    @pytest.mark.parametrize("d", [Gaussian(0.3, 1.2), Laplace(-0.2, 0.9), MIXTURE])
    @pytest.mark.parametrize("bits", [1, 4, 8, 12])
    def test_every_order_is_bitwise_the_kernel(self, d, bits):
        n = 1 << bits
        p = Partition(d.ppf(np.arange(1, n) / n))
        for order in range(5):
            got = _moment_table(d, p, order)
            want = _anchored(d, p.edges(), order)
            assert len(got) == len(want) == order + 2
            for g, w in zip(got, want):
                assert g.tobytes() == w.tobytes(), (order, bits)
        # Orders 0-2 share one entry, orders 3 and 4 have their own.
        assert _moment_tables.cache_info().currsize == 3

    def test_arrays_are_read_only(self):
        p = Partition((-0.5, 0.0, 0.5))
        for order in (0, 2, 4):
            for moment in _moment_table(Gaussian(), p, order):
                with pytest.raises(ValueError):
                    moment[0] = 1.0
        assert Gaussian().edge_stats(p.edges())[0].flags.writeable

    @pytest.mark.parametrize("t, same", [
        ([-1.0, -0.25, 0.5], (-1.0, -0.25, 0.5)),
        (np.array([-1.0, -0.0, 0.5]), [-1.0, 0.0, 0.5]),
    ], ids=["list-tuple", "signed-zero"])
    def test_equal_laws_and_partitions_share_an_entry(self, kernel_calls, t, same):
        calls = kernel_calls(Laplace)
        first = _moment_table(Laplace(0.1, 0.6), Partition(t))
        again = _moment_table(Laplace(0.1, 0.6), Partition(same), 1)
        assert len(calls) == 1
        assert all(a is b for a, b in zip(again, first))

    def test_a_quantizer_pickled_under_another_hash_seed_hits_the_memo(self, tmp_path):
        # bytes hashes are salted per process, so a hash that travelled in
        # the pickle would differ from the one this process computes.
        seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(
            p for p in (str(Path(mismatch_quant.__file__).resolve().parents[1]),
                        os.environ.get("PYTHONPATH")) if p))
        script = ("import pickle, sys\n"
                  "from mismatch_quant import Laplace, lloyd_max_design\n"
                  "q = lloyd_max_design(Laplace(0.1, 0.6), 5)\n"
                  "hash(q.partition), hash(q.design_codebook), hash(q)\n"
                  "sys.stdout.buffer.write(pickle.dumps(q))\n")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              env=env, cwd=tmp_path, check=True)
        loaded = pickle.loads(proc.stdout)
        local = lloyd_max_design(Laplace(0.1, 0.6), 5)
        assert loaded == local and hash(loaded) == hash(local)
        assert hash(loaded.partition) == hash(local.partition)
        assert not loaded.partition.as_array().flags.writeable
        table = _moment_table(Laplace(0.1, 0.6), local.partition)
        hits = _moment_tables.cache_info().hits
        again = _moment_table(Laplace(0.1, 0.6), loaded.partition)
        assert all(a is b for a, b in zip(again, table))
        assert _moment_tables.cache_info().hits == hits + 1

    def test_the_oldest_entry_is_recomputed_past_the_bound(self, kernel_calls):
        calls = kernel_calls(Gaussian)
        p = Partition((-1.0, 0.0, 1.0))
        laws = [Gaussian(0.01 * k, 1.0) for k in range(_moment_tables.cache_info().maxsize + 1)]
        for d in laws[:-1]:
            _moment_table(d, p)
        _moment_table(laws[0], p)
        assert calls == laws[:-1]
        _moment_table(laws[-1], p)  # evicts laws[1], the least recently used
        _moment_table(laws[0], p)
        _moment_table(laws[1], p)
        assert calls == laws + [laws[1]]


class TestEncode:
    """``Partition.encode`` counts thresholds below 256 of them, where every
    index fits one byte, and searches from 256 on; both must be
    ``np.searchsorted(t, x, side="right")``."""

    @staticmethod
    def _partition(bits):
        # Sorted distinct thresholds with one of them exactly 0.0, so that
        # -0.0 and +0.0 draws tie with a threshold.
        t = np.unique(np.random.default_rng(bits).normal(size=(1 << bits) + 64))
        t = t[: (1 << bits) - 1]
        return Partition(t - t[len(t) // 2])

    @staticmethod
    def _draws(t):
        t = np.asarray(t)
        rng = np.random.default_rng(len(t))
        special = [0.0, -0.0, math.inf, -math.inf, math.nan, t[0], t[-1]]
        return np.concatenate([
            rng.normal(scale=1.5, size=2000), t, np.nextafter(t, -np.inf),
            np.nextafter(t, np.inf), np.repeat(special, 3)])

    @pytest.mark.parametrize("bits", range(1, 17))
    def test_arrays_match_searchsorted(self, bits):
        p = self._partition(bits)
        t = np.asarray(p.boundaries)
        assert (len(t) < 256) == (bits <= 8)
        x = self._draws(t)
        got = p.encode(x)
        assert got.dtype == np.intp and got.shape == x.shape
        assert p._narrow_index(x).dtype == (np.uint8 if bits <= 8 else np.uint16)
        np.testing.assert_array_equal(got, np.searchsorted(t, x, side="right"))
        assert got[x == 0.0].tolist() == [len(t) // 2 + 1] * int(np.sum(x == 0.0))
        assert got[np.isnan(x)].tolist() == [len(t)] * 3
        grid = x[: 2000].reshape(40, 50)
        got2 = p.encode(grid)
        assert got2.dtype == np.intp and got2.shape == grid.shape
        np.testing.assert_array_equal(got2, np.searchsorted(t, grid, side="right"))
        np.testing.assert_array_equal(p.encode(x.tolist()), got)

    @pytest.mark.parametrize("bits", [1, 4, 6, 7, 8])
    @pytest.mark.parametrize("size", [quantizer._BLOCK_BYTES + k for k in (-1, 0, 1)]
                             + [2 * quantizer._BLOCK_BYTES + 3])
    def test_counting_across_mask_blocks_matches_searchsorted(self, bits, size):
        # 1, 15, 63, 127 and 255 thresholds, counted into one byte a draw
        # (a count up to 255 fits uint8), a block of draws at a time, in a
        # contiguous array, a strided view and two 2-D arrays, once finite
        # and once with NaN on both sides of the first block edge and at
        # both ends.
        block = quantizer._BLOCK_BYTES
        p = self._partition(bits)
        t = np.asarray(p.boundaries)
        finite = np.random.default_rng(size).normal(scale=1.5, size=3 * size)
        views = (lambda b: b[:size], lambda b: b[::3], lambda b: b.reshape(3, size),
                 lambda b: b.reshape(size, 3)[:, 1:])
        for view, with_nan in itertools.product(views, (False, True)):
            x = view(finite.copy())
            if with_nan:
                x.flat[[i for i in (0, block - 1, block, x.size - 1) if i < x.size]] = math.nan
            got = p.encode(x)
            assert got.shape == x.shape and got.dtype == np.intp
            np.testing.assert_array_equal(got, np.searchsorted(t, x, side="right"))
            assert (got[np.isnan(x)] == len(t)).all() and np.isnan(x).any() == with_nan
            narrow = p._narrow_index(x)
            assert narrow.dtype == np.uint8 and narrow.shape == x.shape
            np.testing.assert_array_equal(narrow, got)

    @pytest.mark.parametrize("bits", [1, 4, 6, 7, 12])
    def test_scalars_and_zero_d_arrays_give_ints(self, bits):
        p = self._partition(bits)
        t = np.asarray(p.boundaries)
        for v in (0.0, -0.0, math.inf, -math.inf, math.nan, t[0], float(t[-1]), 0.3):
            want = int(np.searchsorted(t, v, side="right"))
            for arg in (v, np.float64(v), np.array(v)):
                got = p.encode(arg)
                assert type(got) is int and got == want, (v, arg)

    def test_integer_and_float32_draws_compare_as_doubles(self):
        p = Partition((-1.5, 0.1, 2.0))
        for x in (np.arange(-3, 4), np.array([0.1, -1.5, 2.0], dtype=np.float32)):
            np.testing.assert_array_equal(
                p.encode(x), np.searchsorted(np.asarray(p.boundaries), x, side="right"))


class TestQuantizerRoundTrip:
    def test_encode_decode_shapes(self):
        q = lloyd_max_design(Gaussian(0, 1), 2)
        x = np.linspace(-3, 3, 101)
        idx = q.encode(x)
        y = q.decode(idx)
        assert y.shape == x.shape
        assert set(np.unique(idx)) <= {0, 1, 2, 3}

    def test_decode_nearest_neighbor_property(self):
        q = lloyd_max_design(Gaussian(0, 1), 3)
        x = np.linspace(-4, 4, 801)
        y = q.decode(q.encode(x))
        table = q.design_codebook.as_array()
        best = table[np.argmin(np.abs(x[:, None] - table[None, :]), axis=1)]
        # Away from cell edges the reproduced value is the nearest codeword.
        interior = np.min(np.abs(x[:, None] - np.array(q.partition.boundaries)),
                          axis=1) > 1e-9
        np.testing.assert_allclose(y[interior], best[interior])

    def test_record_round_trip(self):
        q = lloyd_max_design(Gaussian(0.5, 2.0), 2)
        rec = q.to_record()
        assert rec["bits"] == 2
        assert len(rec["boundaries"]) == 3
        assert len(rec["codebook"]) == 4
        assert rec["design_law"] == {"kind": "gaussian", "mean": 0.5, "std": 2.0}

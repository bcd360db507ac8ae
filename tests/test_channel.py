"""Index-channel and noisy-decoder tests.

For the 1-bit sign quantizer on a BSC everything is quadratic in the table
magnitude, so each strategy has a hand-checkable closed form.  Two algebraic
identities anchor the comparisons:

    d_hard - d_opt = 4 eps^2 sigma1^2 (2/pi)
    d_std - d_hard = (2/pi)(sigma0 - sigma1)(sigma0 - sigma1 (1 - 4 eps))

The second changes sign once eps crosses (sigma1 - sigma0)/(4 sigma1), so
"adapting the table helps" is not the same claim as "ignoring the channel
is fine".
"""

import math

import numpy as np
import pytest

from mismatch_quant import (
    Channel,
    Gaussian,
    Laplace,
    NoisyDecoder,
    ZeroEvidence,
    bsc_channel,
    expected_distortion,
    index_posterior,
    lloyd_max_design,
    make_noisy_decoder,
    noisy_distortion,
    one_bit_quantizer,
    soft_codebook,
    strategy_report,
)

TWO_OVER_PI = 2.0 / math.pi


class TestChannel:
    def test_must_be_square(self):
        with pytest.raises(ValueError):
            Channel(((0.5, 0.5),))

    def test_rows_must_be_stochastic(self):
        with pytest.raises(ValueError):
            Channel(((0.6, 0.6), (0.5, 0.5)))
        with pytest.raises(ValueError):
            Channel(((1.5, -0.5), (0.0, 1.0)))

    def test_accepts_identity(self):
        ch = Channel(((1.0, 0.0), (0.0, 1.0)))
        assert ch.n == 2

    def test_equality_and_hash_follow_the_matrix_values(self):
        built = bsc_channel(1, 0.25)
        by_hand = Channel(((0.75, 0.25), (0.25, 0.75)))
        assert built == by_hand
        assert hash(built) == hash(by_hand)
        assert len({built, by_hand, bsc_channel(1, 0.25)}) == 1
        assert built != bsc_channel(1, 0.3)
        assert built.matrix == ((0.75, 0.25), (0.25, 0.75))
        assert "_array" not in repr(built)

    def test_array_is_built_once_and_read_only(self):
        source = np.array([[0.9, 0.1], [0.2, 0.8]])
        ch = Channel(source)
        m = ch.as_array()
        assert m is ch.as_array()
        np.testing.assert_array_equal(m, source)
        with pytest.raises(ValueError):
            m[0, 0] = 0.5
        source[0, 0] = 0.5  # the caller's array stays writable and unshared
        assert ch.matrix[0][0] == 0.9


class TestBscChannel:
    def test_one_bit_matrix(self):
        ch = bsc_channel(1, 0.1)
        np.testing.assert_allclose(ch.as_array(),
                                   [[0.9, 0.1], [0.1, 0.9]], atol=1e-15)

    def test_hamming_weights_at_two_bits(self):
        eps = 0.2
        m = bsc_channel(2, eps).as_array()
        assert m[0, 0] == pytest.approx((1 - eps) ** 2)
        assert m[0, 1] == pytest.approx(eps * (1 - eps))
        assert m[0, 2] == pytest.approx(eps * (1 - eps))
        assert m[0, 3] == pytest.approx(eps**2)

    def test_rows_sum_to_one(self):
        m = bsc_channel(4, 0.3).as_array()
        np.testing.assert_allclose(m.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(m, m.T, atol=1e-15)

    def test_degenerate_epsilons(self):
        np.testing.assert_array_equal(bsc_channel(2, 0.0).as_array(), np.eye(4))
        np.testing.assert_allclose(bsc_channel(2, 0.5).as_array(),
                                   np.full((4, 4), 0.25), atol=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            bsc_channel(0, 0.1)
        with pytest.raises(ValueError):
            bsc_channel(13, 0.1)
        with pytest.raises(ValueError):
            bsc_channel(2, 0.6)
        with pytest.raises(ValueError):
            bsc_channel(2, -0.01)


class TestIndexPosterior:
    def test_normalizes(self):
        ch = bsc_channel(2, 0.15)
        priors = np.array([0.1, 0.2, 0.3, 0.4])
        for j in range(4):
            post = index_posterior(ch, priors, j)
            assert post.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(post >= 0.0)

    def test_noiseless_channel_is_certain(self):
        ch = bsc_channel(2, 0.0)
        post = index_posterior(ch, [0.25] * 4, 2)
        np.testing.assert_array_equal(post, [0.0, 0.0, 1.0, 0.0])

    def test_bayes_rule_by_hand(self):
        ch = bsc_channel(1, 0.2)
        post = index_posterior(ch, [0.7, 0.3], 1)
        want0 = 0.2 * 0.7 / (0.2 * 0.7 + 0.8 * 0.3)
        assert post[0] == pytest.approx(want0, rel=1e-12)

    def test_zero_evidence_raises(self):
        ch = bsc_channel(1, 0.0)
        with pytest.raises(ZeroEvidence):
            index_posterior(ch, [1.0, 0.0], 1)

    def test_validation(self):
        ch = bsc_channel(1, 0.1)
        with pytest.raises(ValueError):
            index_posterior(ch, [0.5, 0.25, 0.25], 0)
        with pytest.raises(ValueError):
            index_posterior(ch, [0.5, -0.5], 0)
        with pytest.raises(ValueError):
            index_posterior(ch, [0.5, 0.5], 2)


class TestSoftCodebook:
    def test_one_bit_shrinkage(self):
        eps, s1 = 0.1, 2.0
        q = one_bit_quantizer(0.0, 1.0)
        table = soft_codebook(q.partition, Gaussian(0, s1), bsc_channel(1, eps))
        want = (1.0 - 2.0 * eps) * s1 * math.sqrt(TWO_OVER_PI)
        np.testing.assert_allclose(table.as_array(), [-want, want], atol=1e-13)

    def test_fully_noisy_channel_collapses_to_the_mean(self):
        q = lloyd_max_design(Gaussian(0, 1), 2)
        table = soft_codebook(q.partition, Gaussian(0.4, 1.0), bsc_channel(2, 0.5))
        np.testing.assert_allclose(table.as_array(), 0.4, atol=1e-10)

    def test_unreachable_index_gets_the_prior_mean(self):
        q = lloyd_max_design(Gaussian(0, 1), 2)
        far = Gaussian(50.0, 0.1)
        table = soft_codebook(q.partition, far, bsc_channel(2, 0.0),
                              fallback=q.design_codebook)
        # indices 0..2 can never be received; best blind guess is E[X]
        assert table.values[0] == pytest.approx(50.0, abs=1e-6)
        assert table.values[3] == pytest.approx(50.0, abs=1e-6)

    def test_size_mismatch_rejected(self):
        q = lloyd_max_design(Gaussian(0, 1), 2)
        with pytest.raises(ValueError):
            soft_codebook(q.partition, Gaussian(0, 1), bsc_channel(1, 0.1))


class TestNoisyDistortion:
    def test_identity_channel_reduces_to_plain_distortion(self):
        q = lloyd_max_design(Gaussian(0, 1), 3)
        true_d = Laplace(0.0, 1.0)
        dec = make_noisy_decoder("standard_separation", q, true_d)
        got = noisy_distortion(q.partition, bsc_channel(3, 0.0), dec, true_d)
        want = expected_distortion(q.partition, q.design_codebook, true_d)
        assert got == pytest.approx(want, rel=1e-12)

    def test_matches_strategy_closed_forms(self):
        s0, s1, eps = 1.0, 2.0, 0.1
        rep = strategy_report(s0, s1, eps)
        q = one_bit_quantizer(0.0, s0)
        ch = bsc_channel(1, eps)
        true_d = Gaussian(0, s1)
        for name, want in (("standard_separation", rep.d_std),
                           ("hard_generative", rep.d_hard),
                           ("soft_generative", rep.d_opt)):
            dec = make_noisy_decoder(name, q, true_d, ch)
            got = noisy_distortion(q.partition, ch, dec, true_d)
            assert got == pytest.approx(want, rel=1e-10), name

    def test_soft_table_is_optimal_among_the_three(self):
        q = lloyd_max_design(Gaussian(0, 1), 2)
        true_d = Gaussian(0.3, 1.6)
        ch = bsc_channel(2, 0.08)
        ds = {name: noisy_distortion(q.partition, ch,
                                     make_noisy_decoder(name, q, true_d, ch),
                                     true_d)
              for name in ("standard_separation", "hard_generative",
                           "soft_generative")}
        assert ds["soft_generative"] <= ds["hard_generative"] + 1e-14
        assert ds["soft_generative"] <= ds["standard_separation"] + 1e-14

    def test_size_mismatch_rejected(self):
        q = lloyd_max_design(Gaussian(0, 1), 2)
        dec = make_noisy_decoder("standard_separation", q, Gaussian(0, 1))
        with pytest.raises(ValueError):
            noisy_distortion(q.partition, bsc_channel(3, 0.1), dec, Gaussian(0, 1))


class TestMakeNoisyDecoder:
    def test_soft_needs_a_channel(self):
        q = one_bit_quantizer(0.0, 1.0)
        with pytest.raises(ValueError):
            make_noisy_decoder("soft_generative", q, Gaussian(0, 2))

    def test_unknown_strategy_rejected(self):
        q = one_bit_quantizer(0.0, 1.0)
        with pytest.raises(ValueError):
            make_noisy_decoder("viterbi", q, Gaussian(0, 2))
        with pytest.raises(ValueError):
            NoisyDecoder(strategy="viterbi", table=q.design_codebook)


class TestStrategyReport:
    def test_separation_gap_identity(self):
        for s1 in (0.5, 1.0, 2.0):
            for eps in (0.0, 0.05, 0.1, 0.3):
                rep = strategy_report(1.0, s1, eps)
                want = 4.0 * eps * eps * s1 * s1 * TWO_OVER_PI
                assert rep.separation_gap == pytest.approx(want, abs=1e-14)

    def test_frozen_reference_point(self):
        rep = strategy_report(1.0, 2.0, 0.1)
        assert rep.separation_gap == pytest.approx(0.101859163579, abs=1e-9)

    def test_source_bias_gap_sign_change(self):
        # (2/pi)(s0 - s1)(s0 - s1 (1 - 4 eps)) crosses zero at eps = 1/8
        # for s0=1, s1=2: adapting the source model hurts past that point.
        assert strategy_report(1.0, 2.0, 0.05).source_bias_gap > 0.0
        assert strategy_report(1.0, 2.0, 0.125).source_bias_gap == pytest.approx(
            0.0, abs=1e-14)
        assert strategy_report(1.0, 2.0, 0.2).source_bias_gap < 0.0

    def test_source_bias_gap_closed_form(self):
        for s0, s1, eps in ((1.0, 2.0, 0.07), (1.0, 0.6, 0.2), (2.0, 1.0, 0.3)):
            rep = strategy_report(s0, s1, eps)
            want = TWO_OVER_PI * (s0 - s1) * (s0 - s1 * (1.0 - 4.0 * eps))
            assert rep.source_bias_gap == pytest.approx(want, abs=1e-13)

    def test_noiseless_limit_recovers_plain_mismatch(self):
        rep = strategy_report(1.0, 2.0, 0.0)
        assert rep.d_std == pytest.approx(4.0 - 6.0 / math.pi, abs=1e-13)
        assert rep.d_hard == pytest.approx(4.0 * (1.0 - TWO_OVER_PI), abs=1e-13)
        assert rep.separation_gap == 0.0

    def test_opt_never_loses(self):
        for s0, s1, eps in ((1.0, 2.0, 0.1), (1.0, 0.5, 0.3), (2.0, 2.0, 0.25)):
            rep = strategy_report(s0, s1, eps)
            assert rep.d_opt <= rep.d_hard + 1e-15
            assert rep.d_opt <= rep.d_std + 1e-15

    def test_validation(self):
        with pytest.raises(ValueError):
            strategy_report(0.0, 1.0, 0.1)
        with pytest.raises(ValueError):
            strategy_report(1.0, 1.0, 0.7)

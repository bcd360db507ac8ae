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

import copy
import math
import pickle

import numpy as np
import pytest

from mismatch_quant import (
    Channel,
    Codebook,
    Gaussian,
    GaussianMixture,
    Laplace,
    NoisyDecoder,
    ZeroEvidence,
    bsc_channel,
    expected_distortion,
    generative_codebook,
    index_posterior,
    lloyd_max_design,
    make_noisy_decoder,
    noisy_distortion,
    one_bit_quantizer,
    Partition,
    soft_codebook,
    strategy_report,
)
from mismatch_quant.channel import STRATEGIES

TWO_OVER_PI = 2.0 / math.pi


# (type, values, a differing value, the same values with one -0.0, the
# tuple-view attribute, the repr the frozen-dataclass forms printed).
VALUE_TYPES = [
    pytest.param(Partition, [-0.5, 0.25, 1.5], [-0.5, 0.25, 2.5], [-1.0, -0.0, 1.0],
                 "boundaries", "Partition(boundaries=(-0.5, 0.25, 1.5))", id="partition"),
    pytest.param(Codebook, [-1.5, 0.1, 0.7], [-1.5, 0.1, 0.8], [-0.0, 1.0],
                 "values", "Codebook(values=(-1.5, 0.1, 0.7))", id="codebook"),
    pytest.param(Channel, [[0.9, 0.1], [0.2, 0.8]], [[0.9, 0.1], [0.3, 0.7]],
                 [[1.0, -0.0], [0.0, 1.0]], "matrix",
                 "Channel(matrix=((0.9, 0.1), (0.2, 0.8)))", id="channel"),
]


@pytest.mark.parametrize("kind, values, other, signed, view, text", VALUE_TYPES)
class TestArrayValueTypes:
    """``Partition``, ``Codebook`` and ``Channel`` share one read-only array
    type: value equality and hashing, immutability, copies and a tuple view."""

    def test_equality_and_hash_ignore_the_input_type_and_zero_sign(
            self, kind, values, other, signed, view, text):
        a, b = kind(values), kind(np.array(values))
        c = kind(tuple(map(tuple, values)) if kind is Channel else tuple(values))
        assert a == b == c and hash(a) == hash(b) == hash(c)
        assert len({a, b, c}) == 1
        assert a != kind(other)
        plain = kind(np.where(np.array(signed) == 0.0, 0.0, signed))
        assert np.signbit(kind(signed).as_array()).sum() > np.signbit(plain.as_array()).sum()
        assert kind(signed) == plain and hash(kind(signed)) == hash(plain)

    def test_never_equal_to_other_types(self, kind, values, other, signed, view, text):
        x = kind(values)
        assert x != object()
        assert not x == getattr(x, view)
        assert not x == x.as_array()

    def test_array_is_read_only_and_not_shared(self, kind, values, other, signed, view, text):
        source = np.array(values)
        x = kind(source)
        arr = x.as_array()
        assert arr is x.as_array()
        assert arr.dtype == np.float64 and not np.shares_memory(arr, source)
        np.testing.assert_array_equal(arr, source)
        with pytest.raises(ValueError):
            arr[0] = 0.5
        source[0] = 0.5  # the caller's array stays writable and unshared
        assert x == kind(values)
        assert np.array(getattr(x, view)).tolist() == values

    def test_is_immutable(self, kind, values, other, signed, view, text):
        x = kind(values)
        for name in (view, "_array", "label"):
            with pytest.raises(AttributeError):
                setattr(x, name, values)
        for name in (view, "_array"):
            with pytest.raises(AttributeError):
                delattr(x, name)
        assert x == kind(values)

    def test_copies_stay_equal_and_read_only(self, kind, values, other, signed, view, text):
        x = kind(values)
        hash(x)
        for copied in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x), copy.copy(x)):
            assert type(copied) is kind
            assert copied == x and hash(copied) == hash(x)
            assert not copied.as_array().flags.writeable

    def test_adopt_holds_the_array_itself_checked_and_read_only(
            self, kind, values, other, signed, view, text):
        source = np.array(values)
        x = kind._adopt(source)
        assert type(x) is kind and x.as_array() is source
        assert not source.flags.writeable
        assert x == kind(values) and hash(x) == hash(kind(values)) and repr(x) == text
        fresh = np.array(values)
        bad = [fresh[..., None], np.full_like(fresh, np.nan)]  # base checks
        bad += [fresh[::-1]] if kind is Partition else [2.0 * fresh] if kind is Channel else []
        for arr in bad:
            with pytest.raises(ValueError):
                kind._adopt(arr)

    def test_repr_is_the_tuple_view(self, kind, values, other, signed, view, text):
        x = kind(values)
        assert repr(x) == text
        assert getattr(x, view) is getattr(x, view)
        flat = getattr(x, view)
        flat = [v for row in flat for v in row] if kind is Channel else flat
        assert all(type(v) is float for v in flat)

    def test_a_partition_and_a_codebook_of_the_same_floats_differ(
            self, kind, values, other, signed, view, text):
        floats = [-0.5, 0.25, 1.5] if kind is Channel else values
        others = [t(floats) for t in (Partition, Codebook) if t is not kind]
        x = kind(values)
        assert all(x != y and not x == y for y in others)


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

    def test_matrix_holds_python_floats_equal_to_the_array(self):
        ch = bsc_channel(3, 0.123456789)
        assert ch.matrix is ch.matrix
        assert all(type(v) is float for row in ch.matrix for v in row)
        np.testing.assert_array_equal(np.array(ch.matrix), ch.as_array())
        assert repr(ch) == f"Channel(matrix={ch.matrix!r})"
        assert "np.float64" not in repr(ch)

    def test_hash_leaves_the_matrix_view_unbuilt(self):
        ch = bsc_channel(10, 0.1)
        assert hash(ch) == hash(bsc_channel(10, 0.1))
        assert "matrix" not in vars(ch)


def _reference_hamming(bits: int) -> np.ndarray:
    """Hamming distances between all pairs of ``bits``-bit labels, from a
    shift-and-mask loop, built a block of rows at a time."""
    n = 1 << bits
    idx = np.arange(n, dtype=np.uint16)
    out = np.empty((n, n), dtype=np.uint8)
    for start in range(0, n, 256):
        xor = idx[start:start + 256, None] ^ idx[None, :]
        hamming = np.zeros_like(xor)
        while np.any(xor):
            hamming += xor & 1
            xor >>= 1
        out[start:start + 256] = hamming
    return out


BSC_EPSILONS = (0.0, 0.02, 0.1, 0.123456789, 0.25, 0.3, 0.45, 0.5)


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

    @pytest.mark.parametrize("bits", range(1, 13))
    def test_bitwise_equal_to_the_defining_formula(self, bits):
        # eps^h (1-eps)^(bits-h) entry by entry, with int64 exponents,
        # a block of rows at a time to bound the memory at 12 bits.
        hamming = _reference_hamming(bits)
        for eps in BSC_EPSILONS:
            m = bsc_channel(bits, eps).as_array()
            for start in range(0, 1 << bits, 256):
                h = hamming[start:start + 256].astype(np.int64)
                want = (eps**h) * (1.0 - eps) ** (bits - h)
                assert np.array_equal(m[start:start + 256], want), (bits, eps, start)

    def test_twelve_bits_is_a_full_row_stochastic_matrix(self):
        m = bsc_channel(12, 0.1).as_array()
        assert m.shape == (4096, 4096)
        assert m.dtype == np.float64
        assert np.all(m > 0.0)
        np.testing.assert_allclose(m.sum(axis=1), 1.0, atol=1e-12)

    def test_ten_bits_peak_below_one_and_a_half_matrices(self, traced_peak):
        # The matrix goes to Channel without the constructor's defensive
        # copy: 10.6 MB at peak for the 8.4 MB matrix (17.8 MB with the copy).
        ch, peak = traced_peak(lambda: bsc_channel(10, 0.1))
        m = ch.as_array()
        assert peak < 1.5 * m.nbytes
        assert not m.flags.writeable and ch == Channel(m)

    def test_validation(self):
        with pytest.raises(ValueError):
            bsc_channel(0, 0.1)
        with pytest.raises(ValueError):
            bsc_channel(13, 0.1)
        with pytest.raises(ValueError, match="got True"):
            bsc_channel(True, 0.1)
        assert bsc_channel(np.int64(3), 0.1) == bsc_channel(3, 0.1)
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

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_priors_rejected(self, bad):
        # They once came back as [nan, nan] and [nan, 0.].
        with pytest.raises(ValueError, match="priors must be finite"):
            index_posterior(bsc_channel(1, 0.1), [bad, 0.5], 0)

    @pytest.mark.parametrize("received", [True, False, np.True_, 1.5, np.float64(1.0), "1", None])
    def test_received_must_be_an_integer(self, received):
        with pytest.raises(ValueError, match="not an integer"):
            index_posterior(bsc_channel(2, 0.1), [0.25] * 4, received)

    @pytest.mark.parametrize("received", [np.int64(1), np.uint16(1), np.intp(1)])
    def test_numpy_integers_are_indices(self, received):
        ch, priors = bsc_channel(2, 0.1), [0.1, 0.2, 0.3, 0.4]
        got = index_posterior(ch, priors, received)
        assert got.shape == (4,)
        np.testing.assert_array_equal(got, index_posterior(ch, priors, 1))


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
    # An identity channel maps each table to itself exactly, so both paths
    # hand the same arrays to the same expanded sum.
    @pytest.mark.parametrize("true_d", [
        Gaussian(0.4, 1.3), Laplace(0.0, 1.0),
        GaussianMixture(((0.5, -1.5, 0.6), (0.5, 1.5, 0.6)))],
        ids=["gaussian", "laplace", "mixture"])
    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("bits", range(1, 9))
    def test_identity_channel_reduces_to_plain_distortion(self, true_d, strategy, bits):
        q = lloyd_max_design(Gaussian(0, 1), bits)
        ch = bsc_channel(bits, 0.0)
        dec = make_noisy_decoder(strategy, q, true_d, ch)
        got = noisy_distortion(q.partition, ch, dec, true_d)
        assert got == expected_distortion(q.partition, dec.table, true_d)

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

    @pytest.mark.parametrize("true_d", [
        Laplace(0.2, 0.8), GaussianMixture(((0.5, -1.5, 0.6), (0.5, 1.5, 0.6)))],
        ids=["laplace", "mixture"])
    def test_decoders_of_one_source_share_its_moment_table(self, true_d, kernel_calls):
        q = lloyd_max_design(Gaussian(0, 1), 4)
        p = q.partition
        calls = kernel_calls(type(true_d))
        # One kernel call serves the first epsilon; the second makes none.
        for eps in (0.05, 0.2):
            ch = bsc_channel(4, eps)
            tables = (q.design_codebook, generative_codebook(p, true_d),
                      soft_codebook(p, true_d, ch))
            for strategy, table in zip(STRATEGIES, tables):
                noisy_distortion(p, ch, NoisyDecoder(strategy, table), true_d)
            assert calls == [true_d], eps

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

    @pytest.mark.parametrize("sigma0, sigma1, name", [
        (math.nan, 1.0, "sigma0"), (1.0, math.nan, "sigma1"), (math.inf, 1.0, "sigma0")])
    def test_non_finite_scales_rejected(self, sigma0, sigma1, name):
        # NaN passed the old ``<= 0`` test and came back as NaN distortions.
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            strategy_report(sigma0, sigma1, 0.1)

"""Task-loss reconstruction and semantic labeling tests."""

import math

import numpy as np
import pytest
from scipy import integrate

from mismatch_quant import (
    ClassificationReport,
    Gaussian,
    GaussianMixture,
    Laplace,
    LabeledClass,
    LabeledSource,
    NoBracket,
    Partition,
    TaskLoss,
    ZeroMassBin,
    classification_report,
    eta,
    generative_codebook,
    golden_section_minimize,
    lloyd_max_design,
    map_labels,
    phi,
    rician_moment,
    squared_error,
    task_codebook,
    weighted_mse_csi,
)
from mismatch_quant.taskaware import _rician_moments


class TestGoldenSection:
    def test_quadratic(self):
        x = golden_section_minimize(lambda t: (t - 1.3) ** 2, 0.0, 3.0)
        assert x == pytest.approx(1.3, abs=1e-8)

    def test_quartic_well(self):
        x = golden_section_minimize(lambda t: t**4 - 2.0 * t * t, 0.5, 2.0)
        assert x == pytest.approx(1.0, abs=1e-8)

    def test_edge_minimum_raises(self):
        with pytest.raises(NoBracket):
            golden_section_minimize(lambda t: t, 0.0, 1.0)
        with pytest.raises(NoBracket):
            golden_section_minimize(lambda t: -t, 0.0, 1.0)

    def test_bad_bracket_rejected(self):
        with pytest.raises(ValueError):
            golden_section_minimize(lambda t: t * t, 1.0, 1.0)


class TestTaskLoss:
    def test_builtin_kinds(self):
        assert squared_error().kind == "squared_error"
        assert weighted_mse_csi().kind == "weighted_mse_csi"

    def test_builtin_rejects_evaluator(self):
        with pytest.raises(ValueError):
            TaskLoss(kind="squared_error", evaluate=lambda x, a: 0.0)

    def test_custom_requires_evaluator(self):
        with pytest.raises(ValueError):
            TaskLoss(kind="custom")
        with pytest.raises(ValueError):
            TaskLoss(kind="huber")


class TestTaskCodebook:
    def test_squared_error_recovers_conditional_means(self):
        q = lloyd_max_design(Gaussian(0, 1), 2)
        true_d = Gaussian(0.4, 1.3)
        got = task_codebook(q.partition, true_d, squared_error())
        want = generative_codebook(q.partition, true_d)
        np.testing.assert_allclose(got.as_array(), want.as_array(), atol=1e-8)

    def test_csi_loss_minimizer_is_a_moment_ratio(self):
        """For |x|^2 |x-a|^2 the per-bin optimum is E[X^3 | bin]/E[X^2 | bin]."""
        d = Gaussian(3.0, 0.5)
        q = lloyd_max_design(d, 2)
        got = task_codebook(q.partition, d, weighted_mse_csi()).as_array()
        for i, r in enumerate(q.partition.bins()):
            lo = r.lo if math.isfinite(r.lo) else 3.0 - 40 * 0.5
            hi = r.hi if math.isfinite(r.hi) else 3.0 + 40 * 0.5
            m3, _ = integrate.quad(lambda x: x**3 * d.pdf(x), lo, hi,
                                   epsabs=1e-13, limit=300)
            m2, _ = integrate.quad(lambda x: x**2 * d.pdf(x), lo, hi,
                                   epsabs=1e-13, limit=300)
            # the codeword is the closed-form ratio of the kernel's raw
            # moments, so agreement is limited by this quadrature oracle
            assert got[i] == pytest.approx(m3 / m2, rel=1e-12)

    @pytest.mark.parametrize("d, p", [
        (Laplace(0.3, 0.8), Partition((-2.0, -0.5, 0.0, 0.5, 0.9, 1.7, 2.5))),
        (GaussianMixture(((0.35, -1.2, 0.6), (0.65, 0.9, 1.1))),
         Partition((-2.1, -1.0, -0.3, 0.2, 0.8, 1.5, 2.4))),
    ])
    def test_csi_codebook_against_40_digit_moments(self, d, p, mp_raw_moment):
        got = task_codebook(p, d, weighted_mse_csi()).as_array()
        for i, r in enumerate(p.bins()):
            want = mp_raw_moment(d, r.lo, r.hi, 3) / mp_raw_moment(d, r.lo, r.hi, 2)
            assert got[i] == pytest.approx(float(want), rel=1e-11)

    def test_csi_pulls_codewords_above_the_mean(self):
        # power weighting tilts each bin's optimum toward larger |x|
        d = Gaussian(3.0, 0.5)
        q = lloyd_max_design(d, 2)
        csi = task_codebook(q.partition, d, weighted_mse_csi()).as_array()
        mmse = generative_codebook(q.partition, d).as_array()
        assert np.all(csi > mmse)

    def test_custom_loss_matches_builtin(self):
        q = lloyd_max_design(Gaussian(0, 1), 1)
        custom = TaskLoss(kind="custom", evaluate=lambda x, a: (x - a) ** 2)
        got = task_codebook(q.partition, Gaussian(0, 1), custom)
        want = generative_codebook(q.partition, Gaussian(0, 1))
        np.testing.assert_allclose(got.as_array(), want.as_array(), atol=1e-6)

    def test_empty_bin_raises(self):
        with pytest.raises(ZeroMassBin):
            task_codebook(Partition((50.0,)), Gaussian(0, 1), squared_error())

    def test_monotone_loss_has_no_interior_minimum(self):
        q = lloyd_max_design(Gaussian(0, 1), 1)
        runaway = TaskLoss(kind="custom", evaluate=lambda x, a: -a)
        with pytest.raises(NoBracket):
            task_codebook(q.partition, Gaussian(0, 1), runaway)


class TestRicianMoments:
    def test_k_zero_anchors(self):
        assert rician_moment(0.0, 2) == pytest.approx(1.0, abs=1e-12)
        assert rician_moment(0.0, 3) == pytest.approx(
            2.0 * math.sqrt(2.0 / math.pi), abs=1e-12)
        assert rician_moment(0.0, 4) == pytest.approx(3.0, abs=1e-12)

    def test_large_k_collapses_to_unit_point_mass(self):
        for n in (2, 3, 4):
            assert rician_moment(1e6, n) == pytest.approx(1.0, abs=1e-4)

    def test_second_moment_is_always_near_unit_power(self):
        for k in (0.0, 1.0, 3.0, 10.0, 100.0):
            m2 = rician_moment(k, 2)
            assert 1.0 <= m2 < 1.3

    @pytest.mark.parametrize("k", [0.0, 1.0, 200.0])
    def test_against_40_digit_quadrature(self, k, mp_raw_moment):
        mu = math.sqrt(k / (k + 1.0))
        g = Gaussian(mu, math.sqrt(1.0 / (k + 1.0)))
        mass = mp_raw_moment(g, 0.0, math.inf, 0)
        for n in (2, 3, 4):
            want = mp_raw_moment(g, 0.0, math.inf, n) / mass
            assert rician_moment(k, n) == pytest.approx(float(want), rel=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError):
            rician_moment(1.0, 5)
        with pytest.raises(ValueError):
            rician_moment(-0.5, 2)
        with pytest.raises(ValueError):
            rician_moment(math.nan, 2)


class TestPhiEta:
    def test_phi_endpoints(self):
        assert phi(0.0) == pytest.approx(1.5957691216057308, abs=1e-10)
        assert phi(3.0) == pytest.approx(1.30462, abs=1e-5)
        assert phi(1e6) == pytest.approx(1.0, abs=1e-4)

    def test_phi_decreases_in_k(self):
        vals = [phi(k) for k in (0.0, 1.0, 3.0, 10.0, 50.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_eta_reference_points(self):
        assert eta(0.0, 3.0) == pytest.approx(15.7478, abs=1e-3)
        assert eta(6.0, 3.0) == pytest.approx(10.2891, abs=1e-3)

    def test_eta_grows_with_model_gap(self):
        vals = [eta(k, 3.0) for k in (10.0, 50.0, 200.0)]
        assert vals == sorted(vals)
        assert vals[0] == pytest.approx(29.0045, abs=1e-3)
        assert vals[-1] == pytest.approx(94.7170, abs=1e-3)

    def test_eta_is_zero_when_matched_and_never_negative(self):
        assert eta(3.0, 3.0) == 0.0
        for kt, kd in ((0.0, 10.0), (10.0, 0.0), (5.0, 4.0)):
            assert eta(kt, kd) > 0.0


class TestRicianMemo:
    def test_each_factor_is_computed_once(self, monkeypatch):
        calls = []
        edge_stats = Gaussian.edge_stats

        def counted(self, edges, order=2):
            calls.append(self)
            return edge_stats(self, edges, order)

        monkeypatch.setattr(Gaussian, "edge_stats", counted)
        _rician_moments.cache_clear()
        for n in (2, 3, 4):
            rician_moment(4.0, n)
        eta(4.0, 9.0)
        phi(9.0)
        assert len(calls) == 2

    def test_cached_result_is_immutable(self):
        m = _rician_moments(2.0)
        assert m is _rician_moments(2.0)
        assert isinstance(m, tuple) and len(m) == 5
        with pytest.raises(TypeError):
            m[2] = 0.0

    @pytest.mark.parametrize("k", [0.0, 0.5, 1.0, 10.0, 200.0, 1e6])
    def test_bitwise_equal_to_the_uncached_computation(self, k):
        _rician_moments.cache_clear()
        fresh = _rician_moments.__wrapped__(k)
        assert _rician_moments(k) == fresh
        for n in (2, 3, 4):
            assert rician_moment(k, n) == fresh[n]
        assert phi(k) == fresh[3] / fresh[2]

    def test_int_and_float_factors_give_the_same_moments(self):
        _rician_moments.cache_clear()
        assert _rician_moments(3) == _rician_moments(3.0)
        assert _rician_moments(3) == _rician_moments.__wrapped__(3.0)
        assert eta(3, 1) == eta(3.0, 1.0)

    def test_invalid_factors_are_not_cached(self):
        _rician_moments.cache_clear()
        for _ in range(2):
            with pytest.raises(ValueError):
                rician_moment(-1.0, 2)
        assert _rician_moments.cache_info().currsize == 0


def _two_class_source(w_first: float) -> LabeledSource:
    return LabeledSource(classes=(
        LabeledClass("low", w_first, Gaussian(-1.0, 0.5)),
        LabeledClass("high", 1.0 - w_first, Gaussian(1.0, 0.5)),
    ))


class TestLabeledSource:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            LabeledSource(classes=(
                LabeledClass("a", 0.6, Gaussian(0, 1)),
                LabeledClass("b", 0.6, Gaussian(1, 1)),
            ))

    def test_labels_must_be_unique(self):
        with pytest.raises(ValueError):
            LabeledSource(classes=(
                LabeledClass("a", 0.5, Gaussian(0, 1)),
                LabeledClass("a", 0.5, Gaussian(1, 1)),
            ))

    def test_needs_classes_and_positive_weights(self):
        with pytest.raises(ValueError):
            LabeledSource(classes=())
        with pytest.raises(ValueError):
            LabeledClass("a", 0.0, Gaussian(0, 1))

    def test_marginal_flattens_nested_mixtures(self):
        src = LabeledSource(classes=(
            LabeledClass("a", 0.5, Gaussian(-1.0, 0.5)),
            LabeledClass("b", 0.5, GaussianMixture(((0.4, 0.5, 0.3),
                                                    (0.6, 1.5, 0.7)))),
        ))
        m = src.marginal()
        weights = [w for w, _, _ in m.components]
        assert weights == pytest.approx([0.5, 0.2, 0.3])

    def test_marginal_rejects_unsupported_laws(self):
        src = LabeledSource(classes=(
            LabeledClass("a", 1.0, Laplace(0.0, 1.0)),
        ))
        with pytest.raises(TypeError):
            src.marginal()


class TestMapLabels:
    def test_separated_classes_get_their_own_bins(self):
        src = _two_class_source(0.5)
        labels = map_labels(Partition((0.0,)), src)
        assert labels == ("low", "high")

    def test_skewed_mix_can_flip_a_bin(self):
        labels = map_labels(Partition((0.0,)), _two_class_source(0.99))
        assert labels == ("low", "low")

    def test_ties_go_to_the_earliest_class(self):
        src = LabeledSource(classes=(
            LabeledClass("first", 0.5, Gaussian(0, 1)),
            LabeledClass("second", 0.5, Gaussian(0, 1)),
        ))
        assert map_labels(Partition((0.0,)), src) == ("first", "first")

    def test_labels_are_the_per_bin_argmax_of_the_joint_mass(self):
        src = LabeledSource(classes=tuple(
            LabeledClass(f"c{k}", 0.25, Gaussian(m, 0.5))
            for k, m in enumerate((-1.5, -0.5, 0.5, 1.5))
        ))
        p = lloyd_max_design(src.marginal(), 6).partition
        labels = map_labels(p, src)
        joint = np.array([c.weight * c.distribution.edge_stats(p.edges(), order=0)[0]
                          for c in src.classes])
        assert labels == tuple(f"c{k}" for k in np.argmax(joint, axis=0))
        assert all(type(lab) is str for lab in labels)

    def test_massless_bins_raise(self):
        src = _two_class_source(0.5)
        with pytest.raises(ZeroMassBin):
            map_labels(Partition((50.0, 51.0, 52.0)), src)


class TestClassificationReport:
    def test_relabeling_recovers_the_skewed_mix(self):
        src_design = _two_class_source(0.5)
        src_true = _two_class_source(0.99)
        p = lloyd_max_design(src_design.marginal(), 1).partition
        rep = classification_report(p, src_true, src_design)
        # design labels split at zero: accuracy is the mass each class keeps
        # on its own side, 0.99 Phi(2) + 0.01 Phi(2)
        phi2 = 0.5 * (1.0 + math.erf(2.0 / math.sqrt(2.0)))
        assert rep.acc_fix == pytest.approx(phi2, abs=1e-9)
        # true-mix labels call everything "low", which is right 99% of the time
        assert rep.acc_gen == pytest.approx(0.99, abs=1e-9)
        assert rep.acc_gen >= rep.acc_fix
        assert rep.recovery_pct == pytest.approx(100.0, abs=1e-6)

    def test_matched_mixes_leave_nothing_to_recover(self):
        src = _two_class_source(0.5)
        p = lloyd_max_design(src.marginal(), 1).partition
        rep = classification_report(p, src, src)
        assert rep.acc_fix == pytest.approx(rep.acc_gen, abs=1e-12)
        assert rep.recovery_pct is None

    def test_report_is_a_plain_record(self):
        rep = ClassificationReport(acc_fix=0.5, acc_gen=0.6, acc_ideal=0.7,
                                   recovery_pct=50.0)
        assert rep.acc_ideal == 0.7

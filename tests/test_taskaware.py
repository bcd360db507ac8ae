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
    Partition,
    TaskLoss,
    ZeroMassBin,
    classification_report,
    eta,
    generative_codebook,
    lloyd_max_design,
    map_labels,
    phi,
    rician_moment,
    squared_error,
    task_codebook,
    weighted_mse_csi,
)
from mismatch_quant import cli
from mismatch_quant.distributions import _anchored, _gaussian_blocks
from mismatch_quant.taskaware import (
    _classification_reports, _joint_mass, _joint_masses, _rician_moments)


class TestTaskLoss:
    def test_builtin_kinds(self):
        assert squared_error().kind == "squared_error"
        assert weighted_mse_csi().kind == "weighted_mse_csi"

    def test_unknown_kind_rejected(self):
        for kind in ("custom", "huber"):
            with pytest.raises(ValueError):
                TaskLoss(kind=kind)


class TestTaskCodebook:
    def test_squared_error_recovers_conditional_means(self):
        q = lloyd_max_design(Gaussian(0, 1), 2)
        true_d = Gaussian(0.4, 1.3)
        got = task_codebook(q.partition, true_d, squared_error())
        want = generative_codebook(q.partition, true_d)
        assert got.values == want.values

    @pytest.mark.parametrize("design_d, true_d", [
        (Gaussian(0, 1), Gaussian(0.4, 1.3)),
        (Laplace(0.0, 1.0), Laplace(-0.3, 1.6)),
        (GaussianMixture(((0.5, -1.5, 0.6), (0.5, 1.5, 0.6))),
         GaussianMixture(((0.3, -1.0, 0.5), (0.7, 1.5, 1.2)))),
    ])
    @pytest.mark.parametrize("bits", [1, 4, 8, 12])
    def test_squared_error_is_bitwise_the_generative_codebook(self, design_d,
                                                               true_d, bits):
        q = lloyd_max_design(design_d, bits)
        got = task_codebook(q.partition, true_d, squared_error())
        assert got.values == generative_codebook(q.partition, true_d).values

    def test_csi_loss_minimizer_is_a_moment_ratio(self):
        """For |x|^2 |x-a|^2 the per-bin optimum is E[X^3 | bin]/E[X^2 | bin]."""
        d = Gaussian(3.0, 0.5)
        q = lloyd_max_design(d, 2)
        got = task_codebook(q.partition, d, weighted_mse_csi()).as_array()
        edges = q.partition.edges()
        for i, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
            lo = lo if math.isfinite(lo) else 3.0 - 40 * 0.5
            hi = hi if math.isfinite(hi) else 3.0 + 40 * 0.5
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
        edges = p.edges()
        for i, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
            want = mp_raw_moment(d, lo, hi, 3) / mp_raw_moment(d, lo, hi, 2)
            assert got[i] == pytest.approx(float(want), rel=1e-11)

    def test_csi_pulls_codewords_above_the_mean(self):
        # power weighting tilts each bin's optimum toward larger |x|
        d = Gaussian(3.0, 0.5)
        q = lloyd_max_design(d, 2)
        csi = task_codebook(q.partition, d, weighted_mse_csi()).as_array()
        mmse = generative_codebook(q.partition, d).as_array()
        assert np.all(csi > mmse)

    def test_empty_bin_raises(self):
        with pytest.raises(ZeroMassBin):
            task_codebook(Partition((50.0,)), Gaussian(0, 1), squared_error())
        # The message names every empty bin, as generative_codebook's does,
        # and mentions no fallback, which task_codebook does not take.
        for loss in (squared_error(), weighted_mse_csi()):
            with pytest.raises(ZeroMassBin, match=r"^bins \[1, 2, 3\] carry no mass") as err:
                task_codebook(Partition((50.0, 51.0, 52.0)), Gaussian(0, 1), loss)
            assert "fallback" not in str(err.value)


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

    def test_eta_on_the_cli_grid(self):
        # eta is M2 (phi(k_d) - phi(k_t))^2 over the stale loss: exactly zero
        # when the factors agree and never negative, with no tolerance.
        grid = cli.ExperimentConfig(experiment="rician_csi").k_t_values
        for kd in grid:
            for kt in grid:
                if kt == kd:
                    assert eta(kt, kd) == 0.0
                else:
                    assert eta(kt, kd) >= 0.0


class TestRicianMemo:
    def test_each_factor_is_computed_once(self, kernel_calls):
        calls = kernel_calls(Gaussian)
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


def _reference_joint(p, src):
    """``P(class y, bin i)`` from each class law's own ``edge_stats``."""
    return np.array([c.weight * c.distribution.edge_stats(p.edges(), order=0)[0]
                     for c in src.classes])


def _reference_classification(p, src_true, src_design):
    """``classification_report`` from per-class joint masses alone."""

    def labels(part, src):
        names = [c.label for c in src.classes]
        return [names[k] for k in np.argmax(_reference_joint(part, src), axis=0)]

    def accuracy(part, labs):
        joint = _reference_joint(part, src_true)
        index = {c.label: k for k, c in enumerate(src_true.classes)}
        return float(sum(joint[index[lab], i] for i, lab in enumerate(labs) if lab in index))

    acc_fix = accuracy(p, labels(p, src_design))
    acc_gen = accuracy(p, labels(p, src_true))
    ideal = lloyd_max_design(src_true.marginal(), p.bits).partition
    acc_ideal = accuracy(ideal, labels(ideal, src_true))
    gap = acc_ideal - acc_fix
    return acc_fix, acc_gen, acc_ideal, (
        100.0 * (acc_gen - acc_fix) / gap if abs(gap) > 1e-9 else None)


def _gaussian_source(seed, n):
    rng = np.random.default_rng(seed)
    weights = rng.uniform(0.5, 1.5, n)
    return LabeledSource(classes=tuple(
        LabeledClass(f"g{k}", float(w), Gaussian(float(m), float(s)))
        for k, (w, m, s) in enumerate(zip(weights / weights.sum(),
                                          rng.uniform(-2.0, 2.0, n),
                                          rng.uniform(0.3, 1.2, n)))))


class TestJointMass:
    """The Gaussian classes of a source share one kernel call; every table,
    label and accuracy must be bit for bit the per-class result."""

    @pytest.mark.parametrize("bits", range(1, 9))
    def test_gaussian_sources_match_the_per_class_tables(self, bits):
        for seed, n in ((bits, 1), (bits + 10, 3), (bits + 20, 7)):
            src_true, src_design = _gaussian_source(seed, n), _gaussian_source(seed + 1, 4)
            p = lloyd_max_design(src_design.marginal(), bits).partition
            joint = _joint_mass(p, src_true)
            want = _reference_joint(p, src_true)
            assert joint.shape == want.shape == (n, 1 << bits)
            assert joint.tobytes() == want.tobytes()
            labels = map_labels(p, src_true)
            names = [c.label for c in src_true.classes]
            assert labels == tuple(names[k] for k in np.argmax(want, axis=0))
            rep = classification_report(p, src_true, src_design)
            got = (rep.acc_fix, rep.acc_gen, rep.acc_ideal, rep.recovery_pct)
            assert got == _reference_classification(p, src_true, src_design), (seed, n)

    @pytest.mark.parametrize("bits", [9, 10, 12])
    def test_blocked_sources_match_the_per_class_tables(self, bits):
        # 10 classes on 513, 1025 and 4097 edges take blocks of 7, 3 and 1.
        src = _gaussian_source(bits, 10)
        p = lloyd_max_design(Gaussian(0.1, 1.3), bits).partition
        want = _reference_joint(p, src)
        assert _joint_mass(p, src).tobytes() == want.tobytes()
        names = [c.label for c in src.classes]
        assert map_labels(p, src) == tuple(names[k] for k in np.argmax(want, axis=0))

    def test_other_class_laws_keep_their_own_tables(self):
        mix = GaussianMixture(((0.3, -0.5, 0.4), (0.7, 0.8, 0.6)))
        src = LabeledSource(classes=(
            LabeledClass("a", 0.2, Gaussian(-1.0, 0.5)),
            LabeledClass("mix", 0.3, mix),
            LabeledClass("lap", 0.25, Laplace(0.5, 0.7)),
            LabeledClass("b", 0.25, Gaussian(1.5, 0.8)),
        ))
        p = lloyd_max_design(Gaussian(0.2, 1.2), 5).partition
        want = _reference_joint(p, src)
        assert _joint_mass(p, src).tobytes() == want.tobytes()
        names = [c.label for c in src.classes]
        assert map_labels(p, src) == tuple(names[k] for k in np.argmax(want, axis=0))
        src_true = LabeledSource(classes=(
            LabeledClass("mix", 0.6, mix), LabeledClass("b", 0.4, Gaussian(1.5, 0.8))))
        rep = classification_report(p, src_true, src)
        got = (rep.acc_fix, rep.acc_gen, rep.acc_ideal, rep.recovery_pct)
        assert got == _reference_classification(p, src_true, src)
        # Both sources on one partition, and each on its own (a row per
        # source): every law's row, Gaussian or not, is its own anchored table.
        sources, ps = [src, src_true], [p, lloyd_max_design(Laplace(), 5).partition]
        for edges, parts in ((p.edges(), [p, p]), (np.array([q.edges() for q in ps]), ps)):
            joints = _joint_masses(edges, sources)
            for joint, source, part in zip(joints, sources, parts):
                assert joint.tobytes() == _reference_joint(part, source).tobytes()
            laws = [c.distribution for source in sources for c in source.classes]
            owner = None if edges.ndim == 1 else np.repeat([0, 1], [len(src.classes), 2])
            seen = []
            for rows, table in _gaussian_blocks(laws, edges, 2, owner):
                for k, i in enumerate(rows):
                    want = _anchored(laws[i], edges if owner is None else edges[owner[i]], 2)
                    assert [m[k].tobytes() for m in table] == [w.tobytes() for w in want]
                seen += rows
            assert sorted(seen) == list(range(len(laws)))

    @pytest.mark.parametrize("n", [1, 3, 10])
    def test_one_source_serves_many_partitions(self, n):
        # One source read over partitions of every size and block layout
        # matches the per-class reference on each.
        src, src_design = _gaussian_source(n + 30, n), _gaussian_source(n + 31, 3)
        names = [c.label for c in src.classes]
        for bits in (3, 1, 9, 5, 12, 3):
            p = lloyd_max_design(Gaussian(0.1 * bits, 1.0 + 0.05 * bits), bits).partition
            want = _reference_joint(p, src)
            assert _joint_mass(p, src).tobytes() == want.tobytes(), bits
            assert map_labels(p, src) == tuple(names[k] for k in np.argmax(want, axis=0))
            if bits <= 5:
                rep = classification_report(p, src, src_design)
                got = (rep.acc_fix, rep.acc_gen, rep.acc_ideal, rep.recovery_pct)
                assert got == _reference_classification(p, src, src_design), bits


class TestClassificationReports:
    """``_classification_reports`` reads the class masses of every source
    from one kernel walk per partition set, given the design-mix labels;
    each row must be bit for bit the one-source ``classification_report``."""

    @pytest.mark.parametrize("bits", [1, 2, 3, 4, 9])
    def test_rows_are_the_one_source_reports(self, bits):
        cfg = cli.ExperimentConfig(experiment="semantic_mixture")
        src_design = cli._semantic_source(cfg, cfg.n_classes)
        mix = GaussianMixture(((0.4, -2.0, 0.5), (0.6, 1.0, 0.7)))
        # Duplicate k values, and a source whose mixture class goes alone.
        sources = [cli._semantic_source(cfg, k) for k in (3, 3, 10, 1, 6)] + [
            LabeledSource(classes=(LabeledClass("c0", 0.3, mix),
                                   LabeledClass("c4", 0.7, Gaussian(0.5, 0.6))))]
        p = lloyd_max_design(src_design.marginal(), bits).partition
        ideal = [lloyd_max_design(src.marginal(), bits).partition for src in sources]
        rows = _classification_reports(p, map_labels(p, src_design), sources, ideal)
        assert len(rows) == len(sources)
        for src, row in zip(sources, rows):
            assert row == classification_report(p, src, src_design)
            got = (row.acc_fix, row.acc_gen, row.acc_ideal, row.recovery_pct)
            assert got == _reference_classification(p, src, src_design)
        assert rows[0] == rows[1]


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

    @staticmethod
    def _reference_report(p, src_true, src_design):
        """The report composed from ``map_labels`` per partition and source
        and a per-bin Python sum of true-mix joint masses per labeling."""

        def accuracy(part, labels):
            index = {c.label: k for k, c in enumerate(src_true.classes)}
            joint = [c.weight * c.distribution.edge_stats(part.edges(), order=0)[0]
                     for c in src_true.classes]
            return float(sum(joint[index[lab]][i]
                             for i, lab in enumerate(labels) if lab in index))

        acc_fix = accuracy(p, map_labels(p, src_design))
        acc_gen = accuracy(p, map_labels(p, src_true))
        ideal = lloyd_max_design(src_true.marginal(), p.bits).partition
        acc_ideal = accuracy(ideal, map_labels(ideal, src_true))
        gap = acc_ideal - acc_fix
        recovery = 100.0 * (acc_gen - acc_fix) / gap if abs(gap) > 1e-9 else None
        return acc_fix, acc_gen, acc_ideal, recovery

    def test_bitwise_equal_to_the_composed_reference_on_the_cli_grid(self):
        cfg = cli.ExperimentConfig(experiment="semantic_mixture")
        src_design = cli._semantic_source(cfg, cfg.n_classes)
        marginal = src_design.marginal()
        parts = {bits: lloyd_max_design(marginal, bits).partition for bits in cfg.bits}
        assert cfg.bits == [1, 2, 3, 4] and cfg.n_classes == 10
        for k in range(1, cfg.n_classes + 1):
            src_true = cli._semantic_source(cfg, k)
            for bits, p in parts.items():
                rep = classification_report(p, src_true, src_design)
                got = (rep.acc_fix, rep.acc_gen, rep.acc_ideal, rep.recovery_pct)
                assert got == self._reference_report(p, src_true, src_design), (k, bits)

    def test_design_labels_missing_from_the_true_mix_score_zero(self):
        src_design = _two_class_source(0.5)
        src_true = LabeledSource(classes=(LabeledClass("low", 1.0, Gaussian(-1.0, 0.5)),))
        p = Partition((0.0,))
        rep = classification_report(p, src_true, src_design)
        (mass,) = Gaussian(-1.0, 0.5).edge_stats(p.edges(), order=0)
        # The design labels the right bin "high", a class the true mix lacks.
        assert map_labels(p, src_design) == ("low", "high")
        assert rep.acc_fix == float(mass[0])
        assert rep.acc_gen == float(mass[0] + mass[1])

    def test_bin_without_design_mass_raises(self):
        src_design = _two_class_source(0.5)
        src_true = LabeledSource(classes=(
            LabeledClass("low", 0.5, Gaussian(-1.0, 0.5)),
            LabeledClass("high", 0.5, Gaussian(51.0, 1.0)),
        ))
        p = Partition((50.0, 51.0, 52.0))
        map_labels(p, src_true)  # the true mix covers every bin
        with pytest.raises(ZeroMassBin):
            classification_report(p, src_true, src_design)

    def test_report_is_a_plain_record(self):
        rep = ClassificationReport(acc_fix=0.5, acc_gen=0.6, acc_ideal=0.7,
                                   recovery_pct=50.0)
        assert rep.acc_ideal == 0.7

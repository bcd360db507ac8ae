"""Reconstruction for losses other than plain MSE, and semantic labeling.

Two demonstrations drive the design.  For channel-state feedback the loss
``|x|^2 |x - a|^2`` weights errors by instantaneous power, which pulls the
per-bin optimum above the conditional mean.  For classification the decoder
does not reconstruct at all: it attaches the maximum-posterior class label
to each bin, so adapting labels to the true class mix costs nothing at the
encoder.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .distributions import (
    ZERO_MASS_TOL, Distribution, Gaussian, GaussianMixture, _anchored, _conditional_means,
    _gaussian_blocks)
from .errors import ZeroMassBin
from .quantizer import Codebook, Partition, _moment_table, lloyd_max_design

__all__ = [
    "ClassificationReport",
    "LabeledClass",
    "LabeledSource",
    "TaskLoss",
    "classification_report",
    "eta",
    "map_labels",
    "phi",
    "rician_moment",
    "squared_error",
    "task_codebook",
    "weighted_mse_csi",
]


@dataclass(frozen=True)
class TaskLoss:
    """A per-sample loss ``d(x, a)`` the decoder should minimize in mean.

    ``kind`` is "squared_error" or "weighted_mse_csi"; both have closed-form
    per-bin minimizers.
    """

    kind: str

    def __post_init__(self) -> None:
        if self.kind not in ("squared_error", "weighted_mse_csi"):
            raise ValueError(f"unknown loss kind: {self.kind!r}")


def squared_error() -> TaskLoss:
    return TaskLoss(kind="squared_error")


def weighted_mse_csi() -> TaskLoss:
    """Power-weighted squared error ``|x|^2 |x - a|^2``."""
    return TaskLoss(kind="weighted_mse_csi")


def task_codebook(p: Partition, true_d: Distribution, loss: TaskLoss) -> Codebook:
    """Per-bin minimizers of the conditional expected task loss.

    Both losses have closed-form minimizers in the per-bin raw moments
    ``m_k = E[X^k 1_bin]``: ``m1/m0`` for squared error and ``m3/m2`` for the
    power-weighted loss, whose conditional risk ``m4 - 2a m3 + a^2 m2`` is a
    quadratic in ``a``.  Both are read about each bin's anchor ``e``: ``e +
    J1/J0`` and ``e + (m3 - e m2)/m2``, ``m2`` and ``m3 - e m2`` expanded in
    the ``J_k``, where ``|X - e|`` is at most the bin's width.

    Raises
    ------
    ZeroMassBin
        If some bin has no mass under ``true_d``.
    """
    csi = loss.kind == "weighted_mse_csi"
    table = _moment_table(true_d, p, 3 if csi else 1)
    mean, _ = _conditional_means(table, true_d, None)
    if not csi:
        return Codebook(mean)
    e, j = table[0], np.array(table[1:])
    m2, m3 = e * (e * j[:2] + 2.0 * j[1:3]) + j[2:]  # m3 less e m2
    # A bin whose second moment underflows has a flat risk; keep its mean.
    tilted, _ = _conditional_means((e, m2, m3), true_d, mean)
    return Codebook(tilted)


# Each Rice factor's moments are computed once per process: the CSI
# experiments ask for the same few factors many times over.  An entry is
# five floats, so the bound only guards against unbounded sweeps.
@functools.lru_cache(maxsize=256)
def _rician_moments(k_factor: float) -> tuple[float, ...]:
    """Conditional moments ``M_0..M_4`` of the positive-part fading amplitude.

    The unit-power Rice-``K`` coefficient is reduced to a real Gaussian with
    the line-of-sight mean ``sqrt(K/(K+1))`` and the full scattered power
    ``1/(K+1)`` as variance, conditioned on the positive half-line.  That
    convention pins the K = 0 anchors ``M_2 = 1``, ``M_3 = 2 sqrt(2/pi)``
    and ``M_4 = 3``, and collapses to a unit point mass as K grows.
    The result is a tuple, since it is shared by every caller.
    """
    if not math.isfinite(k_factor) or k_factor < 0.0:
        raise ValueError(f"k_factor must be finite and >= 0, got {k_factor}")
    g = Gaussian(mean=math.sqrt(k_factor / (k_factor + 1.0)),
                 std=math.sqrt(1.0 / (k_factor + 1.0)))
    # The bin [0, inf) holds the mean, its anchor e: M_n = E[(e + U)^n] / J_0,
    # the moments J_k of U shifted by e (Horner's rule, a degree at a time).
    e, *m = (float(x[0]) for x in _anchored(g, [0.0, math.inf], 4))
    for top in range(1, 5):
        for n in range(4, top - 1, -1):
            m[n] += e * m[n - 1]
    return tuple(x / m[0] for x in m)


def rician_moment(k_factor: float, n: int) -> float:
    """Scalar moment ``M_n(K)`` of the positive-part fading amplitude,
    ``n`` in {2, 3, 4}; see ``_rician_moments`` for the convention."""
    if n not in (2, 3, 4):
        raise ValueError(f"n must be 2, 3, or 4, got {n}")
    return float(_rician_moments(k_factor)[n])


def phi(k_factor: float) -> float:
    """Task-optimal scalar reconstruction ``M_3(K) / M_2(K)`` for the
    power-weighted loss; decreases from ``2 sqrt(2/pi)`` at K = 0 toward 1."""
    m = _rician_moments(k_factor)
    return float(m[3] / m[2])


def eta(k_true: float, k_design: float) -> float:
    """Percentage task-loss saving from adapting the reconstruction to the
    true Rice factor instead of keeping the design one.

    The loss ``M4 - 2 a M3 + a^2 M2`` of the true moments is a quadratic
    minimised at ``phi(k_true)``, so the saving is ``M2 (a_d - a_t)^2``
    exactly, ``a = phi(k)``, with no difference of two near-equal losses."""
    _, _, m2, m3, m4 = _rician_moments(k_true)
    a_d = phi(k_design)
    stale = m4 - 2.0 * a_d * m3 + a_d * a_d * m2
    gap = a_d - phi(k_true)
    return float(100.0 * m2 * gap * gap / stale)


@dataclass(frozen=True)
class LabeledClass:
    """One semantic class: a label, its prior weight, and its law."""

    label: str
    weight: float
    distribution: Distribution

    def __post_init__(self) -> None:
        if not math.isfinite(self.weight) or self.weight <= 0.0:
            raise ValueError(f"class weight must be positive, got {self.weight}")


@dataclass(frozen=True)
class LabeledSource:
    """A mixture source whose components carry class labels."""

    classes: tuple[LabeledClass, ...]

    def __post_init__(self) -> None:
        if not self.classes:
            raise ValueError("a labeled source needs at least one class")
        total = sum(c.weight for c in self.classes)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"class weights must sum to 1, got {total}")
        labels = [c.label for c in self.classes]
        if len(set(labels)) != len(labels):
            raise ValueError("class labels must be unique")

    def marginal(self) -> GaussianMixture:
        """The unlabeled observation law (Gaussian classes only)."""
        comps: list[tuple[float, float, float]] = []
        for c in self.classes:
            if isinstance(c.distribution, Gaussian):
                comps.append((c.weight, c.distribution.mean, c.distribution.std))
            elif isinstance(c.distribution, GaussianMixture):
                comps.extend(
                    (c.weight * w, m, s) for w, m, s in c.distribution.components
                )
            else:
                raise TypeError(
                    "marginal() needs Gaussian or GaussianMixture class laws, "
                    f"got {type(c.distribution).__name__}"
                )
        return GaussianMixture(components=tuple(comps))


def _joint_masses(edges: np.ndarray, sources) -> list[np.ndarray]:
    """The ``_joint_mass`` table of each of ``sources`` on ``edges`` (one row
    for all, or a row per source), every class law's masses from
    ``_gaussian_blocks``: the Gaussian ones of them all in one walk of the
    kernel, other laws one by one."""
    sizes = [len(src.classes) for src in sources]
    laws = [c.distribution for src in sources for c in src.classes]
    owner = None if edges.ndim == 1 else np.repeat(np.arange(len(sources)), sizes)
    joint = np.empty((len(laws), edges.shape[-1] - 1))
    for rows, (_, mass) in _gaussian_blocks(laws, edges, 0, owner):
        joint[rows] = mass
    joint *= np.array([[c.weight] for src in sources for c in src.classes])
    return [joint[end - size : end] for size, end in zip(sizes, itertools.accumulate(sizes))]


def _joint_mass(p: Partition, src: LabeledSource) -> np.ndarray:
    """Matrix of ``P(class y, bin i)``, classes by bins (``_joint_masses``)."""
    return _joint_masses(p.edges(), [src])[0]


def _labels_from_joint(joint: np.ndarray, src: LabeledSource) -> tuple[str, ...]:
    """The ``map_labels`` of the ``_joint_mass`` table ``joint`` of ``src``."""
    totals = joint.sum(axis=0)
    bad = np.flatnonzero(totals < ZERO_MASS_TOL)
    if bad.size:
        raise ZeroMassBin(f"bins {bad.tolist()} carry no mass under any class")
    labels = [c.label for c in src.classes]
    return tuple([labels[w] for w in np.argmax(joint, axis=0).tolist()])


def map_labels(p: Partition, src: LabeledSource) -> tuple[str, ...]:
    """Maximum-posterior class label per bin; ties go to the earliest class.

    Raises
    ------
    ZeroMassBin
        If some bin has no mass under any class.
    """
    return _labels_from_joint(_joint_mass(p, src), src)


def _label_accuracy(joint: np.ndarray, labels: tuple[str, ...], src: LabeledSource) -> float:
    """Probability under ``src``, whose ``_joint_mass`` table is ``joint``,
    that a bin's label is the class drawn; labels ``src`` lacks score zero.
    The bins are summed in order by a Python sum."""
    index = {c.label: k for k, c in enumerate(src.classes)}
    return float(
        sum(
            joint[index[lab], i]
            for i, lab in enumerate(labels)
            if lab in index
        )
    )


@dataclass(frozen=True)
class ClassificationReport:
    """Bin-labeling accuracy under the true class mix for three decoders.

    ``recovery_pct`` is the share of the fixed-to-ideal accuracy gap closed
    by relabeling alone; it is ``None`` when the gap is too small to divide.
    """

    acc_fix: float
    acc_gen: float
    acc_ideal: float
    recovery_pct: float | None


def classification_report(
    p: Partition, src_true: LabeledSource, src_design: LabeledSource
) -> ClassificationReport:
    """Accuracy of design-mix labels, true-mix labels, and a full redesign.

    All accuracies are evaluated under ``src_true``.  The ideal decoder
    redesigns the partition for the true marginal at the same bit depth and
    labels it with the true mix; that design comes from the design memo of
    ``lloyd_max_design`` when the marginal was designed before, and is run
    here otherwise.  This is the one-source ``_classification_reports``.
    """
    labels_fix = map_labels(p, src_design)
    ideal = lloyd_max_design(src_true.marginal(), p.bits).partition
    return _classification_reports(p, labels_fix, [src_true], [ideal])[0]


def _classification_reports(p: Partition, labels_fix: tuple[str, ...], sources,
                            ideal) -> list[ClassificationReport]:
    """``classification_report(p, src, src_design)`` of each ``src`` of
    ``sources``, given ``labels_fix = map_labels(p, src_design)`` and their
    ``ideal`` partitions, from two class-by-bin tables of all their classes:
    one kernel walk on ``p`` and one on the ``ideal`` ones (``_joint_masses``)."""
    deployed = _joint_masses(p.edges(), sources)
    redesigned = _joint_masses(np.array([q.edges() for q in ideal]), sources)
    out = []
    for src, joint_true, joint_ideal in zip(sources, deployed, redesigned):
        acc_fix = _label_accuracy(joint_true, labels_fix, src)
        acc_gen = _label_accuracy(joint_true, _labels_from_joint(joint_true, src), src)
        acc_ideal = _label_accuracy(joint_ideal, _labels_from_joint(joint_ideal, src), src)
        gap = acc_ideal - acc_fix
        recovery = 100.0 * (acc_gen - acc_fix) / gap if abs(gap) > 1e-9 else None
        out.append(ClassificationReport(acc_fix, acc_gen, acc_ideal, recovery))
    return out

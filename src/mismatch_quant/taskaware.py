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
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import integrate

from .distributions import (
    ZERO_MASS_TOL,
    Distribution,
    Gaussian,
    GaussianMixture,
    Interval,
)
from .errors import NoBracket, ZeroMassBin
from .quantizer import Codebook, Partition, lloyd_max_design

__all__ = [
    "ClassificationReport",
    "LabeledClass",
    "LabeledSource",
    "TaskLoss",
    "classification_report",
    "eta",
    "golden_section_minimize",
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

    ``kind`` selects a built-in ("squared_error", "weighted_mse_csi") or
    marks a user loss ("custom", with ``evaluate`` supplied).
    """

    kind: str
    evaluate: Callable[[float, float], float] | None = None

    def __post_init__(self) -> None:
        if self.kind in ("squared_error", "weighted_mse_csi"):
            if self.evaluate is not None:
                raise ValueError(f"{self.kind} does not take a custom evaluator")
        elif self.kind == "custom":
            if self.evaluate is None:
                raise ValueError("custom loss needs an evaluate(x, a) callable")
        else:
            raise ValueError(f"unknown loss kind: {self.kind!r}")


def squared_error() -> TaskLoss:
    return TaskLoss(kind="squared_error")


def weighted_mse_csi() -> TaskLoss:
    """Power-weighted squared error ``|x|^2 |x - a|^2``."""
    return TaskLoss(kind="weighted_mse_csi")


def golden_section_minimize(
    fn: Callable[[float], float], lo: float, hi: float, tol: float = 1e-10
) -> float:
    """Golden-section search for the minimum of a unimodal ``fn`` on [lo, hi].

    Raises
    ------
    NoBracket
        If the search collapses onto an endpoint, meaning the bracket does
        not contain an interior minimum.
    """
    if not lo < hi:
        raise ValueError(f"bracket requires lo < hi, got [{lo}, {hi}]")
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    inv_phi2 = (3.0 - math.sqrt(5.0)) / 2.0
    a, b = lo, hi
    h = b - a
    c = a + inv_phi2 * h
    d = a + inv_phi * h
    fc = fn(c)
    fd = fn(d)
    while h > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            h = b - a
            c = a + inv_phi2 * h
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = a + inv_phi * h
            fd = fn(d)
    x = 0.5 * (a + b)
    guard = max(tol * 10.0, 1e-12 * (hi - lo))
    if x - lo < guard or hi - x < guard:
        raise NoBracket(
            f"minimum of bracket [{lo}, {hi}] sits at the edge (x={x}); "
            "the interval does not bracket an interior minimum"
        )
    return x


def _bin_objective(
    d: Distribution, loss: TaskLoss, r: Interval, mass: float
) -> Callable[[float], float]:
    """Conditional expected custom loss on the bin as a function of ``a``."""

    def objective(a: float) -> float:
        val, _ = integrate.quad(
            lambda x: loss.evaluate(x, a) * d.pdf(x), r.lo, r.hi,
            epsabs=1e-12, epsrel=1e-10, limit=500,
        )
        return val / mass

    return objective


def task_codebook(
    p: Partition,
    true_d: Distribution,
    loss: TaskLoss,
    *,
    bracket_sigmas: float = 5.0,
    tol: float = 1e-10,
) -> Codebook:
    """Per-bin minimizers of the conditional expected task loss.

    The built-in losses have closed-form minimizers in the per-bin raw
    moments ``m_k``: ``m1/m0`` for squared error and ``m3/m2`` for the
    power-weighted loss, whose conditional risk ``m4 - 2a m3 + a^2 m2`` is a
    quadratic in ``a``.  A custom loss is minimized by golden-section search
    with each bin's bracket at its conditional mean plus/minus
    ``bracket_sigmas`` conditional standard deviations.

    Raises
    ------
    ZeroMassBin
        If some bin has no mass under ``true_d``.
    NoBracket
        If a custom loss's bracket does not contain an interior minimum.
    """
    moments = true_d.edge_stats(p.edges(), order=3 if loss.kind == "weighted_mse_csi" else 2)
    mass = moments[0]
    empty = np.flatnonzero(mass < ZERO_MASS_TOL)
    if empty.size:
        raise ZeroMassBin(f"bin {empty[0]} carries no mass under {true_d!r}")
    mean = moments[1] / mass
    if loss.kind == "squared_error":
        return Codebook(mean)
    if loss.kind == "weighted_mse_csi":
        # A bin whose second moment underflows has a flat risk; keep its mean.
        m2, m3 = moments[2], moments[3]
        return Codebook(np.divide(m3, m2, out=mean, where=m2 > 0.0))

    sigma = np.sqrt(np.maximum(moments[2] / mass - mean * mean, 0.0))
    values = []
    for i, r in enumerate(p.bins()):
        if sigma[i] == 0.0:
            values.append(mean[i])
            continue
        objective = _bin_objective(true_d, loss, r, mass[i])
        span = bracket_sigmas * sigma[i]
        values.append(
            golden_section_minimize(objective, mean[i] - span, mean[i] + span, tol=tol)
        )
    return Codebook(values)


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
    raw = np.concatenate(g.edge_stats([0.0, math.inf], order=4))
    return tuple((raw / raw[0]).tolist())


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
    true Rice factor instead of keeping the design one."""
    _, _, m2, m3, m4 = _rician_moments(k_true)

    def task_loss(a: float) -> float:
        return m4 - 2.0 * a * m3 + a * a * m2

    adapted = task_loss(m3 / m2)
    stale = task_loss(phi(k_design))
    return float(100.0 * (1.0 - adapted / stale))


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


def _joint_mass(p: Partition, src: LabeledSource) -> np.ndarray:
    """Matrix of ``P(class y, bin i)``, classes by bins."""
    edges = p.edges()
    rows = []
    for c in src.classes:
        (mass,) = c.distribution.edge_stats(edges, order=0)
        rows.append(c.weight * mass)
    return np.asarray(rows)


def map_labels(p: Partition, src: LabeledSource) -> tuple[str, ...]:
    """Maximum-posterior class label per bin; ties go to the earliest class.

    Raises
    ------
    ZeroMassBin
        If some bin has no mass under any class.
    """
    joint = _joint_mass(p, src)
    totals = joint.sum(axis=0)
    bad = np.flatnonzero(totals < ZERO_MASS_TOL)
    if bad.size:
        raise ZeroMassBin(f"bins {bad.tolist()} carry no mass under any class")
    labels = [c.label for c in src.classes]
    return tuple([labels[w] for w in np.argmax(joint, axis=0).tolist()])


def _label_accuracy(p: Partition, labels: tuple[str, ...], src: LabeledSource) -> float:
    joint = _joint_mass(p, src)
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
    p: Partition,
    src_true: LabeledSource,
    src_design: LabeledSource,
    *,
    max_iters: int = 500,
    tol: float = 1e-10,
) -> ClassificationReport:
    """Accuracy of design-mix labels, true-mix labels, and a full redesign.

    All accuracies are evaluated under ``src_true``.  The ideal decoder
    redesigns the partition for the true marginal at the same bit depth and
    labels it with the true mix.
    """
    labels_fix = map_labels(p, src_design)
    labels_gen = map_labels(p, src_true)
    acc_fix = _label_accuracy(p, labels_fix, src_true)
    acc_gen = _label_accuracy(p, labels_gen, src_true)

    ideal_q = lloyd_max_design(
        src_true.marginal(), p.bits, max_iters=max_iters, tol=tol
    )
    labels_ideal = map_labels(ideal_q.partition, src_true)
    acc_ideal = _label_accuracy(ideal_q.partition, labels_ideal, src_true)

    gap = acc_ideal - acc_fix
    recovery = 100.0 * (acc_gen - acc_fix) / gap if abs(gap) > 1e-9 else None
    return ClassificationReport(
        acc_fix=acc_fix, acc_gen=acc_gen, acc_ideal=acc_ideal, recovery_pct=recovery
    )

"""Scalar quantizers: partitions, codebooks, and Lloyd-Max design."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import lapack

from .distributions import ZERO_MASS_TOL, Distribution, Gaussian, Laplace, _table_distortion
from .errors import DegenerateDesign

__all__ = [
    "Partition",
    "Codebook",
    "Quantizer",
    "lloyd_max_design",
]

_STEP_TOL = 1e-10  # a smaller accepted Newton step (relative to max(1, max|t|)) converges


class _FrozenArray:
    """A validated, read-only float64 array, compared and hashed by value.

    The constructor copies its argument and checks it once (finite,
    non-empty, ``_NDIM`` dimensions, then the subclass's ``_check``).
    Readers take the array from ``as_array()``.  Equality is
    ``np.array_equal`` within one type; the hash, computed once, is that of
    the bytes with ``-0.0`` mapped to ``+0.0``.  Copies and pickles go back
    through the constructor, so no salted hash travels in a pickle.  The
    tuple view named ``_VIEW`` is built on first access; ``repr`` shows it.
    """

    _NDIM, _VIEW = 1, ""

    def __new__(cls, values):
        return cls._adopt(np.array(values, dtype=float))

    @classmethod
    def _adopt(cls, arr: np.ndarray) -> _FrozenArray:
        """The instance holding the float64 array ``arr`` itself, which no
        caller may keep (the constructor passes a copy), checked and frozen."""
        self = object.__new__(cls)
        if arr.ndim != self._NDIM or not arr.size or not np.isfinite(arr).all():
            raise ValueError(f"{cls.__name__} needs a non-empty finite {self._NDIM}-d array")
        self._check(arr)
        arr.flags.writeable = False
        object.__setattr__(self, "_array", arr)
        return self

    def _check(self, arr: np.ndarray) -> None:
        """Raise ValueError unless ``arr`` obeys the subclass's own rules."""

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"cannot set or delete {name!r}: {type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and np.array_equal(self._array, other._array)

    @functools.cached_property
    def _hash(self) -> int:
        return hash((self._array + 0.0).tobytes())

    def __hash__(self) -> int:
        return self._hash

    def _as_tuple(self) -> tuple:
        """The values as (nested) tuples of floats, for the view ``_VIEW``."""
        v = self._array.tolist()
        return tuple(map(tuple, v)) if self._NDIM == 2 else tuple(v)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self._VIEW}={getattr(self, self._VIEW)!r})"

    def __reduce__(self):
        return type(self), (self._array,)

    def as_array(self) -> np.ndarray:
        """The values as a read-only array (no copy)."""
        return self._array


class Partition(_FrozenArray):
    """N bins cut by N-1 strictly increasing finite thresholds.

    Bins follow the half-open convention: bin ``i`` (0-based) is
    ``[t_{i-1}, t_i)`` with the outer bins extended to ``-inf`` and ``+inf``.
    N must be a power of two so every partition corresponds to a bit depth.
    ``boundaries`` holds the thresholds as a tuple of floats.
    """

    _VIEW = "boundaries"
    boundaries = functools.cached_property(_FrozenArray._as_tuple)

    def _check(self, t: np.ndarray) -> None:
        if (t[1:] <= t[:-1]).any():
            raise ValueError("boundaries must be strictly increasing")
        n = t.size + 1
        if n & (n - 1):
            raise ValueError(f"bin count must be a power of two, got {n}")

    @property
    def n_bins(self) -> int:
        return self._array.size + 1

    @property
    def bits(self) -> int:
        return self.n_bins.bit_length() - 1

    def edges(self) -> np.ndarray:
        """All bin edges including the infinite outer ones."""
        return np.concatenate(([-np.inf], self._array, [np.inf]))

    def encode(self, x):
        """Map values to 0-based bin indices; boundary points go right.  As
        ``np.searchsorted(boundaries, x, side="right")``, an ``int`` for a
        scalar; an array goes through ``_narrow_index``, and NaN still goes last."""
        if np.ndim(x):
            return self._narrow_index(np.asarray(x, dtype=float)).astype(np.intp)
        return int(np.searchsorted(self._array, x, side="right"))

    def _narrow_index(self, x: np.ndarray) -> np.ndarray:
        """``encode`` of the float array ``x`` in the narrowest unsigned type
        that holds every index (one byte to 8 bits, two to 16): counted into
        ``uint8`` below 64 thresholds, ``n - sum_i (x < t_i)``, else searched."""
        t = self._array
        if t.size >= 64:
            return np.searchsorted(t, x, side="right").astype(np.min_scalar_type(t.size))
        below = np.zeros(x.shape, dtype=np.uint8)
        for ti in t:
            below += x < ti
        return np.subtract(t.size, below, out=below)


def _bin_arrays(p: Partition, *tables) -> list:
    """The arrays of ``tables``, each a ``Codebook`` or ``Channel`` with one
    entry or row per bin of ``p`` (else ValueError), or None, kept as None."""
    arrays = [None if t is None else t.as_array() for t in tables]
    for t, a in zip(tables, arrays):
        if a is not None and len(a) != p.n_bins:
            raise ValueError(f"{type(t).__name__} size {len(a)} does not match {p.n_bins} bins")
    return arrays


class Codebook(_FrozenArray):
    """Reconstruction values, one per bin; ``values`` is their tuple of floats."""

    _VIEW = "values"
    values = functools.cached_property(_FrozenArray._as_tuple)

    def __len__(self) -> int:
        return self._array.size


@dataclass(frozen=True)
class Quantizer:
    """A fixed encoder (partition) with the codebook it was designed with."""

    partition: Partition
    design_codebook: Codebook
    design_law: Distribution
    # How the Lloyd-Max design that produced this quantizer ended; diagnostic,
    # so none of it takes part in equality.  The defaults describe a
    # quantizer built directly, with no design run behind it.
    distortion_history: tuple[float, ...] = field(default=(), compare=False)
    converged: bool = field(default=False, compare=False)
    iterations: int = field(default=0, compare=False)
    residual: float = field(default=math.nan, compare=False)

    def __post_init__(self) -> None:
        _bin_arrays(self.partition, self.design_codebook)

    @property
    def bits(self) -> int:
        return self.partition.bits

    def encode(self, x):
        return self.partition.encode(x)

    def decode(self, idx, codebook: Codebook | None = None):
        """Reconstruction for encoded indices, by default the design codebook."""
        [table] = _bin_arrays(self.partition, codebook or self.design_codebook)
        out = table[np.asarray(idx)]
        return out if np.ndim(idx) else float(out)

    def to_record(self) -> dict:
        """Plain serializable description of the designed quantizer."""
        return {
            "bits": self.bits,
            "boundaries": self.partition.as_array().tolist(),
            "codebook": self.design_codebook.as_array().tolist(),
            "design_law": self.design_law.to_config(),
        }


def _cube_root_quantiles(d: Distribution, q: np.ndarray) -> np.ndarray:
    """Quantiles of the normalized cube-root density ``f^{1/3}``.

    Where ``d.cube_root_law()`` exists (Gaussian, Laplace) these are its
    closed-form quantiles.  A mixture integrates ``f^{1/3}`` by the
    trapezoid rule on ``64 N + 1`` points, ``N = len(q)``.  Since
    ``(sum_j w_j f_j)^{1/3} <= sum_j (w_j f_j)^{1/3}``, the grid spans the
    ``1e-12`` to ``1 - 1e-12`` quantiles of the components' own cube-root
    laws, which leaves out a mass of the same order.  Inside that span
    ``f`` underflows only where ``f^{1/3}`` is below ``1e-102``, so the
    density is cube-rooted directly.
    """
    g = d.cube_root_law()
    if g is not None:
        return np.asarray(g.ppf(q), dtype=float)
    laws = [Gaussian(m, s).cube_root_law() for _, m, s in d.components]
    lo = min(law.ppf(1e-12) for law in laws)
    hi = max(law.ppf(1.0 - 1e-12) for law in laws)
    grid = np.linspace(lo, hi, 64 * len(q) + 1)
    weight = np.cbrt(d.pdf(grid))
    cdf = np.concatenate(([0.0], np.cumsum((weight[1:] + weight[:-1]) * np.diff(grid))))
    cdf /= cdf[-1]
    return np.interp(q, cdf, grid)


def _design_state(d: Distribution, t: np.ndarray, lower: float = -np.inf):
    """Bin masses, centroids, design distortion, midpoint residual and second
    moments ``m2`` of the bins ``[lower, t..., inf)`` that thresholds ``t``
    cut, from one kernel call."""
    mass, m1, m2 = table = d.edge_stats(np.concatenate(([lower], t, [np.inf])))
    with np.errstate(invalid="ignore", divide="ignore"):
        c = m1 / mass
    distortion = _table_distortion(table, c, c * c)
    return mass, c, distortion, t - 0.5 * (c[:-1] + c[1:]), m2


def _damped_newton_step(d: Distribution, t, mass, c, r, damping: float):
    """Solve ``((1 - damping) J + damping I) s = r`` for the step ``s``.

    ``J = I - L`` is the Jacobian of the midpoint residual ``r``, with ``L``
    the tridiagonal Jacobian of the Lloyd map ``t -> (c[:-1] + c[1:]) / 2``
    from ``dc_i/dt = f(t) (t - c_i) / mass_i`` at each edge of bin ``i``.
    ``damping = 0`` is Newton's step and ``damping = 1`` is Lloyd's step
    ``s = r``; in between, the slow modes that Lloyd's step barely moves are
    amplified by up to ``1 / damping``.  The system goes straight to
    LAPACK's tridiagonal ``gtsv``, the routine ``linalg.solve_banded((1, 1),
    ...)`` calls, without its band buffer and checks; a single threshold is
    the division ``r / diag``, as ``solve_banded`` does it.  Returns None if
    the solve fails.
    """
    f = np.asarray(d.pdf(t), dtype=float)
    phi = 1.0 - damping
    right = 0.5 * f * (t - c[:-1]) / mass[:-1]  # dc_i/dt_i / 2, t_i ends bin i
    left = 0.5 * f * (c[1:] - t) / mass[1:]  # dc_(i+1)/dt_i / 2, t_i starts bin i+1
    diag = 1.0 - phi * (right + left)
    if len(t) == 1:
        return r / diag
    upper = -phi * right[1:]  # -phi L[i, i + 1]
    lower = -phi * left[:-1]  # -phi L[i + 1, i]
    *_, step, info = lapack.dgtsv(
        lower, diag, upper, r, overwrite_dl=True, overwrite_d=True, overwrite_du=True
    )
    return None if info else step


def _check_masses(mass: np.ndarray) -> None:
    bad = np.flatnonzero(mass < ZERO_MASS_TOL)
    if bad.size:
        raise DegenerateDesign(f"bins {bad.tolist()} lost all design mass")


def _standard_member(d: Distribution):
    """``(standard, loc, scale)`` with ``d`` the law of ``loc + scale * X``,
    ``X`` following ``standard``: the zero-mean, unit-variance member of the
    family of a Gaussian or Laplace law, and ``d`` itself (``loc = 0``,
    ``scale = 1``) for a law outside a location-scale family."""
    if type(d) is Gaussian:
        return Gaussian(), d.mean, d.std
    if type(d) is Laplace:
        standard = Laplace()
        return standard, d.loc, d.scale / standard.scale
    return d, 0.0, 1.0


def lloyd_max_design(
    d: Distribution,
    bits: int,
    *,
    max_iters: int = 500,
    init: str = "quantile",
) -> Quantizer:
    """Design a minimum-MSE scalar quantizer for ``d`` at ``bits`` bits.

    Solves the two optimality conditions, thresholds at codeword midpoints
    and codewords at bin centroids, as one equation in the thresholds:
    ``r(t) = t - (c[:-1] + c[1:]) / 2 = 0``, ``c`` the centroids of the bins
    ``t`` cuts.  Each iteration takes a damped Newton step on ``r`` and keeps
    it if the thresholds stay increasing, no bin empties and the design
    distortion does not rise; the damping then shrinks.  Otherwise it takes
    Lloyd's step ``t <- (c[:-1] + c[1:]) / 2``, which cannot raise the
    distortion and carries laws that are not log-concave (mixtures) towards
    the region where Newton converges, and the damping grows.  For
    log-concave laws the fixed point is unique, so symmetric for a symmetric
    law: ``Gaussian()`` and ``Laplace()`` have their centre threshold at
    exactly 0.0, and only their ``N/2 - 1`` positive thresholds are
    iterated, on the bins ``[0, t..., inf)``, at half the kernel work per
    step; they are then mirrored, and the mirrored partition is evaluated
    once on the full line.  On the full line the residual's Jacobian has a
    nearly free uniform-translation mode, along which the centre would
    drift; without it the Jacobian is well conditioned, so these Newton
    steps start undamped.  A rejection multiplies the damping by 4 and
    leaves it at 0, so each rejected step is replaced by one Lloyd step and
    the next Newton step is again undamped.  A symmetric mixture can have
    asymmetric optima, so mixtures are iterated on the full line from a
    damping of 0.5.  By default the start is the ``(i + 0.5) / N`` quantiles
    of ``d``, which keeps every bin populated for the supported families.
    The loop stops, converged, once an accepted Newton step moves no
    threshold by more than ``1e-10`` of ``max(1, max|t|)``, or once the
    residual ``max|r|`` is down to a few ulps of that scale.

    Both optimality conditions are equivariant under ``x -> loc + scale x``,
    so a Gaussian or Laplace law is designed once, at the zero-mean,
    unit-variance member of its family (``Gaussian()`` or ``Laplace()``),
    and its thresholds are mapped to ``t = loc + scale * t0``.  A mixture
    is its own standard member.  The standard designs are kept in a
    bounded per-process memo keyed by the law, the bit depth and the two
    settings below, so every law of a family shares one design per bit
    depth, and a repeated mixture is designed once.  The standard members
    themselves come out of the memo as designed.

    Parameters
    ----------
    d : Distribution
        Law to design for.
    bits : int
        Bit depth, 1 through 16; the codebook has ``2**bits`` entries.
    max_iters : int
        Iteration cap; a design that reaches it reports ``converged=False``.
    init : str
        Initialization scheme.  ``"quantile"`` spreads codewords at the
        design-law quantiles; ``"cube_root"`` uses quantiles of the
        normalized ``f^{1/3}`` density, which matches the high-rate optimal
        point density and starts much closer at large bit depths.  Both are
        closed-form for Gaussian and Laplace laws (the cube-root start is
        the quantile start of ``d.cube_root_law()``); for a mixture the
        quantile start solves for each quantile by a vectorised Newton
        iteration and the cube-root start integrates ``f^{1/3}`` on a
        ``64 N + 1``-point grid.

    Returns
    -------
    Quantizer
        The designed quantizer.  Its codebook is exactly the centroid
        codebook of its partition under ``d``, and ``residual`` is the
        ``max|r|`` of that pair.  ``distortion_history`` holds the
        non-increasing design distortion at the start and after each
        iteration; ``converged`` and ``iterations`` record how the design
        ended.  For a half-line design the entries before the last are
        twice the half-line distortion, and the last is that of the
        mirrored partition on the full line.  For a mapped design the
        codebook and ``residual`` are evaluated under ``d`` itself,
        ``distortion_history`` is ``scale**2`` times that of the standard
        design, and ``converged`` and ``iterations`` are those of the
        standard design.

    Raises
    ------
    DegenerateDesign
        If some bin loses all design mass during iteration, or the mapped
        thresholds of a very narrow law coincide in floating point.
    """
    if not isinstance(bits, int) or not 1 <= bits <= 16:
        raise ValueError(f"bits must be an integer in [1, 16], got {bits!r}")
    if init not in ("quantile", "cube_root"):
        raise ValueError(f"unsupported init scheme: {init!r}")
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    standard, loc, scale = _standard_member(d)
    q = _standard_design(standard, bits, max_iters, init)
    if d == standard:
        return replace(q, design_law=d)
    t = loc + scale * q.partition.as_array()
    if np.any(np.diff(t) <= 0.0):
        raise DegenerateDesign(f"the thresholds of {d!r} coincide in floating point")
    mass, c, _, r, _ = _design_state(d, t)
    _check_masses(mass)
    return Quantizer(
        partition=Partition(t),
        design_codebook=Codebook(c),
        design_law=d,
        distortion_history=tuple(scale * scale * h for h in q.distortion_history),
        converged=q.converged,
        iterations=q.iterations,
        residual=float(np.max(np.abs(r))),
    )


def _design(d: Distribution, bits: int, max_iters: int, init: str) -> Quantizer:
    """The damped Newton Lloyd-Max iteration of ``lloyd_max_design`` on ``d``
    itself, on the half-line for a Gaussian or Laplace law centred at 0,
    with arguments already checked."""
    n = 1 << bits
    q = (np.arange(n) + 0.5) / n
    if init == "quantile":
        codebook = np.asarray(d.ppf(q), dtype=float)
    else:
        codebook = _cube_root_quantiles(d, q)
    if np.any(np.diff(codebook) <= 0.0):
        raise DegenerateDesign(f"{init} initialization produced coincident codewords")

    t = 0.5 * (codebook[:-1] + codebook[1:])
    # A log-concave law has one fixed point, symmetric if the law is; a mixture's
    # need not be.  Pinned centre: smallest |eigenvalue| of the residual Jacobian
    # at 3 bits 0.118 (Laplace), 0.125 (Gaussian); full-line Laplace 2.55e-13.
    half = type(d) in (Gaussian, Laplace) and d.mean == 0.0
    if half:
        t, lower, damping = t[n // 2 :], 0.0, 0.0
    else:
        lower, damping = -np.inf, 0.5

    def lloyd_state(t):
        state = _design_state(d, t, lower)
        _check_masses(state[0])
        return state

    eps = float(np.finfo(float).eps)
    mass, c, distortion, r, _ = lloyd_state(t)
    history = [distortion]
    small_step = False
    while True:
        residual = float(np.max(np.abs(r), initial=0.0))
        scale = max(1.0, float(np.max(np.abs(t), initial=0.0)))
        converged = small_step or residual <= 4.0 * eps * scale
        if converged or len(history) > max_iters:
            break
        step = _damped_newton_step(d, t, mass, c, r, damping)
        trial = None if step is None else t - step
        if trial is not None and np.all(np.diff(trial) > 0.0) and trial[0] > lower:
            t_mass, t_c, t_dist, t_r, t_m2 = _design_state(d, trial, lower)
            slack = 8.0 * eps * float(np.sum(t_m2)) if np.max(np.abs(t_r)) < residual else 0.0
            if np.all(t_mass >= ZERO_MASS_TOL) and t_dist <= distortion + slack:
                t, mass, c, distortion, r = trial, t_mass, t_c, t_dist, t_r
                history.append(distortion)
                damping *= 0.25
                small_step = float(np.max(np.abs(step))) < _STEP_TOL * scale
                continue
        damping = min(1.0, 4.0 * damping)
        t = 0.5 * (c[:-1] + c[1:])
        mass, c, distortion, r, _ = lloyd_state(t)
        history.append(distortion)

    if half:
        # The mirrored partition is evaluated once on the full line, so the
        # codebook, residual and last distortion are those of the partition
        # returned; the earlier entries are twice the half-line distortion.
        t = np.concatenate((-t[::-1], [0.0], t))
        _, c, distortion, r, _ = _design_state(d, t)
        history = [2.0 * h for h in history[:-1]] + [distortion]
        residual = float(np.max(np.abs(r)))

    return Quantizer(
        partition=Partition(t),
        design_codebook=Codebook(c),
        design_law=d,
        distortion_history=tuple(history),
        converged=converged,
        iterations=len(history) - 1,
        residual=residual,
    )


# The memo of standard designs (a family's standard member, or a mixture).
# A 16-bit design holds two arrays of 65,536 floats and its distortion
# history, about 1.1 MB by tracemalloc, so the memo is bounded.
_standard_design = functools.lru_cache(maxsize=64)(_design)


# The memo of ``_moment_table``.  An entry keeps its partition's array of N - 1
# floats and at most five arrays of N floats: 48 bytes a bin, 0.20 MB at 12 bits
# and 3.1 MB at 16 by tracemalloc, so 32 entries hold at most 101 MB.  A
# partition whose ``boundaries`` tuple was read holds 32 bytes a bin more.
@functools.lru_cache(maxsize=32)
def _moment_tables(d: Distribution, p: Partition, order: int) -> tuple[np.ndarray, ...]:
    table = d.edge_stats(p.edges(), order)
    for moment in table:
        moment.flags.writeable = False
    return table


def _moment_table(d: Distribution, p: Partition, order: int = 2) -> tuple[np.ndarray, ...]:
    """``d.edge_stats(p.edges(), order)`` as read-only arrays, from a bounded
    memo keyed by ``(d, p, max(order, 2))`` and compared by value: the decoders
    of one encoder read one table many times.  An order below 2 gets the
    leading arrays of the order-2 table, bit for bit the kernel's at that order."""
    return _moment_tables(d, p, max(order, 2))[: order + 1]

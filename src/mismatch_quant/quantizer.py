"""Scalar quantizers: partitions, codebooks, and Lloyd-Max design."""

from __future__ import annotations

import functools
import math
import typing
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import special
from scipy.linalg import lapack

from .distributions import (
    ZERO_MASS_TOL, Distribution, Gaussian, GaussianMixture, Laplace, _component_grid,
    _mixture_design_stats, _mixture_quantiles, _std_normal_pdf, _table_distortion,
)
from .errors import DegenerateDesign

__all__ = [
    "Partition",
    "Codebook",
    "Quantizer",
    "lloyd_max_design",
    "lloyd_max_designs",
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


def _start_law(d: Distribution, init: str) -> Distribution:
    """The law whose ``(i + 0.5) / N`` quantiles start the design of ``d``:
    ``d`` itself for ``"quantile"``; for ``"cube_root"`` ``d.cube_root_law()``
    (density proportional to ``f^{1/3}``, Panter-Dite), and for a mixture the
    mixture of its components' cube-root laws ``N(m_j, sqrt(3) s_j)``, each
    weighted by its own ``f_j^{1/3}`` mass, proportional to ``w_j^{1/3}
    s_j^{2/3}``: ``f^{1/3}`` normalised where the components do not overlap."""
    if init == "quantile":
        return d
    if type(d) is not GaussianMixture:
        return d.cube_root_law()
    w, m, s = np.array(d.components).T
    v = np.cbrt(w) * np.cbrt(s) ** 2
    return GaussianMixture(tuple(zip((v / v.sum()).tolist(), m.tolist(),
                                     (math.sqrt(3.0) * s).tolist())))


def _design_state(d: Distribution, t: np.ndarray):
    """``_table_state`` of ``d``'s moment table on the bins that ``t`` cuts."""
    return _table_state(d.edge_stats(np.concatenate(([-np.inf], t, [np.inf]))), t)


def _table_state(table, t: np.ndarray):
    """Bin masses, centroids, design distortion, midpoint residual and second
    moments ``m2`` of the bins that thresholds ``t`` cut, from their moment
    table ``(mass, m1, m2)``.  A table and thresholds with a row per law
    (bins along the last axis) give a row per law, and a list of
    distortions."""
    mass, m1, m2 = table
    with np.errstate(invalid="ignore", divide="ignore"):
        c = m1 / mass
    distortion = _table_distortion(table, c, c * c)
    return mass, c, distortion, t - 0.5 * (c[..., :-1] + c[..., 1:]), m2


# B_2k / (2k)!, k = 1..10: 1/x - 1/expm1(x) = 1/2 - sum_k B_2k x^(2k-1) / (2k)!,
# within 1e-16 relative below x = 1, where the closed form is within 7e-16.
_BERNOULLI = tuple(b / math.factorial(2 * k) for k, b in enumerate(
    (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510,
     43867 / 798, -174611 / 330), start=1))


def _half_line_state(d: Distribution, t: np.ndarray):
    """The design state of ``Gaussian()`` or ``Laplace()`` on the bins
    ``[0, t..., inf)``: ``_table_state``'s five values, the density at ``t``
    (bit for bit ``d.pdf(t)``) and a function giving the full-line moment
    table of the mirrored partition.  ``Gaussian()`` runs its general
    kernel's order-2 recursion on the upper tails ``ndtr(-e)`` alone, bit for
    bit that kernel's table, and mirrors that table (each negative bin's
    ``m2`` summed as the kernel sums it).  ``Laplace()`` is exponential on
    ``[0, inf)`` (Sullivan, IEEE Trans. IT 42(5), 1996): a bin ``[a, a + w)``
    has mass ``e^(-a/b) (1 - e^(-x)) / 2``, ``x = w / b``, centroid ``a + g``,
    ``g = w (1/x - 1/expm1(x))``, and variance ``b^2 (1 - (h / sinh h)^2)``,
    ``h = x / 2``, so the residual is ``(w_i - g_i - g_(i+1)) / 2``; its
    full-line table comes from ``edge_stats``.
    """
    e = np.concatenate(([0.0], t))  # the left edge of every bin
    if type(d) is Gaussian:
        up, phi = special.ndtr(-e), _std_normal_pdf(e)
        ez = e * phi
        mass, m1 = up - np.append(up[1:], 0.0), phi - np.append(phi[1:], 0.0)
        m2 = (mass + ez) - np.append(ez[1:], 0.0)

        def full():
            neg = (mass - np.append(ez[1:], 0.0)) + ez
            pairs = ((mass[::-1], mass), (-m1[::-1], m1), (neg[::-1], m2))
            return [np.concatenate(pair) for pair in pairs]

        return (*_table_state((mass, m1, m2), t), phi[1:], full)
    b = d.scale
    w = np.diff(e)
    x = w / b
    em = -np.expm1(-x)
    xs = np.minimum(x, 1.0)  # the series' argument, bounded where it is not read
    x2, acc = xs * xs, _BERNOULLI[-1]
    for coef in _BERNOULLI[-2::-1]:
        acc = acc * x2 + coef
    g = np.append(np.where(x < 1.0, w * (0.5 - xs * acc), b - w * np.exp(-x) / em), b)
    rate = np.exp(-e / b)
    mass = 0.5 * rate * np.append(em, 1.0)
    var = b * b * (1.0 - np.square(np.append(x * np.exp(-0.5 * x) / em, 0.0)))
    c = e + g
    r = 0.5 * ((w - g[:-1]) - g[1:])
    return (mass, c, float(np.dot(mass, var)), r, mass * (var + c * c), rate[1:] / (2.0 * b),
            lambda: d.edge_stats(np.concatenate(([-np.inf], -t[::-1], e, [np.inf]))))


def _damped_newton_step(f: np.ndarray, t, mass, c, r, damping: float):
    """Solve ``((1 - damping) J + damping I) s = r`` for the step ``s``.

    ``J = I - L`` is the Jacobian of the midpoint residual ``r``, with ``L``
    the tridiagonal Jacobian of the Lloyd map ``t -> (c[:-1] + c[1:]) / 2``
    from ``dc_i/dt = f(t) (t - c_i) / mass_i`` at each edge of bin ``i``;
    the array ``f`` holds the density ``f(t)`` at each threshold.
    ``damping = 0`` is Newton's step and ``damping = 1`` is Lloyd's step
    ``s = r``; in between, the slow modes that Lloyd's step barely moves are
    amplified by up to ``1 / damping``.  The system goes straight to
    LAPACK's tridiagonal ``gtsv``, the routine ``linalg.solve_banded((1, 1),
    ...)`` calls, without its band buffer and checks; a single threshold is
    the division ``r / diag``, as ``solve_banded`` does it.  Returns None if
    the solve fails.
    """
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
    iterated, on the bins ``[0, t..., inf)``, by the half-line kernel
    ``_half_line_state`` (``Gaussian()`` iterates are bit for bit those of
    ``edge_stats``); they are then mirrored, and the mirrored partition is
    evaluated once on the full line.  On the full line the residual's
    Jacobian has a nearly free uniform-translation mode, along which the
    centre would drift; without it the Jacobian is well conditioned, so
    these Newton steps start undamped.  A rejection multiplies the damping
    by 4 and leaves it at 0, so each rejected step is replaced by one Lloyd
    step and the next Newton step is again undamped.  A symmetric mixture can have
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
    is its own standard member.  The standard designs are kept in one
    bounded per-process memo of 64 designs, keyed by the law, the bit depth
    and the two settings below, which this function and
    ``lloyd_max_designs`` both read and fill: every law of a family shares
    one design per bit depth, and a mixture designed once, alone or in a
    batch, is served from the memo after that.  The standard members
    themselves come out of the memo as designed.  This is the one-law call
    of ``lloyd_max_designs``, with the same iteration.

    Parameters
    ----------
    d : Distribution
        Law to design for.
    bits : int
        Bit depth, 1 through 16; the codebook has ``2**bits`` entries.
    max_iters : int
        Iteration cap; a design that reaches it reports ``converged=False``.
    init : str
        The law whose ``(i + 0.5) / N`` quantiles are the start codewords.
        ``"quantile"`` takes ``d`` itself; ``"cube_root"`` the law with
        density proportional to ``f^{1/3}``, the high-rate optimal point
        density, which starts much closer at large bit depths.  For a
        mixture it is the mixture of its components' cube-root laws, exact
        where the components do not overlap and heavier than ``f^{1/3}``
        where they do (``_start_law``).  Gaussian and Laplace quantiles are
        closed-form; a mixture's are solved by a vectorised bracketed
        Newton iteration.

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
    return _lloyd_max_designs((d,), bits, max_iters, init)[0]


def lloyd_max_designs(laws, bits: int) -> tuple[Quantizer, ...]:
    """``tuple(lloyd_max_design(d, bits) for d in laws)``, bit for bit, with
    the designs that are not in the memo run together.

    The mixtures among them take their damped Newton rounds together: each
    round evaluates the trial thresholds of every mixture in one walk of the
    Gaussian moment kernel over the components of all of them, which also
    gives the density at the thresholds, and a second walk evaluates the
    Lloyd steps of those whose Newton step was rejected.  Their starts are
    solved in one bracketed Newton iteration.  Only the
    tridiagonal solve and the distortion's dot products stay per law, so
    the fixed cost of the small numpy calls of a round is paid once for
    all the laws of a bit depth.  Every design fills the shared memo of
    ``lloyd_max_design``.  A failing law raises what ``lloyd_max_design``
    would, and the first failing law in ``laws`` is the one that raises.
    """
    return _lloyd_max_designs(tuple(laws), bits, 500, "quantile")


# The memo of standard designs (a family's standard member, or a mixture),
# least recently used first.  A 16-bit design holds two arrays of 65,536
# floats and its distortion history, about 1.1 MB by tracemalloc, so the
# memo is bounded.
_STANDARD_DESIGNS: dict = {}
_MEMO_SIZE = 64


def _lloyd_max_designs(laws: tuple, bits: int, max_iters: int, init: str) -> tuple:
    if not isinstance(bits, int) or not 1 <= bits <= 16:
        raise ValueError(f"bits must be an integer in [1, 16], got {bits!r}")
    if init not in ("quantile", "cube_root"):
        raise ValueError(f"unsupported init scheme: {init!r}")
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    members = [_standard_member(d) for d in laws]
    keys = [(standard, bits, max_iters, init) for standard, _, _ in members]
    found = {key: _STANDARD_DESIGNS.pop(key, None) for key in dict.fromkeys(keys)}
    todo = [key for key, q in found.items() if q is None]
    if todo:
        found.update(zip(todo, _designs([key[0] for key in todo], bits, max_iters, init)))
    for key, q in found.items():
        if isinstance(q, Quantizer):
            _STANDARD_DESIGNS[key] = q  # as the most recently used
    while len(_STANDARD_DESIGNS) > _MEMO_SIZE:
        del _STANDARD_DESIGNS[next(iter(_STANDARD_DESIGNS))]
    out = []
    for d, key, (standard, loc, scale) in zip(laws, keys, members):
        q = found[key]
        if not isinstance(q, Quantizer):
            raise q
        out.append(replace(q, design_law=d) if d == standard else _mapped(q, d, loc, scale))
    return tuple(out)


def _mapped(q: Quantizer, d: Distribution, loc: float, scale: float) -> Quantizer:
    """The design of ``d``, the law of ``loc + scale * X``, from the design
    ``q`` of ``X``'s law."""
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


class _State(typing.NamedTuple):
    """A design state: ``_table_state``'s masses, centroids, distortion and
    residual, the density ``f`` at the thresholds, the sum of the second
    moments, ``max|r|``, ``max(1, max|t|)``, whether a bin
    lies below ``ZERO_MASS_TOL``, and the full-line table of a half-line
    state (else None)."""

    mass: np.ndarray
    c: np.ndarray
    distortion: float
    r: np.ndarray
    f: np.ndarray
    m2_sum: float
    residual: float
    scale: float
    empty_bin: bool
    full: typing.Callable | None


class _Run:
    """One law's iteration in ``_designs``: thresholds ``t`` and their state
    ``s``, damping and distortion history.  ``column`` is a mixture's column
    of the component grid (None for other laws)."""

    __slots__ = ("index", "d", "column", "half", "lower", "damping", "t", "s", "history",
                 "small_step")

    def __init__(self, index: int, d: Distribution, column, codebook: np.ndarray):
        self.index, self.d, self.column = index, d, column
        self.t = 0.5 * (codebook[:-1] + codebook[1:])
        # A log-concave law has one fixed point, symmetric if the law is; a
        # mixture's need not be.  Pinned centre: smallest |eigenvalue| of the
        # residual Jacobian at 3 bits 0.118 (Laplace), 0.125 (Gaussian);
        # full-line Laplace 2.55e-13.
        self.half = d in (Gaussian(), Laplace())
        if self.half:
            self.t, self.lower, self.damping = self.t[len(codebook) // 2 :], 0.0, 0.0
        else:
            self.lower, self.damping = -np.inf, 0.5
        self.history, self.small_step = [], False


def _single_state(run: _Run, t: np.ndarray) -> _State:
    """The ``_State`` of one law that is not a mixture."""
    if run.half:
        mass, c, distortion, r, m2, f, full = _half_line_state(run.d, t)
    else:
        (mass, c, distortion, r, m2), f, full = _design_state(run.d, t), run.d.pdf(t), None
    return _State(mass, c, distortion, r, f, float(m2.sum()), float(abs(r).max(initial=0.0)),
                  max(1.0, float(abs(t).max(initial=0.0))), bool((mass < ZERO_MASS_TOL).any()),
                  full)


def _states(runs: list, ts: list, grid) -> list:
    """The ``_State`` of each run at its thresholds in ``ts``.  The mixtures
    take one walk of the moment kernel (``_mixture_design_stats``) over the
    columns of ``grid`` that they own; each row is bit for bit that law's
    ``_design_state`` and ``pdf``."""
    out = [None if run.column is not None else _single_state(run, t) for run, t in zip(runs, ts)]
    mix = [i for i, run in enumerate(runs) if run.column is not None]
    if not mix:
        return out
    edges = np.empty((len(mix), len(ts[mix[0]]) + 2))
    edges[:, 0], edges[:, -1] = -np.inf, np.inf
    edges[:, 1:-1] = [ts[i] for i in mix]
    t = edges[:, 1:-1]
    cols = [runs[i].column for i in mix]
    if cols != list(range(grid[0].shape[1])):
        grid = tuple(g[:, cols] for g in grid)
    *table, f = _mixture_design_stats([runs[i].d for i in mix], grid, edges)
    mass, c, distortion, r, m2 = _table_state(table, t)
    m2_sum = m2.sum(axis=1).tolist()
    residual = abs(r).max(axis=1, initial=0.0).tolist()
    scale = abs(t).max(axis=1, initial=0.0).tolist()
    empty = (mass < ZERO_MASS_TOL).any(axis=1).tolist()
    for j, i in enumerate(mix):
        out[i] = _State(mass[j], c[j], distortion[j], r[j], f[j], m2_sum[j],
                        residual[j], max(1.0, scale[j]), empty[j], None)
    return out


def _designs(laws: list, bits: int, max_iters: int, init: str) -> list:
    """The damped Newton Lloyd-Max iteration of ``lloyd_max_design`` on each
    of ``laws`` itself (on the half-line for ``Gaussian()`` and
    ``Laplace()``), with arguments already checked, and no memo: a
    ``Quantizer`` per law, or the ``DegenerateDesign`` that ended its design.
    Each start is the quantiles of its ``_start_law``, every mixture's in one
    ``_mixture_quantiles`` call.  The laws go round by round together, and
    the states of the mixtures among them are evaluated together."""
    n = 1 << bits
    q = (np.arange(n) + 0.5) / n
    mixtures = [i for i, d in enumerate(laws) if type(d) is GaussianMixture]
    grid = _component_grid([laws[i] for i in mixtures]) if mixtures else None
    start_laws = [_start_law(d, init) for d in laws]
    starts = [None if type(g) is GaussianMixture else np.asarray(g.ppf(q), dtype=float)
              for g in start_laws]
    if mixtures:
        for i, row in zip(mixtures, _mixture_quantiles([start_laws[i] for i in mixtures], q)):
            starts[i] = row

    results = [None] * len(laws)
    columns = {i: j for j, i in enumerate(mixtures)}
    runs = []
    for i, (d, codebook) in enumerate(zip(laws, starts)):
        if np.any(np.diff(codebook) <= 0.0):
            results[i] = DegenerateDesign(f"{init} initialization produced coincident codewords")
        else:
            runs.append(_Run(i, d, columns.get(i), codebook))

    def lloyd(runs):
        """Each run's Lloyd state at its thresholds, or its failure."""
        for run, s in zip(runs, _states(runs, [run.t for run in runs], grid)):
            if s.empty_bin:
                try:
                    _check_masses(s.mass)
                except DegenerateDesign as exc:
                    results[run.index] = exc
            else:
                run.s = s
                run.history.append(s.distortion)

    lloyd(runs)
    eps = float(np.finfo(float).eps)
    active = [run for run in runs if results[run.index] is None]
    while active:
        trials, rejected = [], []
        for run in active:
            s = run.s
            converged = run.small_step or s.residual <= 4.0 * eps * s.scale
            if converged or len(run.history) > max_iters:
                results[run.index] = _finished(run, converged)
                continue
            step = _damped_newton_step(s.f, run.t, s.mass, s.c, s.r, run.damping)
            trial = None if step is None else run.t - step
            if trial is not None and (np.diff(trial) > 0.0).all() and trial[0] > run.lower:
                trials.append((run, trial, step))
            else:
                rejected.append(run)
        trial_states = _states([run for run, _, _ in trials], [t for _, t, _ in trials], grid)
        for (run, trial, step), ts in zip(trials, trial_states):
            s = run.s
            slack = 8.0 * eps * ts.m2_sum if ts.residual < s.residual else 0.0
            if not ts.empty_bin and ts.distortion <= s.distortion + slack:
                run.t, run.s = trial, ts
                run.history.append(ts.distortion)
                run.damping *= 0.25
                run.small_step = float(abs(step).max()) < _STEP_TOL * s.scale
            else:
                rejected.append(run)
        for run in rejected:
            run.damping = min(1.0, 4.0 * run.damping)
            run.t = 0.5 * (run.s.c[:-1] + run.s.c[1:])
        lloyd(rejected)
        active = [run for run in active if results[run.index] is None]
    return results


def _finished(run: _Run, converged: bool) -> Quantizer:
    """The quantizer of a run that has stopped."""
    t, s, history, residual = run.t, run.s, run.history, run.s.residual
    c = s.c
    if run.half:
        # The mirrored partition is evaluated once on the full line, so the
        # codebook, residual and last distortion are those of the partition
        # returned; the earlier entries are twice the half-line distortion.
        table = s.full()
        t = np.concatenate((-t[::-1], [0.0], t))
        _, c, distortion, r, _ = _table_state(table, t)
        history = [2.0 * h for h in history[:-1]] + [distortion]
        residual = float(np.max(np.abs(r)))
    return Quantizer(
        partition=Partition(t),
        design_codebook=Codebook(c),
        design_law=run.d,
        distortion_history=tuple(history),
        converged=converged,
        iterations=len(history) - 1,
        residual=residual,
    )


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

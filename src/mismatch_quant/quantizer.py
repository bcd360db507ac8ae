"""Scalar quantizers: partitions, codebooks, and Lloyd-Max design."""

from __future__ import annotations

import functools
import math
import operator
import typing
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import special
from scipy.linalg import lapack

from .distributions import (
    _TAIL_FROM, ZERO_MASS_TOL, Distribution, Gaussian, GaussianMixture, Laplace, _anchored,
    _component_grid, _mixture_design_stats, _mixture_quantiles, _std_normal_pdf, _tail_offset,
)
from .errors import DegenerateDesign

__all__ = [
    "Partition",
    "Codebook",
    "Quantizer",
    "lloyd_max_design",
    "lloyd_max_designs",
]

# Bytes of per-block temporaries when a Monte Carlo draw is encoded or
# scored a block at a time, small enough to stay in cache: 2**17 draws of a
# one-byte mask, 2**14 of an eight-byte index copy.
_BLOCK_BYTES = 1 << 17
_STEP_TOL = 1e-10  # a smaller accepted Newton step (relative to the stop scale) converges


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
        that holds every index (one byte to 8 bits, two to 16), of the shape
        of ``x``.  Below 256 thresholds, where every index fits ``uint8``, it
        is counted, ``n - sum_i (x < t_i)``, ``_BLOCK_BYTES`` draws at a time:
        each test of a block is written into one reused block-sized mask and
        taken off as bytes, so every threshold pass stays in cache.  From 256
        on it is searched."""
        t = self._array
        if t.size >= 256:
            return np.searchsorted(t, x, side="right").astype(np.min_scalar_type(t.size))
        flat = x.reshape(-1)  # a view unless x is a strided array of 2 or more dimensions
        out = np.full(flat.size, t.size, dtype=np.uint8)
        mask = np.empty(min(flat.size, _BLOCK_BYTES), dtype=bool)
        for i in range(0, flat.size, _BLOCK_BYTES):
            xb, ob = flat[i:i + _BLOCK_BYTES], out[i:i + _BLOCK_BYTES]
            m = mask[:xb.size]
            for ti in t:
                ob -= np.less(xb, ti, out=m).view(np.uint8)
        return out.reshape(x.shape)


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


# B_2k / (2k)!, k = 1..10: 1/x - 1/expm1(x) = 1/2 - sum_k B_2k x^(2k-1) / (2k)!,
# within 1e-16 relative below x = 1, where the closed form is within 7e-16.
_BERNOULLI = tuple(b / math.factorial(2 * k) for k, b in enumerate(
    (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510,
     43867 / 798, -174611 / 330), start=1))


class _Layout(typing.NamedTuple):
    """The flat layout of runs with ``sizes`` thresholds each, laid end to
    end; a run of ``n`` thresholds has ``n + 1`` bins, laid end to end too:
    the run of each threshold and of each bin, the flat indices of the bins
    the thresholds end and start (slices for one run), each run's first
    threshold, first bin and outer bin, and the runs' ``_run_blocks``."""

    sizes: np.ndarray
    seg: np.ndarray
    bin_seg: np.ndarray
    below: np.ndarray | slice
    above: np.ndarray | slice
    first: np.ndarray
    bin0: np.ndarray
    last: np.ndarray
    blocks: list


def _layout(sizes: np.ndarray) -> _Layout:
    runs = np.arange(len(sizes))
    seg = runs.repeat(sizes)
    first = sizes.cumsum() - sizes
    bin0 = first + runs
    if len(sizes) == 1:
        below, above = slice(0, len(seg)), slice(1, len(seg) + 1)
    else:
        below = np.arange(len(seg)) + seg
        above = below + 1
    return _Layout(sizes, seg, runs.repeat(sizes + 1), below, above, first, bin0, bin0 + sizes,
                   _run_blocks(sizes, bin0))


def _run_max(values: np.ndarray, layout: _Layout) -> np.ndarray:
    """The largest of each run's ``values`` (one per threshold), 0 for a run
    without thresholds; NaN propagates."""
    if len(layout.sizes) == 1:
        return np.maximum.reduce(values, initial=0.0, keepdims=True)
    some = layout.sizes > 0
    if some.all():
        return np.maximum.reduceat(values, layout.first)
    out = np.zeros(len(some))
    if values.size:
        out[some] = np.maximum.reduceat(values, layout.first[some])
    return out


def _run_blocks(sizes: np.ndarray, bin0: np.ndarray) -> list:
    """``(bins, runs)`` of each stretch of consecutive runs (of ``sizes``
    thresholds, first bins ``bin0``) with one bin count: a slice over their
    bins and how many runs it holds, the rows of a ``(runs, bins)`` block."""
    sizes, bin0, out, k0 = sizes.tolist(), bin0.tolist(), [], 0
    for k in range(1, len(sizes) + 1):
        if k == len(sizes) or sizes[k] != sizes[k0]:
            out.append((slice(bin0[k0], bin0[k0] + (k - k0) * (sizes[k0] + 1)), k - k0))
            k0 = k
    return out


def _per_run(blocks: list, a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """``np.sum`` of each run's ``a`` (a value per bin), or ``np.dot`` of its
    ``a`` and ``b``, bit for bit, the runs of each of ``blocks``
    (``_run_blocks``) in one call: numpy sums each contiguous row of a block
    pairwise, as it sums one alone, and a stacked ``matmul`` of vector
    products takes each dot from BLAS's ``ddot``, as ``np.dot`` does."""
    out = []
    for bins, rows in blocks:
        if rows == 1:
            out.append(a[bins].sum() if b is None else a[bins].dot(b[bins]))
        elif b is None:
            out.extend(a[bins].reshape(rows, -1).sum(axis=1))
        else:
            out.extend(np.matmul(a[bins].reshape(rows, 1, -1), b[bins].reshape(rows, -1, 1))
                       .reshape(rows))
    return np.array(out)


def _gaussian_half_tables(t: np.ndarray, layout: _Layout):
    """``Gaussian()``'s anchored table ``(e, J_0, J_1, J_2)`` on the bins
    ``[e, b)`` of ``[0, t..., inf)`` of each run, anchored at their left edges
    ``e``, and its density at the thresholds: the general kernel's recursion
    on the upper tails ``ndtr(-e)`` alone, bit for bit that kernel's table.
    ``J_1 = (phi(e) - phi(b)) - e J_0`` (``J_0 _tail_offset(e)`` on a run's
    outer bin from ``e = _TAIL_FROM`` on) and ``J_2 = (J_0 - e J_1) - (b -
    e) phi(b)``, ``b`` read as 0 at infinity, where ``phi(b)`` is 0."""
    e = np.zeros(len(layout.bin0) + len(t))  # the left edge of every bin
    e[layout.above] = t
    up, phi = special.ndtr(-e), _std_normal_pdf(e)

    def upper_edge(x):  # x at each bin's right edge, 0 at infinity
        out = np.append(x[1:], 0.0)
        out[layout.last[:-1]] = 0.0
        return out

    mass, phi_hi = up - upper_edge(up), upper_edge(phi)
    m1 = (phi - phi_hi) - e * mass
    for i, x in zip(layout.last.tolist(), e[layout.last].tolist()):
        if x > _TAIL_FROM:
            m1[i] = mass[i] * _tail_offset(x)
    return e, mass, m1, (mass - e * m1) - (upper_edge(e) - e) * phi_hi, phi[layout.above]


def _table_states(table, t: np.ndarray, layout: _Layout):
    """Masses, centroids ``c = e + J_1 / J_0``, midpoint residual, density at
    the thresholds and design distortion of each run laid out by ``layout``,
    from its anchored table and density ``(e, J_0, J_1, J_2, f)``: the one
    design state, of a round's runs and (``_partition_state``) of a finished
    partition.  Each run's distortion, ``sum J_2 - 2 (c - e).J_1 +
    (c - e)^2.J_0``, is over ``layout.blocks``, bit for bit the run's own
    ``_table_distortion``."""
    e, mass, m1, m2, f = table
    with np.errstate(invalid="ignore", divide="ignore"):
        c = e + m1 / mass
    d, blocks = c - e, layout.blocks
    distortion = _per_run(blocks, m2) - 2.0 * _per_run(blocks, d, m1) + _per_run(blocks, d * d,
                                                                               mass)
    return mass, c, t - 0.5 * (c[layout.below] + c[layout.above]), f, distortion


def _partition_state(d: Distribution, t: np.ndarray):
    """Masses, centroids, midpoint residual and design distortion of the bins
    ``t`` cuts under ``d``: ``_table_states`` of one run on the law's
    anchored table (``_anchored``), the one evaluation of a finished design,
    mirrored half-line or mapped."""
    table = _anchored(d, np.concatenate(([-np.inf], t, [np.inf])))
    mass, c, r, _, distortion = _table_states((*table, None), t, _layout(np.array([len(t)])))
    return mass, c, r, float(distortion[0])


def _laplace_half_states(t: np.ndarray, layout: _Layout):
    """``_table_states`` of ``Laplace()`` on the bins ``[0, t..., inf)`` of
    each run, in closed form.  The law is exponential on ``[0, inf)``
    (Sullivan, IEEE Trans. IT 42(5), 1996): a bin ``[a, a + w)`` has mass
    ``e^(-a/b) (1 - e^(-x)) / 2``, ``x = w / b``, centroid ``a + g``, ``g = w
    (1/x - 1/expm1(x))``, and variance ``b^2 (1 - (h / sinh h)^2)``, ``h = x /
    2``, so the residual is ``(w_i - g_i - g_(i+1)) / 2`` and the distortion
    ``mass.var``."""
    below, above, last = layout.below, layout.above, layout.last
    b = _STANDARD_LAPLACE.scale
    e = np.zeros(len(layout.bin0) + len(t))
    e[above] = t
    w = e[above] - e[below]
    x = w / b
    em = -np.expm1(-x)
    xs = np.minimum(x, 1.0)  # the series' argument, bounded where it is not read
    x2, acc = xs * xs, _BERNOULLI[-1]
    for coef in _BERNOULLI[-2::-1]:
        acc = acc * x2 + coef
    g, tail, ratio = np.empty_like(e), np.empty_like(e), np.empty_like(e)
    g[below], g[last] = np.where(x < 1.0, w * (0.5 - xs * acc), b - w * np.exp(-x) / em), b
    tail[below], tail[last] = em, 1.0
    ratio[below], ratio[last] = x * np.exp(-0.5 * x) / em, 0.0
    rate = np.exp(-e / b)
    mass = 0.5 * rate * tail
    var = b * b * (1.0 - np.square(ratio))
    r = 0.5 * ((w - g[below]) - g[above])
    return mass, e + g, r, rate[above] / (2.0 * b), _per_run(layout.blocks, mass, var)


_STANDARD_GAUSSIAN, _STANDARD_LAPLACE = Gaussian(), Laplace()


class _State(typing.NamedTuple):
    """The design state of some runs of one round loop of ``_designs``, as
    flat arrays on their ``_Layout``: per run its index ``ids`` among the
    loop's pairs, design distortion, ``max|r|``, stop scale ``max(1,
    max|t|)`` and whether a bin lies below ``ZERO_MASS_TOL``; per threshold
    the thresholds, midpoint residual and density; per bin the masses and
    centroids."""

    layout: _Layout
    ids: np.ndarray
    distortion: np.ndarray
    residual: np.ndarray
    scale: np.ndarray
    empty: np.ndarray
    t: np.ndarray
    r: np.ndarray
    f: np.ndarray
    mass: np.ndarray
    c: np.ndarray

    def _masks(self, keep: np.ndarray):
        return keep, keep[self.layout.seg], keep[self.layout.bin_seg]

    def take(self, keep: np.ndarray) -> _State:
        """The state of the runs where ``keep`` is set."""
        masks = self._masks(keep)
        return _State(_layout(self.layout.sizes[keep]),
                      *(a[masks[(i > 5) + (i > 8)]] for i, a in enumerate(self) if i))

    def put(self, keep: np.ndarray, new: _State) -> None:
        """Overwrite the runs where ``keep`` is set with their state ``new``."""
        masks = self._masks(keep)
        for i in range(2, len(self)):
            self[i][masks[(i > 5) + (i > 8)]] = new[i]


def _evaluator(kind: type, laws: list):
    """``evaluate(ids, t, layout)``: the ``_State`` of the runs ``ids`` of
    ``laws``, every one of the kind (type) ``kind``, at the thresholds ``t``
    laid out by ``layout``.  The kind's evaluation is bound once, for one of
    the three kinds ``_designs`` takes: the mixtures take one kernel walk
    (``_mixture_design_stats``) over the component grid of ``laws``,
    ``Gaussian()`` and ``Laplace()`` their half-line tables.  Only each
    run's distortion, its sum and two dot products, is formed run by run
    (as rows of ``layout.blocks``), so that every value is bit for bit that
    of the run alone.  The stop scale is ``max(1, max|t|)``: every law is
    a standard member, of spread at least 1/16 (``_standard_member``)."""
    if kind is GaussianMixture:
        mixtures = list(dict.fromkeys(laws))
        column = {d: j for j, d in enumerate(mixtures)}
        grid, cols = _component_grid(mixtures), np.array([column[d] for d in laws])

        def states(ids, t, layout):
            return _table_states(_mixture_design_stats(grid, cols[ids], t, layout.sizes), t,
                                 layout)
    elif kind is Gaussian:
        def states(ids, t, layout):
            return _table_states(_gaussian_half_tables(t, layout), t, layout)
    else:
        def states(ids, t, layout):
            return _laplace_half_states(t, layout)

    def evaluate(ids: np.ndarray, t: np.ndarray, layout: _Layout) -> _State:
        mass, c, r, f, distortion = states(ids, t, layout)
        empty = np.logical_or.reduceat(mass < ZERO_MASS_TOL, layout.bin0)
        return _State(layout, ids, distortion, _run_max(np.abs(r), layout),
                      np.maximum(1.0, _run_max(np.abs(t), layout)), empty, t, r, f, mass, c)

    return evaluate


def _damped_newton_steps(f, t, mass, c, r, damping: np.ndarray, layout: _Layout):
    """Solve ``((1 - damping_k) J_k + damping_k I) s_k = r_k`` for the step
    ``s_k`` of every run ``k`` laid out by ``layout``.

    ``J = I - L`` is the Jacobian of the midpoint residual ``r``, with ``L``
    the tridiagonal Jacobian of the Lloyd map ``t -> (c[:-1] + c[1:]) / 2``
    from ``dc_i/dt = f(t) (t - c_i) / mass_i`` at each edge of bin ``i``;
    the array ``f`` holds the density ``f(t)`` at each threshold.
    ``damping = 0`` is Newton's step and ``damping = 1`` is Lloyd's step
    ``s = r``; in between, the slow modes that Lloyd's step barely moves are
    amplified by up to ``1 / damping``.  The runs' systems are stacked into
    one block-diagonal system, with zero couplings between blocks, which
    goes in one call to LAPACK's tridiagonal ``gtsv``, the routine
    ``linalg.solve_banded((1, 1), ...)`` calls.  A zero coupling makes the
    elimination step across a block boundary an exact no-op, so each block's
    solution is bit for bit its own solve; a single threshold alone is the
    division ``r / diag``, as ``solve_banded`` does it.  If that solve fails
    or leaves a non-finite entry, which a neighbouring block could have
    spread, every block is solved on its own.  Returns the steps and whether
    each run's solve succeeded (NaN steps where not).
    """
    one = len(layout.sizes) == 1
    phi = 1.0 - float(damping[0]) if one else (1.0 - damping)[layout.seg]
    c_lo, c_hi = c[layout.below], c[layout.above]
    mass_lo, mass_hi = mass[layout.below], mass[layout.above]
    right = 0.5 * f * (t - c_lo) / mass_lo  # dc_i/dt_i / 2, t_i ends bin i
    left = 0.5 * f * (c_hi - t) / mass_hi  # dc_(i+1)/dt_i / 2, t_i starts bin i+1

    def bands():
        upper = -(phi if one else phi[1:]) * right[1:]  # -phi L[i, i + 1]
        lower = -(phi if one else phi[:-1]) * left[:-1]  # -phi L[i + 1, i]
        if not one:
            upper[layout.first[1:] - 1] = lower[layout.first[1:] - 1] = 0.0  # the couplings
        return lower, 1.0 - phi * (right + left), upper

    lower, diag, upper = bands()
    solved = np.ones(len(layout.sizes), dtype=bool)
    if len(t) == 1:
        return r / diag, solved
    *_, step, info = lapack.dgtsv(lower, diag, upper, r, overwrite_dl=True, overwrite_d=True,
                                  overwrite_du=True)
    if not info and (one or np.isfinite(step).all()):
        return step, solved
    lower, diag, upper = bands()  # the solve overwrote them
    step = np.full(len(t), np.nan)
    for k, (t0, n) in enumerate(zip(layout.first.tolist(), layout.sizes.tolist())):
        block = slice(t0, t0 + n)
        if n == 1:
            step[block] = r[block] / diag[block]
            continue
        *_, x, info = lapack.dgtsv(lower[t0 : t0 + n - 1], diag[block],
                                   upper[t0 : t0 + n - 1], r[block])
        solved[k] = not info
        if not info:
            step[block] = x
    return step, solved


def _ordered(trial: np.ndarray, layout: _Layout, lower: float) -> np.ndarray:
    """Whether each run's trial thresholds increase strictly and start above
    ``lower`` (every run has a threshold)."""
    rising = trial[1:] > trial[:-1]
    if len(layout.sizes) == 1:
        return np.array([trial[0] > lower and rising.all()])
    rising[layout.first[1:] - 1] = True  # across two runs
    return (trial[layout.first] > lower) & (
        np.bincount(layout.seg[1:][~rising], minlength=len(layout.sizes)) == 0)


def _lost_mass(mass: np.ndarray) -> DegenerateDesign:
    """The failure of a design whose bins of ``mass`` below ``ZERO_MASS_TOL``
    lost all design mass."""
    return DegenerateDesign(f"bins {np.flatnonzero(mass < ZERO_MASS_TOL).tolist()} lost all "
                            "design mass")


def _standard_member(d: Distribution):
    """``(standard, loc, scale)`` with ``d`` the law of ``loc + scale * X``,
    ``X`` following ``standard``, the law designed for ``d``: the zero-mean,
    unit-variance member of a Gaussian or Laplace law's family; a mixture
    itself while ``max(1, |mean|) <= 16 std``, else its components ``((m -
    mean) / s, std_j / s)``, exact for ``s = 2**floor(log2 std)``.  Every
    member's spread is thus at least 1/16.  TypeError for any other law."""
    if type(d) is Gaussian:
        return _STANDARD_GAUSSIAN, d.mean, d.std
    if type(d) is Laplace:
        return _STANDARD_LAPLACE, d.loc, d.scale / _STANDARD_LAPLACE.scale
    if type(d) is GaussianMixture:
        mean, std = d.mean, d.std
        if max(1.0, abs(mean)) <= 16.0 * std:
            return d, 0.0, 1.0
        s = math.ldexp(1.0, math.frexp(std)[1] - 1)
        member = GaussianMixture(tuple((w, (m - mean) / s, sd / s) for w, m, sd in d.components))
        return member, mean, s
    raise TypeError(f"cannot design a quantizer for {d!r}: only Gaussian, Laplace and "
                    "GaussianMixture laws can be designed")


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
    iterated, in closed form on the bins ``[0, t..., inf)``, then mirrored
    and evaluated once on the full line.  On the full line the residual's
    Jacobian has a nearly free uniform-translation mode, along which the
    centre would drift; without it the Jacobian is well conditioned, so
    these Newton steps start undamped.  A rejection multiplies the damping
    by 4 and leaves it at 0, so each rejected step is replaced by one Lloyd
    step and the next Newton step is again undamped.  A symmetric mixture
    can have asymmetric optima, so mixtures are iterated on the full line
    from a damping of 0.5.  By default the start is the ``(i + 0.5) / N``
    quantiles of ``d``, which keeps every bin populated for the supported
    families.  The loop stops, converged, once an accepted Newton step
    moves no threshold by more than ``1e-10`` of the stop scale ``max(1,
    max|t|)``, or once the residual ``max|r|`` is down to a few ulps of it.

    Both optimality conditions are equivariant under ``x -> loc + scale x``,
    so ``d`` is designed at its standard member (``_standard_member``:
    ``Gaussian()`` or ``Laplace()`` for those families; a mixture itself
    while ``max(1, |mean|) <= 16 std``, else its image of spread in [1, 2)
    about 0), and the thresholds are mapped to ``t = loc + scale * t0``.
    Every member has a spread of at least 1/16, so the stop scale is
    relative and a moved and scaled law takes about the iterations of its
    unit image.  The standard designs are kept in one bounded per-process
    memo of 64 designs, keyed by the member, the bit depth and the two
    settings below, which this function and ``lloyd_max_designs`` both read
    and fill: a member designed once, alone or in a batch, is served from
    the memo, as designed, after that.  This is the one-pair call of
    ``lloyd_max_designs``: a design is one run of the round loop of its
    kind of law in ``_designs``, bit for bit the same alone or beside other
    laws and bit depths.

    Parameters
    ----------
    d : Gaussian, Laplace or GaussianMixture
        Law to design for.
    bits : int
        Bit depth, 1 through 16, any integer but a bool; the codebook has
        ``2**bits`` entries.
    max_iters : int
        Iteration cap, any integer but a bool of at least 1; a design that
        reaches it reports ``converged=False``.
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
        mirrored partition on the full line.  A mapped design has its
        codebook and ``residual`` evaluated under ``d`` itself, ``scale**2``
        times the standard design's ``distortion_history``, and its
        ``converged`` and ``iterations``.

    Raises
    ------
    TypeError
        If ``d`` is of none of the three families (a subclass of one
        included), before any design.
    DegenerateDesign
        If some bin loses all design mass during iteration, or the mapped
        thresholds of a very narrow law coincide in floating point.
    """
    return _lloyd_max_designs((d,), bits, max_iters, init)[0]


def lloyd_max_designs(laws, bits) -> tuple[Quantizer, ...]:
    """``tuple(lloyd_max_design(d, b) for d, b in zip(laws, bits))``, bit for
    bit, with ``bits`` one bit depth for every law or one per law, and the
    designs that are not in the memo run together.

    The (law, bit depth) pairs of each kind of law go through one loop of
    flat rounds (``_designs``), so a call whose laws are of several kinds
    runs one loop per kind: each round of the mixtures evaluates the next
    thresholds of every mixture, whatever its bit depth, in one walk of the
    Gaussian moment kernel over their components, which also gives the
    density at the thresholds: its Newton trial, or Lloyd's step where the
    solve failed or the trial came out of order.  A second walk evaluates
    Lloyd's step only for the Newton steps the acceptance test rejects; a
    half-line law takes one vectorised evaluation in place of each walk.
    The Newton steps of all pairs of a loop are one block-diagonal
    tridiagonal solve, and the mixtures' starts one bracketed Newton
    iteration.  Only each design's distortion, one sum and two dot
    products, stays per pair, so the fixed cost of the small numpy calls of
    a round is paid once for all the laws and bit depths of a kind.  Every
    design fills the shared memo of ``lloyd_max_design``.  A failing pair
    raises what ``lloyd_max_design`` would, and the first failing pair is
    the one that raises.
    """
    return _lloyd_max_designs(tuple(laws), bits, 500, "quantile")


# The memo of standard designs (of the members ``_standard_member`` names),
# least recently used first.  A 16-bit design holds two arrays of 65,536
# floats and its distortion history, about 1.1 MB by tracemalloc, so the
# memo is bounded.
_STANDARD_DESIGNS: dict = {}
_MEMO_SIZE = 64


def _integer(x) -> int | None:
    """``operator.index(x)``, or None for a bool or a non-integer."""
    return None if isinstance(x, bool) or not hasattr(type(x), "__index__") else operator.index(x)


def _check_bits(bits, top: int = 16) -> int:
    """``bits`` as an ``int``, an integer other than a bool in [1, top]."""
    if (b := _integer(bits)) is None or not 1 <= b <= top:
        raise ValueError(f"bits must be an integer in [1, {top}], got {bits!r}")
    return b


def _standard_designs(laws, bits, max_iters: int, init: str):
    """The standard member ``(standard, loc, scale)`` of each of ``laws``, its
    memo key, and the design of each distinct key (or the ``DegenerateDesign``
    that ended it): taken from the memo, the missing ones designed in one
    ``_designs`` call, and every design left in the memo as the most
    recently used.  ``bits`` is one bit depth or one per law."""
    depths = list(bits) if np.iterable(bits) else [bits] * len(laws)
    if len(depths) != len(laws):
        raise ValueError(f"{len(depths)} bit depths for {len(laws)} laws")
    depths = [_check_bits(b) for b in depths]
    if init not in ("quantile", "cube_root"):
        raise ValueError(f"unsupported init scheme: {init!r}")
    if (cap := _integer(max_iters)) is None or cap < 1:
        raise ValueError(f"max_iters must be an integer of at least 1, got {max_iters!r}")
    members = [_standard_member(d) for d in laws]
    keys = [(standard, b, cap, init) for (standard, _, _), b in zip(members, depths)]
    found = {key: _STANDARD_DESIGNS.pop(key, None) for key in dict.fromkeys(keys)}
    todo = [key for key, q in found.items() if q is None]
    if todo:
        found.update(zip(todo, _designs([key[:2] for key in todo], cap, init)))
    for key, q in found.items():
        if isinstance(q, Quantizer):
            _STANDARD_DESIGNS[key] = q  # as the most recently used
    while len(_STANDARD_DESIGNS) > _MEMO_SIZE:
        del _STANDARD_DESIGNS[next(iter(_STANDARD_DESIGNS))]
    return members, keys, found


def _lloyd_max_designs(laws: tuple, bits, max_iters: int, init: str) -> tuple:
    members, keys, found = _standard_designs(laws, bits, max_iters, init)
    out = []
    for d, key, (standard, loc, scale) in zip(laws, keys, members):
        q = found[key]
        if not isinstance(q, Quantizer):
            raise q
        if d != standard:
            q = _mapped(q, d, loc, scale)
        elif q.design_law is not d:
            q = replace(q, design_law=d)
        out.append(q)
    return tuple(out)


def _mapped(q: Quantizer, d: Distribution, loc: float, scale: float) -> Quantizer:
    """The design of ``d``, the law of ``loc + scale * X``, from the design
    ``q`` of ``X``'s law."""
    t = loc + scale * q.partition.as_array()
    if np.any(np.diff(t) <= 0.0):
        raise DegenerateDesign(f"the thresholds of {d!r} coincide in floating point")
    mass, c, r, _ = _partition_state(d, t)
    if np.any(mass < ZERO_MASS_TOL):
        raise _lost_mass(mass)
    return Quantizer(
        partition=Partition(t),
        design_codebook=Codebook(c),
        design_law=d,
        distortion_history=tuple(scale * scale * h for h in q.distortion_history),
        converged=q.converged,
        iterations=q.iterations,
        residual=float(np.max(np.abs(r))),
    )


def _start_codebooks(kind: type, pairs, init: str) -> list:
    """The start codewords of each ``(law, bits)`` of ``pairs``, every law of
    the kind ``kind``: the ``(i + 0.5) / N`` quantiles of its ``_start_law``,
    those of mixtures in one ``_mixture_quantiles`` call."""
    start_laws = [_start_law(d, init) for d, _ in pairs]
    grids = {bits: (np.arange(1 << bits) + 0.5) / (1 << bits) for _, bits in pairs}
    qs = [grids[bits] for _, bits in pairs]
    if kind is GaussianMixture:
        return _mixture_quantiles(start_laws, qs)
    return [np.asarray(g.ppf(q), dtype=float) for g, q in zip(start_laws, qs)]


def _designs(pairs: list, max_iters: int, init: str) -> list:
    """The damped Newton Lloyd-Max iteration of ``lloyd_max_design`` for each
    ``(law, bits)`` of ``pairs``, a standard member (``_standard_member``),
    on the law itself (on the half-line for ``Gaussian()`` and
    ``Laplace()``), with arguments already checked, and no memo: a
    ``Quantizer`` per pair, or the ``DegenerateDesign`` that ended its
    design.  The pairs of each kind of law, its type, go through one round
    loop (``_kind_designs``), so a call whose laws are of several kinds runs
    one loop per kind, in turn."""
    kinds = [type(d) for d, _ in pairs]
    results = [None] * len(pairs)
    for kind in dict.fromkeys(kinds):
        idx = [i for i, k in enumerate(kinds) if k is kind]
        for i, q in zip(idx, _kind_designs(kind, [pairs[i] for i in idx], max_iters, init)):
            results[i] = q
    return results


def _kind_designs(kind: type, pairs: list, max_iters: int, init: str) -> list:
    """``_designs`` of ``pairs``, every law of the kind ``kind``.

    Every pair is one run, and all runs go round by round together, as flat
    arrays (``_State``, with each run's damping and small-step flag beside
    it): a round takes the convergence and cap tests of every run at once,
    solves every Newton step in one block-diagonal system
    (``_damped_newton_steps``), and evaluates every run's next thresholds in
    one call of the kind's ``_evaluator``: its Newton trial, or Lloyd's step
    where the solve failed or the trial came out of order.  It then takes the
    acceptance test with its slack at once, evaluates Lloyd's step for the
    Newton steps rejected there in a second call (none in the common round,
    where every step is kept), and updates the damping.  The damping start,
    the lower bound of the thresholds and the mirroring of a half-line
    design are the kind's.  No run's values depend on the others, so each
    design is bit for bit the one it would be alone."""
    laws = [d for d, _ in pairs]
    # A log-concave law has one fixed point, symmetric if the law is; a
    # mixture's need not be.  Pinned centre: smallest |eigenvalue| of the
    # residual Jacobian at 3 bits 0.118 (Laplace), 0.125 (Gaussian);
    # full-line Laplace 2.55e-13.
    evaluate, half = _evaluator(kind, laws), kind is not GaussianMixture
    # The acceptance slack's scale: E[X^2], half of it on a half-line run.
    moment2 = np.array([(0.5 if half else 1.0) * (d.variance + d.mean * d.mean) for d in laws])
    results = [None] * len(pairs)
    ids, ts = [], []
    for i, codebook in enumerate(_start_codebooks(kind, pairs, init)):
        if np.any(np.diff(codebook) <= 0.0):
            results[i] = DegenerateDesign(f"{init} initialization produced coincident codewords")
            continue
        t = 0.5 * (codebook[:-1] + codebook[1:])
        ids.append(i)
        ts.append(t[len(codebook) // 2 :] if half else t)
    if not ids:
        return results
    history = [[] for _ in pairs]

    def recorded(s: _State) -> np.ndarray | None:
        """Add each run's distortion to its history, or fail the run if it
        emptied a bin; the mask of the runs left, if any failed."""
        for k, (i, h, empty) in enumerate(zip(s.ids.tolist(), s.distortion.tolist(),
                                              s.empty.tolist())):
            if empty:
                results[i] = _lost_mass(s.mass[s.layout.bin0[k] : s.layout.last[k] + 1])
            else:
                history[i].append(h)
        return ~s.empty if s.empty.any() else None

    s = evaluate(np.array(ids, dtype=np.intp), np.concatenate(ts),
                 _layout(np.array([len(t) for t in ts])))
    # Each run's damping and small-step flag, aligned with the runs of ``s``;
    # every run still iterating has one history entry per round and the start.
    damping, lower = np.full(len(ids), 0.0 if half else 0.5), 0.0 if half else -np.inf
    small = np.zeros(len(ids), dtype=bool)
    eps = float(np.finfo(float).eps)
    keep, entries = recorded(s), 1
    while True:
        if keep is not None:
            s, damping, small = s.take(keep), damping[keep], small[keep]
        if not s.ids.size:
            return results
        converged = small | (s.residual <= 4.0 * eps * s.scale)
        if entries > max_iters or converged.any():
            done = np.ones_like(converged) if entries > max_iters else converged
            for k in np.flatnonzero(done).tolist():
                i = int(s.ids[k])
                results[i] = _finished(laws[i], half, s, k, bool(converged[k]), history[i])
            if done.all():
                return results
            keep = ~done
            continue
        layout, entries = s.layout, entries + 1
        step, solved = _damped_newton_steps(s.f, s.t, s.mass, s.c, s.r, damping, layout)
        trial = s.t - step
        # A run whose solve failed or whose thresholds came out of order takes
        # Lloyd's step in the same evaluation.
        newton = solved & _ordered(trial, layout, lower)
        lloyd = None if newton.all() else 0.5 * (s.c[layout.below] + s.c[layout.above])
        ts = evaluate(s.ids, trial if lloyd is None
                      else np.where(newton[layout.seg], trial, lloyd), layout)
        # A Newton step is kept if no bin empties and the distortion does not
        # rise, or rises by at most 8 eps E[X^2] where the residual falls.
        kept = ts.distortion <= s.distortion
        if not kept.all():
            kept |= (ts.residual < s.residual) & (
                ts.distortion <= s.distortion + 8.0 * eps * moment2[ts.ids])
        kept &= ~ts.empty
        # A small accepted step converges, as does one that no longer halves
        # a residual below 64 eps n scale: the rounding floor.
        small = (_run_max(np.abs(step), layout) < _STEP_TOL * s.scale) | (
            (ts.residual > 0.5 * s.residual) & (ts.residual < 64.0 * eps * layout.sizes * s.scale))
        if lloyd is None and kept.all():  # the common round: every Newton step is kept
            damping *= 0.25
        else:
            # A Newton step rejected after evaluation is replaced by Lloyd's step.
            redo, kept = newton & ~kept, newton & kept
            if redo.any():
                if lloyd is None:
                    lloyd = 0.5 * (s.c[layout.below] + s.c[layout.above])
                ts.put(redo, evaluate(s.ids[redo], lloyd[redo[layout.seg]],
                                      _layout(layout.sizes[redo])))
            small &= kept
            damping = np.where(kept, 0.25 * damping, np.minimum(1.0, 4.0 * damping))
        s, keep = ts, recorded(ts)


def _finished(d: Distribution, half: bool, s: _State, k: int, converged: bool,
              history: list) -> Quantizer:
    """The quantizer of ``d`` from run ``k`` of ``s``, which has stopped, a
    ``half`` run mirrored, with the run's distortion ``history``."""
    t0, b0, n = (int(a[k]) for a in (s.layout.first, s.layout.bin0, s.layout.sizes))
    t, c, residual = s.t[t0 : t0 + n], s.c[b0 : b0 + n + 1], float(s.residual[k])
    if half:
        # The mirrored partition is evaluated once on the full line, so the
        # codebook, residual and last distortion are those of the partition
        # returned; the earlier entries are twice the half-line distortion.
        t = np.concatenate((-t[::-1], [0.0], t))
        _, c, r, distortion = _partition_state(d, t)
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


# The memo of ``_moment_table``.  An entry keeps its partition's array of N - 1
# floats and at most six arrays of N floats (the anchors and J_0..J_3): 56 bytes
# a bin, 0.23 MB at 12 bits and 3.7 MB at 16 by tracemalloc, so 32 entries
# hold at most 118 MB.  A partition whose ``boundaries`` tuple was read holds
# 32 bytes a bin more.
@functools.lru_cache(maxsize=32)
def _moment_tables(d: Distribution, p: Partition, order: int) -> tuple[np.ndarray, ...]:
    table = _anchored(d, p.edges(), order)
    for part in table:
        part.flags.writeable = False
    return table


def _moment_table(d: Distribution, p: Partition, order: int = 2) -> tuple[np.ndarray, ...]:
    """The anchored table ``_anchored(d, p.edges(), order)``, ``(e, J_0, ...,
    J_order)``, as read-only arrays, from a bounded memo keyed by ``(d, p,
    max(order, 2))`` and compared by value: the decoders of one encoder read
    one table, anchors included, many times.  An order below 2 gets the
    leading arrays of the order-2 table, bit for bit the kernel's at that order."""
    return _moment_tables(d, p, max(order, 2))[: order + 2]

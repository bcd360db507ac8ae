"""Source distributions with exact bin masses and truncated moments.

Everything downstream (quantizer design, per-bin conditional means, exact
distortion evaluation, task-loss and noisy-channel decoder tables) reduces
to moments of a law restricted to an interval, so those are computed here
in closed form, up to the fourth, for the supported families, about each
bin's anchor ``e = clip(mean, lo, hi)`` (``_anchors``): the law's mean in
the bin that holds it, else the bin's edge nearest the mean.  Nothing is
shifted by the law's location, so a law far from 0 is evaluated as exactly
as one at 0, and a symmetric law's negative half mirrors its positive half
exactly.  Semi-infinite intervals are first-class: every formula is written
so that ``+/-inf`` endpoints are exact, not limits taken numerically.

The arithmetic every reader of a moment table shares lives beside
``edge_stats``: an anchored table is ``(e, J_0, J_1, ...)`` (``_anchored``),
read by ``_table_distortion``, ``_conditional_means`` (with the one
empty-bin rule) and ``_table_terms`` (the per-bin sums of a report row,
rate-sweep row or overload split); ``_ragged_blocks``, the one block bound
of a walk over Gaussian laws, which mixture components, design rounds and
``_gaussian_blocks`` take, and ``_gaussian_blocks`` itself, the one path by
which a row of laws reads its tables on shared edges.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import MismatchQuantError, ZeroMassBin

__all__ = [
    "ZERO_MASS_TOL",
    "Distribution",
    "Gaussian",
    "Laplace",
    "GaussianMixture",
    "inverse_mills",
    "from_config",
]

# Bin masses below this are treated as exactly zero.  The threshold sits at
# the edge of the subnormal range: anything smaller is pure underflow noise.
ZERO_MASS_TOL = 1e-300

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Cap on the mixture quantile iteration; Newton converges in under ten
# steps, and bisection, geometric across binades (``_PPF_BINADES``), needs at
# most about 11 + 16 + 53 to exhaust a double on the widest bracket.
_PPF_MAX_ITERS = 100

# A bracket of the mixture quantile iteration whose ends share a sign and
# differ by more than this factor is bisected at their geometric mean: an
# arithmetic bisection would need one step per binade to reach the smaller
# end, and a bracket as wide as 2^50 could not converge within the cap.
_PPF_BINADES = 2.0**16

# Most component-by-point entries one block of a mixture's density,
# distribution function or moments (points are edges there), or of a labeled
# source's class masses, evaluates at once.  Blocks remove per-component
# overhead on small inputs; past about this size a broadcast block is slower
# than one law at a time, which large inputs take, so memory stays bounded.
_MIXTURE_BLOCK = 4096


# The Gauss-Kronrod (7, 15) pair of QUADPACK's qk15 (Piessens et al.,
# 1983) on [-1, 1]: the 15 Kronrod nodes, their weights, and the weights of
# the 7-point Gauss rule on every second node (zero elsewhere).
_GK_X = np.array([
    0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
    0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
    0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
])
_GK_X = np.concatenate((-_GK_X, [0.0], _GK_X[::-1]))
_GK_WK = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
])
_GK_WK = np.concatenate((_GK_WK, [0.209482141084727828012999174891714], _GK_WK[::-1]))
_GK_WG = np.array([
    0.0, 0.129484966168869693270611432679082, 0.0, 0.279705391489276667901467771423780,
    0.0, 0.381830050505118944950369775488975, 0.0,
])
_GK_WG = np.concatenate((_GK_WG, [0.417959183673469387755102040816327], _GK_WG[::-1]))
_GK_W = np.stack((_GK_WK, _GK_WG), axis=1)


def _std_normal_pdf(z: np.ndarray) -> np.ndarray:
    # exp(-inf) underflows cleanly to 0, so infinite endpoints need no guard.
    return _INV_SQRT_2PI * np.exp(-0.5 * np.square(z))


def _tail_table(x0: np.ndarray) -> np.ndarray:
    """Taylor coefficients, highest order first, of ``h(x0 + t)`` at each
    ``x0 >= 0``, ``h(x) = E[Z - x | Z > x]`` for a standard normal ``Z``:
    ``h`` and ``-h'`` are the mean and variance of ``u`` under the weight
    ``exp(-x u - u^2 / 2)`` on ``[0, span]`` (where it falls to ``e^-40``),
    sums of positive terms by the Kronrod rule on four panels; the higher
    terms follow from the Riccati equation ``h' = h (h + x) - 1``."""
    span = 80.0 / (x0 + np.sqrt(x0 * x0 + 80.0))
    u = np.multiply.outer(span, ((np.arange(4)[:, None] + 0.5 * (1.0 + _GK_X)) / 4.0).ravel())
    f = np.tile(_GK_WK, 4) * np.exp(-u * (x0[:, None] + 0.5 * u))
    h = (f * u).sum(axis=1) / f.sum(axis=1)
    a = [h, -(f * np.square(u - h[:, None])).sum(axis=1) / f.sum(axis=1)]
    for n in range(1, _TAIL_ORDER - 1):
        a.append((sum(a[i] * a[n - i] for i in range(n + 1)) + x0 * a[n] + a[n - 1]) / (n + 1))
    return np.array(a[::-1]).T


# ``_tail_offset``'s grid on [0, 40] and Taylor order: within 1e-15 relative
# of 40 digits (2.7e-16 rms).  It serves tail bins beyond ``_TAIL_FROM``,
# where the recursion's ``phi(x) - x Q(x)`` loses a factor of 5 or more.
_TAIL_STEPS, _TAIL_ORDER, _TAIL_FROM = 32, 9, 1.0
_TAIL_TAYLOR = _tail_table(np.arange(40 * _TAIL_STEPS + 1) / _TAIL_STEPS)


def _tail_offset(x: float) -> float:
    """``E[Z - x | Z > x]`` at the float ``x >= 0`` (taken at 40 beyond, where
    ``Q(x)`` underflows) by the Taylor polynomial of the nearest grid point."""
    x = min(x, 40.0)
    k = round(x * _TAIL_STEPS)
    t, acc = x - k / _TAIL_STEPS, 0.0
    for a in _TAIL_TAYLOR[k].tolist():
        acc = acc * t + a
    return acc


def _anchors(mean, edges: np.ndarray) -> np.ndarray:
    """The anchor of each bin of ``edges``, ``clip(mean, lo, hi)``: ``mean``
    in the bin that holds it, else the bin's edge nearest it, so finite.
    ``mean`` is a float, or a column of a law per row of bins."""
    return np.minimum(np.maximum(mean, edges[..., :-1]), edges[..., 1:])


def _anchored(d: Distribution, edges, order: int = 2) -> tuple[np.ndarray, ...]:
    """The anchored table ``(e, J_0, ..., J_order)`` of ``d`` on ``edges``: its
    anchors (``_anchors``) and ``d.edge_stats(edges, order)``."""
    edges = np.asarray(edges, dtype=float)
    return (_anchors(d.mean, edges), *d.edge_stats(edges, order))


def _gaussian_edge_stats(
    mean, std, edges: np.ndarray, e, order: int, density: bool = False, per_edge: bool = False,
    tails: bool = False,
) -> tuple[np.ndarray, ...]:
    """Unnormalized moments ``J_k = E[(X - e)^k 1_bin]``, ``k = 0..order``, of
    N(mean, std^2) per bin, about the anchors ``e`` (read from order 1 on).

    ``edges`` is the increasing array of bin edges including the outer
    ``+/-inf``.  ``mean`` and ``std`` are floats, giving arrays of length
    ``len(edges) - 1``, or ``(k, 1)`` columns of ``k`` laws, giving one row
    per law; bins run along the last axis (edges and anchors may have rows
    of their own that broadcast against the columns).  Masses in the far
    tail are formed from the survival function on whichever side avoids
    cancellation.  With ``c = (e - mean) / std`` the standard-normal moments
    ``K_k`` about ``c`` follow ``K_(k+1) = k K_(k-1) - c K_k + (za - c)^k
    phi(za) - (zb - c)^k phi(zb)``, and ``J_k = std^k K_k``.  With
    ``density`` (order 1 or more) the standard-normal density ``phi(z)`` at
    the inner edges follows the moments, from the same pass: divided by
    ``std`` it is the density at those edges.  With ``per_edge`` the columns
    are as wide as ``edges``, a law per edge, and each bin takes the law of
    its left edge (a bin whose edges have two laws is meaningless).  With
    ``tails``, for a row of Gaussian laws, an outer bin beyond the mean
    (by more than ``_TAIL_FROM`` std) takes ``_tail_offset``; a mixture's
    components keep the recursion.
    """
    z = (edges - mean) / std
    below = special.ndtr(z)
    above = special.ndtr(-z)
    mass = np.where(
        z[..., :-1] >= 0.0,
        above[..., :-1] - above[..., 1:],
        below[..., 1:] - below[..., :-1],
    )
    moments = [mass]
    if order:
        m, s = (mean[..., :-1], std[..., :-1]) if per_edge else (mean, std)
        c = (e - m) / s
        phi = _std_normal_pdf(z)
        lo, hi = phi[..., :-1], phi[..., 1:]
        moments.append((lo - hi) - c * mass)
        if tails:
            # An outer bin reaching -/+inf is anchored at its finite edge c
            # when the mean lies beyond it, where phi(c) - |c| Q(|c|) cancels.
            n, k1 = mass.shape[-1], moments[1].reshape(-1)
            for r in range(k1.size // n):
                first, last = r * n, r * n + n - 1  # flat indices; the outer edges sit r on
                for i, edge, side in ((first, first + r, -1.0), (last, last + r + 1, 1.0)):
                    x = side * c.item(i)
                    if x > _TAIL_FROM and z.item(edge) == side * math.inf:
                        k1[i] = side * (mass.item(i) * _tail_offset(x))
        if order > 1:
            # (z - c)^k phi(z) -> 0 as |z| -> inf; zero z there to avoid inf * 0.
            z_finite = np.where(np.isfinite(z), z, 0.0)
            lo_step, hi_step = z_finite[..., :-1] - c, z_finite[..., 1:] - c
        for k in range(1, order):
            lo, hi = lo_step * lo, hi_step * hi
            moments.append((k * moments[k - 1] - c * moments[k]) + (lo - hi))
        power = s
        for k in range(1, order + 1):
            moments[k] = power * moments[k]
            power = power * s
    return (*moments, phi[..., 1:-1]) if density else tuple(moments)


def _ragged_blocks(sizes) -> list[tuple[int, int]]:
    """``(lo, hi)`` bounds of consecutive groups of the items of ``sizes``
    entries each, at most ``_MIXTURE_BLOCK`` entries (one item at least);
    no group for no item."""
    out, lo, total = [], 0, 0
    for i, size in enumerate(sizes):
        if i > lo and total + size > _MIXTURE_BLOCK:
            out.append((lo, i))
            lo, total = i, 0
        total += size
    return out + [(lo, len(sizes))] if len(sizes) else out


def _gaussian_blocks(laws, edges: np.ndarray, order: int, owner=None):
    """Yield ``(rows, table)`` for every law of ``laws``: their indices, and
    their anchored tables ``(e, J_0, ..., J_order)`` on ``edges`` (law ``i``
    reads row ``owner[i]`` if given) as one row a law, each row bit for bit
    the law's own ``_anchored`` table (anchors None for Gaussian ones at
    order 0).  The ``Gaussian`` laws come first, a
    block (``_ragged_blocks``) at a time from one kernel call on ``(k, 1)``
    columns; then each other law alone, from its own ``edge_stats``."""
    gauss = [i for i, d in enumerate(laws) if type(d) is Gaussian]
    mean = np.array([[laws[i].mean] for i in gauss])
    std = np.array([[laws[i].std] for i in gauss])
    for lo, hi in _ragged_blocks([edges.shape[-1]] * len(gauss)):
        rows = gauss[lo:hi]
        rows_edges = edges if owner is None else edges[owner[rows]]
        e = _anchors(mean[lo:hi], rows_edges) if order else None
        yield rows, (e, *_gaussian_edge_stats(mean[lo:hi], std[lo:hi], rows_edges, e, order,
                                              tails=True))
    for i, d in enumerate(laws):
        if type(d) is not Gaussian:
            table = _anchored(d, edges if owner is None else edges[owner[i]], order)
            yield [i], [part[None] for part in table]


def _fold(total, block: np.ndarray) -> np.ndarray:
    """``total + block[0] + block[1] + ...`` in order, whatever the layout of
    ``block`` (1-d: one row), which it may overwrite.  numpy sums along a
    contiguous axis pairwise, so rows of one entry accumulate, and longer rows
    are reduced one after another from a C-ordered copy if need be."""
    if block.ndim == 1:
        return np.add(block, total, out=block)
    block[0] += total
    if block[0].size == 1:
        return np.cumsum(block, axis=0)[-1]
    return np.ascontiguousarray(block).sum(axis=0)


def _component_grid(mixtures) -> tuple[np.ndarray, ...]:
    """``(K, L)`` weight, mean and std arrays of ``L`` mixtures, component
    ``j`` of law ``i`` at ``[j, i]``, and the ``L`` mixture means, the ``w m``
    of each law's components folded in order (``_fold``).  A law with fewer
    than ``K`` components is padded with copies of its last one at weight 0,
    which add exactly 0 to a sum and move no minimum or maximum."""
    k = max(len(d.components) for d in mixtures)
    table = np.array([d.components + d.components[-1:] * (k - len(d.components))
                      for d in mixtures])
    for row, d in zip(table, mixtures):
        row[len(d.components):, 0] = 0.0
    w, m, s = (np.ascontiguousarray(table[:, :, j].T) for j in range(3))
    return w, m, s, _fold(0.0, w * m)


def _component_sums(w, m, s, size: int, terms) -> list[np.ndarray]:
    """``sum_j terms(w_j, m_j, s_j)`` over the components ``j``, the rows of the
    ``(K, 1)`` weight, mean and std columns of one law or the ``(K, n)``
    columns of a law per point, each term folded in turn onto a zero total
    (``_fold``): bit for bit a loop over the components.  A block holds at
    most ``_MIXTURE_BLOCK // size`` components (one at least), and a block
    of one component of one law gets floats; ``terms`` returns a row per
    component."""
    totals = itertools.repeat(0.0)
    for lo, hi in _ragged_blocks([size] * len(w)):
        if hi - lo == 1 and w.shape[1] == 1:
            cols = float(w[lo, 0]), float(m[lo, 0]), float(s[lo, 0])
        else:
            cols = w[lo:hi], m[lo:hi], s[lo:hi]
        totals = [_fold(total, part) for total, part in zip(totals, terms(*cols))]
    return totals


def _mixture_design_stats(grid, cols: np.ndarray, t: np.ndarray, sizes: np.ndarray):
    """The anchored table (order 2) of the mixture of column ``cols[k]`` of
    ``grid`` (``_component_grid``) on the bins of ``[-inf, t_k..., inf]``,
    ``t_k`` the next ``sizes[k]`` thresholds of the flat array ``t``, and its
    density at ``t_k``, for every run ``k``: four arrays with ``sizes[k] + 1``
    bins a run and one with ``sizes[k]`` densities a run, laid end to end,
    each bit for bit that law's own ``_anchored`` table (about the grid's
    mixture means) and ``pdf``.  The edges of all runs are laid end to end
    too, each with the component columns of its law, and one walk of the
    Gaussian moment kernel folds the components in order onto them
    (``_fold``), in blocks of whole runs and of components of at most
    ``_MIXTURE_BLOCK`` entries (one run and one component at least); the
    bins that straddle two runs are dropped (anchored at 0)."""
    mean = grid[3][cols]
    if len(sizes) == 1:
        edges = np.concatenate(([-np.inf], t, [np.inf]))
        e = _anchors(mean[0], edges)
        return [e, *_design_walk(edges, e, [g[:, cols[0], None] for g in grid[:3]])]
    seg = np.repeat(np.arange(len(sizes)), sizes)
    first = np.cumsum(sizes) - sizes
    n_edges = sizes + 2
    start = first + 2 * np.arange(len(sizes))
    edges = np.full(len(t) + 2 * len(sizes), np.inf)
    edges[start] = -np.inf
    edges[np.arange(len(t)) + 2 * seg + 1] = t
    owner = np.repeat(cols, n_edges)
    anchors = _anchors(np.repeat(mean, n_edges)[:-1], edges)
    anchors[start[1:] - 1] = 0.0
    out = [np.empty(len(t) + len(sizes)) for _ in range(4)] + [np.empty(len(t))]
    for r0, r1 in _ragged_blocks(n_edges.tolist()):
        e0, e1 = int(start[r0]), int(start[r1 - 1] + n_edges[r1 - 1])
        t0, n = int(first[r0]), int(sizes[r0:r1].sum())
        e = anchors[e0 : e1 - 1]
        if r1 - r0 == 1:
            totals = _design_walk(edges[e0:e1], e, [g[:, cols[r0], None] for g in grid[:3]])
            bins = thresholds = slice(None)
        else:
            totals = _design_walk(edges[e0:e1], e, [g[:, owner[e0:e1]] for g in grid[:3]])
            local = np.arange(r1 - r0)
            bins = np.arange(n + r1 - r0) + np.repeat(local, sizes[r0:r1] + 1)
            thresholds = np.arange(n) + 2 * np.repeat(local, sizes[r0:r1])
        for o, total in zip(out[:4], [e, *totals]):
            o[t0 + r0 : t0 + n + r1] = total[bins]
        out[4][t0 : t0 + n] = totals[3][thresholds]
    return out


def _design_walk(edges: np.ndarray, e: np.ndarray, cols) -> list[np.ndarray]:
    """The order-2 moments about the anchors ``e`` of the bins of ``edges``,
    and the density at its inner edges, of the mixture of the component
    columns ``cols`` (``_component_sums``): ``(K, 1)`` columns of one law, or
    ``(K, edges)`` columns of each edge's law, each bin taking its left
    edge's law."""
    def terms(w, m, s):
        wide = np.ndim(w) == 2 and w.shape[1] > 1
        *moments, phi = _gaussian_edge_stats(m, s, edges, e, 2, density=True, per_edge=wide)
        bin_w, edge_w, edge_s = (w[:, :-1], w[:, 1:-1], s[:, 1:-1]) if wide else (w, w, s)
        return [bin_w * part for part in moments] + [edge_w * phi / edge_s]

    return _component_sums(*cols, edges.size, terms)


def _mixture_quantiles(mixtures, qs) -> list[np.ndarray]:
    """``GaussianMixture.ppf`` of each law of ``mixtures`` at its own flat
    array of ``qs``, bit for bit: one bracketed Newton iteration over the
    (law, quantile) pairs of a block of laws at once, in blocks of at most
    ``_MIXTURE_BLOCK`` component-by-pair entries (one law at least)."""
    k = max(len(d.components) for d in mixtures)
    out = []
    for lo, hi in _ragged_blocks([k * q.size for q in qs]):
        out += _quantile_block(mixtures[lo:hi], qs[lo:hi])
    return out


def _quantile_block(laws, qs) -> list[np.ndarray]:
    """``_mixture_quantiles`` of ``laws``: the pairs are the columns of ``(K,
    pairs)`` component arrays (one law keeps its ``(k, 1)`` weight and std
    columns), and a sum over the components is their ``_fold`` in order.  A
    step that leaves the bracket bisects it, at the geometric mean of its
    ends where they share a sign and span more than ``_PPF_BINADES``, so a
    bracket of many binades takes about as many steps as its exponents need.
    A pair that has not converged after ``_PPF_MAX_ITERS`` steps raises
    ``MismatchQuantError``."""
    sizes = [q.size for q in qs]
    q = np.concatenate(qs)
    w, m, s, _ = _component_grid(laws)  # (K, L): a column per law
    sign = np.where(q > 0.5, -1.0, 1.0)
    p = np.where(q > 0.5, 1.0 - q, q)
    if len(laws) > 1:
        pair_law = np.repeat(np.arange(len(laws)), sizes)
        w, m, s = w[:, pair_law], m[:, pair_law], s[:, pair_law]
    ws = w / s
    m = m * sign  # component means of the mirrored mixture where sign < 0
    ends = m + s * special.ndtri(p)
    lo, hi = ends.min(axis=0), ends.max(axis=0)
    del ends
    y = lo.copy()
    with np.errstate(divide="ignore"):
        log_p = np.log(p)
    tol = np.broadcast_to(1e-14 * s.min(axis=0), p.shape)
    todo = np.flatnonzero(lo < hi)
    for _ in range(_PPF_MAX_ITERS):
        if not todo.size:
            break
        w_t, s_t, ws_t = (a if a.shape[1] == 1 else a[:, todo] for a in (w, s, ws))
        yt, lo_t, hi_t = y[todo], lo[todo], hi[todo]
        z = (yt - m[:, todo]) / s_t
        cdf = _fold(0.0, w_t * special.ndtr(z))
        pdf = _INV_SQRT_2PI * _fold(0.0, ws_t * np.exp(-0.5 * z * z))
        with np.errstate(divide="ignore", invalid="ignore"):
            g = np.log(cdf) - log_p[todo]
            gc = g * cdf
        below = g < 0.0
        lo[todo] = lo_t = np.where(below, yt, lo_t)
        hi[todo] = hi_t = np.where(below, hi_t, yt)
        # A step longer than twice the bracket (which could overflow), or
        # NaN from an underflowed density, is not formed: -inf bisects.
        fits = (np.abs(gc) <= 2.0 * (hi_t - lo_t) * pdf) & (pdf > 0.0)
        trial = yt - np.divide(gc, pdf, out=np.full_like(yt, np.inf), where=fits)
        inside = (trial >= lo_t) & (trial <= hi_t)
        if not inside.all():
            trial = np.where(inside, trial, _bisection(lo_t, hi_t))
        y[todo] = trial
        todo = todo[np.abs(trial - yt) > np.maximum(1e-14 * np.abs(trial), tol[todo])]
    # A pair still moving at the cap whose bracket is within 100 times the
    # stopping tolerance alternates between neighbouring doubles about the
    # root (Newton's step on log F rounds across it); it keeps its last
    # iterate.  Any other has not converged.
    loose = hi[todo] - lo[todo] > 100.0 * np.maximum(1e-14 * np.abs(y[todo]), tol[todo])
    if loose.any():
        raise MismatchQuantError(
            f"mixture quantiles did not converge in {_PPF_MAX_ITERS} steps at q = "
            f"{q[todo[loose]][:3].tolist()}")
    y *= sign
    return [y] if len(sizes) == 1 else np.split(y, np.cumsum(sizes)[:-1])


def _bisection(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The midpoints of brackets ``[lo, hi]``: geometric where both ends share
    a sign and span more than ``_PPF_BINADES``, else arithmetic."""
    a, b = np.abs(lo), np.abs(hi)
    binades = (np.signbit(lo) == np.signbit(hi)) & (
        np.maximum(a, b) > _PPF_BINADES * np.minimum(a, b))
    geometric = np.sqrt(a) * np.sqrt(b)
    return np.where(binades, np.where(lo < 0.0, -geometric, geometric), 0.5 * (lo + hi))


def _table_distortion(table, first, second) -> float:
    """``sum_i E[(X - a_i)^2 1_bin_i]`` from an anchored table ``(e, J_0, J_1,
    J_2)``, as ``sum J_2 - 2 first.J_1 + second.J_0``: ``(a - e, (a - e)^2)``
    for a codebook ``a``, the per-bin means of ``a_J - e`` and ``(a_J -
    e)^2`` for a random index ``J``.  Arrays with a row per law (bins along
    the last axis) give a list with a value per row, each bit for bit that
    row's own."""
    _, mass, m1, m2 = table
    if mass.ndim == 1:
        return float(np.sum(m2) - 2.0 * np.dot(first, m1) + np.dot(second, mass))
    return [float(total - 2.0 * np.dot(first[i], m1[i]) + np.dot(second[i], mass[i]))
            for i, total in enumerate(m2.sum(axis=1).tolist())]


def _conditional_means(table, law: Distribution, fallback) -> tuple[np.ndarray, tuple[int, ...]]:
    """Per-bin means ``e + J_1 / J_0`` from ``law``'s anchored table ``(e,
    J_0, J_1, ...)``, and the bins with mass below ``ZERO_MASS_TOL``, which
    take their entry of the array-like ``fallback`` (read only then).
    Without one, ``ZeroMassBin`` names every such bin.  A tilted table ``(e,
    E[w 1_bin], E[w (X - e) 1_bin])`` gives the means under the weight ``w``
    the same way."""
    e, mass, m1 = table[:3]
    empty = mass < ZERO_MASS_TOL
    if not empty.any():
        return e + m1 / mass, ()
    bad = np.flatnonzero(empty).tolist()
    if fallback is None:
        raise ZeroMassBin(f"bins {bad} carry no mass under {law!r}")
    with np.errstate(invalid="ignore", divide="ignore"):
        values = e + np.where(empty, 0.0, m1) / np.where(empty, 1.0, mass)
    return np.where(empty, fallback, values), tuple(bad)


def _table_terms(table, fix: np.ndarray, laws) -> list:
    """``(substituted, d_fix, d_gen, excess, gen)`` of each law of ``laws``
    from its row of the anchored ``table`` with the codewords ``fix`` (a
    report row, a rate-sweep row, or the two outer bins of an overload
    split): the conditional means ``gen`` (``_conditional_means``) and
    ``excess = d_fix - d_gen`` as ``sum mass (s^2 + 2 s u)``, ``s = fix -
    gen``, ``u = (gen - e) - J_1 / J_0`` the rounding of ``gen`` (finite in an
    empty bin, where ``s`` is 0): no cancellation however far the law lies
    from 0, exactly 0 where ``fix`` is ``gen``; bit for bit per row."""
    e, mass, m1, _ = table
    gen, substituted = zip(*(_conditional_means((e[i], mass[i], m1[i]), d, fix)
                             for i, d in enumerate(laws)))
    gen = np.array(gen)
    shift, fix_offset, gen_offset = fix - gen, fix - e, gen - e
    u = gen_offset - np.divide(m1, mass, out=np.zeros_like(m1), where=mass >= ZERO_MASS_TOL)
    return list(zip(substituted,
                    _table_distortion(table, fix_offset, fix_offset * fix_offset),
                    _table_distortion(table, gen_offset, gen_offset * gen_offset),
                    [float(np.dot(m, s2)) for m, s2 in zip(mass, shift * (shift + 2.0 * u))],
                    gen))


class Distribution(ABC):
    """A scalar source law with closed-form interval moments."""

    @abstractmethod
    def pdf(self, x):
        """Density at ``x`` (scalar or ndarray)."""

    @abstractmethod
    def log_pdf(self, x):
        """Log density at ``x``, finite where ``pdf`` underflows to zero."""

    @abstractmethod
    def cdf(self, x):
        """Distribution function at ``x`` (scalar or ndarray)."""

    @abstractmethod
    def ppf(self, q):
        """Quantile function at ``q in (0, 1)`` (scalar or ndarray)."""

    @abstractmethod
    def edge_stats(self, edges: np.ndarray, order: int = 2) -> tuple[np.ndarray, ...]:
        """Unnormalized moments ``J_k = E[(X - e)^k 1_bin]``, ``k = 0..order``,
        per bin, about each bin's anchor ``e = clip(mean, lo, hi)``: the mean
        in the bin that holds it, else the bin's edge nearest the mean.

        ``edges`` must be increasing and include the outer infinite edges;
        ``order`` is a non-negative integer (the package uses up to 4).
        Every decoder table in the package is a closed-form functional of
        these moments and the anchors (``_anchored``).
        """

    @abstractmethod
    def sample(self, seed: int, n: int) -> np.ndarray:
        """Draw ``n`` variates from ``np.random.default_rng(seed)``: the same
        seed gives the same draw within a version of the package."""

    @property
    @abstractmethod
    def mean(self) -> float: ...

    @property
    @abstractmethod
    def variance(self) -> float: ...

    @abstractmethod
    def to_config(self) -> dict: ...

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)

    def centers(self) -> tuple[float, ...]:
        """Points the density concentrates around; quadrature splits there."""
        return (self.mean,)

    def cube_root_law(self) -> Distribution | None:
        """The law whose density is proportional to ``pdf ** (1/3)``.

        This is the high-rate optimal point density (Panter-Dite).  Gaussian
        and Laplace laws stay in their family with the spread tripled in the
        exponent; None where no such closed form exists (mixtures).
        """
        return None


@dataclass(frozen=True)
class Gaussian(Distribution):
    """Normal law N(mean, std^2)."""

    mean: float = 0.0
    std: float = 1.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.mean) and math.isfinite(self.std)):
            raise ValueError("Gaussian parameters must be finite")
        if self.std <= 0.0:
            raise ValueError(f"std must be positive, got {self.std}")

    def pdf(self, x):
        z = (np.asarray(x, dtype=float) - self.mean) / self.std
        out = _std_normal_pdf(z) / self.std
        return out if out.ndim else float(out)

    def log_pdf(self, x):
        z = (np.asarray(x, dtype=float) - self.mean) / self.std
        out = -0.5 * np.square(z) - math.log(self.std * math.sqrt(2.0 * math.pi))
        return out if out.ndim else float(out)

    def cdf(self, x):
        z = (np.asarray(x, dtype=float) - self.mean) / self.std
        out = special.ndtr(z)
        return out if out.ndim else float(out)

    def ppf(self, q):
        out = self.mean + self.std * special.ndtri(np.asarray(q, dtype=float))
        return out if out.ndim else float(out)

    def edge_stats(self, edges, order=2):
        edges = np.asarray(edges, dtype=float)
        return _gaussian_edge_stats(self.mean, self.std, edges, _anchors(self.mean, edges), order,
                                    tails=True)

    def cube_root_law(self) -> Gaussian:
        return Gaussian(self.mean, math.sqrt(3.0) * self.std)

    def sample(self, seed, n):
        """By numpy's ziggurat normal, ``rng.normal(mean, std)``."""
        rng = np.random.default_rng(seed)
        return rng.normal(self.mean, self.std, size=n)

    @property
    def variance(self) -> float:
        return self.std * self.std

    def to_config(self) -> dict:
        return {"kind": "gaussian", "mean": self.mean, "std": self.std}


@dataclass(frozen=True)
class Laplace(Distribution):
    """Laplace law with density ``exp(-|x - loc| / scale) / (2 scale)``.

    ``scale = 1/sqrt(2)`` gives unit variance.
    """

    loc: float = 0.0
    scale: float = math.sqrt(0.5)

    def __post_init__(self) -> None:
        if not (math.isfinite(self.loc) and math.isfinite(self.scale)):
            raise ValueError("Laplace parameters must be finite")
        if self.scale <= 0.0:
            raise ValueError(f"scale must be positive, got {self.scale}")

    def pdf(self, x):
        y = np.asarray(x, dtype=float) - self.loc
        out = np.exp(-np.abs(y) / self.scale) / (2.0 * self.scale)
        return out if out.ndim else float(out)

    def log_pdf(self, x):
        y = np.asarray(x, dtype=float) - self.loc
        out = -np.abs(y) / self.scale - math.log(2.0 * self.scale)
        return out if out.ndim else float(out)

    def cdf(self, x):
        y = np.asarray(x, dtype=float) - self.loc
        # Clamp each exp argument to its own side so the branch np.where
        # discards cannot overflow.
        out = np.where(
            y < 0.0,
            0.5 * np.exp(np.minimum(y, 0.0) / self.scale),
            1.0 - 0.5 * np.exp(-np.maximum(y, 0.0) / self.scale),
        )
        return out if out.ndim else float(out)

    def ppf(self, q):
        q = np.asarray(q, dtype=float)
        out = self.loc + np.where(
            q < 0.5,
            self.scale * np.log(2.0 * q),
            -self.scale * np.log(2.0 * (1.0 - q)),
        )
        return out if out.ndim else float(out)

    def edge_stats(self, edges, order=2):
        # Each bin is split at its anchor y = clip(0, lo, hi).  With P the
        # regularized lower incomplete gamma function, its part [lo, hi] at
        # y <= 0 is 0.5 e^(hi/b) (-b)^k k! P(k+1, (hi - lo)/b) about hi; the
        # part at y >= 0 is its mirror image.  No part is a difference, so
        # nothing cancels far out on either side, and an infinite end is
        # exact (P = 1).
        y = np.asarray(edges, dtype=float) - self.loc
        neg, pos = np.minimum(y, 0.0), np.maximum(y, 0.0)
        b = self.scale
        left_w, left_x = 0.5 * np.exp(neg[1:] / b), (neg[1:] - neg[:-1]) / b
        right_w, right_x = 0.5 * np.exp(-pos[:-1] / b), (pos[1:] - pos[:-1]) / b
        out = []
        for k in range(order + 1):
            left = left_w * special.gammainc(k + 1, left_x)
            right = right_w * special.gammainc(k + 1, right_x)
            out.append(math.factorial(k) * b**k * (right - left if k % 2 else left + right))
        return tuple(out)

    def cube_root_law(self) -> Laplace:
        return Laplace(self.loc, 3.0 * self.scale)

    def sample(self, seed, n):
        """``loc + scale * (E1 - E2)``: a unit Laplace variate is the
        difference of two independent unit exponentials, here two
        consecutive ``rng.standard_exponential(n)`` streams, which numpy
        draws by its ziggurat with no ``log`` on the common path, where
        ``rng.laplace`` takes one a draw.  Formed in place on ``E1``; the
        second stream is freed once subtracted."""
        rng = np.random.default_rng(seed)
        x = rng.standard_exponential(n)
        x -= rng.standard_exponential(n)
        x *= self.scale
        x += self.loc
        return x

    @property
    def mean(self) -> float:
        return self.loc

    @property
    def variance(self) -> float:
        return 2.0 * self.scale * self.scale

    def to_config(self) -> dict:
        return {"kind": "laplace", "loc": self.loc, "scale": self.scale}


@dataclass(frozen=True)
class GaussianMixture(Distribution):
    """Finite mixture of Gaussian components.

    ``components`` is a tuple of ``(weight, mean, std)`` triples; weights
    must be positive and sum to one within 1e-9.
    """

    components: tuple[tuple[float, float, float], ...]

    def __post_init__(self) -> None:
        comps = tuple((float(w), float(m), float(s)) for w, m, s in self.components)
        if not comps:
            raise ValueError("mixture needs at least one component")
        for w, m, s in comps:
            if w <= 0.0:
                raise ValueError(f"component weight must be positive, got {w}")
            if s <= 0.0:
                raise ValueError(f"component std must be positive, got {s}")
            if not (math.isfinite(w) and math.isfinite(m) and math.isfinite(s)):
                raise ValueError("mixture parameters must be finite")
        total = sum(w for w, _, _ in comps)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"weights must sum to 1, got {total}")
        object.__setattr__(self, "components", comps)

    @functools.cached_property
    def _columns(self) -> tuple[np.ndarray, ...]:
        """``(k, 1)`` weight, mean and std columns; not a field, so equality,
        hash and pickles see ``components`` only."""
        return tuple(np.array(col)[:, None] for col in zip(*self.components))

    def __getstate__(self) -> dict:
        return {"components": self.components}

    def _pointwise(self, x, term):
        """``sum_j term(x, w_j, m_j, s_j)`` at each point, shaped as ``x``."""
        x = np.asarray(x, dtype=float)
        flat = x.ravel()
        [out] = _component_sums(*self._columns, flat.size, lambda w, m, s: (term(flat, w, m, s),))
        return out.reshape(x.shape) if x.ndim else float(out[0])

    def pdf(self, x):
        return self._pointwise(x, lambda y, w, m, s: w * _std_normal_pdf((y - m) / s) / s)

    def log_pdf(self, x):
        """The log density, each component's log term added in turn onto the
        total by ``np.logaddexp``, in place: a few arrays the size of ``x``
        are live, however many components there are."""
        x = np.asarray(x, dtype=float)
        out = None
        for w, m, s in self.components:
            term = np.subtract(x.ravel(), m)
            np.square(np.divide(term, s, out=term), out=term)
            term *= -0.5
            term += math.log(w) - math.log(s * math.sqrt(2.0 * math.pi))
            out = term if out is None else np.logaddexp(out, term, out=out)
        return out.reshape(x.shape) if x.ndim else float(out[0])

    def cdf(self, x):
        return self._pointwise(x, lambda y, w, m, s: w * special.ndtr((y - m) / s))

    def ppf(self, q):
        """Quantiles by one bracketed Newton iteration over all ``q`` at once.

        The root of each ``F(x) = q`` lies between the smallest and largest
        component quantile ``m_j + s_j ndtri(q)``.  Newton steps are taken on
        ``log F(x) - log q``, which is nearly linear in the tails, so far-tail
        quantiles take a few steps; a step that leaves the bracket is replaced
        by bisection.  Above the median the same iteration runs on the
        mirrored mixture, whose distribution function is the survival
        function ``1 - F``, so upper-tail quantiles keep full accuracy.
        """
        q = np.asarray(q, dtype=float)
        out = _mixture_quantiles((self,), [q.ravel()])[0].reshape(q.shape)
        return out if out.ndim else float(out)

    def edge_stats(self, edges, order=2):
        # One kernel call per block of components (floats for one component),
        # every component about the mixture's anchors.
        edges = np.asarray(edges, dtype=float)
        e = _anchors(self.mean, edges)

        def terms(w, m, s):
            return [w * part for part in _gaussian_edge_stats(m, s, edges, e, order)]

        return tuple(_component_sums(*self._columns, len(edges), terms))

    def sample(self, seed, n):
        """Component indices by ``rng.choice`` with the weights, then one
        ziggurat normal per draw at its component's mean and std."""
        rng = np.random.default_rng(seed)
        w, m, s = (col.ravel() for col in self._columns)
        idx = rng.choice(len(w), size=n, p=w)
        return rng.normal(m[idx], s[idx])

    @property
    def mean(self) -> float:
        return sum(w * m for w, m, _ in self.components)

    def _spread(self) -> tuple[float, float]:
        """``(c, variance / c^2)``, ``c`` the power of two at or below the widest
        component spread or offset: the central sum ``w (s^2 + (m - mean)^2)``
        scaled exactly, so no term under- or overflows at any scale."""
        mu = self.mean
        widest = max(max(s, abs(m - mu)) for _, m, s in self.components)
        c = math.ldexp(1.0, math.frexp(widest)[1] - 1)
        scaled = [(w, s / c, (m - mu) / c) for w, m, s in self.components]
        return c, sum(w * (s * s + d * d) for w, s, d in scaled)

    @property
    def variance(self) -> float:
        c, total = self._spread()
        return c * c * total

    @property
    def std(self) -> float:
        c, total = self._spread()
        return c * math.sqrt(total)

    def centers(self) -> tuple[float, ...]:
        return tuple(m for _, m, _ in self.components)

    def to_config(self) -> dict:
        return {
            "kind": "mixture",
            "components": [
                {"weight": w, "mean": m, "std": s} for w, m, s in self.components
            ],
        }


def inverse_mills(alpha: float) -> tuple[float, float]:
    """Inverse Mills ratios ``(phi/Phi, phi/(1 - Phi))`` at ``alpha``.

    Both ratios are evaluated in log space so that the far-tail cases stay
    finite instead of degenerating to 0/0; in that regime the values approach
    ``|alpha|`` on the vanishing side and 0 on the other.

    Examples
    --------
    >>> left, right = inverse_mills(0.0)
    >>> round(left, 12) == round((2.0 / math.pi) ** 0.5, 12)
    True
    """
    a = float(alpha)
    if not math.isfinite(a):
        raise ValueError(f"alpha must be finite, got {a}")
    log_pdf = -0.5 * a * a - 0.5 * math.log(2.0 * math.pi)
    lam_left = math.exp(log_pdf - special.log_ndtr(a))
    lam_right = math.exp(log_pdf - special.log_ndtr(-a))
    return lam_left, lam_right


def from_config(record: dict) -> Distribution:
    """Build a distribution from a plain config record.

    Recognized kinds: ``gaussian`` (mean, std), ``laplace`` (loc, scale),
    and ``mixture`` (components: list of {weight, mean, std}).  A missing
    mean, std, loc or scale takes its default; any other key, or a value
    that is a bool or not a real number, raises ValueError naming the key.
    """
    if not isinstance(record, dict):
        raise ValueError(f"distribution config must be a mapping, got {type(record)}")
    kind = record.get("kind")
    if kind == "gaussian":
        return Gaussian(*_config_numbers(record, kind, {"mean": 0.0, "std": 1.0}))
    if kind == "laplace":
        return Laplace(*_config_numbers(record, kind, {"loc": 0.0, "scale": math.sqrt(0.5)}))
    if kind == "mixture":
        _config_numbers(record, kind, {}, other=("kind", "components"))
        comps = record.get("components")
        if not isinstance(comps, list) or not comps:
            raise ValueError("mixture config needs a non-empty 'components' list")
        required = dict.fromkeys(("weight", "mean", "std"))
        return GaussianMixture(tuple(tuple(_config_numbers(c, "mixture component", required, ()))
                                     for c in comps))
    raise ValueError(f"unknown distribution kind: {kind!r}")


def _config_numbers(record, what: str, defaults: dict, other=("kind",)) -> list[float]:
    """The value in the mapping ``record`` of each key of ``defaults`` as a float, its
    default where missing (None: required).  ValueError names a key in neither
    ``defaults`` nor ``other``, and one whose value is a bool or not a real number."""
    if not isinstance(record, dict):
        raise ValueError(f"{what} config must be a mapping, got {type(record)}")
    if unknown := [key for key in record if key not in defaults and key not in other]:
        raise ValueError(f"unknown key {unknown[0]!r} in {what} config")
    values = [record.get(key, default) for key, default in defaults.items()]
    for key, value in zip(defaults, values):
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValueError(f"malformed {what} record: {key!r} must be a number, got {value!r}")
    return [float(v) for v in values]

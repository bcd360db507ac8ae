"""Source distributions with exact bin masses and truncated moments.

Everything downstream (quantizer design, per-bin conditional means, exact
distortion evaluation, task-loss and noisy-channel decoder tables) reduces
to raw moments of a law restricted to an interval, so those are computed
here in closed form, up to the fourth, for the supported families.
Semi-infinite intervals are first-class: every formula is written so that
``+/-inf`` endpoints are exact, not limits taken numerically.

The arithmetic every reader of a moment table shares lives beside
``edge_stats``: ``_table_distortion``, ``_conditional_means`` (with the one
empty-bin rule) and ``_blocks``, the one block bound of a walk over Gaussian
laws, which mixture components and the class laws of a source both take.
"""

from __future__ import annotations

import functools
import itertools
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import ZeroMassBin

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
# steps and bisection alone would need about 60 to exhaust a double.
_PPF_MAX_ITERS = 100

# Most component-by-point entries one block of a mixture's density,
# distribution function or moments (points are edges there), or of a labeled
# source's class masses, evaluates at once.  Blocks remove per-component
# overhead on small inputs; past about this size a broadcast block is slower
# than one law at a time, which large inputs take, so memory stays bounded.
_MIXTURE_BLOCK = 4096


def _std_normal_pdf(z: np.ndarray) -> np.ndarray:
    # exp(-inf) underflows cleanly to 0, so infinite endpoints need no guard.
    return _INV_SQRT_2PI * np.exp(-0.5 * np.square(z))


def _powers(x, order: int) -> list:
    out = [1.0]
    for _ in range(order):
        out.append(out[-1] * x)
    return out


def _shift(loc, scale, centered: list[np.ndarray]) -> tuple[np.ndarray, ...]:
    """Raw moments of ``loc + scale * U`` from the per-bin moments of ``U``.

    Binomial expansion ``E[X^k] = sum_j C(k, j) loc^(k-j) scale^j E[U^j]``,
    summed in increasing ``j``.  ``loc`` and ``scale`` are floats or columns
    that broadcast against the moments.
    """
    lp = _powers(loc, len(centered) - 1)
    sp = _powers(scale, len(centered) - 1)
    out = [centered[0]]
    for k in range(1, len(centered)):
        acc = lp[k] * centered[0]
        for j in range(1, k + 1):
            acc = acc + math.comb(k, j) * lp[k - j] * sp[j] * centered[j]
        out.append(acc)
    return tuple(out)


def _gaussian_edge_stats(
    mean, std, edges: np.ndarray, order: int, density: bool = False
) -> tuple[np.ndarray, ...]:
    """Unnormalized raw moments ``0..order`` of N(mean, std^2) per bin.

    ``edges`` is the increasing array of bin edges including the outer
    ``+/-inf``.  ``mean`` and ``std`` are floats, giving arrays of length
    ``len(edges) - 1``, or ``(k, 1)`` columns of ``k`` laws, giving one row
    per law; bins run along the last axis (edges may have rows of their own
    that broadcast against the columns).  Masses in the far tail are
    formed from the survival function on whichever side avoids
    cancellation.  The standard-normal moments follow the recursion
    ``I_k = (k-1) I_(k-2) + za^(k-1) phi(za) - zb^(k-1) phi(zb)``.  With
    ``density`` (order 1 or more) the standard-normal density ``phi(z)`` at
    the inner edges follows the moments, from the same pass: divided by
    ``std`` it is the density at those edges.
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
        # z^(k-1) phi(z) -> 0 as |z| -> inf; zero z there to avoid inf * 0.
        z_finite = np.where(np.isfinite(z), z, 0.0)
        edge_term = phi = _std_normal_pdf(z)
        moments.append(edge_term[..., :-1] - edge_term[..., 1:])
        for k in range(2, order + 1):
            edge_term = z_finite * edge_term
            moments.append(
                (k - 1) * moments[k - 2] + edge_term[..., :-1] - edge_term[..., 1:]
            )
    shifted = _shift(mean, std, moments)
    return (*shifted, phi[..., 1:-1]) if density else shifted


def _blocks(k: int, size: int) -> list[tuple[int, int]]:
    """``(lo, hi)`` bounds of consecutive blocks of ``k`` laws with ``size``
    entries each, at most ``_MIXTURE_BLOCK`` entries (one law at least)."""
    step = max(1, _MIXTURE_BLOCK // max(size, 1))
    return [(lo, min(lo + step, k)) for lo in range(0, k, step)]


def _fold(total, block: np.ndarray) -> np.ndarray:
    """``total + block[0] + block[1] + ...`` in order, overwriting ``block``
    (1-d: one row).  numpy sums a single column pairwise, so it accumulates."""
    if block.ndim == 1:
        return np.add(block, total, out=block)
    block[0] += total
    return block.sum(axis=0) if block[0].size > 1 else np.cumsum(block, axis=0)[-1]


def _component_grid(mixtures) -> tuple[np.ndarray, ...]:
    """``(K, L)`` weight, mean and std arrays of ``L`` mixtures, component
    ``j`` of law ``i`` at ``[j, i]`` (one law: its ``_columns``).  A law with
    fewer than ``K`` components is padded with copies of its last one at
    weight 0, which add exactly 0 to a sum and move no minimum or maximum."""
    if len(mixtures) == 1:
        return mixtures[0]._columns
    k = max(len(d.components) for d in mixtures)
    table = np.array([d.components + d.components[-1:] * (k - len(d.components))
                      for d in mixtures])
    for row, d in zip(table, mixtures):
        row[len(d.components):, 0] = 0.0
    return tuple(np.ascontiguousarray(table[:, :, j].T) for j in range(3))


def _component_sums(mixtures, grid, size: int, terms) -> list[np.ndarray]:
    """``sum_j terms(w_j, m_j, s_j, laws)`` for each law of ``mixtures``, a
    row per law, each bit for bit that law's own ``_sum_components``.
    ``grid`` is ``_component_grid(mixtures)``, or C-ordered columns of it:
    numpy would sum the components of an F-ordered block pairwise.

    The laws go in blocks of at most ``_MIXTURE_BLOCK // size`` (one law at
    least).  A block of one law is that law's ``_sum_components``, and
    ``terms`` gets its columns and ``laws``, the law's index.  A block of
    several laws walks their padded components in blocks of at most
    ``_MIXTURE_BLOCK`` component-by-law-by-``size`` entries, and ``terms``
    gets ``(b, l, 1)`` columns and ``laws``, a slice.  ``laws`` picks the
    block's rows from an array with a row per law, and ``terms`` returns
    arrays with a row per component (and per law)."""
    w, m, s = grid
    chunks = []
    for l0, l1 in _blocks(len(mixtures), size):
        if l1 - l0 == 1:
            totals = mixtures[l0]._sum_components(size, lambda *cols: terms(*cols, l0))
        else:
            laws = slice(l0, l1)
            totals = itertools.repeat(0.0)
            for lo, hi in _blocks(len(w), (l1 - l0) * size):
                cols = (w[lo:hi, laws, None], m[lo:hi, laws, None], s[lo:hi, laws, None])
                totals = [_fold(total, part) for total, part in zip(totals, terms(*cols, laws))]
        chunks.append([total.reshape(l1 - l0, -1) for total in totals])
    return chunks[0] if len(chunks) == 1 else [np.concatenate(rows) for rows in zip(*chunks)]


def _mixture_design_stats(mixtures, grid, edges: np.ndarray) -> list[np.ndarray]:
    """``edge_stats(edges[i])`` (order 2) of each law ``i`` of ``mixtures``,
    then its density at the inner edges ``edges[i, 1:-1]``: four arrays with
    a row per law, each bit for bit that law's ``edge_stats`` and ``pdf``,
    from one walk over the components of every law (``_component_sums``)."""

    def terms(w, m, s, laws):
        *moments, phi = _gaussian_edge_stats(m, s, edges[laws], 2, density=True)
        return [w * part for part in moments] + [w * phi / s]

    return _component_sums(mixtures, grid, edges.shape[-1], terms)


def _mixture_quantiles(mixtures, q: np.ndarray) -> np.ndarray:
    """``GaussianMixture.ppf`` of each law of ``mixtures`` at the flat array
    ``q``, a row per law, bit for bit: one bracketed Newton iteration over
    the (law, quantile) pairs of a block of laws at once.  The laws run in
    order of component count, in blocks of at most ``_MIXTURE_BLOCK``
    component-by-pair entries (one law at least), so memory stays bounded.
    """
    order = sorted(range(len(mixtures)), key=lambda i: len(mixtures[i].components))
    laws = [mixtures[i] for i in order]
    size = len(laws[-1].components) * q.size
    blocks = [_quantile_block(laws[lo:hi], q) for lo, hi in _blocks(len(laws), size)]
    out = np.empty((len(laws), q.size))
    out[order] = np.concatenate(blocks)
    return out


def _quantile_block(laws, q: np.ndarray) -> np.ndarray:
    """``_mixture_quantiles`` of ``laws``, in order of component count.

    The pairs are the columns of ``(K, pairs)`` component arrays; a single
    law keeps its ``(k, 1)`` weight and std columns, which broadcast.  The
    columns of the pairs still iterating are gathered F-ordered, so a sum
    over the components is taken as numpy takes one law's own block: in
    order below 8 components and pairwise from 8.  The laws below 8
    components therefore sum together (padding adds 0), and each count from
    8 up sums its own contiguous columns.
    """
    n_q = q.size
    runs = {}  # summing alike: first pair, components summed
    for i, d in enumerate(laws):
        k = len(d.components)
        runs.setdefault(k if k >= 8 else 0, [i * n_q, k])[1] = k
    starts = np.array([first for first, _ in runs.values()])
    widths = [k for _, k in runs.values()]

    def component_sum(terms, todo):
        if len(widths) == 1:
            return terms[: widths[0]].sum(axis=0)
        cuts = [*np.searchsorted(todo, starts).tolist(), len(todo)]
        out = np.empty(len(todo))
        for lo, hi, k in zip(cuts, cuts[1:], widths):
            out[lo:hi] = terms[:k, lo:hi].sum(axis=0)
        return out

    w, m, s = _component_grid(laws)  # (K, L): a column per law
    sign = np.where(q > 0.5, -1.0, 1.0)
    p = np.where(q > 0.5, 1.0 - q, q)
    if len(laws) > 1:
        pair_law = np.repeat(np.arange(len(laws)), n_q)
        w, m, s = w[:, pair_law], m[:, pair_law], s[:, pair_law]
        sign, p = np.tile(sign, len(laws)), np.tile(p, len(laws))
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
        cdf = component_sum(w_t * special.ndtr(z), todo)
        pdf = _INV_SQRT_2PI * component_sum(ws_t * np.exp(-0.5 * z * z), todo)
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
        y[todo] = new = np.where(inside, trial, 0.5 * (lo_t + hi_t))
        todo = todo[np.abs(new - yt) > np.maximum(1e-14 * np.abs(new), tol[todo])]
    return (sign * y).reshape(len(laws), n_q)


def _table_distortion(table, first, second) -> float:
    """``sum_i E[(X - a_i)^2 1_bin_i]`` from a moment table ``(mass, m1, m2)``,
    as ``sum m2 - 2 first.m1 + second.mass``: ``(a, a * a)`` for a codebook
    ``a``, the per-bin means of ``a_J`` and ``a_J^2`` for a random index ``J``.
    Arrays with a row per law (bins along the last axis) give a list with a
    value per row, each bit for bit that row's own."""
    mass, m1, m2 = table
    if mass.ndim == 1:
        return float(np.sum(m2) - 2.0 * np.dot(first, m1) + np.dot(second, mass))
    return [float(total - 2.0 * np.dot(first[i], m1[i]) + np.dot(second[i], mass[i]))
            for i, total in enumerate(m2.sum(axis=1).tolist())]


def _conditional_means(table, law: Distribution, fallback) -> tuple[np.ndarray, tuple[int, ...]]:
    """Per-bin means ``m1 / mass`` from ``law``'s moment table, and the bins
    with mass below ``ZERO_MASS_TOL``, which take their entry of the array-like
    ``fallback`` (read only then).  Without one, ``ZeroMassBin`` names every
    such bin.  A tilted table ``(m_k, m_{k+1})`` gives the means under the
    weight ``x^k`` the same way."""
    mass, m1 = table[:2]
    empty = mass < ZERO_MASS_TOL
    bad = np.flatnonzero(empty).tolist()
    if not bad:
        return m1 / mass, ()
    if fallback is None:
        raise ZeroMassBin(f"bins {bad} carry no mass under {law!r}")
    with np.errstate(invalid="ignore", divide="ignore"):
        values = np.where(empty, 0.0, m1) / np.where(empty, 1.0, mass)
    return np.where(empty, fallback, values), tuple(bad)


def _laplace_left_moments(
    lo: np.ndarray, hi: np.ndarray, b: float, order: int
) -> list[np.ndarray]:
    """``int_lo^hi u^k e^(u/b) / (2b) du``, ``k = 0..order``, per bin, ``lo <= hi <= 0``.

    Substituting ``u = hi - v`` gives ``0.5 e^(hi/b) sum_m C(k, m) hi^(k-m)
    (-b)^m m! P(m+1, (hi - lo)/b)``, with ``P`` the regularized lower
    incomplete gamma function.  Every term has the sign ``(-1)^k``, so the sum
    cancels nothing however narrow or far out the bin, and ``lo = -inf`` is
    exact (``P = 1``).
    """
    half_e = 0.5 * np.exp(hi / b)
    x = (hi - lo) / b
    gam = [
        math.factorial(m) * (-b) ** m * special.gammainc(m + 1, x) for m in range(order + 1)
    ]
    hpow = [1.0, hi]
    out = []
    for k in range(order + 1):
        if k >= 2:
            hpow.append(hpow[-1] * hi)
        acc = gam[k]
        for m in range(k):
            acc = acc + math.comb(k, m) * hpow[k - m] * gam[m]
        out.append(half_e * acc)
    return out


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
        """Unnormalized raw moments ``E[X^k 1_bin]``, ``k = 0..order``, per bin.

        ``edges`` must be increasing and include the outer infinite edges;
        ``order`` is a non-negative integer (the package uses up to 4).
        Every decoder table in the package is a closed-form functional of
        these moments.
        """

    @abstractmethod
    def sample(self, seed: int, n: int) -> np.ndarray:
        """Draw ``n`` variates with a deterministic generator for ``seed``."""

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
        return _gaussian_edge_stats(self.mean, self.std, np.asarray(edges, dtype=float), order)

    def cube_root_law(self) -> Gaussian:
        return Gaussian(self.mean, math.sqrt(3.0) * self.std)

    def sample(self, seed, n):
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
        # Each bin is split at y = 0.  The part at y <= 0 is integrated
        # directly; the part at y > 0 is the mirror image, (-1)^k times the
        # same integral over the reflected piece.  Neither tail is then
        # formed as a difference from the total moment k! b^k, which would
        # lose every digit far out on the right.
        y = np.asarray(edges, dtype=float) - self.loc
        neg = np.minimum(y, 0.0)
        pos = np.maximum(y, 0.0)
        left = _laplace_left_moments(neg[:-1], neg[1:], self.scale, order)
        right = _laplace_left_moments(-pos[1:], -pos[:-1], self.scale, order)
        centered = [
            lk - rk if k % 2 else lk + rk for k, (lk, rk) in enumerate(zip(left, right))
        ]
        return _shift(self.loc, 1.0, centered)

    def cube_root_law(self) -> Laplace:
        return Laplace(self.loc, 3.0 * self.scale)

    def sample(self, seed, n):
        rng = np.random.default_rng(seed)
        return rng.laplace(self.loc, self.scale, size=n)

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

    def _sum_components(self, size: int, terms) -> list[np.ndarray]:
        """``sum_j terms(w_j, m_j, s_j)`` per output, bit for bit a loop over the
        components in order.  ``terms`` maps the ``(b, 1)`` columns of a block
        (floats for one component) to arrays with a row per component; a block
        holds at most ``_MIXTURE_BLOCK`` component-by-``size`` entries."""
        w, m, s = self._columns
        totals = itertools.repeat(0.0)
        for lo, hi in _blocks(len(w), size):
            cols = self.components[lo] if hi - lo == 1 else (w[lo:hi], m[lo:hi], s[lo:hi])
            totals = [_fold(total, part) for total, part in zip(totals, terms(*cols))]
        return totals

    def _pointwise(self, x, term):
        """``sum_j term(x, w_j, m_j, s_j)`` at each point, shaped as ``x``."""
        x = np.asarray(x, dtype=float)
        flat = x.ravel()
        [out] = self._sum_components(flat.size, lambda *cols: (term(flat, *cols),))
        return out.reshape(x.shape) if x.ndim else float(out[0])

    def pdf(self, x):
        return self._pointwise(x, lambda y, w, m, s: w * _std_normal_pdf((y - m) / s) / s)

    def log_pdf(self, x):
        x = np.asarray(x, dtype=float)
        terms = np.stack(
            [
                math.log(w)
                - 0.5 * np.square((x - m) / s)
                - math.log(s * math.sqrt(2.0 * math.pi))
                for w, m, s in self.components
            ]
        )
        out = special.logsumexp(terms, axis=0)
        return out if np.ndim(out) else float(out)

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
        out = _mixture_quantiles((self,), q.ravel())[0].reshape(q.shape)
        return out if out.ndim else float(out)

    def edge_stats(self, edges, order=2):
        # One kernel call per block of components (floats for one component).
        edges = np.asarray(edges, dtype=float)
        return tuple(self._sum_components(len(edges), lambda w, m, s: [
            w * part for part in _gaussian_edge_stats(m, s, edges, order)]))

    def sample(self, seed, n):
        rng = np.random.default_rng(seed)
        w, m, s = (col.ravel() for col in self._columns)
        idx = rng.choice(len(w), size=n, p=w)
        return rng.normal(m[idx], s[idx])

    @property
    def mean(self) -> float:
        return sum(w * m for w, m, _ in self.components)

    @property
    def variance(self) -> float:
        mu = self.mean
        second = sum(w * (m * m + s * s) for w, m, s in self.components)
        return second - mu * mu

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
    and ``mixture`` (components: list of {weight, mean, std}).
    """
    if not isinstance(record, dict):
        raise ValueError(f"distribution config must be a mapping, got {type(record)}")
    kind = record.get("kind")
    try:
        if kind == "gaussian":
            return Gaussian(mean=float(record.get("mean", 0.0)),
                            std=float(record.get("std", 1.0)))
        if kind == "laplace":
            return Laplace(loc=float(record.get("loc", 0.0)),
                           scale=float(record.get("scale", math.sqrt(0.5))))
        if kind == "mixture":
            comps = record.get("components")
            if not comps:
                raise ValueError("mixture config needs a non-empty 'components' list")
            return GaussianMixture(
                components=tuple(
                    (float(c["weight"]), float(c["mean"]), float(c["std"])) for c in comps
                )
            )
    except (TypeError, KeyError) as exc:
        raise ValueError(f"malformed {kind} record: {exc!r}") from exc
    raise ValueError(f"unknown distribution kind: {kind!r}")

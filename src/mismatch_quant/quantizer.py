"""Scalar quantizers: partitions, codebooks, and Lloyd-Max design."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .distributions import ZERO_MASS_TOL, Distribution, Interval
from .errors import DegenerateDesign, ZeroMassBin

__all__ = [
    "Partition",
    "Codebook",
    "Quantizer",
    "centroid_codebook",
    "lloyd_max_design",
]


@dataclass(frozen=True)
class Partition:
    """N bins cut by N-1 strictly increasing finite thresholds.

    Bins follow the half-open convention: bin ``i`` (0-based) is
    ``[t_{i-1}, t_i)`` with the outer bins extended to ``-inf`` and ``+inf``.
    N must be a power of two so every partition corresponds to a bit depth.
    """

    boundaries: tuple[float, ...]

    def __post_init__(self) -> None:
        bnd = tuple(float(t) for t in self.boundaries)
        if not bnd:
            raise ValueError("a partition needs at least one boundary")
        if not all(math.isfinite(t) for t in bnd):
            raise ValueError("boundaries must be finite")
        if any(b <= a for a, b in zip(bnd, bnd[1:])):
            raise ValueError("boundaries must be strictly increasing")
        n = len(bnd) + 1
        if n & (n - 1):
            raise ValueError(f"bin count must be a power of two, got {n}")
        object.__setattr__(self, "boundaries", bnd)

    @property
    def n_bins(self) -> int:
        return len(self.boundaries) + 1

    @property
    def bits(self) -> int:
        return self.n_bins.bit_length() - 1

    def edges(self) -> np.ndarray:
        """All bin edges including the infinite outer ones."""
        return np.concatenate(([-np.inf], self.boundaries, [np.inf]))

    def interval(self, i: int) -> Interval:
        edges = self.edges()
        return Interval(float(edges[i]), float(edges[i + 1]))

    def bins(self) -> tuple[Interval, ...]:
        return tuple(self.interval(i) for i in range(self.n_bins))

    def encode(self, x):
        """Map values to 0-based bin indices; boundary points go right."""
        idx = np.searchsorted(np.asarray(self.boundaries), x, side="right")
        return idx if np.ndim(x) else int(idx)


@dataclass(frozen=True)
class Codebook:
    """Reconstruction values, one per bin."""

    values: tuple[float, ...]

    def __post_init__(self) -> None:
        vals = tuple(float(v) for v in self.values)
        if not vals:
            raise ValueError("a codebook needs at least one value")
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("codebook values must be finite")
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return len(self.values)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values)


@dataclass(frozen=True)
class Quantizer:
    """A fixed encoder (partition) with the codebook it was designed with."""

    partition: Partition
    design_codebook: Codebook
    design_law: Distribution
    # Expected design-law distortion after each Lloyd iteration; diagnostic.
    distortion_history: tuple[float, ...] = field(default=(), compare=False)

    def __post_init__(self) -> None:
        if len(self.design_codebook) != self.partition.n_bins:
            raise ValueError(
                f"codebook size {len(self.design_codebook)} does not match "
                f"{self.partition.n_bins} bins"
            )

    @property
    def bits(self) -> int:
        return self.partition.bits

    def encode(self, x):
        return self.partition.encode(x)

    def decode(self, idx, codebook: Codebook | None = None):
        """Reconstruction for encoded indices, by default the design codebook."""
        table = (codebook or self.design_codebook).as_array()
        out = table[np.asarray(idx)]
        return out if np.ndim(idx) else float(out)

    def to_record(self) -> dict:
        """Plain serializable description of the designed quantizer."""
        return {
            "bits": self.bits,
            "boundaries": list(self.partition.boundaries),
            "codebook": list(self.design_codebook.values),
            "design_law": self.design_law.to_config(),
        }


def _bin_centroids(d: Distribution, edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Masses and conditional means for the bins cut by ``edges``.

    Bins with no numerical mass get a NaN centroid; callers decide whether
    that is an error or a case for a fallback value.
    """
    mass, m1 = d.edge_stats(edges, order=1)
    empty = mass < ZERO_MASS_TOL
    with np.errstate(invalid="ignore", divide="ignore"):
        centroids = np.where(empty, np.nan, m1) / np.where(empty, 1.0, mass)
    return mass, centroids


def centroid_codebook(p: Partition, d: Distribution) -> Codebook:
    """Per-bin conditional means of ``d`` on the partition ``p``.

    Raises
    ------
    ZeroMassBin
        If ``d`` places no numerical mass on some bin.
    """
    mass, centroids = _bin_centroids(d, p.edges())
    bad = np.flatnonzero(mass < ZERO_MASS_TOL)
    if bad.size:
        raise ZeroMassBin(
            f"bins {bad.tolist()} carry no mass under {d!r}; "
            "no conditional mean exists"
        )
    return Codebook(tuple(centroids))


def _design_distortion(d: Distribution, edges: np.ndarray, codebook: np.ndarray) -> float:
    mass, m1, m2 = d.edge_stats(edges)
    return float(np.sum(m2) - 2.0 * np.dot(codebook, m1) + np.dot(codebook**2, mass))


def _cube_root_quantiles(d: Distribution, q: np.ndarray) -> np.ndarray:
    """Quantiles of the normalized cube-root density ``f^{1/3}``.

    The cube root stretches the tails of the supported families by a factor
    of three in the exponent, so the grid span is widened accordingly before
    building a numerical distribution function.
    """
    lo0 = float(d.ppf(1e-12))
    hi0 = float(d.ppf(1.0 - 1e-12))
    center = 0.5 * (lo0 + hi0)
    grid = np.linspace(
        center - 3.0 * (center - lo0), center + 3.0 * (hi0 - center), 1 << 17
    )
    weight = np.exp(np.asarray(d.log_pdf(grid), dtype=float) / 3.0)
    cdf = np.concatenate(([0.0], np.cumsum((weight[1:] + weight[:-1]) * np.diff(grid))))
    cdf /= cdf[-1]
    return np.interp(q, cdf, grid)


def lloyd_max_design(
    d: Distribution,
    bits: int,
    *,
    max_iters: int = 500,
    tol: float = 1e-10,
    init: str = "quantile",
) -> Quantizer:
    """Design a minimum-MSE scalar quantizer for ``d`` at ``bits`` bits.

    Alternates the two optimality conditions until the codebook is a fixed
    point: thresholds at codeword midpoints, codewords at bin centroids.
    By default the codebook is initialized at the ``(i + 0.5) / N`` quantiles
    of ``d``, which keeps every bin populated for the supported families.

    Parameters
    ----------
    d : Distribution
        Law to design for.
    bits : int
        Bit depth, 1 through 16; the codebook has ``2**bits`` entries.
    max_iters : int
        Iteration cap; the loop usually exits early on ``tol``.
    tol : float
        Convergence threshold on the largest codeword movement.
    init : str
        Initialization scheme.  ``"quantile"`` spreads codewords at the
        design-law quantiles; ``"cube_root"`` uses quantiles of the
        normalized ``f^{1/3}`` density, which matches the high-rate optimal
        point density and converges much faster at large bit depths.

    Returns
    -------
    Quantizer
        The designed quantizer.  Its codebook is exactly the centroid
        codebook of its partition, and ``distortion_history`` holds the
        non-increasing per-iteration design distortion.

    Raises
    ------
    DegenerateDesign
        If some bin loses all design mass during iteration.
    """
    if not isinstance(bits, int) or not 1 <= bits <= 16:
        raise ValueError(f"bits must be an integer in [1, 16], got {bits!r}")
    if init not in ("quantile", "cube_root"):
        raise ValueError(f"unsupported init scheme: {init!r}")
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    n = 1 << bits
    q = (np.arange(n) + 0.5) / n
    if init == "quantile":
        codebook = np.asarray(d.ppf(q), dtype=float)
    else:
        codebook = _cube_root_quantiles(d, q)
    if np.any(np.diff(codebook) <= 0.0):
        raise DegenerateDesign(f"{init} initialization produced coincident codewords")

    history: list[float] = []
    for _ in range(max_iters):
        boundaries = 0.5 * (codebook[:-1] + codebook[1:])
        edges = np.concatenate(([-np.inf], boundaries, [np.inf]))
        mass, centroids = _bin_centroids(d, edges)
        if np.any(mass < ZERO_MASS_TOL):
            bad = np.flatnonzero(mass < ZERO_MASS_TOL).tolist()
            raise DegenerateDesign(f"bins {bad} lost all design mass")
        history.append(_design_distortion(d, edges, centroids))
        delta = float(np.max(np.abs(centroids - codebook)))
        codebook = centroids
        if delta < tol:
            break

    # Final half-step so the returned codebook is exactly the centroid
    # codebook of the returned partition (the midpoint condition then holds
    # within the convergence tolerance).
    boundaries = 0.5 * (codebook[:-1] + codebook[1:])
    edges = np.concatenate(([-np.inf], boundaries, [np.inf]))
    mass, centroids = _bin_centroids(d, edges)
    if np.any(mass < ZERO_MASS_TOL):
        bad = np.flatnonzero(mass < ZERO_MASS_TOL).tolist()
        raise DegenerateDesign(f"bins {bad} lost all design mass")
    history.append(_design_distortion(d, edges, centroids))

    return Quantizer(
        partition=Partition(tuple(boundaries)),
        design_codebook=Codebook(tuple(centroids)),
        design_law=d,
        distortion_history=tuple(history),
    )

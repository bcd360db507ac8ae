"""Shared fixtures: an empty moment-table memo for every test, a recorder of
kernel calls, a ``tracemalloc`` peak, per-component loop references of the
mixture density, distribution function and moments, a double-precision
oracle of the Laplace Lloyd-Max design, and 40-digit ``mpmath`` oracles
(densities, raw interval moments and the Gaussian Lloyd-Max design)."""

import math
import tracemalloc
import types

import numpy as np
import pytest
from scipy import optimize, special

from mismatch_quant import Gaussian, GaussianMixture, Laplace, distributions, quantizer

INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def _component_loop_pdf(mix, x):
    """The mixture density as one term per component, each added in turn onto
    a zero-initialised total; a float for a scalar ``x``."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for w, m, s in mix.components:
        out = out + w * (INV_SQRT_2PI * np.exp(-0.5 * np.square((x - m) / s))) / s
    return out if out.ndim else float(out)


def _component_loop_cdf(mix, x):
    """The mixture distribution function as ``_component_loop_pdf`` forms the
    density."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for w, m, s in mix.components:
        out = out + w * special.ndtr((x - m) / s)
    return out if out.ndim else float(out)


def _component_loop_edge_stats(mix, edges, order):
    """Mixture moments by one kernel call per component, each added in turn
    onto a zero-initialised total: the reference the blocked kernel keeps."""
    out = [np.zeros(len(edges) - 1) for _ in range(order + 1)]
    for w, m, s in mix.components:
        for acc, part in zip(out, Gaussian(m, s).edge_stats(edges, order)):
            acc += w * part
    return tuple(out)


@pytest.fixture(scope="session")
def component_loop():
    """``component_loop.pdf(mix, x)``, ``.cdf(mix, x)`` and
    ``.edge_stats(mix, edges, order)``: a mixture's values summed by a loop
    over its components, the references its blocked evaluation keeps bit for
    bit."""
    return types.SimpleNamespace(
        pdf=_component_loop_pdf, cdf=_component_loop_cdf, edge_stats=_component_loop_edge_stats)


@pytest.fixture
def traced_peak():
    """``traced_peak(fn)``: ``(fn(), peak)``, with ``peak`` the most bytes
    ``tracemalloc`` saw allocated during the call beyond those live before."""

    def run(fn):
        was_tracing = tracemalloc.is_tracing()
        if not was_tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            out = fn()
            return out, tracemalloc.get_traced_memory()[1] - before
        finally:
            if not was_tracing:
                tracemalloc.stop()

    return run


@pytest.fixture(autouse=True)
def _fresh_moment_tables():
    """Start every test with an empty moment-table memo, so a test that counts
    or patches ``edge_stats`` sees the same calls whatever ran before it."""
    quantizer._moment_tables.cache_clear()


@pytest.fixture
def kernel_calls(monkeypatch):
    """``kernel_calls(family)``: a list that records the law of every
    ``family.edge_stats`` call made from then on in the test."""

    def record(family):
        calls = []
        kernel = family.edge_stats

        def counted(self, *args, **kwargs):
            calls.append(self)
            return kernel(self, *args, **kwargs)

        monkeypatch.setattr(family, "edge_stats", counted)
        return calls

    return record


@pytest.fixture
def gaussian_kernel_calls(monkeypatch):
    """``gaussian_kernel_calls()``: a list that gets an entry for every call
    of the Gaussian moment kernel ``distributions._gaussian_edge_stats`` that
    a law's moments or a mixture design make from then on in the test."""

    def record():
        calls = []
        kernel = distributions._gaussian_edge_stats

        def counted(*args, **kwargs):
            calls.append(args[:2])
            return kernel(*args, **kwargs)

        monkeypatch.setattr(distributions, "_gaussian_edge_stats", counted)
        return calls

    return record


@pytest.fixture(scope="session")
def laplace_recursion():
    """``laplace_recursion(bits)``: the Lloyd-Max thresholds of ``Laplace()``
    at ``bits`` bits from the exponential-width recursion (G. J. Sullivan,
    IEEE Trans. IT 42(5), 1996), in double precision.

    The positive half of a Laplace law with scale ``b`` is exponential, so a
    bin ``[s, s + w)`` there has its centroid at ``s + g(w)``, ``g(w) = b -
    w / expm1(w / b)``, whatever ``s`` is.  The midpoint conditions, read
    from the tail inwards, are ``w_1 - g(w_1) = b`` and ``w_k - g(w_k) =
    g(w_{k-1})``; each width is bracketed in ``[y, 2y]`` (``y`` the right
    side, since ``0 < g(w) < w / 2``) and found by ``brentq``.  One width
    sequence serves every bit depth: the ``N / 2 - 1`` positive thresholds
    are the first ``N / 2 - 1`` widths laid out from 0, innermost last.
    Against a 40-digit recursion the thresholds are within 2e-15 at 12 bits.
    """
    b = Laplace().scale
    widths = []

    def g(w):
        x = w / b
        if x < 0.1:
            # b (1 - x / expm1(x)) by its Bernoulli series; the closed form
            # loses digits to cancellation as x -> 0.
            x2 = x * x
            return w * (0.5 - x * (1 / 12 - x2 * (1 / 720 - x2 * (1 / 30240 - x2 / 1209600))))
        return b - w / math.expm1(x)

    def thresholds(bits):
        m = (1 << (bits - 1)) - 1
        y = g(widths[-1]) if widths else b
        while len(widths) < m:
            widths.append(optimize.brentq(lambda w: w - g(w) - y, y, 2.0 * y,
                                          xtol=1e-300, rtol=4 * np.finfo(float).eps))
            y = g(widths[-1])
        pos = np.cumsum(widths[:m][::-1])
        return np.concatenate((-pos[::-1], [0.0], pos))

    return thresholds


@pytest.fixture(scope="session")
def mp_density():
    """``mp_density(d)``: the density of ``d`` as a function of an ``mpf``."""
    mp = pytest.importorskip("mpmath").mp

    def density(d):
        if isinstance(d, Gaussian):
            return lambda x: mp.npdf(x, d.mean, d.std)
        if isinstance(d, Laplace):
            return lambda x: mp.exp(-abs(x - d.loc) / d.scale) / (2 * d.scale)
        if isinstance(d, GaussianMixture):
            return lambda x: mp.fsum(w * mp.npdf(x, m, s) for w, m, s in d.components)
        raise TypeError(type(d).__name__)

    return density


@pytest.fixture(scope="session")
def mp_raw_moment(mp_density):
    """``mp_raw_moment(d, a, b, k)``: ``E[X^k 1{a <= X < b}]`` under ``d`` as
    an ``mpf``, by tanh-sinh quadrature at 40 digits, split at the law's
    centers so each piece is smooth."""
    mp = pytest.importorskip("mpmath").mp

    def raw_moment(d, a, b, k):
        f = mp_density(d)
        with mp.workdps(40):
            cuts = sorted(c for c in d.centers() if a < c < b)
            pts = [mp.mpf(x) for x in (a, *cuts, b)]
            return mp.quad(lambda x: x**k * f(x), pts)

    return raw_moment


@pytest.fixture(scope="session")
def gaussian_mp_design():
    """``gaussian_mp_design(bits)``: the Lloyd-Max thresholds of ``Gaussian()``
    at ``bits`` bits as ``mpf`` values, by Newton's method on the midpoint
    residual over the whole line at 40 digits.

    A bin ``[a, b)`` has mass ``Phi(b) - Phi(a)`` and first moment ``phi(a) -
    phi(b)``.  The residual ``r_i = t_i - (c_i + c_{i+1}) / 2`` has the
    tridiagonal Jacobian ``I - L``, ``L`` from ``dc_i/dt = phi(t) (t - c_i) /
    mass_i`` at each edge of bin ``i``, as in ``bench/oracle.py``; each step
    is halved until the residual falls.  The start is the midpoints of the
    ``(i + 0.5) / N`` quantiles, and the loop stops below a residual of
    1e-35.
    """
    mp = pytest.importorskip("mpmath").mp
    designs = {}

    def residual(t):
        edges = [-mp.inf, *t, mp.inf]
        mass = [mp.ncdf(b) - mp.ncdf(a) for a, b in zip(edges[:-1], edges[1:])]
        dens = [mp.npdf(x) for x in edges]
        c = [(dens[i] - dens[i + 1]) / mass[i] for i in range(len(mass))]
        return [x - (c[i] + c[i + 1]) / 2 for i, x in enumerate(t)], c, mass

    def thresholds(bits):
        if bits in designs:
            return designs[bits]
        n = 1 << bits
        with mp.workdps(40):
            levels = [mp.sqrt(2) * mp.erfinv(2 * (mp.mpf(i) + 0.5) / n - 1) for i in range(n)]
            t = [(a + b) / 2 for a, b in zip(levels[:-1], levels[1:])]
            r, c, mass = residual(t)
            while max(abs(x) for x in r) >= mp.mpf("1e-35"):
                f = [mp.npdf(x) for x in t]
                right = [f[i] * (t[i] - c[i]) / mass[i] / 2 for i in range(n - 1)]
                left = [f[i] * (c[i + 1] - t[i]) / mass[i + 1] / 2 for i in range(n - 1)]
                diag = [1 - right[i] - left[i] for i in range(n - 1)]
                # Thomas elimination with sub-diagonal -left[i - 1] and
                # super-diagonal -right[i + 1] (a dense mp.lu_solve takes
                # seconds at 6 bits).
                dp, rp = [diag[0]], [r[0]]
                for i in range(1, n - 1):
                    w = -left[i - 1] / dp[-1]
                    dp.append(diag[i] + w * right[i])
                    rp.append(r[i] - w * rp[-1])
                step = [rp[-1] / dp[-1]]
                for i in range(n - 3, -1, -1):
                    step.insert(0, (rp[i] + right[i + 1] * step[0]) / dp[i])
                norm, lam = max(abs(x) for x in r), mp.mpf(1)
                while True:
                    trial = [x - lam * s for x, s in zip(t, step)]
                    if all(a < b for a, b in zip(trial, trial[1:])):
                        r2, c2, mass2 = residual(trial)
                        if max(abs(x) for x in r2) < norm:
                            break
                    lam /= 2
                    assert lam > 1e-20, "the Newton line search stalled"
                t, r, c, mass = trial, r2, c2, mass2
        designs[bits] = t
        return t

    return thresholds

"""Shared fixtures: an empty moment-table memo for every test, a recorder of
kernel calls, a double-precision oracle of the Laplace Lloyd-Max design, and
40-digit ``mpmath`` oracles (densities and raw interval moments)."""

import math

import numpy as np
import pytest
from scipy import optimize

from mismatch_quant import Gaussian, GaussianMixture, Laplace, quantizer


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

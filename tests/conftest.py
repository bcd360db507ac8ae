"""Shared 40-digit ``mpmath`` oracle for raw interval moments."""

import pytest

from mismatch_quant import Gaussian, GaussianMixture, Laplace


@pytest.fixture(scope="session")
def mp_raw_moment():
    """``mp_raw_moment(d, a, b, k)``: ``E[X^k 1{a <= X < b}]`` under ``d`` as
    an ``mpf``, by tanh-sinh quadrature at 40 digits, split at the law's
    centers so each piece is smooth."""
    mp = pytest.importorskip("mpmath").mp

    def density(d):
        if isinstance(d, Gaussian):
            return lambda x: mp.npdf(x, d.mean, d.std)
        if isinstance(d, Laplace):
            return lambda x: mp.exp(-abs(x - d.loc) / d.scale) / (2 * d.scale)
        if isinstance(d, GaussianMixture):
            return lambda x: mp.fsum(w * mp.npdf(x, m, s) for w, m, s in d.components)
        raise TypeError(type(d).__name__)

    def raw_moment(d, a, b, k):
        f = density(d)
        with mp.workdps(40):
            cuts = sorted(c for c in d.centers() if a < c < b)
            pts = [mp.mpf(x) for x in (a, *cuts, b)]
            return mp.quad(lambda x: x**k * f(x), pts)

    return raw_moment

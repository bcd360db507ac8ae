"""Shared fixtures: an empty moment-table memo for every test, a recorder of
kernel calls, and 40-digit ``mpmath`` oracles (densities and raw interval
moments)."""

import pytest

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

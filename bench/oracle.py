"""Reference values for the benchmark's fixed outputs, in 40-digit mpmath.

Run from the repository root:

    python3 bench/oracle.py            # rewrites bench/oracle.json

Nothing here uses the package.  Interval moments come from closed forms
evaluated at 50 working digits; every Lloyd-Max design is converged here by
Newton's method on the thresholds (the residual ``t_i - (c_i + c_{i+1})/2``
has a tridiagonal Jacobian), started from companding quantiles or, for
mixtures, from a float Lloyd iteration, until the residual is below 1e-35.
Values are written with 40 significant digits.  ``inputs.py`` supplies the
inputs, so the oracle and the benchmark cannot drift apart.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
from scipy import special

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
import inputs  # noqa: E402

mp.mp.dps = 50
OUT_DIGITS = 40
RESIDUAL_TOL = mp.mpf("1e-35")
INF = mp.inf


def fmt(x) -> str:
    """Grid value as the CLI writes it into its CSV."""
    return format(x, ".17g") if isinstance(x, float) else str(x)


# --- laws -------------------------------------------------------------------

class Gauss:
    """N(mean, std^2); ``partial(n, x)`` is the integral of u^n f(u) up to x."""

    def __init__(self, mean, std):
        self.mean, self.std = mp.mpf(mean), mp.mpf(std)

    def pdf(self, x):
        if mp.isinf(x):
            return mp.mpf(0)
        z = (x - self.mean) / self.std
        return mp.exp(-z * z / 2) / (self.std * mp.sqrt(2 * mp.pi))

    def partials(self, x, top):
        """[integral of u^n f(u) du over (-inf, x] for n = 0..top]."""
        if x == -INF:
            return [mp.mpf(0)] * (top + 1)
        if x == INF:
            std_moments = [mp.mpf(1), 0, 1, 0, 3]
        else:
            z = (x - self.mean) / self.std
            phi = mp.exp(-z * z / 2) / mp.sqrt(2 * mp.pi)
            std_moments = [mp.erfc(-z / mp.sqrt(2)) / 2, -phi]
            for n in range(2, top + 1):
                std_moments.append((n - 1) * std_moments[n - 2] - z ** (n - 1) * phi)
        return [
            mp.fsum(mp.binomial(n, k) * self.mean ** (n - k) * self.std ** k * std_moments[k]
                    for k in range(n + 1))
            for n in range(top + 1)
        ]


class Lap:
    """Laplace(loc, scale), moments up to order 2."""

    def __init__(self, loc, scale):
        self.loc, self.scale = mp.mpf(loc), mp.mpf(scale)

    def pdf(self, x):
        if mp.isinf(x):
            return mp.mpf(0)
        return mp.exp(-abs(x - self.loc) / self.scale) / (2 * self.scale)

    def partials(self, x, top):
        b, m = self.scale, self.loc
        if x == -INF:
            centered = [mp.mpf(0)] * 3
        elif x == INF:
            centered = [mp.mpf(1), mp.mpf(0), 2 * b * b]
        else:
            y = x - m
            if y < 0:
                e = mp.exp(y / b) / 2
                centered = [e, e * (y - b), e * (y * y - 2 * b * y + 2 * b * b)]
            else:
                e = mp.exp(-y / b) / 2
                centered = [1 - e, -e * (y + b), 2 * b * b - e * (y * y + 2 * b * y + 2 * b * b)]
        return [mp.fsum(mp.binomial(n, k) * m ** (n - k) * centered[k] for k in range(n + 1))
                for n in range(top + 1)]


class Mixture:
    def __init__(self, components):
        self.parts = [(mp.mpf(w), Gauss(mu, s)) for w, mu, s in components]

    def pdf(self, x):
        return mp.fsum(w * g.pdf(x) for w, g in self.parts)

    def partials(self, x, top):
        cols = [g.partials(x, top) for _, g in self.parts]
        return [mp.fsum(w * c[n] for (w, _), c in zip(self.parts, cols)) for n in range(top + 1)]


def make_law(rec):
    if rec[0] == "gaussian":
        return Gauss(rec[1], rec[2])
    if rec[0] == "laplace":
        return Lap(rec[1], rec[2])
    return Mixture(rec[1])


def bin_moments(law, thresholds, top=2):
    """Per-bin [M_0, ..., M_top] for bins cut by ``thresholds``."""
    edges = [-INF, *thresholds, INF]
    cum = [law.partials(e, top) for e in edges]
    return [[cum[i + 1][n] - cum[i][n] for n in range(top + 1)] for i in range(len(edges) - 1)]


# --- converged Lloyd-Max design ----------------------------------------------

def _residual(law, t):
    moments = bin_moments(law, t, top=1)
    mass = [m[0] for m in moments]
    c = [m[1] / m[0] for m in moments]
    r = [t[i] - (c[i] + c[i + 1]) / 2 for i in range(len(t))]
    return r, c, mass


def _solve_tridiagonal(sub, diag, sup, rhs):
    n = len(diag)
    cp, dp = [mp.mpf(0)] * n, [mp.mpf(0)] * n
    cp[0], dp[0] = sup[0] / diag[0], rhs[0] / diag[0]
    for i in range(1, n):
        den = diag[i] - sub[i] * cp[i - 1]
        cp[i] = sup[i] / den
        dp[i] = (rhs[i] - sub[i] * dp[i - 1]) / den
    x = [mp.mpf(0)] * n
    x[-1] = dp[-1]
    for i in range(n - 2, -1, -1):
        x[i] = dp[i] - cp[i] * x[i + 1]
    return x


def design(law, t0):
    """Converged thresholds and centroid codebook, started from ``t0``."""
    t = [mp.mpf(x) for x in t0]
    r, c, mass = _residual(law, t)
    for _ in range(200):
        norm = max(abs(x) for x in r)
        if norm < RESIDUAL_TOL:
            return t, c
        f = [law.pdf(x) for x in t]
        k = len(t)
        diag = [1 - (f[i] * (t[i] - c[i]) / mass[i] + f[i] * (c[i + 1] - t[i]) / mass[i + 1]) / 2
                for i in range(k)]
        sub = [mp.mpf(0)] + [-f[i - 1] * (c[i] - t[i - 1]) / mass[i] / 2 for i in range(1, k)]
        sup = [-f[i + 1] * (t[i + 1] - c[i + 1]) / mass[i + 1] / 2 for i in range(k - 1)] \
            + [mp.mpf(0)]
        step = _solve_tridiagonal(sub, diag, sup, r)
        lam = mp.mpf(1)
        while True:
            trial = [x - lam * s for x, s in zip(t, step)]
            if all(a < b for a, b in zip(trial, trial[1:])):
                r2, c2, mass2 = _residual(law, trial)
                if max(abs(x) for x in r2) < norm:
                    break
            lam /= 2
            if lam < mp.mpf("1e-20"):
                raise RuntimeError("Newton line search stalled")
        t, r, c, mass = trial, r2, c2, mass2
    raise RuntimeError("Newton did not converge")


def companding_start(rec, bits):
    """Thresholds at codeword midpoints of the cube-root point density."""
    n = 1 << bits
    q = (np.arange(n) + 0.5) / n
    if rec[0] == "gaussian":
        cb = rec[1] + math.sqrt(3.0) * rec[2] * special.ndtri(q)
    else:
        b = 3.0 * rec[2]
        cb = rec[1] + np.where(q < 0.5, b * np.log(2 * q), -b * np.log(2 * (1 - q)))
    return 0.5 * (cb[:-1] + cb[1:])


def lloyd_start(components, bits, iters=20000):
    """Float Lloyd iteration from the (i + 0.5)/N quantiles of a mixture."""
    w = np.array([c[0] for c in components])
    mu = np.array([c[1] for c in components])
    s = np.array([c[2] for c in components])
    n = 1 << bits
    grid = np.linspace(mu.min() - 14 * s.max(), mu.max() + 14 * s.max(), 400001)
    cdf = (w * special.ndtr((grid[:, None] - mu) / s)).sum(axis=1)
    cb = np.interp((np.arange(n) + 0.5) / n, cdf, grid)
    for _ in range(iters):
        t = 0.5 * (cb[:-1] + cb[1:])
        z = (np.concatenate(([-np.inf], t, [np.inf]))[:, None] - mu) / s
        m0 = (w * special.ndtr(z)).sum(axis=1)
        m1 = (w * (mu * special.ndtr(z) - s * np.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)))
        m1 = np.where(np.isfinite(z), m1, np.where(z > 0, w * mu, 0.0)).sum(axis=1)
        cb = np.diff(m1) / np.diff(m0)
    return 0.5 * (cb[:-1] + cb[1:])


def distortions(design_t, design_c, true_law):
    """(d_fix, d_gen) of a partition and codebook under ``true_law``."""
    moments = bin_moments(true_law, design_t)
    d_fix = mp.fsum(m[2] - 2 * a * m[1] + a * a * m[0] for m, a in zip(moments, design_c))
    d_gen = mp.fsum(m[2] - m[1] * m[1] / m[0] for m in moments)
    return d_fix, d_gen


def optimum(rec, bits, start=None):
    law = make_law(rec)
    t, c = design(law, companding_start(rec, bits) if start is None else start)
    return t, c, distortions(t, c, law)[1]


# --- values per workload ------------------------------------------------------

def cli_defaults() -> dict:
    out = {}
    g01 = ("gaussian", 0.0, 1.0)
    lap = ("laplace", 0.0, inputs.SQRT_HALF)
    for bits in inputs.CLI_BITS:
        t, c, d_star = optimum(g01, bits)
        _, _, d_lap = optimum(lap, bits)
        rows = {}
        for mu in inputs.ORACLE_MU1:
            fix, gen = distortions(t, c, Gauss(mu, 1.0))
            rows[f"mean_sweep|{fmt(mu)}"] = (fix, gen, d_star)
        for k in inputs.ORACLE_SIGMA1_EXPONENTS:
            sigma = 2.0 ** (k / 2.0)
            fix, gen = distortions(t, c, Gauss(0.0, sigma))
            rows[f"variance_sweep|{fmt(sigma)}"] = (fix, gen, mp.mpf(sigma) ** 2 * d_star)
        fix, gen = distortions(t, c, make_law(lap))
        rows["laplace_table"] = (fix, gen, d_lap)
        rows["single_report"] = (d_star, d_star, d_star)
        for prefix, (fix, gen, ideal) in rows.items():
            for col, v in (("d_fix", fix), ("d_gen", gen), ("d_ideal", ideal)):
                out[f"{prefix}|{bits}|{col}"] = v
        fix, gen = distortions(t, c, Gauss(0.0, 2.0))
        pd = mp.sqrt(3) * mp.pi * 4 / (2 * mp.mpf(1 << bits) ** 2)
        for col, v in (("d_fix", fix), ("d_gen", gen), ("d_ideal_pd", pd)):
            out[f"rate_recovery|{bits}|{col}"] = v
    k_d = 3.0
    for k_t in (0.0, 1.0, 2.0, 3.0, 6.0, 10.0, 50.0, 200.0):
        out[f"rician_csi|{fmt(k_t)}|phi_t"] = phi(k_t)
        out[f"rician_csi|{fmt(k_t)}|eta_pct"] = eta(k_t, k_d)
    out.update(semantic())
    return {"values": out}


def _semantic_classes(count, n_classes=10, spacing=1.0, std=0.5):
    offset = 0.5 * (n_classes - 1) * spacing
    return [(1.0 / count, y * spacing - offset, std) for y in range(count)]


def _joint(classes, t):
    return [[w * m[0] for m in bin_moments(Gauss(mu, s), t, top=0)] for w, mu, s in classes]


def _labels(joint, tie_tol=mp.mpf("1e-12")):
    """Argmax class per bin; ``None`` if the top two are within ``tie_tol``."""
    labels = []
    for i in range(len(joint[0])):
        col = [row[i] for row in joint]
        best = max(range(len(col)), key=lambda y: (col[y], -y))
        runner = max((col[y] for y in range(len(col)) if y != best), default=mp.mpf(0))
        if col[best] - runner <= tie_tol * col[best]:
            return None
        labels.append(best)
    return labels


def semantic() -> dict:
    out = {}
    design_classes = _semantic_classes(10)
    for bits in inputs.CLI_BITS:
        t, _ = design(Mixture(design_classes), lloyd_start(design_classes, bits))
        for k in inputs.ORACLE_SEMANTIC_K:
            true_classes = _semantic_classes(k)
            joint_true = _joint(true_classes, t)
            fix = _labels(_joint(design_classes, t))
            gen = _labels(joint_true)
            t_ideal, _ = design(Mixture(true_classes), lloyd_start(true_classes, bits))
            joint_ideal = _joint(true_classes, t_ideal)
            ideal = _labels(joint_ideal)
            if None in (fix, gen, ideal):
                print(f"semantic k={k} bits={bits}: near tie, left out", file=sys.stderr)
                continue
            acc = {
                "acc_fix": mp.fsum(joint_true[y][i] for i, y in enumerate(fix) if y < k),
                "acc_gen": mp.fsum(joint_true[y][i] for i, y in enumerate(gen)),
                "acc_ideal": mp.fsum(joint_ideal[y][i] for i, y in enumerate(ideal)),
            }
            for col, v in acc.items():
                out[f"semantic_mixture|{k}|{bits}|{col}"] = v
    return out


def rician_moments(k_factor):
    """M_2, M_3, M_4 of N(sqrt(K/(K+1)), 1/(K+1)) conditioned on x > 0."""
    k = mp.mpf(k_factor)
    g = Gauss(mp.sqrt(k / (k + 1)), mp.sqrt(1 / (k + 1)))
    lo, hi = g.partials(mp.mpf(0), 4), g.partials(INF, 4)
    mass = hi[0] - lo[0]
    return [(hi[n] - lo[n]) / mass for n in (2, 3, 4)]


def phi(k_factor):
    m2, m3, _ = rician_moments(k_factor)
    return m3 / m2


def eta(k_true, k_design):
    m2, m3, m4 = rician_moments(k_true)

    def loss(a):
        return m4 - 2 * a * m3 + a * a * m2

    return 100 * (1 - loss(phi(k_true)) / loss(phi(k_design)))


def high_rate() -> dict:
    out = {}
    for name, design_rec, true_rec, bits_list in inputs.HIGH_RATE_FIXED:
        true_law = make_law(true_rec)
        for bits in bits_list:
            t, c, _ = optimum(design_rec, bits)
            fix, gen = distortions(t, c, true_law)
            n2 = mp.mpf(1 << bits) ** 2
            if true_rec[0] == "gaussian":
                pd = mp.sqrt(3) * mp.pi * mp.mpf(true_rec[2]) ** 2 / (2 * n2)
            else:
                pd = 9 * mp.mpf(true_rec[2]) ** 2 / n2
            for col, v in (("d_fix", fix), ("d_gen", gen), ("d_ideal_pd", pd)):
                out[f"high_rate|{name}|{bits}|{col}"] = v
            print(f"high_rate {name} {bits} bits done", file=sys.stderr)
    return {"values": out}


def decode_tasks() -> dict:
    values, labels = {}, {}
    fixed = inputs.DECODE_FIXED
    cfg = fixed["channel"]
    true_law = make_law(cfg["true"])
    for bits in cfg["bits"]:
        t, design_cb = inputs.gaussian_quantile_partition(*cfg["design"], bits)
        m = bin_moments(true_law, [mp.mpf(x) for x in t])
        n = len(m)
        gen = [mi[1] / mi[0] for mi in m]
        hamming = [[bin(i ^ j).count("1") for j in range(n)] for i in range(n)]
        for eps in cfg["eps"]:
            e = mp.mpf(eps)
            power = [e ** h * (1 - e) ** (bits - h) for h in range(bits + 1)]
            p = [[power[hamming[i][j]] for j in range(n)] for i in range(n)]
            soft = [mp.fsum(p[i][j] * m[i][1] for i in range(n))
                    / mp.fsum(p[i][j] * m[i][0] for i in range(n)) for j in range(n)]
            prefix = f"decode|{bits}|{eps!r}"
            for j, v in enumerate(soft):
                values[f"{prefix}|soft|{j}"] = v
            for label, table in (("std", [mp.mpf(x) for x in design_cb]), ("hard", gen),
                                 ("soft", soft)):
                mean_a = [mp.fsum(p[i][j] * table[j] for j in range(n)) for i in range(n)]
                mean_a2 = [mp.fsum(p[i][j] * table[j] ** 2 for j in range(n)) for i in range(n)]
                values[f"{prefix}|noisy_{label}"] = mp.fsum(
                    m[i][2] - 2 * m[i][1] * mean_a[i] + m[i][0] * mean_a2[i] for i in range(n))
        print(f"decode channel {bits} bits done", file=sys.stderr)

    cfg = fixed["task"]
    true_law = make_law(cfg["true"])
    for bits in inputs.TASK_BITS:
        t, _ = inputs.gaussian_quantile_partition(*cfg["design"], bits)
        for j, mj in enumerate(bin_moments(true_law, [mp.mpf(x) for x in t], top=4)):
            values[f"decode|task|{bits}|{j}"] = mj[3] / mj[2]

    for k in fixed["rician_k"]:
        for n, v in zip((2, 3, 4), rician_moments(k)):
            values[f"decode|rician|{k!r}|{n}"] = v
        for kd in inputs.RICIAN_K_DESIGN:
            values[f"decode|eta|{k!r}|{kd!r}"] = eta(k, kd)

    cfg = fixed["labels"]
    classes = [(w, mu, s) for _, w, mu, s in cfg["classes"]]
    names = [c[0] for c in cfg["classes"]]
    for bits in inputs.LABEL_BITS:
        t, _ = inputs.gaussian_quantile_partition(*cfg["design"], bits)
        best = _labels(_joint(classes, [mp.mpf(x) for x in t]))
        if best is None:
            print(f"labels {bits} bits: near tie, left out", file=sys.stderr)
            continue
        labels[f"decode|labels|{bits}"] = ",".join(names[y] for y in best)
    return {"values": values, "labels": labels}


def main() -> int:
    result = {
        "cli_defaults": cli_defaults(),
        "high_rate": high_rate(),
        "decode_tasks": decode_tasks(),
    }
    for block in result.values():
        block["values"] = {k: mp.nstr(v, OUT_DIGITS) for k, v in block["values"].items()}
    result["about"] = (f"written by bench/oracle.py: mpmath {mp.__version__}, "
                       f"{mp.mp.dps} working digits, {OUT_DIGITS} printed")
    with open(BENCH / "oracle.json", "w") as fh:
        json.dump(result, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

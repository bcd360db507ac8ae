"""End-to-end acceptance checks, one test per numbered claim.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per claim.  Each test prints its measured numbers before asserting, so a
failing line carries the evidence with it.

Four claims are currently red, all for substantive reasons rather than
bugs; the printed details say what was measured instead:

* c01: the converged 4-bit redesign for the Laplace source reaches a 46.7%
  ideal gain; the 41.87% reference value matches an under-converged
  iterate of the same design loop (near iteration 38 of the quantile
  start), not its fixed point.
* c03: the mean-drift window [55%, 65%] only contains the 1-bit gain at
  drift 2; gains at 2..4 bits fall with bit depth (48.0%, 35.7%, 26.9%).
* c06: with a 2x scale mismatch the overload (outer-bin) term dominates
  the adapted distortion at every bit depth, the Lloyd support keeps
  growing with rate, and the adapted decoder decays with slope -0.89
  rather than re-entering an N^-2 regime; the fixed/adapted ratio at 12
  bits is 1.58, not above 10.
* c07: d_std - d_hard = (2/pi)(s0 - s1)(s0 - s1(1 - 4 eps)) changes sign
  inside the tested grid, so the strict ordering d_std > d_hard cannot
  hold at eps >= 0.2 for s1/s0 in {2, 4}.
"""

import math
import time

import numpy as np

from mismatch_quant import (
    Codebook,
    Gaussian,
    GaussianMixture,
    Laplace,
    NoisyDecoder,
    bsc_channel,
    eta,
    expected_distortion,
    fit_decay_slope,
    generative_codebook,
    index_posterior,
    lloyd_max_design,
    make_noisy_decoder,
    noisy_distortion,
    one_bit_quantizer,
    rate_recovery_sweep,
    report,
    rician_moment,
    soft_codebook,
    strategy_report,
)
from mismatch_quant.cli import ExperimentConfig, _run_semantic_mixture
from mismatch_quant.distributions import _anchored

SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def _check(ok: bool, detail: str) -> None:
    print(detail)
    assert ok, detail


def test_c01_laplace_reference_table():
    """Gaussian design, unit-variance Laplace truth, 1..4 bits: adapted and
    redesigned gains against the reference table, +/- 0.3 points."""
    t0 = time.perf_counter()
    lap = Laplace(0.0, math.sqrt(0.5))
    gen_targets = (1.65, 6.09, 11.01, 16.74)
    ideal_targets = (1.65, 7.84, 24.78, 41.87)
    gen_gains, ideal_gains = [], []
    for bits in (1, 2, 3, 4):
        r = report(Gaussian(0, 1), lap, bits)
        gen_gains.append(r.relative_gain_pct)
        ideal_gains.append(r.ideal_gain_pct)
    elapsed = time.perf_counter() - t0
    gen_errs = [abs(g - t) for g, t in zip(gen_gains, gen_targets)]
    ideal_errs = [abs(g - t) for g, t in zip(ideal_gains, ideal_targets)]
    ok = max(gen_errs) <= 0.3 and max(ideal_errs) <= 0.3 and elapsed < 10.0
    _check(ok, (
        "c01 laplace table ({:.1f}s): gen gains {} vs {} (max err {:.3f}); "
        "ideal gains {} vs {} (max err {:.3f}); the 4-bit redesign converges "
        "to {:.2f}% and only an under-converged iterate matches 41.87".format(
            elapsed,
            [round(g, 4) for g in gen_gains], list(gen_targets), max(gen_errs),
            [round(g, 4) for g in ideal_gains], list(ideal_targets),
            max(ideal_errs), ideal_gains[-1])
    ))


def test_c02_variance_mismatch_asymptote():
    """1-bit gain under growing scale mismatch approaches 2/pi of the
    distortion, 63.66%, monotonically; within 0.5 points at sigma1=1000."""
    t0 = time.perf_counter()
    gains = [report(Gaussian(0, 1), Gaussian(0, s), 1).relative_gain_pct
             for s in (10.0, 100.0, 1000.0)]
    elapsed = time.perf_counter() - t0
    asymptote = 100.0 * 2.0 / math.pi
    ok = (gains[0] < gains[1] < gains[2] < asymptote
          and abs(gains[2] - asymptote) <= 0.5
          and elapsed < 1.0)
    _check(ok, "c02 variance asymptote ({:.2f}s): gains {} -> {:.4f}".format(
        elapsed, [round(g, 4) for g in gains], asymptote))


def test_c03_mean_drift_curve():
    """Mean drift at fixed unit scale: zero gain at zero drift, exact
    symmetry, and the claimed [55%, 65%] window at drift +/-2 for 1..4 bits."""
    zero_ok = True
    sym_worst = 0.0
    window = {}
    for bits in (1, 2, 3, 4):
        g0 = report(Gaussian(0, 1), Gaussian(0.0, 1.0), bits).relative_gain_pct
        gp = report(Gaussian(0, 1), Gaussian(2.0, 1.0), bits).relative_gain_pct
        gm = report(Gaussian(0, 1), Gaussian(-2.0, 1.0), bits).relative_gain_pct
        zero_ok = zero_ok and abs(g0) <= 1e-9
        sym_worst = max(sym_worst, abs(gp - gm))
        window[bits] = gp
    window_ok = all(55.0 <= g <= 65.0 for g in window.values())
    ok = zero_ok and sym_worst <= 1e-9 and window_ok
    _check(ok, (
        "c03 mean drift: gain(0)=0 {}, symmetry err {:.1e}, gain(+/-2) by "
        "bits {}; only the 1-bit point sits inside [55, 65]".format(
            zero_ok, sym_worst, {b: round(g, 4) for b, g in window.items()})
    ))


def test_c04_one_bit_adaptation_is_ideal():
    """For a zero-mean Gaussian scale mismatch at 1 bit, moving the two
    codewords to conditional means equals a full redesign exactly."""
    worst_gap = 0.0
    min_excess = math.inf
    for s1 in (0.5, 1.5, 2.0, 3.0):
        r = report(Gaussian(0, 1), Gaussian(0, s1), 1)
        worst_gap = max(worst_gap, abs(r.d_gen - r.d_ideal))
        min_excess = min(min_excess, r.excess)
    ok = worst_gap < 1e-10 and min_excess > 0.0
    _check(ok, "c04 one-bit exactness: max |d_gen - d_ideal| = {:.3e}, "
               "min excess = {:.3e}".format(worst_gap, min_excess))


def test_c05_distortion_hierarchy():
    """500 random (design, true, bits<=6) setups: redesign <= adapted <=
    fixed, with no violation beyond 1e-9.  The Lloyd budget is raised so
    solver convergence cannot masquerade as a hierarchy violation."""
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(500):
        bits = int(rng.integers(1, 7))
        if rng.random() < 0.3:
            w = float(rng.uniform(0.2, 0.8))
            design = GaussianMixture((
                (w, float(rng.uniform(-2, 2)), float(rng.uniform(0.5, 2))),
                (1 - w, float(rng.uniform(-2, 2)), float(rng.uniform(0.5, 2)))))
        else:
            design = Gaussian(float(rng.uniform(-2, 2)), float(rng.uniform(0.3, 3)))
        if rng.random() < 0.3:
            true_d = Laplace(float(rng.uniform(-2, 2)), float(rng.uniform(0.3, 2)))
        else:
            true_d = Gaussian(float(rng.uniform(-2, 2)), float(rng.uniform(0.3, 3)))
        r = report(design, true_d, bits, max_iters=2000, init="cube_root")
        worst = max(worst, r.d_ideal - r.d_gen, r.d_gen - r.d_fix)
    ok = worst <= 1e-9
    _check(ok, f"c05 hierarchy over 500 configs: worst violation {worst:.3e}")


def test_c06_rate_recovery_slope():
    """Design N(0,1), truth N(0,2), 2..12 bits: claimed slope of the
    adapted distortion in [-2.2, -1.8] over the last 4 points and a >10x
    fixed/adapted ratio at 12 bits."""
    reps = rate_recovery_sweep(Gaussian(0, 1), Gaussian(0, 2), range(2, 13),
                               max_iters=5000, init="cube_root")
    bits_seq = [r.bits for r in reps]
    slope = fit_decay_slope(bits_seq, [r.d_total_gen for r in reps])
    last = reps[-1]
    factor = last.d_total_fix / last.d_total_gen
    overload_share = last.d_overload_gen / last.d_total_gen
    ok = -2.2 <= slope <= -1.8 and factor > 10.0
    _check(ok, (
        "c06 rate recovery: slope {:.4f} (claimed [-2.2, -1.8]), 12-bit "
        "fix/gen factor {:.3f} (claimed > 10); overload carries {:.1%} of "
        "the adapted distortion at 12 bits, and the design support keeps "
        "widening with rate, so no N^-2 re-entry occurs".format(
            slope, factor, overload_share)
    ))


def test_c07_bsc_strategy_ordering():
    """Three decoders through a binary symmetric channel: the hard-vs-soft
    gap identity, then the claimed strict ordering over the grid."""
    s0, s1, eps = 1.0, 2.0, 0.1
    rep = strategy_report(s0, s1, eps)
    q = one_bit_quantizer(0.0, s0)
    ch = bsc_channel(1, eps)
    true_d = Gaussian(0, s1)
    d_hard = noisy_distortion(q.partition, ch,
                              make_noisy_decoder("hard_generative", q, true_d),
                              true_d)
    d_opt = noisy_distortion(q.partition, ch,
                             make_noisy_decoder("soft_generative", q, true_d, ch),
                             true_d)
    identity_err = abs((d_hard - d_opt) - 4.0 * eps**2 * s1**2 * (2.0 / math.pi))
    closed_err = max(abs(d_hard - rep.d_hard), abs(d_opt - rep.d_opt))

    violations = []
    for e in (0.01, 0.05, 0.1, 0.2, 0.3, 0.4):
        for ratio in (0.5, 2.0, 4.0):
            r = strategy_report(1.0, ratio, e)
            if not (r.d_std > r.d_hard > r.d_opt):
                violations.append((e, ratio, round(r.source_bias_gap, 6)))
    ok = identity_err < 1e-10 and closed_err < 1e-10 and not violations
    _check(ok, (
        "c07 bsc ordering: gap identity err {:.2e}, closed-form err {:.2e}; "
        "d_hard > d_opt holds at all 18 grid points but d_std > d_hard "
        "fails at {} (eps, sigma ratio, d_std - d_hard), because the gap "
        "(2/pi)(s0 - s1)(s0 - s1(1 - 4 eps)) changes sign inside the "
        "grid".format(identity_err, closed_err, violations)
    ))


def test_c08_soft_codebook_shrinkage():
    """1-bit soft reconstruction equals +/-(1 - 2 eps) sigma1 sqrt(2/pi)
    and collapses to the prior mean at eps = 1/2."""
    s1 = 2.0
    q = one_bit_quantizer(0.0, 1.0)
    worst = 0.0
    for eps in (0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5):
        sc = soft_codebook(q.partition, Gaussian(0, s1), bsc_channel(1, eps))
        want = (1.0 - 2.0 * eps) * s1 * SQRT_2_OVER_PI
        worst = max(worst, abs(sc.values[0] + want), abs(sc.values[1] - want))
    collapsed = soft_codebook(q.partition, Gaussian(0, s1), bsc_channel(1, 0.5))
    collapse_err = max(abs(v) for v in collapsed.values)
    ok = worst <= 1e-12 and collapse_err <= 1e-12
    _check(ok, "c08 soft shrinkage: worst table error {:.2e}, eps=0.5 "
               "collapse error {:.2e}".format(worst, collapse_err))


def test_c09_rician_task_calibration():
    """Fading-amplitude moment anchors at K=0, then the stale-model task
    savings: in-window at (0, 3) and (6, 3), rising toward 100% beyond."""
    anchor_err = max(abs(rician_moment(0.0, 2) - 1.0),
                     abs(rician_moment(0.0, 3) - 2.0 * SQRT_2_OVER_PI),
                     abs(rician_moment(0.0, 4) - 3.0))
    eta_0 = eta(0.0, 3.0)
    eta_6 = eta(6.0, 3.0)
    tail = [eta(k, 3.0) for k in (10.0, 50.0, 200.0)]
    ok = (anchor_err <= 1e-6
          and 15.0 <= eta_0 <= 21.0
          and 5.0 <= eta_6 <= 11.0
          and tail[0] < tail[1] < tail[2] < 100.0)
    _check(ok, (
        "c09 rician calibration: anchor err {:.2e}, eta(0,3)={:.4f}, "
        "eta(6,3)={:.4f}, tail {}".format(
            anchor_err, eta_0, eta_6, [round(v, 4) for v in tail])
    ))


def test_c10_property_battery():
    """Optimality perturbations, posterior normalization, the law of total
    expectation, and a 10^7-sample Monte Carlo cross-check within 5 SE."""
    # conditional-mean tables are local minima in every coordinate
    q = lloyd_max_design(Gaussian(0, 1), 2)
    true_d = Laplace(0.3, 1.0)
    gen = generative_codebook(q.partition, true_d)
    base = expected_distortion(q.partition, gen, true_d)
    perturb_ok = True
    for i in range(4):
        for delta in (-1e-3, 1e-3):
            bumped = gen.as_array().copy()
            bumped[i] += delta
            perturb_ok = perturb_ok and expected_distortion(
                q.partition, Codebook(tuple(bumped)), true_d) >= base

    ch = bsc_channel(2, 0.1)
    soft = make_noisy_decoder("soft_generative", q, true_d, ch)
    noisy_base = noisy_distortion(q.partition, ch, soft, true_d)
    for i in range(4):
        for delta in (-1e-3, 1e-3):
            bumped = soft.table.as_array().copy()
            bumped[i] += delta
            cand = NoisyDecoder(strategy="soft_generative",
                                table=Codebook(tuple(bumped)))
            perturb_ok = perturb_ok and noisy_distortion(
                q.partition, ch, cand, true_d) >= noisy_base

    posterior_err = max(
        abs(index_posterior(ch, [0.1, 0.2, 0.3, 0.4], j).sum() - 1.0)
        for j in range(4))

    e, mass, m1, _ = _anchored(true_d, q.partition.edges())
    total_exp_err = abs(float(np.sum(e * mass + m1)) - 0.3)

    t0 = time.perf_counter()
    r = report(Gaussian(0, 1), Gaussian(0.5, 1.3), 3,
               mc_samples=10_000_000, seed=7)
    mc_time = time.perf_counter() - t0
    mc_ok = (abs(r.d_fix_mc - r.d_fix) < 5 * r.mc_stderr
             and abs(r.d_gen_mc - r.d_gen) < 5 * r.mc_stderr)

    ok = (perturb_ok and posterior_err <= 1e-12 and total_exp_err <= 1e-12
          and mc_ok)
    _check(ok, (
        "c10 property battery: perturbation {}, posterior err {:.1e}, "
        "total-expectation err {:.1e}, 1e7-sample MC gap fix {:.2e} gen "
        "{:.2e} vs 5*SE {:.2e} ({:.1f}s)".format(
            perturb_ok, posterior_err, total_exp_err,
            abs(r.d_fix_mc - r.d_fix), abs(r.d_gen_mc - r.d_gen),
            5 * r.mc_stderr, mc_time)
    ))


def test_c11_semantic_relabeling():
    """Labeled-mixture experiment: relabeling for the true class mix never
    hurts, is exact for a single surviving class, and has nothing to
    recover when the mix is unchanged."""
    header, rows = _run_semantic_mixture(ExperimentConfig(
        experiment="semantic_mixture"))
    assert header == ["k", "bits", "acc_fix", "acc_gen", "acc_ideal",
                      "recovery_pct"]
    m = 10
    gen_ok = all(row[3] >= row[2] - 1e-12 for row in rows if row[0] < m)
    full_rows = [row for row in rows if row[0] == m]
    full_ok = all(row[5] is None and abs(row[2] - row[3]) <= 1e-12
                  for row in full_rows)
    single_ok = all(abs(row[3] - 1.0) <= 1e-9 for row in rows if row[0] == 1)
    ok = gen_ok and full_ok and single_ok and len(rows) == 40
    sample = {(row[0], row[1]): (round(row[2], 4), round(row[3], 4))
              for row in rows if row[0] in (1, m) and row[1] == 4}
    _check(ok, (
        "c11 semantic relabeling over {} grid points: acc_gen >= acc_fix "
        "for k < {} is {}, k = {} leaves recovery undefined {}, single "
        "class exact {}; (k, bits=4) -> (acc_fix, acc_gen) sample {}".format(
            len(rows), m, gen_ok, m, full_ok, single_ok, sample)
    ))

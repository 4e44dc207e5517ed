"""End-to-end acceptance criteria.

Each test prints one `[criterion N] PASS/FAIL` line (to the real stdout,
so it shows up even under capture) and then asserts. Tolerances and
runtime budgets are stated inline next to each check.

Criterion 5 is expected to fail: it pins the sign frequency of the
asymmetric fixture (kappa_- = 1, kappa_+ = 2) near the value obtained by
splitting the angular mass evenly between the sides. The mixture weight
of a side with the strictly larger Gamma exponent is 0, not 1/2: for
this fixture the plus side has exponent (1+0)/2 = 1/2 against 1 on the
minus side and therefore carries all of the limit mass. Quadrature puts
the true frequency at x = 100 near 0.899, far outside the stated band
around 0.4698. The implementation follows the mathematics; the test
reports the discrepancy honestly instead of being tuned to pass.
"""

import math
import time

import numpy as np
import pytest
from scipy import special

from polartail import (
    Condition,
    LimitLaw,
    LimitSide,
    bivariate_normalized,
    convergence_report,
    corollary_case,
    density,
    empirical_sign_freq,
    ks_two_sample,
    pushforward_corollary,
    sample,
    sample_conditional,
    tail_asymptotic,
    tail_probability_quadrature,
)
from polartail.cli import main as cli_main

from conftest import density_normalization, normalization_support


def _report(capfd, num, ok, detail):
    # fd-level capture would swallow a plain print even for the real
    # stdout, so step outside it: the verdict line must always be visible
    with capfd.disabled():
        print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} {detail}", flush=True)


def test_criterion_1_tail_ratio_drifts_to_one(f1_model, capfd):
    start = time.monotonic()
    grid = (10.0, 25.0, 50.0, 100.0)
    errs = []
    for x in grid:
        quad = tail_probability_quadrature(f1_model, x, Condition.RIGHT_SIDED)
        errs.append(abs(quad.value / tail_asymptotic(f1_model, x) - 1.0))
    elapsed = time.monotonic() - start
    decreasing = all(a > b for a, b in zip(errs, errs[1:]))
    ok = decreasing and errs[-1] <= 0.05 and elapsed < 10.0
    _report(
        capfd,
        1,
        ok,
        f"|ratio-1| {errs[0]:.4f} -> {errs[-1]:.4f} over x={list(map(int, grid))}, "
        f"final <= 0.05, {elapsed:.1f}s < 10s",
    )
    assert decreasing, errs
    assert errs[-1] <= 0.05
    assert elapsed < 10.0


def test_criterion_2_limit_density_normalizations(capfd):
    start = time.monotonic()
    worst = 0.0
    cases = 0
    for kappa in (0.5, 1.0, 2.0):
        for tau in (-0.5, 0.0, 1.0):
            law = LimitLaw(LimitSide(kappa=kappa, tau=tau))
            res = density_normalization(
                lambda r, t: density(law, r, t),
                normalization_support(law),
            )
            worst = max(worst, abs(res.value - 1.0))
            cases += 1
    two_sided = (
        LimitLaw(LimitSide(2.0, 0.0), LimitSide(2.0, 0.0), p_minus=0.5, p_plus=0.5),
        LimitLaw(LimitSide(2.0, 0.0), LimitSide(1.0, 0.0), p_minus=0.0, p_plus=1.0),
        LimitLaw(LimitSide(2.0, 0.0), LimitSide(1.0, 0.0), p_minus=0.5, p_plus=0.5),
    )
    for law in two_sided:
        res = density_normalization(
            lambda r, t: density(law, r, t),
            normalization_support(law),
        )
        worst = max(worst, abs(res.value - 1.0))
        cases += 1
    elapsed = time.monotonic() - start
    ok = cases == 12 and worst <= 1e-6 and elapsed < 30.0
    _report(
        capfd,
        2,
        ok,
        f"12 normalizations, worst |integral-1| {worst:.2e} <= 1e-6, "
        f"{elapsed:.1f}s < 30s",
    )
    assert cases == 12
    assert worst <= 1e-6
    assert elapsed < 30.0


def test_criterion_3_exact_sampler_against_classical_laws(capfd):
    start = time.monotonic()
    n = 100_000
    crit = 1.628 / math.sqrt(n)  # asymptotic alpha = 0.01 KS critical value
    worst_ks = 0.0
    worst_corr = 0.0
    for seed, (kappa, tau) in enumerate(((2.0, 0.0), (1.0, 1.0), (0.5, -0.5))):
        law = LimitLaw(LimitSide(kappa=kappa, tau=tau))
        r, t = sample(law, n, seed=100 + seed)
        g = np.sort(t**kappa)
        shape = (1.0 + tau) / kappa
        grid = np.arange(1, n + 1) / n
        cdf = special.gammainc(shape, g)
        d_gamma = np.max(np.maximum(grid - cdf, cdf - (grid - 1.0 / n)))
        e = np.sort(r - t**kappa)
        cdf_e = 1.0 - np.exp(-e)
        d_exp = np.max(np.maximum(grid - cdf_e, cdf_e - (grid - 1.0 / n)))
        corr = abs(float(np.corrcoef(r - t**kappa, t)[0, 1]))
        worst_ks = max(worst_ks, d_gamma, d_exp)
        worst_corr = max(worst_corr, corr)
    elapsed = time.monotonic() - start
    ok = worst_ks < crit and worst_corr <= 3.0 / math.sqrt(n) and elapsed < 10.0
    _report(
        capfd,
        3,
        ok,
        f"worst KS {worst_ks:.5f} < {crit:.5f}, worst |corr| {worst_corr:.5f} "
        f"<= {3.0 / math.sqrt(n):.5f}, n=1e5, {elapsed:.1f}s < 10s",
    )
    assert worst_ks < crit
    assert worst_corr <= 3.0 / math.sqrt(n)
    assert elapsed < 10.0


def test_criterion_4_conditional_marginals_converge(f1_model, capfd):
    start = time.monotonic()
    noise = 0.01
    report = convergence_report(
        f1_model, (10.0, 25.0, 50.0, 100.0), 50_000, seed=404, noise=noise
    )
    ks_r = [row.ks_r for row in report.rows]
    ks_t = [row.ks_t for row in report.rows]
    elapsed = time.monotonic() - start
    dec_r = all(b <= a + noise for a, b in zip(ks_r, ks_r[1:]))
    dec_t = all(b <= a + noise for a, b in zip(ks_t, ks_t[1:]))
    final_ok = ks_r[-1] <= 0.03 and ks_t[-1] <= 0.03
    ok = dec_r and dec_t and final_ok and elapsed < 120.0
    _report(
        capfd,
        4,
        ok,
        f"KS_r {ks_r[0]:.4f} -> {ks_r[-1]:.4f}, KS_t {ks_t[0]:.4f} -> "
        f"{ks_t[-1]:.4f}, final <= 0.03, n=5e4, {elapsed:.1f}s < 120s",
    )
    assert dec_r and dec_t, (ks_r, ks_t)
    assert final_ok, (ks_r[-1], ks_t[-1])
    assert report.ks_r_decreasing and report.ks_t_decreasing
    assert elapsed < 120.0


def test_criterion_5_sign_frequency_of_asymmetric_fixture(asym_model, capfd):
    start = time.monotonic()
    n = 20_000
    target = 0.469842  # even split of the angular mass between the sides
    _, freq_plus = empirical_sign_freq(asym_model, 100.0, n, seed=505)
    elapsed = time.monotonic() - start
    sigma = math.sqrt(target * (1.0 - target) / n)
    band = 3.0 * sigma + 0.02
    dev = abs(freq_plus - target)
    ok = dev <= band and elapsed < 60.0
    _report(
        capfd,
        5,
        ok,
        f"freq_plus {freq_plus:.4f} vs {target} +- {band:.4f} "
        f"(quadrature truth 0.8994: the dominant side takes all limit mass), "
        f"n=2e4, {elapsed:.1f}s < 60s",
    )
    assert elapsed < 60.0
    assert dev <= band, (
        f"sign frequency {freq_plus:.6f} is {dev:.4f} from the pinned value "
        f"{target}; the faithful mixture limit for unequal Gamma exponents "
        f"is one-sided, so this band cannot be met by a correct implementation"
    )


def test_criterion_6_seifert_identity_exact(seifert_model, capfd):
    start = time.monotonic()
    s = sample_conditional(
        seifert_model, 50.0, 20_000, Condition.RIGHT_SIDED, seed=606
    )
    _, second = bivariate_normalized(seifert_model, "seifert", s)
    expected = (s.t - seifert_model.t0) / s.normalizers.phi_plus
    gap = float(np.max(np.abs(second - expected)))
    elapsed = time.monotonic() - start
    ok = gap <= 1e-12 and elapsed < 10.0
    _report(
        capfd,
        6,
        ok,
        f"max |second - (T-t0)/phi| = {gap:.2e} <= 1e-12 over n=2e4, "
        f"{elapsed:.1f}s < 10s",
    )
    assert gap <= 1e-12
    assert elapsed < 10.0


def test_criterion_7_fs_pushforward_matches_monte_carlo(sine_model, capfd):
    start = time.monotonic()
    n = 50_000
    x = 100.0
    s = sample_conditional(sine_model, x, n, Condition.RIGHT_SIDED, seed=707)
    case = corollary_case(sine_model, "fs")
    _, mc_second = bivariate_normalized(sine_model, "fs", s)
    law = LimitLaw(LimitSide(kappa=2.0, tau=0.0))
    r, t = sample(law, n, seed=708)
    _, limit_second = pushforward_corollary(case, r, t)
    stat, _ = ks_two_sample(mc_second, limit_second)
    elapsed = time.monotonic() - start
    ok = stat <= 0.03 and elapsed < 120.0
    _report(
        capfd,
        7,
        ok,
        f"two-sample KS {stat:.4f} <= 0.03 at x=100, n=5e4 per side, "
        f"{elapsed:.1f}s < 120s",
    )
    assert stat <= 0.03
    assert elapsed < 120.0


def test_criterion_8_byte_identical_reruns(tmp_path, capfd):
    cfg = tmp_path / "f1.cfg"
    cfg.write_text(
        "radial.family = exponential\nangular.halfwidth = 1.0\n"
        "shape_u.kappa = 2.0\n"
    )
    paths = {name: tmp_path / f"{name}.csv" for name in ("a", "b", "w4", "m1", "m2")}
    sim = ["simulate", "--config", str(cfg), "--x", "50", "--n", "2000",
           "--seed", "11"]
    assert cli_main(sim + ["--out", str(paths["a"])]) == 0
    assert cli_main(sim + ["--out", str(paths["b"])]) == 0
    assert cli_main(sim + ["--workers", "4", "--out", str(paths["w4"])]) == 0
    mc = ["tailprob", "--config", str(cfg), "--x", "10", "--method", "mc",
          "--n", "100000", "--seed", "7"]
    assert cli_main(mc + ["--out", str(paths["m1"])]) == 0
    assert cli_main(mc + ["--workers", "4", "--out", str(paths["m2"])]) == 0

    rerun_same = paths["a"].read_bytes() == paths["b"].read_bytes()
    workers_same = paths["a"].read_bytes() == paths["w4"].read_bytes()
    mc_same = paths["m1"].read_bytes() == paths["m2"].read_bytes()
    ok = rerun_same and workers_same and mc_same
    _report(
        capfd,
        8,
        ok,
        f"rerun identical: {rerun_same}, workers 1 vs 4 identical: "
        f"{workers_same and mc_same}",
    )
    assert rerun_same
    assert workers_same
    assert mc_same

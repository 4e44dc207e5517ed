"""Conditional rejection sampler, tail estimator, and case normalization."""

import dataclasses
import math
import threading

import numpy as np
import pytest

from polartail import (
    BracketError,
    BudgetExceeded,
    CaseMismatch,
    Condition,
    CorollaryKind,
    ParameterError,
    bivariate_normalized,
    build_builtin_model,
    compute_normalizers,
    empirical_sign_freq,
    estimate_tail_probability,
    ks_two_sample,
    limit_law,
    sample,
    sample_conditional,
    scaled_tail_quadrature,
    tail_probability_quadrature,
)

from polartail import asymptotics, cli, limitlaw, model, montecarlo, oracle, stats
from polartail._seeding import batch_generator
from conftest import ASYM_CONFIG, F1_CONFIG, TIED_CONFIG, tail_sweep

F1_TAIL_X5 = 1.1844109244600762683e-3
F1_TAIL_X10 = 5.9549152101336907609e-6
F1_SCALED_X50 = 0.061759062081107046527
ASYM_FREQ_PLUS_X100 = 0.8994182080425657918


def test_accepted_pairs_satisfy_the_event(f1_model):
    s = sample_conditional(f1_model, 50.0, 4000, Condition.RIGHT_SIDED, seed=2)
    assert s.n == 4000
    u = f1_model.shape_u.u(s.t)
    assert np.all(s.r * u > 50.0)
    assert np.all(s.t > f1_model.t0)
    # the radial excess is what the joint limit lives on; X > x and
    # u <= 1 force R > x, so it is strictly positive
    assert np.all(s.r_norm > 0.0)
    np.testing.assert_allclose(s.r_norm, (s.r - 50.0) / s.normalizers.psi_x)
    np.testing.assert_allclose(s.t_norm, s.t / s.normalizers.phi_plus)
    # for u = 1 - t^2 the event implies R - x > x t^2 exactly, which is
    # the support constraint of the joint limit already at finite x
    assert np.all(s.r_norm > s.t_norm**2)


def test_unrestricted_sample_keeps_both_signs(f1_model):
    s = sample_conditional(f1_model, 50.0, 4000, Condition.UNRESTRICTED, seed=2)
    assert np.any(s.t > 0.0) and np.any(s.t < 0.0)
    u = f1_model.shape_u.u(s.t)
    assert np.all(s.r * u > 50.0)


def test_unrestricted_default_scales_each_side_by_its_own_window():
    mdl = build_builtin_model(TIED_CONFIG)
    x, n = 100.0, 20_000
    norm = compute_normalizers(mdl, x)
    assert norm.phi_minus < 0.1 * norm.phi_plus
    cond = Condition.UNRESTRICTED
    s = sample_conditional(mdl, x, n, cond, seed=13)
    assert s.scale_kind == "phi_sign"
    assert s.scale_value == (norm.phi_minus, norm.phi_plus)
    _, lim_t = sample(limit_law(mdl, cond), n, seed=14)
    _, p = ks_two_sample(s.t_norm, lim_t)
    assert p > 1e-3, p

    right = sample_conditional(mdl, x, 2000, Condition.RIGHT_SIDED, seed=13)
    assert right.scale_kind == "phi_plus"
    assert right.scale_value == norm.phi_plus
    assert right.t_norm.tobytes() == ((right.t - mdl.t0) / norm.phi_plus).tobytes()


@pytest.mark.parametrize("cond", list(Condition))
def test_sampling_needs_no_mixture_weight(slow_p_model, cond):
    # the window masses of this custom model are about equal at x = 20, far
    # from its limit p = (0, 1), yet the draws need only psi and the windows
    s = sample_conditional(slow_p_model, 20.0, 2000, cond, seed=1)
    assert s.n == 2000
    assert np.all(s.r * slow_p_model.shape_u.u(s.t) > 20.0)
    if cond == Condition.RIGHT_SIDED:
        assert np.all(s.t >= 0.0)
    else:
        assert np.any(s.t < 0.0) and np.any(s.t > 0.0)


def test_acceptance_rate_matches_conditional_mass(f1_model):
    s = sample_conditional(
        f1_model, 50.0, 6000, Condition.RIGHT_SIDED, seed=31, batch_size=100_000
    )
    rate = s.acceptance.acceptance_rate
    n_prop = s.acceptance.proposals
    se = math.sqrt(F1_SCALED_X50 * (1.0 - F1_SCALED_X50) / n_prop)
    assert abs(rate - F1_SCALED_X50) <= 4.0 * se


def test_estimator_agrees_with_quadrature(f1_model):
    est, se = estimate_tail_probability(f1_model, 10.0, 1_000_000, seed=17)
    assert se > 0.0
    assert abs(est - F1_TAIL_X10) <= 4.0 * se


@pytest.mark.parametrize("cond", list(Condition))
@pytest.mark.parametrize("x", [10.0, 100.0])
def test_estimator_agrees_with_quadrature_on_the_tied_model(x, cond):
    # the estimator's whole-support plan draws T by asymmetric_power's own sampler
    mdl = build_builtin_model(TIED_CONFIG)
    est, se = estimate_tail_probability(mdl, x, 2 ** 20, cond, seed=19)
    assert se > 0.0
    assert abs(est - tail_probability_quadrature(mdl, x, cond).value) <= 5.0 * se


def test_estimator_coverage_over_many_seeds(f1_model):
    # 3-sigma miss rate is about 0.27%; 200 independent runs should
    # essentially never produce more than a handful of misses
    misses = 0
    for seed in range(200):
        est, se = estimate_tail_probability(f1_model, 5.0, 20_000, seed=seed)
        if abs(est - F1_TAIL_X5) > 3.0 * se:
            misses += 1
    assert misses <= 4


def test_same_seed_reproduces_bitwise(f1_model):
    a = sample_conditional(f1_model, 25.0, 3000, Condition.RIGHT_SIDED, seed=9)
    b = sample_conditional(f1_model, 25.0, 3000, Condition.RIGHT_SIDED, seed=9)
    np.testing.assert_array_equal(a.r, b.r)
    np.testing.assert_array_equal(a.t, b.t)


def test_worker_count_does_not_change_the_stream(f1_model):
    kw = dict(seed=9, batch_size=512)
    a = sample_conditional(f1_model, 25.0, 3000, Condition.RIGHT_SIDED, **kw)
    b = sample_conditional(
        f1_model, 25.0, 3000, Condition.RIGHT_SIDED, workers=4, **kw
    )
    np.testing.assert_array_equal(a.r, b.r)
    np.testing.assert_array_equal(a.t, b.t)
    est1 = estimate_tail_probability(f1_model, 10.0, 100_000, seed=13, batch_size=4096)
    est4 = estimate_tail_probability(
        f1_model, 10.0, 100_000, seed=13, batch_size=4096, workers=4
    )
    assert est1 == est4


@pytest.mark.parametrize("workers", [1, 4])
def test_every_drawn_batch_is_consumed(f1_model, workers):
    # a whole-support copy draws T once per batch through angular.sample,
    # so counting those calls counts the batches drawn
    calls = []
    ang = f1_model.angular

    def counting_sample(rng, m):
        calls.append(m)
        return ang.sample(rng, m)

    mdl = dataclasses.replace(
        f1_model,
        angular=dataclasses.replace(ang, side_mass=None, sample=counting_sample),
    )
    s = sample_conditional(
        mdl, 25.0, 3000, Condition.RIGHT_SIDED, seed=9, batch_size=512, workers=workers
    )
    assert len(calls) == math.ceil(s.acceptance.proposals / 512)
    calls.clear()
    estimate_tail_probability(mdl, 10.0, 40_960, seed=13, batch_size=4096, workers=workers)
    assert len(calls) == 40_960 // 4096


def test_negative_seeds_are_parameter_errors(f1_model):
    for seed in (-1, (1, -2), (np.int64(-5),)):
        with pytest.raises(ParameterError, match="nonnegative"):
            sample_conditional(f1_model, 25.0, 10, Condition.RIGHT_SIDED, seed=seed)
    with pytest.raises(ParameterError):
        estimate_tail_probability(f1_model, 10.0, 100, seed=-3)


def test_tail_estimate_refuses_nan_and_negative_x(f1_model):
    for x in (math.nan, -1.0):
        with pytest.raises(ParameterError, match="x must be >= 0"):
            estimate_tail_probability(f1_model, x, 100, seed=1)


def test_batch_size_is_part_of_the_stream(f1_model):
    a = sample_conditional(
        f1_model, 25.0, 2000, Condition.RIGHT_SIDED, seed=9, batch_size=512
    )
    b = sample_conditional(
        f1_model, 25.0, 2000, Condition.RIGHT_SIDED, seed=9, batch_size=2048
    )
    assert not np.array_equal(a.r, b.r)


def test_proposal_budget_enforced(f1_model):
    with pytest.raises(BudgetExceeded):
        sample_conditional(
            f1_model,
            50.0,
            10_000,
            Condition.RIGHT_SIDED,
            seed=1,
            batch_size=1024,
            max_proposals=4096,
        )


def test_infeasible_threshold_fails_before_sampling(f1_model):
    with pytest.raises(BracketError):
        sample_conditional(f1_model, 2.0, 100, Condition.RIGHT_SIDED, seed=1)


def test_right_sided_draw_needs_no_minus_window():
    # the minus side is too narrow for a window at x = 100; the plus side is not
    mdl = build_builtin_model({
        "radial.family": "exponential",
        "angular.halfwidth": 1.0,
        "angular.halfwidth_minus": 0.1,
        "shape_u.kappa": 2.0,
    })
    s = sample_conditional(mdl, 100.0, 1000, Condition.RIGHT_SIDED, seed=1)
    assert s.n == 1000 and np.all(s.t > mdl.t0)
    assert s.normalizers.phi_plus == pytest.approx(0.1, rel=1e-10)
    assert s.normalizers.phi_minus is None
    with pytest.raises(BracketError, match="side -1"):
        sample_conditional(mdl, 100.0, 1000, Condition.UNRESTRICTED, seed=1)
    with pytest.raises(BracketError, match="side -1"):
        compute_normalizers(mdl, 100.0)


def test_seed_type_is_checked(f1_model):
    for bad in (None, True, 1.5, "seed"):
        with pytest.raises(ParameterError):
            sample_conditional(f1_model, 25.0, 100, Condition.RIGHT_SIDED, seed=bad)


def test_empirical_sign_freq_symmetric_model(f1_model):
    n = 20_000
    f_minus, f_plus = empirical_sign_freq(f1_model, 50.0, n, seed=4)
    assert f_minus + f_plus == pytest.approx(1.0, abs=1e-12)
    assert abs(f_plus - 0.5) <= 4.0 * math.sqrt(0.25 / n)


def test_empirical_sign_freq_asymmetric_model(asym_model):
    # quadrature truth: the parabolic side soaks up nearly everything at
    # x = 100 because it keeps u near 1 on a wider angular window
    n = 20_000
    _, f_plus = empirical_sign_freq(asym_model, 100.0, n, seed=4)
    p = ASYM_FREQ_PLUS_X100
    assert abs(f_plus - p) <= 4.0 * math.sqrt(p * (1.0 - p) / n)


def test_empirical_sign_freq_rejects_one_sided_model():
    mdl = build_builtin_model(
        {
            "radial.family": "exponential",
            "angular.halfwidth": 1.0,
            "angular.halfwidth_minus": 0.0,
            "shape_u.kappa": 2.0,
        }
    )
    with pytest.raises(ParameterError):
        empirical_sign_freq(mdl, 50.0, 1000, seed=1)


def test_bivariate_seifert_identity(seifert_model):
    s = sample_conditional(seifert_model, 50.0, 5000, Condition.RIGHT_SIDED, seed=5)
    first, second = bivariate_normalized(seifert_model, "seifert", s)
    expected = (s.t - seifert_model.t0) / s.normalizers.phi_plus
    np.testing.assert_allclose(second, expected, atol=1e-12)
    assert np.all(first > 0.0)


def test_bivariate_fs_second_coordinate_formula(sine_model):
    x = 100.0
    s = sample_conditional(sine_model, x, 5000, Condition.RIGHT_SIDED, seed=6)
    _, second = bivariate_normalized(sine_model, "fs", s)
    phi = s.normalizers.phi_plus
    vt_phi = float(sine_model.shape_v.v_tilde(np.array([phi]))[0])
    big_y = s.r * np.asarray(sine_model.shape_v.v(s.t), dtype=float)
    np.testing.assert_allclose(second, big_y / (x * vt_phi), rtol=1e-12)
    assert np.all(second < 0.0)


def test_bivariate_requires_shape_v(f1_model):
    s = sample_conditional(f1_model, 50.0, 200, Condition.RIGHT_SIDED, seed=7)
    with pytest.raises(ParameterError):
        bivariate_normalized(f1_model, "fs", s)


def test_bivariate_rejects_unrestricted_sample(seifert_model):
    s = sample_conditional(seifert_model, 50.0, 200, Condition.UNRESTRICTED, seed=7)
    with pytest.raises(ParameterError):
        bivariate_normalized(seifert_model, CorollaryKind.SEIFERT, s)


def test_bivariate_rejects_contradictory_case(sine_model):
    # sin(t - t0) is not (t - t0 + rho) u for u = 1 - t^2
    s = sample_conditional(sine_model, 50.0, 200, Condition.RIGHT_SIDED, seed=7)
    with pytest.raises(CaseMismatch, match=r"does not factor as \(t - t0 \+ rho\) u"):
        bivariate_normalized(sine_model, "seifert", s)


def test_quadrature_consistency_of_estimator_inputs(f1_model):
    # the estimator is survival(x) times the acceptance rate, both of
    # which are exposed; stitching them back together must reproduce it
    x = 10.0
    n = 50_000
    est, _ = estimate_tail_probability(f1_model, x, n, seed=23)
    # a single whole batch of n proposals gives the acceptance rate an
    # exact denominator to compare against the conditional mass
    s = sample_conditional(
        f1_model, x, 5000, Condition.RIGHT_SIDED, seed=23, batch_size=n
    )
    assert s.acceptance.proposals == n
    q = tail_probability_quadrature(f1_model, x, Condition.RIGHT_SIDED).value
    assert abs(est / q - 1.0) < 0.05
    scaled = scaled_tail_quadrature(f1_model, x, Condition.RIGHT_SIDED).value
    se = math.sqrt(scaled * (1.0 - scaled) / n)
    assert abs(s.acceptance.acceptance_rate - scaled) <= 4.0 * se


# ---------------------------------------------------------------------------
# Window-stratified proposals against the whole-support plan
# ---------------------------------------------------------------------------

STRATIFIED_CASES = {
    "readme-right": (F1_CONFIG, Condition.RIGHT_SIDED, 100.0),
    "kappa-1-2-unrestricted": (ASYM_CONFIG, Condition.UNRESTRICTED, 1e3),
    "sympower-tau-neg-unrestricted": (
        {"radial.family": "exponential", "angular.family": "symmetric_power",
         "angular.tau": -0.5, "angular.halfwidth": 1.0, "shape_u.kappa": 2.0},
        Condition.UNRESTRICTED, 100.0),
    "halfnormal-cosine-right": (
        {"radial.family": "half_normal", "angular.halfwidth": 1.0,
         "shape_u.family": "cosine"},
        Condition.RIGHT_SIDED, 10.0),
    "weibull-b2-right": (
        {"radial.family": "weibull", "radial.beta": 2.0, "angular.halfwidth": 1.0,
         "shape_u.kappa": 2.0},
        Condition.RIGHT_SIDED, 10.0),
}


def _whole_support_copy(mdl):
    """The model with its shape declaring no monotone reach."""
    shape = dataclasses.replace(mdl.shape_u, monotone_reach=0.0)
    return dataclasses.replace(mdl, shape_u=shape)


@pytest.mark.parametrize("case", sorted(STRATIFIED_CASES))
def test_stratified_draws_match_the_whole_support_sampler(case):
    config, cond, x = STRATIFIED_CASES[case]
    mdl = build_builtin_model(config)
    n = 20_000
    strat = sample_conditional(mdl, x, n, cond, seed=51)
    whole = sample_conditional(_whole_support_copy(mdl), x, n, cond, seed=52)
    assert strat.acceptance.proposal_mass < 1.0
    assert whole.acceptance.proposal_mass == 1.0
    assert strat.acceptance.proposals < whole.acceptance.proposals
    for coord in ("r_norm", "t_norm"):
        _, p = ks_two_sample(getattr(strat, coord), getattr(whole, coord))
        assert p > 1e-3, (coord, p)
    # both plans estimate P{event | R > x}, the scaled tail mass
    scaled = scaled_tail_quadrature(mdl, x, cond).value
    for s in (strat, whole):
        acc = s.acceptance
        a = acc.accepted / acc.proposals
        se = acc.proposal_mass * math.sqrt(a * (1.0 - a) / acc.proposals)
        assert abs(acc.acceptance_rate - scaled) <= 4.0 * se, (acc, scaled)


def test_stratified_acceptance_does_not_shrink_with_x(f1_model):
    n = 20_000
    s = sample_conditional(f1_model, 1e6, n, Condition.RIGHT_SIDED, seed=3)
    assert s.n == n
    assert s.acceptance.proposals <= 10 * n
    assert np.all(s.r * f1_model.shape_u.u(s.t) > 1e6)


def test_shape_without_reach_over_the_support_keeps_the_whole_support_plan():
    # cos(t - t0) turns back up beyond pi, so on a support wider than pi
    # the level map does not cover the side
    mdl = build_builtin_model({"radial.family": "half_normal", "angular.halfwidth": 3.5,
                               "shape_u.family": "cosine"})
    s = sample_conditional(mdl, 10.0, 500, Condition.RIGHT_SIDED, seed=4)
    assert s.acceptance.proposal_mass == 1.0


def test_shape_without_deficit_inverse_takes_the_whole_support_plan(f1_model):
    # without deficit_inverse the level map is not there, so the copy
    # proposes over the whole support, and draws the same law
    x, n = 100.0, 20_000
    copy = dataclasses.replace(f1_model, shape_u=dataclasses.replace(f1_model.shape_u, deficit_inverse=None))
    whole = sample_conditional(copy, x, n, Condition.RIGHT_SIDED, seed=53)
    strips = sample_conditional(f1_model, x, n, Condition.RIGHT_SIDED, seed=54)
    assert whole.acceptance.proposal_mass == 1.0
    assert strips.acceptance.proposal_mass < 1.0
    for coord in ("r_norm", "t_norm"):
        _, p = ks_two_sample(getattr(whole, coord), getattr(strips, coord))
        assert p > 1e-3, (coord, p)


def test_whole_support_stream_is_the_plain_rejection_loop(f1_model):
    x, n, m, seed = 25.0, 3000, 4096, 9
    mdl = _whole_support_copy(f1_model)
    s = sample_conditional(mdl, x, n, Condition.RIGHT_SIDED, seed=seed, batch_size=m)

    r_parts, t_parts, batches = [], [], 0
    while sum(p.size for p in r_parts) < n:
        rng = batch_generator((seed,), batches)
        r = mdl.radial.tail_quantile(rng.random(m), x)
        t = mdl.angular.sample(rng, m)
        keep = (r * mdl.shape_u.u(t) > x) & (t > mdl.t0)
        r_parts.append(r[keep])
        t_parts.append(t[keep])
        batches += 1
    np.testing.assert_array_equal(s.r, np.concatenate(r_parts)[:n])
    np.testing.assert_array_equal(s.t, np.concatenate(t_parts)[:n])
    assert s.acceptance.proposals == batches * m
    assert s.acceptance.acceptance_rate == s.acceptance.accepted / s.acceptance.proposals

    # the estimator keeps that stream for builtin models too
    est, _ = estimate_tail_probability(f1_model, x, 2 * m, seed=seed, batch_size=m)
    accepted = sum(p.size for p in r_parts[:2])
    hbar = float(f1_model.radial.survival(np.array([x]))[0])
    assert est == hbar * (accepted / (2 * m))


# ---------------------------------------------------------------------------
# The chunked kernel against whole-batch evaluation
# ---------------------------------------------------------------------------

KERNEL_CASES = {
    "readme": (F1_CONFIG, 25.0),
    "kappa-1-2": (ASYM_CONFIG, 100.0),
    "halfnormal-cosine": (
        {"radial.family": "half_normal", "angular.halfwidth": 1.0,
         "shape_u.family": "cosine"},
        10.0),
}
# the stratified kernel walks a batch _CHUNK = 8192 proposals at a time,
# the whole-support one 2 _CHUNK at a time
KERNEL_BATCH_SIZES = (1, 8191, 8192, 8193, 10000, 16383, 16384, 16385, 65536)


def _whole_batch(mdl, plan, cond, key, i, m):
    """Batch i drawn, transformed and tested at once.

    Returns the accepted pairs, (r, t) under the whole-support plan and
    (a, T - t0) cell after cell under the stratified one, and the batch's
    generator.
    """
    rng = batch_generator(key, i)
    x = plan.x
    if not plan.cells:
        r = np.asarray(mdl.radial.tail_quantile(rng.random(m), x), dtype=float)
        t = np.asarray(mdl.angular.sample(rng, m), dtype=float)
        keep = r * mdl.shape_u.u(t) > x
        if cond == Condition.RIGHT_SIDED:
            keep &= t > mdl.t0
        return r[keep], t[keep], rng
    a_parts, offset_parts = [], []
    for (side, cap, y_lo, h), count in zip(plan.cells, rng.multinomial(m, plan.probs)):
        p_e, p_t = rng.random(count), rng.random(count)
        e = y_lo - np.log1p(-p_e * -math.expm1(-h))
        a = mdl.radial.overshoot(x, e)
        dist = mdl.angular.side_mass_inverse(side, p_t * cap)
        d = mdl.shape_u.deficit(side, dist)
        keep = a * (1.0 - d) > x * d
        if cond == Condition.RIGHT_SIDED:
            keep &= dist > 0.0
        a_parts.append(a[keep])
        offset_parts.append(side * dist[keep])
    return np.concatenate(a_parts), np.concatenate(offset_parts), rng


@pytest.mark.parametrize("m", KERNEL_BATCH_SIZES)
@pytest.mark.parametrize("cond", [Condition.RIGHT_SIDED, Condition.UNRESTRICTED])
@pytest.mark.parametrize("case", sorted(KERNEL_CASES))
def test_chunked_kernel_matches_whole_batch_evaluation(case, cond, m):
    config, x = KERNEL_CASES[case]
    stratified = build_builtin_model(config)
    n = 100 if m == 1 else 3000
    key = (61,)
    for mdl in (stratified, _whole_support_copy(stratified)):
        s = sample_conditional(mdl, x, n, cond, seed=key, batch_size=m)
        plan = montecarlo._build_plan(mdl, x, cond)
        assert bool(plan.cells) == (mdl is stratified)
        firsts, seconds = [], []
        while sum(p.size for p in firsts) < n:
            first, second, rng = _whole_batch(mdl, plan, cond, key, len(firsts), m)
            firsts.append(first)
            seconds.append(second)
        first, second = np.concatenate(firsts), np.concatenate(seconds)
        if plan.cells:
            # the last batch's generator picks n of the pairs, in random order
            pick = rng.choice(first.size, n, replace=False)
            a, offset = first[pick], second[pick]
            assert s.r.tobytes() == (x + a).tobytes()
            assert s.t.tobytes() == (mdl.t0 + offset).tobytes()
            assert s.r_norm.tobytes() == (a / s.normalizers.psi_x).tobytes()
        else:
            assert s.r.tobytes() == first[:n].tobytes()
            assert s.t.tobytes() == second[:n].tobytes()
        assert s.acceptance.proposals == len(firsts) * m
        assert s.acceptance.accepted == first.size

    # the estimator counts the whole-support stream of the model itself
    n_proposals = 3 * m + 1234
    full, rem = divmod(n_proposals, m)
    whole = montecarlo._Plan(x)
    accepted = sum(
        _whole_batch(stratified, whole, cond, key, i, size)[0].size
        for i, size in enumerate([m] * full + ([rem] if rem else []))
    )
    est, _ = estimate_tail_probability(stratified, x, n_proposals, cond, key, batch_size=m)
    hbar = float(stratified.radial.survival(np.array([x]))[0])
    assert est == hbar * (accepted / n_proposals)


# ---------------------------------------------------------------------------
# The estimate's batches on a thread pool
# ---------------------------------------------------------------------------

POOL_CASES = {
    "readme": F1_CONFIG,
    "halfnormal-cosine": KERNEL_CASES["halfnormal-cosine"][0],
    "tied": TIED_CONFIG,
}


def _custom_copy(mdl):
    """The model with its shape and angular sampler behind plain Python callables."""
    shape_u, angular = mdl.shape_u, mdl.angular
    return dataclasses.replace(
        mdl,
        shape_u=dataclasses.replace(shape_u, u=lambda t: shape_u.u(t), monotone_reach=0.0),
        angular=dataclasses.replace(angular, sample=lambda rng, m: angular.sample(rng, m),
                                    side_mass=None),
    )


def _threads(monkeypatch, n):
    """Let the estimate count its batches on n threads (while it has n batches)."""
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: n)
    monkeypatch.setattr(montecarlo, "_MAX_THREADS", n)


@pytest.mark.parametrize("cond", list(Condition))
@pytest.mark.parametrize("case", sorted(POOL_CASES) + ["custom"])
def test_estimate_is_the_same_on_any_number_of_threads(monkeypatch, case, cond):
    mdl = build_builtin_model(POOL_CASES.get(case, F1_CONFIG))
    if case == "custom":
        mdl = _custom_copy(mdl)
    # five full batches and a remainder batch
    n_proposals, batch_size = 5 * 4096 + 123, 4096
    estimates = []
    for cpus in (1, 4):
        _threads(monkeypatch, cpus)
        estimates.append(estimate_tail_probability(mdl, 10.0, n_proposals, cond, seed=(29, 3),
                                                   batch_size=batch_size))
    assert estimates[0] == estimates[1]
    assert estimates[0][1] > 0.0


def test_pool_is_capped_by_the_measured_thread_count(monkeypatch, f1_model):
    monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 64)
    threads = set()
    radial = f1_model.radial

    def tail_quantile(p, x):
        threads.add(threading.get_ident())
        return radial.tail_quantile(p, x)

    mdl = dataclasses.replace(f1_model, radial=dataclasses.replace(radial, tail_quantile=tail_quantile))
    estimate_tail_probability(mdl, 10.0, 32 * 1024, seed=7, batch_size=1024)
    assert 1 <= len(threads) <= montecarlo._MAX_THREADS


@pytest.mark.parametrize("batch_size", [1, 3])
def test_model_callables_never_see_an_empty_array(f1_model, batch_size):
    # a callable that reduces its input fails on an empty array
    radial, shape_u = f1_model.radial, f1_model.shape_u

    def tail_quantile(p, x):
        assert p.size and np.max(p) < 1.0
        return radial.tail_quantile(p, x)

    def u(t):
        assert t.size and np.max(np.abs(t)) <= np.pi
        return shape_u.u(t)

    mdl = dataclasses.replace(f1_model, radial=dataclasses.replace(radial, tail_quantile=tail_quantile),
                              shape_u=dataclasses.replace(shape_u, u=u))
    for cond in Condition:
        est, _ = estimate_tail_probability(mdl, 10.0, 200, cond, seed=11, batch_size=batch_size)
        assert est == estimate_tail_probability(f1_model, 10.0, 200, cond, seed=11,
                                                batch_size=batch_size)[0]
    s = sample_conditional(_whole_support_copy(mdl), 10.0, 20, seed=11, batch_size=batch_size)
    assert s.n == 20


def test_an_error_in_a_batch_propagates_and_leaves_no_thread(monkeypatch, f1_model):
    _threads(monkeypatch, 4)
    error = RuntimeError("batch 5 fails")
    ang = f1_model.angular

    def failing_sample(rng, m):
        if rng.bit_generator.seed_seq.entropy == (13, 5):
            raise error
        return ang.sample(rng, m)

    mdl = dataclasses.replace(f1_model, angular=dataclasses.replace(ang, sample=failing_sample))
    before = threading.active_count()
    with pytest.raises(RuntimeError) as raised:
        estimate_tail_probability(mdl, 10.0, 8 * 1024, seed=13, batch_size=1024)
    assert raised.value is error
    assert threading.active_count() == before


def test_worker_threads_call_no_traced_function(monkeypatch, f1_model):
    # the benchmark's tracer wraps every function in these modules' __all__
    # (main for cli) and assumes they are all called from one thread
    _threads(monkeypatch, 4)
    main = threading.main_thread()
    off_main, worker_calls = [], []

    def watch(name, fn):
        def wrapper(*args, **kwargs):
            if threading.current_thread() is not main:
                off_main.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for mod in (model, asymptotics, oracle, montecarlo, limitlaw, stats, cli):
        for attr in getattr(mod, "__all__", ["main"]):
            fn = getattr(mod, attr)
            if callable(fn) and not isinstance(fn, type):
                monkeypatch.setattr(mod, attr, watch(f"{mod.__name__}.{attr}", fn))
    radial = f1_model.radial

    def tail_quantile(p, x):
        worker_calls.append(threading.current_thread() is not main)
        return radial.tail_quantile(p, x)

    mdl = dataclasses.replace(f1_model, radial=dataclasses.replace(radial, tail_quantile=tail_quantile))
    montecarlo.estimate_tail_probability(mdl, 10.0, 16 * 1024, seed=3, batch_size=1024)
    assert any(worker_calls)
    assert off_main == []


# ---------------------------------------------------------------------------
# Level strips: the proposal envelope follows the level map
# ---------------------------------------------------------------------------

# x = 3 gives the half-normal and Weibull-2 models windows that reach the
# support edge, so their top strip is infinite; below it no sweep model
# has a window
CONTAINMENT_X = (3.0, 10.0, 1e4, 1e12)


def _sweep_plans(xs):
    """(name, model, x, condition, plan) of every sweep model and x that has windows."""
    models, _ = tail_sweep()
    for name, config in models.items():
        mdl = build_builtin_model(config)
        for x in xs:
            for cond in Condition:
                try:
                    compute_normalizers(mdl, x, cond)
                except BracketError:
                    continue
                yield name, mdl, x, cond, montecarlo._build_plan(mdl, x, cond)


def test_strip_caps_hold_every_accepted_pair():
    # proposals from a box four times as wide as each cap, at the kernel's
    # levels plus the highest level it can draw in each cell: whatever the
    # kernel's test accepts lies under the cap, so no pair the law can hold
    # is cut off. Every cell is checked, the [e_c, inf) one included, and
    # at x = 1e12 some plans raise e_c above the top level
    count, top = 4096, 1.0 - 2.0 ** -53
    rng = np.random.default_rng(71)
    seen, raised = set(), 0
    for name, mdl, x, cond, plan in _sweep_plans(CONTAINMENT_X):
        seen.add(x)
        assert len(plan.cells) == (montecarlo._STRIPS + 1) * len(mdl.sides(cond))
        raised += plan.cells[-1][2] > montecarlo._TOP_LEVEL
        for side, cap, y_lo, h in plan.cells:
            whole = float(mdl.angular.side_mass(side, np.array([mdl.side(side).width]))[0])
            wide = min(4.0 * cap, whole)
            p_e = np.append(rng.random(count), top)
            e = y_lo - np.log1p(-p_e * -math.expm1(-h))
            mass = np.append(wide * rng.random(count), min(np.nextafter(cap, math.inf), wide))
            a = mdl.radial.overshoot(x, e)
            s = mdl.angular.side_mass_inverse(side, mass)
            d = mdl.shape_u.deficit(side, s)
            keep = a * (1.0 - d) > x * d
            if cond == Condition.RIGHT_SIDED:
                keep &= s > 0.0
            assert np.all(mass[keep] <= cap), (name, x, cond, side, y_lo, float(np.max(mass[keep]) / cap))
    assert seen == set(CONTAINMENT_X)
    assert raised > 0


def test_last_cell_takes_few_proposals():
    # the [e_c, inf) cell draws from the whole side; the e_c rule keeps
    # its share of the proposal probability near 0.1%
    for name, mdl, x, cond, plan in _sweep_plans(CONTAINMENT_X):
        last = sum(prob for (_, _, _, h), prob in zip(plan.cells, plan.probs) if math.isinf(h))
        assert last <= 0.01, (name, x, cond, last)


@pytest.mark.parametrize("x", [1e2, 1e4, 1e8])
def test_strips_accept_most_proposals(x):
    # with 32 strips the lowest rate in exact arithmetic is 0.79, on the
    # symmetric power law with tau = 0.5
    models, _ = tail_sweep()
    for name, config in models.items():
        mdl = build_builtin_model(config)
        for cond in Condition:
            acc = sample_conditional(mdl, x, 20_000, cond, seed=73).acceptance
            assert acc.accepted / acc.proposals >= 0.7, (name, cond, acc)


def test_strips_draw_the_law_of_one_strip(monkeypatch):
    # the same code with one strip below e_c draws the same law. The
    # cases draw independent streams, so the 1% level is family-wise:
    # Bonferroni over the cases and both coordinates
    models, _ = tail_sweep()
    cases = [(name, x, cond) for name in sorted(models) for x in (1e2, 1e6) for cond in Condition]
    level = 0.01 / (2 * len(cases))
    n = 20_000
    for name, x, cond in cases:
        mdl = build_builtin_model(models[name])
        strips = sample_conditional(mdl, x, n, cond, seed=75)
        with monkeypatch.context() as patch:
            patch.setattr(montecarlo, "_STRIPS", 1)
            one = sample_conditional(mdl, x, n, cond, seed=76)
        assert one.acceptance.proposal_mass > 2.0 * strips.acceptance.proposal_mass
        for coord in ("r_norm", "t_norm"):
            _, p = ks_two_sample(getattr(strips, coord), getattr(one, coord))
            assert p > level, (name, x, cond, coord, p)

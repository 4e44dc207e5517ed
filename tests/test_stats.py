"""KS statistics, chi-square binning, and the convergence report."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import special, stats

from polartail import (
    Condition,
    build_builtin_model,
    LimitLaw,
    LimitSide,
    NonConvergence,
    ParameterError,
    cdf,
    chi_square_2d,
    convergence_report,
    density,
    ks_one_sample,
    ks_two_sample,
    limit_law,
    sample,
    sample_conditional,
)
from polartail import limitlaw, stats as stats_module
from polartail.stats import _cell_counts, _limit_edges

from conftest import cell_masses, ks_one_sample_full

# Kolmogorov survival function at the size-corrected statistic
# (en + 0.12 + 0.11/en) * d with d = 0.5, en = 1
P_HALF_SINGLE = 0.8438198245415606

UNIT_EDGES = (np.array([0.0, 0.5, 1.0]), np.array([0.0, 0.5, 1.0]))


def _unit_density(r, t):
    return np.ones_like(np.asarray(r, dtype=float))


UNIT_MASSES = cell_masses(_unit_density, UNIT_EDGES)


def test_ks_two_sample_identical_is_zero():
    a = np.array([1.0, 2.0, 3.0])
    stat, p = ks_two_sample(a, a.copy())
    assert stat == 0.0
    assert p == 1.0


def test_ks_two_sample_interleaved_reference():
    stat, p = ks_two_sample(np.array([1.0, 2.0]), np.array([1.5, 2.5]))
    assert stat == pytest.approx(0.5)
    assert p == pytest.approx(P_HALF_SINGLE, rel=1e-12)


def test_ks_two_sample_disjoint_supports():
    stat, p = ks_two_sample(np.arange(5.0), np.arange(5.0) + 10.0)
    assert stat == 1.0
    assert p < 0.01


def test_ks_two_sample_rejects_empty():
    with pytest.raises(ParameterError):
        ks_two_sample(np.array([]), np.array([1.0]))


@given(
    arrays(np.float64, st.integers(2, 40),
           elements=st.floats(-100, 100, allow_nan=False)),
    arrays(np.float64, st.integers(2, 40),
           elements=st.floats(-100, 100, allow_nan=False)),
)
@settings(max_examples=150, deadline=None)
def test_ks_two_sample_symmetric_and_bounded(a, b):
    s1, p1 = ks_two_sample(a, b)
    s2, p2 = ks_two_sample(b, a)
    assert s1 == s2
    assert p1 == p2
    assert 0.0 <= s1 <= 1.0
    assert 0.0 <= p1 <= 1.0


@given(
    arrays(np.float64, st.integers(2, 40),
           elements=st.floats(-50, 50, allow_nan=False)),
    arrays(np.float64, st.integers(2, 40),
           elements=st.floats(-50, 50, allow_nan=False)),
)
@settings(max_examples=150, deadline=None)
def test_ks_two_sample_invariant_under_monotone_map(a, b):
    # doubling is exact in binary floating point, so the empirical
    # distribution functions cross at identical heights
    s1, _ = ks_two_sample(a, b)
    s2, _ = ks_two_sample(2.0 * a, 2.0 * b)
    assert s1 == s2


def _ks_pooled_grid(a, b):
    # both empirical CDFs at every point of the pooled sample
    a, b = np.sort(a), np.sort(b)
    grid = np.concatenate([a, b])
    return float(np.max(np.abs(np.searchsorted(a, grid, side="right") / a.size
                               - np.searchsorted(b, grid, side="right") / b.size)))


@given(
    st.integers(1, 60), st.integers(1, 60), st.booleans(),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=300, deadline=None)
def test_ks_two_sample_matches_pooled_grid(n, m, tied, seed):
    rng = np.random.default_rng(seed)
    if tied:
        a = rng.integers(0, 8, n).astype(float)
        b = rng.integers(0, 8, m).astype(float)
    else:
        a = rng.normal(size=n)
        b = rng.normal(0.3, 1.5, size=m)
    assert ks_two_sample(a, b)[0] == _ks_pooled_grid(a, b)


def test_ks_two_sample_matches_scipy_statistic():
    rng = np.random.default_rng(17)
    for a, b in ((rng.exponential(size=5000), rng.exponential(1.05, size=3000)),
                 (rng.integers(0, 30, 4000).astype(float),
                  rng.integers(0, 31, 2500).astype(float))):
        assert ks_two_sample(a, b)[0] == pytest.approx(
            stats.ks_2samp(a, b).statistic, rel=1e-12, abs=1e-15)


def test_ks_one_sample_single_median_point():
    stat, p = ks_one_sample(np.array([0.5]), lambda x: np.asarray(x))
    assert stat == pytest.approx(0.5)
    assert p == pytest.approx(P_HALF_SINGLE, rel=1e-12)


def test_ks_one_sample_degenerate_cdf_gives_unit_distance():
    stat, _ = ks_one_sample(
        np.array([0.2, 0.8]), lambda x: np.zeros_like(np.asarray(x))
    )
    assert stat == 1.0


def test_ks_one_sample_validates_cdf():
    with pytest.raises(ParameterError):
        ks_one_sample(np.array([0.2, 0.8]), lambda x: 1.0 - np.asarray(x))
    with pytest.raises(ParameterError):
        ks_one_sample(np.array([0.2, 0.8]), lambda x: 3.0 * np.asarray(x))


def test_ks_one_sample_null_rejection_rate():
    # alpha = 0.01 critical value 1.63/sqrt(n); 200 null runs should
    # produce at most a handful of rejections
    n = 2000
    crit = 1.63 / math.sqrt(n)
    rejects = 0
    for seed in range(200):
        z = np.random.default_rng(seed).standard_normal(n)
        stat, _ = ks_one_sample(z, special.ndtr)
        if stat > crit:
            rejects += 1
    assert rejects <= 5


def _step_cdf(x):
    # the law of a uniform draw from {1, 2, 3, 4}
    return np.floor(np.clip(np.asarray(x, dtype=float), 0.0, 4.0)) / 4.0


@given(
    st.integers(1, 50_000), st.sampled_from(["ndtr", "gammainc", "step"]),
    st.floats(-0.05, 0.05), st.booleans(), st.integers(0, 2**32 - 1),
)
@settings(max_examples=200, deadline=None)
def test_ks_one_sample_equals_full_evaluation(n, law, shift, tied, seed):
    # samples close to the CDF's own law keep the statistic small, so most
    # blocks have to be bisected before their bound falls below it
    rng = np.random.default_rng(seed)
    if law == "ndtr":
        cdf, sample = special.ndtr, rng.standard_normal(n) + shift
    elif law == "gammainc":
        shape = float(rng.uniform(0.2, 4.0))
        cdf = lambda x: special.gammainc(shape, x)
        sample = rng.gamma(shape, 1.0 + shift, n)
    else:
        cdf, sample = _step_cdf, rng.integers(0, 6, n).astype(float)
    if tied:
        sample = np.round(sample, 2)
    assert ks_one_sample(sample, cdf)[0] == ks_one_sample_full(sample, cdf)


def test_ks_one_sample_evaluates_few_points():
    calls = []

    def counted(x):
        calls.append(np.size(x))
        return special.ndtr(x)

    z = np.random.default_rng(5).standard_normal(50_000)
    assert ks_one_sample(z, counted)[0] == ks_one_sample_full(z, special.ndtr)
    assert sum(calls) < 2_500
    # one call for the block ends, then one per bisection round
    assert len(calls) <= math.log2(stats_module._KS_BLOCK) + 2


@pytest.mark.parametrize("condition", [Condition.RIGHT_SIDED, Condition.UNRESTRICTED])
@pytest.mark.parametrize("fixture", ["f1_model", "asym_model"])
def test_ks_one_sample_equals_full_evaluation_on_conditional_draws(fixture, condition, request):
    mdl = request.getfixturevalue(fixture)
    law = limit_law(mdl, condition)
    mc = sample_conditional(mdl, 25.0, 20_000, condition, seed=3)
    for values, marginal in ((mc.r_norm, lambda r: cdf(law, r, np.inf)),
                             (mc.t_norm, lambda t: cdf(law, np.inf, t))):
        assert ks_one_sample(values, marginal)[0] == ks_one_sample_full(values, marginal)


def test_ks_one_sample_rejects_a_decrease_inside_a_refined_block():
    # evenly spaced points against the identity keep every block open down
    # to width 8, so index 300, inside the block [256, 512], is evaluated;
    # F drops there by 5/n, below F at the evaluated index 296
    n = 1024
    xs = (np.arange(n) + 0.5) / n

    def dipped(x):
        return np.where(x == xs[300], x - 5.0 / n, x)

    assert 300 % stats_module._KS_BLOCK != 0
    assert ks_one_sample(xs, lambda x: np.asarray(x, dtype=float))[0] == 0.5 / n
    with pytest.raises(ParameterError, match="nondecreasing"):
        ks_one_sample(xs, dipped)


def test_chi_square_balanced_cells():
    rng = np.random.default_rng(0)
    parts = []
    for i in range(2):
        for j in range(2):
            parts.append(
                np.column_stack(
                    [
                        rng.uniform(0.5 * i, 0.5 * (i + 1), 10),
                        rng.uniform(0.5 * j, 0.5 * (j + 1), 10),
                    ]
                )
            )
    pairs = np.vstack(parts)
    stat, dof, p = chi_square_2d(pairs, UNIT_EDGES, UNIT_MASSES)
    assert stat == pytest.approx(0.0, abs=1e-12)
    assert dof == 3.0
    assert p == pytest.approx(1.0)


def test_chi_square_concentrated_sample_rejected():
    rng = np.random.default_rng(1)
    pairs = np.column_stack(
        [rng.uniform(0.0, 0.5, 40), rng.uniform(0.0, 0.5, 40)]
    )
    # all 40 points in a cell expecting 10: stat (30^2 + 3*10^2)/10 = 120
    stat, dof, p = chi_square_2d(pairs, UNIT_EDGES, UNIT_MASSES)
    assert stat == pytest.approx(120.0, rel=1e-9)
    assert dof == 3.0
    assert p == pytest.approx(special.gammaincc(1.5, 60.0), rel=1e-9)


def test_chi_square_point_outside_model_support_is_fatal():
    rng = np.random.default_rng(2)
    inside = np.column_stack([rng.uniform(0, 1, 30), rng.uniform(0, 1, 30)])
    mixed = np.vstack([inside, [[2.0, 2.0]]])
    box = lambda r, t: np.where(
        (np.asarray(r) <= 1.0) & (np.asarray(t) <= 1.0), 1.0, 0.0
    )
    _, _, p = chi_square_2d(mixed, UNIT_EDGES, cell_masses(box, UNIT_EDGES))
    assert p == 0.0


def test_chi_square_point_off_a_full_grid_is_infinite():
    # the grid holds all the mass, so the off-grid point has an empty tail bin
    rng = np.random.default_rng(4)
    inside = np.column_stack([rng.uniform(0, 1, 40), rng.uniform(0, 1, 40)])
    pairs = np.vstack([inside, [[2.0, 0.5]]])
    assert chi_square_2d(pairs, UNIT_EDGES, np.full((2, 2), 0.25)) == (math.inf, 3.0, 0.0)


def test_chi_square_precomputed_masses_match_inline():
    rng = np.random.default_rng(3)
    pairs = np.column_stack([rng.uniform(0, 1, 60), rng.uniform(0, 1, 60)])
    np.testing.assert_allclose(UNIT_MASSES, 0.25, rtol=1e-9)
    quad = chi_square_2d(pairs, UNIT_EDGES, UNIT_MASSES)
    exact = chi_square_2d(pairs, UNIT_EDGES, np.full((2, 2), 0.25))
    np.testing.assert_allclose(quad, exact, rtol=1e-8)


def test_cell_masses_match_exact_where_density_is_smooth_in_each_cell():
    # every cell lies inside the support t^2 < r, so no jump is inside a cell
    law = LimitLaw(LimitSide(kappa=2.0, tau=0.0))
    binning = (np.array([1.5, 2.0, 3.0]), np.array([0.1, 0.5, 1.0]))
    quad = cell_masses(lambda r, t: density(law, r, t), binning)
    f = cdf(law, binning[0][:, None], binning[1])
    exact = np.diff(np.diff(f, axis=0), axis=1)
    np.testing.assert_allclose(quad, exact, rtol=0, atol=1e-9)


@pytest.mark.parametrize("coord", [0, 1])
def test_cell_masses_raise_when_a_quadrature_does_not_converge(coord):
    # too fast an oscillation for 60 panels, in the outer (a) or inner (b)
    # coordinate
    wiggly = lambda a, b: 1.0 + np.sin(1e5 * np.asarray((a, b)[coord], dtype=float))
    with pytest.raises(NonConvergence):
        cell_masses(wiggly, UNIT_EDGES)


# a chi-square grid's dozen edges, or enough that the padded grid's cell
# indices no longer fit a uint8
BIN_COUNTS = st.integers(2, 12) | st.integers(33, 100)


@given(BIN_COUNTS, BIN_COUNTS, st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_cell_counts_equal_histogram2d(na, nb, seed):
    rng = np.random.default_rng(seed)
    edges_a = np.sort(rng.choice(np.linspace(-3.0, 3.0, 201), na + 1, replace=False))
    edges_b = np.sort(rng.choice(np.linspace(0.0, 2.0, 201), nb + 1, replace=False))
    # points on every edge and off the grid in both coordinates, paired
    # with points on and off the other coordinate's edges
    a = np.concatenate([rng.uniform(-4.0, 4.0, 300), edges_a, edges_a, [-np.inf, np.inf]])
    b = np.concatenate([rng.uniform(-0.5, 2.5, 300), rng.choice(edges_b, na + 1),
                        rng.uniform(-0.5, 2.5, na + 1), edges_b[[0, -1]]])
    a = np.concatenate([a, rng.choice(edges_a, nb + 1)])
    b = np.concatenate([b, edges_b])
    expected, _, _ = np.histogram2d(a, b, bins=(edges_a, edges_b))
    counts = _cell_counts(a, b, edges_a, edges_b)
    assert counts.shape == expected.shape
    assert np.array_equal(counts, expected)


def test_chi_square_rejects_zero_mass_and_bad_edges():
    pairs = np.array([[0.2, 0.2], [0.4, 0.4], [0.6, 0.6]])
    zero = lambda r, t: np.zeros_like(np.asarray(r, dtype=float))
    with pytest.raises(ParameterError):
        chi_square_2d(pairs, UNIT_EDGES, cell_masses(zero, UNIT_EDGES))
    bad = (np.array([0.0, 0.0, 1.0]), UNIT_EDGES[1])
    with pytest.raises(ParameterError):
        chi_square_2d(pairs, bad, UNIT_MASSES)


def test_chi_square_accepts_pair_tuple_and_matrix():
    rng = np.random.default_rng(4)
    a = rng.uniform(0, 1, 50)
    b = rng.uniform(0, 1, 50)
    as_tuple = chi_square_2d((a, b), UNIT_EDGES, UNIT_MASSES)
    as_matrix = chi_square_2d(np.column_stack([a, b]), UNIT_EDGES, UNIT_MASSES)
    assert as_tuple == as_matrix


def test_chi_square_calibration_against_exact_law():
    # draws from the two-sided limit law tested against its own density:
    # the p-value should essentially never be tiny
    law = LimitLaw(LimitSide(2.0, 0.0), LimitSide(2.0, 0.0), p_minus=0.5, p_plus=0.5)
    edges_r = np.array([0.0, 0.35, 0.75, 1.3, 2.1, 3.5, 30.0])
    edges_t = np.array([-3.0, -0.8, -0.35, 0.0, 0.35, 0.8, 3.0])
    masses = cell_masses(
        lambda r, t: density(law, r, t), (edges_r, edges_t)
    )
    low = 0
    for seed in range(200):
        r, t = sample(law, 4000, seed=seed)
        _, _, p = chi_square_2d((r, t), (edges_r, edges_t), masses)
        if p < 0.001:
            low += 1
    assert low <= 4


def test_convergence_report_benchmark_rows(f1_model):
    report = convergence_report(f1_model, (10.0, 50.0), 4000, seed=21, bins=8)
    assert len(report.rows) == 2
    first, last = report.rows
    assert first.x == 10.0 and last.x == 50.0
    assert first.n == 4000
    for row in report.rows:
        assert 0.0 <= row.ks_r <= 1.0
        assert 0.0 <= row.ks_t <= 1.0
        assert 0.0 <= row.chi2_p <= 1.0
        assert 0.0 < row.acceptance_rate < 1.0
        assert row.tail_ratio > 0.0
    assert abs(last.tail_ratio - 1.0) < abs(first.tail_ratio - 1.0)


def test_ratio_step_rule_forgives_rounding_only():
    step = stats_module._ratio_step_ok
    # x = 1e20 .. 1e300 on the README model: 12 ulps from 1 on every row,
    # within the quadrature's relative error estimate there
    assert step(1.0000000000000027, 1.0000000000000027, 2.9e-15)
    assert step(1.1, 1.01, 1e-12)
    # held at a resolvable distance, or moving away from 1
    assert not step(1.0 + 1e-3, 1.0 + 1e-3, 3e-15)
    assert not step(1.0 + 1e-3, 1.0 - 2e-3, 3e-15)
    assert not step(1.0 + 1e-13, 1.0 + 2e-13, 3e-15)


def test_ratio_flag_on_the_default_grid_is_the_strict_rule(f1_model):
    report = convergence_report(f1_model, (10.0, 25.0, 50.0, 100.0), 2000, seed=5, bins=6)
    rows = report.rows
    strict = all(abs(b.tail_ratio - 1.0) < abs(a.tail_ratio - 1.0) for a, b in zip(rows, rows[1:]))
    assert report.ratio_approaches_one and strict


def test_convergence_report_single_row_flags_vacuous(f1_model):
    report = convergence_report(f1_model, (25.0,), 2000, seed=1, bins=6)
    assert report.ks_r_decreasing
    assert report.ks_t_decreasing
    assert report.ratio_approaches_one


def test_ks_point_is_the_kolmogorov_tenth_percent_point():
    assert stats_module._KS_POINT == round(float(special.kolmogi(0.001)), 2)


@pytest.mark.parametrize("seed", range(1, 9))
def test_ks_trend_flags_pass_a_correct_model_at_small_n(seed):
    # KS distances of n = 5000 draws sit near 1/sqrt(n); a margin of 0.01
    # failed three of these seeds on a correct model
    mdl = build_builtin_model({"radial.family": "half_normal", "angular.halfwidth": 1.0,
                               "shape_u.family": "cosine"})
    n = 5000
    report = convergence_report(mdl, (10.0, 25.0, 50.0, 100.0), n, seed, Condition.UNRESTRICTED)
    assert report.noise == 1.95 / math.sqrt(n)
    assert report.ks_r_decreasing and report.ks_t_decreasing, report.rows


def test_ks_trend_flags_fail_a_rise_beyond_the_margin(f1_model, monkeypatch):
    # at n = 2000 the margin is 1.95/sqrt(2000) = 0.044; a KS distance
    # that rises by 0.05 from one x to the next fails the flag
    distances = iter([0.01, 0.01, 0.06, 0.01])

    def rising(sample, cdf):
        return next(distances), 0.5

    monkeypatch.setattr(stats_module, "ks_one_sample", rising)
    report = convergence_report(f1_model, (10.0, 25.0), 2000, seed=1, bins=6)
    assert report.noise == 1.95 / math.sqrt(2000)
    assert [(row.ks_r, row.ks_t) for row in report.rows] == [(0.01, 0.01), (0.06, 0.01)]
    assert not report.ks_r_decreasing
    assert report.ks_t_decreasing


def test_ks_trend_margin_keeps_the_noise_argument_at_large_n(f1_model, monkeypatch):
    # 1.95/sqrt(n) falls below the default 0.01 from n = 38,025 on, so
    # default verdicts at n = 5e4 keep the fixed margin
    monkeypatch.setattr(stats_module, "ks_one_sample", lambda sample, cdf: (0.0, 1.0))
    report = convergence_report(f1_model, (10.0,), 50_000, seed=1, bins=6)
    assert report.noise == 0.01


def test_convergence_report_deterministic(f1_model):
    a = convergence_report(f1_model, (10.0, 25.0), 1500, seed=5, bins=6)
    b = convergence_report(f1_model, (10.0, 25.0), 1500, seed=5, bins=6)
    assert a.rows == b.rows


def test_convergence_report_two_sided_joint(f1_model):
    report = convergence_report(
        f1_model, (25.0,), 3000, seed=8, condition=Condition.UNRESTRICTED, bins=8
    )
    row = report.rows[0]
    assert 0.0 <= row.ks_t <= 1.0
    assert row.chi2_p > 1e-4


LEVELS = np.linspace(0.0005, 0.9995, 13)


@pytest.mark.parametrize("law", [
    LimitLaw(LimitSide(kappa=2.0, tau=0.0)),
    LimitLaw(LimitSide(kappa=2.0, tau=0.5)),
    # the tied sides of the kappa = (1, 2), tau = (-0.5, 0) model
    LimitLaw(LimitSide(2.0, 0.0), LimitSide(1.0, -0.5), p_minus=0.5, p_plus=0.5),
    # the minus side carries no mass, as in the limit of the kappa = (1, 2) model
    LimitLaw(LimitSide(2.0, 0.0), LimitSide(1.0, 0.0), p_minus=0.0, p_plus=1.0),
    # a tie that rounding breaks by one ulp: e = 1/3 against 1.1/3.3
    LimitLaw(LimitSide(3.0, 0.0), LimitSide(3.3, 0.1), p_minus=11 / 21, p_plus=10 / 21),
], ids=["one-sided", "one-sided-tau", "two-sided-tied", "two-sided-plus-only",
        "two-sided-rounded-tie"])
def test_limit_edges_are_exact_marginal_quantiles(law):
    edges_r, edges_t = _limit_edges(law, 12)
    np.testing.assert_allclose(cdf(law, edges_r, np.inf), LEVELS, rtol=0, atol=1e-12)
    np.testing.assert_allclose(cdf(law, np.inf, edges_t), LEVELS, rtol=0, atol=1e-12)


def test_limit_edges_reject_sides_of_two_gamma_shapes():
    # e- = 1 and e+ = 1/2 with both signs of positive probability: no law
    # that limit_law forms mixes two shapes, so there are no edges to give
    law = LimitLaw(LimitSide(2.0, 0.0), LimitSide(1.0, 0.0), p_minus=0.3, p_plus=0.7)
    with pytest.raises(ParameterError, match="differ in e"):
        _limit_edges(law, 12)


@pytest.mark.parametrize("condition", [Condition.RIGHT_SIDED, Condition.UNRESTRICTED])
def test_convergence_report_makes_no_limit_draws(f1_model, monkeypatch, condition):
    def refuse(*args, **kwargs):
        raise AssertionError("convergence_report drew from the limit law")

    monkeypatch.setattr(limitlaw, "sample", refuse)
    report = convergence_report(f1_model, (25.0,), 2000, seed=3, condition=condition, bins=8)
    assert 0.0 <= report.rows[0].chi2_p <= 1.0


def test_convergence_report_edges_do_not_depend_on_seed(f1_model, monkeypatch):
    binnings = []
    chi_square = stats_module.chi_square_2d

    def recording(pairs, binning, masses):
        binnings.append(binning)
        return chi_square(pairs, binning, masses)

    monkeypatch.setattr(stats_module, "chi_square_2d", recording)
    for seed in (1, 2):
        convergence_report(f1_model, (25.0,), 2000, seed=seed, bins=8)
    law = LimitLaw(LimitSide(kappa=2.0, tau=0.0))
    for edges_r, edges_t in binnings:
        expected_r, expected_t = _limit_edges(law, 8)
        assert edges_r.tobytes() == expected_r.tobytes()
        assert edges_t.tobytes() == expected_t.tobytes()


def test_convergence_report_rejects_bad_grid(f1_model):
    with pytest.raises(ParameterError):
        convergence_report(f1_model, (50.0, 10.0), 1000, seed=1)
    with pytest.raises(ParameterError):
        convergence_report(f1_model, (), 1000, seed=1)

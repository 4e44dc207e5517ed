"""Limit densities, exact samplers, sign law, and pushforward maps.

Each side of the limit law has density

    kappa / Gamma((1+tau)/kappa) * t^tau * e^(-r)   on 0 < t < r^(1/kappa),

and the exact sampler draws G ~ Gamma((1+tau)/kappa), T = G^(1/kappa),
R = G + E with E ~ Exp(1) independent. Everything here checks against
that construction or against Gamma-function arithmetic done by hand. The
closed-form joint CDF is checked cell by cell against an independent
scipy quadrature of that density.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from polartail import (
    CorollaryCase,
    CorollaryKind,
    LimitLaw,
    LimitSide,
    ParameterError,
    cdf,
    density,
    pushforward_corollary,
    sample,
)

from conftest import density_normalization, normalization_support

SAMPLER_CASES = ((2.0, 0.0), (1.0, 1.0), (0.5, -0.5))
CDF_CASES = ((2.0, 0.0), (1.0, 0.5), (3.0, -0.5), (0.5, 1.0))


def _sym_two_sided():
    return LimitLaw(LimitSide(2.0, 0.0), LimitSide(2.0, 0.0), p_minus=0.5, p_plus=0.5)


def test_one_sided_norm_const_is_kappa_over_gamma():
    side = LimitSide(kappa=2.0, tau=0.0)
    assert side.gamma_shape == pytest.approx(0.5)
    assert side.norm_const == pytest.approx(2.0 / math.sqrt(math.pi), rel=1e-13)


def test_one_sided_density_reference_value():
    law = LimitLaw(LimitSide(kappa=2.0, tau=0.0))
    # 2 / (sqrt(pi) e) at (r, t) = (1, 0.5)
    assert density(law, 1.0, 0.5) == pytest.approx(
        0.41510749742059470334, rel=1e-13
    )


def test_one_sided_density_vanishes_off_support():
    law = LimitLaw(LimitSide(kappa=2.0, tau=0.0))
    assert density(law, 1.0, 1.5) == 0.0  # t^kappa > r
    assert density(law, 1.0, -0.3) == 0.0  # wrong sign
    assert density(law, -0.5, 0.1) == 0.0  # negative r
    assert density(law, 0.2, 0.6) == 0.0  # 0.36 > 0.2


def test_one_sided_density_broadcasts():
    law = LimitLaw(LimitSide(kappa=2.0, tau=0.0))
    r = np.array([1.0, 1.0, -1.0])
    t = np.array([0.5, 1.5, 0.5])
    out = density(law, r, t)
    assert out.shape == (3,)
    assert out[0] > 0.0 and out[1] == 0.0 and out[2] == 0.0


def test_two_sided_density_symmetric_reference():
    law = _sym_two_sided()
    for t in (0.5, -0.5):
        assert density(law, 1.0, t) == pytest.approx(
            0.20755374871029735167, rel=1e-13
        )
    assert density(law, 0.2, 0.6) == 0.0


def test_two_sided_density_collapse_matches_one_sided():
    law = LimitLaw(LimitSide(2.0, 0.0), LimitSide(1.0, 0.0), p_minus=0.0, p_plus=1.0)
    one = LimitLaw(LimitSide(kappa=2.0, tau=0.0))
    for r, t in ((1.0, 0.5), (2.0, 1.2), (0.7, 0.3)):
        assert density(law, r, t) == pytest.approx(
            density(one, r, t), rel=1e-12
        )
    assert density(law, 1.0, -0.5) == 0.0


@pytest.mark.parametrize(
    "kappas, taus, p_minus",
    [((1.0, 2.0), (0.3, -0.2), 0.4), ((2.0, 2.0), (0.0, 0.0), 0.5), ((0.5, 3.0), (-0.5, 1.0), 0.0)],
)
def test_two_sided_density_matches_closed_form(kappas, taus, p_minus):
    # p_sigma |t|^tau_sigma e^-r on {|t|^kappa_sigma < r, sigma t > 0}
    # over sum_sigma (p_sigma / kappa_sigma) Gamma((1 + tau_sigma) / kappa_sigma)
    law = LimitLaw(LimitSide(kappas[1], taus[1]), LimitSide(kappas[0], taus[0]),
                   p_minus=p_minus, p_plus=1.0 - p_minus)
    sides = ((-1.0, p_minus, kappas[0], taus[0]), (1.0, 1.0 - p_minus, kappas[1], taus[1]))
    norm = sum((p / k) * math.gamma((1.0 + tau) / k) for _, p, k, tau in sides if p > 0)
    rng = np.random.default_rng(11)
    r = rng.uniform(0.0, 6.0, 4000)
    t = rng.uniform(-3.0, 3.0, 4000)
    expected = np.zeros_like(t)
    for sign, p, k, tau in sides:
        inside = (sign * t > 0) & (np.abs(t) ** k < r)
        expected = np.where(inside, p * np.abs(t) ** tau * np.exp(-r) / norm, expected)
    assert np.count_nonzero(expected[t > 0]) > 100
    assert np.count_nonzero(expected[t < 0]) > (100 if p_minus > 0 else -1)
    np.testing.assert_allclose(density(law, r, t), expected, rtol=1e-13, atol=0)


def test_gamma_overflow_is_a_parameter_error():
    # e = (1 + tau) / kappa = 200 lies past Gamma's double range (171.6)
    with pytest.raises(ParameterError, match="overflows"):
        LimitLaw(LimitSide(kappa=0.005, tau=0.0))
    with pytest.raises(ParameterError, match="overflows"):
        LimitLaw(LimitSide(2.0, 0.0), LimitSide(0.005, 0.0), p_minus=0.5, p_plus=0.5)
    assert math.isfinite(LimitSide(kappa=1.0, tau=170.0).norm_const)
    # e = 171 is in range, and the sign law is formed from log weights,
    # although each weight Gamma(e) / kappa overflows a double
    assert LimitLaw(LimitSide(0.01, 0.71), LimitSide(0.01, 0.71),
                    p_minus=0.5, p_plus=0.5).prob_plus == 0.5
    # Gamma(171) / Gamma(170) = 170
    assert LimitLaw(LimitSide(0.01, 0.71), LimitSide(0.01, 0.70),
                    p_minus=0.5, p_plus=0.5).prob_plus == pytest.approx(
        170.0 / 171.0, rel=1e-13)


def _sign_plus(kappa, p):
    return LimitLaw(LimitSide(kappa[1], 0.0), LimitSide(kappa[0], 0.0),
                    p_minus=p[0], p_plus=p[1]).prob_plus


def test_sign_law_reference_value():
    # kappa = (1, 2), tau = (0, 0), equal angular weights: the plus side
    # carries Gamma(1/2)/2 against Gamma(1)/1 on the minus side
    assert _sign_plus((1.0, 2.0), (0.5, 0.5)) == pytest.approx(
        0.46984109573138114992, rel=1e-13)
    assert _sign_plus((2.0, 2.0), (0.5, 0.5)) == pytest.approx(0.5, rel=1e-14)
    assert _sign_plus((1.0, 2.0), (0.0, 1.0)) == 1.0


def test_normalization_one_sided_spot_checks():
    for kappa, tau in SAMPLER_CASES:
        law = LimitLaw(LimitSide(kappa=kappa, tau=tau))
        res = density_normalization(
            lambda r, t: density(law, r, t), normalization_support(law)
        )
        assert abs(res.value - 1.0) <= 1e-6, (kappa, tau, res.value)


def test_normalization_two_sided_asymmetric():
    law = LimitLaw(LimitSide(2.0, 0.0), LimitSide(1.0, 0.0), p_minus=0.5, p_plus=0.5)
    res = density_normalization(
        lambda r, t: density(law, r, t), normalization_support(law)
    )
    assert abs(res.value - 1.0) <= 1e-6


# ---------------------------------------------------------------------------
# Closed-form CDF against an independent quadrature
# ---------------------------------------------------------------------------


def _quantile_grid(draws, bins=12):
    return np.unique(np.quantile(draws, np.linspace(0.0005, 0.9995, bins + 1)))


def _cells_from_cdf(cdf, edges_r, edges_t):
    f = cdf(edges_r[:, None], edges_t[None, :])
    return np.diff(np.diff(f, axis=0), axis=1)


def _side_cell_quad(weight, kappa, r0, r1, s0, s1):
    """Mass of weight(s) e^{-r} on {s^kappa < r} over [r0, r1] x [s0, s1], s > 0.

    The r integral is done by hand, leaving the t integral to scipy, with
    breakpoints where the support boundary s^kappa = r crosses r0 and r1.
    """
    if s1 <= s0:
        return 0.0

    def inner(s):
        lo = max(r0, s ** kappa)
        return weight(s) * (math.exp(-lo) - math.exp(-r1)) if lo < r1 else 0.0

    points = [c for c in (r0 ** (1.0 / kappa), r1 ** (1.0 / kappa)) if s0 < c < s1]
    val, _ = integrate.quad(inner, s0, s1, points=points or None,
                            epsabs=1e-15, epsrel=1e-13, limit=200)
    return val


@pytest.mark.parametrize("kappa, tau", CDF_CASES)
def test_one_sided_cdf_cell_masses_match_quadrature(kappa, tau):
    law = LimitLaw(LimitSide(kappa=kappa, tau=tau))
    r, t = sample(law, 20000, seed=11)
    edges_r, edges_t = _quantile_grid(r), _quantile_grid(t)
    got = _cells_from_cdf(lambda a, b: cdf(law, a, b), edges_r, edges_t)
    c = kappa / math.gamma((1.0 + tau) / kappa)
    cut = 0
    for i in range(edges_r.size - 1):
        for j in range(edges_t.size - 1):
            r0, r1, s0, s1 = edges_r[i], edges_r[i + 1], edges_t[j], edges_t[j + 1]
            cut += s0 ** kappa < r1 and r0 < s1 ** kappa
            want = _side_cell_quad(lambda s: c * s ** tau, kappa, r0, r1, s0, s1)
            assert abs(got[i, j] - want) <= 1e-12, (i, j, got[i, j], want)
    assert cut > 0  # the grid includes cells the support boundary runs through


def test_two_sided_cdf_cell_masses_match_quadrature():
    law = LimitLaw(LimitSide(2.0, -0.2), LimitSide(1.0, 0.3), p_minus=0.4, p_plus=0.6)
    r, t = sample(law, 20000, seed=12)
    edges_r, edges_t = _quantile_grid(r), _quantile_grid(t)
    assert edges_t[0] < 0.0 < edges_t[-1]
    got = _cells_from_cdf(lambda a, b: cdf(law, a, b), edges_r, edges_t)
    denom = sum((p / k) * math.gamma((1.0 + tau) / k)
                for p, k, tau in ((0.4, 1.0, 0.3), (0.6, 2.0, -0.2)))
    for i in range(edges_r.size - 1):
        for j in range(edges_t.size - 1):
            r0, r1, t0, t1 = edges_r[i], edges_r[i + 1], edges_t[j], edges_t[j + 1]
            plus = _side_cell_quad(lambda s: 0.6 * s ** -0.2 / denom, 2.0,
                                   r0, r1, max(t0, 0.0), max(t1, 0.0))
            minus = _side_cell_quad(lambda s: 0.4 * s ** 0.3 / denom, 1.0,
                                    r0, r1, max(-t1, 0.0), max(-t0, 0.0))
            assert abs(got[i, j] - (plus + minus)) <= 1e-12, (i, j)


@pytest.mark.parametrize("kappa, tau", CDF_CASES)
def test_one_sided_cdf_limits_are_gamma_marginals(kappa, tau):
    law = LimitLaw(LimitSide(kappa=kappa, tau=tau))
    e = law.plus.gamma_shape
    rs = np.array([1.0, 5.0, 20.0, 60.0, 200.0])
    f_r = cdf(law, rs, np.inf)
    assert np.all(np.diff(f_r) >= 0.0)
    np.testing.assert_allclose(f_r, special.gammainc(e + 1.0, rs), rtol=0, atol=1e-14)
    assert abs(f_r[-1] - 1.0) <= 1e-14
    ts = np.array([0.05, 0.4, 1.0, 2.5])
    np.testing.assert_allclose(cdf(law, np.inf, ts),
                               special.gammainc(e, ts ** kappa), rtol=0, atol=1e-15)
    assert cdf(law, np.inf, np.inf) == 1.0


def test_cdf_zero_off_support_and_broadcasts():
    law = LimitLaw(LimitSide(kappa=2.0, tau=0.0))
    assert cdf(law, 0.0, 1.0) == 0.0
    assert cdf(law, -1.0, 1.0) == 0.0
    assert cdf(law, 1.0, 0.0) == 0.0
    assert cdf(law, 1.0, -2.0) == 0.0
    out = cdf(law, np.array([[0.5], [2.0]]), np.array([0.1, 0.5, 3.0]))
    assert out.shape == (2, 3)
    two = _sym_two_sided()
    assert cdf(two, 0.0, 1.0) == 0.0
    assert cdf(two, np.inf, -np.inf) == 0.0
    assert cdf(two, np.inf, 0.0) == pytest.approx(0.5, abs=1e-15)
    assert cdf(two, np.inf, np.inf) == pytest.approx(1.0, abs=1e-15)


def test_sampler_moments_and_support():
    for kappa, tau in SAMPLER_CASES:
        law = LimitLaw(LimitSide(kappa=kappa, tau=tau))
        r, t = sample(law, 50_000, seed=11)
        shape = law.plus.gamma_shape
        g = t**kappa
        assert np.all(t > 0.0)
        assert np.all(r > g)
        # E[T^kappa] = shape, Var = shape
        err = abs(g.mean() - shape)
        assert err <= 4.0 * math.sqrt(shape / g.size), (kappa, tau, err)


def test_sampler_residual_is_unit_exponential():
    law = LimitLaw(LimitSide(kappa=2.0, tau=0.0))
    r, t = sample(law, 50_000, seed=7)
    e = r - t**2
    # one-sample KS against 1 - exp(-x), alpha = 0.01 critical value
    s = np.sort(e)
    grid = (np.arange(1, s.size + 1)) / s.size
    cdf = 1.0 - np.exp(-s)
    d = np.max(np.maximum(grid - cdf, cdf - (grid - 1.0 / s.size)))
    assert d < 1.63 / math.sqrt(s.size)
    corr = np.corrcoef(e, t)[0, 1]
    assert abs(corr) <= 3.0 / math.sqrt(s.size)


def test_sampler_deterministic_per_seed():
    law = LimitLaw(LimitSide(kappa=1.0, tau=1.0))
    r1, t1 = sample(law, 1000, seed=42)
    r2, t2 = sample(law, 1000, seed=42)
    np.testing.assert_array_equal(r1, r2)
    np.testing.assert_array_equal(t1, t2)
    r3, _ = sample(law, 1000, seed=43)
    assert not np.array_equal(r1, r3)


def test_sampler_rejects_negative_seeds():
    law = LimitLaw(LimitSide(kappa=1.0, tau=1.0))
    for seed in (-3, (1, -2)):
        with pytest.raises(ParameterError, match="nonnegative"):
            sample(law, 5, seed)


def _reference_draws(law, n, rng):
    """The sampler's stream written out draw by draw."""
    if law.minus is None:
        g = rng.gamma(law.plus.gamma_shape, 1.0, n)
        return g + rng.exponential(1.0, n), g ** (1.0 / law.plus.kappa)
    plus = rng.random(n) < law.prob_plus
    g = rng.gamma(np.where(plus, law.plus.gamma_shape, law.minus.gamma_shape), 1.0)
    t = np.where(plus, 1.0, -1.0) * g ** np.where(plus, 1.0 / law.plus.kappa,
                                                  1.0 / law.minus.kappa)
    return g + rng.exponential(1.0, n), t


@pytest.mark.parametrize("law", [
    LimitLaw(LimitSide(2.0, 0.0)),
    # the tied sides of the kappa = (1, 2), tau = (-0.5, 0) model
    LimitLaw(LimitSide(2.0, 0.0), LimitSide(1.0, -0.5), p_minus=0.5, p_plus=0.5),
    # a minus side without mass still draws the sign uniforms
    LimitLaw(LimitSide(2.0, 0.0), LimitSide(1.0, 0.0), p_minus=0.0, p_plus=1.0),
], ids=["one-sided", "two-sided-tied", "two-sided-plus-only"])
def test_sampler_stream_is_pinned(law):
    r, t = sample(law, 5000, np.random.default_rng(17))
    ref_r, ref_t = _reference_draws(law, 5000, np.random.default_rng(17))
    assert r.tobytes() == ref_r.tobytes()
    assert t.tobytes() == ref_t.tobytes()
    assert np.all(t > 0.0) or law.prob_minus > 0.0


def test_sides_follow_the_model_rule():
    plus, minus = LimitSide(2.0, 0.0), LimitSide(1.0, 0.0)
    one = LimitLaw(plus)
    assert one.sides == ((1, 1.0, plus),)
    assert (one.prob_minus, one.prob_plus) == (0.0, 1.0)
    both = LimitLaw(plus, minus, p_minus=0.5, p_plus=0.5)
    assert both.sides == ((1, both.prob_plus, plus), (-1, both.prob_minus, minus))
    with pytest.raises(ParameterError, match="p_minus"):
        LimitLaw(plus, p_minus=0.5, p_plus=0.5)


def test_two_sided_sampler_sign_frequency():
    law = LimitLaw(LimitSide(2.0, 0.0), LimitSide(1.0, 0.0), p_minus=0.5, p_plus=0.5)
    n = 40_000
    r, t = sample(law, n, seed=5)
    assert np.all(r > 0.0)
    freq = np.mean(t > 0.0)
    p = law.prob_plus
    assert abs(freq - p) <= 4.0 * math.sqrt(p * (1.0 - p) / n)
    # each side restricted to its sign obeys the support constraint
    assert np.all(r[t > 0] > t[t > 0] ** 2)
    assert np.all(r[t < 0] > (-t[t < 0]) ** 1)


def test_two_sided_sampler_marginal_against_gamma():
    law = _sym_two_sided()
    _, t = sample(law, 50_000, seed=9)
    g = np.abs(t) ** 2
    cdf = special.gammainc(0.5, np.sort(g))
    grid = np.arange(1, g.size + 1) / g.size
    d = np.max(np.maximum(grid - cdf, cdf - (grid - 1.0 / g.size)))
    assert d < 1.63 / math.sqrt(g.size)


def test_pushforward_fs_arithmetic():
    case = CorollaryCase(kind=CorollaryKind.FS, kappa=2.0, rho=0.0, delta=1.0)
    x1, x2 = pushforward_corollary(case, np.array([1.0]), np.array([0.5]))
    assert x1[0] == pytest.approx(0.75)
    assert x2[0] == pytest.approx(-0.5)


def test_pushforward_theta_n_arithmetic():
    case = CorollaryCase(
        kind=CorollaryKind.THETA_N, kappa=2.0, rho=0.0, n=2, theta_deriv=4.0
    )
    x1, x2 = pushforward_corollary(case, np.array([1.0]), np.array([0.5]))
    # second coordinate t^n times deriv/n! = 0.25 * 2
    assert x1[0] == pytest.approx(0.75)
    assert x2[0] == pytest.approx(0.5)


def test_pushforward_seifert_passes_t_through():
    case = CorollaryCase(kind=CorollaryKind.SEIFERT, kappa=2.0, rho=0.3)
    r = np.array([1.0, 2.0, 3.0])
    t = np.array([0.1, 0.9, 1.2])
    x1, x2 = pushforward_corollary(case, r, t)
    np.testing.assert_array_equal(x2, t)
    np.testing.assert_allclose(x1, r - t**2, rtol=1e-15)


def test_pushforward_ratio_c_zero_matches_fs():
    fs = CorollaryCase(kind=CorollaryKind.FS, kappa=2.0, rho=0.5, delta=1.0)
    rc = CorollaryCase(
        kind=CorollaryKind.RATIO_C, kappa=2.0, rho=0.5, delta=1.0, ratio_c=0.0
    )
    r = np.linspace(0.5, 4.0, 9)
    t = np.sqrt(r) * 0.7
    _, fs2 = pushforward_corollary(fs, r, t)
    _, rc2 = pushforward_corollary(rc, r, t)
    np.testing.assert_allclose(rc2, fs2, rtol=1e-15)


def test_pushforward_ratio_c_large_approaches_scaled_delta_case():
    dgk = CorollaryCase(kind=CorollaryKind.DELTA_GT_KAPPA, kappa=2.0, rho=0.5)
    r = np.linspace(0.5, 4.0, 9)
    t = np.sqrt(r) * 0.7
    _, dgk2 = pushforward_corollary(dgk, r, t)
    prev = math.inf
    for c in (1e3, 1e6):
        rc = CorollaryCase(
            kind=CorollaryKind.RATIO_C, kappa=2.0, rho=0.5, delta=1.0, ratio_c=c
        )
        _, rc2 = pushforward_corollary(rc, r, t)
        gap = np.max(np.abs(rc2 / c - dgk2))
        assert gap <= np.max(np.abs(t)) / c * 1.0001
        assert gap < prev
        prev = gap


@given(
    st.floats(min_value=0.01, max_value=50.0),
    st.floats(min_value=1e-6, max_value=0.999),
)
@settings(max_examples=200, deadline=None)
def test_pushforward_first_coordinate_positive_on_support(r, frac):
    # any (r, t) with t^kappa < r maps to a positive first coordinate;
    # frac stays off 1 because squaring the square root of (1-ulp)*r can
    # round back onto r itself
    case = CorollaryCase(kind=CorollaryKind.FS, kappa=2.0, rho=0.0, delta=1.0)
    t = (frac * r) ** 0.5
    x1, _ = pushforward_corollary(case, np.array([r]), np.array([t]))
    assert x1[0] > 0.0


def test_case_parameter_validation_names_missing_field():
    with pytest.raises(ParameterError, match="delta"):
        CorollaryCase(kind=CorollaryKind.FS, kappa=2.0, rho=0.0)
    with pytest.raises(ParameterError, match="ratio_c"):
        CorollaryCase(kind=CorollaryKind.RATIO_C, kappa=2.0, rho=0.5, delta=1.0)
    with pytest.raises(ParameterError, match="n"):
        CorollaryCase(kind=CorollaryKind.THETA_N, kappa=2.0, rho=0.0, theta_deriv=1.0)
    with pytest.raises(ParameterError):
        CorollaryCase(
            kind=CorollaryKind.THETA_N, kappa=2.0, rho=0.0, n=2, theta_deriv=0.0
        )
    with pytest.raises(ParameterError):
        CorollaryCase(kind=CorollaryKind.FS, kappa=2.0, rho=0.0, delta=-1.0)


@pytest.mark.parametrize("kind, fields, match", [
    (CorollaryKind.FS, {"delta": math.nan}, "delta"),
    (CorollaryKind.FS, {"delta": math.inf}, "delta"),
    (CorollaryKind.THETA_N, {"n": 1.5, "theta_deriv": 1.0}, r"\.n must be an integer"),
    (CorollaryKind.THETA_N, {"n": 2, "theta_deriv": math.nan}, "theta_deriv"),
    (CorollaryKind.THETA_N, {"n": 2, "theta_deriv": math.inf}, "theta_deriv"),
], ids=["nan-delta", "inf-delta", "fractional-n", "nan-theta-deriv", "inf-theta-deriv"])
def test_case_rejects_a_malformed_parameter(kind, fields, match):
    # a fractional n would otherwise reach math.factorial in pushforward_corollary
    with pytest.raises(ParameterError, match=match):
        CorollaryCase(kind=kind, kappa=2.0, rho=0.0, **fields)


def test_sampler_rejects_bad_sizes():
    law = LimitLaw(LimitSide(kappa=2.0, tau=0.0))
    with pytest.raises(ParameterError):
        sample(law, 0, seed=1)
    with pytest.raises(ParameterError):
        sample(law, -5, seed=1)

"""Numerical reach: windows, tails and conditional draws up to x = 1e12,
and windows, asymptotic tails and draws as far as doubles hold psi(x)/x.

Each reference is an independent closed form written here from the
model's definition: the window phi solves deficit(phi) = psi(x)/x, the
scaled tail is a scipy integral over the distance s from t0 of
exp(log Hbar(x + d) - log Hbar(x)) g with d = x delta / (1 - delta), and
the limit marginals of kappa = 2, tau = 0 are Gamma laws.
"""

import math
import sys

import numpy as np
import pytest
from scipy import integrate, special, stats

from polartail import (
    Condition,
    PolarTailError,
    build_builtin_model,
    compute_phi,
    sample_conditional,
    scaled_tail_quadrature,
    tail_asymptotic,
)

from conftest import ASYM_CONFIG, F1_CONFIG, tail_sweep

WEIBULL_B2 = {"radial.family": "weibull", "radial.beta": 2.0,
              "angular.halfwidth": 1.0, "shape_u.kappa": 2.0}
HALFNORMAL_COS = {"radial.family": "half_normal", "angular.halfwidth": 1.0,
                  "shape_u.family": "cosine"}
# half decades from 10 to 1e12
LADDER = tuple(10.0 ** (1 + k / 2) for k in range(23))


def _halfnormal_cos_window(x):
    target = math.sqrt(math.pi / 2.0) * float(special.erfcx(x / math.sqrt(2.0))) / x
    return 2.0 * math.asin(math.sqrt(0.5 * target))


# (config, side, closed-form phi(x)); every model has scale 1
WINDOWS = {
    # psi = 1/(2x): s^2 = 1/(2 x^2)
    "weibull-b2": (WEIBULL_B2, 1, lambda x: 1.0 / (math.sqrt(2.0) * x)),
    # 2 sin^2(phi/2) = psi(x)/x
    "halfnormal-cos": (HALFNORMAL_COS, 1, _halfnormal_cos_window),
    # psi = 1: s^kappa = 1/x
    "exp-k2": (F1_CONFIG, 1, lambda x: x ** -0.5),
    "exp-k1-k2-plus": (ASYM_CONFIG, 1, lambda x: x ** -0.5),
    "exp-k1-k2-minus": (ASYM_CONFIG, -1, lambda x: 1.0 / x),
}


@pytest.mark.parametrize("case", sorted(WINDOWS))
def test_window_exact_up_to_1e12(case):
    config, side, window = WINDOWS[case]
    mdl = build_builtin_model(config)
    for x in LADDER:
        root = compute_phi(mdl, x, side)
        assert root.residual <= 1e-12, (x, root.residual)
        assert abs(root.phi - window(x)) <= 1e-12 * window(x), (x, root.phi, window(x))


def _reference(gap, deficit, x, phi, density=0.5):
    """scipy integral over s in (0, 1) of exp(gap(x, d)) * density."""
    def f(s):
        dlt = deficit(s)
        if dlt >= 1.0:
            return 0.0
        return math.exp(gap(x, x * dlt / (1.0 - dlt))) * density

    points = [k * phi for k in (1.0, 4.0, 16.0, 64.0) if k * phi < 1.0]
    value, err = integrate.quad(f, 0.0, 1.0, points=points, epsabs=0.0, epsrel=1e-12, limit=500)
    assert err <= 1e-10 * value
    return value


def _exp_gap(x, d):
    return -d


def _weibull2_gap(x, d):
    # x^2 - (x + d)^2
    return -d * (2.0 * x + d)


def _power(kappa):
    return lambda s: s ** kappa


@pytest.mark.parametrize("config, x, gap, phi", [
    (WEIBULL_B2, 1e4, _weibull2_gap, 1.0 / (math.sqrt(2.0) * 1e4)),
    (F1_CONFIG, 1e8, _exp_gap, 1e-4),
], ids=["weibull-b2-1e4", "readme-1e8"])
def test_right_sided_tail_keeps_its_digits(config, x, gap, phi):
    res = scaled_tail_quadrature(build_builtin_model(config), x, Condition.RIGHT_SIDED)
    ref = _reference(gap, _power(2.0), x, phi)
    assert res.value > 0.0
    assert res.value == pytest.approx(ref, rel=1e-8, abs=0.0)


def test_both_sides_of_asymmetric_model_at_1e4():
    x = 1e4
    mdl = build_builtin_model(ASYM_CONFIG)
    plus = _reference(_exp_gap, _power(2.0), x, x ** -0.5)
    minus = _reference(_exp_gap, _power(1.0), x, 1.0 / x)
    right = scaled_tail_quadrature(mdl, x, Condition.RIGHT_SIDED)
    both = scaled_tail_quadrature(mdl, x, Condition.UNRESTRICTED)
    assert right.value == pytest.approx(plus, rel=1e-8, abs=0.0)
    assert both.value - right.value == pytest.approx(minus, rel=1e-8, abs=0.0)


# kappa = 2, tau = 0: t_norm^2 ~ Gamma(1/2) and r_norm = t_norm^2 + Exp(1) ~ Gamma(3/2)
LIMIT_CDFS = {
    "r_norm": lambda r: special.gammainc(1.5, r),
    "t_norm": lambda t: special.gammainc(0.5, t * t),
}


@pytest.mark.parametrize("config", [HALFNORMAL_COS, WEIBULL_B2], ids=["halfnormal-cos", "weibull-b2"])
def test_conditional_draws_follow_the_limit_up_to_1e12(config):
    # from x = 1e4 on, psi(x)/x <= 1e-8, so the finite-x law equals its limit
    # far below the noise of n = 2e4 draws. The rungs draw independent
    # streams, so the 1% level is family-wise: Bonferroni over the rungs
    # and both coordinates
    mdl = build_builtin_model(config)
    n = 20_000
    rungs = [x for x in LADDER if x >= 1e4]
    critical = stats.kstwo.ppf(1.0 - 0.01 / (2 * len(rungs)), n)
    for x in rungs:
        s = sample_conditional(mdl, x, n, Condition.RIGHT_SIDED, seed=5, max_proposals=10 * n)
        assert s.acceptance.proposals <= 10 * n
        for coord, cdf in LIMIT_CDFS.items():
            d = stats.kstest(getattr(s, coord), cdf).statistic
            assert d < critical, (x, coord, d, critical)


def _halfnormal_cos_target(x):
    return math.sqrt(math.pi / 2.0) * float(special.erfcx(x / math.sqrt(2.0))) / x


# (psi(x)/x, {side: closed-form phi(x)}) of each tail-sweep config; every
# model has scale 1 and halfwidth 1
SWEEP_WINDOWS = {
    "exp-k2": lambda x: (1.0 / x, {1: x ** -0.5, -1: x ** -0.5}),
    "exp-k1-k2": lambda x: (1.0 / x, {1: x ** -0.5, -1: 1.0 / x}),
    "weibull-b2": lambda x: (0.5 / (x * x), {1: 1.0 / (math.sqrt(2.0) * x),
                                             -1: 1.0 / (math.sqrt(2.0) * x)}),
    # psi = 2 sqrt(x): s^2 = 2 / sqrt(x)
    "weibull-b0.5": lambda x: (2.0 / math.sqrt(x), {1: math.sqrt(2.0) * x ** -0.25,
                                                   -1: math.sqrt(2.0) * x ** -0.25}),
    "halfnormal-cos": lambda x: (_halfnormal_cos_target(x), {1: _halfnormal_cos_window(x),
                                                             -1: _halfnormal_cos_window(x)}),
    "sympower-t0.5": lambda x: (1.0 / x, {1: x ** -0.5, -1: x ** -0.5}),
    "one-sided": lambda x: (1.0 / x, {1: x ** -0.5}),
}
# x = 1e13, 1e20, ..., 1e300
DEEP = tuple(10.0 ** e for e in range(13, 301, 7))


def _finite_or_typed(fn):
    """fn()'s value, or None where it raises a PolarTailError."""
    try:
        return fn()
    except PolarTailError:
        return None


@pytest.mark.parametrize("name", sorted(SWEEP_WINDOWS))
def test_windows_tails_and_draws_reach_as_far_as_doubles_hold_psi_over_x(name):
    # Where psi(x)/x is a normal double, every window is returned and equals
    # its closed form, the asymptotic and quadrature tails and the draws
    # are finite, and, where the windows are below 1e-5, so that the
    # first-order term's O(phi^2) relative error is below 1e-10, the
    # asymptotic tail equals the quadrature to 1e-9. Beyond, each either
    # returns a finite value or raises a typed error
    mdl = build_builtin_model(tail_sweep()[0][name])
    for x in DEEP:
        target, windows = SWEEP_WINDOWS[name](x)
        normal = target >= sys.float_info.min
        for cond in Condition:
            sides = [f.side for f in mdl.sides(cond)]
            roots = [_finite_or_typed(lambda: compute_phi(mdl, x, side)) for side in sides]
            asym = _finite_or_typed(lambda: tail_asymptotic(mdl, x, cond, scaled=True))
            draws = _finite_or_typed(lambda: sample_conditional(mdl, x, 16, cond, seed=3))
            if normal:
                assert None not in roots and asym is not None and draws is not None, (x, cond)
            for side, root in zip(sides, roots):
                if root is not None:
                    assert abs(root.phi / windows[side] - 1.0) <= 1e-12, (x, side, root.phi)
            if asym is not None:
                assert math.isfinite(asym) and asym > 0.0, (x, cond, asym)
                quad = scaled_tail_quadrature(mdl, x, cond)
                if max(windows[side] for side in sides) <= 1e-5:
                    assert abs(asym / quad.value - 1.0) <= 1e-9, (x, cond, asym, quad.value)
            if draws is not None:
                for coord in (draws.r, draws.t, draws.r_norm, draws.t_norm):
                    assert np.all(np.isfinite(coord)), (x, cond)

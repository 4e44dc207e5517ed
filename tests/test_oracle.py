"""Adaptive quadrature and the tail integrals.

Reference values were computed with mpmath at 40 digits and are quoted
to full double precision.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from polartail import (
    AngularLaw,
    Condition,
    adaptive_quadrature,
    scaled_tail_quadrature,
    tail_probability_quadrature,
)

from conftest import PlanarSupport, density_normalization

# (1/2) * integral_0^1 exp(-x / (1 - t^2)) dt
F1_TAIL = {
    5.0: 1.1844109244600762683e-3,
    10.0: 5.9549152101336907609e-6,
    25.0: 1.1963522594665681909e-12,
    100.0: 1.6306425277340852744e-45,
}


def test_quadrature_polynomial_exact():
    res = adaptive_quadrature(lambda t: 3.0 * t**2, 0.0, 1.0)
    assert res.converged
    assert res.value == pytest.approx(1.0, rel=1e-12)


def test_quadrature_endpoint_singularity():
    # integrand is unbounded at 0 but integrable; nodes stay interior
    res = adaptive_quadrature(lambda t: 1.0 / np.sqrt(t), 0.0, 1.0, rel_tol=1e-10)
    assert res.converged
    assert res.value == pytest.approx(2.0, rel=1e-8)


def test_quadrature_exponential_long_interval():
    res = adaptive_quadrature(np.exp, -50.0, 0.0, rel_tol=1e-12)
    assert res.value == pytest.approx(1.0 - math.exp(-50.0), rel=1e-11)


def test_quadrature_breakpoints_split_kink():
    f = lambda t: np.abs(t)
    plain = adaptive_quadrature(f, -1.0, 2.0, rel_tol=1e-12)
    split = adaptive_quadrature(f, -1.0, 2.0, rel_tol=1e-12, breakpoints=(0.0,))
    assert split.value == pytest.approx(2.5, rel=1e-12)
    assert plain.value == pytest.approx(2.5, rel=1e-9)
    assert split.evaluations <= plain.evaluations


def test_gk15_panels_batch_matches_one_call_per_panel():
    from polartail.oracle import _gk15_panels

    f = lambda t: np.exp(-t) * np.sqrt(t)
    lo, hi = [0.0, 0.3, 1.0, 2.5], [0.3, 1.0, 2.5, 7.0]
    vals, errs = _gk15_panels(f, lo, hi)
    for a, b, val, err in zip(lo, hi, vals, errs):
        (one_val,), (one_err,) = _gk15_panels(f, [a], [b])
        assert val == pytest.approx(one_val, rel=4e-16)
        assert err == pytest.approx(one_err, abs=4e-16 * abs(val))


@given(tau=st.floats(-0.8, -0.05), b=st.floats(0.2, 3.0))
@settings(max_examples=40, deadline=None)
def test_quadrature_matches_scipy_endpoint_singularity(tau, b):
    # t^tau cos t on (0, b); scipy's algebraic-weight rule takes t^tau exactly
    res = adaptive_quadrature(lambda t: t**tau * np.cos(t), 0.0, b, rel_tol=1e-10)
    ref, _ = integrate.quad(np.cos, 0.0, b, weight="alg", wvar=(tau, 0.0), epsabs=0.0, epsrel=1e-13)
    assert res.converged
    assert res.value == pytest.approx(ref, rel=1e-9)


@given(c=st.floats(0.05, 0.95), beta=st.floats(0.2, 1.0), slope=st.floats(0.5, 20.0))
@settings(max_examples=40, deadline=None)
def test_quadrature_matches_scipy_interior_kink(c, beta, slope):
    # slope |t - c|^beta has a kink (beta = 1) or a cusp at c, marked as a
    # breakpoint as the docstring asks; refinement works toward c from both
    # sides. An unmarked kink can fool the |Kronrod - Gauss| estimate.
    f = lambda t: np.exp(t) + slope * np.abs(t - c) ** beta
    res = adaptive_quadrature(f, 0.0, 1.0, rel_tol=1e-10, breakpoints=(c,))
    one = lambda t: 1.0
    ref = (integrate.quad(np.exp, 0.0, 1.0, epsabs=0.0, epsrel=1e-13)[0]
           + slope * integrate.quad(one, 0.0, c, weight="alg", wvar=(0.0, beta), epsabs=0.0)[0]
           + slope * integrate.quad(one, c, 1.0, weight="alg", wvar=(beta, 0.0), epsabs=0.0)[0])
    assert res.converged
    assert res.value == pytest.approx(ref, rel=1e-9)


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_quadrature_matches_scipy_seeded_narrow_peak(seed):
    # a Gaussian peak of width 1e-4..1e-2 at a random center; both rules
    # get breakpoints at multiples of its width, as scaled_tail_quadrature
    # seeds its windows, since a peak far narrower than a panel is
    # invisible to either error estimate
    rng = np.random.default_rng(seed)
    m, w = rng.uniform(0.05, 0.95), 10.0 ** rng.uniform(-4.0, -2.0)
    f = lambda t: np.exp(-0.5 * ((t - m) / w) ** 2) + 0.01 * t
    cuts = [m + k * w for k in (-64, -16, -4, -1, 0, 1, 4, 16, 64) if 0.0 < m + k * w < 1.0]
    res = adaptive_quadrature(f, 0.0, 1.0, rel_tol=1e-10, breakpoints=cuts)
    ref, _ = integrate.quad(f, 0.0, 1.0, points=cuts, epsabs=0.0, epsrel=1e-13, limit=200)
    assert res.converged
    assert res.value == pytest.approx(ref, rel=1e-9)


def test_quadrature_panel_budget_exhausted():
    # t^-0.99 needs ~300 bisections at 0; the budget allows 18
    max_panels, initial = 20, 2
    res = adaptive_quadrature(lambda t: t**-0.99, 0.0, 1.0, max_panels=max_panels,
                              breakpoints=(0.5,))
    assert not res.converged
    assert res.evaluations <= 15 * (2 * max_panels - initial)


@pytest.mark.parametrize("f", [
    lambda t: np.where(t < 0.3, np.nan, t),
    lambda t: np.where(t > 0.7, np.inf, t),
])
def test_quadrature_non_finite_integrand_does_not_converge(f):
    res = adaptive_quadrature(f, 0.0, 1.0, breakpoints=(0.5,))
    assert not res.converged
    # refinement stops at once instead of spending the panel budget
    assert res.evaluations == 30


def test_quadrature_evaluates_each_sweep_in_one_call():
    sizes = []

    def f(t):
        sizes.append(t.size)
        return t**-0.5

    res = adaptive_quadrature(f, 0.0, 1.0, rel_tol=1e-9)
    assert res.converged
    assert res.value == pytest.approx(2.0, rel=1e-9)
    assert sum(sizes) == res.evaluations == 1545
    # one call per sweep: 52 calls where one call per 15-point panel makes 103
    assert len(sizes) == 52
    assert res.evaluations // 15 == 103


def test_tail_quadrature_matches_reference(f1_model):
    for x, ref in F1_TAIL.items():
        res = tail_probability_quadrature(f1_model, x, Condition.RIGHT_SIDED)
        assert res.converged
        assert res.value == pytest.approx(ref, rel=1e-9)


def test_tail_quadrature_unrestricted_doubles_symmetric_model(f1_model):
    right = tail_probability_quadrature(f1_model, 10.0, Condition.RIGHT_SIDED)
    both = tail_probability_quadrature(f1_model, 10.0, Condition.UNRESTRICTED)
    assert both.value == pytest.approx(2.0 * right.value, rel=1e-10)


def test_tail_quadrature_at_zero_is_halfline_mass(f1_model):
    # X > 0 holds almost surely, so conditioning on T > t0 leaves 1/2
    res = tail_probability_quadrature(f1_model, 0.0, Condition.RIGHT_SIDED)
    assert res.value == pytest.approx(0.5, rel=1e-10)


def test_tail_quadrature_strictly_decreasing_in_x(f1_model):
    vals = [
        tail_probability_quadrature(f1_model, x, Condition.RIGHT_SIDED).value
        for x in (1.0, 2.0, 5.0, 10.0, 20.0)
    ]
    assert all(a > b > 0.0 for a, b in zip(vals, vals[1:]))


def test_tail_quadrature_ignores_negative_u_region():
    # u = cos(t) on [-pi, pi] is negative for |t| > pi/2; that region can
    # never produce X > x > 0 and must contribute nothing.
    # mpmath: integral over |t| < pi/2 of exp(-10/cos t)/(2 pi) dt
    from polartail import AngularLaw, PolarModel, ShapeU
    from polartail.model import _radial_exponential

    half = math.pi
    ang = AngularLaw(
        density=lambda t: np.where(np.abs(t) <= half, 1.0 / (2.0 * half), 0.0),
        t0=0.0,
        tau_minus=0.0,
        tau_plus=0.0,
        support=(-half, half),
        sample=lambda rng, n: rng.uniform(-half, half, n),
    )
    su = ShapeU(
        u=lambda t: np.cos(np.asarray(t, dtype=float)),
        t0=0.0,
        kappa_minus=2.0,
        kappa_plus=2.0,
        family_tag="custom",
    )
    mdl = PolarModel(radial=_radial_exponential(1.0), angular=ang, shape_u=su)
    res = tail_probability_quadrature(mdl, 10.0, Condition.UNRESTRICTED)
    assert res.value == pytest.approx(5.4160996647088292e-6, rel=1e-9)


def test_scaled_tail_quadrature_reference_values(f1_model):
    assert scaled_tail_quadrature(
        f1_model, 5.0, Condition.RIGHT_SIDED
    ).value == pytest.approx(0.17578216697472313804, rel=1e-9)
    assert scaled_tail_quadrature(
        f1_model, 50.0, Condition.RIGHT_SIDED
    ).value == pytest.approx(0.061759062081107046527, rel=1e-9)


def test_scaled_tail_quadrature_is_tail_over_survival(f1_model):
    for x in (2.0, 10.0, 50.0):
        for cond in (Condition.RIGHT_SIDED, Condition.UNRESTRICTED):
            scaled = scaled_tail_quadrature(f1_model, x, cond)
            plain = tail_probability_quadrature(f1_model, x, cond)
            hbar = float(f1_model.radial.survival(np.array([x]))[0])
            assert plain.value == pytest.approx(hbar * scaled.value, rel=1e-15)
            assert plain.abs_error_estimate == pytest.approx(
                hbar * scaled.abs_error_estimate, rel=1e-15)
            assert plain.evaluations == scaled.evaluations > 0
            assert plain.converged and scaled.converged


def test_tail_quadrature_is_exact_zero_where_survival_underflows(f1_model):
    # exp(-1e4) is 0.0 in double precision; nothing is integrated
    x = 1e4
    assert float(f1_model.radial.survival(np.array([x]))[0]) == 0.0
    res = tail_probability_quadrature(f1_model, x, Condition.RIGHT_SIDED)
    assert (res.value, res.abs_error_estimate, res.evaluations, res.converged) == (
        0.0, 0.0, 0, True)
    assert scaled_tail_quadrature(f1_model, x, Condition.RIGHT_SIDED).value > 0.0


def test_peak_breakpoints_sit_at_window_multiples(asym_model):
    from polartail.oracle import _peak_breakpoints

    # at x = 100 the windows are 100^(-1/2) on the kappa = 2 side and
    # 1/100 on the kappa = 1 side; multiples beyond the width are dropped
    plus = _peak_breakpoints(asym_model, 100.0, 1, 1.0)
    minus = _peak_breakpoints(asym_model, 100.0, -1, 1.0)
    assert plus == pytest.approx([0.1, 0.4], rel=1e-12)
    assert minus == pytest.approx([0.01, 0.04, 0.16, 0.64], rel=1e-12)
    assert _peak_breakpoints(asym_model, 0.0, 1, 1.0) == []


def test_custom_shape_without_a_window_still_integrates():
    # u = 1 - t^2 reaches a deficit of only 1/4 inside the window bracket
    # s <= 1/2, so at x = 2 (psi/x = 1/2) the window cannot be bracketed
    from scipy import integrate

    from polartail import BracketError, PolarModel, ShapeU, compute_phi
    from polartail.model import _radial_exponential

    half = 1.0
    ang = AngularLaw(
        density=lambda t: np.where(np.abs(t) <= half, 1.0 / (2.0 * half), 0.0),
        t0=0.0, tau_minus=0.0, tau_plus=0.0, support=(-half, half),
        sample=lambda rng, n: rng.uniform(-half, half, n),
    )
    su = ShapeU(u=lambda t: 1.0 - np.asarray(t, dtype=float) ** 2, t0=0.0,
                kappa_minus=2.0, kappa_plus=2.0, family_tag="custom")
    mdl = PolarModel(radial=_radial_exponential(1.0), angular=ang, shape_u=su)
    with pytest.raises(BracketError):
        compute_phi(mdl, 2.0)
    ref, _ = integrate.quad(lambda t: 0.5 * math.exp(-2.0 * t * t / (1.0 - t * t)), 0.0, 1.0,
                            epsabs=0.0, epsrel=1e-13)
    res = scaled_tail_quadrature(mdl, 2.0, Condition.RIGHT_SIDED)
    assert res.value == pytest.approx(ref, rel=1e-9)


def test_density_normalization_zero_function_integrates_to_zero():
    support = PlanarSupport(t_lo=-1.0, t_hi=1.0, r_lower=lambda t: np.abs(t) ** 2)
    res = density_normalization(
        lambda r, t: np.zeros_like(r), support, rel_tol=1e-6
    )
    assert res.value == 0.0


def test_density_normalization_separable_product():
    # f(r, t) = e^(-r) / 2 on r > 0, |t| < 1 integrates to 1
    support = PlanarSupport(t_lo=-1.0, t_hi=1.0, r_lower=lambda t: np.zeros_like(t))
    res = density_normalization(lambda r, t: 0.5 * np.exp(-r), support)
    assert res.converged
    assert res.value == pytest.approx(1.0, abs=1e-7)

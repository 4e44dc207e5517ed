"""Normalizer roots, mixture weights, and the tail asymptotic."""

import dataclasses
import math

import numpy as np
import pytest

from polartail import (
    AngularLaw,
    BracketError,
    CaseMismatch,
    Condition,
    CorollaryCase,
    CorollaryKind,
    LimitLaw,
    LimitSide,
    MonotonicityError,
    NonConvergence,
    ParameterError,
    PolarModel,
    ShapeU,
    build_builtin_model,
    compute_normalizers,
    compute_phi,
    corollary_case,
    limit_law,
    tail_asymptotic,
    tail_probability_quadrature,
    validate_model,
)
from polartail.model import _radial_exponential

from conftest import F1_CONFIG, tail_sweep


def _uniform_angular(half):
    return AngularLaw(
        density=lambda t: np.where(np.abs(t) <= half, 1.0 / (2.0 * half), 0.0),
        t0=0.0,
        tau_minus=0.0,
        tau_plus=0.0,
        support=(-half, half),
        sample=lambda rng, n: rng.uniform(-half, half, n),
    )


def _cosine_u_model(half):
    su = ShapeU(
        u=lambda t: np.cos(np.asarray(t, dtype=float)),
        t0=0.0,
        kappa_minus=2.0,
        kappa_plus=2.0,
    )
    return PolarModel(
        radial=_radial_exponential(1.0), angular=_uniform_angular(half), shape_u=su
    )


def test_phi_closed_form_square_root(f1_model):
    # u_tilde(s) = s^2 and psi = 1 give phi(x) = x^(-1/2) exactly
    root = compute_phi(f1_model, 100.0)
    assert root.phi == pytest.approx(0.1, rel=1e-10)
    assert abs(root.residual) <= 1e-10
    minus = compute_phi(f1_model, 100.0, side=-1)
    assert minus.phi == pytest.approx(root.phi, rel=1e-12)


def test_phi_closed_form_linear():
    mdl = build_builtin_model(
        {
            "radial.family": "exponential",
            "angular.halfwidth": 1.0,
            "shape_u.kappa": 1.0,
        }
    )
    root = compute_phi(mdl, 50.0)
    assert root.phi == pytest.approx(0.02, rel=1e-8)


def test_phi_closed_form_weibull_radial():
    # psi(x) = 1/(2x) for the beta=2 radial, so phi(x) = 1/(x sqrt(2))
    mdl = build_builtin_model(
        {
            "radial.family": "weibull",
            "radial.beta": 2.0,
            "angular.halfwidth": 1.0,
            "shape_u.kappa": 2.0,
        }
    )
    root = compute_phi(mdl, 10.0)
    assert root.phi == pytest.approx(0.07071067811865475, rel=1e-8)


def test_phi_cosine_u_inverts_exactly():
    # u_tilde(s) = 1 - cos(s), so phi(x) = acos(1 - 1/x)
    mdl = _cosine_u_model(math.pi)
    root = compute_phi(mdl, 200.0)
    assert root.phi == pytest.approx(0.10004171361154002933, rel=1e-10)


def _solve(mdl, x, side):
    try:
        return compute_phi(mdl, x, side)
    except (BracketError, MonotonicityError, NonConvergence, ParameterError) as exc:
        return type(exc)


def test_closed_form_window_matches_the_grid_solver_over_the_sweep():
    models, ladder = tail_sweep()
    solved = 0
    for name, config in models.items():
        mdl = build_builtin_model(config)
        grid = dataclasses.replace(mdl, shape_u=dataclasses.replace(mdl.shape_u, deficit_inverse=None))
        for x in ladder:
            for side in (1, -1):
                closed, searched = _solve(mdl, x, side), _solve(grid, x, side)
                where = (name, x, side)
                if isinstance(searched, type):
                    assert closed is searched, where
                    continue
                assert isinstance(closed, type(searched)), where
                assert closed.phi == pytest.approx(searched.phi, rel=1e-14, abs=0.0), where
                assert closed.residual <= 1e-12, where
                assert (closed.s_max, closed.side) == (searched.s_max, searched.side)
                solved += 1
    assert solved > 250


def _recording_deficit(su):
    """``su`` with a deficit that records the size of every array it is called on."""
    sizes = []

    def deficit(side, s):
        sizes.append(np.asarray(s).size)
        return su.exact_deficit(side, s)

    return dataclasses.replace(su, exact_deficit=deficit), sizes


def test_builtin_window_skips_the_grid_and_custom_shapes_keep_it(f1_model):
    # the closed form evaluates the deficit at single points, the grid at 512
    su, sizes = _recording_deficit(f1_model.shape_u)
    root = compute_phi(dataclasses.replace(f1_model, shape_u=su), 100.0)
    assert root.phi == pytest.approx(0.1, rel=1e-15) and max(sizes) == 1

    su, sizes = _recording_deficit(f1_model.shape_u)
    custom = dataclasses.replace(f1_model, shape_u=dataclasses.replace(su, deficit_inverse=None))
    root = compute_phi(custom, 100.0)
    assert root.phi == pytest.approx(0.1, rel=1e-10) and max(sizes) == 512
    with pytest.raises(BracketError):
        compute_phi(custom, 2.0)


def test_builtin_cosine_past_its_half_period_keeps_the_grid_check():
    # halfwidth 4 pi puts the bracket ceiling at 2 pi, beyond monotone_reach = pi
    mdl = build_builtin_model({"radial.family": "exponential", "angular.halfwidth": 4.0 * math.pi,
                               "shape_u.family": "cosine"})
    assert mdl.shape_u.deficit_inverse is not None
    with pytest.raises(MonotonicityError):
        compute_phi(mdl, 100.0)


def test_closed_form_window_keeps_the_typed_errors(f1_model):
    for bad_x in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ParameterError):
            compute_phi(f1_model, bad_x)
    # a root below the 1e-14 floor: kappa = 0.25 needs s = (psi / x)^4
    deep = build_builtin_model({"radial.family": "exponential", "angular.halfwidth": 1.0,
                                "shape_u.kappa": 0.25})
    assert compute_phi(deep, 1e3).phi == pytest.approx(1e-12, rel=1e-14)
    grid = dataclasses.replace(deep, shape_u=dataclasses.replace(deep.shape_u, deficit_inverse=None))
    for mdl in (deep, grid):
        with pytest.raises(BracketError, match="floor"):
            compute_phi(mdl, 1e4)
    # an inverse that misses the deficit trips the residual gate
    wrong = dataclasses.replace(f1_model.shape_u, deficit_inverse=lambda side, d: 1.001 * np.sqrt(d))
    with pytest.raises(NonConvergence):
        compute_phi(dataclasses.replace(f1_model, shape_u=wrong), 100.0)


def test_phi_strictly_decreasing_in_x(f1_model):
    phis = [compute_phi(f1_model, x).phi for x in (10.0, 20.0, 40.0, 80.0)]
    assert all(a > b for a, b in zip(phis, phis[1:]))


def test_phi_infeasible_threshold_raises_bracket_error(f1_model):
    # target u_tilde level 1/x exceeds u_tilde(s_max) = 1/4 below x = 4
    with pytest.raises(BracketError):
        compute_phi(f1_model, 2.0)
    root = compute_phi(f1_model, 4.5)
    assert root.phi > 0.0


def test_phi_nonmonotone_profile_raises():
    # on [-4 pi, 4 pi] the probe interval covers a full cosine period
    with pytest.raises(MonotonicityError):
        compute_phi(_cosine_u_model(4.0 * math.pi), 100.0)


def test_phi_minus_side_of_one_sided_model_rejected():
    mdl = build_builtin_model(
        {
            "radial.family": "exponential",
            "angular.halfwidth": 1.0,
            "angular.halfwidth_minus": 0.0,
            "shape_u.kappa": 2.0,
        }
    )
    with pytest.raises(ParameterError, match="no minus side"):
        compute_phi(mdl, 50.0, side=-1)


def _p(mdl):
    law = limit_law(mdl, Condition.UNRESTRICTED)
    return law.p_minus, law.p_plus


def test_limit_law_p_symmetric_model(f1_model):
    assert _p(f1_model) == (0.5, 0.5)


def test_limit_law_p_faster_side_takes_all(asym_model):
    # kappa_- = 1 has exponent e_- = 1, kappa_+ = 2 has e_+ = 1/2; the
    # smaller exponent side dominates the mixture entirely
    assert _p(asym_model) == (0.0, 1.0)


def test_limit_law_p_tied_exponent_splits_by_weight():
    mdl = build_builtin_model(
        {
            "radial.family": "exponential",
            "angular.family": "asymmetric_power",
            "angular.halfwidth": 1.0,
            "angular.weight_plus": 0.75,
            "angular.tau_minus": 0.0,
            "angular.tau_plus": 0.0,
            "shape_u.kappa": 2.0,
        }
    )
    p_m, p_p = _p(mdl)
    assert p_p == pytest.approx(0.75, rel=1e-12)
    assert p_m == pytest.approx(0.25, rel=1e-12)


def test_limit_law_tie_broken_by_rounding_still_splits_p():
    # e_- = 1.1/3.3 rounds one ulp above e_+ = 1/3; the exponents tie, so p
    # is the limit of the plus share of the window masses, not (0, 1)
    mdl = build_builtin_model(
        {
            "radial.family": "exponential",
            "angular.family": "asymmetric_power",
            "angular.halfwidth": 1.0,
            "angular.weight_plus": 0.5,
            "angular.tau_minus": 0.1,
            "angular.tau_plus": 0.0,
            "shape_u.kappa_minus": 3.3,
            "shape_u.kappa_plus": 3.0,
        }
    )
    assert 1.1 / 3.3 != 1.0 / 3.0
    norm = compute_normalizers(mdl, 1e4)
    plus = norm.phi_plus * float(mdl.angular.g_tilde(norm.phi_plus))
    minus = norm.phi_minus * float(mdl.angular.g_tilde(-norm.phi_minus))
    p_m, p_p = _p(mdl)
    assert p_p == pytest.approx(plus / (plus + minus), abs=1e-6)
    assert p_m + p_p == pytest.approx(1.0, rel=1e-15)


def test_limit_law_picks_the_law_and_its_weights(asym_model):
    one_sided = build_builtin_model(
        {
            "radial.family": "exponential",
            "angular.halfwidth": 1.0,
            "angular.halfwidth_minus": 0.0,
            "shape_u.kappa": 2.0,
        }
    )
    for cond in (Condition.RIGHT_SIDED, Condition.UNRESTRICTED):
        assert limit_law(one_sided, cond) == LimitLaw(LimitSide(2.0, 0.0))
    # asym_model: kappa = (1, 2), uniform angle
    assert limit_law(asym_model, Condition.RIGHT_SIDED) == LimitLaw(LimitSide(2.0, 0.0))
    both = limit_law(asym_model, Condition.UNRESTRICTED)
    assert (both.plus, both.minus) == (LimitSide(2.0, 0.0), LimitSide(1.0, 0.0))
    assert (both.p_minus, both.p_plus) == (0.0, 1.0)


def test_limit_law_custom_tie_splits_by_declared_coefficients():
    # same density as the tied-weight builtin, fed in as raw callables: the
    # tie e- = e+ = 1/2 splits p by the declared leading coefficients
    def density(t):
        t = np.asarray(t, dtype=float)
        return np.where(np.abs(t) <= 1.0, np.where(t >= 0.0, 0.75, 0.25), 0.0)

    def tied(g_coeffs=(None, None), u_coeffs=(None, None)):
        ang = AngularLaw(
            density=density,
            t0=0.0,
            tau_minus=0.0,
            tau_plus=0.0,
            support=(-1.0, 1.0),
            sample=lambda rng, n: rng.uniform(-1.0, 1.0, n),
            g_coeff_minus=g_coeffs[0],
            g_coeff_plus=g_coeffs[1],
        )
        su = ShapeU(
            u=lambda t: 1.0 - np.asarray(t, dtype=float) ** 2,
            t0=0.0,
            kappa_minus=2.0,
            kappa_plus=2.0,
            u_coeff_minus=u_coeffs[0],
            u_coeff_plus=u_coeffs[1],
        )
        return PolarModel(radial=_radial_exponential(1.0), angular=ang, shape_u=su)

    p_m, p_p = _p(tied((0.25, 0.75), (1.0, 1.0)))
    assert p_p == pytest.approx(0.75, rel=0, abs=1e-12)
    assert p_m == pytest.approx(0.25, rel=0, abs=1e-12)
    with pytest.raises(ParameterError, match=r"angular\.g_coeff_minus, angular\.g_coeff_plus, "
                       r"shape_u\.u_coeff_minus, shape_u\.u_coeff_plus"):
        _p(tied())
    with pytest.raises(ParameterError, match=r"declares no shape_u\.u_coeff_plus$"):
        _p(tied((0.25, 0.75), (1.0, None)))


def test_compute_normalizers_benchmark(f1_model):
    norms = compute_normalizers(f1_model, 100.0)
    assert norms.x == 100.0
    assert norms.psi_x == pytest.approx(1.0, rel=1e-14)
    assert norms.phi_plus == pytest.approx(0.1, rel=1e-10)
    assert norms.phi_minus == pytest.approx(0.1, rel=1e-10)
    assert abs(norms.residual_plus) <= 1e-10
    assert [f.name for f in dataclasses.fields(norms)] == [
        "x", "psi_x", "phi_plus", "phi_minus", "residual_plus", "residual_minus"]


def test_compute_normalizers_reads_psi_off_the_window_solve(f1_model):
    radial = f1_model.radial
    calls = []

    def aux_psi(x):
        calls.append(x)
        return radial.aux_psi(x)

    mdl = dataclasses.replace(f1_model, radial=dataclasses.replace(radial, aux_psi=aux_psi))
    for condition, windows in ((Condition.RIGHT_SIDED, 1), (Condition.UNRESTRICTED, 2)):
        calls.clear()
        norms = compute_normalizers(mdl, 100.0, condition)
        assert calls == [100.0] * windows
        assert norms.psi_x == compute_phi(f1_model, 100.0).psi == float(radial.aux_psi(100.0))


def test_slow_p_model_passes_validation(slow_p_model):
    assert validate_model(slow_p_model).passed


def test_compute_normalizers_solves_only_the_windows(slow_p_model, monkeypatch):
    from polartail import asymptotics

    calls = []
    solve = asymptotics.compute_phi

    def counted(*args, **kwargs):
        calls.append(args[1:])
        return solve(*args, **kwargs)

    monkeypatch.setattr(asymptotics, "compute_phi", counted)
    compute_normalizers(slow_p_model, 50.0)
    assert sorted(calls) == [(50.0, -1), (50.0, 1)]


def test_limit_law_reads_p_off_custom_exponents(slow_p_model):
    # e+ = 1/4 < e- = 1: the plus side takes all of p, with no coefficient
    # declared and no threshold, though the windows are about equal at x = 20
    law = limit_law(slow_p_model, Condition.UNRESTRICTED)
    assert (law.p_minus, law.p_plus) == (0.0, 1.0)
    assert (law.plus, law.minus) == (LimitSide(4.0, 0.0), LimitSide(1.0, 0.0))


def test_tail_asymptotic_closed_form(f1_model):
    # H(x) phi(x) g(phi) Gamma(1/2) / kappa = e^(-x) sqrt(pi) / (4 sqrt(x))
    got = tail_asymptotic(f1_model, 10.0)
    assert got == pytest.approx(6.3616551885952623547e-6, rel=1e-12)
    for x in (10.0, 30.0):
        manual = math.exp(-x) * math.sqrt(math.pi) / (4.0 * math.sqrt(x))
        assert tail_asymptotic(f1_model, x) == pytest.approx(manual, rel=1e-9)


def test_tail_asymptotic_unrestricted_doubles_symmetric(f1_model):
    one = tail_asymptotic(f1_model, 20.0, Condition.RIGHT_SIDED)
    both = tail_asymptotic(f1_model, 20.0, Condition.UNRESTRICTED)
    assert both == pytest.approx(2.0 * one, rel=1e-12)


def test_tail_asymptotic_scaled_drops_survival_factor(f1_model):
    x = 25.0
    scaled = tail_asymptotic(f1_model, x, scaled=True)
    plain = tail_asymptotic(f1_model, x)
    hbar = float(f1_model.radial.survival(np.array([x]))[0])
    assert plain == pytest.approx(scaled * hbar, rel=1e-12)


def test_tail_asymptotic_tracks_quadrature(f1_model):
    # ratio drifts toward 1 as the threshold grows
    errs = [
        abs(
            tail_probability_quadrature(f1_model, x, Condition.RIGHT_SIDED).value
            / tail_asymptotic(f1_model, x)
            - 1.0
        )
        for x in (10.0, 25.0, 50.0)
    ]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 0.02


def test_corollary_case_reads_the_model_declarations(f1_model, seifert_model):
    # seifert_linear with rho = 0.3 on kappa = 2: delta = 1, C = 0, theta = rho + s
    assert corollary_case(seifert_model, "ratio_c") == CorollaryCase(
        kind=CorollaryKind.RATIO_C, kappa=2.0, rho=0.3, delta=1.0, ratio_c=0.0)
    assert corollary_case(seifert_model, CorollaryKind.THETA_N) == CorollaryCase(
        kind=CorollaryKind.THETA_N, kappa=2.0, rho=0.3, n=1, theta_deriv=1.0)
    with pytest.raises(CaseMismatch, match="delta > kappa_plus"):
        corollary_case(seifert_model, "delta_gt_kappa")
    with pytest.raises(ParameterError, match="unknown corollary case"):
        corollary_case(seifert_model, "seifert_linear")
    with pytest.raises(ParameterError, match="shape_v"):
        corollary_case(f1_model, "fs")

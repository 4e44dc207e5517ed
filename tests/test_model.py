"""Model construction, configuration parsing, and self-validation."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from polartail import (
    AngularLaw,
    CaseMismatch,
    Condition,
    ConfigError,
    NonConvergence,
    ParameterError,
    PolarModel,
    RadialLaw,
    ShapeU,
    ShapeV,
    UnknownFamilyError,
    build_builtin_model,
    compute_phi,
    corollary_case,
    load_config,
    limit_law,
    oracle,
    sample_conditional,
    scaled_tail_quadrature,
    tail_asymptotic,
    validate_model,
)
from polartail.cli import main
from polartail.model import (
    _OVERSHOOT_SERIES,
    _radial_exponential,
    _radial_half_normal,
    _radial_weibull,
    parse_config_text,
)

from conftest import F1_CONFIG, TIED_CONFIG, tail_sweep


def _uniform_angular(half):
    return AngularLaw(
        density=lambda t: np.where(np.abs(t) <= half, 1.0 / (2.0 * half), 0.0),
        t0=0.0,
        tau_minus=0.0,
        tau_plus=0.0,
        support=(-half, half),
        sample=lambda rng, n: rng.uniform(-half, half, n),
    )


def _parabola_model(half):
    su = ShapeU(
        u=lambda t: 1.0 - np.asarray(t, dtype=float) ** 2,
        kappa_minus=2.0,
        kappa_plus=2.0,
    )
    return PolarModel(
        radial=_radial_exponential(1.0), angular=_uniform_angular(half), shape_u=su
    )


def test_parse_config_text_skips_comments_and_blanks():
    cfg = parse_config_text(
        "# benchmark\nradial.family = exponential\n\nangular.halfwidth = 1.0\n"
    )
    assert cfg == {"radial.family": "exponential", "angular.halfwidth": "1.0"}


def test_parse_config_text_reports_line_numbers():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config_text("a = 1\nnot a pair\n")
    with pytest.raises(ConfigError, match="duplicate key 'a'"):
        parse_config_text("a = 1\na = 2\n")
    with pytest.raises(ConfigError, match="empty key"):
        parse_config_text("= 3\n")


def test_load_config_round_trip(tmp_path):
    p = tmp_path / "m.cfg"
    p.write_text("radial.family = exponential\nshape_u.kappa = 2.0\n")
    cfg = load_config(p)
    assert cfg["shape_u.kappa"] == "2.0"


def test_build_builtin_model_benchmark(f1_model):
    assert len(f1_model.sides(Condition.UNRESTRICTED)) == 2
    assert f1_model.t0 == 0.0
    u = f1_model.shape_u.u(np.array([0.0, 0.5, -0.5]))
    np.testing.assert_allclose(u, [1.0, 0.75, 0.75])
    g = f1_model.angular.density(np.array([0.0, 0.99, 1.5]))
    np.testing.assert_allclose(g, [0.5, 0.5, 0.0])


def test_build_builtin_model_one_sided_when_support_starts_at_center():
    mdl = build_builtin_model(
        {
            "radial.family": "exponential",
            "angular.halfwidth": 1.0,
            "angular.halfwidth_minus": 0.0,
            "shape_u.kappa": 2.0,
        }
    )
    assert [(f.side, f.width) for f in mdl.sides(Condition.UNRESTRICTED)] == [(1, 1.0)]


def _parabola_on(lo, hi):
    """Exp(1) radius, uniform angle on (lo, hi) around t0 = 0, custom u = 1 - t^2.

    It declares its leading coefficients g = 1/(hi - lo) and u = 1, which
    the tied exponents of its two sides need for the mixture weight.
    """
    ang = AngularLaw(
        density=lambda t: np.where((t >= lo) & (t <= hi), 1.0 / (hi - lo), 0.0),
        t0=0.0,
        tau_minus=0.0,
        tau_plus=0.0,
        support=(lo, hi),
        sample=lambda rng, n: rng.uniform(lo, hi, n),
        g_coeff_minus=1.0 / (hi - lo),
        g_coeff_plus=1.0 / (hi - lo),
    )
    su = ShapeU(
        u=lambda t: 1.0 - np.asarray(t, dtype=float) ** 2,
        kappa_minus=2.0,
        kappa_plus=2.0,
        u_coeff_minus=1.0,
        u_coeff_plus=1.0,
    )
    return PolarModel(radial=_radial_exponential(1.0), angular=ang, shape_u=su)


def test_sides_follow_the_angular_support():
    assert "sidedness" not in {f.name for f in dataclasses.fields(PolarModel)}
    assert not hasattr(PolarModel, "sidedness")
    one, two = _parabola_on(0.0, 1.0), _parabola_on(-1.0, 1.0)
    for cond in Condition:
        assert [(f.side, f.width) for f in one.sides(cond)] == [(1, 1.0)]
    assert [(f.side, f.width) for f in two.sides(Condition.RIGHT_SIDED)] == [(1, 1.0)]
    assert [(f.side, f.width) for f in two.sides(Condition.UNRESTRICTED)] == [(1, 1.0), (-1, 1.0)]


def test_two_sided_custom_model_unrestricted_tail_and_limit_law():
    mdl = _parabola_on(-1.0, 1.0)
    cond = Condition.UNRESTRICTED
    assert len(mdl.sides(cond)) == 2
    assert [sign for sign, _, _ in limit_law(mdl, cond).sides] == [1, -1]
    x = 1e4
    quad = scaled_tail_quadrature(mdl, x, cond).value
    asym = tail_asymptotic(mdl, x, cond, scaled=True)
    assert abs(quad / asym - 1.0) <= 1e-3
    # both sides count: twice the right-sided mass of this symmetric model
    assert asym == pytest.approx(2.0 * tail_asymptotic(mdl, x, scaled=True), rel=1e-12)


def test_sidedness_config_key_rejected():
    for value in ("one_sided_right", "two_sided"):
        with pytest.raises(ConfigError, match="model.sidedness"):
            build_builtin_model(dict(F1_CONFIG, **{"model.sidedness": value}))


def test_build_builtin_model_weibull_and_half_normal_radials():
    for extra, hbar in (
        ({"radial.family": "weibull", "radial.beta": 2.0}, lambda x: math.exp(-x * x)),
        ({"radial.family": "half_normal"}, lambda x: math.erfc(x / math.sqrt(2.0))),
    ):
        mdl = build_builtin_model(
            dict(extra, **{"angular.halfwidth": 1.0, "shape_u.kappa": 2.0})
        )
        s = mdl.radial.survival(np.array([0.0, 1.0, 3.0]))
        assert s[0] == pytest.approx(1.0, rel=1e-12)
        assert np.all(np.diff(s) < 0.0)
        np.testing.assert_allclose(s, [hbar(x) for x in (0.0, 1.0, 3.0)], rtol=1e-12)


def test_radial_law_declares_its_tail_once(f1_model):
    assert [f.name for f in dataclasses.fields(RadialLaw)] == [
        "log_survival", "aux_psi", "tail_quantile", "exact_gap", "exact_overshoot"]
    # a second tail that disagrees with log_survival cannot be built
    with pytest.raises(TypeError):
        dataclasses.replace(f1_model.radial, survival=lambda x: np.exp(-1.5 * np.asarray(x)))


# erfc(x / sqrt 2) by mpmath at 50 digits
HALF_NORMAL_SURVIVAL = {
    0.0: 1.0,
    0.5: 0.61707507745197379272,
    3.0: 0.0026997960632601890533,
    10.0: 1.5239706048321052132e-23,
    20.0: 5.5072482372124673902e-89,
    30.0: 9.8134278542963741191e-198,
    37.0: 1.1451142445049153645e-299,
}


def test_half_normal_survival_matches_mpmath():
    radial = build_builtin_model({"radial.family": "half_normal", "angular.halfwidth": 1.0}).radial
    xs = np.array(list(HALF_NORMAL_SURVIVAL))
    np.testing.assert_allclose(radial.survival(xs), list(HALF_NORMAL_SURVIVAL.values()), rtol=5e-13)


def test_exponential_and_weibull_survival_keep_their_closed_forms():
    xs = np.array([0.0, 1e-3, 0.5, 1.0, 3.0, 10.0, 50.0, 700.0, 800.0])
    rate = build_builtin_model(dict(F1_CONFIG, **{"radial.rate": 2.0})).radial
    assert rate.survival(xs).tobytes() == np.exp(-2.0 * xs).tobytes()
    for beta in (0.5, 2.0):
        radial = build_builtin_model(dict(F1_CONFIG, **{"radial.family": "weibull",
                                                        "radial.beta": beta})).radial
        assert radial.survival(xs).tobytes() == np.exp(-(xs ** beta)).tobytes(), beta


def test_unknown_family_names_the_offender():
    with pytest.raises(UnknownFamilyError, match="cauchy"):
        build_builtin_model({"radial.family": "cauchy"})


_ASYMMETRIC = {"angular.family": "asymmetric_power", "angular.tau_minus": -0.5,
               "angular.tau_plus": 0.0, "angular.weight_plus": 0.5}
_SYMMETRIC = {"angular.family": "symmetric_power", "angular.tau": 0.5}


# one out-of-range value per key the reader range-checks, the two cancelling
# leading terms of v, and one unknown family per component, with the full
# error text
@pytest.mark.parametrize("extra, error, message", [
    ({"radial.rate": 0.0}, ParameterError, "radial.rate must be > 0, got 0.0"),
    ({"radial.family": "weibull", "radial.beta": -1.0}, ParameterError,
     "radial.beta must be > 0, got -1.0"),
    ({"angular.halfwidth_plus": 0.0}, ParameterError, "angular.halfwidth_plus must be > 0, got 0.0"),
    ({"angular.halfwidth_minus": -0.5}, ParameterError,
     "angular.halfwidth_minus must be >= 0, got -0.5"),
    (dict(_SYMMETRIC, **{"angular.tau": -1.0}), ParameterError, "angular.tau must exceed -1, got -1.0"),
    (dict(_SYMMETRIC, **{"angular.halfwidth": 0.0}), ParameterError,
     "angular.halfwidth must be > 0, got 0.0"),
    (dict(_ASYMMETRIC, **{"angular.tau_minus": -1.5}), ParameterError,
     "angular.tau_minus must exceed -1, got -1.5"),
    (dict(_ASYMMETRIC, **{"angular.tau_plus": -1.0}), ParameterError,
     "angular.tau_plus must exceed -1, got -1.0"),
    (dict(_ASYMMETRIC, **{"angular.weight_plus": 1.0}), ParameterError,
     "angular.weight_plus must be in (0, 1), got 1.0"),
    (dict(_ASYMMETRIC, **{"angular.halfwidth_minus": 0.0}), ParameterError,
     "angular.halfwidth_minus must be > 0, got 0.0"),
    (dict(_ASYMMETRIC, **{"angular.halfwidth_plus": -1.0}), ParameterError,
     "angular.halfwidth_plus must be > 0, got -1.0"),
    ({"shape_u.scale": 0.0}, ParameterError, "shape_u.scale must be > 0, got 0.0"),
    ({"shape_u.kappa_minus": 0.0}, ParameterError, "shape_u.kappa_minus must be > 0, got 0.0"),
    ({"shape_u.kappa_plus": -2.0}, ParameterError, "shape_u.kappa_plus must be > 0, got -2.0"),
    ({"shape_v.family": "power_v", "shape_v.delta": 0.0}, ParameterError,
     "shape_v.delta must be > 0 for the power family, got 0.0"),
    ({"shape_v.family": "power_v", "shape_v.delta": 3.0, "shape_v.coeff": 0.0}, ParameterError,
     "shape_v.coeff must be nonzero"),
    ({"shape_v.family": "theta_polynomial", "shape_v.n": 0, "shape_v.deriv": 1.0}, ParameterError,
     "shape_v.n must be an integer >= 1, got 0"),
    ({"shape_v.family": "theta_polynomial", "shape_v.n": 2, "shape_v.deriv": 0.0}, ParameterError,
     "shape_v.deriv must be nonzero"),
    # rho a s^kappa and -c s^n cancel: 0.5 * 1 = 1/2!
    ({"shape_v.family": "theta_polynomial", "shape_v.n": 2, "shape_v.rho": 0.5, "shape_v.deriv": 1.0},
     ParameterError, "shape_v.deriv: rho * scale * n! = deriv cancels the leading term; "
                     "this degenerate combination is not supported"),
    ({"shape_u.kappa": 1.0, "shape_v.family": "seifert_linear", "shape_v.rho": 1.0}, ParameterError,
     "shape_v.rho: rho * scale = 1 makes the linear term of v vanish; "
     "this degenerate combination is not supported"),
    ({"radial.family": "cauchy"}, UnknownFamilyError, "radial.family: unknown family 'cauchy'"),
    ({"angular.family": "cauchy"}, UnknownFamilyError, "angular.family: unknown family 'cauchy'"),
    ({"shape_u.family": "cauchy"}, UnknownFamilyError, "shape_u.family: unknown family 'cauchy'"),
    ({"shape_v.family": "cauchy"}, UnknownFamilyError, "shape_v.family: unknown family 'cauchy'"),
])
def test_builders_reject_out_of_range_values_naming_the_key(tmp_path, capsys, extra, error, message):
    config = dict(F1_CONFIG, **extra)
    with pytest.raises(error) as exc:
        build_builtin_model(config)
    assert type(exc.value) is error
    assert str(exc.value) == message
    path = tmp_path / "rejected.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in config.items()))
    assert main(["validate", "--config", str(path)]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert f"error: {message}\n" in out.err


# a per-side value read from the shared key: the error names the shared key
@pytest.mark.parametrize("extra, message", [
    ({"angular.halfwidth": -1.0}, "angular.halfwidth must be > 0, got -1.0"),
    ({"angular.halfwidth": -1.0, "angular.halfwidth_plus": 1.0},
     "angular.halfwidth must be >= 0, got -1.0"),
    (dict(_ASYMMETRIC, **{"angular.halfwidth": -1.0}), "angular.halfwidth must be > 0, got -1.0"),
    (dict(_ASYMMETRIC, **{"angular.halfwidth": 0.0, "angular.halfwidth_minus": 1.0}),
     "angular.halfwidth must be > 0, got 0.0"),
    (dict(_ASYMMETRIC, **{"angular.halfwidth": -1.0, "angular.halfwidth_minus": 0.0}),
     "angular.halfwidth_minus must be > 0, got 0.0"),
    ({"shape_u.kappa": -2.0}, "shape_u.kappa must be > 0, got -2.0"),
    ({"shape_u.kappa": 0.0, "shape_u.kappa_minus": 1.0}, "shape_u.kappa must be > 0, got 0.0"),
])
def test_range_errors_name_the_key_the_config_set(extra, message):
    with pytest.raises(ParameterError) as exc:
        build_builtin_model(dict(F1_CONFIG, **extra))
    assert type(exc.value) is ParameterError
    assert str(exc.value) == message


def test_unknown_config_key_rejected():
    with pytest.raises(ConfigError, match="bogus.key"):
        build_builtin_model(dict(F1_CONFIG, **{"bogus.key": "1"}))


def test_missing_radial_family_rejected():
    with pytest.raises(ConfigError, match="radial.family"):
        build_builtin_model({"angular.halfwidth": 1.0})


def test_shapes_declare_no_t0_and_take_keywords_only():
    # a call written for the old field order (u, t0, kappa_minus, ...) would
    # shift t0 into kappa_minus; it fails instead, as does a t0 keyword
    u = lambda t: 1.0 - np.asarray(t, dtype=float) ** 2
    with pytest.raises(TypeError):
        ShapeU(u, 0.0, 2.0, 2.0)
    with pytest.raises(TypeError):
        ShapeU(u=u, t0=0.0, kappa_minus=2.0, kappa_plus=2.0)
    with pytest.raises(TypeError):
        ShapeV(np.sin, 0.0, 0.0, 1.0, -1.0)
    with pytest.raises(TypeError):
        ShapeV(v=np.sin, t0=0.0, rho=0.0, delta=1.0, v_coeff=-1.0)
    assert "t0" not in {f.name for f in dataclasses.fields(ShapeU)} | {f.name for f in dataclasses.fields(ShapeV)}


def test_validate_benchmark_model_passes(f1_model):
    report = validate_model(f1_model)
    assert report.passed
    assert len(report.failures()) == 0
    names = {e.name for e in report.entries}
    assert "radial.gamma_psi_ratio" in names
    assert "angular.normalization" in names
    assert "shape_u.kappa_slope_plus" in names
    gamma = report.entry("radial.gamma_psi_ratio")
    assert gamma.measured <= 0.05


def test_validate_accepts_negative_u_inside_unit_band():
    # u dips to -0.69 at the support edge; allowed as long as |u| <= 1
    report = validate_model(_parabola_model(1.3))
    assert report.passed


def test_validate_flags_u_outside_unit_band():
    report = validate_model(_parabola_model(3.0))
    assert not report.passed
    assert "shape_u.bounded_by_one" in {e.name for e in report.failures()}


def test_validate_flags_second_maximum_of_u():
    # cos(t) on [-2 pi, 2 pi] returns to 1 at the edges, so the sup of u
    # away from the center is not strictly below 1
    ang = _uniform_angular(2.0 * math.pi)
    su = ShapeU(
        u=lambda t: np.cos(np.asarray(t, dtype=float)),
        kappa_minus=2.0,
        kappa_plus=2.0,
    )
    mdl = PolarModel(radial=_radial_exponential(1.0), angular=ang, shape_u=su)
    report = validate_model(mdl)
    assert not report.passed
    failed = {e.name for e in report.failures()}
    assert any(name.startswith("shape_u.sup_outside_eps") for name in failed)


def test_validate_reports_nonfinite_callable_as_failure():
    def bad_u(t):
        t = np.asarray(t, dtype=float)
        return np.where(np.abs(t) > 0.9, np.nan, 1.0 - t**2)

    su = ShapeU(
        u=bad_u, kappa_minus=2.0, kappa_plus=2.0
    )
    mdl = PolarModel(
        radial=_radial_exponential(1.0), angular=_uniform_angular(1.0), shape_u=su
    )
    report = validate_model(mdl)
    assert not report.passed
    assert "callables.finite" in {e.name for e in report.failures()}


@pytest.mark.parametrize("halfwidth", [0.3, 0.04])
def test_validate_passes_a_support_narrower_than_an_eps(halfwidth):
    # no support point lies farther than eps from t0 for eps >= halfwidth:
    # those entries have nothing to read and pass with a NaN
    report = validate_model(build_builtin_model(dict(F1_CONFIG, **{"angular.halfwidth": halfwidth})))
    assert report.passed, [(e.name, e.detail) for e in report.failures()]
    for eps in (0.05, 0.1, 0.5):
        entry = report.entry(f"shape_u.sup_outside_eps_{eps:g}")
        assert math.isnan(entry.measured) == (eps >= halfwidth), entry
        assert entry.detail.startswith("not read") == (eps >= halfwidth), entry


def test_validate_records_a_raising_u_as_failed_entries():
    def u(t):
        t = np.asarray(t, dtype=float)
        if np.any(np.abs(t) > 0.9):
            raise ValueError("u is undefined beyond |t| = 0.9")
        return 1.0 - t ** 2

    su = ShapeU(u=u, kappa_minus=2.0, kappa_plus=2.0)
    mdl = PolarModel(radial=_radial_exponential(1.0), angular=_uniform_angular(1.0), shape_u=su)
    failed = {e.name: e.detail for e in validate_model(mdl).failures()}
    for name in ("shape_u.bounded_by_one", "shape_u.sup_outside_eps_0.05",
                 "shape_u.sup_outside_eps_0.1", "shape_u.sup_outside_eps_0.5",
                 "callables.finite"):
        assert "u is undefined" in failed[name], (name, failed)


def test_level_mass_is_the_side_mass_below_the_passing_deficit(f1_model):
    # Exp(1) radius: a = y; u = 1 - s^2 on a flat side of mass 1/2, so the
    # pairs at level y with s^2 < a / (x + a) pass, a mass of sqrt(...) / 2
    y = np.array([1e-300, 1e-8, 0.5, 3.0, 200.0])
    for x in (0.0, 1.0, 100.0, 1e12):
        for side in (1, -1):
            got = np.asarray(f1_model.side(side).passing_mass(x, f1_model.radial.overshoot(x, y)))
            np.testing.assert_allclose(got, 0.5 * np.sqrt(y / (x + y)), rtol=1e-15)
    # the sampler's acceptance test agrees on either side of the cut
    x, a = 100.0, 3.0
    s = np.sqrt(a / (x + a)) * np.array([1 - 1e-12, 1 + 1e-12])
    d = f1_model.side(1).deficit(s)
    assert (a * (1.0 - d) > x * d).tolist() == [True, False]
    # a cosine side saturates: every pair of the side passes once a / (x +
    # a) reaches the deficit 1 - cos(1) at its edge
    cos = build_builtin_model({"radial.family": "exponential", "angular.halfwidth": 1.0,
                               "shape_u.family": "cosine"})
    edge = 1.0 - math.cos(1.0)
    assert (cos.side(1).width, cos.side(-1).width) == (1.0, 1.0)
    assert cos.side(-1).edge_deficit == pytest.approx(edge, rel=1e-15)
    a_sat = 10.0 * edge / (1.0 - edge)
    y = np.array([0.999 * a_sat, a_sat * 1.001, 1e3])
    got = np.asarray(cos.side(1).passing_mass(10.0, cos.radial.overshoot(10.0, y)))
    assert got[0] < 0.5 and got[1:].tolist() == [0.5, 0.5]


def test_radial_fallbacks_without_closed_forms(f1_model):
    # the Exp(1) law with neither exact_gap nor exact_overshoot: its gap is a
    # difference of log_survival values, its overshoot a tail quantile less x
    plain = dataclasses.replace(f1_model.radial, exact_gap=None, exact_overshoot=None)
    eps = np.finfo(float).eps
    for x in (1.0, 50.0, 1e4):
        d = x * np.geomspace(1e-6, 1.0, 13)
        gap = np.asarray(plain.log_survival_gap(x, d), dtype=float)
        assert np.all(np.abs(gap + d) <= eps * x), x
    mdl = dataclasses.replace(f1_model, radial=plain)
    for x in (10.0, 100.0):
        got = scaled_tail_quadrature(mdl, x, Condition.RIGHT_SIDED).value
        want = scaled_tail_quadrature(f1_model, x, Condition.RIGHT_SIDED).value
        assert got == pytest.approx(want, rel=1e-9), x
    s = sample_conditional(mdl, 50.0, 2000, Condition.RIGHT_SIDED, seed=2)
    assert s.n == 2000
    assert np.all(s.r * mdl.shape_u.u(s.t) > 50.0)


def test_validate_all_builtin_radials_satisfy_gamma_property():
    for extra in (
        {"radial.family": "exponential"},
        {"radial.family": "weibull", "radial.beta": 2.0},
        {"radial.family": "half_normal"},
    ):
        mdl = build_builtin_model(
            dict(extra, **{"angular.halfwidth": 1.0, "shape_u.kappa": 2.0})
        )
        report = validate_model(mdl)
        entry = report.entry("radial.gamma_psi_ratio")
        assert entry.passed, (extra, entry.detail)


def test_validate_angular_slope_detects_declared_index():
    mdl = build_builtin_model(
        {
            "radial.family": "exponential",
            "angular.family": "symmetric_power",
            "angular.halfwidth": 1.0,
            "angular.tau": 1.0,
            "shape_u.kappa": 2.0,
        }
    )
    report = validate_model(mdl)
    assert report.entry("angular.tau_slope_plus").passed
    assert report.entry("angular.tau_slope_minus").passed
    assert report.passed


# angular families whose per-side masses are checked; every case is
# two-sided with unequal sides, and tau covers a singular (< 0) and a
# steep (3) density at t0
SIDE_MASS_CASES = {
    "uniform": {"angular.family": "uniform", "angular.halfwidth_minus": 0.7,
                "angular.halfwidth_plus": 1.3},
    "symmetric_power_tau_neg": {"angular.family": "symmetric_power", "angular.tau": -0.5,
                                "angular.halfwidth": 0.8},
    "symmetric_power_tau_3": {"angular.family": "symmetric_power", "angular.tau": 3.0},
    "asymmetric_power": {"angular.family": "asymmetric_power", "angular.tau_minus": -0.4,
                         "angular.tau_plus": 3.0, "angular.weight_plus": 0.3,
                         "angular.halfwidth_minus": 0.6, "angular.halfwidth_plus": 1.2},
}


def _angular(case, t0):
    cfg = dict(SIDE_MASS_CASES[case], **{"radial.family": "exponential", "angular.t0": t0})
    return build_builtin_model(cfg).angular


@pytest.mark.parametrize("case", sorted(SIDE_MASS_CASES))
def test_side_mass_matches_quadrature_of_the_density(case):
    from polartail.oracle import adaptive_quadrature

    # t0 = 0 gives t full relative resolution next to the singular point;
    # panels halving toward t0 keep every GK15 panel on a smooth piece
    ang = _angular(case, 0.0)
    lo, hi = ang.support
    for side in (-1, 1):
        for s in (1e-6, 1e-3, 0.1, 0.5, 2.0):
            a, b = sorted((0.0, side * s))
            res = adaptive_quadrature(
                ang.density, a, b, rel_tol=1e-14,
                breakpoints=[side * s * 2.0 ** -k for k in range(1, 101)] + [lo, hi],
            )
            assert res.converged
            mass = float(ang.side_mass(side, np.array([s]))[0])
            assert abs(mass / res.value - 1.0) <= 1e-12, (side, s, mass, res.value)


@pytest.mark.parametrize("case", sorted(SIDE_MASS_CASES))
def test_side_mass_inverse_round_trip(case):
    ang = _angular(case, 0.25)
    lo, hi = ang.support
    for side, width in ((-1, 0.25 - lo), (1, hi - 0.25)):
        s = np.geomspace(1e-9 * width, width, 61)
        np.testing.assert_allclose(ang.side_mass_inverse(side, ang.side_mass(side, s)), s,
                                   rtol=1e-13)
        total = float(ang.side_mass(side, np.array([width]))[0])
        m = np.linspace(0.0, total, 61)
        np.testing.assert_allclose(ang.side_mass(side, ang.side_mass_inverse(side, m)), m,
                                   rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("case", sorted(SIDE_MASS_CASES))
def test_side_mass_keeps_full_precision_next_to_t0(case):
    # a CDF difference F(t0 + s) - F(t0) would keep no digit of these masses
    ang = _angular(case, 0.25)
    # at t0 = 0 the point t0 + sigma s is formed exactly, so the density
    # there must match g_coeff s^tau to rounding
    at_zero = _angular(case, 0.0)
    s = 1e-6
    for side, coeff, tau in ((-1, ang.g_coeff_minus, ang.tau_minus),
                             (1, ang.g_coeff_plus, ang.tau_plus)):
        mass = float(ang.side_mass(side, np.array([s]))[0])
        assert mass == pytest.approx(coeff * s ** (1.0 + tau) / (1.0 + tau), rel=1e-15, abs=0.0)
        for d in (1e-6, 1e-3, 0.1, 0.5):
            g = float(at_zero.density(np.array([side * d]))[0])
            assert g == pytest.approx(coeff * d ** tau, rel=1e-15, abs=0.0), (side, d)


@pytest.mark.parametrize("t0", [0.0, -0.61])
@pytest.mark.parametrize("case", sorted(SIDE_MASS_CASES) + ["one_sided_uniform"])
def test_density_edge_rule(case, t0):
    config = SIDE_MASS_CASES.get(case, {"angular.halfwidth_minus": 0.0,
                                        "angular.halfwidth_plus": 1.3})
    ang = build_builtin_model(dict(config, **{"radial.family": "exponential",
                                              "angular.t0": t0})).angular
    lo, hi = ang.support

    def g(t):
        return float(ang.density(np.array([t]))[0])

    # the powers never meet 0^tau with tau < 0, which would warn
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # t0 follows the plus side, whose power at 0 is 1 only for tau = 0
        assert g(t0) == (ang.g_coeff_plus if ang.tau_plus == 0 else 0.0)
        edges = [(1, hi, np.inf)]
        if ang.g_coeff_minus is None:
            assert lo == t0
            assert g(np.nextafter(t0, -np.inf)) == g(t0 - 0.5) == 0.0
        else:
            edges.append((-1, lo, -np.inf))
        for side, edge, beyond in edges:
            coeff, tau = ((ang.g_coeff_plus, ang.tau_plus) if side > 0
                          else (ang.g_coeff_minus, ang.tau_minus))
            width = side * (edge - t0)
            assert g(edge) == pytest.approx(coeff * width ** tau, rel=1e-15, abs=0.0), side
            assert g(np.nextafter(edge, beyond)) == 0.0, side
        assert g(math.nan) == 0.0


def test_builtin_deficit_keeps_full_precision_next_to_t0():
    # 1 - u(t0 + s) computed as a difference is 0.0 at these distances
    power = build_builtin_model(dict(F1_CONFIG, **{"shape_u.scale": 3.0,
                                                   "shape_u.kappa_minus": 1.0}))
    cosine = build_builtin_model({"radial.family": "exponential",
                                  "shape_u.family": "cosine"})
    s = np.array([1e-10])
    assert power.side(1).deficit(s)[0] == pytest.approx(3e-20, rel=1e-15, abs=0.0)
    assert power.side(-1).deficit(s)[0] == pytest.approx(3e-10, rel=1e-15, abs=0.0)
    for side in (-1, 1):
        # 1 - cos s = s^2/2 - s^4/24 + ...
        assert cosine.side(side).deficit(s)[0] == pytest.approx(5e-21, rel=1e-15, abs=0.0)
    assert power.shape_u.u(power.t0 + s)[0] == 1.0


def test_builtin_log_survival_gap_keeps_full_precision_at_large_x():
    def radial(extra):
        return build_builtin_model(dict(extra, **{"angular.halfwidth": 1.0})).radial

    x, d = 1e8, 1e-9
    exponential = radial({"radial.family": "exponential", "radial.rate": 2.0})
    assert exponential.log_survival_gap(x, d) == pytest.approx(-2e-9, rel=1e-15)
    # x^2 - (x + d)^2 = -d (2x + d)
    weibull = radial({"radial.family": "weibull", "radial.beta": 2.0})
    assert weibull.log_survival_gap(x, d) == pytest.approx(-d * (2.0 * x + d), rel=1e-14)
    # Hbar(x) = erfc(x / sqrt 2) ~ sqrt(2/pi) e^{-x^2/2} / x (1 - 1/x^2 + ...)
    half_normal = radial({"radial.family": "half_normal"})
    want = -0.5 * d * (2.0 * x + d) - math.log1p(d / x)
    assert half_normal.log_survival_gap(x, d) == pytest.approx(want, rel=1e-14)


# (x, d, log(erfc((x + d)/sqrt 2) / erfc(x/sqrt 2))) by mpmath at 450 digits,
# at d = 1e-200, 1e-12, 1e-8 and 9e-5 times psi(x) (from x = 1e81 on, 1e-12,
# 1e-8 and 9e-5)
_HALF_NORMAL_SMALL_GAPS = (
    (0.0, 1.2533141373155e-200, -9.9999999999999985116e-201),
    (0.0, 1.2533141373155002e-12, -1.0000000000004999231e-12),
    (0.0, 1.2533141373155002e-08, -1.0000000049999999831e-8),
    (0.0, 0.00011279827235839502, -0.000090004050052147469474),
    (1.0, 6.556795424187984e-201, -9.9999999999999987041e-201),
    (1.0, 6.556795424187984e-13, -1.0000000000001721082e-12),
    (1.0, 6.556795424187984e-09, -1.0000000017216022137e-8),
    (1.0, 5.901115881769186e-05, -0.000090001394501857969485),
    (10.0, 9.902859647173191e-202, -9.9999999999999991427e-201),
    (10.0, 9.902859647173191e-14, -1.0000000000000047734e-12),
    (10.0, 9.902859647173191e-10, -1.0000000000485700683e-8),
    (10.0, 8.912573682455873e-06, -0.000090000039341843108223),
    (1000.0, 9.999990000030001e-204, -1.0000000000000001458e-200),
    (1000.0, 9.99999000003e-16, -1.0000000000000001141e-12),
    (1000.0, 9.999990000030002e-12, -1.0000000000000051688e-8),
    (1000.0, 8.999991000027002e-08, -0.000090000000004050010394),
    # at 40 + 2 log10(x) digits and more, where the quartic series' coefficients
    # overflowed; at x = 1e300, where mpmath's erfc cannot be formed, by the
    # asymptotic series of erfc, which agrees with erfc to 89 digits at 1e150
    (1e+81, 1.0000000000000001e-93, -1.0000000000000000371e-12),
    (1e+81, 1e-89, -9.9999999999999995982e-9),
    (1e+81, 9.000000000000001e-86, -0.000090000000000000002314),
    (1e+100, 9.999999999999998e-113, -9.9999999999999985015e-13),
    (1e+100, 9.999999999999999e-109, -9.9999999999999986622e-9),
    (1e+100, 9e-105, -0.00008999999999999999637),
    (1e+150, 1e-162, -9.9999999999999993492e-13),
    (1e+150, 1e-158, -1.0000000000000000453e-8),
    (1e+150, 9e-155, -0.000090000000000000005773),
    (1e+300, 1e-312, -9.9999999999846539394e-13),
    (1e+300, 1e-308, -9.9999999999999996183e-9),
    (1e+300, 8.999999999999999e-305, -0.000089999999999999998067),
)


# the same at d = 1e-4, 1.01e-4, 2e-4, 1e-3, 2e-3 and 1e-2 times psi(x), on
# both sides of the switch from the Taylor series to the erfcx ratio
_HALF_NORMAL_SWITCH_GAPS = (
    (0.0, 0.00012533141373155, -1.0000500007153275062e-4),
    (0.0, 0.00012658472786886553, -1.0100510057370026995e-4),
    (0.0, 0.0002506628274631, -2.0002000057225265527e-4),
    (0.0, 0.0012533141373155, -1.000500071522145883e-3),
    (0.0, 0.002506628274631, -2.0020005720827701617e-3),
    (0.0, 0.012533141373155001, -1.0050071415941038234e-2),
    (0.3, 0.00010018374009921562, -1.0000349727473129562e-4),
    (0.3, 0.00010118557750020778, -1.0100356757026792024e-4),
    (0.3, 0.00020036748019843124, -2.0001398922225232593e-4),
    (0.3, 0.0010018374009921564, -1.0003497552184186797e-3),
    (0.3, 0.0020036748019843127, -2.0013991441508841096e-3),
    (0.3, 0.010018374009921562, -1.0035003225881279983e-2),
    (1.0, 6.556795424187985e-05, -1.0000172160778141735e-4),
    (1.0, 6.622363378429865e-05, -1.0100175621215385714e-4),
    (1.0, 0.0001311359084837597, -2.0000688645309916584e-4),
    (1.0, 0.0006556795424187985, -1.0001721657217430965e-3),
    (1.0, 0.001311359084837597, -2.0006886848539052837e-3),
    (1.0, 0.006556795424187985, -1.0017221510348729331e-2),
    (3.0, 3.045902987101033e-05, -1.0000043114566756549e-4),
    (3.0, 3.076362016972043e-05, -1.0100043981169699198e-4),
    (3.0, 6.091805974202066e-05, -2.0000172458326313054e-4),
    (3.0, 0.0003045902987101033, -1.0000431147001467391e-3),
    (3.0, 0.0006091805974202066, -2.0001724593933802845e-3),
    (3.0, 0.003045902987101033, -1.0004311603344315031e-2),
    (10.0, 9.902859647173191e-06, -1.0000004857017669591e-4),
    (10.0, 1.0001888243644923e-05, -1.0100004954643724624e-4),
    (10.0, 1.9805719294346383e-05, -2.0000019428070795347e-4),
    (10.0, 9.902859647173191e-05, -1.0000048570179303787e-3),
    (10.0, 0.00019805719294346382, -2.0000194280728782552e-3),
    (10.0, 0.000990285964717319, -1.0000485702053253644e-2),
    (1000.0, 9.999990000030001e-08, -1.0000000000499999828e-4),
    (1000.0, 1.0099989900030301e-07, -1.0100000000510049441e-4),
    (1000.0, 1.9999980000060002e-07, -2.0000000001999996657e-4),
    (1000.0, 9.999990000030001e-07, -1.0000000004999986329e-3),
    (1000.0, 1.9999980000060002e-06, -2.0000000019999942657e-3),
    (1000.0, 9.999990000030002e-06, -1.0000000049999852176e-2),
)


def test_half_normal_gap_keeps_its_digits_far_below_psi():
    # the log of the erfcx ratio is good to a few eps absolute, which was
    # 1e-6 relative at d = 1e-12 psi and every digit at d = 1e-200 psi
    radial = build_builtin_model({"radial.family": "half_normal"}).radial
    for x, d, want in _HALF_NORMAL_SMALL_GAPS:
        got = float(radial.log_survival_gap(x, np.array([d]))[0])
        assert got == pytest.approx(want, rel=1e-13, abs=0.0), (x, d)
    # a cubic series up to 1e-4 psi left the ratio 4e-12 off just above it
    for x, d, want in _HALF_NORMAL_SWITCH_GAPS:
        got = float(radial.log_survival_gap(x, np.array([d]))[0])
        assert got == pytest.approx(want, rel=3e-13, abs=0.0), (x, d)


def _clip_model_laws():
    """The builtin radial laws and a two-sided power angular law with both taus."""
    radials = [build_builtin_model(dict(F1_CONFIG, **extra)).radial for extra in (
        {"radial.family": "exponential", "radial.rate": 2.0},
        {"radial.family": "weibull", "radial.beta": 0.5},
        {"radial.family": "weibull", "radial.beta": 2.0},
        {"radial.family": "half_normal"})]
    return radials, build_builtin_model(TIED_CONFIG).angular


_CLIP_INPUTS = np.array([-np.inf, -2.0, -1e-300, -0.0, 0.0, 1e-300, 0.25, 1.0, 3.0, np.inf, np.nan])


# The laws floor x at 0 with np.maximum and the side masses clamp s to
# [0, width] with np.minimum/np.maximum. On inputs already clamped by
# np.clip those are the identity, so f(clip(v)) is the value np.clip gave.


def test_radial_laws_floor_at_zero_as_clip_did():
    radials, _ = _clip_model_laws()
    floored = np.clip(_CLIP_INPUTS, 0.0, None)
    for radial in radials:
        for fn in (radial.survival, radial.log_survival):
            with np.errstate(all="ignore"):
                got, want = fn(_CLIP_INPUTS), fn(floored)
            assert np.array_equal(got, want, equal_nan=True), fn
            assert np.array_equal(np.signbit(got), np.signbit(want)), fn
        d = np.array([0.0, 1e-3, 0.5, 2.0])
        for x in _CLIP_INPUTS:
            with np.errstate(all="ignore"):
                got, want = radial.exact_gap(x, d), radial.exact_gap(np.clip(x, 0.0, None), d)
            assert np.array_equal(got, want, equal_nan=True), x


def test_power_side_mass_clamps_to_the_side_as_clip_did():
    _, angular = _clip_model_laws()
    for side, width in ((1, 1.0), (-1, 1.0)):
        got = angular.side_mass(side, _CLIP_INPUTS)
        want = angular.side_mass(side, np.clip(_CLIP_INPUTS, 0.0, width))
        assert np.array_equal(got, want, equal_nan=True), side
        # the argument order keeps the sign of a zero too, so the arrays are bit for bit
        assert np.array_equal(np.signbit(got), np.signbit(want)), side


@pytest.mark.parametrize("config", [
    F1_CONFIG,
    {"radial.family": "weibull", "radial.beta": 2.0, "shape_u.kappa_minus": 1.0},
    {"radial.family": "half_normal", "shape_u.family": "cosine"},
    TIED_CONFIG,
], ids=["exponential-power", "weibull-asymmetric-power", "half-normal-cosine", "tied"])
def test_validate_checks_builtin_closed_forms_and_reach(config):
    report = validate_model(build_builtin_model(config))
    assert report.passed, [(e.name, e.detail) for e in report.failures()]
    for name in ("radial.log_survival_gap", "radial.overshoot", "radial.tail_quantile",
                 "angular.side_mass", "angular.side_mass_inverse", "shape_u.deficit",
                 "shape_u.deficit_inverse", "shape_u.monotone_reach"):
        assert report.entry(name).passed, (name, report.entry(name).detail)


def _side_mass_off_the_density(mdl):
    # 10% too much mass, with an inverse that round-trips through it
    ang = mdl.angular
    return dataclasses.replace(mdl, angular=dataclasses.replace(
        ang, side_mass=lambda side, s: 1.1 * ang.side_mass(side, s),
        side_mass_inverse=lambda side, m: ang.side_mass_inverse(side, np.asarray(m) / 1.1)))


def _side_mass_inverse_too_short(mdl):
    ang = mdl.angular
    return dataclasses.replace(mdl, angular=dataclasses.replace(
        ang, side_mass_inverse=lambda side, m: 0.9 * ang.side_mass_inverse(side, m)))


def _deficit_inverse_off_beyond_half_the_width(mdl):
    # u = 1 - t^2 on +-1: the deficit at half the width is 0.25
    su = mdl.shape_u
    return dataclasses.replace(mdl, shape_u=dataclasses.replace(
        su, deficit_inverse=lambda side, d: np.where(np.asarray(d) > 0.25, 1.001, 1.0)
        * su.deficit_inverse(side, d)))


def _overshoot_too_long(mdl):
    radial = mdl.radial
    return dataclasses.replace(mdl, radial=dataclasses.replace(
        radial, exact_overshoot=lambda x, e: (1.0 + 1e-8) * radial.exact_overshoot(x, e)))


def _tail_quantile_too_long(mdl):
    # the overshoot then falls back on the tail quantile
    radial = mdl.radial
    return dataclasses.replace(mdl, radial=dataclasses.replace(
        radial, exact_overshoot=None,
        tail_quantile=lambda p, x: x + 1.1 * (radial.tail_quantile(p, x) - x)))


# each closed form the sampler or the level rule reads, wrong where only
# the entries that read it read it; the side masses also give the CDF
# that angular.sample is read against
@pytest.mark.parametrize("wrong, checks", [
    (_side_mass_off_the_density, {"angular.side_mass", "angular.sample"}),
    (_side_mass_inverse_too_short, {"angular.side_mass_inverse"}),
    (_deficit_inverse_off_beyond_half_the_width, {"shape_u.deficit_inverse"}),
    (_overshoot_too_long, {"radial.overshoot"}),
    (_tail_quantile_too_long, {"radial.tail_quantile"}),
], ids=["side-mass", "side-mass-inverse", "deficit-inverse", "overshoot", "tail-quantile"])
def test_validate_flags_a_wrong_fast_path_closed_form(f1_model, wrong, checks):
    assert {e.name for e in validate_model(wrong(f1_model)).failures()} == checks


def test_validate_flags_a_sampler_off_the_side_masses():
    # the tied model's density with the sampler of weight_plus = 0.3
    mdl = build_builtin_model(TIED_CONFIG)
    wrong = build_builtin_model(dict(TIED_CONFIG, **{"angular.weight_plus": 0.3})).angular.sample
    assert validate_model(mdl).entry("angular.sample").passed
    report = validate_model(dataclasses.replace(mdl, angular=dataclasses.replace(mdl.angular, sample=wrong)))
    assert {e.name for e in report.failures()} == {"angular.sample"}
    assert report.entry("angular.sample").measured > 10.0


def test_angular_sample_is_not_read_without_side_mass():
    entry = validate_model(_parabola_model(1.0)).entry("angular.sample")
    assert entry.passed and math.isnan(entry.measured)
    assert entry.detail.startswith("not read")


def test_validate_flags_wrong_closed_form_deficit(f1_model):
    su = dataclasses.replace(f1_model.shape_u,
                             exact_deficit=lambda side, s: 1.001 * np.asarray(s) ** 2)
    report = validate_model(dataclasses.replace(f1_model, shape_u=su))
    # the true inverse no longer round-trips through the wrong deficit either
    assert {e.name for e in report.failures()} == {"shape_u.deficit", "shape_u.deficit_inverse"}


def test_validate_flags_wrong_deficit_inverse(asym_model):
    # kappa = (1, 2): inverting each side with the other side's kappa
    su = asym_model.shape_u
    swapped = ShapeU(u=su.u, kappa_minus=1.0, kappa_plus=2.0, monotone_reach=math.inf,
                     exact_deficit=su.exact_deficit,
                     deficit_inverse=lambda side, d: np.asarray(d) ** (1.0 if side > 0 else 0.5))
    report = validate_model(dataclasses.replace(asym_model, shape_u=swapped))
    assert {e.name for e in report.failures()} == {"shape_u.deficit_inverse"}
    assert validate_model(dataclasses.replace(
        asym_model, shape_u=dataclasses.replace(swapped, deficit_inverse=su.deficit_inverse))).passed


def test_deficit_inverse_row_covers_the_closed_form_window():
    # a cosine of half-width 4: the reach pi covers the bracket s_max = 2 but
    # not the side, so compute_phi reads the inverse up to 1 - cos 2 = 1.416
    mdl = build_builtin_model({"radial.family": "exponential", "angular.halfwidth": 4.0,
                               "shape_u.family": "cosine"})
    assert validate_model(mdl).entry("shape_u.deficit_inverse").passed
    su = mdl.shape_u

    def off(side, d):  # 1% off above d = 1.2
        d = np.asarray(d, dtype=float)
        return su.deficit_inverse(side, d) * np.where(d > 1.2, 1.01, 1.0)

    bad = dataclasses.replace(mdl, shape_u=dataclasses.replace(su, deficit_inverse=off))
    assert not validate_model(bad).entry("shape_u.deficit_inverse").passed
    with pytest.raises(NonConvergence):
        compute_phi(bad, 0.75)


def test_an_infinite_level_passes_the_whole_side():
    # e = inf is the top of the overshoot's range: a = inf passes every
    # deficit, so the level map reads the whole side there
    models, _ = tail_sweep()
    for name, config in models.items():
        mdl = build_builtin_model(config)
        for x in (0.0, 3.0, 100.0):
            assert mdl.radial.overshoot(x, np.array([1.0, math.inf]))[1] == math.inf, (name, x)
            for facts in mdl.sides(Condition.UNRESTRICTED):
                side = facts.side
                whole = mdl.angular.side_mass(side, np.array([facts.width]))[0]
                a = mdl.radial.overshoot(x, np.array([math.inf]))
                assert facts.passing_mass(x, a)[0] == whole, (name, x, side)


RADIAL_LAWS = {
    "exponential": lambda: _radial_exponential(1.0),
    "weibull-0.5": lambda: _radial_weibull(0.5),
    "weibull-2": lambda: _radial_weibull(2.0),
    "half-normal": _radial_half_normal,
}


@pytest.mark.parametrize("x", [0.0, 3.0, 1e2, 1e4])
@pytest.mark.parametrize("law", sorted(RADIAL_LAWS))
def test_overshoot_is_elementwise(law, x):
    # the sampler splits its levels into chunks at will: no value may
    # depend on the other elements of its call, Newton iterations included
    radial = RADIAL_LAWS[law]()
    e = np.concatenate([np.geomspace(1e-8, 50.0, 120), [math.inf, 0.5 * _OVERSHOOT_SERIES]])
    np.random.default_rng(7).shuffle(e)
    whole = radial.overshoot(x, e)
    assert np.concatenate([radial.overshoot(x, part) for part in np.split(e, [1, 40, 41])]).tobytes() \
        == whole.tobytes()
    assert np.concatenate([radial.overshoot(x, e[i:i + 1]) for i in range(e.size)]).tobytes() \
        == whole.tobytes()


@pytest.mark.parametrize("config", [F1_CONFIG, TIED_CONFIG], ids=["readme", "tied"])
def test_normalization_reads_the_declared_term_and_still_flags_a_scaled_density(config):
    mdl = build_builtin_model(config)
    entry = validate_model(mdl).entry("angular.normalization")
    assert entry.passed and entry.detail.startswith("Kronrod panels")
    adaptive = oracle.adaptive_quadrature(mdl.angular.density, *mdl.angular.support,
                                          rel_tol=1e-12, abs_tol=1e-14, breakpoints=(0.0,))
    assert entry.measured == pytest.approx(adaptive.value, rel=1e-13)
    density = mdl.angular.density
    scaled = dataclasses.replace(mdl, angular=dataclasses.replace(
        mdl.angular, density=lambda t: 1.001 * density(t)))
    assert not validate_model(scaled).entry("angular.normalization").passed


def test_normalization_without_declared_coefficients_is_the_adaptive_integral():
    entry = validate_model(_parabola_model(1.0)).entry("angular.normalization")
    assert entry.passed and entry.detail == ""


def test_normalization_fails_an_unconverged_integral_without_a_measured_value():
    # the Kronrod panels miss their tolerance on this model, and the adaptive
    # integral runs out of panels at an error estimate of about 6e-3
    mdl = build_builtin_model({"radial.family": "exponential", "angular.family": "symmetric_power",
                               "angular.tau": -0.9, "angular.halfwidth": 0.8, "angular.t0": -0.61,
                               "shape_u.family": "cosine"})
    entry = validate_model(mdl).entry("angular.normalization")
    assert not entry.passed and math.isnan(entry.measured) and entry.margin is None
    assert entry.detail.startswith("adaptive integral did not converge: error estimate 0.006")
    assert entry.detail.endswith(" evaluations")


@pytest.mark.filterwarnings("error")
def test_every_sweep_model_validates():
    # Weibull beta = 0.5 converges to the Gamma limit like x^-beta only
    models, _ = tail_sweep()
    for name, config in models.items():
        report = validate_model(build_builtin_model(config))
        assert report.passed, (name, [(e.name, e.detail) for e in report.failures()])


@pytest.mark.parametrize("config", [
    {"radial.family": "exponential", "radial.rate": 2.0},
    {"radial.family": "weibull", "radial.beta": 2.0},
    {"radial.family": "weibull", "radial.beta": 0.5},
    {"radial.family": "half_normal"},
], ids=["exponential", "weibull-b2", "weibull-b0.5", "half-normal"])
def test_validate_flags_wrong_psi(config):
    mdl = build_builtin_model(dict(config, **{"angular.halfwidth": 1.0, "shape_u.kappa": 2.0}))
    psi = mdl.radial.aux_psi
    radial = dataclasses.replace(mdl.radial, aux_psi=lambda x: 2.0 * psi(x))
    report = validate_model(dataclasses.replace(mdl, radial=radial))
    assert {e.name for e in report.failures()} == {"radial.gamma_psi_ratio"}


def test_validate_flags_wrong_closed_form_gap(f1_model):
    radial = dataclasses.replace(f1_model.radial, exact_gap=lambda x, d: -1.001 * np.asarray(d))
    report = validate_model(dataclasses.replace(f1_model, radial=radial))
    # the true overshoot no longer round-trips through the wrong gap either
    assert {e.name for e in report.failures()} == {"radial.log_survival_gap", "radial.overshoot"}


def _nan_like(a):
    return np.full_like(np.asarray(a, dtype=float), np.nan)


# a NaN from a closed form fails the check that compares it, whatever its
# place among the values that check takes the maximum of
@pytest.mark.parametrize("component, field, fn, check", [
    ("shape_u", "exact_deficit", lambda side, s: _nan_like(s), "shape_u.deficit"),
    ("shape_u", "deficit_inverse", lambda side, d: _nan_like(d), "shape_u.deficit_inverse"),
    ("angular", "side_mass_inverse", lambda side, m: _nan_like(m), "angular.side_mass_inverse"),
    ("radial", "exact_overshoot", lambda x, e: _nan_like(e), "radial.overshoot"),
    # NaN only at lambda = 0, the second of the four ratios at each x
    ("radial", "exact_gap", lambda x, d: np.where(np.asarray(d) == 0.0, np.nan, -np.asarray(d)),
     "radial.gamma_psi_ratio"),
], ids=["deficit", "deficit-inverse", "side-mass-inverse", "overshoot", "gap"])
def test_validate_fails_a_nan_closed_form(f1_model, component, field, fn, check):
    part = dataclasses.replace(getattr(f1_model, component), **{field: fn})
    entry = validate_model(dataclasses.replace(f1_model, **{component: part})).entry(check)
    assert not entry.passed
    assert math.isnan(entry.measured)


def test_validate_flags_shape_rising_within_declared_reach():
    # cos t rises again beyond pi, inside the support [-4, 4]
    su = ShapeU(u=lambda t: np.cos(np.asarray(t, dtype=float)),
                kappa_minus=2.0, kappa_plus=2.0,
                monotone_reach=math.inf)
    mdl = PolarModel(radial=_radial_exponential(1.0), angular=_uniform_angular(4.0), shape_u=su)
    report = validate_model(mdl)
    assert {e.name for e in report.failures()} == {"shape_u.monotone_reach"}
    honest = dataclasses.replace(mdl, shape_u=dataclasses.replace(su, monotone_reach=math.pi))
    assert validate_model(honest).passed


@pytest.mark.parametrize("kappas", [(0.5, 0.5), (1.0, 1.0), (2.0, 2.0), (3.0, 3.0),
                                    (1.0, 2.0), (3.0, 0.5)])
def test_power_shape_is_one_minus_scaled_power_per_side(kappas):
    k_minus, k_plus = kappas
    scale = 0.75
    mdl = build_builtin_model({
        "radial.family": "exponential", "angular.halfwidth": 1.0,
        "shape_u.kappa_minus": k_minus, "shape_u.kappa_plus": k_plus,
        "shape_u.scale": scale,
    })
    t0 = mdl.t0
    assert mdl.shape_u.u(np.array([t0]))[0] == 1.0
    s = np.concatenate([np.random.default_rng(5).uniform(-1.0, 1.0, 4000), [-1.0, 1.0]])
    u = mdl.shape_u.u(t0 + s)
    libm = np.array([1.0 - scale * math.pow(abs(v), k_plus if v >= 0 else k_minus) for v in s])
    # u is a difference of terms of size up to 1 and NumPy's power may
    # round differently from libm's, so the unit is one ulp of 1
    assert np.all(np.abs(u - libm) <= np.spacing(1.0))
    assert np.all(u[s == 1.0] == 1.0 - scale) and np.all(u[s == -1.0] == 1.0 - scale)


# Second shapes on u_tilde(s) = a s^kappa with a = 1.5, for kappa below, at
# and above delta: (shape_v keys, kappa, closed-form (delta, v_coeff, C)).
# v_tilde(s) ~ v_coeff s^delta; C = lim u_tilde / v_tilde is 0 above delta,
# a / v_coeff on a tie and None below.
SINE = {"shape_v.family": "sine"}                   # v_tilde = -sin s ~ -s
SEIFERT_0 = {"shape_v.family": "seifert_linear"}    # -s (1 - u_tilde) ~ -s
SEIFERT_RHO = dict(SEIFERT_0, **{"shape_v.rho": 0.4})   # + 0.4 u_tilde
POWER = {"shape_v.family": "power_v", "shape_v.rho": 0.3, "shape_v.delta": 2.0,
         "shape_v.coeff": -0.5}                     # -0.5 s^2
THETA_0 = {"shape_v.family": "theta_polynomial", "shape_v.n": 2, "shape_v.deriv": 1.0}
THETA_RHO = dict(THETA_0, **{"shape_v.rho": 0.4})   # 0.4 u_tilde - s^2 (1 - u_tilde) / 2
SECOND_SHAPE_REGIMES = [
    (SINE, 0.5, (1.0, -1.0, None)),
    (SINE, 1.0, (1.0, -1.0, -1.5)),
    (SINE, 2.0, (1.0, -1.0, 0.0)),
    (SEIFERT_0, 0.5, (1.0, -1.0, None)),
    (SEIFERT_0, 1.0, (1.0, -1.0, -1.5)),
    (SEIFERT_0, 2.0, (1.0, -1.0, 0.0)),
    (SEIFERT_RHO, 0.5, (0.5, 0.6, 2.5)),            # 1 / rho
    (SEIFERT_RHO, 1.0, (1.0, -0.4, -3.75)),         # 0.6 - 1
    (SEIFERT_RHO, 2.0, (1.0, -1.0, 0.0)),
    (POWER, 1.0, (2.0, -0.5, None)),
    (POWER, 2.0, (2.0, -0.5, -3.0)),
    (POWER, 3.0, (2.0, -0.5, 0.0)),
    (THETA_0, 1.0, (2.0, -0.5, None)),
    (THETA_RHO, 1.0, (1.0, 0.6, 2.5)),
    (THETA_RHO, 2.0, (2.0, 0.1, 15.0)),             # 0.6 - 0.5
    (THETA_RHO, 3.0, (2.0, -0.5, 0.0)),
]


@pytest.mark.parametrize("extra, kappa, expected", SECOND_SHAPE_REGIMES,
                         ids=lambda v: v.get("shape_v.family") if isinstance(v, dict) else None)
def test_second_shape_regime_follows_kappa_against_delta(extra, kappa, expected):
    mdl = build_builtin_model(dict(F1_CONFIG, **extra, **{
        "shape_u.kappa": kappa, "shape_u.scale": 1.5}))
    delta, v_coeff, ratio_c = expected
    assert mdl.shape_v.delta == delta
    assert mdl.shape_v.v_coeff == pytest.approx(v_coeff, rel=1e-14, abs=0.0)
    if ratio_c is None:
        with pytest.raises(CaseMismatch):
            corollary_case(mdl, "ratio_c")
    else:
        c = corollary_case(mdl, "ratio_c").ratio_c
        assert c == pytest.approx(ratio_c, rel=1e-14, abs=0.0)


# Custom second shapes on u = 1 - t^2 (kappa = 2, t0 = 0) that copy a
# builtin, with right and wrong declarations of the leading term and of theta
def _custom_v(v, rho, delta, v_coeff, theta=(None, None)):
    return ShapeV(v=v, rho=rho, delta=delta, v_coeff=v_coeff,
                  theta_n=theta[0], theta_n_deriv_at_t0=theta[1])


def _seifert(rho):
    # (t + rho) u: theta = rho + s, v_tilde ~ -s, C = 0
    return lambda t: (np.asarray(t, dtype=float) + rho) * (1.0 - np.asarray(t, dtype=float) ** 2)


def _shape_v_report(f1_model, sv):
    report = validate_model(dataclasses.replace(f1_model, shape_v=sv))
    return report, {e.name for e in report.entries if e.name.startswith("shape_v.")}


def test_validate_passes_a_custom_copy_of_the_seifert_shape(f1_model):
    report, names = _shape_v_report(
        f1_model, _custom_v(_seifert(0.3), 0.3, 1.0, -1.0, theta=(1, 1.0)))
    assert {"shape_v.v_coeff", "shape_v.theta"} <= names
    assert report.passed, report.failures()


def _power_v(rho, coeff):
    # rho - coeff t^2 on both sides: v_tilde = coeff s^2
    return lambda t: rho - coeff * np.asarray(t, dtype=float) ** 2


def _with_v(sv):
    return lambda mdl: dataclasses.replace(mdl, shape_v=sv)


def _kappa_plus_8(mdl):
    # u = 1 - t^2 without its closed-form deficit, declared as u_tilde ~ s^8 on
    # the plus side: s^8 stays below 1e-8 on the slope grid, where u_tilde =
    # s^2 does not
    return dataclasses.replace(mdl, shape_u=dataclasses.replace(
        mdl.shape_u, kappa_plus=8.0, exact_deficit=None, deficit_inverse=None))


@pytest.mark.parametrize("change, entry", [
    # seifert_linear: theta'(t0) = 1, not 2
    (_with_v(_custom_v(_seifert(0.3), 0.3, 1.0, -1.0, theta=(1, 2.0))), "shape_v.theta"),
    # v = (rho + 2s) u: theta'(t0) = 2, not 1
    (_with_v(_custom_v(lambda t: (0.3 + 2.0 * np.asarray(t, dtype=float))
                       * (1.0 - np.asarray(t, dtype=float) ** 2), 0.3, 1.0, -2.0,
                       theta=(1, 1.0))), "shape_v.theta"),
    # v = (rho + 2s) u has theta of order 1, not 30; d s^30/30! is below
    # resolution on the whole support, so v/u - rho must be too
    (_with_v(_custom_v(lambda t: (0.3 + 2.0 * np.asarray(t, dtype=float))
                       * (1.0 - np.asarray(t, dtype=float) ** 2), 0.3, 1.0, -2.0,
                       theta=(30, 1.0))), "shape_v.theta"),
    # power_v with coeff 0.5: v_tilde = 0.5 s^2, declared with the other sign
    (_with_v(_custom_v(_power_v(0.5, 0.5), 0.5, 2.0, -0.5)), "shape_v.v_coeff"),
    # the same v declared with a coefficient 2x off
    (_with_v(_custom_v(_power_v(0.5, 0.5), 0.5, 2.0, 1.0)), "shape_v.v_coeff"),
    # the unresolved branch: the slope entry bounds u_tilde by 1e-8, and the
    # coefficient entry has no resolved point to read
    (_kappa_plus_8, "shape_u.kappa_slope_plus"),
], ids=["seifert-slope", "double-slope", "order-30-of-a-slope", "wrong-sign-v-coeff",
        "v-coeff-2x-off", "kappa-8-on-a-parabola"])
def test_validate_flags_a_wrong_second_shape_declaration(f1_model, change, entry):
    report = validate_model(change(f1_model))
    assert {e.name for e in report.failures()} == {entry}


# a declared term is read where it stands clear of the rounding of the value
# it cancels against, and bounded where it does not: theta - rho = d s^n/n!
# near the support's edge at n = 170 (1/170! is about 1.4e-307), and v's
# s^5 against rho = 0.3, which stays below 1e-8 rho on the whole slope grid
# 1e-4..1e-2; 4 s^4.5 against rho = 0.3 clears it only near 1e-2 and rounds
# to 0 at 1e-4. u's closed-form deficits s^5 and s^8 are read however small.
# On kappa = 4 with n = 3, v_tilde = -(d/6) s^3 (1 - 6 rho s/d) + ... is
# resolved only near 1e-2, where the next-order term is 10-30% of it; both
# readings let a next-order term linear in s drop out
@pytest.mark.parametrize("extra", [
    {"shape_v.family": "theta_polynomial", "shape_v.n": 4, "shape_v.rho": 0.5, "shape_v.deriv": 1.0},
    {"shape_v.family": "theta_polynomial", "shape_v.n": 6, "shape_v.rho": 0.5, "shape_v.deriv": 1.0},
    {"shape_v.family": "theta_polynomial", "shape_v.n": 30, "shape_v.rho": 0.5, "shape_v.deriv": 1.0},
    {"shape_v.family": "theta_polynomial", "shape_v.n": 170, "shape_v.rho": 0.0, "shape_v.deriv": 1.0},
    {"shape_u.kappa": 5.0},
    {"shape_u.kappa_minus": 8.0, "shape_u.kappa_plus": 2.0},
    {"shape_v.family": "power_v", "shape_v.delta": 5.0, "shape_v.rho": 0.3},
    {"shape_v.family": "power_v", "shape_v.delta": 4.5, "shape_v.coeff": 4.0, "shape_v.rho": 0.3},
    {"shape_u.kappa": 4.0, "shape_v.family": "theta_polynomial", "shape_v.n": 3, "shape_v.rho": -5.0,
     "shape_v.deriv": 1.0},
    {"shape_u.kappa": 4.0, "shape_v.family": "theta_polynomial", "shape_v.n": 3, "shape_v.rho": 3.0,
     "shape_v.deriv": 1.0},
], ids=["theta-n4", "theta-n6", "theta-n30", "theta-n170-rho0", "kappa-5", "kappa-minus-8",
        "power-v-delta5", "power-v-delta4.5", "kappa-4-n3-rho-5", "kappa-4-n3-rho3"])
def test_validate_reads_high_theta_orders_where_they_are_resolved(extra):
    report = validate_model(build_builtin_model(dict(F1_CONFIG, **extra)))
    assert report.passed, [(e.name, e.detail) for e in report.failures()]


def test_validate_reads_a_closed_form_deficit_however_small():
    # builtin u = 1 - s^5 declared with kappa 12: s^12 stays below 1e-8 on the
    # whole grid, but the closed-form deficit is read there, not bounded
    mdl = build_builtin_model(dict(F1_CONFIG, **{"shape_u.kappa": 5.0}))
    wrong = dataclasses.replace(mdl, shape_u=dataclasses.replace(mdl.shape_u, kappa_plus=12.0))
    report = validate_model(wrong)
    assert {e.name for e in report.failures()} == {"shape_u.kappa_slope_plus", "shape_u.u_coeff_plus"}
    assert report.entry("shape_u.kappa_slope_plus").measured == pytest.approx(5.0)


def test_validate_reads_no_coefficient_where_the_term_is_not_resolved(f1_model):
    report = validate_model(_kappa_plus_8(f1_model))
    e = report.entry("shape_u.u_coeff_plus")
    assert e.passed and math.isnan(e.measured) and e.detail.startswith("not read")


def test_shape_v_declares_theta_order_and_coefficient_together():
    with pytest.raises(ParameterError, match="declared together"):
        _custom_v(_seifert(0.3), 0.3, 1.0, -1.0, theta=(1, None))


@pytest.mark.parametrize("delta, v_coeff, theta, match", [
    (math.nan, -1.0, (None, None), "delta"),
    (math.inf, -1.0, (None, None), "delta"),
    (1.0, math.nan, (None, None), "v_coeff"),
    (1.0, math.inf, (None, None), "v_coeff"),
    (1.0, 0.0, (None, None), "v_coeff"),
    (1.0, -1.0, (1.5, 1.0), "theta_n"),
    (1.0, -1.0, (1, math.nan), "theta_n_deriv_at_t0"),
    (1.0, -1.0, (1, math.inf), "theta_n_deriv_at_t0"),
    (1.0, -1.0, (1, 0.0), "theta_n_deriv_at_t0"),
], ids=["nan-delta", "inf-delta", "nan-v-coeff", "inf-v-coeff", "zero-v-coeff",
        "fractional-theta-n", "nan-theta-deriv", "inf-theta-deriv", "zero-theta-deriv"])
def test_shape_v_rejects_a_malformed_declaration(delta, v_coeff, theta, match):
    with pytest.raises(ParameterError, match=match):
        _custom_v(_seifert(0.3), 0.3, delta, v_coeff, theta=theta)

"""Model construction, configuration parsing, and self-validation."""

import dataclasses
import math

import numpy as np
import pytest

from polartail import (
    AngularLaw,
    CaseMismatch,
    Condition,
    ConfigError,
    ParameterError,
    PolarModel,
    ShapeU,
    ShapeV,
    UnknownFamilyError,
    build_builtin_model,
    corollary_case,
    load_config,
    limit_law,
    sample_conditional,
    scaled_tail_quadrature,
    tail_asymptotic,
    validate_model,
)
from polartail.model import _radial_exponential, parse_config_text

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
        t0=0.0,
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
    assert mdl.sides(Condition.UNRESTRICTED) == ((1, 1.0),)


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
        t0=0.0,
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
        assert one.sides(cond) == ((1, 1.0),)
    assert two.sides(Condition.RIGHT_SIDED) == ((1, 1.0),)
    assert two.sides(Condition.UNRESTRICTED) == ((1, 1.0), (-1, 1.0))


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
    for extra in (
        {"radial.family": "weibull", "radial.beta": 2.0},
        {"radial.family": "half_normal"},
    ):
        mdl = build_builtin_model(
            dict(extra, **{"angular.halfwidth": 1.0, "shape_u.kappa": 2.0})
        )
        s = mdl.radial.survival(np.array([0.0, 1.0, 3.0]))
        assert s[0] == pytest.approx(1.0, rel=1e-12)
        assert np.all(np.diff(s) < 0.0)
        logs = mdl.radial.log_survival(np.array([1.0, 3.0]))
        np.testing.assert_allclose(np.exp(logs), s[1:], rtol=1e-12)


def test_unknown_family_names_the_offender():
    with pytest.raises(UnknownFamilyError, match="cauchy"):
        build_builtin_model({"radial.family": "cauchy"})


def test_unknown_config_key_rejected():
    with pytest.raises(ConfigError, match="bogus.key"):
        build_builtin_model(dict(F1_CONFIG, **{"bogus.key": "1"}))


def test_missing_radial_family_rejected():
    with pytest.raises(ConfigError, match="radial.family"):
        build_builtin_model({"angular.halfwidth": 1.0})


def test_shape_center_mismatch_rejected():
    ang = _uniform_angular(1.0)
    su = ShapeU(
        u=lambda t: 1.0 - np.asarray(t, dtype=float) ** 2,
        t0=0.25,
        kappa_minus=2.0,
        kappa_plus=2.0,
    )
    with pytest.raises(ParameterError):
        PolarModel(radial=_radial_exponential(1.0), angular=ang, shape_u=su)


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
        t0=0.0,
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
        u=bad_u, t0=0.0, kappa_minus=2.0, kappa_plus=2.0
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

    su = ShapeU(u=u, t0=0.0, kappa_minus=2.0, kappa_plus=2.0)
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
            got = np.asarray(f1_model.level_mass(x, side, y))
            np.testing.assert_allclose(got, 0.5 * np.sqrt(y / (x + y)), rtol=1e-15)
    # the sampler's acceptance test agrees on either side of the cut
    x, a = 100.0, 3.0
    s = np.sqrt(a / (x + a)) * np.array([1 - 1e-12, 1 + 1e-12])
    d = f1_model.shape_u.deficit(1, s)
    assert (a * (1.0 - d) > x * d).tolist() == [True, False]
    # a cosine side saturates: every pair of the side passes once a / (x +
    # a) reaches the deficit 1 - cos(1) at its edge
    cos = build_builtin_model({"radial.family": "exponential", "angular.halfwidth": 1.0,
                               "shape_u.family": "cosine"})
    edge = 1.0 - math.cos(1.0)
    assert (cos.side_width(1), cos.side_width(-1)) == (1.0, 1.0)
    assert cos.edge_deficit(-1) == pytest.approx(edge, rel=1e-15)
    a_sat = 10.0 * edge / (1.0 - edge)
    got = np.asarray(cos.level_mass(10.0, 1, np.array([0.999 * a_sat, a_sat * 1.001, 1e3])))
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



def test_builtin_deficit_keeps_full_precision_next_to_t0():
    # 1 - u(t0 + s) computed as a difference is 0.0 at these distances
    power = build_builtin_model(dict(F1_CONFIG, **{"shape_u.scale": 3.0,
                                                   "shape_u.kappa_minus": 1.0})).shape_u
    cosine = build_builtin_model({"radial.family": "exponential",
                                  "shape_u.family": "cosine"}).shape_u
    s = np.array([1e-10])
    assert power.deficit(1, s)[0] == pytest.approx(3e-20, rel=1e-15, abs=0.0)
    assert power.deficit(-1, s)[0] == pytest.approx(3e-10, rel=1e-15, abs=0.0)
    for side in (-1, 1):
        # 1 - cos s = s^2/2 - s^4/24 + ...
        assert cosine.deficit(side, s)[0] == pytest.approx(5e-21, rel=1e-15, abs=0.0)
    assert power.u_tilde(s)[0] == 0.0


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


@pytest.mark.parametrize("config", [
    F1_CONFIG,
    {"radial.family": "weibull", "radial.beta": 2.0, "shape_u.kappa_minus": 1.0},
    {"radial.family": "half_normal", "shape_u.family": "cosine"},
    TIED_CONFIG,
], ids=["exponential-power", "weibull-asymmetric-power", "half-normal-cosine", "tied"])
def test_validate_checks_builtin_closed_forms_and_reach(config):
    report = validate_model(build_builtin_model(config))
    assert report.passed, [(e.name, e.detail) for e in report.failures()]
    for name in ("radial.log_survival_gap", "radial.overshoot", "angular.side_mass",
                 "angular.side_mass_inverse", "shape_u.deficit", "shape_u.deficit_inverse",
                 "shape_u.monotone_reach"):
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


# each closed form the sampler or the level rule reads, wrong where only
# its own entry reads it
@pytest.mark.parametrize("wrong, check", [
    (_side_mass_off_the_density, "angular.side_mass"),
    (_side_mass_inverse_too_short, "angular.side_mass_inverse"),
    (_deficit_inverse_off_beyond_half_the_width, "shape_u.deficit_inverse"),
    (_overshoot_too_long, "radial.overshoot"),
], ids=["side-mass", "side-mass-inverse", "deficit-inverse", "overshoot"])
def test_validate_flags_a_wrong_fast_path_closed_form(f1_model, wrong, check):
    assert {e.name for e in validate_model(wrong(f1_model)).failures()} == {check}


def test_validate_flags_wrong_closed_form_deficit(f1_model):
    su = dataclasses.replace(f1_model.shape_u,
                             exact_deficit=lambda side, s: 1.001 * np.asarray(s) ** 2)
    report = validate_model(dataclasses.replace(f1_model, shape_u=su))
    # the true inverse no longer round-trips through the wrong deficit either
    assert {e.name for e in report.failures()} == {"shape_u.deficit", "shape_u.deficit_inverse"}


def test_validate_flags_wrong_deficit_inverse(asym_model):
    # kappa = (1, 2): inverting each side with the other side's kappa
    su = asym_model.shape_u
    swapped = ShapeU(u=su.u, t0=su.t0, kappa_minus=1.0, kappa_plus=2.0, monotone_reach=math.inf,
                     exact_deficit=su.exact_deficit,
                     deficit_inverse=lambda side, d: np.asarray(d) ** (1.0 if side > 0 else 0.5))
    report = validate_model(dataclasses.replace(asym_model, shape_u=swapped))
    assert {e.name for e in report.failures()} == {"shape_u.deficit_inverse"}
    assert validate_model(dataclasses.replace(
        asym_model, shape_u=dataclasses.replace(swapped, deficit_inverse=su.deficit_inverse))).passed


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
    su = ShapeU(u=lambda t: np.cos(np.asarray(t, dtype=float)), t0=0.0,
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
    return ShapeV(v=v, t0=0.0, rho=rho, delta=delta, v_coeff=v_coeff,
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

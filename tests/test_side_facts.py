"""The per-side record of a model: ``PolarModel.side`` and ``SideFacts``."""

import dataclasses
import math

import numpy as np
import pytest

from polartail import (
    BracketError,
    Condition,
    LimitSide,
    ParameterError,
    asymptotics,
    build_builtin_model,
    compute_normalizers,
    compute_phi,
    limit_law,
    scaled_tail_quadrature,
    tail_asymptotic,
    validate_model,
)
from polartail.limitlaw import gamma_shape
from polartail.model import _angular_uniform

from conftest import ASYM_CONFIG, F1_CONFIG, TIED_CONFIG, tail_sweep

GAUSSIAN_PAIR = {
    "radial.family": "weibull",
    "radial.beta": 2.0,
    "angular.halfwidth": math.pi,
    "shape_u.family": "cosine",
}


def _record_models():
    models, _ = tail_sweep()
    return dict(models, tied=TIED_CONFIG, gaussian_pair=GAUSSIAN_PAIR)


@pytest.mark.parametrize("name, config", list(_record_models().items()))
def test_record_equals_the_per_call_values(name, config):
    mdl = build_builtin_model(config)
    ang, su = mdl.angular, mdl.shape_u
    lo, hi = ang.support
    for side in (1, -1):
        facts = mdl.side(side)
        width = hi - mdl.t0 if side > 0 else mdl.t0 - lo
        name, kappa, tau, g_coeff, u_coeff = (
            ("plus", su.kappa_plus, ang.tau_plus, ang.g_coeff_plus, su.u_coeff_plus) if side > 0
            else ("minus", su.kappa_minus, ang.tau_minus, ang.g_coeff_minus, su.u_coeff_minus))
        assert (facts.side, facts.name, facts.width, facts.s_max) == (side, name, width, width / 2.0)
        assert (facts.kappa, facts.tau, facts.g_coeff, facts.u_coeff) == (kappa, tau, g_coeff, u_coeff)
        assert facts.edge_deficit == float(su.exact_deficit(side, np.array([width]))[0])
        assert facts.bracket_deficit == float(su.exact_deficit(side, np.array([width / 2.0]))[0])
        assert facts.mass == float(ang.side_mass(side, np.array([width]))[0])
        assert facts.has_level_map == (su.monotone_reach >= width)
        assert facts.e == gamma_shape(kappa, tau)
        assert facts.limit == LimitSide(kappa, tau)
        assert facts.limit.norm_const == kappa / math.gamma(facts.e)
        # built once: every read returns the same objects
        assert mdl.side(side) is facts and facts.limit is mdl.side(side).limit
    # sides hands out the same records, plus side first, the tuple built once
    two_sided = lo < mdl.t0
    plus = (mdl.side(1),)
    assert mdl.sides(Condition.RIGHT_SIDED) == plus
    assert mdl.sides(Condition.UNRESTRICTED) == (plus + (mdl.side(-1),) if two_sided else plus)
    for cond in Condition:
        assert mdl.sides(cond) is mdl.sides(cond)
        assert all(a is b for a, b in zip(mdl.sides(cond), plus + (mdl.side(-1),)))


def test_a_fact_the_model_lacks_is_none(f1_model):
    mdl = dataclasses.replace(
        f1_model, angular=dataclasses.replace(f1_model.angular, side_mass=None, side_mass_inverse=None))
    assert mdl.side(1).mass is None and not mdl.side(1).has_level_map
    assert f1_model.side(1).mass == 0.5
    # the side masses and their inverse are declared together
    for name in ("side_mass", "side_mass_inverse"):
        with pytest.raises(ParameterError, match="declared together"):
            dataclasses.replace(f1_model.angular, **{name: None})


def _counting_readme_model():
    """The README model with a closed-form deficit that logs every distance it is read at."""
    mdl = build_builtin_model(F1_CONFIG)
    deficit, reads = mdl.shape_u.exact_deficit, []

    def counting(side, s):
        reads.extend(np.atleast_1d(np.asarray(s, dtype=float)).tolist())
        return deficit(side, s)

    return dataclasses.replace(
        mdl, shape_u=dataclasses.replace(mdl.shape_u, exact_deficit=counting)), reads


def test_a_second_threshold_reads_no_edge_or_bracket_deficit():
    mdl, reads = _counting_readme_model()
    cond = Condition.UNRESTRICTED
    edge_and_bracket = {mdl.side(side).width for side in (1, -1)} | \
        {mdl.side(side).s_max for side in (1, -1)}

    def run(x):
        scaled_tail_quadrature(mdl, x, cond)
        for facts in mdl.sides(cond):
            compute_phi(mdl, x, facts.side)
        tail_asymptotic(mdl, x, cond)

    run(10.0)
    assert edge_and_bracket <= set(reads)
    reads.clear()
    run(1e3)
    assert reads  # the residual of each window is still read at its root
    assert not edge_and_bracket & set(reads), sorted(edge_and_bracket & set(reads))


def test_replace_builds_a_fresh_record(f1_model):
    assert f1_model.side(1).width == 1.0 and f1_model.sides(Condition.UNRESTRICTED)[0] is f1_model.side(1)
    wide = dataclasses.replace(f1_model, angular=_angular_uniform(0.0, 2.0, 2.0))
    assert wide.side(1).width == wide.side(-1).width == 2.0
    assert [(f.side, f.width) for f in wide.sides(Condition.UNRESTRICTED)] == [(1, 2.0), (-1, 2.0)]
    assert wide.sides(Condition.UNRESTRICTED)[0] is not f1_model.side(1)
    assert wide.side(1).mass == 0.5 and wide.side(1).edge_deficit == 4.0
    assert f1_model.side(1).width == 1.0


def test_a_deficit_that_fails_at_the_edge_fails_only_the_edge_readers(f1_model):
    def deficit(side, s):
        s = np.asarray(s, dtype=float)
        if np.any(s >= 1.0):
            raise FloatingPointError("no deficit at the edge")
        return s ** 2

    mdl = dataclasses.replace(f1_model, shape_u=dataclasses.replace(f1_model.shape_u,
                                                                   exact_deficit=deficit))
    assert compute_phi(mdl, 10.0).phi == pytest.approx(math.sqrt(0.1), rel=1e-15)
    assert asymptotics.tail_asymptotic(mdl, 10.0) > 0.0
    for _ in range(2):  # a failed read is not kept
        with pytest.raises(FloatingPointError):
            mdl.side(1).edge_deficit
    with pytest.raises(FloatingPointError):
        scaled_tail_quadrature(mdl, 10.0, Condition.RIGHT_SIDED)
    report = validate_model(mdl)
    assert "shape_u.deficit_inverse" in {e.name for e in report.failures()}


def _asymmetric_power(tau, kappa, weight_plus):
    """Exp(1) radius and the asymmetric power law with (minus, plus) ``tau`` and ``kappa``."""
    return build_builtin_model({
        "radial.family": "exponential", "angular.family": "asymmetric_power",
        "angular.tau_minus": tau[0], "angular.tau_plus": tau[1],
        "angular.weight_plus": weight_plus, "angular.halfwidth": 1.0,
        "shape_u.kappa_minus": kappa[0], "shape_u.kappa_plus": kappa[1],
    })


def test_a_mirrored_model_swaps_every_side_reading():
    # the mirror about t0 swaps the plus and minus declarations, so a
    # reader that picks the wrong side's field breaks the symmetry; 1 - 0.7
    # rounds differently from 0.3 and the tau slopes sit near 0, hence the
    # absolute bound beside the relative one
    mdl = _asymmetric_power((-0.5, 0.0), (1.0, 2.0), 0.3)
    mirror = _asymmetric_power((0.0, -0.5), (2.0, 1.0), 0.7)
    cond = Condition.UNRESTRICTED

    def close(value):
        return pytest.approx(value, rel=1e-12, abs=1e-12)

    for x in (0.5, 10.0, 1e4):
        assert scaled_tail_quadrature(mdl, x, cond).value == \
            close(scaled_tail_quadrature(mirror, x, cond).value), x
        if x < 1.0:  # psi(x) / x = 2 lies beyond both window brackets
            for m in (mdl, mirror):
                with pytest.raises(BracketError):
                    compute_normalizers(m, x, cond)
                with pytest.raises(BracketError):
                    tail_asymptotic(m, x, cond, scaled=True)
            continue
        assert tail_asymptotic(mdl, x, cond, scaled=True) == \
            close(tail_asymptotic(mirror, x, cond, scaled=True)), x
        norm, flipped = compute_normalizers(mdl, x, cond), compute_normalizers(mirror, x, cond)
        assert (norm.phi_plus, norm.phi_minus) == (close(flipped.phi_minus), close(flipped.phi_plus))

    law, flipped = limit_law(mdl, cond), limit_law(mirror, cond)
    assert (law.plus, law.minus) == (flipped.minus, flipped.plus)
    assert (law.p_plus, law.p_minus) == (close(flipped.p_minus), close(flipped.p_plus))
    assert (law.prob_plus, law.prob_minus) == (close(flipped.prob_minus), close(flipped.prob_plus))

    report, flipped = validate_model(mdl), validate_model(mirror)
    assert report.passed and flipped.passed
    swap = {"plus": "minus", "minus": "plus"}
    per_side = [e for e in report.entries if e.name.rpartition("_")[2] in swap]
    assert len(per_side) == 8
    for entry in per_side:
        head, _, name = entry.name.rpartition("_")
        assert entry.measured == close(flipped.entry(f"{head}_{swap[name]}").measured), entry.name


@pytest.mark.parametrize("which", ["slow_p", "asym_t0"])
def test_deficit_without_a_closed_form_is_the_difference_about_the_angular_t0(which, slow_p_model):
    # the custom kappa = (1, 4) model declares no exact_deficit; the builtin
    # kappa = (1, 2) model is read about t0 = 0.3 with its closed form taken away
    if which == "slow_p":
        mdl = slow_p_model
    else:
        mdl = build_builtin_model(dict(ASYM_CONFIG, **{"angular.t0": 0.3}))
        mdl = dataclasses.replace(mdl, shape_u=dataclasses.replace(mdl.shape_u, exact_deficit=None))
    t0, u = mdl.angular.t0, mdl.shape_u.u
    s = np.geomspace(1e-9, 1.0, 40)
    for side in (1, -1):
        got = np.asarray(mdl.side(side).deficit(s), dtype=float)
        want = float(np.asarray(u(np.array([t0])))[0]) - u(t0 + side * s)
        assert got.tobytes() == np.asarray(want, dtype=float).tobytes(), side

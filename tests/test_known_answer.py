"""Known answers: models whose tail is a classical special function.

The Gaussian pair: R^2 ~ Exp(1) (Weibull radius, beta = 2) and T uniform
on (-pi, pi) make (R cos T, R sin T) two independent N(0, 1/2) variables.
So with u = cos, X = R u(T) is N(0, 1/2), P{X > x} = erfc(x)/2, and the
scaled tail P{X > x} / Hbar(x), Hbar(x) = exp(-x^2), is erfcx(x)/2.
"""

import math

import pytest
from scipy import special

from polartail import Condition, build_builtin_model, oracle, scaled_tail_quadrature, validate_model

GAUSSIAN_PAIR = {
    "radial.family": "weibull",
    "radial.beta": 2.0,
    "angular.halfwidth": math.pi,
    "shape_u.family": "cosine",
}


@pytest.fixture(scope="module")
def gaussian_pair():
    return build_builtin_model(GAUSSIAN_PAIR)


@pytest.mark.parametrize("x", [3.0, 10.0, 1e2, 1e3, 1e4, 1e6, 1e8])
def test_gaussian_pair_scaled_tail_is_erfcx(gaussian_pair, x, monkeypatch):
    # the deficit at the edge is 2 >= 1, so the level rule never saturates
    # and runs its Laguerre branch; the adaptive integral is not called
    def refuse(*args, **kwargs):
        raise AssertionError("the level rule fell back to the adaptive integral")

    monkeypatch.setattr(oracle, "adaptive_quadrature", refuse)
    res = scaled_tail_quadrature(gaussian_pair, x, Condition.UNRESTRICTED)
    assert res.converged
    assert res.value == pytest.approx(0.5 * special.erfcx(x), rel=1e-12)


def test_gaussian_pair_at_one_falls_back_and_matches(gaussian_pair, monkeypatch):
    calls = []
    adaptive = oracle.adaptive_quadrature

    def counting(*args, **kwargs):
        calls.append(args[1:3])
        return adaptive(*args, **kwargs)

    monkeypatch.setattr(oracle, "adaptive_quadrature", counting)
    res = scaled_tail_quadrature(gaussian_pair, 1.0, Condition.UNRESTRICTED)
    assert len(calls) == 2  # one fallback per side
    assert res.value == pytest.approx(0.5 * special.erfcx(1.0), rel=1e-9)


def test_gaussian_pair_validates(gaussian_pair):
    # the cosine's reach is pi, so every closed form is read up to the support edge
    report = validate_model(gaussian_pair)
    assert report.passed, [(e.name, e.detail) for e in report.failures()]

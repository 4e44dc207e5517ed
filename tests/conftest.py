"""Shared model fixtures.

The benchmark model used throughout: Exp(1) radial, uniform angle on
[-1, 1], u(t) = 1 - t^2, so phi(x) = x^(-1/2) and every tail quantity
has a closed or high-precision reference value.
"""

import math
import sys
from pathlib import Path

import pytest

from polartail import build_builtin_model, montecarlo

F1_CONFIG = {
    "radial.family": "exponential",
    "angular.halfwidth": 1.0,
    "shape_u.kappa": 2.0,
}

ASYM_CONFIG = {
    "radial.family": "exponential",
    "angular.halfwidth": 1.0,
    "shape_u.kappa_minus": 1.0,
    "shape_u.kappa_plus": 2.0,
}


def tail_sweep():
    """(SWEEP_MODELS, LADDER) of the benchmark's tail-sweep workload: seven
    builtin configs and the half-decade thresholds x = 10 .. 1e12."""
    bench = str(Path(__file__).resolve().parents[1] / "bench")
    if bench not in sys.path:
        sys.path.insert(0, bench)
    import workloads

    return workloads.SWEEP_MODELS, workloads.LADDER


@pytest.fixture(scope="session")
def f1_model():
    return build_builtin_model(F1_CONFIG)


@pytest.fixture(scope="session")
def asym_model():
    return build_builtin_model(ASYM_CONFIG)


@pytest.fixture(scope="session")
def seifert_model():
    return build_builtin_model(
        dict(F1_CONFIG, **{"shape_v.family": "seifert_linear", "shape_v.rho": 0.3})
    )


@pytest.fixture(scope="session")
def sine_model():
    return build_builtin_model(dict(F1_CONFIG, **{"shape_v.family": "sine"}))


@pytest.fixture(autouse=True)
def _plans_round_conservatively(monkeypatch):
    """Every stratified proposal plan a test builds keeps fl(r_c * u_out) <= x."""
    build = montecarlo._build_plan

    def checked(*args):
        plan = build(*args)
        if math.isfinite(plan.r_c):
            assert plan.r_c * plan.u_out <= plan.x, plan
        return plan

    monkeypatch.setattr(montecarlo, "_build_plan", checked)

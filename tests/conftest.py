"""Shared model fixtures.

The benchmark model used throughout: Exp(1) radial, uniform angle on
[-1, 1], u(t) = 1 - t^2, so phi(x) = x^(-1/2) and every tail quantity
has a closed or high-precision reference value.

The slow oracles that only tests need live here too: ``cell_masses``
for 2-D cell masses, ``density_normalization`` over a
``normalization_support`` for the total mass of a limit density, and
``ks_one_sample_full`` for the one-sample KS statistic.
"""

import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import pytest

from polartail import (
    AngularLaw,
    NonConvergence,
    ParameterError,
    PolarModel,
    QuadratureResult,
    ShapeU,
    adaptive_quadrature,
    build_builtin_model,
    montecarlo,
)
from polartail.model import _radial_exponential
from polartail.stats import _check_edges

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

# kappa = (1, 2) with tau = (-0.5, 0): the exponents (1 + tau) / kappa tie at
# 1/2, so both sides keep mass in the limit while phi_minus << phi_plus
TIED_CONFIG = {
    "radial.family": "exponential",
    "angular.family": "asymmetric_power",
    "angular.tau_minus": -0.5,
    "angular.tau_plus": 0.0,
    "angular.weight_plus": 0.5,
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


def _require_converged(res, a_lo, a_hi, b_lo, b_hi):
    if not res.converged:
        raise NonConvergence(
            f"cell [{a_lo:.6g}, {a_hi:.6g}] x [{b_lo:.6g}, {b_hi:.6g}]: quadrature "
            f"error estimate {res.abs_error_estimate:.3g} above tolerance"
        )


def cell_masses(density, binning, *, rel_tol: float = 1e-6) -> np.ndarray:
    """Quadrature masses of density(a, b) over a rectangular grid of cells.

    Returns an array with shape (len(edges_a) - 1, len(edges_b) - 1).
    Nested adaptive quadrature, slow and meant as an independent oracle
    for the closed-form CDF differences that ``convergence_report`` uses
    and for ``chi_square_2d``.

    The masses are reliable only for densities that are smooth inside each
    cell. A jump inside a cell, such as the limit law's support boundary
    t^kappa = r, is invisible to the GK15 error estimate: the quadratures
    report convergence while the cell mass is off (by up to 9e-6 absolute,
    0.5% relative, in one cell of the default ``verify`` grid). Raises
    NonConvergence if any inner or outer quadrature exhausts its panels.
    """
    edges_a = _check_edges("a", binning[0])
    edges_b = _check_edges("b", binning[1])
    out = np.empty((edges_a.size - 1, edges_b.size - 1))
    for i in range(edges_a.size - 1):
        a_lo, a_hi = edges_a[i], edges_a[i + 1]
        for j in range(edges_b.size - 1):
            b_lo, b_hi = edges_b[j], edges_b[j + 1]

            def outer(avals):
                avals = np.asarray(avals, dtype=float)
                vals = np.empty_like(avals)
                for k, aval in enumerate(avals):
                    inner = adaptive_quadrature(
                        lambda bs, aval=aval: np.asarray(
                            density(np.full_like(np.asarray(bs, dtype=float), aval),
                                    np.asarray(bs, dtype=float)),
                            dtype=float,
                        ),
                        b_lo, b_hi, rel_tol=rel_tol, abs_tol=1e-12, max_panels=60,
                    )
                    _require_converged(inner, a_lo, a_hi, b_lo, b_hi)
                    vals[k] = inner.value
                return vals

            res = adaptive_quadrature(
                outer, a_lo, a_hi, rel_tol=rel_tol, abs_tol=1e-12, max_panels=60,
            )
            _require_converged(res, a_lo, a_hi, b_lo, b_hi)
            out[i, j] = max(res.value, 0.0)
    return out


def ks_one_sample_full(sample, cdf) -> float:
    """The one-sample KS statistic with ``cdf`` evaluated at every sample point.

    max_i max(i/n - F(x_i), F(x_i) - (i-1)/n) over the sorted sample, the
    oracle for ``ks_one_sample``, which evaluates F only where the max can
    still change.
    """
    xs = np.sort(np.asarray(sample, dtype=float).ravel())
    n = xs.size
    f = np.asarray(cdf(xs), dtype=float)
    i = np.arange(1, n + 1)
    return float(np.max(np.maximum(i / n - f, f - (i - 1) / n)))


@dataclass(frozen=True)
class PlanarSupport:
    """Integration region {(r, t): t in [t_lo, t_hi], r > r_lower(t)}.

    ``r_lower`` must accept an ndarray of t values. ``t_breakpoints``
    marks kinks of the t cross-section (typically t = 0 where a power
    t^tau is singular or the per-sign exponent switches).
    """

    t_lo: float
    t_hi: float
    r_lower: Callable[[np.ndarray], np.ndarray]
    t_breakpoints: tuple[float, ...] = ()


def density_normalization(
    density: Callable[[np.ndarray, np.ndarray], np.ndarray],
    support: PlanarSupport,
    *,
    rel_tol: float = 1e-8,
) -> QuadratureResult:
    """Integrate density(r, t) over the region described by ``support``.

    The inner r integral runs over (r_lower(t), infinity) through the
    substitution r = r_lower(t) - log(1 - w), w in (0, 1), which turns any
    e^{-r} factor into a constant in w and makes a single Kronrod panel
    nearly exact. The outer t integral is adaptive with the declared
    breakpoints.

    ``density`` must be vectorized in both arguments.
    """
    if not (support.t_hi > support.t_lo):
        raise ParameterError("density_normalization: empty t interval")

    inner_rel = min(rel_tol, 1e-9)
    inner_evals = 0
    worst_inner_rel = 0.0

    def outer_integrand(ts):
        nonlocal inner_evals, worst_inner_rel
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        out = np.empty_like(ts)
        for i, t in enumerate(ts):
            r0 = float(np.asarray(support.r_lower(np.array([t])))[0])

            def inner(w, t=t, r0=r0):
                w = np.asarray(w, dtype=float)
                r = r0 - np.log1p(-w)
                return np.asarray(density(r, np.full_like(r, t)), dtype=float) / (1.0 - w)

            res = adaptive_quadrature(inner, 0.0, 1.0, rel_tol=inner_rel, abs_tol=1e-300, max_panels=200)
            inner_evals += res.evaluations
            if res.value != 0.0:
                worst_inner_rel = max(worst_inner_rel, res.abs_error_estimate / abs(res.value))
            out[i] = res.value
        return out

    res = adaptive_quadrature(
        outer_integrand,
        support.t_lo,
        support.t_hi,
        rel_tol=rel_tol,
        abs_tol=0.0,
        max_panels=2000,
        breakpoints=support.t_breakpoints,
    )
    # The outer pass integrates inner values carrying relative error at
    # most worst_inner_rel each, so their contribution scales with the
    # integral itself, not with the width of the t interval.
    total_err = res.abs_error_estimate + worst_inner_rel * abs(res.value)
    converged = res.converged and total_err <= max(rel_tol * abs(res.value), 1e-10)
    if not converged:
        raise NonConvergence(
            f"density_normalization: error estimate {total_err:.3e} stalled above tolerance"
        )
    return QuadratureResult(res.value, total_err, inner_evals, converged)


def normalization_support(law) -> PlanarSupport:
    """Integration region for checking that a limit density has mass 1.

    The r direction is handled by the quadrature's own substitution; this
    picks the t interval wide enough that the truncated tail mass is below
    1e-15 (the t marginal decays like e^{-t^kappa}).
    """
    reach = -math.log(1e-16)
    ends = [sign * reach ** (1.0 / side.kappa) for sign, _, side in law.sides]

    def r_lower(t):
        # |t|^kappa of the side t lies on; t = 0 gives 0 on either side
        t = np.asarray(t, dtype=float)
        out = np.zeros_like(t)
        for sign, _, side in law.sides:
            out = np.where(sign * t >= 0, np.abs(t) ** side.kappa, out)
        return out

    return PlanarSupport(
        t_lo=min(0.0, *ends), t_hi=max(ends), r_lower=r_lower, t_breakpoints=(0.0,),
    )


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


@pytest.fixture(scope="session")
def slow_p_model():
    """Custom two-sided model whose mixture weight p settles only for large x.

    Exp(1) radius, flat angle on [-1, 1], u = 1 - 0.106|t| on the minus
    side and 1 - t^4 on the plus side. The plus side carries all of p in
    the limit, but at x = 20 both windows are about 0.47, so p_plus still
    climbs from 1/2 towards 1 along x = 20 .. 2000.
    """
    def u(t):
        t = np.asarray(t, dtype=float)
        return np.where(t < 0.0, 1.0 + 0.106 * t, 1.0 - t ** 4)

    ang = AngularLaw(
        density=lambda t: np.where(np.abs(t) <= 1.0, 0.5, 0.0),
        t0=0.0,
        tau_minus=0.0,
        tau_plus=0.0,
        support=(-1.0, 1.0),
        sample=lambda rng, n: rng.uniform(-1.0, 1.0, n),
    )
    su = ShapeU(u=u, t0=0.0, kappa_minus=1.0, kappa_plus=4.0)
    return PolarModel(radial=_radial_exponential(1.0), angular=ang, shape_u=su)


@pytest.fixture(autouse=True)
def _plans_round_conservatively(monkeypatch):
    """Every stratified proposal plan a test builds keeps
    fl(a_c fl(1 - delta_out)) <= fl(x delta_out), so no pair outside the
    window with overshoot at most a_c passes the acceptance test."""
    build = montecarlo._build_plan

    def checked(*args):
        plan = build(*args)
        if math.isfinite(plan.a_c):
            assert plan.a_c * (1.0 - plan.delta_out) <= plan.x * plan.delta_out, plan
        return plan

    monkeypatch.setattr(montecarlo, "_build_plan", checked)

"""Tail probabilities of the polar model, and the adaptive quadrature that checks them.

This module provides

* ``adaptive_quadrature`` -- globally adaptive Gauss-Kronrod 15 integration
  that bisects, in each sweep, the fewest worst panels whose errors exceed
  what the tolerance allows, and evaluates all their halves with one
  integrand call. It uses none of the closed forms implemented elsewhere
  in the package, so it is the independent oracle of the tests;
* ``scaled_tail_quadrature`` -- P{X > x (and T > t0)} / Hbar(x) for a
  polar model X = R u(T), one term per side of t0 the event covers;
* ``tail_probability_quadrature`` -- the same probability unscaled,
  Hbar(x) times the scaled one.

Given R > x, the level E = -log Hbar(R) / Hbar(x) is Exp(1) and
independent of T, so the scaled tail is an expectation over the level,

    q(x) = integral_0^inf e^{-y} M_x(y) dy,

with M_x(y) the sum over the sides of ``SideFacts.passing_mass`` at the
overshoot a = overshoot(x, y): the angular mass that passes X > x at
level y, side_mass(min(s_x(y), width)) with s_x(y) = deficit_inverse(a /
(x + a)). A side
takes this level rule when ``SideFacts.has_level_map`` holds on it, as it
does on every builtin model. With e = (1 + tau) / kappa of the side,
M_x(y) ~ c y^e near y = 0, and it saturates at the side mass from
y_sat = -gap(x, x delta_w / (1 - delta_w)) on, where delta_w is the
deficit at the side's edge (y_sat = inf when delta_w >= 1). delta_w, e and
the side mass are constants of the model, read from ``PolarModel.side``;
only the levels and the masses at them depend on x. The rule is

* y_sat > 40: generalized Gauss-Laguerre with weight y^e e^{-y}, summing
  M_x / y^e; e^{-y_sat} is below double resolution, so the kink at y_sat
  is not seen;
* otherwise: Gauss-Jacobi with weight y^e on [0, y_sat], summing e^{-y}
  M_x / y^e, plus e^{-y_sat} times the side mass.

Nodes and weights are built once per (nodes, e) by Golub-Welsch: the
nodes are the eigenvalues of the symmetric tridiagonal Jacobi matrix
(``np.linalg.eigvalsh``), the weights the Christoffel numbers from the
three-term recurrence. The rule runs at 32 nodes; its error estimate is
its distance from the same rule at 24 nodes, and both are cached as one
stacked grid of 56 nodes per (Laguerre or Jacobi, e).

The rule makes one pass per threshold over the sides the event covers
that the threshold's record (``PolarModel.threshold``) lacks. Neither
y_sat nor the overshoot at a level depends on the side, so y_sat is
formed once per distinct edge deficit and a = overshoot(x, y) once per
distinct level grid (e, y_sat), which the two sides of a symmetric model
share. Each side turns those overshoots into its masses
(``SideFacts.passing_mass``) and gets the result it would get alone.
``evaluations`` counts the 56 nodes of each side, and a side counts as
converged only when the estimate is within 1e-9 of its value. Where the
passing deficit a / (x + a) at the lowest node is subnormal (from x of
about 1e153 on for a half-normal or Weibull beta = 2 radius), the masses
would lose digits, and the rule raises NonConvergence rather than fall
back: the fallback below loses the same digits. A side whose estimate
misses, which happens for x of order 1 and below where M_x is far from
c y^e over the weight's range, falls back to the adaptive integral over
the distance s from t0,

    integral over {delta(s) < 1} of
        exp(gap(x, x delta(s) / (1 - delta(s)))) g(t0 + sigma s) ds,

where delta = 1 - u is ``SideFacts.deficit`` and gap(x, d) = log Hbar(x + d)
- log Hbar(x) is ``RadialLaw.log_survival_gap``; so does every side of a
model the level rule does not cover. Both are exact because R and T are
independent and R >= 0, so X > x means R > x / u. Neither forms Hbar(x)
or 1 - u(t), so for builtin families they keep their digits where Hbar(x)
underflows and where 1 - u at the window is far below double resolution
(x up to 1e12 and beyond).

All integrands handed to the quadrature routines must accept numpy arrays.
Endpoint singularities of the form t^tau with tau in (-1, 0) are integrable
and are handled by subdivision; the Kronrod nodes are strictly interior so
the integrand is never evaluated at a singular endpoint.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Sequence

import numpy as np

from .errors import BracketError, MonotonicityError, NonConvergence, ParameterError

__all__ = [
    "QuadratureResult",
    "adaptive_quadrature",
    "tail_probability_quadrature",
    "scaled_tail_quadrature",
]


# ---------------------------------------------------------------------------
# Gauss-Kronrod 15 panel rule
# ---------------------------------------------------------------------------

# 15-point Kronrod abscissae on [-1, 1] (nonnegative half) with weights,
# and the embedded 7-point Gauss weights.
_XGK_HALF = (
    0.991455371120813,
    0.949107912342759,
    0.864864423359769,
    0.741531185599394,
    0.586087235467691,
    0.405845151377397,
    0.207784955007898,
    0.000000000000000,
)
_WGK_HALF = (
    0.022935322010529,
    0.063092092629979,
    0.104790010322250,
    0.140653259715525,
    0.169004726639267,
    0.190350578064785,
    0.204432940075298,
    0.209482141084728,
)
_WG_HALF = (
    0.129484966168870,
    0.279705391489277,
    0.381830050505119,
    0.417959183673469,
)


def _build_gk15():
    nodes = np.empty(15)
    wk = np.empty(15)
    wg = np.zeros(15)
    for i in range(7):
        nodes[i] = -_XGK_HALF[i]
        nodes[14 - i] = _XGK_HALF[i]
        wk[i] = wk[14 - i] = _WGK_HALF[i]
    nodes[7] = 0.0
    wk[7] = _WGK_HALF[7]
    # Gauss points sit at the odd Kronrod indices 1, 3, 5, 7, 9, 11, 13.
    for j in range(3):
        wg[1 + 2 * j] = wg[13 - 2 * j] = _WG_HALF[j]
    wg[7] = _WG_HALF[3]
    return nodes, wk, wg


_GK_NODES, _GK_WK, _GK_WG = _build_gk15()


def _gk15_panels(f, lo, hi):
    """Kronrod panels [lo[i], hi[i]] from one call of f on all their nodes.

    Returns the lists (kronrod_values, error_estimates); the error of a
    panel whose Kronrod or Gauss sum is not finite is infinite.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    x = c[:, None] + h[:, None] * _GK_NODES
    y = np.asarray(f(x.ravel()), dtype=float).reshape(x.shape)
    kron = h * (y @ _GK_WK)
    with np.errstate(invalid="ignore"):
        err = np.abs(kron - h * (y @ _GK_WG))
    err[~np.isfinite(err)] = math.inf
    return kron.tolist(), err.tolist()


@dataclass(frozen=True)
class QuadratureResult:
    """Outcome of an adaptive integration.

    ``converged`` is True iff the accumulated error estimate met the
    requested tolerance before the panel budget ran out.
    """

    value: float
    abs_error_estimate: float
    evaluations: int
    converged: bool


def adaptive_quadrature(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    *,
    rel_tol: float = 1e-9,
    abs_tol: float = 0.0,
    max_panels: int = 4000,
    breakpoints: Sequence[float] = (),
) -> QuadratureResult:
    """Integrate f over [a, b], refining the worst panels in sweeps.

    ``breakpoints`` seeds initial panel boundaries (interior points only);
    use them to mark kinks, support edges, or the scale of a sharp peak so
    that the first error estimates already see the structure.

    Each sweep sorts the panels by error estimate and bisects the fewest
    worst ones whose errors sum to more than the excess of the total error
    over the tolerance max(abs_tol, rel_tol*|I|): at least one panel, and
    never more than ``max_panels`` minus the panel count. All new halves
    are evaluated with one call of f. A panel whose midpoint is at machine
    resolution is kept with error 0 instead of being bisected. Totals are
    exact sums of the panels (``math.fsum``), so a worst error of 0 is a
    total error of 0 and ends refinement.

    Stops with converged=True when the total error is within the
    tolerance. Stops with converged=False when ``max_panels`` panels exist
    first, or at once when f is not finite on some panel; it is the
    caller's decision whether that is fatal. ``evaluations`` counts the
    points at which f was evaluated.
    """
    if not (b > a):
        raise ParameterError(f"adaptive_quadrature: empty interval [{a}, {b}]")

    cuts = [a]
    for p in sorted(set(float(q) for q in breakpoints)):
        if a < p < b:
            cuts.append(p)
    cuts.append(b)

    # panels are (lo, hi, value, error)
    panels = list(zip(cuts[:-1], cuts[1:], *_gk15_panels(f, cuts[:-1], cuts[1:])))
    evals = 15 * len(panels)
    while True:
        total_err = math.fsum(p[3] for p in panels)
        if not math.isfinite(total_err):
            # f is not finite on some panel; no bisection mends the total
            return QuadratureResult(sum(p[2] for p in panels), total_err, evals, False)
        total_val = math.fsum(p[2] for p in panels)
        tol = max(abs_tol, rel_tol * abs(total_val))
        if total_err <= tol or total_err == 0.0 or len(panels) >= max_panels:
            return QuadratureResult(total_val, total_err, evals, total_err <= tol)
        panels.sort(key=itemgetter(3), reverse=True)
        excess = total_err - tol
        # the errors of all panels sum to more than the excess; the cap at
        # len(panels) only guards against rounding in the running sum
        room = min(max_panels - len(panels), len(panels))
        k, removed = 0, 0.0
        while k < room and removed <= excess:
            removed += panels[k][3]
            k += 1
        worst, panels = panels[:k], panels[k:]
        los, his = [], []
        for lo, hi, val, _ in worst:
            mid = 0.5 * (lo + hi)
            if mid <= lo or mid >= hi:
                # interval is at machine resolution; keep its estimate as is
                panels.append((lo, hi, val, 0.0))
            else:
                los += (lo, mid)
                his += (mid, hi)
        if los:
            panels += zip(los, his, *_gk15_panels(f, los, his))
            evals += 15 * len(los)


# ---------------------------------------------------------------------------
# Tail probabilities of the polar model
# ---------------------------------------------------------------------------


# Panel seeds at these multiples of the window phi, where the mass sits.
_PEAK_MULTS = (1.0, 4.0, 16.0, 64.0)


def _peak_breakpoints(mdl, x: float, facts) -> list[float]:
    """Distances k phi_sigma(x) from t0 inside (0, width), k in _PEAK_MULTS.

    ``facts`` is the ``SideFacts`` record of a side of the event. Empty at x = 0
    and where the window cannot be bracketed or its deficit is not
    monotone; any other failure of the window solve propagates.
    """
    from . import asymptotics

    if x == 0:
        return []
    try:
        phi = asymptotics.compute_phi(mdl, x, facts.side).phi
    except (BracketError, MonotonicityError):
        return []
    return [k * phi for k in _PEAK_MULTS if k * phi < facts.width]


def _check_x(caller: str, x: float) -> None:
    """Raise ParameterError naming x unless it is finite and >= 0."""
    if not 0.0 <= x < math.inf:
        raise ParameterError(f"{caller}: x must be >= 0 and finite, got {x}")


def tail_probability_quadrature(mdl, x: float, condition) -> QuadratureResult:
    """P{X > x} (optionally joint with T > t0) by quadrature.

    Hbar(x) times ``scaled_tail_quadrature``: value and error estimate are
    scaled, evaluations and the convergence flag are kept. Where Hbar(x)
    underflows to 0.0 the result is exactly 0.0, converged, with no
    integrand evaluations; use scaled_tail_quadrature for ratio work at
    such thresholds. Raises ParameterError and NonConvergence as
    scaled_tail_quadrature does.
    """
    _check_x("tail_probability_quadrature", x)
    hbar = float(np.asarray(mdl.radial.survival(np.array([x])))[0])
    if hbar == 0.0:
        return QuadratureResult(0.0, 0.0, 0, True)
    res = scaled_tail_quadrature(mdl, x, condition)
    return QuadratureResult(hbar * res.value, hbar * res.abs_error_estimate,
                            res.evaluations, res.converged)


# The level rule: its nodes, the smaller rule its error estimate compares
# with, the relative tolerance of both integrals, and the saturation level
# from which e^{-y_sat} is negligible and the Laguerre rule takes over.
# One Gauss-Jacobi rule on [0, min(y_sat, L)] with e^{-y} in the integrand
# would not do. Measured on the 299 tail-sweep cases: for L <= 35 the
# dropped tail beyond L exceeds the 32/24 estimate in 42 to 297 cases;
# at L = 40 the estimate reaches 9.9e-10 (weibull-b0.5, x = 10), and for
# L >= 45 sides miss 1e-9 and fall back. With both branches the estimate
# stays below 3.1e-13 and the value within 3e-15 relative of the reference.
_LEVEL_NODES = (32, 24)
_REL_TOL = 1e-9
_LAGUERRE_FROM = 40.0
# below this passing deficit a / (x + a) doubles are subnormal and lose digits
_NORMAL_FLOOR = float(np.finfo(float).tiny)


def _golub_welsch(diag, off, log_mu0: float, e: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes y_i and weights w_i / y_i^e of the Gauss rule of a Jacobi matrix.

    ``diag`` and ``off`` are the recurrence coefficients of the
    orthonormal polynomials p_k (off holding the square roots) and mu0 =
    exp(log_mu0) the weight's total mass. The nodes are the eigenvalues of
    the symmetric tridiagonal Jacobi matrix (Golub-Welsch); the weights are
    the Christoffel numbers w_i = mu0 / sum_k p_k(y_i)^2, with p_0 = 1, from
    the three-term recurrence. They equal mu0 v_i[0]^2 for the normalized
    eigenvectors v_i, which ``np.linalg.eigh`` would give at the cost of
    waking the BLAS thread pool (14 ms in a fresh process on a 2-CPU
    x86_64 host with OpenBLAS). The arrays are read-only, since the
    caches below hand them to every caller.
    """
    nodes = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    prev, p, total = np.zeros_like(nodes), np.ones_like(nodes), np.ones_like(nodes)
    for k in range(len(off)):
        prev, p = p, ((nodes - diag[k]) * p - (off[k - 1] * prev if k else 0.0)) / off[k]
        total += p * p
    weights = np.exp(log_mu0 - np.log(total) - e * np.log(nodes))
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


@functools.lru_cache(maxsize=64)
def _gauss_laguerre(n: int, e: float) -> tuple[np.ndarray, np.ndarray]:
    """The n-point rule for the weight y^e e^{-y} on (0, inf), weights divided by y^e.

    sum w_i f(y_i) approximates the integral of e^{-y} f(y) for f ~ y^e.
    """
    k = np.arange(1, n)
    return _golub_welsch(2.0 * np.arange(n) + 1.0 + e, np.sqrt(k * (k + e)), math.lgamma(1.0 + e), e)


@functools.lru_cache(maxsize=64)
def _gauss_jacobi(n: int, e: float) -> tuple[np.ndarray, np.ndarray]:
    """The n-point rule for the weight t^e on (0, 1), weights divided by t^e.

    The Jacobi polynomials P^(0, e) moved from [-1, 1] to [0, 1].
    """
    j = 2.0 * np.arange(n) + e
    k, jk = np.arange(1, n), j[1:]
    return _golub_welsch(0.5 + 0.5 * e * e / (j * (j + 2.0)),
                         k * (k + e) / (jk * np.sqrt(jk * jk - 1.0)), -math.log1p(e), e)


@functools.lru_cache(maxsize=64)
def _level_grid(laguerre: bool, e: float) -> tuple[np.ndarray, np.ndarray]:
    """The rules of _LEVEL_NODES nodes for weight y^e, stacked into one (nodes, weights) pair.

    Gauss-Laguerre when ``laguerre``, else Gauss-Jacobi on (0, 1); the
    32-node rule comes first. Read-only, like the rules it stacks.
    """
    rule = _gauss_laguerre if laguerre else _gauss_jacobi
    nodes, weights = (np.concatenate(part) for part in zip(*(rule(n, e) for n in _LEVEL_NODES)))
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def _level_rules(mdl, x: float, sides) -> list[QuadratureResult]:
    """The level rule of each side in ``sides`` at x, in one pass (see the module docstring).

    A side the rule does not cover gets an unconverged result with no
    evaluations. Raises NonConvergence where the passing deficit of a
    level grid is subnormal.
    """
    n = _LEVEL_NODES[0]
    y_sats, grids, results = {}, {}, []
    for facts in sides:
        if not facts.has_level_map:
            results.append(QuadratureResult(math.nan, math.inf, 0, False))
            continue
        e, d_w = facts.e, facts.edge_deficit
        if d_w not in y_sats:
            y_sats[d_w] = math.inf if d_w >= 1.0 else -float(np.asarray(
                mdl.radial.log_survival_gap(x, np.array([x * d_w / (1.0 - d_w)])))[0])
        y_sat = y_sats[d_w]
        full = facts.mass
        if y_sat <= 0.0:
            # saturated from level 0 on (x = 0 with u > 0 over the side): every pair passes
            results.append(QuadratureResult(full, 0.0, 0, True))
            continue
        laguerre = y_sat > _LAGUERRE_FROM
        key = (e, math.inf if laguerre else y_sat)
        if key not in grids:
            nodes, weights = _level_grid(laguerre, e)
            if not laguerre:
                nodes, weights = y_sat * nodes, y_sat * np.exp(-y_sat * nodes) * weights
            a = np.asarray(mdl.radial.overshoot(x, nodes), dtype=float)
            a_min = float(a.min())
            if a_min < _NORMAL_FLOOR * x:
                raise NonConvergence(
                    f"scaled_tail_quadrature: x = {x:g} is beyond the level rule's reach: the "
                    f"passing deficit a / (x + a) falls to {a_min / x:.3g}, below the "
                    f"smallest normal double")
            grids[key] = weights, a
        weights, a = grids[key]
        tail = 0.0 if laguerre else math.exp(-y_sat) * full
        mass = np.asarray(facts.passing_mass(x, a), dtype=float)
        value = float(weights[:n] @ mass[:n]) + tail
        error = abs(value - (float(weights[n:] @ mass[n:]) + tail))
        results.append(QuadratureResult(value, error, mass.size, error <= _REL_TOL * abs(value)))
    return results


def _side_integral(mdl, x: float, facts) -> QuadratureResult:
    """The adaptive integral of side ``facts`` over the distance from t0; raises NonConvergence."""
    t0, side = mdl.angular.t0, facts.side

    def integrand(s):
        s = np.asarray(s, dtype=float)
        dlt = np.asarray(facts.deficit(s), dtype=float)
        inside = dlt < 1.0
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            d = x * dlt / np.where(inside, 1.0 - dlt, 1.0)
            gap = np.asarray(mdl.radial.log_survival_gap(x, np.where(inside, d, 0.0)), dtype=float)
            vals = np.exp(gap) * np.asarray(mdl.angular.density(t0 + side * s), dtype=float)
        return np.where(inside, vals, 0.0)

    res = adaptive_quadrature(
        integrand, 0.0, facts.width, rel_tol=_REL_TOL, abs_tol=0.0,
        breakpoints=_peak_breakpoints(mdl, x, facts),
    )
    if not res.converged:
        raise NonConvergence(
            f"scaled_tail_quadrature: error estimate {res.abs_error_estimate:.3e} "
            f"stalled above tolerance at x={x} on side {side:+d}"
        )
    return res


def scaled_tail_quadrature(mdl, x: float, condition) -> QuadratureResult:
    """P{X > x (and T > t0)} / Hbar(x), computed without forming Hbar(x).

    Sums one term per conditioning side. A side with a level map
    (``SideFacts.has_level_map``) takes the expectation over the Exp(1)
    level,

        integral_0^inf e^{-y} passing_mass(x, overshoot(x, y)) dy,

    with ``SideFacts.passing_mass`` and ``radial.overshoot``, by the cached Gauss-Laguerre or Gauss-Jacobi rule of weight y^e, e =
    (1 + tau) / kappa, in one pass over the sides per threshold: sides
    with the same level grid share its overshoots (see the module
    docstring). Its error estimate is the distance of the 32-node rule
    from the 24-node one, and ``evaluations`` counts both, 56 per side.
    When that estimate misses the relative tolerance 1e-9, as near x of
    order 1 and below, the side falls back to the adaptive integral over
    the distance s from t0,

        integral of exp(gap(x, x delta / (1 - delta))) g(t0 + sigma s) ds,

    with delta = ``SideFacts.deficit(s)`` and gap =
    ``radial.log_survival_gap``: X > x means R > x / u = x + x delta /
    (1 - delta). The integrand is zero where delta >= 1, since u <= 0
    there and R >= 0 makes X > x > 0 impossible. Every side of a model the
    level rule does not cover takes that integral too, with panels seeded
    at multiples of the window (see ``_peak_breakpoints``), and so
    ``evaluations`` adds the integrand evaluations of the fallback. The
    value is also the exact acceptance probability of the rejection
    sampler that proposes from the radial tail law given R > x.

    Each side's term is kept in the model's record of threshold x
    (``PolarModel.threshold``), which holds the last x only. A second call
    at the same x, from ``tail_probability_quadrature`` or under the other
    condition, reads the kept terms, and the level rule runs only for the
    sides the record lacks, still in one pass over them. The sum, its
    error estimate and ``evaluations`` are those of a model without the
    record.

    Raises ParameterError unless x is finite and >= 0, and
    NonConvergence if the adaptive integral of a side runs out of panels
    before it meets the tolerance, or where the level rule's passing
    deficit leaves the normal doubles.
    """
    _check_x("scaled_tail_quadrature", x)
    value = error = 0.0
    evaluations = 0
    for res in _side_terms(mdl, x, mdl.sides(condition)):
        value += res.value
        error += res.abs_error_estimate
        evaluations += res.evaluations
    return QuadratureResult(value, error, evaluations, True)


def _side_terms(mdl, x: float, sides) -> list[QuadratureResult]:
    """The scaled-tail term of each side in ``sides`` at x, kept in the record of x.

    The sides the record lacks take the level rule in one pass, and a side
    whose rule misses takes the adaptive integral; its term counts the
    evaluations of both. A term is kept only once it is formed, so a raise
    keeps nothing for that side.
    """
    terms = mdl.threshold(x).terms
    missing = [facts for facts in sides if facts.side not in terms]
    for facts, res in zip(missing, _level_rules(mdl, x, missing)):
        if not res.converged:
            fallback = _side_integral(mdl, x, facts)
            res = QuadratureResult(fallback.value, fallback.abs_error_estimate,
                                   res.evaluations + fallback.evaluations, True)
        terms[facts.side] = res
    return [terms[facts.side] for facts in sides]

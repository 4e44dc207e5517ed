"""Independent numerical ground truth.

This module deliberately avoids the closed forms implemented elsewhere in
the package. It provides

* ``adaptive_quadrature`` -- globally adaptive Gauss-Kronrod 15 integration
  that bisects, in each sweep, the fewest worst panels whose errors exceed
  what the tolerance allows, and evaluates all their halves with one
  integrand call;
* ``scaled_tail_quadrature`` -- P{X > x (and T > t0)} / Hbar(x) for a
  polar model X = R u(T), computed side by side as one dimensional
  integrals over the distance s from t0,

      integral over {delta(s) < 1} of
          exp(gap(x, x delta(s) / (1 - delta(s)))) g(t0 + sigma s) ds,

  where delta = 1 - u is ``ShapeU.deficit`` and gap(x, d) = log Hbar(x + d)
  - log Hbar(x) is ``RadialLaw.log_survival_gap``. This is exact because R
  and T are independent and R >= 0, so X > x means R > x / u. Nothing in
  it is formed as Hbar(x) or as 1 - u(t), so for builtin families it
  keeps its digits where Hbar(x) underflows and where 1 - u at the window
  is far below double resolution (x up to 1e12 and beyond);
* ``tail_probability_quadrature`` -- the same probability unscaled,
  Hbar(x) times the scaled integral.

All integrands handed to the quadrature routines must accept numpy arrays.
Endpoint singularities of the form t^tau with tau in (-1, 0) are integrable
and are handled by subdivision; the Kronrod nodes are strictly interior so
the integrand is never evaluated at a singular endpoint.
"""

from __future__ import annotations

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


def _peak_breakpoints(mdl, x: float, side: int, width: float) -> list[float]:
    """Distances k phi_sigma(x) from t0 inside (0, width), k in _PEAK_MULTS.

    ``side`` is one of the sides of ``PolarModel.sides``. Empty at x = 0
    and where the window cannot be bracketed or its deficit is not
    monotone; any other failure of the window solve propagates.
    """
    from . import asymptotics

    if x == 0:
        return []
    try:
        phi = asymptotics.compute_phi(mdl, x, side).phi
    except (BracketError, MonotonicityError):
        return []
    return [k * phi for k in _PEAK_MULTS if k * phi < width]


def tail_probability_quadrature(mdl, x: float, condition) -> QuadratureResult:
    """P{X > x} (optionally joint with T > t0) by quadrature.

    Hbar(x) times ``scaled_tail_quadrature``: value and error estimate are
    scaled, evaluations and the convergence flag are kept. Where Hbar(x)
    underflows to 0.0 the result is exactly 0.0, converged, with no
    integrand evaluations; use scaled_tail_quadrature for ratio work at
    such thresholds. Raises NonConvergence as scaled_tail_quadrature does.
    """
    hbar = float(np.asarray(mdl.radial.survival(np.array([x])))[0])
    if hbar == 0.0:
        return QuadratureResult(0.0, 0.0, 0, True)
    res = scaled_tail_quadrature(mdl, x, condition)
    return QuadratureResult(hbar * res.value, hbar * res.abs_error_estimate,
                            res.evaluations, res.converged)


def scaled_tail_quadrature(mdl, x: float, condition) -> QuadratureResult:
    """P{X > x (and T > t0)} / Hbar(x), computed without forming Hbar(x).

    Sums one integral per conditioning side over the distance s from t0:

        integral of exp(gap(x, x delta / (1 - delta))) g(t0 + sigma s) ds,

    with delta = ``shape_u.deficit(sigma, s)`` and gap =
    ``radial.log_survival_gap``: X > x means R > x / u = x + x delta /
    (1 - delta). The integrand is zero where delta >= 1, since u <= 0
    there and R >= 0 makes X > x > 0 impossible. Neither factor cancels
    for builtin families, so the integral keeps its digits wherever the
    window phi(x) is representable. This is also the exact acceptance
    probability of the rejection sampler that proposes from the radial
    tail law given R > x. Panels are seeded at multiples of the window
    (see ``_peak_breakpoints``). Relative tolerance 1e-9 per side; raises
    NonConvergence if the panel budget runs out first.
    """
    if x < 0:
        raise ParameterError(f"scaled_tail_quadrature: x must be >= 0, got {x}")
    t0 = mdl.angular.t0
    value = error = 0.0
    evaluations = 0
    for side, width in mdl.sides(condition):
        def integrand(s, side=side):
            s = np.asarray(s, dtype=float)
            dlt = np.asarray(mdl.shape_u.deficit(side, s), dtype=float)
            inside = dlt < 1.0
            with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
                d = x * dlt / np.where(inside, 1.0 - dlt, 1.0)
                gap = np.asarray(mdl.radial.log_survival_gap(x, np.where(inside, d, 0.0)), dtype=float)
                vals = np.exp(gap) * np.asarray(mdl.angular.density(t0 + side * s), dtype=float)
            return np.where(inside, vals, 0.0)

        res = adaptive_quadrature(
            integrand, 0.0, width, rel_tol=1e-9, abs_tol=0.0,
            breakpoints=_peak_breakpoints(mdl, x, side, width),
        )
        if not res.converged:
            raise NonConvergence(
                f"scaled_tail_quadrature: error estimate {res.abs_error_estimate:.3e} "
                f"stalled above tolerance at x={x} on side {side:+d}"
            )
        value += res.value
        error += res.abs_error_estimate
        evaluations += res.evaluations
    return QuadratureResult(value, error, evaluations, True)

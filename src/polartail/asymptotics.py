"""Normalizing sequences for the conditional limit of a polar model.

Everything here is driven by one scalar equation per side of the center:
the angular window phi = phi_sigma(x) is the root of

    u_tilde(sigma * phi) * x / psi(x) = 1,

where psi is the auxiliary scale of the radial tail. phi measures how far
T may stray from t0 before the deficit of u eats one psi-unit of radial
tail; it is the natural scale of T - t0 given X > x.

The deficit u_tilde is taken from ``ShapeU.deficit``, exact for builtin
shapes however small phi is. Builtin shapes also invert it in closed
form (``ShapeU.deficit_inverse``), so their window is phi =
u_tilde^{-1}(psi(x)/x) with no search. Other shapes, and a builtin
cosine whose bracket reaches past its monotone half-period, have the
window bracketed on a grid strictly inside the angular support, which
also checks that the deficit increases there, and then solved in log
space; shapes whose deficit is not monotone near the peak (for example a
cosine over several periods) are rejected rather than silently giving
one of several roots.

When the event covers both sides of t0, the limit law mixes them with
the weights

    p_sigma = lim phi_sigma g_tilde(sigma phi_sigma) / sum over sides.

For builtin families p is available in closed form from the leading
power exponents: with u_tilde(sigma s) ~ a_sigma s^kappa_sigma and
g_tilde(sigma s) ~ c_sigma s^tau_sigma, the side with the smaller
(1 + tau_sigma) / kappa_sigma carries all of p; ties split by the
coefficients. For custom models ``limit_law`` reads the limit off a
finite grid of x values and raises NonConvergence when it still drifts.
``limit_law`` is the only place p is formed; the windows at one
threshold (``compute_normalizers``) do not need it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import limitlaw as _limitlaw
from . import model as _model
from .errors import BracketError, MonotonicityError, NonConvergence, ParameterError

__all__ = [
    "PhiRoot",
    "Normalizers",
    "compute_phi",
    "compute_normalizers",
    "tail_asymptotic",
    "limit_law",
]

_BRACKET_FLOOR = 1e-14
_RESIDUAL_TOL = 1e-10
# the monotonicity and bracketing grid, in units of the bracket ceiling
_UNIT_GRID = np.geomspace(1e-9, 1.0, 512)
# the log-space secant stops at this |log(deficit x / psi)| or step count
_SOLVE_TOL = 4.0 * float(np.finfo(float).eps)
_SOLVE_STEPS = 100
# the grid estimate of p fails when p moves by more than this per grid step
_P_CHANGE_TOL = 0.1


@dataclass(frozen=True)
class PhiRoot:
    """Root of the window equation on one side.

    ``residual`` is |u_tilde(sigma phi) x / psi(x) - 1| at the returned
    root and is guaranteed <= 1e-10; ``s_max`` is the bracket ceiling the
    root had to lie below; ``side`` is sigma, +1 or -1.
    """

    phi: float
    residual: float
    s_max: float
    side: int


@dataclass(frozen=True)
class Normalizers:
    """The normalizers of a model at one threshold x: psi(x) and the windows.

    ``phi_minus``/``residual_minus`` are None when the minus window was
    not solved: for one-sided models, and under right-sided conditioning.
    """

    x: float
    psi_x: float
    phi_plus: float
    phi_minus: float | None
    residual_plus: float
    residual_minus: float | None


def _side_reach(mdl: _model.PolarModel, side: int) -> float:
    """Half the distance from t0 to the support edge on side +1 or -1."""
    widths = dict(mdl.sides(_model.Condition.UNRESTRICTED))
    if side not in widths:
        raise ParameterError("side -1 is not available: the angular support has no minus side")
    return widths[side] / 2.0


def _log_secant(f, lo: float, hi: float, f_lo: float, f_hi: float) -> float:
    """Root of f(y) on [lo, hi] with f(lo) < 0 < f(hi).

    Regula falsi with the Illinois weight halving, stepping from the end
    with the smaller |f| and falling back to the midpoint where f is not
    finite. Stops once |f| <= 4 eps or the secant correction vanishes
    against y; a function linear in y is solved by its first step.
    """
    best_y, best_f = (lo, f_lo) if -f_lo < f_hi else (hi, f_hi)
    side = 0
    for _ in range(_SOLVE_STEPS):
        y = math.nan
        if math.isfinite(f_lo) and math.isfinite(f_hi):
            step = (hi - lo) / (f_hi - f_lo)
            y = lo - f_lo * step if -f_lo < f_hi else hi - f_hi * step
            if y == lo or y == hi:
                break
        if not lo < y < hi:
            y = 0.5 * (lo + hi)
            if not lo < y < hi:
                break
        fy = f(y)
        if abs(fy) < abs(best_f):
            best_y, best_f = y, fy
        if not abs(fy) > _SOLVE_TOL:
            break
        if fy < 0:
            lo, f_lo = y, fy
            if side < 0:
                f_hi *= 0.5
            side = -1
        else:
            hi, f_hi = y, fy
            if side > 0:
                f_lo *= 0.5
            side = 1
    return best_y


def _too_small(x: float, side: int, target: float, reached: float) -> BracketError:
    return BracketError(
        f"x = {x:g} is too small on side {side:+d}: needs deficit {target:.3g} "
        f"but it reaches only {reached:.3g} within the bracket"
    )


def _below_floor(x: float, side: int) -> BracketError:
    return BracketError(f"x = {x:g} puts the root below the bracket floor on side {side:+d}")


def _grid_root(deficit, s_max: float, target: float, x: float, side: int) -> float:
    """The window root by grid bracketing and a log-space secant (see ``compute_phi``)."""
    s_grid = np.maximum(s_max * _UNIT_GRID, _BRACKET_FLOOR)
    vals = deficit(s_grid)
    if not np.all(np.isfinite(vals)):
        raise MonotonicityError(f"the deficit is not finite on the side {side:+d} bracket")
    tol = 1e-12 * max(1.0, float(np.max(np.abs(vals))))
    drops = np.diff(vals) < -tol
    if np.any(drops):
        where = float(s_grid[1:][drops][0])
        raise MonotonicityError(
            f"the deficit decreases near s = {where:.6g} on side {side:+d}; "
            "the window equation needs an increasing deficit"
        )

    if target > vals[-1]:
        raise _too_small(x, side, target, vals[-1])
    # the first grid point at or above the target and the one before it
    # (or the floor) bracket the root
    k = int(np.argmax(vals >= target))
    hi_s, hi_val = float(s_grid[k]), float(vals[k])
    if k > 0:
        lo_s, lo_val = float(s_grid[k - 1]), float(vals[k - 1])
    else:
        lo_s = _BRACKET_FLOOR
        lo_val = float(deficit(np.array([lo_s]))[0])
        if target < lo_val:
            raise _below_floor(x, side)

    def log_ratio(d):
        with np.errstate(divide="ignore"):
            return float(np.log(d / target))

    def f(y):
        return log_ratio(deficit(np.array([math.exp(y)]))[0])

    f_lo, f_hi = log_ratio(lo_val), log_ratio(hi_val)
    if f_hi == 0.0 or lo_s >= hi_s:
        return hi_s
    return math.exp(_log_secant(f, math.log(lo_s), math.log(hi_s), f_lo, f_hi))


def compute_phi(mdl: _model.PolarModel, x: float, side: int = 1) -> PhiRoot:
    """Solve deficit(sigma phi) x / psi(x) = 1 on side sigma = ``side``.

    ``side`` is +1 or -1, as ``PolarModel.sides`` yields it. The bracket
    is (1e-14, s_max] with s_max half the distance from t0 to the support
    edge on that side, keeping the search away from boundary effects.

    When the shape has a closed-form ``ShapeU.deficit_inverse`` and
    declares u monotone over the whole bracket (``monotone_reach >=
    s_max``), phi is that inverse at psi(x)/x and no search is made.
    Builtin shapes take this path, except a cosine whose bracket reaches
    past pi.

    Otherwise ``ShapeU.deficit`` is evaluated once on a geometric grid of
    512 points from 1e-9 s_max to s_max; the grid checks that the deficit
    increases and brackets the root between two adjacent points (or
    between 1e-14 and the first point). On that bracket the root of
    log(deficit(e^y) x / psi(x)) = 0 is found by a safeguarded secant in
    y = log s.

    Either way the residual is formed with ``deficit`` at the returned
    root. Raises MonotonicityError if the grid finds the deficit not
    increasing on the bracket, BracketError if the target lies outside
    the reachable range (x too small for this model, or the root below
    the floor), ParameterError for a side other than +1 or -1, the minus
    side of a one-sided model or a bad x or psi(x), and NonConvergence if
    the residual at the root exceeds 1e-10.
    """
    if side not in (1, -1):
        raise ParameterError(f"side must be +1 or -1, got {side!r}")
    side = int(side)
    s_max = _side_reach(mdl, side)
    if not (np.isfinite(x) and x > 0):
        raise ParameterError(f"x must be a positive finite number, got {x}")

    psi = float(mdl.radial.aux_psi(x))
    if not (np.isfinite(psi) and psi > 0):
        raise ParameterError(f"aux_psi({x}) = {psi} is not a positive number")
    target = psi / x

    if s_max <= _BRACKET_FLOOR:
        raise BracketError(
            f"no room on side {side:+d}: bracket ceiling {s_max:g} at or below the floor"
        )

    su = mdl.shape_u

    def deficit(s):
        return np.asarray(su.deficit(side, s), dtype=float)

    if su.deficit_inverse is not None and su.monotone_reach >= s_max:
        reached = float(deficit(np.array([s_max]))[0])
        if target > reached:
            raise _too_small(x, side, target, reached)
        phi = float(np.asarray(su.deficit_inverse(side, np.array([target])), dtype=float)[0])
        if not (math.isfinite(phi) and phi >= _BRACKET_FLOOR):
            raise _below_floor(x, side)
    else:
        phi = _grid_root(deficit, s_max, target, x, side)
    residual = abs(float(deficit(np.array([phi]))[0]) * x / psi - 1.0)
    if not residual <= _RESIDUAL_TOL:
        raise NonConvergence(
            f"window root residual {residual:.3g} exceeds {_RESIDUAL_TOL:g} "
            f"on side {side:+d} at x = {x:g}"
        )
    return PhiRoot(phi=phi, residual=residual, s_max=s_max, side=side)


def _closed_form_p(mdl: _model.PolarModel) -> tuple[float, float] | None:
    """Exact (p_minus, p_plus) from leading coefficients."""
    ang, su = mdl.angular, mdl.shape_u
    coeffs = (ang.g_coeff_minus, ang.g_coeff_plus, su.u_coeff_minus, su.u_coeff_plus)
    if any(c is None for c in coeffs):
        return None
    c_m, c_p, a_m, a_p = coeffs
    e_m = (1.0 + ang.tau_minus) / su.kappa_minus
    e_p = (1.0 + ang.tau_plus) / su.kappa_plus
    if e_p < e_m:
        return 0.0, 1.0
    if e_p > e_m:
        return 1.0, 0.0
    w_m = c_m * a_m ** (-e_m)
    w_p = c_p * a_p ** (-e_p)
    return w_m / (w_m + w_p), w_p / (w_m + w_p)


def compute_normalizers(mdl: _model.PolarModel, x: float,
                        condition: _model.Condition = _model.Condition.UNRESTRICTED
                        ) -> Normalizers:
    """psi(x) and one window per side of ``mdl.sides(condition)``.

    The default covers every side of the support. Under right-sided
    conditioning only the plus window is solved, and ``phi_minus`` and
    ``residual_minus`` are None, so an unreachable minus window cannot
    fail an event that never uses it. Errors of ``compute_phi`` propagate.
    """
    roots = {sgn: compute_phi(mdl, x, sgn) for sgn, _ in mdl.sides(condition)}
    root_p, root_m = roots[1], roots.get(-1)
    return Normalizers(
        x=x, psi_x=float(mdl.radial.aux_psi(x)),
        phi_plus=root_p.phi, phi_minus=None if root_m is None else root_m.phi,
        residual_plus=root_p.residual,
        residual_minus=None if root_m is None else root_m.residual,
    )


def _window_mass(mdl: _model.PolarModel, x: float, sign: int) -> float:
    """phi_sigma g_tilde(sigma phi_sigma), the angular mass of one window at x."""
    phi = compute_phi(mdl, x, sign).phi
    return phi * float(mdl.angular.g_tilde(sign * phi))


def _grid_p(mdl: _model.PolarModel, x_grid) -> float:
    """p_plus read off an increasing grid of thresholds.

    Forms the window-mass ratio p_plus at every grid x and returns it at
    the largest. Raises NonConvergence when both window masses vanish, or
    when the ratio still moves by more than 0.1 per grid step. This is a
    numerical read of an asymptotic limit, not a proof.
    """
    values = []
    for x in x_grid:
        v_m, v_p = _window_mass(mdl, x, -1), _window_mass(mdl, x, 1)
        if v_m + v_p <= 0:
            raise NonConvergence("p is undefined: g_tilde vanishes at both windows")
        values.append(v_p / (v_m + v_p))
    change = float(np.max(np.abs(np.diff(values))))
    if change > _P_CHANGE_TOL:
        raise NonConvergence(
            f"p still moves by {change:.3g} per grid step (tolerance "
            f"{_P_CHANGE_TOL:g}) on x = {x_grid[0]:g} .. {x_grid[-1]:g}"
        )
    return values[-1]


def _limit_side(mdl: _model.PolarModel, sgn: int) -> _limitlaw.LimitSide:
    """The limit law's side sgn, with that side's kappa and tau."""
    if sgn > 0:
        return _limitlaw.LimitSide(mdl.shape_u.kappa_plus, mdl.angular.tau_plus)
    return _limitlaw.LimitSide(mdl.shape_u.kappa_minus, mdl.angular.tau_minus)


def _side_term(mdl: _model.PolarModel, x: float, sgn: int) -> float:
    """phi_sigma g_tilde(sigma phi_sigma) Gamma(e_sigma) / kappa_sigma."""
    return _window_mass(mdl, x, sgn) / _limit_side(mdl, sgn).norm_const


def tail_asymptotic(mdl: _model.PolarModel, x: float,
                    condition: _model.Condition = _model.Condition.RIGHT_SIDED,
                    *, scaled: bool = False) -> float:
    """First order tail approximation of P{X > x} (and T > t0 if right sided).

    Returns survival(x) times the window-weighted angular mass

        sum_sigma phi_sigma g_tilde(sigma phi_sigma) Gamma(e_sigma) / kappa_sigma

    over the conditioning sides, with e_sigma = (1 + tau_sigma) / kappa_sigma.
    With ``scaled=True`` the survival factor is dropped, which gives the
    asymptotic conditional probability P{X > x | R > x}; this form stays
    representable when the tail itself underflows.
    """
    total = sum(_side_term(mdl, x, sgn) for sgn, _ in mdl.sides(condition))
    if scaled:
        return total
    return total * float(np.asarray(mdl.radial.survival(np.array([x])))[0])


def limit_law(mdl: _model.PolarModel, condition: _model.Condition,
              x: float | None = None) -> _limitlaw.LimitLaw:
    """The limit law of the normalized pair under ``condition``.

    The law has the sides of ``PolarModel.sides``: the plus side, and the
    minus side with mixture weights p when the event covers both sides of
    t0, the one place p is formed. Builtin models get p in closed form.
    Custom models read p_plus off the window masses on 9 thresholds from x
    to 100x when ``x`` is given, and on 13 thresholds from 10 to 1e4
    otherwise, and raise NonConvergence when p still drifts there by more
    than 0.1 per step.
    """
    if len(mdl.sides(condition)) == 1:
        return _limitlaw.LimitLaw(_limit_side(mdl, 1))
    if x is None:
        grid = np.geomspace(10.0, 1e4, 13)
    elif math.isfinite(x) and x > 0:
        grid = np.geomspace(x, 100.0 * x, 9)
    else:
        raise ParameterError(f"x must be a positive finite number, got {x}")
    p = _closed_form_p(mdl)
    if p is None:
        p_p = _grid_p(mdl, grid)
        p = (1.0 - p_p, p_p)
    return _limitlaw.LimitLaw(_limit_side(mdl, 1), _limit_side(mdl, -1), p_minus=p[0], p_plus=p[1])

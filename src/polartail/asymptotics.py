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

    p_sigma = lim phi_sigma g_tilde(sigma phi_sigma) / sum over sides,

which the declared leading terms give exactly: with u_tilde(sigma s) ~
a_sigma s^kappa_sigma and g_tilde(sigma s) ~ c_sigma s^tau_sigma, the side
with the smaller e_sigma = (1 + tau_sigma) / kappa_sigma carries all of p,
and only a tie splits it, in proportion to c_sigma a_sigma^(-e). A tie
therefore needs the four declared coefficients, builtin or custom; the
exponents alone settle every other model. ``limit_law`` is the only place
p is formed; the windows at one threshold (``compute_normalizers``) do
not need it.

``corollary_case``, the other map from a model to a limit object, reads
the corollary for (X, Y) = (R u(T), R v(T)) off ``shape_v``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import limitlaw as _limitlaw
from . import model as _model
from .errors import BracketError, CaseMismatch, MonotonicityError, NonConvergence, ParameterError

__all__ = [
    "PhiRoot",
    "Normalizers",
    "compute_phi",
    "compute_normalizers",
    "tail_asymptotic",
    "limit_law",
    "corollary_case",
]

_BRACKET_FLOOR = 1e-14
_RESIDUAL_TOL = 1e-10
# the monotonicity and bracketing grid, in units of the bracket ceiling
_UNIT_GRID = np.geomspace(1e-9, 1.0, 512)
# the log-space secant stops at this |log(deficit x / psi)| or step count
_SOLVE_TOL = 4.0 * float(np.finfo(float).eps)
_SOLVE_STEPS = 100


@dataclass(frozen=True)
class PhiRoot:
    """Root of the window equation on one side.

    ``residual`` is |u_tilde(sigma phi) x / psi(x) - 1| at the returned
    root and is guaranteed <= 1e-10; ``s_max`` is the bracket ceiling the
    root had to lie below; ``side`` is sigma, +1 or -1; ``psi`` is the
    psi(x) the root was solved against.
    """

    phi: float
    residual: float
    s_max: float
    side: int
    psi: float


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

    ``side`` is +1 or -1, the ``SideFacts.side`` of a record. The bracket
    is (1e-14, s_max] with s_max half the distance from t0 to the support
    edge on that side (``SideFacts.s_max``), keeping the search away from
    boundary effects.

    When the shape has a closed-form ``ShapeU.deficit_inverse`` and
    declares u monotone over the whole bracket (``monotone_reach >=
    s_max``), phi is that inverse at psi(x)/x and no search is made; the
    deficit at s_max, which psi(x)/x must not exceed, is the side's
    ``SideFacts.bracket_deficit``. Builtin shapes take this path, except a
    cosine whose bracket reaches past pi.

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
    facts = mdl.side(side)
    if not facts.width > 0:
        raise ParameterError("side -1 is not available: the angular support has no minus side")
    s_max = facts.s_max
    if not (math.isfinite(x) and x > 0):
        raise ParameterError(f"x must be a positive finite number, got {x}")

    psi = float(mdl.radial.aux_psi(x))
    if not (math.isfinite(psi) and psi > 0):
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
        reached = facts.bracket_deficit
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
    # positional: the keyword call costs more, and the tail-sweep makes ~1000 per pass
    return PhiRoot(phi, residual, s_max, side, psi)


def compute_normalizers(mdl: _model.PolarModel, x: float,
                        condition: _model.Condition = _model.Condition.UNRESTRICTED
                        ) -> Normalizers:
    """psi(x) and one window per side of ``mdl.sides(condition)``.

    The default covers every side of the support. Under right-sided
    conditioning only the plus window is solved, and ``phi_minus`` and
    ``residual_minus`` are None, so an unreachable minus window cannot
    fail an event that never uses it. psi(x) is the one the plus window
    was solved against. Errors of ``compute_phi`` propagate.
    """
    roots = {facts.side: compute_phi(mdl, x, facts.side) for facts in mdl.sides(condition)}
    root_p, root_m = roots[1], roots.get(-1)
    return Normalizers(
        x=x, psi_x=root_p.psi,
        phi_plus=root_p.phi, phi_minus=None if root_m is None else root_m.phi,
        residual_plus=root_p.residual,
        residual_minus=None if root_m is None else root_m.residual,
    )


def tail_asymptotic(mdl: _model.PolarModel, x: float,
                    condition: _model.Condition = _model.Condition.RIGHT_SIDED,
                    *, scaled: bool = False) -> float:
    """First order tail approximation of P{X > x} (and T > t0 if right sided).

    Returns survival(x) times the window-weighted angular mass

        sum_sigma phi_sigma g_tilde(sigma phi_sigma) Gamma(e_sigma) / kappa_sigma

    over the conditioning sides, with e_sigma = (1 + tau_sigma) / kappa_sigma
    and Gamma(e_sigma) / kappa_sigma from the side's ``SideFacts.limit``.
    With ``scaled=True`` the survival factor is dropped, which gives the
    asymptotic conditional probability P{X > x | R > x}; this form stays
    representable when the tail itself underflows.
    """
    total = 0.0
    for facts in mdl.sides(condition):
        phi = compute_phi(mdl, x, facts.side).phi
        total += phi * float(mdl.angular.g_tilde(facts.side * phi)) / facts.limit.norm_const
    if scaled:
        return total
    return total * float(np.asarray(mdl.radial.survival(np.array([x])))[0])


def limit_law(mdl: _model.PolarModel, condition: _model.Condition) -> _limitlaw.LimitLaw:
    """The limit law of the normalized pair under ``condition``.

    The law has the sides of ``PolarModel.sides``: the plus side, and the
    minus side with mixture weights p when the event covers both sides of
    t0, the one place p is formed. p is read off the declarations, for
    builtin and custom models alike: the side with the smaller e = (1 +
    tau) / kappa takes all of it, and on a tie the sides split it in
    proportion to g_coeff u_coeff^(-e). A tie is decided within a few ulps
    (``LimitSide.ties``), since e is a quotient of declared exponents. A tie
    on a model that leaves one of the four coefficients None raises
    ParameterError naming the missing ones.
    """
    sides = mdl.sides(condition)
    plus = sides[0].limit
    if len(sides) == 1:
        return _limitlaw.LimitLaw(plus)
    minus = sides[1].limit
    e = plus.gamma_shape
    if not plus.ties(minus):
        p_plus = 1.0 if e < minus.gamma_shape else 0.0
        return _limitlaw.LimitLaw(plus, minus, p_minus=1.0 - p_plus, p_plus=p_plus)
    by_name = sides[::-1]  # the message names the minus side first
    missing = ([f"angular.g_coeff_{f.name}" for f in by_name if f.g_coeff is None]
               + [f"shape_u.u_coeff_{f.name}" for f in by_name if f.u_coeff is None])
    if missing:
        raise ParameterError(
            f"both sides have e = (1 + tau)/kappa = {e:g}, so p splits by the leading "
            f"coefficients, but the model declares no {', '.join(missing)}")
    w_p, w_m = (f.g_coeff * f.u_coeff ** (-e) for f in sides)
    return _limitlaw.LimitLaw(plus, minus, p_minus=w_m / (w_m + w_p), p_plus=w_p / (w_m + w_p))


def corollary_case(mdl: _model.PolarModel,
                   kind: _limitlaw.CorollaryKind | str) -> _limitlaw.CorollaryCase:
    """The corollary case ``kind`` (a CorollaryKind or its value) of the model.

    The case is read off the ``shape_u`` and ``shape_v`` declarations, which
    ``validate_model`` checks: fs needs delta < kappa_plus, delta_gt_kappa
    delta > kappa_plus, ratio_c a finite C, theta_n a factorization
    v = theta u, and seifert one with theta = rho + s to leading order,
    which is all theta_n = 1 and theta'(t0) = 1 declare. A kind outside
    the model's regime raises CaseMismatch; an unknown kind, or a model
    without shape_v, ParameterError.
    """
    K = _limitlaw.CorollaryKind
    if kind not in {k.value for k in K}:
        raise ParameterError(
            f"unknown corollary case {kind!r}; expected one of {[k.value for k in K]}")
    kind = K(kind)
    sv = mdl.shape_v
    if sv is None:
        raise ParameterError("a corollary case needs a model with shape_v")
    plus = mdl.side(1)
    kappa, a = plus.kappa, plus.u_coeff
    # C = lim u_tilde / v_tilde of the leading terms a s^kappa and v_coeff s^delta
    c = 0.0 if sv.delta < kappa else a / sv.v_coeff if sv.delta == kappa and a is not None else None
    limit = "no finite limit" if sv.delta > kappa else "a limit without a declared u_coeff_plus"
    regime = (f"the model has shape_v delta = {sv.delta:g} and kappa_plus = {kappa:g}, so its "
              f"deficit ratio u_tilde/v_tilde tends to {limit if c is None else format(c, 'g')}")
    fits, why = {
        K.FS: (sv.delta < kappa, f"{regime}; fs needs delta < kappa_plus"),
        K.DELTA_GT_KAPPA: (sv.delta > kappa, f"{regime}; delta_gt_kappa needs delta > kappa_plus"),
        K.RATIO_C: (c is not None, f"{regime}; ratio_c needs a finite ratio C"),
        # v = (t - t0 + rho) u is v = theta u with theta = rho + s: order 1, slope 1
        K.SEIFERT: (sv.theta_n == 1 and sv.theta_n_deriv_at_t0 == 1.0,
                    "the model's v does not factor as (t - t0 + rho) u, so Y/X is not linear in T"),
        K.THETA_N: (sv.theta_n is not None, "the model declares no factorization v = theta u"),
    }[kind]
    if not fits:
        raise CaseMismatch(why)
    kw = {"delta": sv.delta} if kind in (K.FS, K.RATIO_C) else {}
    if kind == K.RATIO_C:
        kw["ratio_c"] = c
    if kind in (K.SEIFERT, K.THETA_N):
        kw.update(n=sv.theta_n, theta_deriv=sv.theta_n_deriv_at_t0)
    return _limitlaw.CorollaryCase(kind=kind, kappa=kappa, rho=sv.rho, **kw)

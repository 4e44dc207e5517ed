"""Normalizing sequences for the conditional limit of a polar model.

Everything here is driven by one scalar equation per side of the center:
the angular window phi = phi_sigma(x) is the root of

    u_tilde(sigma * phi) * x / psi(x) = 1,

where psi is the auxiliary scale of the radial tail. phi measures how far
T may stray from t0 before the deficit of u eats one psi-unit of radial
tail; it is the natural scale of T - t0 given X > x.

The deficit u_tilde is read from the side's record (``SideFacts.deficit``),
exact for builtin shapes however small phi is. Builtin shapes also invert
it in closed form (``ShapeU.deficit_inverse``), so their window is phi =
u_tilde^{-1}(psi(x)/x) with no search. Other shapes, and a builtin
cosine whose bracket reaches past its monotone half-period, have the
window bracketed on a grid strictly inside the angular support, which
also checks that the deficit increases there, and then solved by Brent's
method; shapes whose deficit is not monotone near the peak (for example a
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
_EPS = float(np.finfo(float).eps)
_RESIDUAL_TOL = 1e-10
# the monotonicity and bracketing grid, in units of the bracket ceiling
_UNIT_GRID = np.geomspace(1e-9, 1.0, 512)


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


def _too_small(x: float, side: int, target: float, reached: float) -> BracketError:
    return BracketError(
        f"x = {x:g} is too small on side {side:+d}: needs deficit {target:.3g} "
        f"but it reaches only {reached:.3g} within the bracket"
    )


def _below_floor(x: float, side: int) -> BracketError:
    return BracketError(f"x = {x:g} puts the root below the bracket floor on side {side:+d}")


def _grid_root(deficit, s_max: float, target: float, x: float, side: int) -> float:
    """The window root by grid bracketing and Brent's method (see ``compute_phi``)."""
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
    hi_s = float(s_grid[k])
    if k > 0:
        lo_s = float(s_grid[k - 1])
    else:
        lo_s = _BRACKET_FLOOR
        if target < float(deficit(np.array([lo_s]))[0]):
            raise _below_floor(x, side)

    def excess(s):
        value = float(deficit(np.array([s]))[0])
        if math.isnan(value):  # brentq would raise a bare ValueError
            raise NonConvergence(f"the deficit is nan at s = {s:.6g} on side {side:+d}")
        return value - target

    # scipy.optimize costs more to import than the package, and a closed-form
    # window never needs it, so it is imported here. Its default xtol, 2e-12
    # absolute, would swamp roots near the 1e-14 floor, so rtol alone stops
    # it; a root it leaves unconverged fails the residual gate of compute_phi
    from scipy.optimize import brentq

    return brentq(excess, lo_s, hi_s, xtol=_BRACKET_FLOOR * _EPS, rtol=4.0 * _EPS, disp=False)


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
    cosine whose bracket reaches past pi. The 1e-14 floor belongs to the
    grid search and does not bound this root: it is returned wherever it
    passes the residual gate, which holds while psi(x)/x is a normal
    double, and one that underflows or loses its digits in a subnormal
    fails it.

    Otherwise the side's ``SideFacts.deficit`` is evaluated once on a
    geometric grid of 512 points from 1e-9 s_max to s_max; the grid
    checks that the deficit increases and brackets the root between two
    adjacent points (or between 1e-14 and the first point). On that bracket
    ``scipy.optimize.brentq`` solves deficit(s) = psi(x)/x in s to a
    relative 4 eps; scipy.optimize is imported only there, once the grid
    checks have passed.

    Either way the residual is formed with ``deficit`` at the returned
    root. Raises MonotonicityError if the grid finds the deficit not
    increasing on the bracket, BracketError if the target lies outside
    the reachable range (x too small for this model, or a grid root below
    the floor), ParameterError for a side other than +1 or -1, the minus
    side of a one-sided model or a bad x or psi(x), and NonConvergence if
    the residual at the root exceeds 1e-10.

    The root is kept in the model's record of threshold x
    (``PolarModel.threshold``), which holds the last x only: a second call
    at the same x, from ``compute_normalizers``, ``tail_asymptotic`` or
    the quadrature's panel seeds, returns the kept root, which is the one
    a new solve would give. A solve that raises keeps nothing.
    """
    if side not in (1, -1):
        raise ParameterError(f"side must be +1 or -1, got {side!r}")
    side = int(side)
    facts = mdl.side(side)
    if not facts.width > 0:
        raise ParameterError("side -1 is not available: the angular support has no minus side")
    if not (math.isfinite(x) and x > 0):
        raise ParameterError(f"x must be a positive finite number, got {x}")
    windows = mdl.threshold(x).windows
    root = windows.get(side)
    if root is None:
        root = windows[side] = _solve_window(mdl, x, facts)
    return root


def _solve_window(mdl: _model.PolarModel, x: float, facts: _model.SideFacts) -> PhiRoot:
    """The window root of side ``facts`` at a valid x (see ``compute_phi``)."""
    side, s_max = facts.side, facts.s_max
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
        return np.asarray(facts.deficit(s), dtype=float)

    if su.deficit_inverse is not None and su.monotone_reach >= s_max:
        reached = facts.bracket_deficit
        if target > reached:
            raise _too_small(x, side, target, reached)
        phi = float(np.asarray(su.deficit_inverse(side, np.array([target])), dtype=float)[0])
    else:
        phi = _grid_root(deficit, s_max, target, x, side)
    residual = abs(float(deficit(np.array([phi]))[0]) * x / psi - 1.0)
    if not residual <= _RESIDUAL_TOL:
        raise NonConvergence(
            f"window root residual {residual:.3g} exceeds {_RESIDUAL_TOL:g} "
            f"on side {side:+d} at x = {x:g}"
        )
    # positional: the keyword call costs more, and the tail-sweep makes hundreds per pass
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
    sides = mdl.sides(condition)
    phis = [compute_phi(mdl, x, facts.side).phi for facts in sides]
    g = np.asarray(mdl.angular.g_tilde(np.array([f.side * phi for f, phi in zip(sides, phis)])), dtype=float)
    total = 0.0
    for facts, phi, g_phi in zip(sides, phis, g.tolist()):
        total += phi * g_phi / facts.limit.norm_const
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

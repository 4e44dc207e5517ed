"""Model layer: the polar pair (R, T) with shape functions u and v.

A model is X = R u(T), Y = R v(T) where R is a nonnegative radial variable
with a rapidly decaying tail, T an angular variable with density g centered
at t0, u a shape function with u(t0) = 1 and |u| <= 1, and v an optional
second shape. The derived local quantities are always computed pointwise
from the primitives, never stored separately:

    u_tilde(s) = u(t0) - u(t0 + s)      (index kappa per side)
    v_tilde(s) = v(t0) - v(t0 + s)      (index delta)
    g_tilde(s) = g(t0 + s)              (index tau per side)

t0 is declared by the angular law only. A side's deficit and the mass
that passes X > x at an overshoot are read from the side's record,
``PolarModel.side``, built once per model, which keeps their values at
the side's constant points (edge, bracket ceiling, whole mass). What one
threshold x gives each side (its window, its term of the scaled tail) is
kept in the threshold's record, ``PolarModel.threshold``, for the last x
only.

Two quantities lose every digit to cancellation as the threshold grows:
the deficit 1 - u near t0 and the radial log-survival difference
log Hbar(x + d) - log Hbar(x). ``SideFacts.deficit`` and
``RadialLaw.log_survival_gap`` are the one place each is formed: in
closed form for builtin families, as the plain difference otherwise.

``build_builtin_model`` assembles a model from a flat key=value mapping
(the same format the CLI reads from disk); ``validate_model`` runs the
numerical assumption checks and returns a report instead of raising, so a
failing model can still be inspected.

All callables stored on the model must be vectorized over numpy arrays.
Models are immutable after construction and safe to share across threads;
sampling takes an explicit numpy Generator.
"""

from __future__ import annotations

import enum
import functools
import math
import numbers
import sys
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .errors import ConfigError, NonConvergence, ParameterError, UnknownFamilyError
from .limitlaw import LimitSide, gamma_shape

__all__ = [
    "Condition",
    "RadialLaw",
    "AngularLaw",
    "ShapeU",
    "ShapeV",
    "PolarModel",
    "SideFacts",
    "ThresholdFacts",
    "CheckEntry",
    "ValidationReport",
    "build_builtin_model",
    "validate_model",
    "parse_config_text",
    "load_config",
]


class Condition(str, enum.Enum):
    """Conditioning event for tail computations and samplers."""

    RIGHT_SIDED = "right"          # X > x and T > t0
    UNRESTRICTED = "unrestricted"  # X > x


# ---------------------------------------------------------------------------
# Component types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RadialLaw:
    """Nonnegative radial variable, declared by its log-survival and tail tools.

    ``log_survival(x)`` is log Hbar(x), the one declaration of the tail: it
    must stay accurate far beyond the point where Hbar(x) underflows, and
    ``survival``, ``log_survival_gap`` and ``overshoot`` are derived from
    it. ``aux_psi`` is the auxiliary scale of the tail: Hbar(x + psi(x) *
    lam) / Hbar(x) tends to e^{-lam}. ``tail_quantile(p, x_floor)`` inverts
    the conditional law of R given R > x_floor. ``exact_gap(x, d)``, when
    given, is log Hbar(x + d) - log Hbar(x) formed without either term
    (see ``log_survival_gap``). ``exact_overshoot(x, e)``, when given,
    inverts the gap in closed form or by a checked iteration (see
    ``overshoot``).
    """

    log_survival: Callable[[np.ndarray], np.ndarray]
    aux_psi: Callable[[float], float]
    tail_quantile: Callable[[np.ndarray, float], np.ndarray]
    exact_gap: Callable[[float, np.ndarray], np.ndarray] | None = None
    exact_overshoot: Callable[[float, np.ndarray], np.ndarray] | None = None

    def survival(self, x):
        """Hbar(x) = exp(log_survival(x)); 0.0 where it underflows."""
        return np.exp(self.log_survival(x))

    def log_survival_gap(self, x, d):
        """log Hbar(x + d) - log Hbar(x) for x >= 0 and d >= 0.

        Builtin families give it in closed form, accurate where d is far
        below the resolution of x; without ``exact_gap`` it is the
        difference of ``log_survival`` values.
        """
        if self.exact_gap is not None:
            return self.exact_gap(x, d)
        x = np.asarray(x, dtype=float)
        return self.log_survival(x + np.asarray(d, dtype=float)) - self.log_survival(x)

    def overshoot(self, x: float, e):
        """The overshoot a >= 0 with -log_survival_gap(x, a) = e, for e >= 0.

        With e an Exp(1) variate, a is distributed as R - x given R > x,
        so R = x + a never needs to be formed. Builtin families keep the
        relative precision of a however far it lies below the resolution
        of x: closed forms for the exponential and Weibull laws, a Newton
        iteration on the gap for the half-normal law (good to about 1e-10
        relative; it raises NonConvergence if the iteration stalls). Each
        is elementwise, the Newton iteration included: an element's value
        does not depend on the other elements of the call, so the sampler
        may split its levels into chunks at will. Without
        ``exact_overshoot`` it is tail_quantile(1 - e^-e, x) - x, which
        keeps only the digits of a that x + a can hold; where 1 - e^-e
        rounds to 1 (e above about 37) the quantile reaches the top of its
        range, and a = inf comes without a floating-point warning.
        """
        if self.exact_overshoot is not None:
            return self.exact_overshoot(x, e)
        p = -np.expm1(-np.asarray(e, dtype=float))
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.asarray(self.tail_quantile(p, x), dtype=float) - x


@dataclass(frozen=True)
class AngularLaw:
    """Angular density g on a bounded support containing the center t0.

    ``tau_minus``/``tau_plus`` are the declared regular variation indices
    of g(t0 + s) as s -> 0 on each side; both must exceed -1. The
    ``g_coeff_*`` fields carry exact leading coefficients for builtin
    families (g(t0 + sigma s) ~ coeff * s^tau) and are None for custom laws.

    ``side_mass(sigma, s)`` is P{0 < sigma (T - t0) <= s}, the angular mass
    within distance s >= 0 of t0 on side sigma (+1 or -1), measured from t0
    so that it keeps full relative precision for small s;
    ``side_mass_inverse(sigma, m)`` inverts it for m up to the side's total
    mass. The two are declared together. Builtin families supply both in
    closed form; when they are None the Monte Carlo sampler proposes T
    from ``sample`` over the whole support.
    """

    density: Callable[[np.ndarray], np.ndarray]
    t0: float
    tau_minus: float
    tau_plus: float
    support: tuple[float, float]
    sample: Callable[[np.random.Generator, int], np.ndarray]
    g_coeff_minus: float | None = None
    g_coeff_plus: float | None = None
    side_mass: Callable[[int, np.ndarray], np.ndarray] | None = None
    side_mass_inverse: Callable[[int, np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        lo, hi = self.support
        if not (lo <= self.t0 < hi):
            raise ParameterError(
                f"angular support {self.support} must contain t0={self.t0} "
                "with room on the right"
            )
        for name, tau in (("tau_minus", self.tau_minus), ("tau_plus", self.tau_plus)):
            if not tau > -1:
                raise ParameterError(f"angular {name} must exceed -1, got {tau}")
        if (self.side_mass is None) != (self.side_mass_inverse is None):
            raise ParameterError("angular side_mass and side_mass_inverse are declared together")

    def g_tilde(self, s):
        """g(t0 + s), derived pointwise from the density."""
        return self.density(self.t0 + np.asarray(s, dtype=float))


@dataclass(frozen=True, kw_only=True)
class ShapeU:
    """Shape function u with u(t0) = 1, |u| <= 1, a strict peak at t0.

    t0 is the angular law's (``AngularLaw.t0``), declared there only.
    ``kappa_minus``/``kappa_plus`` are the regular variation indices of
    u_tilde(sigma s) = 1 - u(t0 + sigma s) as s -> 0+. ``u_coeff_*`` carry
    exact or asymptotic leading coefficients for builtins.
    ``monotone_reach`` declares the distance from t0 within which u is
    nonincreasing in |t - t0| on both sides (inf for power shapes, pi for
    the cosine); the default 0 declares nothing. ``exact_deficit(side, s)``,
    when given, is u(t0) - u(t0 + side*s) in closed form (see
    ``SideFacts.deficit``). ``deficit_inverse(side, d)``, when given,
    inverts the deficit in closed form for d up to the deficit at
    ``monotone_reach``; builtin shapes supply it and the window solve then
    needs no root search. The fields are keyword-only.
    """

    u: Callable[[np.ndarray], np.ndarray]
    kappa_minus: float
    kappa_plus: float
    u_coeff_minus: float | None = None
    u_coeff_plus: float | None = None
    monotone_reach: float = 0.0
    exact_deficit: Callable[[int, np.ndarray], np.ndarray] | None = None
    deficit_inverse: Callable[[int, np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        for name, k in (("kappa_minus", self.kappa_minus), ("kappa_plus", self.kappa_plus)):
            if not k > 0:
                raise ParameterError(f"shape_u {name} must be > 0, got {k}")


@dataclass(frozen=True, kw_only=True)
class ShapeV:
    """Second shape function v with center value rho = v(t0).

    t0 is the angular law's, as for ``ShapeU``. ``delta`` and ``v_coeff``
    declare the leading term v_tilde(s) = v(t0) - v(t0 + s) ~ v_coeff
    s^delta as s -> 0+, as ``ShapeU`` and ``AngularLaw`` declare theirs;
    v_coeff is nonzero and of either sign, since v may increase or decrease
    through t0. ``theta_n``/``theta_n_deriv_at_t0`` describe the v =
    theta*u factorization when available, and are declared together. These
    declarations pick the corollary case (``asymptotics.corollary_case``,
    which reads the ratio C off them and ``ShapeU``'s); ``validate_model``
    checks each of them against v and u. The fields are keyword-only.
    """

    v: Callable[[np.ndarray], np.ndarray]
    rho: float
    delta: float
    v_coeff: float
    theta_n: int | None = None
    theta_n_deriv_at_t0: float | None = None

    def __post_init__(self):
        n, d = self.theta_n, self.theta_n_deriv_at_t0
        if not (math.isfinite(self.delta) and self.delta >= 0):
            raise ParameterError(f"shape_v delta must be finite and >= 0, got {self.delta}")
        if not (math.isfinite(self.v_coeff) and self.v_coeff != 0):
            raise ParameterError(f"shape_v v_coeff must be finite and nonzero, got {self.v_coeff}")
        if (n is None) != (d is None):
            raise ParameterError("shape_v theta_n and theta_n_deriv_at_t0 are declared together")
        if n is not None and not (isinstance(n, numbers.Integral) and n >= 1):
            raise ParameterError(f"shape_v theta_n must be an integer >= 1, got {n}")
        if d is not None and not (math.isfinite(d) and d != 0):
            raise ParameterError(f"shape_v theta_n_deriv_at_t0 must be finite and nonzero, got {d}")


def _center_gap(f, t0: float, s):
    """f(t0) - f(t0 + s) for a shape f (u or v), the plain difference that closed forms avoid."""
    s = np.asarray(s, dtype=float)
    f0 = float(np.asarray(f(np.array([t0])))[0])
    return f0 - f(t0 + s)


class SideFacts:
    """The record of side ``side`` (+1 or -1) of t0, from ``PolarModel.side`` and ``sides``.

    It is the one place the components' ``*_plus``/``*_minus`` fields are
    picked for a side: ``name`` is "plus" or "minus", and ``kappa``,
    ``tau``, ``g_coeff`` and ``u_coeff`` are the side's declarations (a
    coefficient None where undeclared). ``width`` is the distance from t0
    to the support edge on the side, ``s_max`` = width / 2 the ceiling of
    the window bracket (``asymptotics.compute_phi``), and ``e`` = (1 +
    tau) / kappa the side's Gamma shape. It is also the one reader of the
    side's local quantities: ``deficit(s)``, the deficit of u at distance
    s from t0, and ``passing_mass(x, a)``, the angular mass that passes X
    > x at overshoot a. ``has_level_map`` says whether ``passing_mass``
    holds on the side: it needs ``angular.side_mass`` (declared with its
    inverse) and ``shape_u.deficit_inverse``, and a deficit that increases
    over the whole side (``shape_u.monotone_reach`` at least the width);
    the level rule and the stratified sampler read the map only there.

    The facts that evaluate a callable of the model are evaluated on their
    first read and kept: ``edge_deficit`` and ``bracket_deficit``, the
    deficit at the edge and at s_max; ``mass``, the whole side's angular
    mass, None without ``angular.side_mass``; and ``limit``, the side's
    ``LimitSide``. A callable that fails there fails only the callers
    that read that fact, and a later read tries again.
    """

    def __init__(self, angular: AngularLaw, shape_u: ShapeU, side: int):
        self._angular, self._shape_u = angular, shape_u
        self.side = side
        lo, hi = angular.support
        self.name, self.width = ("plus", hi - angular.t0) if side > 0 else ("minus", angular.t0 - lo)
        self.kappa, self.tau, self.g_coeff, self.u_coeff = (
            (shape_u.kappa_plus, angular.tau_plus, angular.g_coeff_plus, shape_u.u_coeff_plus) if side > 0
            else (shape_u.kappa_minus, angular.tau_minus, angular.g_coeff_minus, shape_u.u_coeff_minus))
        self.s_max = self.width / 2.0
        self.e = gamma_shape(self.kappa, self.tau)
        self.has_level_map = (angular.side_mass is not None and shape_u.deficit_inverse is not None
                              and shape_u.monotone_reach >= self.width)

    def deficit(self, s):
        """u(t0) - u(t0 + side*s) for distances s >= 0 from t0 on the side.

        Builtin shapes give it in closed form (``ShapeU.exact_deficit``),
        with full relative precision however small s is; otherwise it is
        the plain difference, which cancels once the deficit nears double
        resolution.
        """
        su = self._shape_u
        if su.exact_deficit is not None:
            return su.exact_deficit(self.side, s)
        return _center_gap(su.u, self._angular.t0, self.side * np.asarray(s, dtype=float))

    def _deficit(self, s: float) -> float:
        return float(np.asarray(self.deficit(np.array([s])), dtype=float)[0])

    @functools.cached_property
    def edge_deficit(self) -> float:
        """``deficit`` at the support edge.

        A pair passes X > x at every overshoot whose passing deficit (see
        ``passing_mass``) reaches it, so from there on the passing mass is
        the whole side mass.
        """
        return self._deficit(self.width)

    @functools.cached_property
    def bracket_deficit(self) -> float:
        """``deficit`` at s_max, the most the window equation can reach."""
        return self._deficit(self.s_max)

    @functools.cached_property
    def mass(self) -> float | None:
        if self._angular.side_mass is None:
            return None
        return float(np.asarray(self._angular.side_mass(self.side, np.array([self.width])))[0])

    @functools.cached_property
    def limit(self) -> LimitSide:
        return LimitSide(self.kappa, self.tau)

    def passing_mass(self, x: float, a):
        """Angular mass of the side that passes X > x at overshoot a = R - x.

        A pair passes exactly when its deficit is below a / (x + a). With a
        level map (``has_level_map``), those pairs fill the distances below
        s = deficit_inverse(a / (x + a)), so the mass is
        ``angular.side_mass(side, min(s, width))``. The deficit handed to
        the inverse is capped at ``edge_deficit``, where the mass
        saturates, so at a = inf (the overshoot at level inf, or where a
        tail quantile without ``exact_overshoot`` reaches the top of its
        range) it is the side mass. At a = ``radial.overshoot(x, y)`` it is
        the level map at the Exp(1) level y, which caps the stratified
        sampler's cells and which the level rule integrates; both form the
        overshoot once per set of levels, for every side.
        """
        a = np.asarray(a, dtype=float)
        if a.max(initial=-math.inf) < math.inf:
            d = a / (x + a)
        else:
            d = np.divide(a, x + a, out=np.ones(a.shape), where=a != math.inf)
        d = np.minimum(d, self.edge_deficit)
        s = np.asarray(self._shape_u.deficit_inverse(self.side, d), dtype=float)
        return self._angular.side_mass(self.side, np.minimum(s, self.width))


class ThresholdFacts:
    """The record of one threshold x of a model, from ``PolarModel.threshold``.

    ``windows`` maps a side (+1 or -1) to its window root at x, an
    ``asymptotics.PhiRoot``; ``asymptotics.compute_phi`` fills it. ``terms``
    maps a side to its term of the scaled tail at x, an
    ``oracle.QuadratureResult``: the level rule's result, or the adaptive
    integral the side fell back to, counting the evaluations of both;
    ``oracle.scaled_tail_quadrature`` fills it. Each fact is computed on its
    first read and kept; a computation that raises stores nothing, so the
    next read tries again. A kept fact is the value the same code gives
    afresh: the record changes how often it runs, never what it returns.
    """

    __slots__ = ("x", "windows", "terms")

    def __init__(self, x: float):
        self.x, self.windows, self.terms = x, {}, {}


@dataclass(frozen=True)
class PolarModel:
    """Immutable bundle of the polar components.

    The angular support alone fixes which sides of t0 the model has, and
    ``sides`` is the one rule that reads it: the model is two-sided
    exactly when the support extends below t0, and ``sides`` hands out
    the record (``SideFacts``) of each side an event covers. Every one-
    versus two-sided choice in the package (windows, limit law, sampler
    scale) goes through it, and every reader takes a side's declarations
    from its record; ``side(sign)`` gives the record of either side. The
    records are constants of the model, so both of them and the ``sides``
    tuple of each condition are built once per model, on first use
    (``functools.cached_property``); ``dataclasses.replace`` builds a new
    model and so new records.

    ``threshold(x)`` is the record (``ThresholdFacts``) of the last
    threshold asked for, and of no other: each side's window and
    scaled-tail term at x, computed on first read. So the readers at one x
    (``compute_normalizers``, both quadratures and ``tail_asymptotic``,
    under either condition) solve each window and run the level rule for
    each side once. The record changes no value.
    """

    radial: RadialLaw
    angular: AngularLaw
    shape_u: ShapeU
    shape_v: ShapeV | None = None

    @property
    def t0(self) -> float:
        return self.angular.t0

    @functools.cached_property
    def _record(self) -> tuple[tuple[SideFacts, ...], ...]:
        """The plus and minus records, and the sides covered under RIGHT_SIDED and UNRESTRICTED."""
        facts = (SideFacts(self.angular, self.shape_u, 1), SideFacts(self.angular, self.shape_u, -1))
        plus = facts[:1]
        return facts, plus, facts if self.angular.support[0] < self.t0 else plus

    def threshold(self, x: float) -> ThresholdFacts:
        """The record (``ThresholdFacts``) of threshold x, which the caller has validated.

        The model keeps one record, that of the last x asked for. Another
        x, to the bit (0.0 and -0.0 differ), replaces it with a new, empty
        record. A reader keeps the record it was handed for the whole of
        its computation, so a thread that moves the slot to another x
        cannot mix two thresholds; two threads that fill one record store
        the same values.
        """
        record = self.__dict__.get("_threshold")
        if record is None or record.x != x or (
                x == 0.0 and math.copysign(1.0, x) != math.copysign(1.0, record.x)):
            # the model is frozen, so the slot is written as cached_property writes
            record = self.__dict__["_threshold"] = ThresholdFacts(x)
        return record

    def side(self, side: int) -> SideFacts:
        """The record of side ``side`` (+1 or -1) of t0; see ``SideFacts``."""
        return self._record[0][0 if side > 0 else 1]

    def sides(self, condition: Condition) -> tuple[SideFacts, ...]:
        """The record (``SideFacts``) of each side of t0 the event under ``condition`` covers.

        The plus side comes first; the minus side follows under
        UNRESTRICTED conditioning of a two-sided model.
        """
        _, plus, both = self._record
        return both if condition == Condition.UNRESTRICTED else plus


# ---------------------------------------------------------------------------
# Builtin radial families
# ---------------------------------------------------------------------------


def _radial_exponential(rate: float) -> RadialLaw:
    def log_survival(x):
        return -rate * np.maximum(np.asarray(x, dtype=float), 0.0)

    def tail_quantile(p, x_floor):
        return x_floor - np.log1p(-np.asarray(p, dtype=float)) / rate

    def exact_gap(x, d):
        return -rate * np.asarray(d, dtype=float)

    def exact_overshoot(x, e):
        return np.asarray(e, dtype=float) / rate

    return RadialLaw(
        log_survival=log_survival,
        aux_psi=lambda x: 1.0 / rate,
        tail_quantile=tail_quantile,
        exact_gap=exact_gap,
        exact_overshoot=exact_overshoot,
    )


def _radial_weibull(beta: float) -> RadialLaw:
    def log_survival(x):
        return -(np.maximum(np.asarray(x, dtype=float), 0.0) ** beta)

    def aux_psi(x):
        if x <= 0:
            raise ParameterError(f"weibull aux_psi needs x > 0, got {x}")
        return x ** (1.0 - beta) / beta

    def tail_quantile(p, x_floor):
        p = np.asarray(p, dtype=float)
        return (max(x_floor, 0.0) ** beta - np.log1p(-p)) ** (1.0 / beta)

    def exact_gap(x, d):
        # x^beta - (x + d)^beta = -x^beta ((1 + d/x)^beta - 1)
        x = np.maximum(np.asarray(x, dtype=float), 0.0)
        d = np.asarray(d, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            gap = -(x ** beta) * np.expm1(beta * np.log1p(d / x))
            return np.where(x > 0, gap, -(d ** beta))

    def exact_overshoot(x, e):
        # (x + a)^beta - x^beta = e, solved as x ((1 + e x^-beta)^(1/beta) - 1)
        e = np.asarray(e, dtype=float)
        if x <= 0:
            return e ** (1.0 / beta)
        return x * np.expm1(np.log1p(e * x ** -beta) / beta)

    return RadialLaw(
        log_survival=log_survival,
        aux_psi=aux_psi,
        tail_quantile=tail_quantile,
        exact_gap=exact_gap,
        exact_overshoot=exact_overshoot,
    )


# Newton steps of the half-normal overshoot, the step, relative to
# a + psi(x), below which it has converged, and the e below which a series
# replaces it
_OVERSHOOT_STEPS = 50
_OVERSHOOT_TOL = 64.0 * float(np.finfo(float).eps)
_OVERSHOOT_SERIES = 1e-5
# the d / psi(x) below which the half-normal gap is a 3-node Gauss-Legendre
# integral of the hazard
_GAP_SERIES = 2e-3


def _radial_half_normal() -> RadialLaw:
    # scipy.special costs more to import than the rest of the package, and
    # numpy.polynomial a few ms, so they are imported where they are used,
    # not at the top
    from numpy.polynomial.legendre import leggauss
    from scipy import special as sp_special

    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    log2 = math.log(2.0)
    mills_scale = math.sqrt(math.pi / 2.0)
    # the 3-node Gauss-Legendre rule on [0, 1], its weights summing to 1
    nodes, weights = leggauss(3)
    nodes, weights = 0.5 * (1.0 + nodes), 0.5 * weights

    def log_survival(x):
        return log2 + sp_special.log_ndtr(-np.maximum(np.asarray(x, dtype=float), 0.0))

    def aux_psi(x):
        return mills_scale * float(sp_special.erfcx(max(x, 0.0) * inv_sqrt2))

    def tail_quantile(p, x_floor):
        p = np.asarray(p, dtype=float)
        log_phi = sp_special.log_ndtr(-max(x_floor, 0.0))
        return -sp_special.ndtri_exp(np.log1p(-p) + log_phi)

    def hazard(t):
        return 1.0 / (mills_scale * sp_special.erfcx(t * inv_sqrt2))

    def exact_gap(x, d):
        # erfc(z) = erfcx(z) e^{-z^2} and (x + d)^2 - x^2 = d (2x + d). The
        # log of the erfcx ratio is good to a few eps absolute, so a gap far
        # below 1 loses digits like eps psi / d; below _GAP_SERIES psi(x) it
        # is -integral of the hazard h over [x, x + d] by the 3-node
        # Gauss-Legendre rule, whose error is of order (d h)^6 relative. A
        # gap below the most negative double is -inf, which the overflow of
        # d (2x + d) or of x + d gives, and an overflowing d h selects the
        # erfcx form. The rule is formed only where it is selected
        x = np.maximum(np.asarray(x, dtype=float), 0.0)
        d = np.asarray(d, dtype=float)
        erfcx_x = sp_special.erfcx(x * inv_sqrt2)
        h = 1.0 / (mills_scale * erfcx_x)
        with np.errstate(over="ignore", divide="ignore"):
            ratio = sp_special.erfcx((x + d) * inv_sqrt2) / erfcx_x
            gap = np.log(ratio) - 0.5 * d * (2.0 * x + d)
            near = d * h < _GAP_SERIES
        if not np.any(near):
            return gap
        d = np.where(near, d, 0.0)
        # summed term by term, not by a matrix product, whose order of
        # summation may depend on the shape of the call
        terms = hazard(x[..., None] + d[..., None] * nodes) * weights
        return np.where(near, -d * (terms[..., 0] + terms[..., 1] + terms[..., 2]), gap)

    def exact_overshoot(x, e):
        # Newton on -exact_gap(x, a) = e from a = e psi(x). The gap is
        # concave in a with slope minus the hazard h = 1 / (mills_scale
        # erfcx((x + a)/sqrt 2)), so the iterates fall onto the root from
        # above. The gap is formed to a few eps, which bounds how far the
        # steps can shrink and leaves too few digits for e below
        # _OVERSHOOT_SERIES; there the second-order inverse
        # a = e psi (1 - e (1 - x psi) / 2), from h' = h (h - x), is exact
        # to O(e^2). The level e = inf is the top of the range, a = inf,
        # which the iteration, run there from e = 1, never forms. Each
        # element stops stepping once its own step has converged, so its
        # value does not depend on the other elements of the call
        x = max(x, 0.0)
        e = np.asarray(e, dtype=float)
        erfcx_x = float(sp_special.erfcx(x * inv_sqrt2))
        psi = mills_scale * erfcx_x
        top = np.isinf(e)
        target = np.where(top, 1.0, np.maximum(e, _OVERSHOOT_SERIES))
        a = target * psi
        done = np.zeros(np.shape(a), dtype=bool)
        for _ in range(_OVERSHOOT_STEPS):
            erfcx_y = sp_special.erfcx((x + a) * inv_sqrt2)
            step = (0.5 * a * (2.0 * x + a) - np.log(erfcx_y / erfcx_x) - target) * (mills_scale * erfcx_y)
            step = np.where(done, 0.0, step)
            a = a - step
            done = done | (np.abs(step) <= _OVERSHOOT_TOL * (a + psi))
            if np.all(done):
                small = np.minimum(e, _OVERSHOOT_SERIES)
                series = small * psi * (1.0 - 0.5 * small * (1.0 - x * psi))
                return np.where(e < _OVERSHOOT_SERIES, series, np.where(top, math.inf, a))
        raise NonConvergence(
            f"half-normal overshoot at x = {x:g}: Newton steps still reach "
            f"{float(np.max(np.abs(step) / (a + psi))):.3g} of a + psi(x) after "
            f"{_OVERSHOOT_STEPS} steps"
        )

    return RadialLaw(
        log_survival=log_survival,
        aux_psi=aux_psi,
        tail_quantile=tail_quantile,
        exact_gap=exact_gap,
        exact_overshoot=exact_overshoot,
    )


# ---------------------------------------------------------------------------
# Builtin angular families
# ---------------------------------------------------------------------------


def _power(s: np.ndarray, k: float) -> np.ndarray:
    """s ** k; the exponents 1 and 2 skip NumPy's general power, which
    gives the same values at several times the cost."""
    if k == 1.0:
        return s
    return np.square(s) if k == 2.0 else s ** k


def _angular_power(t0: float, minus, plus, sample) -> AngularLaw:
    """The angular law c_sigma |t - t0|^tau_sigma on (0, w_sigma] per side.

    ``minus``/``plus`` are (coeff, tau, width) and ``sample`` draws T; the
    builtin families are parameter sets of this one density. g is read
    against the support's own edges t0 - w_minus and t0 + w_plus, so it is
    positive at both and 0 one ulp beyond. g(t0) follows the plus side:
    coeff when tau = 0, else 0. A minus side of width 0 (the one-sided
    uniform) declares no coefficient. The side mass
    coeff s^(1+tau)/(1+tau) is formed from s itself, never as a difference
    of CDF values, so it keeps full relative precision near t0.
    """
    (c_minus, tau_minus, w_minus), (c_plus, tau_plus, w_plus) = minus, plus
    lo, hi = t0 - w_minus, t0 + w_plus
    params = {-1: minus, 1: plus}
    one_power = (c_minus, tau_minus) == (c_plus, tau_plus)

    def density(t):
        t = np.asarray(t, dtype=float)
        s = t - t0
        inside = (t >= lo) & (t <= hi)
        if tau_plus != 0:
            inside &= s != 0
        # no power meets 0^tau with tau < 0: the base is 1 off the support,
        # and t0, kept only at tau_plus = 0, is left out of the minus power
        a = np.where(inside, np.abs(s), 1.0)
        if one_power:
            g = c_plus * a ** tau_plus
        else:
            g = np.where(s >= 0, c_plus * a ** tau_plus,
                         c_minus * np.where(s < 0, a, 1.0) ** tau_minus)
        return np.where(inside, g, 0.0)

    def side_mass(side, s):
        coeff, tau, width = params[side]
        # in this argument order s = -0.0 comes back as -0.0
        s = np.minimum(width, np.maximum(0.0, np.asarray(s, dtype=float)))
        return coeff * _power(s, 1.0 + tau) / (1.0 + tau)

    def side_mass_inverse(side, m):
        coeff, tau, _ = params[side]
        return _power(np.asarray(m, dtype=float) * ((1.0 + tau) / coeff), 1.0 / (1.0 + tau))

    return AngularLaw(
        density=density,
        t0=t0,
        tau_minus=tau_minus,
        tau_plus=tau_plus,
        support=(lo, hi),
        sample=sample,
        g_coeff_minus=c_minus if w_minus > 0 else None,
        g_coeff_plus=c_plus,
        side_mass=side_mass,
        side_mass_inverse=side_mass_inverse,
    )


def _angular_uniform(t0: float, w_minus: float, w_plus: float) -> AngularLaw:
    lo, hi = t0 - w_minus, t0 + w_plus
    g0 = 1.0 / (hi - lo)
    return _angular_power(t0, (g0, 0.0, w_minus), (g0, 0.0, w_plus),
                          lambda rng, n: rng.uniform(lo, hi, n))


def _angular_symmetric_power(t0: float, tau: float, width: float) -> AngularLaw:
    side = ((1.0 + tau) / (2.0 * width ** (1.0 + tau)), tau, width)

    def sample(rng, n):
        mags = width * rng.random(n) ** (1.0 / (1.0 + tau))
        signs = rng.integers(0, 2, n) * 2 - 1
        return t0 + signs * mags

    return _angular_power(t0, side, side, sample)


def _angular_asymmetric_power(
    t0: float, tau_minus: float, tau_plus: float,
    weight_plus: float, w_minus: float, w_plus: float,
) -> AngularLaw:
    c_plus = weight_plus * (1.0 + tau_plus) / w_plus ** (1.0 + tau_plus)
    c_minus = (1.0 - weight_plus) * (1.0 + tau_minus) / w_minus ** (1.0 + tau_minus)

    def sample(rng, n):
        side_plus = rng.random(n) < weight_plus
        mags_u = rng.random(n)
        mag_plus = w_plus * mags_u ** (1.0 / (1.0 + tau_plus))
        mag_minus = w_minus * mags_u ** (1.0 / (1.0 + tau_minus))
        return t0 + np.where(side_plus, mag_plus, -mag_minus)

    return _angular_power(t0, (c_minus, tau_minus, w_minus), (c_plus, tau_plus, w_plus), sample)


# ---------------------------------------------------------------------------
# Builtin shapes
# ---------------------------------------------------------------------------


def _shape_u_power(t0: float, kappa_minus: float, kappa_plus: float, scale: float) -> ShapeU:
    # scalar exponents only: a power with an array of exponents costs
    # several times as much, and boolean gathers more than a second power
    def u(t):
        s = np.asarray(t, dtype=float) - t0
        a = np.abs(s)
        if kappa_minus == kappa_plus:
            return 1.0 - scale * _power(a, kappa_plus)
        return 1.0 - scale * np.where(s >= 0, _power(a, kappa_plus), _power(a, kappa_minus))

    def exact_deficit(side, s):
        return scale * _power(np.asarray(s, dtype=float), kappa_plus if side > 0 else kappa_minus)

    def deficit_inverse(side, d):
        return (np.asarray(d, dtype=float) / scale) ** (1.0 / (kappa_plus if side > 0 else kappa_minus))

    return ShapeU(
        u=u,
        kappa_minus=kappa_minus,
        kappa_plus=kappa_plus,
        u_coeff_minus=scale,
        u_coeff_plus=scale,
        monotone_reach=math.inf,
        exact_deficit=exact_deficit,
        deficit_inverse=deficit_inverse,
    )


def _shape_u_cosine(t0: float) -> ShapeU:
    def u(t):
        return np.cos(np.asarray(t, dtype=float) - t0)

    def exact_deficit(side, s):
        return 2.0 * np.sin(0.5 * np.asarray(s, dtype=float)) ** 2

    def deficit_inverse(side, d):
        return 2.0 * np.arcsin(np.sqrt(0.5 * np.asarray(d, dtype=float)))

    # 1 - cos(s) = s^2/2 (1 + O(s^2)): index 2 with asymptotic coefficient 1/2
    return ShapeU(
        u=u,
        kappa_minus=2.0,
        kappa_plus=2.0,
        u_coeff_minus=0.5,
        u_coeff_plus=0.5,
        monotone_reach=math.pi,
        exact_deficit=exact_deficit,
        deficit_inverse=deficit_inverse,
    )


def _shape_v_sine(t0: float) -> ShapeV:
    def v(t):
        return np.sin(np.asarray(t, dtype=float) - t0)

    # v_tilde(s) = -sin(s) ~ -s
    return ShapeV(v=v, rho=0.0, delta=1.0, v_coeff=-1.0)


def _shape_v_power(t0: float, rho: float, delta: float, coeff: float) -> ShapeV:
    def v(t):
        s = np.abs(np.asarray(t, dtype=float) - t0)
        return rho - coeff * s ** delta

    # v_tilde(s) = coeff s^delta
    return ShapeV(v=v, rho=rho, delta=delta, v_coeff=coeff)


def _shape_v_theta_polynomial(
    t0: float, rho: float, n: int, deriv: float, shape_u: ShapeU,
    degenerate: str = "shape_v.deriv: rho * scale * n! = deriv cancels the leading term",
) -> ShapeV:
    """v = theta u with theta(t0 + s) = rho + c s^n, c = deriv/n!.

    seifert_linear is n = 1, deriv = 1. v_tilde(s) = rho u_tilde(s) - c s^n
    (1 - u_tilde(s)) for s > 0, so the leading term is rho a s^kappa below
    kappa = n, -c s^n above it, and their sum on a tie, where
    ``degenerate`` names a sum of zero.
    """
    c = deriv / math.factorial(n)
    u = shape_u.u

    def v(t):
        return (rho + c * (np.asarray(t, dtype=float) - t0) ** n) * u(t)

    kp = shape_u.kappa_plus
    if rho != 0.0 and kp < n:
        delta, lead = kp, rho * shape_u.u_coeff_plus
    elif rho == 0.0 or kp > n:
        delta, lead = float(n), -c
    else:
        delta, lead = float(n), rho * shape_u.u_coeff_plus - c
        if lead == 0.0:
            raise ParameterError(f"{degenerate}; this degenerate combination is not supported")
    return ShapeV(v=v, rho=rho, delta=delta, v_coeff=lead, theta_n=n,
                  theta_n_deriv_at_t0=deriv)


# ---------------------------------------------------------------------------
# Flat configuration handling
# ---------------------------------------------------------------------------


def parse_config_text(text: str) -> dict[str, str]:
    """Parse flat ``key=value`` lines; '#' starts a comment line."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def load_config(path) -> dict[str, str]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


# range rules of config values, each (test, wording): a value failing the
# test raises ParameterError "<key> <wording>", the value in the wording's {}
_POSITIVE = (lambda v: v > 0, "must be > 0, got {}")
_ABOVE_MINUS_ONE = (lambda v: v > -1, "must exceed -1, got {}")
_NONZERO = (lambda v: v != 0, "must be nonzero")
# 170! is about 7.3e306 and 171! overflows a double
_MAX_THETA_N = 170


class _ConfigReader:
    """Reads and range-checks config values, and tracks which keys a builder
    consumed so leftovers can be rejected."""

    def __init__(self, config: Mapping[str, object]):
        self._cfg = dict(config)
        self._used: set[str] = set()

    def raw(self, key: str, default=None, required: bool = False):
        if key in self._cfg:
            self._used.add(key)
            return self._cfg[key]
        if required:
            raise ConfigError(f"missing required key {key!r}")
        return default

    def text(self, key: str, default: str | None = None, required: bool = False) -> str | None:
        val = self.raw(key, default, required)
        return None if val is None else str(val).strip()

    def number(self, key: str, default: float | None = None, required: bool = False,
               rules=(), shared: str | None = None) -> float | None:
        """The finite number at ``key``, which must pass ``rules``.

        A failed rule names ``key``, or ``shared`` where ``key`` is a
        per-side key the config does not set and ``default`` is the value
        of the shared key.
        """
        val = self.raw(key, default, required)
        if val is None:
            return None
        try:
            fval = float(val)
        except (TypeError, ValueError):
            fval = math.nan
        if not math.isfinite(fval):
            raise ConfigError(f"key {key!r}: expected a finite number, got {val!r}")
        return self._checked(key if shared is None or key in self._cfg else shared, fval, rules)

    def integer(self, key: str, default: int | None = None, required: bool = False,
                rules=()) -> int | None:
        fval = self.number(key, default, required)
        if fval is None:
            return None
        if fval != int(fval):
            raise ConfigError(f"key {key!r}: expected an integer, got {self.raw(key, default)!r}")
        return self._checked(key, int(fval), rules)

    @staticmethod
    def _checked(key: str, value, rules):
        for test, wording in rules:
            if not test(value):
                raise ParameterError(f"{key} {wording.format(value)}")
        return value

    def finish(self):
        leftover = sorted(set(self._cfg) - self._used)
        if leftover:
            raise ConfigError(f"unknown configuration keys: {', '.join(leftover)}")


def build_builtin_model(config: Mapping[str, object]) -> PolarModel:
    """Assemble a PolarModel from a flat key=value mapping.

    Families and their keys (defaults in parentheses):

    radial.family    exponential | weibull | half_normal
        exponential: radial.rate (1.0)
        weibull:     radial.beta (required)
    angular.family   uniform | symmetric_power | asymmetric_power
        shared:      angular.t0 (0.0)
        uniform:     angular.halfwidth (1.0) or angular.halfwidth_minus /
                     angular.halfwidth_plus (one-sided support via
                     halfwidth_minus=0)
        symmetric_power: angular.tau (required), angular.halfwidth (1.0)
        asymmetric_power: angular.tau_minus, angular.tau_plus,
                     angular.weight_plus (required), halfwidths as uniform
    shape_u.family   power | cosine
        power:       shape_u.kappa (2.0) or per-side kappa_minus/kappa_plus,
                     shape_u.scale (1.0)
    shape_v.family   sine | seifert_linear | power_v | theta_polynomial
        (section optional; omit for models without a second shape)
        seifert_linear: shape_v.rho (0.0)
        power_v:     shape_v.rho (0.0), shape_v.delta (required),
                     shape_v.coeff (1.0)
        theta_polynomial: shape_v.rho (0.0), shape_v.n (required),
                     shape_v.deriv (required)

    The angular families are parameter sets of one density,
    c_sigma |t - t0|^tau_sigma on (0, w_sigma] per side, each with its own
    sampler: uniform ties tau = 0 and one c on both sides, symmetric_power
    ties the sides' tau and width with mass 1/2 each, and asymmetric_power
    ties nothing. The model is two-sided exactly when the angular support
    extends below angular.t0; no key sets it. Every value is range-checked
    where its key is read, and a violation raises ParameterError naming
    the key the config set (the shared angular.halfwidth or shape_u.kappa
    for a side the config does not set on its own); a config with several
    faults reports the first one read. Unknown family tags raise
    UnknownFamilyError; unknown keys raise ConfigError.
    """
    cfg = _ConfigReader(config)
    rfam = cfg.text("radial.family", required=True)
    if rfam == "exponential":
        radial = _radial_exponential(cfg.number("radial.rate", 1.0, rules=[_POSITIVE]))
    elif rfam == "weibull":
        radial = _radial_weibull(cfg.number("radial.beta", required=True, rules=[_POSITIVE]))
    elif rfam == "half_normal":
        radial = _radial_half_normal()
    else:
        raise UnknownFamilyError(f"radial.family: unknown family {rfam!r}")

    t0 = cfg.number("angular.t0", 0.0)
    afam = cfg.text("angular.family", "uniform")
    if afam == "uniform":
        w = cfg.number("angular.halfwidth", 1.0)
        # the plus width first, so a shared width below 0 fails its > 0 rule
        w_plus = cfg.number("angular.halfwidth_plus", w, rules=[_POSITIVE], shared="angular.halfwidth")
        w_minus = cfg.number("angular.halfwidth_minus", w, shared="angular.halfwidth",
                             rules=[(lambda v: v >= 0, "must be >= 0, got {}")])
        angular = _angular_uniform(t0, w_minus, w_plus)
    elif afam == "symmetric_power":
        angular = _angular_symmetric_power(
            t0, cfg.number("angular.tau", required=True, rules=[_ABOVE_MINUS_ONE]),
            cfg.number("angular.halfwidth", 1.0, rules=[_POSITIVE]),
        )
    elif afam == "asymmetric_power":
        w = cfg.number("angular.halfwidth", 1.0)
        angular = _angular_asymmetric_power(
            t0,
            cfg.number("angular.tau_minus", required=True, rules=[_ABOVE_MINUS_ONE]),
            cfg.number("angular.tau_plus", required=True, rules=[_ABOVE_MINUS_ONE]),
            cfg.number("angular.weight_plus", required=True,
                       rules=[(lambda v: 0 < v < 1, "must be in (0, 1), got {}")]),
            cfg.number("angular.halfwidth_minus", w, rules=[_POSITIVE], shared="angular.halfwidth"),
            cfg.number("angular.halfwidth_plus", w, rules=[_POSITIVE], shared="angular.halfwidth"),
        )
    else:
        raise UnknownFamilyError(f"angular.family: unknown family {afam!r}")

    ufam = cfg.text("shape_u.family", "power")
    if ufam == "power":
        kappa = cfg.number("shape_u.kappa", 2.0)
        shape_u = _shape_u_power(
            t0,
            cfg.number("shape_u.kappa_minus", kappa, rules=[_POSITIVE], shared="shape_u.kappa"),
            cfg.number("shape_u.kappa_plus", kappa, rules=[_POSITIVE], shared="shape_u.kappa"),
            cfg.number("shape_u.scale", 1.0, rules=[_POSITIVE]),
        )
    elif ufam == "cosine":
        shape_u = _shape_u_cosine(t0)
    else:
        raise UnknownFamilyError(f"shape_u.family: unknown family {ufam!r}")

    vfam = cfg.text("shape_v.family")
    if vfam is None:
        shape_v = None
    elif vfam == "sine":
        shape_v = _shape_v_sine(t0)
    elif vfam == "seifert_linear":
        shape_v = _shape_v_theta_polynomial(
            t0, cfg.number("shape_v.rho", 0.0), 1, 1.0, shape_u,
            "shape_v.rho: rho * scale = 1 makes the linear term of v vanish")
    elif vfam == "power_v":
        shape_v = _shape_v_power(
            t0,
            cfg.number("shape_v.rho", 0.0),
            cfg.number("shape_v.delta", required=True,
                       rules=[(lambda v: v > 0, "must be > 0 for the power family, got {}")]),
            cfg.number("shape_v.coeff", 1.0, rules=[_NONZERO]),
        )
    elif vfam == "theta_polynomial":
        shape_v = _shape_v_theta_polynomial(
            t0,
            cfg.number("shape_v.rho", 0.0),
            cfg.integer("shape_v.n", required=True, rules=[
                (lambda n: n >= 1, "must be an integer >= 1, got {}"),
                (lambda n: n <= _MAX_THETA_N, f"must be at most {_MAX_THETA_N}, whose factorial is "
                                              "the largest that fits a double; got {}"),
            ]),
            cfg.number("shape_v.deriv", required=True, rules=[_NONZERO]),
            shape_u,
        )
    else:
        raise UnknownFamilyError(f"shape_v.family: unknown family {vfam!r}")

    cfg.finish()
    return PolarModel(radial=radial, angular=angular, shape_u=shape_u, shape_v=shape_v)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


# Resolution and thresholds of the assumption checks. The checks certify
# "not falsified at this resolution"; the underlying assumptions are
# asymptotic statements no finite grid can prove.
_POINTS_PER_DECADE = 64
_S_LO, _S_HI = 1e-4, 1e-2          # the small-s slope and sign grid
_GAMMA_X = (1e2, 1e4, 1e6)
_GAMMA_LAMBDAS = (-1.0, 0.0, 1.0, 2.0)
_EPS_VALUES = (0.05, 0.1, 0.5)
_SUPPORT_POINTS = 2001
_DENSITY_TOL = 1e-8
_SLOPE_TOL = 0.05
_GAMMA_TOL = 0.05
_EXACT_TOL = 1e-12
_RESOLVED = 1e-8                   # smallest declared term read against rounding
_ROUND_TRIP = np.geomspace(1e-12, 1.0, 64)       # fractions of an inverse's range
_MASS_GRID = np.geomspace(1e-6, 1.0, 13)         # side widths where side_mass is read
_SAMPLE_DRAWS = 4096               # angles angular.sample draws for its KS row
# scipy.special.kolmogi(1e-6): sqrt(n) times the KS distance of a right
# sampler exceeds it with probability 1e-6
_SAMPLE_KS = 2.69
_OVERSHOOT_X = (0.0, 1.0) + _GAMMA_X
_OVERSHOOT_LEVELS = np.geomspace(1e-3, 50.0, 32)
_OVERSHOOT_PRECISION = 1e-10       # RadialLaw.overshoot's documented precision
_QUANTILE_P = np.array([0.5, 0.99])            # quantiles of R where tail_quantile is read
# p = 1 - e^-e keeps the digits of e only up to about e = 10
_QUANTILE_LEVELS = np.geomspace(1e-3, 10.0, 32)
_QUANTILE_PRECISION = 1e-8


@dataclass(frozen=True)
class CheckEntry:
    name: str
    passed: bool
    measured: float
    expected: str
    margin: float | None = None
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    entries: tuple[CheckEntry, ...]

    @property
    def passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def failures(self) -> tuple[CheckEntry, ...]:
        return tuple(e for e in self.entries if not e.passed)

    def entry(self, name: str) -> CheckEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)


def _s_grid(s_max_allowed: float) -> np.ndarray:
    hi = min(_S_HI, s_max_allowed)
    if hi <= _S_LO:
        raise ValueError("support too narrow for the slope grid")
    decades = math.log10(hi / _S_LO)
    n = max(int(round(_POINTS_PER_DECADE * decades)), 8)
    return np.geomspace(_S_LO, hi, n)


def _round_trip_error(forward, inverse, values) -> float:
    """max |forward(inverse(v)) / v - 1| over ``values``."""
    back = np.asarray(forward(np.asarray(inverse(values), dtype=float)), dtype=float)
    return float(np.max(np.abs(back / values - 1.0)))


def validate_model(mdl: PolarModel) -> ValidationReport:
    """Run every numerical assumption check and collect a report.

    Failures are report entries, never exceptions; exceptions and
    non-finite values raised by user callables are themselves recorded as
    failed entries, and a NaN anywhere in a check's measurements makes
    its measured value NaN; an entry with nothing to read passes with a
    NaN, and ``angular.normalization`` fails with a NaN when its adaptive
    integral does not converge. The report is a deterministic function of
    the model.
    """
    from . import oracle

    entries: list[CheckEntry] = []

    def run(name: str, expected: str, fn):
        try:
            passed, measured, margin, detail = fn()
            if measured is None:  # the entry reads nothing; its detail says why
                measured = math.nan
            elif not np.isfinite(measured) and passed:
                passed, detail = False, detail + " [non-finite measurement]"
            entries.append(CheckEntry(name, bool(passed), float(measured), expected, margin, detail))
        except Exception as exc:  # noqa: BLE001 - report, never raise
            entries.append(CheckEntry(name, False, math.nan, expected, None, f"evaluation error: {exc}"))

    lo, hi = mdl.angular.support
    t0 = mdl.angular.t0
    # the record of each side the model has
    sides = mdl.sides(Condition.UNRESTRICTED)

    # --- radial ---
    def survival_monotone():
        xs = np.concatenate(([0.0], np.geomspace(1e-3, 200.0, 400)))
        vals = np.asarray(mdl.radial.survival(xs), dtype=float)
        worst = float(np.max(np.diff(vals)))
        return worst <= 1e-15, worst, None, "max increase of survival along the grid"

    run("radial.survival_monotone", "nonincreasing on [0, 200]", survival_monotone)

    def survival_at_zero():
        v = float(np.asarray(mdl.radial.survival(np.array([0.0])))[0])
        return abs(v - 1.0) <= 1e-12, v, None, ""

    run("radial.survival_at_zero", "survival(0) = 1", survival_at_zero)

    def gamma_psi():
        # Hbar(x + psi lam) / Hbar(x) from the gap, never as a difference of
        # log_survival values; a lam < 0 step is the gap from x + psi lam up to x
        per_x = []
        for x in _GAMMA_X:
            psi = float(mdl.radial.aux_psi(x))
            errs = []
            for lam in _GAMMA_LAMBDAS:
                d = psi * abs(lam)
                lo = x + psi * min(lam, 0.0)
                gap = float(np.asarray(mdl.radial.log_survival_gap(lo, d)))
                errs.append(abs(math.exp(gap if lam >= 0 else -gap) - math.exp(-lam)))
            per_x.append(float(np.max(errs)))
        worst_last = per_x[-1]
        detail = "max ratio errors per x: " + ", ".join(f"{e:.3g}" for e in per_x)
        return worst_last <= _GAMMA_TOL, worst_last, _GAMMA_TOL - worst_last, detail

    run("radial.gamma_psi_ratio", f"ratio error <= {_GAMMA_TOL} at x={_GAMMA_X[-1]:g}", gamma_psi)

    def psi_sublinear():
        xs = np.geomspace(1.0, 200.0, 200)
        ratios = np.array([mdl.radial.aux_psi(float(x)) / x for x in xs])
        worst = float(np.max(np.diff(ratios)))
        ok = worst <= 1e-15 and ratios[-1] < ratios[0]
        return ok, float(ratios[-1]), None, f"psi(x)/x falls from {ratios[0]:.3g} to {ratios[-1]:.3g}"

    run("radial.psi_sublinear", "psi(x)/x decreasing toward 0", psi_sublinear)

    def gap_matches_difference():
        # moderate x and d, where the plain difference keeps its digits
        x = np.geomspace(0.5, 20.0, 8)[:, None]
        d = np.geomspace(1e-2, 5.0, 8)[None, :]
        ls_far = np.asarray(mdl.radial.log_survival(x + d), dtype=float)
        diff = ls_far - np.asarray(mdl.radial.log_survival(x), dtype=float)
        gap = np.asarray(mdl.radial.log_survival_gap(x, d), dtype=float)
        worst = float(np.max(np.abs(gap - diff) / np.maximum(1.0, np.abs(ls_far))))
        return worst <= _EXACT_TOL, worst, _EXACT_TOL - worst, \
            "max |gap - difference| / max(1, |log_survival(x + d)|), x in [0.5, 20], d in [0.01, 5]"

    run("radial.log_survival_gap", "log_survival_gap(x, d) = log_survival(x + d) - log_survival(x)",
        gap_matches_difference)

    # the sampler and the level rule draw the overshoot from the level
    if mdl.radial.exact_overshoot is not None:
        def overshoot_round_trip():
            worst = float(np.max([_round_trip_error(
                lambda a, x=x: -np.asarray(mdl.radial.log_survival_gap(x, a)),
                lambda e, x=x: mdl.radial.overshoot(x, e), _OVERSHOOT_LEVELS) for x in _OVERSHOOT_X]))
            return worst <= _OVERSHOOT_PRECISION, worst, _OVERSHOOT_PRECISION - worst, \
                "max |-log_survival_gap(x, overshoot(x, e)) / e - 1| for e in [1e-3, 50], " \
                f"x in {', '.join(f'{x:g}' for x in _OVERSHOOT_X)}"

        run("radial.overshoot", "-log_survival_gap(x, overshoot(x, e)) = e", overshoot_round_trip)

    # the whole-support plan draws R by tail_quantile, and overshoot falls
    # back on it; read at x = 0 and at quantiles of R itself, where the
    # overshoot a is not far below the resolution of x + a at any scale
    def tail_quantile_round_trip():
        xs = [0.0] + [float(q) for q in np.asarray(mdl.radial.tail_quantile(_QUANTILE_P, 0.0))]
        worst = float(np.max([_round_trip_error(
            lambda r, x=x: mdl.radial.log_survival(np.array([x])) - mdl.radial.log_survival(r),
            lambda e, x=x: mdl.radial.tail_quantile(-np.expm1(-e), x), _QUANTILE_LEVELS)
            for x in xs]))
        return worst <= _QUANTILE_PRECISION, worst, _QUANTILE_PRECISION - worst, \
            "max |log(survival(x) / survival(tail_quantile(1 - e^-e, x))) / e - 1| for e in " \
            f"[1e-3, 10], x in {', '.join(f'{x:.3g}' for x in xs)}"

    run("radial.tail_quantile", "survival(tail_quantile(p, x)) = (1 - p) survival(x)",
        tail_quantile_round_trip)

    # --- angular ---
    ang = mdl.angular

    @functools.cache  # the normalization and side_mass entries read the same panels
    def density_panels(facts: SideFacts):
        """Distances 1e-6 .. 1 side widths from t0; the mass of the declared
        leading term below the first (None without g_coeff); and the integral
        of g between each two and its error estimate, by one Kronrod panel each."""
        s, tau = facts.width * _MASS_GRID, facts.tau
        head = None if facts.g_coeff is None else facts.g_coeff * s[0] ** (1.0 + tau) / (1.0 + tau)
        return (s, head) + oracle._gk15_panels(lambda v: ang.g_tilde(facts.side * v), s[:-1], s[1:])

    def normalization():
        # where every side declares g_coeff, its Kronrod panels plus the
        # declared leading term below the first, unless their error estimate
        # misses the tolerance; otherwise the adaptive integral
        if all(facts.g_coeff is not None for facts in sides):
            parts, err = [], 0.0
            for facts in sides:
                _, head, pieces, errs = density_panels(facts)
                parts += [head] + pieces
                err += math.fsum(errs)
            if err <= _DENSITY_TOL:
                value = math.fsum(parts)
                err = abs(value - 1.0)
                return err <= _DENSITY_TOL, value, _DENSITY_TOL - err, \
                    "Kronrod panels at 1e-6 .. 1 side widths, declared leading term below"
        res = oracle.adaptive_quadrature(
            lambda t: np.asarray(mdl.angular.density(np.asarray(t)), dtype=float),
            lo, hi, rel_tol=1e-12, abs_tol=1e-14, breakpoints=(t0,),
        )
        if not res.converged:
            return False, None, None, (
                f"adaptive integral did not converge: error estimate "
                f"{res.abs_error_estimate:.3g} after {res.evaluations} evaluations")
        err = abs(res.value - 1.0)
        return err <= _DENSITY_TOL, res.value, _DENSITY_TOL - err, ""

    run("angular.normalization", f"|integral - 1| <= {_DENSITY_TOL}", normalization)

    def leading_term(local, what: str, width: float, index: float, coeff: float | None,
                     against: float, slope: tuple[str, str], coeff_name: str):
        """The slope entry, and with a declared ``coeff`` the coefficient
        entry, of the term local(s) ~ coeff s^index as s -> 0+.

        The term is resolved where it reaches _RESOLVED times ``against``, the
        value it cancels against in local (a normal double when that is 0).
        On three or more resolved grid points the slope is fit beside a term
        linear in s, and local(s)/s^index is extrapolated to s = 0 along its
        secant from the first resolved point to the last, so a next-order
        term linear in s drops out of both. Otherwise local must stay within
        the resolution of the term, and no coefficient is read.
        """
        level = max(_RESOLVED * against, sys.float_info.min)

        @functools.cache  # both entries read the same measurement
        def measure():
            s = _s_grid(width)
            y = np.asarray(local(s), dtype=float)
            if coeff is None:  # the whole grid, where local must be positive
                return s, y, None, np.arange(len(s))
            log_term = math.log(abs(coeff)) + index * np.log(s)
            return s, y, log_term, np.flatnonzero(log_term >= math.log(level))

        def slope_check():
            s, y, log_term, resolved = measure()
            if len(resolved) < 3:
                worst = float(np.max(np.abs(y - math.copysign(1.0, coeff) * np.exp(log_term))))
                return worst <= level, worst, level - worst, \
                    f"{coeff:g} s^{index:g} stays below {level:g} on the grid; max |{what} - it|"
            s, y = s[resolved], y[resolved]
            # a declared coefficient carries the sign, which its own entry reads
            sign = 1.0 if coeff is None else np.sign(y[0])
            if not np.all(np.isfinite(y) & (sign * y > 0)):
                return False, math.nan, None, \
                    f"{what} not {'positive' if coeff is None else 'of one sign'} on the slope grid"
            basis = np.column_stack((np.ones_like(s), np.log(s), s))
            fitted = float(np.linalg.lstsq(basis, np.log(sign * y), rcond=None)[0][1])
            err = abs(fitted - index)
            return err <= _SLOPE_TOL, fitted, _SLOPE_TOL - err, f"declared {index}"

        def coeff_check():
            s, y, log_term, resolved = measure()
            if len(resolved) < 3:
                return True, None, None, f"not read: {slope[0]} bounds {what}"
            ends = resolved[[0, -1]]
            (s1, s2), (r1, r2) = s[ends], abs(coeff) * y[ends] / np.exp(log_term[ends])
            got = float((s2 * r1 - s1 * r2) / (s2 - s1))
            err, tol = abs(got - coeff), 0.10 * abs(coeff)
            return err <= tol, got, tol - err, f"from s = {s1:.3g} to {s2:.3g}, declared {coeff:g}"

        run(*slope, slope_check)
        if coeff is not None:
            run(coeff_name, f"{what}/s^{index:g} at s -> 0 within 10% of the declared value", coeff_check)

    for facts in sides:
        leading_term(lambda s, side=facts.side: ang.g_tilde(side * s), "g_tilde", facts.width,
                     facts.tau, facts.g_coeff, 0.0,
                     (f"angular.tau_slope_{facts.name}", f"log-log slope matches tau_{facts.name}"),
                     f"angular.g_coeff_{facts.name}")

    # the stratified sampler and the level rule read these over the whole side
    if ang.side_mass is not None:
        def side_mass_matches_density():
            # increments between distances 1e-6 .. 1 side widths by one Kronrod
            # panel each, where g is smooth; below the first, the declared
            # leading term, and nothing without one
            errs = []
            for facts in sides:
                s, head, pieces, _ = density_panels(facts)
                mass = np.asarray(ang.side_mass(facts.side, s), dtype=float)
                first = mass[0] if head is None else head
                errs.append(np.max(np.abs(mass - first - np.concatenate(([0.0], np.cumsum(pieces))))))
            worst = float(np.max(errs))
            return worst <= _DENSITY_TOL, worst, _DENSITY_TOL - worst, \
                "max |side_mass - integral of g from t0| at 1e-6 .. 1 side widths"

        def side_mass_round_trip():
            worst = float(np.max([_round_trip_error(
                lambda s, side=facts.side: ang.side_mass(side, s),
                lambda m, side=facts.side: ang.side_mass_inverse(side, m),
                facts.mass * _ROUND_TRIP) for facts in sides]))
            return worst <= _EXACT_TOL, worst, _EXACT_TOL - worst, \
                "max |side_mass(side_mass_inverse(m)) / m - 1| for m up to the side's mass"

        run("angular.side_mass", f"side_mass(side, s) = integral of g within {_DENSITY_TOL}",
            side_mass_matches_density)
        run("angular.side_mass_inverse", "side_mass(side, side_mass_inverse(side, m)) = m",
            side_mass_round_trip)

    # the whole-support plan and the fixed-budget estimate draw T from sample
    def sample_matches_side_masses():
        if ang.side_mass is None:
            return True, None, None, "not read: no angular.side_mass to form the CDF from"
        # the CDF of T: the minus mass, less the mass between t and t0 below
        # t0, plus the mass between t0 and t above it
        t = np.sort(np.asarray(ang.sample(np.random.default_rng(0), _SAMPLE_DRAWS), dtype=float))
        minus = math.fsum(facts.mass for facts in sides if facts.side < 0)
        cdf = np.where(t < t0, minus - np.asarray(ang.side_mass(-1, np.maximum(t0 - t, 0.0)), dtype=float),
                       minus + np.asarray(ang.side_mass(1, np.maximum(t - t0, 0.0)), dtype=float))
        steps = np.arange(_SAMPLE_DRAWS + 1) / _SAMPLE_DRAWS
        stat = math.sqrt(_SAMPLE_DRAWS) * float(np.max(np.maximum(steps[1:] - cdf, cdf - steps[:-1])))
        return stat <= _SAMPLE_KS, stat, _SAMPLE_KS - stat, \
            f"sqrt(n) times the KS distance of n = {_SAMPLE_DRAWS} draws (SeedSequence(0)) " \
            "from the CDF of the side masses"

    run("angular.sample", f"sqrt(n) KS distance from the side masses <= {_SAMPLE_KS}",
        sample_matches_side_masses)

    # --- shape u ---
    support_ts = np.linspace(lo, hi, _SUPPORT_POINTS)

    @functools.cache  # evaluated once, inside the entries, so a u that raises fails each of them
    def u_on_support():
        return np.asarray(mdl.shape_u.u(support_ts), dtype=float)

    def center_value():
        v = float(np.asarray(mdl.shape_u.u(np.array([t0])))[0])
        err = abs(v - 1.0)
        return err <= _EXACT_TOL, v, _EXACT_TOL - err, ""

    run("shape_u.center_value", "u(t0) = 1 within 1e-12", center_value)

    def bounded():
        vals = np.abs(u_on_support())
        worst = float(np.max(vals))
        return worst <= 1.0 + 1e-12, worst, 1.0 - worst, "max |u| on the support grid"

    run("shape_u.bounded_by_one", "|u| <= 1 on the support", bounded)

    for eps in _EPS_VALUES:
        def sup_outside(eps=eps):
            outside = np.abs(support_ts - t0) > eps
            if not np.any(outside):
                return True, None, None, f"not read: no support points with |t - t0| > {eps}"
            sup = float(np.max(u_on_support()[outside]))
            return sup < 1.0, sup, 1.0 - sup, f"sup of u outside eps={eps}"

        run(f"shape_u.sup_outside_eps_{eps:g}", "sup u < 1 strictly", sup_outside)

    su = mdl.shape_u
    for facts in sides:
        # the deficit cancels against u(t0) = 1 unless it is in closed form
        leading_term(facts.deficit, "u_tilde", facts.width,
                     facts.kappa, facts.u_coeff, 1.0 if su.exact_deficit is None else 0.0,
                     (f"shape_u.kappa_slope_{facts.name}",
                      f"u_tilde > 0 and slope matches kappa_{facts.name}"),
                     f"shape_u.u_coeff_{facts.name}")

    def deficit_matches_difference():
        errs = []
        for facts in sides:
            s = facts.width * np.geomspace(1e-3, 1.0, 64)
            dlt = np.asarray(facts.deficit(s), dtype=float)
            diff = np.asarray(_center_gap(su.u, t0, facts.side * s), dtype=float)
            errs.append(np.max(np.abs(dlt - diff) / np.maximum(1.0, np.abs(diff))))
        worst = float(np.max(errs))
        return worst <= _EXACT_TOL, worst, _EXACT_TOL - worst, \
            "max |deficit - u_tilde| / max(1, |u_tilde|) for s from 1e-3 to 1 side widths"

    run("shape_u.deficit", "deficit(side, s) = u(t0) - u(t0 + side*s)", deficit_matches_difference)

    reach = su.monotone_reach
    # the inverse is used only within monotone_reach: by the level rule up
    # to the side's edge when the reach covers the side, by compute_phi up
    # to the bracket's ceiling s_max when it covers the bracket
    if su.deficit_inverse is not None and reach > 0:
        def inverse_round_trip():
            worst = float(np.max([_round_trip_error(
                facts.deficit, lambda d, side=facts.side: su.deficit_inverse(side, d),
                (facts.edge_deficit if reach >= facts.width else facts.bracket_deficit
                 if reach >= facts.s_max else facts._deficit(reach / 2.0)) * _ROUND_TRIP)
                for facts in sides]))
            return worst <= _EXACT_TOL, worst, _EXACT_TOL - worst, \
                "max |deficit(deficit_inverse(d)) / d - 1| for d up to the deficit at the " \
                "side's edge where monotone_reach covers the side, at s_max where it covers " \
                "the bracket, else at half of monotone_reach"

        run("shape_u.deficit_inverse", "deficit(side, deficit_inverse(side, d)) = d",
            inverse_round_trip)

    if reach > 0:
        def monotone_within_reach():
            rises = []
            for facts in sides:
                s = np.linspace(0.0, min(reach, facts.width), _SUPPORT_POINTS)
                rises.append(np.max(np.diff(np.asarray(mdl.shape_u.u(t0 + facts.side * s)))))
            worst = float(np.max(rises))
            return worst <= _EXACT_TOL, worst, _EXACT_TOL - worst, \
                f"max increase of u moving away from t0 within min(monotone_reach = {reach:g}, side width)"

        run("shape_u.monotone_reach", "u nonincreasing in |t - t0| within monotone_reach",
            monotone_within_reach)

    # --- shape v ---
    if mdl.shape_v is not None:
        sv = mdl.shape_v

        def rho_value():
            v = float(np.asarray(sv.v(np.array([t0])))[0])
            err = abs(v - sv.rho)
            return err <= _EXACT_TOL, v, _EXACT_TOL - err, f"declared rho {sv.rho}"

        run("shape_v.center_value", "v(t0) = rho within 1e-12", rho_value)

        # v_tilde = v(t0) - v(t0 + s) cancels against v(t0) = rho
        leading_term(lambda s: _center_gap(sv.v, t0, s), "v_tilde", mdl.side(1).width, sv.delta,
                     sv.v_coeff, abs(sv.rho),
                     ("shape_v.delta_slope", "log-log slope of |v_tilde| matches delta"),
                     "shape_v.v_coeff")

        if sv.theta_n is not None:
            n, d = sv.theta_n, sv.theta_n_deriv_at_t0
            # theta - rho = d s^n/n! is read where it clears the rounding of rho,
            # in logs, where n! and s^n stay in range, up to the plus side's width
            level, log_fact = max(_RESOLVED * abs(sv.rho), sys.float_info.min), math.lgamma(n + 1)
            width = mdl.side(1).width

            def theta_check():
                log_s = max(math.log(_S_LO), (math.log(level) - (math.log(abs(d)) - log_fact)) / n)
                resolved = log_s < math.log(width)
                s = math.exp(log_s) if resolved else width / 2.0
                v_s, u_s = (float(np.asarray(f(np.array([t0 + s])), dtype=float)[0])
                            for f in (sv.v, mdl.shape_u.u))
                gap = v_s / u_s - sv.rho
                if not resolved:
                    # d s^n/n! is below level on the whole plus side, so v/u - rho must be too
                    return abs(gap) <= level, gap, level - abs(gap), \
                        f"d s^n/n! is below {level:g} on the plus side; v/u - rho at s = {s:.3g}"
                got = 0.0 if gap == 0.0 else math.copysign(
                    math.exp(math.log(abs(gap)) + log_fact - n * math.log(s)), gap)
                err, tol = abs(got - d), 0.10 * abs(d)
                return err <= tol, got, tol - err, f"at s = {s:.3g}, declared {d:g}"

            run("shape_v.theta", "(v/u - rho) n!/s^n within 10% of theta_n_deriv_at_t0 where "
                "d s^n/n! is resolved", theta_check)

    # --- joint finiteness of the callables ---
    def finite_callables():
        vals = [np.asarray(mdl.angular.density(support_ts), dtype=float), u_on_support()]
        if mdl.shape_v is not None:
            vals.append(np.asarray(mdl.shape_v.v(support_ts), dtype=float))
        bad = sum(int(np.sum(~np.isfinite(v))) for v in vals)
        return bad == 0, float(bad), None, "count of non-finite evaluations on the support grid"

    run("callables.finite", "g, u, v finite on the support", finite_callables)

    return ValidationReport(entries=tuple(entries))

"""The limit law of the normalized conditional pair, with an exact sampler.

Under the conditioning {X > x} the normalized pair ((R - x)/psi(x),
(T - t0)/phi(x)) settles into one law. Each side of t0 that the event
covers contributes a ``LimitSide`` with joint density

    f(r, t) = kappa / Gamma((1 + tau)/kappa) * t^tau * e^{-r}
              on  0 < t < r^{1/kappa},

where kappa is the index of the shape deficit u_tilde and tau the index of
the angular density near the center. Writing e = (1 + tau)/kappa, the t
magnitude satisfies T^kappa ~ Gamma(e) and, given T, the first coordinate
is T^kappa plus an independent unit exponential. That decomposition is
used here as the exact sampler, which makes it the reference every Monte
Carlo comparison is measured against: no rejection step, no approximation.
It also gives the joint CDF of a side in closed form,

    F(r, t) = P(e, m^kappa) - kappa / Gamma(e) * e^{-r} m^{1+tau} / (1 + tau),
              m = min(t, r^{1/kappa}),

with P the regularized lower incomplete gamma function, so cell masses
of the limit law are exact differences of F rather than quadratures.

A ``LimitLaw`` has the sides of ``PolarModel.sides``: the plus side
always, the minus side when the event covers it. A sign S is drawn with
Gamma-weighted probabilities built from the per-side (p, kappa, tau), then
the pair follows that side, with the t coordinate negated on the minus
side. A law with no minus side has sign +1 with probability 1. ``density``,
``cdf`` and ``sample`` are the same functions for either.

Bivariate limits for (X, Y) = (R u(T), R v(T)) are pushforwards of the
plus-side pair (r, t); ``CorollaryCase`` names the map and carries its
parameters, ``pushforward_corollary`` applies it.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from ._seeding import make_generator
from .errors import ParameterError

__all__ = [
    "LimitSide",
    "LimitLaw",
    "CorollaryKind",
    "CorollaryCase",
    "density",
    "cdf",
    "sample",
    "pushforward_corollary",
]


# Gamma(e) overflows a double beyond e = 171.62
_MAX_GAMMA_SHAPE = 171.0
# ulps within which two Gamma shapes are one (see LimitSide.ties)
_TIE_ULPS = 4


def gamma_shape(kappa: float, tau: float) -> float:
    """e = (1 + tau) / kappa of a side with deficit index kappa and angular index tau.

    T^kappa of the limit side is Gamma(e), and the mass of the side that
    passes X > x at a small radial level y grows like y^e.
    """
    return (1.0 + tau) / kappa


@dataclass(frozen=True)
class LimitSide:
    """One side of the limit pair; ``norm_const`` is kappa / Gamma((1+tau)/kappa)."""

    kappa: float
    tau: float
    norm_const: float = field(init=False)

    def __post_init__(self):
        if not (np.isfinite(self.kappa) and self.kappa > 0):
            raise ParameterError(f"LimitSide: kappa must be > 0, got {self.kappa}")
        if not (np.isfinite(self.tau) and self.tau > -1):
            raise ParameterError(f"LimitSide: tau must exceed -1, got {self.tau}")
        if self.gamma_shape > _MAX_GAMMA_SHAPE:
            raise ParameterError(
                f"LimitSide: (1 + tau)/kappa = {self.gamma_shape:g} exceeds "
                f"{_MAX_GAMMA_SHAPE:g}, where Gamma((1 + tau)/kappa) overflows"
            )
        object.__setattr__(self, "norm_const", self.kappa / math.gamma(self.gamma_shape))

    @property
    def gamma_shape(self) -> float:
        """(1 + tau) / kappa, the Gamma shape of T^kappa."""
        return gamma_shape(self.kappa, self.tau)

    def ties(self, other: "LimitSide") -> bool:
        """Whether the two sides have one Gamma shape e.

        The shapes are quotients of declared exponents, so a tie can come
        out of the division a few ulps apart (1.1/3.3 against 1/3); they
        tie when they agree within _TIE_ULPS ulps of the larger.
        """
        a, b = self.gamma_shape, other.gamma_shape
        return abs(a - b) <= _TIE_ULPS * math.ulp(max(a, b))


@dataclass(frozen=True)
class LimitLaw:
    """The signed limit pair: a plus side and, if the event covers it, a minus side.

    ``p_minus``/``p_plus`` are the mixture weights of the window-mass
    limits; a law without a minus side has p_minus = 0. The sign law
    P{S = sigma}, proportional to (p_sigma / kappa_sigma) Gamma((1 +
    tau_sigma) / kappa_sigma), reweights them and is computed at
    construction as ``prob_minus``/``prob_plus``. The t coordinate of each
    side is T - t0 over that side's own window.
    """

    plus: LimitSide
    minus: LimitSide | None = None
    p_minus: float = 0.0
    p_plus: float = 1.0
    prob_minus: float = field(init=False)
    prob_plus: float = field(init=False)

    def __post_init__(self):
        for name, p in (("p_minus", self.p_minus), ("p_plus", self.p_plus)):
            if not (0.0 <= p <= 1.0):
                raise ParameterError(f"LimitLaw.{name} must lie in [0, 1], got {p}")
        if abs(self.p_minus + self.p_plus - 1.0) > 1e-12:
            raise ParameterError(
                f"mixture weights must sum to 1, got {self.p_minus + self.p_plus}"
            )
        if self.minus is None and self.p_minus != 0.0:
            raise ParameterError(f"a law without a minus side needs p_minus = 0, got {self.p_minus}")
        # log weights, since (p / kappa) Gamma(e) overflows for small kappa
        # even where the ratio of the sides is 1; a side with p = 0 weighs 0
        pairs = ((self.p_plus, self.plus), (self.p_minus, self.minus))
        log_w = [
            math.log(p / side.kappa) + math.lgamma(side.gamma_shape) if p > 0 else -math.inf
            for p, side in pairs if side is not None
        ]
        # normalized by the larger weight, finite because p_minus + p_plus = 1
        top = max(log_w)
        w = [math.exp(v - top) for v in log_w]
        total = sum(w)
        object.__setattr__(self, "prob_plus", w[0] / total)
        object.__setattr__(self, "prob_minus", w[1] / total if len(w) == 2 else 0.0)

    @property
    def sides(self) -> tuple[tuple[int, float, LimitSide], ...]:
        """(sign, probability, side) of each side: plus first, then minus if present."""
        if self.minus is None:
            return ((1, self.prob_plus, self.plus),)
        return ((1, self.prob_plus, self.plus), (-1, self.prob_minus, self.minus))


# ---------------------------------------------------------------------------
# Density and CDF
# ---------------------------------------------------------------------------


def _side_density(side: LimitSide, r: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Density of one side at (r, t), t its own magnitude; zero off-support.

    The support is {0 < t < r^{1/kappa}}, open at t = 0, so t = 0 returns
    0 even when tau < 0 would make the power infinite.
    """
    safe_t = np.where(t > 0, t, 1.0)
    inside = (t > 0) & (safe_t ** side.kappa < r)
    if not np.any(inside):
        return np.zeros(np.shape(t), dtype=float)
    return np.where(inside, side.norm_const * safe_t ** side.tau * np.exp(-r), 0.0)


def _side_cdf(side: LimitSide, r: np.ndarray, t) -> np.ndarray:
    """P{r' <= r, t' <= t} of one side, t its own magnitude; 0 for r <= 0 or t <= 0.

    With g = min(t^kappa, r) = m^kappa, the correction term of the closed
    form equals e^{g - r} (P(e, g) - P(e + 1, g)) by the incomplete gamma
    recurrence, which stays finite where e^{-r} m^{1+tau} would be 0 * inf.
    Both r and t may be +inf: F(r, inf) = P(e + 1, r), F(inf, t) = P(e, t^kappa).
    """
    # scipy.special costs more to import than the rest of the package, so
    # it is imported where a special function is evaluated, not at the top
    from scipy import special as sp_special

    inside = (r > 0) & (t > 0)
    g = np.minimum(np.where(inside, t, 0.0) ** side.kappa, np.where(inside, r, 0.0))
    e = side.gamma_shape
    p_e = sp_special.gammainc(e, g)
    with np.errstate(invalid="ignore"):
        decay = np.where(g < r, np.exp(g - r), 1.0)
    return np.where(inside, p_e - decay * (p_e - sp_special.gammainc(e + 1.0, g)), 0.0)


def _scalar_or_array(out: np.ndarray):
    return float(out) if out.ndim == 0 else out


def density(law: LimitLaw, r, t):
    """Joint density of the signed pair at (r, t); zero off-support.

    The sign-law mixture sum_sigma P_sigma f_sigma(r, sigma t) of the side
    densities; equivalently p_sigma |t|^{tau_sigma} e^{-r} on
    {|t|^{kappa_sigma} < r, sigma t > 0} over sum_sigma (p_sigma /
    kappa_sigma) Gamma((1 + tau_sigma) / kappa_sigma).
    """
    r, t = np.broadcast_arrays(np.asarray(r, dtype=float), np.asarray(t, dtype=float))
    out = sum(prob * _side_density(side, r, sign * t) for sign, prob, side in law.sides)
    return _scalar_or_array(out)


def cdf(law: LimitLaw, r, t):
    """Joint CDF P{r' <= r, t' <= t} of the signed pair; 0 for r <= 0.

    The sign-law mixture of the side CDFs: the plus side contributes
    P_+ F_+(r, t), which is 0 for t <= 0; the mirrored minus side
    contributes P_- (F_-(r, inf) - F_-(r, -t)), all of its mass for
    t >= 0. Both r and t may be infinite.
    """
    r, t = np.broadcast_arrays(np.asarray(r, dtype=float), np.asarray(t, dtype=float))
    out = sum(
        prob * (_side_cdf(side, r, t) if sign > 0
                else _side_cdf(side, r, np.inf) - _side_cdf(side, r, -t))
        for sign, prob, side in law.sides
    )
    return _scalar_or_array(out)


# ---------------------------------------------------------------------------
# Exact sampler
# ---------------------------------------------------------------------------


def sample(law: LimitLaw, n: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """Exact draws of the signed pair: n arrays (r, t).

    T^kappa is Gamma((1+tau)/kappa) distributed and r is t^kappa plus an
    independent unit exponential; both facts follow from factorizing the
    joint density, so the draws are exact, not approximate. A law with a
    minus side first draws the sign of each pair from its sign law; a law
    without one draws no sign, so its stream is Gamma then exponential.
    """
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    rng = make_generator(seed)
    plus, minus = law.plus, law.minus
    if minus is None:
        g = rng.gamma(plus.gamma_shape, 1.0, n)
        t = g ** (1.0 / plus.kappa)
    else:
        is_plus = rng.random(n) < law.prob_plus
        g = rng.gamma(np.where(is_plus, plus.gamma_shape, minus.gamma_shape), 1.0)
        t_mag = g ** np.where(is_plus, 1.0 / plus.kappa, 1.0 / minus.kappa)
        t = np.where(is_plus, t_mag, -t_mag)
    r = g + rng.exponential(1.0, n)
    return r, t


# ---------------------------------------------------------------------------
# Bivariate pushforward maps
# ---------------------------------------------------------------------------


class CorollaryKind(str, enum.Enum):
    """Which bivariate regime the second coordinate of (X, Y) falls in.

    FS: the deficit of v dominates; the limit is (r - t^kappa, -t^delta).
    DELTA_GT_KAPPA: the radial overshoot dominates; limit (r - t^kappa, rho r).
    RATIO_C: both contribute through the finite deficit ratio C;
        limit (r - t^kappa, C rho r - t^delta).
    SEIFERT: v factors as (t - t0 + rho) u, making Y/X linear in T;
        limit (r - t^kappa, t).
    THETA_N: v = theta u with theta flat to order n at the center;
        limit (r - t^kappa, t^n theta_deriv / n!).
    """

    FS = "fs"
    DELTA_GT_KAPPA = "delta_gt_kappa"
    RATIO_C = "ratio_c"
    SEIFERT = "seifert"
    THETA_N = "theta_n"


@dataclass(frozen=True)
class CorollaryCase:
    """A pushforward map selection plus the parameters it needs.

    Missing or out-of-range parameters raise ParameterError naming the
    field; which fields are required depends on the kind (see
    ``CorollaryKind``). ``asymptotics.corollary_case`` builds the case of
    a model from its trusted ``shape_v`` declarations, which
    ``validate_model`` checks.
    """

    kind: CorollaryKind
    kappa: float
    rho: float | None = None
    delta: float | None = None
    ratio_c: float | None = None
    n: int | None = None
    theta_deriv: float | None = None

    def __post_init__(self):
        if not (np.isfinite(self.kappa) and self.kappa > 0):
            raise ParameterError(f"CorollaryCase.kappa must be > 0, got {self.kappa}")
        need = {
            CorollaryKind.FS: ("rho", "delta"),
            CorollaryKind.DELTA_GT_KAPPA: ("rho",),
            CorollaryKind.RATIO_C: ("rho", "delta", "ratio_c"),
            CorollaryKind.SEIFERT: ("rho",),
            CorollaryKind.THETA_N: ("rho", "n", "theta_deriv"),
        }[self.kind]
        for name in need:
            if getattr(self, name) is None:
                raise ParameterError(f"CorollaryCase kind {self.kind.value!r} needs {name}")
        if self.delta is not None and not (np.isfinite(self.delta) and self.delta > 0):
            raise ParameterError(f"CorollaryCase.delta must be > 0, got {self.delta}")
        if self.ratio_c is not None and not np.isfinite(self.ratio_c):
            raise ParameterError(f"CorollaryCase.ratio_c must be finite, got {self.ratio_c}")
        if self.n is not None and not (isinstance(self.n, numbers.Integral) and self.n >= 1):
            raise ParameterError(f"CorollaryCase.n must be an integer >= 1, got {self.n}")
        if self.theta_deriv is not None and (
            not np.isfinite(self.theta_deriv) or self.theta_deriv == 0.0
        ):
            raise ParameterError(
                f"CorollaryCase.theta_deriv must be finite and nonzero, got {self.theta_deriv}"
            )


def pushforward_corollary(case: CorollaryCase, r, t) -> tuple[np.ndarray, np.ndarray]:
    """Map plus-side limit pairs (r, t) to the bivariate limit of the case.

    The first coordinate is always r - t^kappa, strictly positive on the
    support of the plus side.
    """
    r = np.asarray(r, dtype=float)
    t = np.asarray(t, dtype=float)
    r, t = np.broadcast_arrays(r, t)
    first = r - t ** case.kappa
    kind = case.kind
    if kind == CorollaryKind.FS:
        second = -(t ** case.delta)
    elif kind == CorollaryKind.DELTA_GT_KAPPA:
        second = case.rho * r
    elif kind == CorollaryKind.RATIO_C:
        second = case.ratio_c * case.rho * r - t ** case.delta
    elif kind == CorollaryKind.SEIFERT:
        second = t.copy()
    else:  # THETA_N
        second = t ** case.n * (case.theta_deriv / math.factorial(case.n))
    return first, second

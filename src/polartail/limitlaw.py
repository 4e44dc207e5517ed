"""Limit laws of the normalized conditional pair, with exact samplers.

Under the conditioning {X > x} the normalized pair ((R - x)/psi(x),
(T - t0)/phi(x)) settles into a two-parameter family: the one-sided limit
has joint density

    f(r, t) = kappa / Gamma((1 + tau)/kappa) * t^tau * e^{-r}
              on  0 < t < r^{1/kappa},

where kappa is the index of the shape deficit u_tilde and tau the index of
the angular density near the center. Writing e = (1 + tau)/kappa, the t
marginal satisfies T^kappa ~ Gamma(e) and, given T, the first coordinate
is T^kappa plus an independent unit exponential. That decomposition is
used here as the exact sampler, which makes it the reference every Monte
Carlo comparison is measured against: no rejection step, no approximation.
It also gives the joint CDF in closed form,

    F(r, t) = P(e, m^kappa) - kappa / Gamma(e) * e^{-r} m^{1+tau} / (1 + tau),
              m = min(t, r^{1/kappa}),

with P the regularized lower incomplete gamma function, so cell masses
of the limit law are exact differences of F rather than quadratures.

The two-sided law mixes a positive and a negative side. A sign S is drawn
with Gamma-weighted probabilities built from the per-side (p, kappa, tau),
then the pair follows the one-sided law of that side, with the t
coordinate negated on the minus side.

Bivariate limits for (X, Y) = (R u(T), R v(T)) are pushforwards of the
one-sided pair (r, t); ``CorollaryCase`` names the map and carries its
parameters, ``pushforward_corollary`` applies it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from . import oracle as _oracle
from ._seeding import make_generator
from .errors import ParameterError

__all__ = [
    "LimitLawOneSided",
    "LimitLawTwoSided",
    "CorollaryKind",
    "CorollaryCase",
    "density_one_sided",
    "density_two_sided",
    "cdf_one_sided",
    "cdf_two_sided",
    "sample_one_sided",
    "sample_two_sided",
    "pushforward_corollary",
    "normalization_support",
]


# Gamma(e) overflows a double beyond e = 171.62
_MAX_GAMMA_SHAPE = 171.0


def _check_side(name: str, kappa: float, tau: float):
    if not (np.isfinite(kappa) and kappa > 0):
        raise ParameterError(f"{name}: kappa must be > 0, got {kappa}")
    if not (np.isfinite(tau) and tau > -1):
        raise ParameterError(f"{name}: tau must exceed -1, got {tau}")
    e = (1.0 + tau) / kappa
    if e > _MAX_GAMMA_SHAPE:
        raise ParameterError(
            f"{name}: (1 + tau)/kappa = {e:g} exceeds {_MAX_GAMMA_SHAPE:g}, "
            "where Gamma((1 + tau)/kappa) overflows"
        )


@dataclass(frozen=True)
class LimitLawOneSided:
    """One-sided limit pair; ``norm_const`` is kappa / Gamma((1+tau)/kappa)."""

    kappa: float
    tau: float
    norm_const: float = field(init=False)

    def __post_init__(self):
        _check_side("LimitLawOneSided", self.kappa, self.tau)
        object.__setattr__(
            self, "norm_const", self.kappa / math.gamma(self.gamma_shape)
        )

    @property
    def gamma_shape(self) -> float:
        """(1 + tau) / kappa, the Gamma shape of T^kappa."""
        return (1.0 + self.tau) / self.kappa


@dataclass(frozen=True)
class LimitLawTwoSided:
    """Signed mixture of two one-sided laws.

    ``p_minus``/``p_plus`` are the mixture weights of the window-mass
    limits. The sign law P{S = sigma}, proportional to (p_sigma /
    kappa_sigma) Gamma((1 + tau_sigma) / kappa_sigma), reweights them and
    is computed at construction as ``prob_minus``/``prob_plus``. The t
    coordinate of each side is T - t0 over that side's own window.
    """

    kappa_minus: float
    kappa_plus: float
    tau_minus: float
    tau_plus: float
    p_minus: float
    p_plus: float
    prob_minus: float = field(init=False)
    prob_plus: float = field(init=False)

    def __post_init__(self):
        _check_side("LimitLawTwoSided minus side", self.kappa_minus, self.tau_minus)
        _check_side("LimitLawTwoSided plus side", self.kappa_plus, self.tau_plus)
        for name, p in (("p_minus", self.p_minus), ("p_plus", self.p_plus)):
            if not (0.0 <= p <= 1.0):
                raise ParameterError(f"LimitLawTwoSided.{name} must lie in [0, 1], got {p}")
        if abs(self.p_minus + self.p_plus - 1.0) > 1e-12:
            raise ParameterError(
                f"mixture weights must sum to 1, got {self.p_minus + self.p_plus}"
            )
        # log weights, since (p / kappa) Gamma(e) overflows for small kappa
        # even where the ratio of the sides is 1; a side with p = 0 weighs 0
        log_w = [
            math.log(p / kappa) + math.lgamma((1.0 + tau) / kappa) if p > 0 else -math.inf
            for p, kappa, tau in ((self.p_minus, self.kappa_minus, self.tau_minus),
                                  (self.p_plus, self.kappa_plus, self.tau_plus))
        ]
        # normalized by the larger weight, finite because p_minus + p_plus = 1
        top = max(log_w)
        w_m, w_p = (math.exp(w - top) for w in log_w)
        total = w_m + w_p
        object.__setattr__(self, "prob_minus", w_m / total)
        object.__setattr__(self, "prob_plus", w_p / total)

    def side(self, sign: int) -> LimitLawOneSided:
        """The one-sided law of the requested side (+1 or -1)."""
        if sign > 0:
            return LimitLawOneSided(self.kappa_plus, self.tau_plus)
        return LimitLawOneSided(self.kappa_minus, self.tau_minus)


# ---------------------------------------------------------------------------
# Densities
# ---------------------------------------------------------------------------


def density_one_sided(law: LimitLawOneSided, r, t):
    """Joint density of the one-sided pair at (r, t); zero off-support.

    The support is {0 < t < r^{1/kappa}}, open at t = 0, so t = 0 returns
    0 even when tau < 0 would make the power infinite.
    """
    r = np.asarray(r, dtype=float)
    t = np.asarray(t, dtype=float)
    r, t = np.broadcast_arrays(r, t)
    safe_t = np.where(t > 0, t, 1.0)
    inside = (t > 0) & (safe_t ** law.kappa < r)
    out = np.zeros(np.shape(t), dtype=float)
    if np.any(inside):
        vals = law.norm_const * safe_t ** law.tau * np.exp(-r)
        out = np.where(inside, vals, 0.0)
    if out.ndim == 0:
        return float(out)
    return out


def density_two_sided(law: LimitLawTwoSided, r, t):
    """Joint density of the signed pair.

    The sign-law mixture P_- f_-(r, -t) + P_+ f_+(r, t) of the one-sided
    densities, as in ``cdf_two_sided``; equivalently p_sigma
    |t|^{tau_sigma} e^{-r} on {|t|^{kappa_sigma} < r, sigma t > 0} over
    sum_sigma (p_sigma / kappa_sigma) Gamma((1 + tau_sigma) / kappa_sigma).
    """
    t = np.asarray(t, dtype=float)
    return (law.prob_minus * density_one_sided(law.side(-1), r, -t)
            + law.prob_plus * density_one_sided(law.side(1), r, t))


def cdf_one_sided(law: LimitLawOneSided, r, t):
    """Joint CDF P{r' <= r, t' <= t} of the one-sided pair; 0 for r <= 0 or t <= 0.

    With g = min(t^kappa, r) = m^kappa, the correction term of the closed
    form equals e^{g - r} (P(e, g) - P(e + 1, g)) by the incomplete gamma
    recurrence, which stays finite where e^{-r} m^{1+tau} would be 0 * inf.
    Both r and t may be +inf: F(r, inf) = P(e + 1, r), F(inf, t) = P(e, t^kappa).
    """
    # scipy.special costs more to import than the rest of the package, so
    # it is imported where a special function is evaluated, not at the top
    from scipy import special as sp_special

    r = np.asarray(r, dtype=float)
    t = np.asarray(t, dtype=float)
    r, t = np.broadcast_arrays(r, t)
    inside = (r > 0) & (t > 0)
    g = np.minimum(np.where(inside, t, 0.0) ** law.kappa, np.where(inside, r, 0.0))
    e = law.gamma_shape
    p_e = sp_special.gammainc(e, g)
    with np.errstate(invalid="ignore"):
        decay = np.where(g < r, np.exp(g - r), 1.0)
    out = np.where(inside, p_e - decay * (p_e - sp_special.gammainc(e + 1.0, g)), 0.0)
    if out.ndim == 0:
        return float(out)
    return out


def cdf_two_sided(law: LimitLawTwoSided, r, t):
    """Joint CDF of the signed pair; 0 for r <= 0.

    The sign-law mixture of the one-sided CDFs: for t < 0 only the minus
    side, mirrored, contributes P_- (F_-(r, inf) - F_-(r, -t)); for t >= 0
    the whole minus side plus the plus side up to t, P_- F_-(r, inf) +
    P_+ F_+(r, t).
    """
    r = np.asarray(r, dtype=float)
    t = np.asarray(t, dtype=float)
    r, t = np.broadcast_arrays(r, t)
    minus, plus = law.side(-1), law.side(1)
    minus_all = cdf_one_sided(minus, r, np.inf)
    out = np.where(
        t < 0,
        law.prob_minus * (minus_all - cdf_one_sided(minus, r, -t)),
        law.prob_minus * minus_all + law.prob_plus * cdf_one_sided(plus, r, t),
    )
    if out.ndim == 0:
        return float(out)
    return out


def normalization_support(law) -> _oracle.PlanarSupport:
    """Integration region for checking that a limit density has mass 1.

    The r direction is handled by the quadrature's own substitution; this
    picks the t interval wide enough that the truncated tail mass is below
    1e-15 (the t marginal decays like e^{-t^kappa}).
    """
    reach = -math.log(1e-16)
    if isinstance(law, LimitLawOneSided):
        t_hi = reach ** (1.0 / law.kappa)
        return _oracle.PlanarSupport(
            t_lo=0.0, t_hi=t_hi,
            r_lower=lambda t: np.abs(t) ** law.kappa,
        )
    if isinstance(law, LimitLawTwoSided):
        t_hi = reach ** (1.0 / law.kappa_plus)
        t_lo = -(reach ** (1.0 / law.kappa_minus))
        kappa_m, kappa_p = law.kappa_minus, law.kappa_plus

        def r_lower(t):
            t = np.asarray(t, dtype=float)
            k = np.where(t >= 0, kappa_p, kappa_m)
            return np.abs(t) ** k

        return _oracle.PlanarSupport(
            t_lo=t_lo, t_hi=t_hi, r_lower=r_lower, t_breakpoints=(0.0,),
        )
    raise ParameterError(f"unsupported law type {type(law).__name__}")


# ---------------------------------------------------------------------------
# Exact samplers
# ---------------------------------------------------------------------------


def sample_one_sided(law: LimitLawOneSided, n: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """Exact draws of the one-sided pair: n arrays (r, t).

    T^kappa is Gamma((1+tau)/kappa) distributed and r is t^kappa plus an
    independent unit exponential; both facts follow from factorizing the
    joint density, so the draws are exact, not approximate.
    """
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    rng = make_generator(seed)
    g = rng.gamma(law.gamma_shape, 1.0, n)
    t = g ** (1.0 / law.kappa)
    r = g + rng.exponential(1.0, n)
    return r, t


def sample_two_sided(law: LimitLawTwoSided, n: int, seed) -> tuple[np.ndarray, np.ndarray]:
    """Exact draws of the signed pair: n arrays (r, t_signed).

    Draws the sign from the law's Gamma-weighted sign distribution, then
    the one-sided pair of that side.
    """
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    rng = make_generator(seed)
    plus = rng.random(n) < law.prob_plus
    shape = np.where(plus, (1.0 + law.tau_plus) / law.kappa_plus,
                     (1.0 + law.tau_minus) / law.kappa_minus)
    g = rng.gamma(shape, 1.0)
    t_mag = g ** np.where(plus, 1.0 / law.kappa_plus, 1.0 / law.kappa_minus)
    r = g + rng.exponential(1.0, n)
    return r, np.where(plus, t_mag, -t_mag)


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
    ``CorollaryKind``).
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
        if self.n is not None and self.n < 1:
            raise ParameterError(f"CorollaryCase.n must be an integer >= 1, got {self.n}")
        if self.theta_deriv is not None and (
            not np.isfinite(self.theta_deriv) or self.theta_deriv == 0.0
        ):
            raise ParameterError(
                f"CorollaryCase.theta_deriv must be finite and nonzero, got {self.theta_deriv}"
            )


def pushforward_corollary(case: CorollaryCase, r, t) -> tuple[np.ndarray, np.ndarray]:
    """Map one-sided limit pairs (r, t) to the bivariate limit of the case.

    The first coordinate is always r - t^kappa, strictly positive on the
    support of the one-sided law.
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

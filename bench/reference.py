"""Independent closed forms and scipy quadrature for the tail-sweep checks.

Everything here is derived from a model's config keys, not from the
polartail objects, so a defect in the library cannot leak into its own
reference. The scaled tail P{X > x (, T > t0)} / Hbar(x) is integrated in
log form with the exact shape deficit (``scale*|s|^kappa`` for power
shapes, ``2 sin^2(s/2)`` for the cosine) and a cancellation-free radial
log-survival difference, so it stays accurate at thresholds where
``1 - u(t)`` is far below double resolution around 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy import integrate, special

# Breakpoints at these multiples of the closed-form window mark where the
# integrand's mass sits.
_PEAK_MULTS = (1.0, 4.0, 16.0, 64.0)


@dataclass(frozen=True)
class RefModel:
    radial: str                 # exponential | weibull | half_normal
    rate: float
    beta: float
    angular: str                # uniform | symmetric_power
    tau: float
    w_minus: float
    w_plus: float
    shape: str                  # power | cosine
    kappa_minus: float
    kappa_plus: float
    scale: float

    @property
    def two_sided(self) -> bool:
        return self.w_minus > 0


def ref_model(config: dict) -> RefModel:
    """Read the keys the tail-sweep models use; t0 is 0 throughout."""
    w = float(config.get("angular.halfwidth", 1.0))
    kappa = float(config.get("shape_u.kappa", 2.0))
    return RefModel(
        radial=config["radial.family"],
        rate=float(config.get("radial.rate", 1.0)),
        beta=float(config.get("radial.beta", 1.0)),
        angular=config.get("angular.family", "uniform"),
        tau=float(config.get("angular.tau", 0.0)),
        w_minus=float(config.get("angular.halfwidth_minus", w)),
        w_plus=float(config.get("angular.halfwidth_plus", w)),
        shape=config.get("shape_u.family", "power"),
        kappa_minus=float(config.get("shape_u.kappa_minus", kappa)),
        kappa_plus=float(config.get("shape_u.kappa_plus", kappa)),
        scale=float(config.get("shape_u.scale", 1.0)),
    )


def psi(m: RefModel, x: float) -> float:
    if m.radial == "exponential":
        return 1.0 / m.rate
    if m.radial == "weibull":
        return x ** (1.0 - m.beta) / m.beta
    return math.sqrt(math.pi / 2.0) * float(special.erfcx(x / math.sqrt(2.0)))


def survival(m: RefModel, x: float) -> float:
    if m.radial == "exponential":
        return math.exp(-m.rate * x)
    if m.radial == "weibull":
        return math.exp(-(x ** m.beta))
    return float(special.erfc(x / math.sqrt(2.0)))


def log_survival_gap(m: RefModel, x: float, d: float) -> float:
    """log Hbar(x + d) - log Hbar(x), without forming either term."""
    if m.radial == "exponential":
        return -m.rate * d
    if m.radial == "weibull":
        return -(x ** m.beta) * math.expm1(m.beta * math.log1p(d / x))
    r2 = 1.0 / math.sqrt(2.0)
    return (math.log(float(special.erfcx((x + d) * r2)) / float(special.erfcx(x * r2)))
            - 0.5 * d * (2.0 * x + d))


def _kappa(m: RefModel, side: int) -> float:
    if m.shape == "cosine":
        return 2.0
    return m.kappa_plus if side > 0 else m.kappa_minus


def deficit(m: RefModel, side: int, s: float) -> float:
    """1 - u(t0 + side*s) for s >= 0, in closed form."""
    if m.shape == "cosine":
        return 2.0 * math.sin(0.5 * s) ** 2
    return m.scale * s ** _kappa(m, side)


def window(m: RefModel, side: int, x: float) -> float:
    """Closed-form root phi of deficit(phi) = psi(x) / x."""
    target = psi(m, x) / x
    if m.shape == "cosine":
        return 2.0 * math.asin(math.sqrt(0.5 * target)) if target <= 2.0 else math.inf
    return (target / m.scale) ** (1.0 / _kappa(m, side))


def density(m: RefModel, side: int, s: float) -> float:
    width = m.w_plus if side > 0 else m.w_minus
    if not 0.0 <= s <= width:
        return 0.0
    if m.angular == "uniform":
        return 1.0 / (m.w_minus + m.w_plus)
    return (1.0 + m.tau) / (2.0 * width ** (1.0 + m.tau)) * s ** m.tau


def sides(m: RefModel, unrestricted: bool) -> tuple[int, ...]:
    return (1, -1) if unrestricted and m.two_sided else (1,)


def reachable(m: RefModel, x: float) -> bool:
    """Every window lies inside polartail's bracket, half the support per side."""
    return all(window(m, s, x) <= 0.5 * (m.w_plus if s > 0 else m.w_minus)
               for s in sides(m, True))


def scaled_tail(m: RefModel, x: float, unrestricted: bool) -> float | None:
    """P{X > x (, T > t0)} / Hbar(x), or None when quad cannot certify it."""
    total = 0.0
    for side in sides(m, unrestricted):
        width = m.w_plus if side > 0 else m.w_minus
        phi = window(m, side, x)

        def f(s, side=side):
            dlt = deficit(m, side, s)
            if dlt >= 1.0:
                return 0.0
            return math.exp(log_survival_gap(m, x, x * dlt / (1.0 - dlt))) * density(m, side, s)

        points = [k * phi for k in _PEAK_MULTS if 0.0 < k * phi < width] or None
        value, err, info, *_ = integrate.quad(
            f, 0.0, width, points=points, epsabs=0.0, epsrel=1e-12, limit=500, full_output=1,
        )
        if not (math.isfinite(value) and value > 0.0 and err <= 1e-9 * value):
            return None
        total += value
    return total


def scaled_asymptotic(m: RefModel, x: float, unrestricted: bool) -> float:
    """sum over sides of phi * g(t0 + side*phi) * Gamma(e) / kappa."""
    total = 0.0
    for side in sides(m, unrestricted):
        phi = window(m, side, x)
        kappa = _kappa(m, side)
        total += phi * density(m, side, phi) * math.gamma((1.0 + m.tau) / kappa) / kappa
    return total

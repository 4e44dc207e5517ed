"""Empirical-distribution tests and the convergence report.

Weak convergence of the normalized conditional pair is not observable
from one finite sample, so this module measures proxies: one-sample
Kolmogorov-Smirnov distances between Monte Carlo marginals and the exact
limit marginals, a chi-square joint fit against exact cell masses, and
the tail-probability ratio quadrature/asymptotic. ``convergence_report``
tabulates all of them along an x grid and flags whether the distances
shrink as x grows, which is what convergence to the limit law means in
practice.

The limit law factorizes: T^kappa ~ Gamma(e) and r = T^kappa + Exp(1),
so the marginals of each side are P(e + 1, r) and P(e, t^kappa), with P
the regularized lower incomplete gamma function, mixed over the sign when
the law has a minus side. The KS distances are measured against those CDFs,
which ``limitlaw.cdf`` forms from P(e, .) and P(e + 1, .) alone when its
other argument is +inf, and the chi-square bins sit at their exact
quantiles, with cell masses from differences of the closed-form joint
CDF, so no row draws from the limit law. ``ks_one_sample`` evaluates its
CDF only at the ends of blocks of sorted points and inside the blocks
still open, those where the statistic can still change, and bisects only
those: at n = 5e4 that is 9 calls over about 1.3% of the points.

P-values use the asymptotic Kolmogorov and chi-square distributions with
the usual finite-sample correction of the KS argument; at the sample
sizes used here (1e4 and up) that approximation is far below the noise of
the quantities being compared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import asymptotics as _asymptotics
from . import limitlaw as _limitlaw
from . import model as _model
from . import montecarlo as _montecarlo
from . import oracle as _oracle
from ._seeding import seed_key
from .errors import ParameterError

__all__ = [
    "ks_two_sample",
    "ks_one_sample",
    "chi_square_2d",
    "ReportRow",
    "ConvergenceReport",
    "convergence_report",
]

# chi-square cells expecting fewer counts than this are pooled into the tail bin
_MIN_EXPECTED = 5.0
# ks_one_sample first evaluates the CDF at the ends of blocks of this many points
_KS_BLOCK = 256
# scipy.special.kolmogi(0.001): sqrt(n) times a KS distance exceeds it
# with probability 0.1%, so a trend step may rise by this over sqrt(n)
_KS_POINT = 1.95


def _ks_pvalue(d: float, effective_n: float) -> float:
    # scipy.special costs more to import than the rest of the package, so
    # it is imported where a special function is evaluated, not at the top
    from scipy import special as sp_special

    en = math.sqrt(effective_n)
    return float(sp_special.kolmogorov((en + 0.12 + 0.11 / en) * d))


def ks_two_sample(a, b) -> tuple[float, float]:
    """Sup distance of two empirical CDFs with an asymptotic p-value.

    Both CDFs are step functions that only jump at sample points, so the
    sup is reached where one sample's CDF steps: at the last point of one
    of its tie groups. There its own CDF is that point's index + 1 over
    its size, and only the other sample needs a search.
    """
    a = np.sort(np.asarray(a, dtype=float).ravel())
    b = np.sort(np.asarray(b, dtype=float).ravel())
    if a.size == 0 or b.size == 0:
        raise ParameterError("ks_two_sample needs two nonempty samples")
    d = 0.0
    for own, other in ((a, b), (b, a)):
        ends = np.flatnonzero(np.append(own[1:] != own[:-1], True))
        gap = (ends + 1) / own.size - np.searchsorted(other, own[ends], side="right") / other.size
        d = max(d, float(np.max(np.abs(gap))))
    return d, _ks_pvalue(d, a.size * b.size / (a.size + b.size))


def _cdf_at(cdf, xs: np.ndarray, idx: np.ndarray) -> np.ndarray:
    f = np.asarray(cdf(xs[idx]), dtype=float)
    if f.shape != idx.shape or not np.isfinite(f).all():
        raise ParameterError("cdf must return finite values, one per sample point")
    if f.min() < -1e-12 or f.max() > 1.0 + 1e-12:
        raise ParameterError("cdf values leave [0, 1]")
    return f


def ks_one_sample(sample, cdf) -> tuple[float, float]:
    """Sup distance of an empirical CDF from a given CDF, with p-value.

    ``cdf`` must be vectorized, nondecreasing, and map into [0, 1] on the
    sample. The statistic is max_i max(i/n - F(x_i), F(x_i) - (i-1)/n) over
    the sorted sample, but F is evaluated only where that max can still
    change: first at the ends of blocks of ``_KS_BLOCK`` points, then at
    the midpoints of the open blocks [lo, hi], those whose bound
    max(hi/n - F(x_lo), F(x_hi) - (lo+1)/n) on the terms of their interior
    points exceeds the running max. The max only grows, so a block once
    closed stays closed, and each round bisects only the halves of the
    blocks it split last. Rounding is monotone in both operands of those
    terms, so the bound holds in floating point and the result equals
    evaluation at every point bit for bit. That takes at most
    log2(_KS_BLOCK) + 1 = 9 calls of ``cdf``; on the README model's
    ``convergence_report`` rows (default grid, n = 5e4, seeds 1-5, both
    conditions) they evaluated 428-1,374 points, a median of 1.3%.

    Every evaluated value, both sample ends included, must be finite and
    in [0, 1] and nondecreasing along the sample, or ParameterError is
    raised; between evaluated points F is trusted to be nondecreasing.
    """
    xs = np.sort(np.asarray(sample, dtype=float).ravel())
    n = xs.size
    if n == 0:
        raise ParameterError("ks_one_sample needs a nonempty sample")
    idx = np.append(np.arange(0, n - 1, _KS_BLOCK), n - 1)
    f = _cdf_at(cdf, xs, idx)
    d = float(np.maximum((idx + 1) / n - f, f - idx / n).max())
    seen_idx, seen_f = [idx], [f]
    # the blocks that may still be open, with F at both ends
    lo, hi, f_lo, f_hi = idx[:-1], idx[1:], f[:-1], f[1:]
    while True:
        bound = np.maximum(hi / n - f_lo, f_hi - (lo + 1) / n)
        split = np.flatnonzero((hi - lo > 1) & (bound > d))
        if split.size == 0:
            break
        lo, hi, f_lo, f_hi = lo[split], hi[split], f_lo[split], f_hi[split]
        mid = (lo + hi) // 2
        f_mid = _cdf_at(cdf, xs, mid)
        d = max(d, float(np.maximum((mid + 1) / n - f_mid, f_mid - mid / n).max()))
        seen_idx.append(mid)
        seen_f.append(f_mid)
        lo, hi = np.concatenate((lo, mid)), np.concatenate((mid, hi))
        f_lo, f_hi = np.concatenate((f_lo, f_mid)), np.concatenate((f_mid, f_hi))
    idx, f = np.concatenate(seen_idx), np.concatenate(seen_f)
    if np.any(np.diff(f[np.argsort(idx)]) < -1e-12):
        raise ParameterError("cdf is not nondecreasing on the sample")
    return d, _ks_pvalue(d, n)


# ---------------------------------------------------------------------------
# Chi-square joint fit
# ---------------------------------------------------------------------------


def _as_pair_arrays(pairs) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(pairs, tuple) and len(pairs) == 2:
        a = np.asarray(pairs[0], dtype=float).ravel()
        b = np.asarray(pairs[1], dtype=float).ravel()
    else:
        arr = np.asarray(pairs, dtype=float)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise ParameterError("pairs must be (a, b) arrays or an (n, 2) array")
        a, b = arr[:, 0], arr[:, 1]
    if a.size != b.size or a.size == 0:
        raise ParameterError("pairs must be two equal-length nonempty arrays")
    return a, b


def _check_edges(name: str, edges) -> np.ndarray:
    e = np.asarray(edges, dtype=float).ravel()
    if e.size < 2 or np.any(np.diff(e) <= 0) or not np.all(np.isfinite(e)):
        raise ParameterError(f"degenerate binning: {name} edges must be finite and strictly increasing")
    return e


def _cell_counts(a, b, edges_a, edges_b) -> np.ndarray:
    """The counts of ``np.histogram2d(a, b, bins=(edges_a, edges_b))``.

    Each point's index along a coordinate is the number of edges at or
    below it, as ``searchsorted(edges, v, side="right")`` counts them,
    with the last edge raised by one ulp so that the last bin is closed on
    the right, as in histogram2d. Index 0 and ``edges.size`` mark points
    off the grid (NaN counts 0), so one bincount over the padded grid
    counts every point and the padding is cut off. The count takes one
    comparison per edge into the smallest integer type that holds the
    padded grid's cells, so its cost grows with the edges: 0.55 ms for a
    12 x 12 grid and 5e4 pairs against 3.6 ms by binary search and 5.3 ms
    by histogram2d, which catches up at about 200 edges per axis.
    """
    width = edges_b.size + 1
    cells = (edges_a.size + 1) * width
    dtype = np.min_scalar_type(cells - 1)

    def index(v, edges):
        closed = edges.copy()
        closed[-1] = np.nextafter(edges[-1], np.inf)
        count = np.zeros(v.size, dtype=dtype)
        for edge in closed:
            count += v >= edge
        return count

    flat = index(a, edges_a)
    flat *= width
    flat += index(b, edges_b)
    return np.bincount(flat, minlength=cells).reshape(-1, width)[1:-1, 1:-1]


def chi_square_2d(pairs, binning, masses) -> tuple[float, float, float]:
    """Pearson fit of binned pairs against expected cell probabilities.

    ``masses`` has one probability per cell of ``binning``, such as the
    differences of a closed-form CDF (``convergence_report`` uses the
    limit law's).

    Cells whose expected count falls below 5 are pooled,
    together with the off-grid mass, into a single tail bin. Returns
    (statistic, degrees of freedom, p-value). A tail bin that expects
    nothing but observes something yields (inf, dof, 0).
    """
    a, b = _as_pair_arrays(pairs)
    edges_a = _check_edges("a", binning[0])
    edges_b = _check_edges("b", binning[1])
    masses = np.asarray(masses, dtype=float)
    if masses.shape != (edges_a.size - 1, edges_b.size - 1):
        raise ParameterError(
            f"masses shape {masses.shape} does not match the binning "
            f"({edges_a.size - 1} x {edges_b.size - 1})"
        )
    total_mass = float(masses.sum())
    if total_mass <= 0.0:
        raise ParameterError("binning has zero total expected mass")

    n = a.size
    observed = _cell_counts(a, b, edges_a, edges_b)
    expected = n * masses

    keep = expected >= _MIN_EXPECTED
    obs_kept = observed[keep]
    exp_kept = expected[keep]
    tail_expected = float(expected[~keep].sum()) + n * max(1.0 - total_mass, 0.0)
    tail_observed = float(n - observed[keep].sum())

    terms = int(keep.sum())
    if terms == 0:
        raise ParameterError(
            "degenerate binning: no cell reaches the minimum expected count"
        )
    if tail_observed == 0.0 and 0.0 < tail_expected < 1.0:
        # a pooled tail bin that expects less than one count and observes
        # none carries no evidence: folding it into the largest kept cell
        # avoids spending a degree of freedom on it; a nonempty tail is
        # never folded, points where the model puts no mass must register
        # as misfit
        i = int(np.argmax(exp_kept))
        exp_kept = exp_kept.copy()
        exp_kept[i] += tail_expected
        tail_expected = 0.0
    stat = float(np.sum((obs_kept - exp_kept) ** 2 / exp_kept))
    if tail_expected > 0.0:
        stat += (tail_observed - tail_expected) ** 2 / tail_expected
        terms += 1
    elif tail_observed > 0.0:
        return math.inf, float(terms - 1), 0.0
    dof = terms - 1
    if dof < 1:
        raise ParameterError("degenerate binning: fewer than two comparable bins")
    from scipy import special as sp_special

    p = float(sp_special.gammaincc(dof / 2.0, stat / 2.0))
    return stat, float(dof), p


# ---------------------------------------------------------------------------
# Convergence report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReportRow:
    x: float
    n: int
    ks_r: float
    ks_t: float
    chi2_p: float
    acceptance_rate: float
    tail_ratio: float


@dataclass(frozen=True)
class ConvergenceReport:
    """Per-x distances to the limit plus trend flags.

    ``ks_r_decreasing``/``ks_t_decreasing`` allow each step to rise by
    ``noise``, the margin that was applied: the ``noise`` argument or the
    0.1% point of the KS distance at n, 1.95/sqrt(n), whichever is larger.
    ``ratio_approaches_one`` is strict. Flags are vacuously true for
    single-row reports.
    """

    rows: tuple[ReportRow, ...]
    noise: float
    ks_r_decreasing: bool
    ks_t_decreasing: bool
    ratio_approaches_one: bool


def _limit_edges(law: _limitlaw.LimitLaw, bins: int) -> tuple[np.ndarray, np.ndarray]:
    """Chi-square edges of r and t: exact quantiles of the limit marginals.

    The levels are ``linspace(0.0005, 0.9995, bins + 1)``. Each side has
    r ~ Gamma(e + 1) and t^kappa ~ Gamma(e). The t levels below
    ``prob_minus`` fall on the mirrored minus side, the rest on the plus
    side. r is one Gamma, since every side of positive probability of a law
    that ``limit_law`` forms shares e (within the ulps of
    ``LimitSide.ties``); a law whose sides of positive probability differ
    in e raises ParameterError.
    """
    from scipy import special as sp_special

    weighted = [side for _, prob, side in law.sides if prob > 0.0]
    if not all(weighted[0].ties(side) for side in weighted[1:]):
        raise ParameterError(
            "the sides of positive probability differ in e = (1 + tau)/kappa: "
            f"{sorted(side.gamma_shape for side in weighted)}; a limit law mixes sides of one Gamma shape")
    q = np.linspace(0.0005, 0.9995, bins + 1)
    lower = q < law.prob_minus
    t = np.empty_like(q)
    for sign, prob, side in law.sides:
        if sign > 0:
            t[~lower] = sp_special.gammaincinv(
                side.gamma_shape, (q[~lower] - law.prob_minus) / prob) ** (1.0 / side.kappa)
        else:
            t[lower] = -sp_special.gammainccinv(
                side.gamma_shape, q[lower] / prob) ** (1.0 / side.kappa)
    r = sp_special.gammaincinv(weighted[0].gamma_shape + 1.0, q)
    edges_r, edges_t = np.unique(r), np.unique(t)
    if min(edges_r.size, edges_t.size) < 3:
        raise ParameterError("degenerate binning: limit marginal quantiles are too concentrated")
    return edges_r, edges_t


def convergence_report(
    mdl: _model.PolarModel,
    x_grid,
    n: int,
    seed=None,
    condition: _model.Condition = _model.Condition.RIGHT_SIDED,
    *,
    noise: float = 0.01,
    bins: int = 12,
) -> ConvergenceReport:
    """Distances between conditional samples and the exact limit along x.

    Each row x draws n conditional pairs (streams derived from the single
    seed) and compares them with the exact limit law, which it never
    samples: one-sample KS distances of r and t against the closed-form
    limit marginals, and the joint chi-square p-value on a bins x bins grid
    at exact marginal quantiles, with cell masses from differences of the
    closed-form joint CDF. It adds the acceptance rate and the
    quadrature/asymptotic tail ratio, formed from the forms scaled by
    1/Hbar(x) so that it stays finite where Hbar(x) underflows. The KS
    trend flags allow a rise of max(noise, 1.95/sqrt(n)) per step, so
    distances at the noise level of n draws do not fail them.
    Deterministic given (model, x_grid, n, seed, condition).
    """
    xs = [float(v) for v in x_grid]
    if not xs:
        raise ParameterError("x_grid must be nonempty")
    if any(b <= a for a, b in zip(xs, xs[1:])):
        raise ParameterError("x_grid must be strictly increasing")
    if n < 2:
        raise ParameterError(f"n must be >= 2, got {n}")
    key = seed_key(seed)

    law = _asymptotics.limit_law(mdl, condition)
    edges_r, edges_t = _limit_edges(law, bins)
    # inclusion-exclusion; rounding can leave a cell a few ulps below 0
    f = _limitlaw.cdf(law, edges_r[:, None], edges_t)
    masses = np.maximum(np.diff(np.diff(f, axis=0), axis=1), 0.0)
    rows = []
    for i, x in enumerate(xs):
        mc = _montecarlo.sample_conditional(mdl, x, n, condition, key + (i, 0))

        ks_r = ks_one_sample(mc.r_norm, lambda r: _limitlaw.cdf(law, r, np.inf))[0]
        ks_t = ks_one_sample(mc.t_norm, lambda t: _limitlaw.cdf(law, np.inf, t))[0]
        _, _, chi2_p = chi_square_2d((mc.r_norm, mc.t_norm), (edges_r, edges_t), masses)
        quad = _oracle.scaled_tail_quadrature(mdl, x, condition).value
        asym = _asymptotics.tail_asymptotic(mdl, x, condition, scaled=True)
        rows.append(ReportRow(
            x=x, n=n, ks_r=ks_r, ks_t=ks_t, chi2_p=chi2_p,
            acceptance_rate=mc.acceptance.acceptance_rate,
            tail_ratio=quad / asym,
        ))

    noise = max(noise, _KS_POINT / math.sqrt(n))
    ks_r_ok = all(b.ks_r <= a.ks_r + noise for a, b in zip(rows, rows[1:]))
    ks_t_ok = all(b.ks_t <= a.ks_t + noise for a, b in zip(rows, rows[1:]))
    ratio_ok = all(
        abs(b.tail_ratio - 1.0) < abs(a.tail_ratio - 1.0) for a, b in zip(rows, rows[1:])
    )
    return ConvergenceReport(
        rows=tuple(rows), noise=noise,
        ks_r_decreasing=ks_r_ok, ks_t_decreasing=ks_t_ok,
        ratio_approaches_one=ratio_ok,
    )

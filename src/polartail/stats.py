"""Empirical-distribution tests and the convergence report.

Weak convergence of the normalized conditional pair is not observable
from one finite sample, so this module measures proxies: two-sample
Kolmogorov-Smirnov distances between Monte Carlo marginals and exact
limit draws, a chi-square joint fit against exact cell masses (differences
of the limit law's closed-form CDF), and the tail-probability ratio
quadrature/asymptotic. ``convergence_report`` tabulates all of them along
an x grid and flags whether the distances shrink as x grows, which is
what convergence to the limit law means in practice.

P-values use the asymptotic Kolmogorov and chi-square distributions with
the usual finite-sample correction of the KS argument; at the sample
sizes used here (1e4 and up) that approximation is far below the noise of
the quantities being compared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as sp_special

from . import asymptotics as _asymptotics
from . import limitlaw as _limitlaw
from . import model as _model
from . import montecarlo as _montecarlo
from . import oracle as _oracle
from ._seeding import seed_key
from .errors import NonConvergence, ParameterError

__all__ = [
    "ks_two_sample",
    "ks_one_sample",
    "chi_square_2d",
    "cell_masses",
    "ReportRow",
    "ConvergenceReport",
    "convergence_report",
]


def _ks_pvalue(d: float, effective_n: float) -> float:
    en = math.sqrt(effective_n)
    return float(sp_special.kolmogorov((en + 0.12 + 0.11 / en) * d))


def ks_two_sample(a, b) -> tuple[float, float]:
    """Sup distance of two empirical CDFs with an asymptotic p-value."""
    a = np.sort(np.asarray(a, dtype=float).ravel())
    b = np.sort(np.asarray(b, dtype=float).ravel())
    if a.size == 0 or b.size == 0:
        raise ParameterError("ks_two_sample needs two nonempty samples")
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, grid, side="right") / a.size
    cdf_b = np.searchsorted(b, grid, side="right") / b.size
    d = float(np.max(np.abs(cdf_a - cdf_b)))
    return d, _ks_pvalue(d, a.size * b.size / (a.size + b.size))


def ks_one_sample(sample, cdf) -> tuple[float, float]:
    """Sup distance of an empirical CDF from a given CDF, with p-value.

    ``cdf`` must be vectorized, nondecreasing, and map into [0, 1] on the
    sample; violations raise ParameterError rather than producing a
    nonsense statistic.
    """
    xs = np.sort(np.asarray(sample, dtype=float).ravel())
    if xs.size == 0:
        raise ParameterError("ks_one_sample needs a nonempty sample")
    f = np.asarray(cdf(xs), dtype=float)
    if f.shape != xs.shape or not np.all(np.isfinite(f)):
        raise ParameterError("cdf must return finite values, one per sample point")
    if np.any(f < -1e-12) or np.any(f > 1.0 + 1e-12):
        raise ParameterError("cdf values leave [0, 1]")
    if np.any(np.diff(f) < -1e-12):
        raise ParameterError("cdf is not nondecreasing on the sample")
    n = xs.size
    i = np.arange(1, n + 1)
    d = float(np.max(np.maximum(i / n - f, f - (i - 1) / n)))
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


def _require_converged(res, a_lo, a_hi, b_lo, b_hi):
    if not res.converged:
        raise NonConvergence(
            f"cell [{a_lo:.6g}, {a_hi:.6g}] x [{b_lo:.6g}, {b_hi:.6g}]: quadrature "
            f"error estimate {res.abs_error_estimate:.3g} above tolerance"
        )


def cell_masses(density, binning, *, rel_tol: float = 1e-6) -> np.ndarray:
    """Quadrature masses of density(a, b) over a rectangular grid of cells.

    Returns an array with shape (len(edges_a) - 1, len(edges_b) - 1).
    Nested adaptive quadrature, slow and meant as an independent oracle:
    where a closed-form CDF exists, its differences are exact and far
    cheaper (``convergence_report`` uses the limit law's CDF).

    The masses are reliable only for densities that are smooth inside each
    cell. A jump inside a cell, such as the limit law's support boundary
    t^kappa = r, is invisible to the GK15 error estimate: the quadratures
    report convergence while the cell mass is off (by up to 9e-6 absolute,
    0.5% relative, in one cell of the default ``verify`` grid). Raises
    NonConvergence if any inner or outer quadrature exhausts its panels.
    """
    edges_a = _check_edges("a", binning[0])
    edges_b = _check_edges("b", binning[1])
    out = np.empty((edges_a.size - 1, edges_b.size - 1))
    for i in range(edges_a.size - 1):
        a_lo, a_hi = edges_a[i], edges_a[i + 1]
        for j in range(edges_b.size - 1):
            b_lo, b_hi = edges_b[j], edges_b[j + 1]

            def outer(avals):
                avals = np.asarray(avals, dtype=float)
                vals = np.empty_like(avals)
                for k, aval in enumerate(avals):
                    inner = _oracle.adaptive_quadrature(
                        lambda bs, aval=aval: np.asarray(
                            density(np.full_like(np.asarray(bs, dtype=float), aval),
                                    np.asarray(bs, dtype=float)),
                            dtype=float,
                        ),
                        b_lo, b_hi, rel_tol=rel_tol, abs_tol=1e-12, max_panels=60,
                    )
                    _require_converged(inner, a_lo, a_hi, b_lo, b_hi)
                    vals[k] = inner.value
                return vals

            res = _oracle.adaptive_quadrature(
                outer, a_lo, a_hi, rel_tol=rel_tol, abs_tol=1e-12, max_panels=60,
            )
            _require_converged(res, a_lo, a_hi, b_lo, b_hi)
            out[i, j] = max(res.value, 0.0)
    return out


def chi_square_2d(pairs, binning, masses, *,
                  min_expected: float = 5.0) -> tuple[float, float, float]:
    """Pearson fit of binned pairs against expected cell probabilities.

    ``masses`` has one probability per cell of ``binning``: differences
    of a closed-form CDF where one exists (``convergence_report`` uses
    the limit law's), otherwise ``cell_masses`` of a density.

    Cells whose expected count falls below ``min_expected`` are pooled,
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
    observed, _, _ = np.histogram2d(a, b, bins=(edges_a, edges_b))
    expected = n * masses

    keep = expected >= min_expected
    obs_kept = observed[keep]
    exp_kept = expected[keep]
    tail_expected = float(expected[~keep].sum()) + n * max(1.0 - total_mass, 0.0)
    tail_observed = float(n - observed[keep].sum())

    terms = int(keep.sum())
    if terms == 0:
        raise ParameterError(
            "degenerate binning: no cell reaches the minimum expected count"
        )
    if tail_observed == 0.0 and 0.0 < tail_expected < min(1.0, min_expected):
        # quadrature residue, not a real bin: folding it into the largest
        # kept cell avoids spending a degree of freedom on ~zero mass; a
        # nonempty tail is never folded, points where the model puts no
        # mass must register as misfit
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

    ``ks_r_decreasing``/``ks_t_decreasing`` allow an additive noise
    margin per step; ``ratio_approaches_one`` is strict. Flags are
    vacuously true for single-row reports.
    """

    rows: tuple[ReportRow, ...]
    noise: float
    ks_r_decreasing: bool
    ks_t_decreasing: bool
    ratio_approaches_one: bool


def _quantile_edges(draws: np.ndarray, bins: int) -> np.ndarray:
    qs = np.linspace(0.0005, 0.9995, bins + 1)
    edges = np.unique(np.quantile(draws, qs))
    if edges.size < 3:
        raise ParameterError("degenerate binning: limit draws are too concentrated")
    return edges


def convergence_report(
    mdl: _model.PolarModel,
    x_grid,
    n: int,
    seed=None,
    condition: _model.Condition = _model.Condition.RIGHT_SIDED,
    *,
    noise: float = 0.01,
    bins: int = 12,
    workers: int = 1,
) -> ConvergenceReport:
    """Distances between conditional samples and the exact limit along x.

    Each row x draws n conditional pairs and n exact limit pairs (all
    streams derived from the single seed), computes the marginal KS
    distances, the joint chi-square p-value against exact cell masses of
    the limit law (differences of its closed-form CDF), the acceptance
    rate, and the quadrature/asymptotic tail ratio, formed from the forms
    scaled by 1/Hbar(x) so that it stays finite where Hbar(x) underflows.
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
    if (condition == _model.Condition.UNRESTRICTED
            and mdl.sidedness == _model.Sidedness.TWO_SIDED):
        scale, sample, cdf = "phi_sign", _limitlaw.sample_two_sided, _limitlaw.cdf_two_sided
    else:
        scale, sample, cdf = "phi_plus", _limitlaw.sample_one_sided, _limitlaw.cdf_one_sided

    rows = []
    for i, x in enumerate(xs):
        mc = _montecarlo.sample_conditional(
            mdl, x, n, condition, key + (i, 0), scale=scale, workers=workers,
        )
        law = _asymptotics.limit_law(mdl, condition, mc.normalizers)
        lim_r, lim_t = sample(law, n, key + (i, 1))

        ks_r = ks_two_sample(mc.r_norm, lim_r)[0]
        ks_t = ks_two_sample(mc.t_norm, lim_t)[0]
        edges_r, edges_t = _quantile_edges(lim_r, bins), _quantile_edges(lim_t, bins)
        # inclusion-exclusion; rounding can leave a cell a few ulps below 0
        f = cdf(law, edges_r[:, None], edges_t)
        masses = np.maximum(np.diff(np.diff(f, axis=0), axis=1), 0.0)
        _, _, chi2_p = chi_square_2d((mc.r_norm, mc.t_norm), (edges_r, edges_t), masses)
        quad = _oracle.scaled_tail_quadrature(mdl, x, condition).value
        asym = _asymptotics.tail_asymptotic(mdl, x, condition, scaled=True)
        rows.append(ReportRow(
            x=x, n=n, ks_r=ks_r, ks_t=ks_t, chi2_p=chi2_p,
            acceptance_rate=mc.acceptance.acceptance_rate,
            tail_ratio=quad / asym,
        ))

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

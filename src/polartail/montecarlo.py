"""Exact sampling of the conditional law of (R, T) given an exceedance.

The event {X > x} with X = R u(T) is rare but sits inside {R > x}: since
|u| <= 1 and R >= 0, an exceedance of X forces one of R. The base
proposal law is therefore the exact radial tail law given R > x (by
quantile inversion, no approximation) times the angular law g, and a
proposal is kept iff R u(T) > x (and T > t0 under right-sided
conditioning). Restricting the base law to any region that holds every
acceptable pair and applying the same test still gives exactly the
conditional law (rejection from a restricted proposal; Devroye 1986,
Non-Uniform Random Variate Generation, ch. II).

Given the event, T - t0 lives on the angular window phi(x) and R - x on
the radial scale psi(x), so the sampler splits the base law into

    A:  R <= r_c and T in W = [t0 - b_minus, t0 + b_plus],
    B:  R > r_c and T anywhere on the allowed sides,
    C:  the rest, R <= r_c and T outside W,

with b_sigma = min(phi_sigma L^(1/kappa_sigma), support width of the
side), L = 20, u_out the largest u(t0 + sigma b_sigma) over the sides
whose window stops short of the support edge, and
r_c = (x / u_out)(1 - 4 eps). Since u does not increase away from t0,
every pair in C has r u(t) <= r_c u_out <= x and is never accepted; the
factor 1 - 4 eps keeps fl(r_c u_out) <= x under rounding. Proposals are
drawn from the base law restricted to A and B: B has conditional radial
mass w_edge = Hbar(r_c) / Hbar(x), about e^-L, and A the angular mass of
the window, so the acceptance rate is O(1) at every x (about 0.19 for
kappa = 2, tau = 0) instead of falling like phi(x). Within A and B, T
comes from the exact per-side angular masses measured from t0 and their
inverses. This stratified plan needs ``angular.side_mass`` and its
inverse and a ``shape_u.monotone_reach`` covering every allowed side of
the support (``validate_model`` checks the declared reach on a grid).
Otherwise, and always in ``estimate_tail_probability`` (the
independent Monte Carlo check of the quadrature), the whole-support plan
draws T from ``angular.sample``: r_c = inf and C is empty.

``AcceptanceStats.acceptance_rate`` is proposal_mass * accepted /
proposals, where proposal_mass is the base-law probability of A and B
together (1 for the whole-support plan), so under either plan it
estimates P{X > x (and T > t0) | R > x}.

The normalized coordinates are those of ``asymptotics.limit_law`` under
the same condition: R - x is divided by psi(x), and T - t0 by the window
of the side T falls on when the event covers both sides of t0
(``PolarModel.sides``), else by phi_plus.

Determinism contract: the plan is a pure function of (model, x,
condition). Draws are generated in batches, and batch i of a run with
seed s uses the stream SeedSequence(key(s) + (i,)). Each batch draws its
uniforms in full before anything is transformed: the whole-support plan
draws m uniforms for R, then ``angular.sample(rng, m)``; the stratified
plan draws m uniforms each for the region and side, for R and for T, in
that order. The transforms and the acceptance test then run over fixed
chunks of the batch; chunking draws nothing, so it never changes the
stream. The output is a pure function of (model, x, n_target,
condition, seed, batch_size): batches run one after another in index
order until enough pairs accumulate, and no batch is drawn that is not
consumed. The batch size takes part in the stream assignment, so
changing it changes the draws (but not their law).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import asymptotics as _asymptotics
from . import model as _model
from ._seeding import batch_generator, seed_key
from .errors import BudgetExceeded, CaseMismatch, ParameterError
from .limitlaw import CorollaryCase, CorollaryKind

__all__ = [
    "AcceptanceStats",
    "ConditionalSample",
    "sample_conditional",
    "estimate_tail_probability",
    "empirical_sign_freq",
    "bivariate_normalized",
]

_DEFAULT_BATCH = 65536
# proposals transformed and tested at once: 64 KB float temporaries, which
# the allocator reuses from batch to batch instead of mapping them afresh
_CHUNK = 8192
_DEFAULT_BUDGET = 10 ** 9
# window edge b = phi L^(1/kappa): a power shape has u_tilde(b) = L psi(x)/x
# there, so beyond it an exceedance needs R - x > ~L psi(x), mass ~ e^-L
_WINDOW_L = 20.0
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class AcceptanceStats:
    """Bookkeeping of the proposal loop.

    ``proposal_mass`` is the probability of the region proposals are drawn
    from under the radial tail law given R > x times g (1 for the
    whole-support plan), and ``acceptance_rate`` = proposal_mass *
    accepted / proposals estimates P{event | R > x}, so survival(x) times it
    estimates P{event}.
    """

    proposals: int
    accepted: int
    acceptance_rate: float
    proposal_mass: float

    def __post_init__(self):
        if self.accepted > self.proposals:
            raise ParameterError(
                f"accepted ({self.accepted}) cannot exceed proposals ({self.proposals})"
            )


@dataclass(frozen=True, eq=False)
class ConditionalSample:
    """Accepted pairs plus their normalized coordinates.

    ``r``/``t`` hold exactly n raw pairs, each satisfying the conditioning
    predicate; ``r_norm`` = (r - x)/psi(x) is strictly positive because
    R > x on the event. ``t_norm`` = (t - t0)/scale: when the event covers
    both sides of t0 (``PolarModel.sides``) each pair is scaled by the
    window of its own side, ``scale_kind`` is "phi_sign" and
    ``scale_value`` is (phi_minus, phi_plus); otherwise ``scale_kind`` is
    "phi_plus" and ``scale_value`` is phi_plus. ``acceptance`` counts whole
    consumed batches, including the tail of the last batch beyond n.
    """

    x: float
    condition: _model.Condition
    scale_kind: str
    scale_value: float | tuple[float, float]
    r: np.ndarray
    t: np.ndarray
    r_norm: np.ndarray
    t_norm: np.ndarray
    normalizers: _asymptotics.Normalizers
    acceptance: AcceptanceStats
    seed: tuple[int, ...]
    batch_size: int

    @property
    def n(self) -> int:
        return self.r.size


@dataclass(frozen=True, eq=False)
class _Plan:
    """The proposal law of one run (see the module docstring).

    The whole-support plan has ``cum`` None and r_c = inf. Otherwise the
    cells are (A minus, A plus, B minus, B plus): ``cum`` holds the
    upper ends of the first three cumulative cell probabilities, ``caps``
    the angular mass each cell draws from, and ``a_share`` is
    1 - w_edge = P{R <= r_c | R > x}.
    """

    x: float
    r_c: float = math.inf
    u_out: float | None = None
    a_share: float = 1.0
    cum: np.ndarray | None = None
    caps: np.ndarray | None = None
    proposal_mass: float = 1.0


def _build_plan(mdl, x, condition, norm) -> _Plan:
    """The stratified plan when the model supports it, else the whole-support plan."""
    ang, su = mdl.angular, mdl.shape_u
    t0 = mdl.t0
    sides = mdl.sides(condition)
    if (ang.side_mass is None or ang.side_mass_inverse is None
            or any(su.monotone_reach < width for _, width in sides)):
        return _Plan(x)

    caps = np.zeros(4)
    u_out = -math.inf
    for side, width in sides:
        phi, kappa = (norm.phi_plus, su.kappa_plus) if side > 0 else (norm.phi_minus, su.kappa_minus)
        b = min(phi * _WINDOW_L ** (1.0 / kappa), width)
        if b < width:
            u_out = max(u_out, float(np.asarray(su.u(np.array([t0 + side * b])))[0]))
        cell = (side + 1) // 2
        caps[[cell, cell + 2]] = ang.side_mass(side, np.array([b, width]))

    r_c = x / u_out * (1.0 - 4.0 * _EPS) if u_out > 0.0 else math.inf
    if not r_c > x:
        return _Plan(x)
    if math.isinf(r_c):
        w_edge, a_share = 0.0, 1.0
    else:
        gap = float(np.asarray(mdl.radial.log_survival_gap(x, np.array([r_c - x])))[0])
        w_edge, a_share = math.exp(gap), -math.expm1(gap)
    probs = caps * np.array([a_share, a_share, w_edge, w_edge])
    mass = float(probs.sum())
    return _Plan(
        x=x, r_c=r_c, u_out=u_out, a_share=a_share,
        cum=np.cumsum(probs)[:3] / mass, caps=caps, proposal_mass=mass,
    )


def _stratified_chunk(mdl, plan, p_cell, p_r, p_t):
    """Proposals from regions A and B, given one chunk of a batch's uniforms.

    The cell index counts the cumulative cell probabilities at or below
    p_cell, as a right-sided search of ``plan.cum`` would.
    """
    cum = plan.cum
    cell = (p_cell >= cum[0]).view(np.int8)
    cell += p_cell >= cum[1]
    cell += p_cell >= cum[2]
    mass = p_t * plan.caps[cell]
    r = np.asarray(mdl.radial.tail_quantile(p_r * plan.a_share, plan.x), dtype=float)
    edge = cell >= 2
    if np.any(edge):
        r[edge] = mdl.radial.tail_quantile(p_r[edge], plan.r_c)
    t = np.asarray(mdl.angular.side_mass_inverse(1, mass), dtype=float)
    minus = cell % 2 == 0
    if np.any(minus):
        t[minus] = -np.asarray(mdl.angular.side_mass_inverse(-1, mass[minus]), dtype=float)
    t += mdl.t0
    return r, t


def _batch_chunks(mdl, plan, key, batch_index, m):
    """The proposals (r, t) of one batch, _CHUNK at a time.

    The uniforms are drawn for the whole batch first, so the stream does
    not depend on the chunking.
    """
    rng = batch_generator(key, batch_index)
    if plan.cum is None:
        p_r = rng.random(m)
        t = np.asarray(mdl.angular.sample(rng, m), dtype=float)
        for lo in range(0, m, _CHUNK):
            s = slice(lo, lo + _CHUNK)
            yield np.asarray(mdl.radial.tail_quantile(p_r[s], plan.x), dtype=float), t[s]
    else:
        p_cell, p_r, p_t = rng.random(m), rng.random(m), rng.random(m)
        for lo in range(0, m, _CHUNK):
            s = slice(lo, lo + _CHUNK)
            yield _stratified_chunk(mdl, plan, p_cell[s], p_r[s], p_t[s])


def _accept(mdl, condition, x, r, t):
    """Mask of the proposals in the event: r u(t) > x, and t > t0 when right-sided."""
    keep = r * np.asarray(mdl.shape_u.u(t), dtype=float) > x
    if condition == _model.Condition.RIGHT_SIDED:
        keep &= t > mdl.t0
    return keep


def _consume_batches(mdl, plan, condition, key, batch_sizes, stop_at=None, budget=None,
                     gather=True):
    """Run batches in index order; returns (r_parts, t_parts, proposals, accepted).

    ``batch_sizes`` is an iterable of per-batch proposal counts (possibly
    unbounded). Consumption stops after the batch that reaches ``stop_at``
    accepted pairs, or when ``batch_sizes`` is exhausted; no batch is
    drawn that is not consumed. With ``gather`` False the accepted pairs
    are only counted and the part lists stay empty.
    """
    r_parts, t_parts = [], []
    proposals = 0
    accepted = 0
    for i, m in enumerate(batch_sizes):
        if budget is not None and proposals + m > budget:
            raise BudgetExceeded(
                f"proposal budget {budget} would be exceeded at x = {plan.x:g}: "
                f"{accepted} accepted of target {stop_at} after {proposals} proposals"
            )
        for r, t in _batch_chunks(mdl, plan, key, i, m):
            keep = _accept(mdl, condition, plan.x, r, t)
            accepted += int(np.count_nonzero(keep))
            if gather:
                r_parts.append(r[keep])
                t_parts.append(t[keep])
        proposals += m
        if stop_at is not None and accepted >= stop_at:
            break
    return r_parts, t_parts, proposals, accepted


def sample_conditional(
    mdl: _model.PolarModel,
    x: float,
    n_target: int,
    condition: _model.Condition = _model.Condition.RIGHT_SIDED,
    seed=None,
    *,
    batch_size: int = _DEFAULT_BATCH,
    max_proposals: int = _DEFAULT_BUDGET,
    workers: int = 1,
) -> ConditionalSample:
    """Draw exactly n_target pairs from (R, T) given the conditioning event.

    Raises BudgetExceeded when ``max_proposals`` proposals would not be
    enough, which signals a misconfigured (too small or infeasible) x
    rather than a tight budget: the default cap is 1e9. The windows come
    from ``compute_normalizers`` under the same condition, which solves
    nothing else, so only errors of the windows the event uses propagate
    from it, before any sampling happens.
    ``ConditionalSample`` gives the scale of ``t_norm``.
    ``workers`` is accepted and ignored (batches run sequentially) until
    the benchmark stops passing it.
    """
    if n_target < 1:
        raise ParameterError(f"n_target must be >= 1, got {n_target}")
    if batch_size < 1:
        raise ParameterError(f"batch_size must be >= 1, got {batch_size}")
    key = seed_key(seed)
    norm = _asymptotics.compute_normalizers(mdl, x, condition)
    plan = _build_plan(mdl, x, condition, norm)

    r_parts, t_parts, proposals, accepted = _consume_batches(
        mdl, plan, condition, key, itertools.repeat(batch_size),
        stop_at=n_target, budget=max_proposals,
    )
    r = np.concatenate(r_parts)[:n_target]
    t = np.concatenate(t_parts)[:n_target]

    t0 = mdl.t0
    if len(mdl.sides(condition)) == 2:
        scale_kind = "phi_sign"
        scale_value: float | tuple[float, float] = (norm.phi_minus, norm.phi_plus)
        t_norm = (t - t0) / np.where(t >= t0, norm.phi_plus, norm.phi_minus)
    else:
        scale_kind, scale_value = "phi_plus", norm.phi_plus
        t_norm = (t - t0) / norm.phi_plus

    stats = AcceptanceStats(
        proposals=proposals,
        accepted=accepted,
        acceptance_rate=plan.proposal_mass * accepted / proposals,
        proposal_mass=plan.proposal_mass,
    )
    return ConditionalSample(
        x=x, condition=condition, scale_kind=scale_kind, scale_value=scale_value,
        r=r, t=t, r_norm=(r - x) / norm.psi_x, t_norm=t_norm,
        normalizers=norm, acceptance=stats, seed=key, batch_size=batch_size,
    )


def estimate_tail_probability(
    mdl: _model.PolarModel,
    x: float,
    n_proposals: int,
    condition: _model.Condition = _model.Condition.RIGHT_SIDED,
    seed=None,
    *,
    batch_size: int = _DEFAULT_BATCH,
    workers: int = 1,
) -> tuple[float, float]:
    """Unbiased estimate of P{X > x (and T > t0)} with a standard error.

    Runs exactly n_proposals proposals of the whole-support plan, whose
    streams stay those of earlier versions, counts the accepted ones
    without keeping them, and returns
    (survival(x) * acceptance_rate, survival(x) * binomial standard
    error). Unbiasedness rests on {X > x} being a subset of {R > x}.
    ``workers`` is accepted and ignored, as in ``sample_conditional``.
    """
    if not x >= 0:
        raise ParameterError(f"estimate_tail_probability: x must be >= 0, got {x}")
    if n_proposals < 1:
        raise ParameterError(f"n_proposals must be >= 1, got {n_proposals}")
    if batch_size < 1:
        raise ParameterError(f"batch_size must be >= 1, got {batch_size}")
    key = seed_key(seed)
    full, rem = divmod(n_proposals, batch_size)
    sizes = [batch_size] * full + ([rem] if rem else [])
    _, _, proposals, accepted = _consume_batches(
        mdl, _Plan(x), condition, key, sizes, gather=False
    )
    rate = accepted / proposals
    hbar = float(np.asarray(mdl.radial.survival(np.array([x])))[0])
    se = hbar * float(np.sqrt(rate * (1.0 - rate) / proposals))
    return hbar * rate, se


def empirical_sign_freq(
    mdl: _model.PolarModel,
    x: float,
    n: int,
    seed=None,
    *,
    batch_size: int = _DEFAULT_BATCH,
    max_proposals: int = _DEFAULT_BUDGET,
) -> tuple[float, float]:
    """Sign frequencies (freq_minus, freq_plus) of T - t0 given {X > x}.

    Draws n accepted pairs under unrestricted conditioning; pairs with
    T exactly at t0 count as plus. Needs a two-sided model.
    """
    cond = _model.Condition.UNRESTRICTED
    if len(mdl.sides(cond)) != 2:
        raise ParameterError("empirical_sign_freq needs a two-sided model")
    sample = sample_conditional(
        mdl, x, n, cond, seed, batch_size=batch_size, max_proposals=max_proposals,
    )
    freq_plus = float(np.mean(sample.t >= mdl.t0))
    return 1.0 - freq_plus, freq_plus


# ---------------------------------------------------------------------------
# Bivariate (X, Y) normalization
# ---------------------------------------------------------------------------

_CASE_GRID = (1e-4, 1e-2, 128)


def _case_grid() -> np.ndarray:
    lo, hi, n = _CASE_GRID
    return np.geomspace(lo, hi, n)


def _match_exact(name: str, case_value, model_value):
    if model_value is None:
        return
    if case_value is None or abs(case_value - model_value) > 1e-12:
        raise CaseMismatch(
            f"case {name} = {case_value} disagrees with the model's {name} = {model_value}"
        )


def _check_case_condition(mdl: _model.PolarModel, case: CorollaryCase):
    """Numerically test that the model sits in the case's regime."""
    sv = mdl.shape_v
    su = mdl.shape_u
    _match_exact("kappa", case.kappa, su.kappa_plus)
    _match_exact("rho", case.rho, sv.rho)

    s = _case_grid()
    ut = np.asarray(su.u_tilde(s), dtype=float)
    vt = np.asarray(sv.v_tilde(s), dtype=float)
    if np.any(vt == 0):
        raise CaseMismatch("v_tilde vanishes on the case-check grid")
    kind = case.kind

    if kind == CorollaryKind.FS:
        _match_exact("delta", case.delta, sv.delta)
        if case.rho != 0.0:
            vals = np.abs(case.rho * ut / vt)
            if vals[0] > 0.05 or vals[0] > vals[-1] + 1e-12:
                raise CaseMismatch(
                    f"rho*u_tilde/v_tilde is {vals[0]:.3g} at s=1e-4 and not vanishing; "
                    "the v-deficit regime needs it to tend to 0"
                )
    elif kind == CorollaryKind.DELTA_GT_KAPPA:
        vals = np.abs(ut / vt)
        if vals[0] < 20.0 or vals[0] + 1e-12 < vals[-1]:
            raise CaseMismatch(
                f"|u_tilde/v_tilde| is {vals[0]:.3g} at s=1e-4 and not diverging; "
                "the radial-dominant regime needs it to blow up"
            )
    elif kind == CorollaryKind.RATIO_C:
        _match_exact("delta", case.delta, sv.delta)
        vals = ut / vt
        c = case.ratio_c
        if c == 0.0:
            if abs(vals[0]) > 0.05:
                raise CaseMismatch(
                    f"u_tilde/v_tilde is {vals[0]:.3g} at s=1e-4, not near C = 0"
                )
        elif abs(vals[0] - c) > 0.10 * abs(c):
            raise CaseMismatch(
                f"u_tilde/v_tilde is {vals[0]:.3g} at s=1e-4, "
                f"more than 10% away from C = {c:g}"
            )
    elif kind == CorollaryKind.SEIFERT:
        lo, hi = mdl.angular.support
        ts = np.linspace(lo, hi, 512)
        lhs = np.asarray(sv.v(ts), dtype=float)
        rhs = (ts - mdl.t0 + case.rho) * np.asarray(su.u(ts), dtype=float)
        worst = float(np.max(np.abs(lhs - rhs)))
        if worst > 1e-10:
            raise CaseMismatch(
                f"v differs from (t - t0 + rho) u by up to {worst:.3g}; "
                "the linear-ratio case needs the exact factorization"
            )
    else:  # THETA_N
        if sv.theta_n is not None and case.n != sv.theta_n:
            raise CaseMismatch(
                f"case n = {case.n} disagrees with the model's theta_n = {sv.theta_n}"
            )
        theta_est = np.asarray(sv.v(mdl.t0 + s), dtype=float) / np.asarray(
            su.u(mdl.t0 + s), dtype=float
        )
        deriv_est = (theta_est[0] - case.rho) / s[0] ** case.n * math.factorial(case.n)
        if abs(deriv_est - case.theta_deriv) > 0.10 * abs(case.theta_deriv):
            raise CaseMismatch(
                f"estimated order-{case.n} coefficient {deriv_est:.6g} is more than "
                f"10% away from theta_deriv = {case.theta_deriv:g}"
            )


def bivariate_normalized(
    mdl: _model.PolarModel,
    case: CorollaryCase,
    sample: ConditionalSample,
) -> tuple[np.ndarray, np.ndarray]:
    """Case-normalized ((X - x)/psi, second coordinate) from raw pairs.

    The second coordinate and its scale depend on the case: the v-deficit
    and balanced regimes use (Y - rho x)/(x v_tilde(phi)), the
    radial-dominant regime (Y - rho x)/psi(x), and the ratio regimes
    ((Y/X) - rho)/phi^n. The sample must be right-sided; the model's
    membership in the case regime is checked numerically first and a
    contradiction raises CaseMismatch.
    """
    if mdl.shape_v is None:
        raise ParameterError("bivariate_normalized needs a model with shape_v")
    if sample.condition != _model.Condition.RIGHT_SIDED:
        raise ParameterError("bivariate normalization applies to right-sided samples")
    _check_case_condition(mdl, case)

    x = sample.x
    psi = sample.normalizers.psi_x
    phi = sample.normalizers.phi_plus
    u_vals = np.asarray(mdl.shape_u.u(sample.t), dtype=float)
    v_vals = np.asarray(mdl.shape_v.v(sample.t), dtype=float)
    big_x = sample.r * u_vals
    big_y = sample.r * v_vals
    first = (big_x - x) / psi

    kind = case.kind
    if kind in (CorollaryKind.FS, CorollaryKind.RATIO_C):
        vt_phi = float(np.asarray(mdl.shape_v.v_tilde(np.array([phi])))[0])
        if vt_phi == 0.0:
            raise CaseMismatch("v_tilde(phi) = 0; the v-deficit scale is degenerate")
        second = (big_y - case.rho * x) / (x * vt_phi)
    elif kind == CorollaryKind.DELTA_GT_KAPPA:
        second = (big_y - case.rho * x) / psi
    elif kind == CorollaryKind.SEIFERT:
        second = (big_y / big_x - case.rho) / phi
    else:  # THETA_N
        second = (big_y / big_x - case.rho) / phi ** case.n
    return first, second

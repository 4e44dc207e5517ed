"""Exact sampling of the conditional law of (R, T) given an exceedance.

The event {X > x} with X = R u(T) is rare but sits inside {R > x}: since
|u| <= 1 and R >= 0, an exceedance of X forces one of R. The base
proposal law is therefore the exact radial tail law given R > x (by
inversion, no approximation) times the angular law g, and a proposal is
kept iff R u(T) > x (and T > t0 under right-sided conditioning).
Restricting the base law to any region that holds every acceptable pair
and applying the same test still gives exactly the conditional law
(rejection from a restricted proposal; Devroye 1986, Non-Uniform Random
Variate Generation, ch. II).

Given the event, R - x lives on the radial scale psi(x) and T - t0 on the
angular window phi(x), so builtin models are sampled in those
coordinates: the overshoot a = R - x, the side sigma of t0 and the
distance s = |T - t0|, whose deficit delta = ``shape_u.deficit(sigma, s)``
is u(t0) - u(T). The event R u(T) > x then reads a (1 - delta) > x delta
(and s > 0 when right-sided), and R = x + a and T = t0 + sigma s are
formed only for output, so a and s keep their digits however far below
the resolution of x and t0 they lie.
The sampler splits the base law into

    A:  a <= a_c and s <= b_sigma (T in the window W),
    B:  a > a_c and T anywhere on the allowed sides,
    C:  the rest, a <= a_c and T outside W,

with b_sigma = min(phi_sigma L^(1/kappa_sigma), support width of the
side); L = 20, unless the windows hold so little of the angular law that
B would take more than about 0.1% of the proposals, and then L grows
until B does not. delta_out is the smallest deficit at b_sigma over the
sides whose window stops short of the support edge, and
a_c = x delta_out / (1 - delta_out), lowered until
fl(a_c fl(1 - delta_out)) <= fl(x delta_out). Since u does not increase
away from t0, every pair in C has a (1 - delta) <= a_c (1 - delta_out)
<= x delta_out <= x delta, in doubles too, and is never accepted.
Proposals are drawn from the base law restricted to A and B, in one cell
per region and side: B has conditional radial mass
w_edge = Hbar(x + a_c) / Hbar(x), about e^-L, and A the angular mass of
the window, so the acceptance rate is O(1) at every x (about 0.19 for
kappa = 2, tau = 0) instead of falling like phi(x). A cell draws an
Exp(1) level e of the radial tail, e = -log(1 - p (1 - w_edge)) in A and
e = e_c - log(1 - p) in B with e_c = -log w_edge, and turns it into a by
``RadialLaw.overshoot``; s comes from the exact angular mass of the side
measured from t0 and its inverse. This stratified plan needs
``angular.side_mass`` and its inverse and a ``shape_u.monotone_reach``
covering every allowed side of the support (``validate_model`` checks
the declared reach on a grid, and the side masses and their inverse
against the density). Otherwise, and always in
``estimate_tail_probability`` (the independent Monte Carlo check of the
quadrature), the whole-support plan draws R by ``tail_quantile`` and T
from ``angular.sample`` and tests R u(T) > x: a_c = inf and C is empty.

``AcceptanceStats.acceptance_rate`` is proposal_mass * accepted /
proposals, where proposal_mass is the base-law probability of A and B
together (1 for the whole-support plan), so under either plan it
estimates P{X > x (and T > t0) | R > x}.

The normalized coordinates are those of ``asymptotics.limit_law`` under
the same condition: a = R - x is divided by psi(x), and sigma s = T - t0
by the window of the side T falls on when the event covers both sides of
t0 (``PolarModel.sides``), else by phi_plus.

Determinism contract: the plan is a pure function of (model, x,
condition). Draws are generated in batches, and batch i of a run with
seed s uses the stream SeedSequence(key(s) + (i,)). The whole-support
plan draws m uniforms for R, then ``angular.sample(rng, m)``. The
stratified plan draws one multinomial split of the batch's m proposals
over the cells (A minus, A plus, B minus, B plus), then, cell by cell in
that order, the cell's uniforms for e and then those for s. The
transforms and the acceptance test run over fixed chunks of each draw;
chunking draws nothing, so it never changes the stream. Batches run one
after another in index order until enough pairs accumulate, and no batch
is drawn that is not consumed. The whole-support plan returns the first
n accepted pairs. The stratified plan's accepted pairs come grouped by
cell, where a prefix would favour the first cells, so the generator of
the last batch then draws n of them without replacement
(``Generator.choice``), which picks the returned pairs and their order
uniformly. The output is a pure function of (model, x, n_target,
condition, seed, batch_size); the batch size takes part in the stream
assignment, so changing it changes the draws (but not their law).
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
from .limitlaw import CorollaryKind

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
# region B draws T from the whole side, so once the windows hold less than
# e^-L / _EDGE_SHARE of it, L grows to log(side mass / window mass /
# _EDGE_SHARE) and B keeps about _EDGE_SHARE of the proposals
_EDGE_SHARE = 1e-3


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
    R > x on the event. Under the stratified plan both normalized
    coordinates come from the overshoot and the distance from t0 before
    r and t are formed, so they keep digits that r and t cannot hold.
    ``t_norm`` = (t - t0)/scale: when the event covers
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

    The whole-support plan has no ``cells`` and a_c = inf. Otherwise
    ``cells`` holds (side, cap, edge) of A minus, A plus, B minus and B
    plus over the sides the event covers, where cap is the angular mass
    the cell draws s from and edge marks region B, and ``probs`` their
    probabilities given a proposal. ``a_share`` is 1 - w_edge =
    P{a <= a_c | R > x} and e_c = -log w_edge.
    """

    x: float
    a_c: float = math.inf
    delta_out: float = math.inf
    a_share: float = 1.0
    e_c: float = math.inf
    cells: tuple = ()
    probs: np.ndarray | None = None
    proposal_mass: float = 1.0


def _build_plan(mdl, x, condition, norm) -> _Plan:
    """The stratified plan when the model supports it, else the whole-support plan."""
    ang, su = mdl.angular, mdl.shape_u
    sides = mdl.sides(condition)
    if (ang.side_mass is None or ang.side_mass_inverse is None
            or any(su.monotone_reach < width for _, width in sides)):
        return _Plan(x)

    def cut(level):
        """(side, b_side, side width, [window mass, side mass]) of each side for L = level."""
        out = []
        for side, width in sides:
            phi, kappa = (norm.phi_plus, su.kappa_plus) if side > 0 else (norm.phi_minus, su.kappa_minus)
            b = min(phi * level ** (1.0 / kappa), width)
            out.append((side, b, width, [float(c) for c in ang.side_mass(side, np.array([b, width]))]))
        return out

    wins = cut(_WINDOW_L)
    window = sum(w[3][0] for w in wins)
    whole = sum(w[3][1] for w in wins)
    if whole * math.exp(-_WINDOW_L) > _EDGE_SHARE * window:
        wins = cut(math.log(whole / (_EDGE_SHARE * window)) if window > 0.0 else math.inf)
    delta_out = min((float(np.asarray(su.deficit(side, np.array([b])))[0])
                     for side, b, width, _ in wins if b < width), default=math.inf)

    a_c = math.inf
    if delta_out < 1.0:
        inside, edge = 1.0 - delta_out, x * delta_out
        a_c = edge / inside
        while a_c * inside > edge:
            a_c = math.nextafter(a_c, 0.0)
    if not a_c > 0.0:
        return _Plan(x)
    gap = -math.inf if math.isinf(a_c) else float(
        np.asarray(mdl.radial.log_survival_gap(x, np.array([a_c])))[0])
    w_edge, a_share = math.exp(gap), -math.expm1(gap)
    caps = {side: masses for side, _, _, masses in wins}
    cells = tuple((side, caps[side][edge], edge)
                  for edge in (False, True) for side in (-1, 1) if side in caps)
    probs = np.array([cap * (w_edge if edge else a_share) for _, cap, edge in cells])
    mass = float(probs.sum())
    return _Plan(x=x, a_c=a_c, delta_out=delta_out, a_share=a_share, e_c=-gap,
                 cells=cells, probs=probs / mass, proposal_mass=mass)


def _stratified_batch(mdl, plan, condition, rng, m):
    """The proposals (a, sigma s, accept mask) of one batch, cell by cell, _CHUNK at a time."""
    x = plan.x
    overshoot = mdl.radial.overshoot
    inverse = mdl.angular.side_mass_inverse
    deficit = mdl.shape_u.deficit
    right = condition == _model.Condition.RIGHT_SIDED
    for (side, cap, edge), count in zip(plan.cells, rng.multinomial(m, plan.probs).tolist()):
        if not count:
            continue
        p_e, p_t = rng.random(count), rng.random(count)
        for lo in range(0, count, _CHUNK):
            part = slice(lo, lo + _CHUNK)
            if edge:
                e = plan.e_c - np.log1p(-p_e[part])
            else:
                e = -np.log1p(-plan.a_share * p_e[part])
            a = np.asarray(overshoot(x, e), dtype=float)
            s = np.asarray(inverse(side, cap * p_t[part]), dtype=float)
            d = np.asarray(deficit(side, s), dtype=float)
            keep = a * (1.0 - d) > x * d
            if right:
                keep &= s > 0.0
            yield a, (s if side > 0 else -s), keep


def _whole_support_batch(mdl, plan, condition, rng, m):
    """The proposals (r, t, accept mask) of one batch, _CHUNK at a time.

    The uniforms are drawn for the whole batch first, so the stream does
    not depend on the chunking.
    """
    x = plan.x
    p_r = rng.random(m)
    t = np.asarray(mdl.angular.sample(rng, m), dtype=float)
    for lo in range(0, m, _CHUNK):
        part = slice(lo, lo + _CHUNK)
        r = np.asarray(mdl.radial.tail_quantile(p_r[part], x), dtype=float)
        keep = r * np.asarray(mdl.shape_u.u(t[part]), dtype=float) > x
        if condition == _model.Condition.RIGHT_SIDED:
            keep &= t[part] > mdl.t0
        yield r, t[part], keep


def _consume_batches(mdl, plan, condition, key, batch_sizes, stop_at=None, budget=None,
                     gather=True):
    """Run batches in index order; returns (first, second, proposals, accepted).

    ``batch_sizes`` is an iterable of per-batch proposal counts (possibly
    unbounded). Consumption stops after the batch that reaches ``stop_at``
    accepted pairs, or when ``batch_sizes`` is exhausted; no batch is
    drawn that is not consumed. The accepted pairs are (r, t) under the
    whole-support plan and (a, sigma s) under the stratified one, cut to
    ``stop_at`` as the module docstring says. With ``gather`` False they
    are only counted and None is returned for them.
    """
    firsts, seconds = [], []
    proposals = 0
    accepted = 0
    for i, m in enumerate(batch_sizes):
        if budget is not None and proposals + m > budget:
            raise BudgetExceeded(
                f"proposal budget {budget} would be exceeded at x = {plan.x:g}: "
                f"{accepted} accepted of target {stop_at} after {proposals} proposals"
            )
        rng = batch_generator(key, i)
        kernel = _stratified_batch if plan.cells else _whole_support_batch
        for first, second, keep in kernel(mdl, plan, condition, rng, m):
            if gather:
                # an index gather costs half as much as a mask gather twice
                index = np.flatnonzero(keep)
                accepted += index.size
                firsts.append(first[index])
                seconds.append(second[index])
            else:
                accepted += int(np.count_nonzero(keep))
        proposals += m
        if stop_at is not None and accepted >= stop_at:
            break
    if not gather:
        return None, None, proposals, accepted
    first, second = np.concatenate(firsts), np.concatenate(seconds)
    pick = rng.choice(first.size, stop_at, replace=False) if plan.cells else slice(stop_at)
    return first[pick], second[pick], proposals, accepted


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

    first, second, proposals, accepted = _consume_batches(
        mdl, plan, condition, key, itertools.repeat(batch_size),
        stop_at=n_target, budget=max_proposals,
    )
    t0 = mdl.t0
    if plan.cells:
        a, offset = first, second
        r, t = x + a, t0 + offset
    else:
        r, t = first, second
        a, offset = r - x, t - t0

    if len(mdl.sides(condition)) == 2:
        scale_kind = "phi_sign"
        scale_value: float | tuple[float, float] = (norm.phi_minus, norm.phi_plus)
        t_norm = offset / np.where(offset >= 0, norm.phi_plus, norm.phi_minus)
    else:
        scale_kind, scale_value = "phi_plus", norm.phi_plus
        t_norm = offset / norm.phi_plus

    stats = AcceptanceStats(
        proposals=proposals,
        accepted=accepted,
        acceptance_rate=plan.proposal_mass * accepted / proposals,
        proposal_mass=plan.proposal_mass,
    )
    return ConditionalSample(
        x=x, condition=condition, scale_kind=scale_kind, scale_value=scale_value,
        r=r, t=t, r_norm=a / norm.psi_x, t_norm=t_norm,
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

    Runs exactly n_proposals proposals of the whole-support plan, which
    rests on none of the stratified plan's closed forms (the tests and the
    benchmark's mc-deep workload compare it with the quadrature), counts
    the accepted ones without keeping them, and returns
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

def bivariate_normalized(
    mdl: _model.PolarModel,
    kind: CorollaryKind | str,
    sample: ConditionalSample,
) -> tuple[np.ndarray, np.ndarray]:
    """Case-normalized ((X - x)/psi, second coordinate) from raw pairs.

    The case is ``asymptotics.corollary_case(mdl, kind)``, read off the
    model's declarations, which ``validate_model`` checks; a kind outside
    the model's regime raises CaseMismatch. The second coordinate and its
    scale depend on the case: the v-deficit and balanced regimes use
    (Y - rho x)/(x v_tilde(phi)), the radial-dominant regime
    (Y - rho x)/psi(x), and the ratio regimes ((Y/X) - rho)/phi^n. The
    sample must be right-sided.
    """
    if sample.condition != _model.Condition.RIGHT_SIDED:
        raise ParameterError("bivariate normalization applies to right-sided samples")
    case = _asymptotics.corollary_case(mdl, kind)

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
    else:  # SEIFERT and THETA_N; seifert's case has n = 1
        second = (big_y / big_x - case.rho) / phi ** case.n
    return first, second

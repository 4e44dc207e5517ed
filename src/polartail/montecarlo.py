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
distance s = |T - t0|, whose deficit delta = ``SideFacts.deficit(s)``
is u(t0) - u(T). The event R u(T) > x then reads a (1 - delta) > x delta
(and s > 0 when right-sided), and R = x + a and T = t0 + sigma s are
formed only for output, so a and s keep their digits however far below
the resolution of x and t0 they lie.

The sampler cuts the base law along the radial level. Given R > x, the
level y = -log_survival_gap(x, a) is Exp(1) and independent of T, and at
level y a pair passes exactly when its angular mass from t0 is below the
level map: the side's ``SideFacts.passing_mass`` at the overshoot
``radial.overshoot(x, y)``, which does not decrease in y and is the side
mass at y = inf. The levels are 0 = y_0 < ... <
y_K = e_c < y_K+1 = inf, the first K intervals of equal Exp(1) mass.
Cell k on side sigma is (sigma, cap_k, y_k, y_k+1 - y_k): it draws the
level e = y_k - log(1 - p (1 - e^-h)), Exp(1) restricted to [y_k,
y_k+1], turns it into a by ``RadialLaw.overshoot``, and draws s uniform
in angular mass up to cap_k = min(side mass, level map at y_k+1), through
the exact angular mass of the side measured from t0 and its inverse.
Since the map does not decrease, the cap holds every pair the cell can
accept, and the last cell, [e_c, inf), draws from the whole side.
e_c = 20, unless the sides hold so much more than the level map M at 20
(summed over the sides) that the last cell would take more than about
0.1% of the proposals; then e_c = log(side mass / (1e-3 M(20))). With
K = 32 about 0.9 of the proposals are accepted for kappa = 2, tau = 0,
where one strip (K = 1) accepts about 0.2, and at least 0.78 on every
builtin sweep model for x = 1e2..1e8 (0.74 at x = 1e12).

The caps hold every pair a cell can accept in exact arithmetic. In
doubles the level the kernel draws can exceed y_k+1 by a few ulps of
1 + y_k+1; the half-normal overshoot is good to 1e-10
relative (``validate_model`` checks it), a level error of about 2e-10 y;
and the deficit, the angular masses and their inverses each round by a
few ulps. So every cap, the top strip's included, reads the level map at
y_k+1 + 1e-7 (1 + y_k+1), hundreds of times those level errors, and
scales the mass it reads by 1 + 1e-9, far above the rounding of the
masses. Each margin alone closes the gap that the tests find without
them: on the half-normal/cosine model at x = 3, a pair at the highest
level of the first strip whose mass lies one ulp above the unmargined cap
passes the acceptance test.

This stratified plan needs a level map on every side the event covers
(``SideFacts.has_level_map``: ``angular.side_mass`` and its inverse,
``shape_u.deficit_inverse`` and the declared reach; ``validate_model``
checks the declared reach on a grid, the side masses against the
density, and the inverses by round trips). Otherwise, and
always in ``estimate_tail_probability`` (the independent Monte Carlo
check of the quadrature), the whole-support plan draws T from
``angular.sample``, R by ``tail_quantile`` only for a T the event can use
(T > t0 when right-sided: the base law restricted to that side), and
tests R u(T) > x. So does a level map that holds no mass at level 20 (an
angular law with no mass near t0, say), where the cells would have
nothing to follow; on builtin models the windows fail first at such an x.

``AcceptanceStats.acceptance_rate`` is proposal_mass * accepted /
proposals, where proposal_mass is the base-law probability of the cells
together (1 for the whole-support plan), so under either plan it
estimates P{X > x (and T > t0) | R > x}.

The normalized coordinates are those of ``asymptotics.limit_law`` under
the same condition: a = R - x is divided by psi(x), and sigma s = T - t0
by the window of the side T falls on when the event covers both sides of
t0 (``PolarModel.sides``), else by phi_plus.

Determinism contract: the plan is a pure function of (model, x,
condition). Draws are generated in batches, and batch i of a run with
seed s uses the stream SeedSequence(key(s) + (i,)). The whole-support
plan draws ``angular.sample(rng, m)`` first, keeps the k angles the event
can use (T > t0 under right-sided conditioning, where any other pair is
rejected whatever its radius; all m otherwise), and then draws k uniforms
for R, one per kept angle in order. The stratified plan draws one
multinomial split of the batch's m proposals over the cells (side by
side, minus side first, each side's strips from the lowest level up and
then its [e_c, inf) cell), then, cell by cell in that order, the cell's
uniforms for e and then those for s, into two batch-long arrays. Its
transforms and acceptance test then run side by side, each over the one
range of those arrays that its side's cells fill, and the whole-support
plan's over its kept angles, both in fixed chunks. Chunking draws
nothing, and every transform is elementwise (the half-normal overshoot's
Newton iteration included), so it changes no value.
``sample_conditional`` runs its batches one after another in index order
until enough pairs accumulate, and draws no batch that it does not
consume. The whole-support plan returns the first n accepted pairs. The
stratified plan's accepted pairs come grouped by cell, where a prefix
would favour the first cells, so the generator of the last batch then
draws n of them without replacement (``Generator.choice``), which picks
the returned pairs and their order uniformly. The output is a pure
function of (model, x, n_target, condition, seed, batch_size); the batch
size takes part in the stream assignment, so changing it changes the
draws (but not their law). ``estimate_tail_probability`` counts its
fixed list of batches on as many threads as the process may use CPUs
(at most one per batch, and at most ``_MAX_THREADS``) and sums the
integer counts, so its estimate is a pure function of (model, x,
n_proposals, condition, seed, batch_size) whatever the thread count.
Those threads call the model's callables, so a custom model's callables
must not keep mutable state.
"""

from __future__ import annotations

import itertools
import math
import os
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
# proposals transformed and tested at once, from one side's range of the
# batch on the stratified plan and from the kept angles on the
# whole-support plan: 64 KB float temporaries, which the allocator reuses
# from batch to batch instead of mapping them afresh
_CHUNK = 8192
_DEFAULT_BUDGET = 10 ** 9
# the most threads that count the estimate's batches: the largest count
# measured on as many CPUs. Past the CPU count threads slow each other
# down, and each adds about 2 MB of peak memory (BENCH_30.json)
_MAX_THREADS = 2
# the last cell [e_c, inf) draws T from the whole side: e_c is this level,
# or log(side mass / (_EDGE_SHARE M(_TOP_LEVEL))) where that is higher, so
# that the last cell keeps about _EDGE_SHARE of the proposals
_TOP_LEVEL = 20.0
_EDGE_SHARE = 1e-3
# the levels below e_c split into this many strips of equal Exp(1) mass
_STRIPS = 32
# a cell's cap reads the level map this far above the cell top,
# relative to 1 + top, and scales the mass it reads up by 1 + _CAP_MASS,
# so that rounding cannot accept a pair above the cap (module docstring)
_CAP_LEVEL = 1e-7
_CAP_MASS = 1e-9


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
    "phi_plus" and ``scale_value`` is phi_plus, both read off
    ``normalizers``. ``acceptance`` counts whole consumed batches,
    including the tail of the last batch beyond n.
    """

    x: float
    condition: _model.Condition
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

    @property
    def scale_kind(self) -> str:
        return "phi_plus" if self.normalizers.phi_minus is None else "phi_sign"

    @property
    def scale_value(self) -> float | tuple[float, float]:
        norm = self.normalizers
        return norm.phi_plus if norm.phi_minus is None else (norm.phi_minus, norm.phi_plus)


@dataclass(frozen=True, eq=False)
class _Plan:
    """The proposal law of one run (see the module docstring).

    The whole-support plan has no ``cells``. Otherwise ``cells`` holds
    (side, cap, y_lo, h) of each side the event covers, minus side first:
    its strips from the lowest level up, then its [e_c, inf) cell. A cell
    draws its level from Exp(1) restricted to [y_lo, y_lo + h] and s up
    to the angular mass cap. ``probs`` are their probabilities given a
    proposal, cap e^-y_lo (1 - e^-h) over their sum ``proposal_mass``.
    """

    x: float
    cells: tuple = ()
    probs: np.ndarray | None = None
    proposal_mass: float = 1.0


def _build_plan(mdl, x, condition) -> _Plan:
    """The level cells when every side has a level map, else the whole-support plan."""
    sides = mdl.sides(condition)[::-1]  # the records (SideFacts), minus side first
    if not all(facts.has_level_map for facts in sides):
        return _Plan(x)
    # the level map: the overshoot does not depend on the side, so each set
    # of levels takes one overshoot call, shared by the sides' passing masses
    overshoot = mdl.radial.overshoot
    a_top = overshoot(x, np.array([_TOP_LEVEL]))
    top = sum(float(facts.passing_mass(x, a_top)[0]) for facts in sides)
    if not top > 0.0:
        return _Plan(x)
    e_c = max(_TOP_LEVEL, math.log(sum(facts.mass for facts in sides) / (_EDGE_SHARE * top)))
    levels = np.array([-math.log1p(math.expm1(-e_c) * k / _STRIPS) for k in range(_STRIPS)]
                      + [e_c, math.inf])
    spans = list(zip(levels[:-1].tolist(), np.diff(levels).tolist()))
    reads = levels[1:] + _CAP_LEVEL * (1.0 + levels[1:])
    a_reads = overshoot(x, reads)
    cells = []
    for facts in sides:
        caps = np.minimum(facts.mass,
                          (1.0 + _CAP_MASS) * np.asarray(facts.passing_mass(x, a_reads), dtype=float))
        cells += [(facts.side, cap, y_lo, h) for cap, (y_lo, h) in zip(caps.tolist(), spans)]
    probs = np.array([cap * math.exp(-y_lo) * -math.expm1(-h) for _, cap, y_lo, h in cells])
    mass = float(probs.sum())
    return _Plan(x=x, cells=tuple(cells), probs=probs / mass, proposal_mass=mass)


def _stratified_batch(mdl, plan, condition, rng, m):
    """The proposals (a, sigma s, accept mask) of one batch, side by side, _CHUNK at a time.

    The batch draws its uniforms cell by cell into two m-long arrays, p_e
    and p_t, and turns them into every cell's levels and capped masses at
    once. The cells of a side are adjacent in ``plan.cells``, so each side
    is one range of those arrays, and the transforms and the acceptance
    test run over it a chunk at a time; a side without proposals makes no
    call. Every transform is elementwise, so the values are those of each
    cell evaluated alone.
    """
    x = plan.x
    overshoot = mdl.radial.overshoot
    inverse = mdl.angular.side_mass_inverse
    right = condition == _model.Condition.RIGHT_SIDED
    counts = rng.multinomial(m, plan.probs)
    p_e, p_t = np.empty(m), np.empty(m)
    lo = 0
    for count in counts.tolist():
        if count:
            rng.random(out=p_e[lo:lo + count])
            rng.random(out=p_t[lo:lo + count])
            lo += count
    sides, caps, y_lo, spans = zip(*plan.cells)
    # the level y_lo - log(1 - p (1 - e^-h)) and the mass cap p, in place
    p_e *= np.repeat([math.expm1(-h) for h in spans], counts)
    np.log1p(p_e, out=p_e)
    np.subtract(np.repeat(y_lo, counts), p_e, out=p_e)
    p_t *= np.repeat(caps, counts)
    split = int(counts[np.array(sides) < 0].sum())
    for side, start, stop in ((-1, 0, split), (1, split, m)):
        deficit = mdl.side(side).deficit
        for lo in range(start, stop, _CHUNK):
            part = slice(lo, min(lo + _CHUNK, stop))
            a = np.asarray(overshoot(x, p_e[part]), dtype=float)
            s = np.asarray(inverse(side, p_t[part]), dtype=float)
            d = np.asarray(deficit(s), dtype=float)
            keep = a * (1.0 - d) > x * d
            if right:
                keep &= s > 0.0
            yield a, (s if side > 0 else -s), keep


def _whole_support_batch(mdl, plan, condition, rng, m):
    """The proposals (r, t, accept mask) of one batch's usable angles, _CHUNK at a time.

    The batch draws its m angles first. Under right-sided conditioning a
    proposal with T <= t0 is rejected whatever its radius, so only the k
    angles with T > t0 are kept (all m otherwise), and one radial uniform
    is drawn per kept angle, for the whole batch before any chunk, so the
    stream does not depend on the chunking. With k = 0 there is no chunk,
    so the model's callables never see an empty array.
    """
    x = plan.x
    t = np.asarray(mdl.angular.sample(rng, m), dtype=float)
    if condition == _model.Condition.RIGHT_SIDED:
        # an index gather: a boolean-mask gather of a random half costs 4x more
        t = t[np.flatnonzero(t > mdl.t0)]
    p_r = rng.random(t.size)
    for lo in range(0, t.size, _CHUNK):
        t_part = t[lo:lo + _CHUNK]
        r = np.asarray(mdl.radial.tail_quantile(p_r[lo:lo + _CHUNK], x), dtype=float)
        yield r, t_part, r * np.asarray(mdl.shape_u.u(t_part), dtype=float) > x


def _consume_batches(mdl, plan, condition, key, batch_size, n_target, budget):
    """Run batches in index order; returns (first, second, proposals, accepted).

    Batch i draws ``batch_size`` proposals from ``batch_generator(key, i)``.
    Consumption stops after the batch that brings the accepted pairs to
    ``n_target``, so no batch is drawn that is not consumed, and raises
    BudgetExceeded before a batch that would take the proposals past
    ``budget``. The accepted pairs are (r, t) under the whole-support plan
    and (a, sigma s) under the stratified one, cut to ``n_target`` as the
    module docstring says.
    """
    kernel = _stratified_batch if plan.cells else _whole_support_batch
    firsts, seconds = [], []
    proposals = 0
    accepted = 0
    for i in itertools.count():
        if proposals + batch_size > budget:
            raise BudgetExceeded(
                f"proposal budget {budget} would be exceeded at x = {plan.x:g}: "
                f"{accepted} accepted of target {n_target} after {proposals} proposals"
            )
        rng = batch_generator(key, i)
        for first, second, keep in kernel(mdl, plan, condition, rng, batch_size):
            # an index gather costs half as much as a mask gather twice
            index = np.flatnonzero(keep)
            accepted += index.size
            firsts.append(first[index])
            seconds.append(second[index])
        proposals += batch_size
        if accepted >= n_target:
            break
    first, second = np.concatenate(firsts), np.concatenate(seconds)
    pick = rng.choice(first.size, n_target, replace=False) if plan.cells else slice(n_target)
    return first[pick], second[pick], proposals, accepted


def _usable_cpus() -> int:
    """The number of CPUs this process may run on: its affinity mask where the OS has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _count_batches(mdl, plan, condition, key, sizes):
    """The accepted proposals of whole-support batches 0, 1, ... of ``sizes`` proposals.

    Batch i draws from ``batch_generator(key, i)`` whichever thread counts
    it, and the counts are integers summed by the caller, so the total is
    the same for every thread count. The batches run on min(len(sizes),
    _MAX_THREADS, ``_usable_cpus()``) threads of a pool made for this
    call. The threads call only this module's private helpers and the
    model's callables. An exception raised in a batch cancels the batches
    not yet started, waits for the running ones and propagates.
    """
    def count(i):
        rng = batch_generator(key, i)
        return sum(int(np.count_nonzero(keep))
                   for _, _, keep in _whole_support_batch(mdl, plan, condition, rng, sizes[i]))

    # imported here, not with the package: it loads logging, about 14 ms
    from concurrent.futures import ThreadPoolExecutor
    pool = ThreadPoolExecutor(min(len(sizes), _MAX_THREADS, _usable_cpus()))
    try:
        return sum(pool.map(count, range(len(sizes))))
    finally:
        pool.shutdown(cancel_futures=True)


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
    from it, before any sampling happens. The windows only scale
    ``t_norm`` (``ConditionalSample`` gives that scale); the proposal plan
    reads the level map, not them.
    ``workers`` is accepted and ignored (batches run sequentially) until
    the benchmark stops passing it.
    """
    if n_target < 1:
        raise ParameterError(f"n_target must be >= 1, got {n_target}")
    if batch_size < 1:
        raise ParameterError(f"batch_size must be >= 1, got {batch_size}")
    key = seed_key(seed)
    norm = _asymptotics.compute_normalizers(mdl, x, condition)
    plan = _build_plan(mdl, x, condition)

    first, second, proposals, accepted = _consume_batches(
        mdl, plan, condition, key, batch_size, n_target, max_proposals
    )
    t0 = mdl.t0
    if plan.cells:
        a, offset = first, second
        r, t = x + a, t0 + offset
    else:
        r, t = first, second
        a, offset = r - x, t - t0

    # each pair by the window of its side; an event on one side has only
    # phi_plus. a and offset are this call's own arrays, which the
    # normalized coordinates overwrite
    if norm.phi_minus is None:
        t_norm = np.divide(offset, norm.phi_plus, out=offset)
    else:
        t_norm = np.divide(offset, np.where(offset >= 0, norm.phi_plus, norm.phi_minus), out=offset)
    r_norm = np.divide(a, norm.psi_x, out=a)

    stats = AcceptanceStats(
        proposals=proposals,
        accepted=accepted,
        acceptance_rate=plan.proposal_mass * accepted / proposals,
        proposal_mass=plan.proposal_mass,
    )
    return ConditionalSample(
        x=x, condition=condition, r=r, t=t, r_norm=r_norm, t_norm=t_norm,
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
    Every proposal draws its angle, but only those the event can use
    (T > t0 when right-sided) draw a radius; the others count as
    proposals that are rejected.
    The batches are counted concurrently (``_count_batches``): the
    model's callables are called from worker threads, so a custom model's
    callables must not keep mutable state. The estimate does not depend
    on the thread count, which follows the process's CPU affinity (at
    most ``_MAX_THREADS``).
    ``workers`` is accepted and ignored, as in ``sample_conditional``.
    """
    if not 0.0 <= x < math.inf:
        raise ParameterError(f"estimate_tail_probability: x must be >= 0 and finite, got {x}")
    if n_proposals < 1:
        raise ParameterError(f"n_proposals must be >= 1, got {n_proposals}")
    if batch_size < 1:
        raise ParameterError(f"batch_size must be >= 1, got {batch_size}")
    key = seed_key(seed)
    full, rem = divmod(n_proposals, batch_size)
    sizes = [batch_size] * full + ([rem] if rem else [])
    accepted = _count_batches(mdl, _Plan(x), condition, key, sizes)
    rate = accepted / n_proposals
    hbar = float(np.asarray(mdl.radial.survival(np.array([x])))[0])
    se = hbar * float(np.sqrt(rate * (1.0 - rate) / n_proposals))
    return hbar * rate, se


def empirical_sign_freq(
    mdl: _model.PolarModel,
    x: float,
    n: int,
    seed=None,
) -> tuple[float, float]:
    """Sign frequencies (freq_minus, freq_plus) of T - t0 given {X > x}.

    Draws n accepted pairs under unrestricted conditioning; pairs with
    T exactly at t0 count as plus. Needs a two-sided model.
    """
    cond = _model.Condition.UNRESTRICTED
    if len(mdl.sides(cond)) != 2:
        raise ParameterError("empirical_sign_freq needs a two-sided model")
    sample = sample_conditional(mdl, x, n, cond, seed)
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
    the model's regime raises CaseMismatch. The first coordinate is the
    acceptance test's (a (1 - delta) - x delta)/psi with a = psi r_norm
    and delta the deficit at phi |t_norm|, which keeps the digits that
    R u(T) - x loses. The second coordinate and its
    scale depend on the case: the v-deficit and balanced regimes use
    (Y - rho x)/(x v_tilde(phi)), the radial-dominant regime
    (Y - rho x)/psi(x), and the ratio regimes ((Y/X) - rho)/phi^n. Y - rho
    x keeps the rounding of v, since ``ShapeV`` declares no exact v_tilde.
    The sample must be right-sided.
    """
    if sample.condition != _model.Condition.RIGHT_SIDED:
        raise ParameterError("bivariate normalization applies to right-sided samples")
    case = _asymptotics.corollary_case(mdl, kind)

    x = sample.x
    psi = sample.normalizers.psi_x
    phi = sample.normalizers.phi_plus
    delta = np.asarray(mdl.side(1).deficit(phi * np.abs(sample.t_norm)), dtype=float)
    first = (psi * sample.r_norm * (1.0 - delta) - x * delta) / psi
    big_y = sample.r * np.asarray(mdl.shape_v.v(sample.t), dtype=float)

    kind = case.kind
    if kind in (CorollaryKind.FS, CorollaryKind.RATIO_C):
        vt_phi = float(np.asarray(_model._center_gap(mdl.shape_v.v, mdl.t0, np.array([phi])))[0])
        if vt_phi == 0.0:
            raise CaseMismatch("v_tilde(phi) = 0; the v-deficit scale is degenerate")
        second = (big_y - case.rho * x) / (x * vt_phi)
    elif kind == CorollaryKind.DELTA_GT_KAPPA:
        second = (big_y - case.rho * x) / psi
    else:  # SEIFERT and THETA_N; seifert's case has n = 1
        big_x = sample.r * np.asarray(mdl.shape_u.u(sample.t), dtype=float)
        second = (big_y / big_x - case.rho) / phi ** case.n
    return first, second

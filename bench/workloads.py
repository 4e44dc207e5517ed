"""The three benchmark workloads and the checks on their outputs.

Each workload is built once per run (models, references, exact limit
draws: untimed), then ``run_pass`` repeats its fixed list of operations,
times them and checks every output. A failed check or an exception is
recorded in ``record`` and the run goes on, so that failures show up in
the counts instead of aborting the benchmark.

All calls into polartail go through module attributes
(``montecarlo.sample_conditional``, not a name bound at import), so the
tracer in ``tracer.py`` sees them when it replaces those attributes.
"""

from __future__ import annotations

import math
import os
import random
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np
from scipy import stats as sp_stats

from polartail import asymptotics, cli, errors, model, montecarlo, oracle

import reference

README_CONFIG = {
    "radial.family": "exponential",
    "angular.halfwidth": 1.0,
    "shape_u.kappa": 2.0,
}
ASYM_CONFIG = {
    "radial.family": "exponential",
    "angular.halfwidth": 1.0,
    "shape_u.kappa_minus": 1.0,
    "shape_u.kappa_plus": 2.0,
}

RIGHT = model.Condition.RIGHT_SIDED
UNRESTRICTED = model.Condition.UNRESTRICTED


@dataclass
class Record:
    """Operations attempted and failed, and (workload, model, x, operation, error) per failure."""

    workload: str
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    @contextmanager
    def op(self):
        """Count one operation; it failed if ``fail`` was called inside the block."""
        before = len(self.failures)
        self.attempted += 1
        yield
        if len(self.failures) > before:
            self.failed += 1

    def fail(self, mdl: str, x, operation: str, error: str):
        self.failures.append((self.workload, mdl, x, operation, error))


@dataclass
class PassTimes:
    """One pass: the latency of each timed operation and the work it completed.

    Checks on the outputs are not timed.
    """

    ops_ms: list
    work: int = 0       # mc-deep: pairs accepted at workers=1; tail-sweep: evaluations
    work_s: float = 0.0  # time spent on that work
    extra: dict = field(default_factory=dict)

    @property
    def pass_s(self) -> float:
        return sum(self.ops_ms) / 1e3


def _error_text(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"[:200]


# ---------------------------------------------------------------------------
# verify-grid
# ---------------------------------------------------------------------------


class VerifyGrid:
    """``polartail verify`` on the README model, default grid and n, via ``cli.main``.

    The CSV must come out byte-identical on every pass of a run, which
    uses one seed throughout; that is why a run makes at least two passes.
    """

    name = "verify-grid"
    min_passes = 2
    ref_blocks = 3  # reference blocks between passes (hostspeed.py); a pass is ~30 s

    def __init__(self, seed: int, root: Path):
        self.record = Record(self.name)
        self.seed = seed
        self.config = root / "bench" / "readme_model.cfg"
        out_dir = root / "bench" / "out"
        out_dir.mkdir(exist_ok=True)
        self.out = out_dir / f"verify-{os.getpid()}.csv"
        self.first_csv = None

    def run_pass(self) -> PassTimes:
        argv = ["verify", "--config", str(self.config), "--seed", str(self.seed),
                "--out", str(self.out)]
        with self.record.op():
            t0 = perf_counter()
            try:
                code = cli.main(argv)
            except Exception as exc:  # a failed operation is counted, not fatal
                code = _error_text(exc)
            dt = perf_counter() - t0
            body = self.out.read_bytes() if self.out.exists() else b""
            self.out.unlink(missing_ok=True)
            if code != 0:
                self.record.fail("readme", "10,25,50,100", "cli.verify", f"exit code {code}")
            elif self.first_csv is None:
                self.first_csv = body
            elif body != self.first_csv:
                self.record.fail("readme", "10,25,50,100", "cli.verify",
                                 "CSV differs from the first pass with the same seed")
        return PassTimes(ops_ms=[dt * 1e3])


# ---------------------------------------------------------------------------
# mc-deep
# ---------------------------------------------------------------------------


class McDeep:
    """A ladder of rare-event Monte Carlo calls whose acceptance falls like phi(x).

    Rungs: right-sided ``sample_conditional`` on the README model at
    x = 1e2, 1e3, 1e4; unrestricted on the two-sided kappa = (1, 2) model
    at x = 1e3; a fixed-budget ``estimate_tail_probability`` at x = 100;
    all at workers=1. The x = 1e4 rung is then repeated at workers=nproc
    to check that the draws do not depend on the worker count. That call
    is left out of the pass time: on a shared 2-CPU machine its time
    swings by a third from pass to pass, several times more than the
    single-worker calls.
    """

    name = "mc-deep"
    min_passes = 1
    ref_blocks = 1
    n = 50_000
    estimate_x = 100.0
    estimate_proposals = 2 ** 22
    ks_limit = 0.03

    def __init__(self, seed: int, root: Path):
        self.record = Record(self.name)
        self.seed = seed
        self.workers = os.cpu_count() or 1
        readme = model.build_builtin_model(README_CONFIG)
        asym = model.build_builtin_model(ASYM_CONFIG)
        self.rungs = (
            ("readme", readme, RIGHT, 1e2),
            ("readme", readme, RIGHT, 1e3),
            ("readme", readme, RIGHT, 1e4),
            ("asym-k1-k2", asym, UNRESTRICTED, 1e3),
        )
        self.readme = readme
        self.quad = oracle.tail_probability_quadrature(readme, self.estimate_x, RIGHT).value
        # exact limit law of the README model (kappa = 2, tau = 0):
        # T^kappa ~ Gamma(1/2) and r = T^kappa + Exp(1)
        rng = np.random.default_rng(np.random.SeedSequence((seed, 77)))
        self.limit_r = rng.gamma(0.5, 1.0, self.n) + rng.exponential(1.0, self.n)

    def _check_sample(self, name, mdl, cond, x, s):
        if s.r.size != self.n or s.t.size != self.n:
            self.record.fail(name, x, "sample_conditional", f"returned {s.r.size} pairs, not {self.n}")
            return False
        ok = s.r * np.asarray(mdl.shape_u.u(s.t)) > x
        if cond == RIGHT:
            ok &= s.t > mdl.t0
        if not np.all(ok):
            self.record.fail(name, x, "sample_conditional",
                             f"{int(np.sum(~ok))} pairs miss the conditioning event")
            return False
        return True

    def _timed(self, name, x, operation, fn):
        """(result, seconds), or (None, None) after recording the exception."""
        t0 = perf_counter()
        try:
            result = fn()
        except Exception as exc:  # a failed operation is counted, not fatal
            self.record.fail(name, x, operation, _error_text(exc))
            return None, None
        return result, perf_counter() - t0

    def run_pass(self) -> PassTimes:
        ops_ms, extra = [], {}
        pairs, pairs_s = 0, 0.0
        samples, seconds = {}, {}
        for i, (name, mdl, cond, x) in enumerate(self.rungs):
            with self.record.op():
                s, dt = self._timed(name, x, "sample_conditional", lambda: montecarlo.sample_conditional(
                    mdl, x, self.n, cond, (self.seed, i), workers=1))
                if s is not None:
                    ops_ms.append(dt * 1e3)
                    pairs += s.n
                    pairs_s += dt
                    seconds[i] = dt
                    if self._check_sample(name, mdl, cond, x, s):
                        samples[i] = s

        x = self.estimate_x
        with self.record.op():
            est, dt = self._timed("readme", x, "estimate_tail_probability",
                                  lambda: montecarlo.estimate_tail_probability(
                                      self.readme, x, self.estimate_proposals, RIGHT,
                                      (self.seed, len(self.rungs)), workers=1))
            if est is not None:
                ops_ms.append(dt * 1e3)
                extra["proposals_per_s"] = self.estimate_proposals / dt
                p, se = est
                if not abs(p - self.quad) <= 5.0 * se:
                    self.record.fail("readme", x, "estimate_tail_probability",
                                     f"estimate {p:.6g} is {abs(p - self.quad) / se:.1f} SE "
                                     f"from quadrature {self.quad:.6g}")

        deep = 2
        name, mdl, cond, x = self.rungs[deep]
        operation = f"sample_conditional workers={self.workers}"
        with self.record.op():
            par, dt = self._timed(name, x, operation, lambda: montecarlo.sample_conditional(
                mdl, x, self.n, cond, (self.seed, deep), workers=self.workers))
            if par is not None:
                if self._check_sample(name, mdl, cond, x, par) and deep in samples:
                    one = samples[deep]
                    if par.r.tobytes() != one.r.tobytes() or par.t.tobytes() != one.t.tobytes():
                        self.record.fail(name, x, operation, "arrays differ from workers=1")
                    d = float(sp_stats.ks_2samp(one.r_norm, self.limit_r).statistic)
                    if d > self.ks_limit:
                        self.record.fail(name, x, operation, f"KS of r_norm against the "
                                         f"limit law {d:.4f} > {self.ks_limit}")
                    extra["parallel_speedup"] = seconds[deep] / dt
        return PassTimes(ops_ms=ops_ms, work=pairs, work_s=pairs_s, extra=extra)


# ---------------------------------------------------------------------------
# tail-sweep
# ---------------------------------------------------------------------------

SWEEP_MODELS = {
    "exp-k2": README_CONFIG,
    "exp-k1-k2": ASYM_CONFIG,
    "weibull-b2": {"radial.family": "weibull", "radial.beta": 2.0,
                   "angular.halfwidth": 1.0, "shape_u.kappa": 2.0},
    "weibull-b0.5": {"radial.family": "weibull", "radial.beta": 0.5,
                     "angular.halfwidth": 1.0, "shape_u.kappa": 2.0},
    "halfnormal-cos": {"radial.family": "half_normal", "angular.halfwidth": 1.0,
                       "shape_u.family": "cosine"},
    "sympower-t0.5": {"radial.family": "exponential", "angular.family": "symmetric_power",
                      "angular.tau": 0.5, "angular.halfwidth": 1.0, "shape_u.kappa": 2.0},
    "one-sided": {"radial.family": "exponential", "angular.halfwidth_minus": 0.0,
                  "angular.halfwidth_plus": 1.0, "shape_u.kappa": 2.0},
}
# half decades from 10 to 1e12
LADDER = tuple(10.0 ** (1 + k / 2) for k in range(23))
# polartail's quadrature asks for 1e-9 and its window root for a 1e-10
# residual; these leave three orders of magnitude of slack on top
_RTOL_WINDOW = 1e-7
_RTOL_TAIL = 1e-6
# below this Hbar(x) the unscaled tail probability is documented to underflow
_HBAR_FLOOR = 1e-250


@dataclass
class SweepCase:
    name: str
    mdl: model.PolarModel
    ref: reference.RefModel
    x: float
    cond: model.Condition
    reachable: bool
    windows: tuple
    scaled: float | None
    asym: float
    hbar: float


class TailSweep:
    """Deterministic sweep of 7 builtin models over the threshold ladder.

    One evaluation is (model, x, condition): ``compute_normalizers``, then
    ``tail_probability_quadrature``, ``scaled_tail_quadrature`` and
    ``tail_asymptotic(scaled=True)``. The seed only shuffles their order.
    """

    name = "tail-sweep"
    min_passes = 1
    ref_blocks = 1

    def __init__(self, seed: int, root: Path):
        self.record = Record(self.name)
        self.cases = []
        for name, config in SWEEP_MODELS.items():
            mdl = model.build_builtin_model(config)
            ref = reference.ref_model(config)
            conds = (RIGHT, UNRESTRICTED) if ref.two_sided else (RIGHT,)
            for x in LADDER:
                for cond in conds:
                    un = cond == UNRESTRICTED
                    self.cases.append(SweepCase(
                        name=name, mdl=mdl, ref=ref, x=x, cond=cond,
                        reachable=reference.reachable(ref, x),
                        windows=tuple(reference.window(ref, s, x) for s in reference.sides(ref, True)),
                        scaled=reference.scaled_tail(ref, x, un),
                        asym=reference.scaled_asymptotic(ref, x, un),
                        hbar=reference.survival(ref, x),
                    ))
        random.Random(seed).shuffle(self.cases)

    def _evaluate(self, c: SweepCase):
        out = {}
        calls = (
            ("compute_normalizers", lambda: asymptotics.compute_normalizers(c.mdl, c.x)),
            ("tail_probability_quadrature", lambda: oracle.tail_probability_quadrature(c.mdl, c.x, c.cond)),
            ("scaled_tail_quadrature", lambda: oracle.scaled_tail_quadrature(c.mdl, c.x, c.cond)),
            ("tail_asymptotic", lambda: asymptotics.tail_asymptotic(c.mdl, c.x, c.cond, scaled=True)),
        )
        for op, fn in calls:
            try:
                out[op] = fn()
            except Exception as exc:  # checked below, never fatal
                out[op] = exc
        return out

    def _problems(self, c: SweepCase, out: dict):
        """(operation, error) for every output that disagrees with the reference."""
        for op, value in out.items():
            if isinstance(value, Exception):
                typed = isinstance(value, errors.PolarTailError)
                # a typed error is the right answer where the reference itself
                # cannot be formed: a window beyond polartail's bracket, or a
                # tail that underflows
                excused = typed and (
                    (op in ("compute_normalizers", "tail_asymptotic") and not c.reachable)
                    or (op == "scaled_tail_quadrature" and c.scaled is None)
                    or (op == "tail_probability_quadrature"
                        and (c.scaled is None or c.hbar < _HBAR_FLOOR)))
                if not excused:
                    yield op, _error_text(value)
                continue
            if op == "compute_normalizers":
                got = (value.phi_plus,) + ((value.phi_minus,) if value.phi_minus is not None else ())
                for g, w in zip(got, c.windows):
                    if not abs(g - w) <= _RTOL_WINDOW * w:
                        yield op, f"window {g:.12g} != closed form {w:.12g}"
            elif op == "tail_asymptotic":
                if not abs(value - c.asym) <= _RTOL_TAIL * c.asym:
                    yield op, f"scaled asymptotic {value:.12g} != closed form {c.asym:.12g}"
            elif c.scaled is None:
                yield op, "returned a value where the reference cannot be formed"
            elif op == "scaled_tail_quadrature":
                if not abs(value.value - c.scaled) <= _RTOL_TAIL * c.scaled:
                    yield op, f"scaled tail {value.value:.12g} != scipy reference {c.scaled:.12g}"
            elif c.hbar >= _HBAR_FLOOR:
                got = value.value / c.hbar
                if not abs(got - c.scaled) <= _RTOL_TAIL * c.scaled:
                    yield op, f"tail / Hbar(x) {got:.12g} != scipy reference {c.scaled:.12g}"
            elif not (math.isfinite(value.value) and value.value >= 0.0):
                yield op, f"underflowing tail {value.value!r} is not a finite probability"

    def run_pass(self) -> PassTimes:
        ops_ms = []
        for c in self.cases:
            t0 = perf_counter()
            out = self._evaluate(c)
            ops_ms.append((perf_counter() - t0) * 1e3)
            with self.record.op():
                for op, err in self._problems(c, out):
                    self.record.fail(f"{c.name}/{c.cond.value}", c.x, op, err)
        return PassTimes(ops_ms=ops_ms, work=len(self.cases), work_s=sum(ops_ms) / 1e3)


WORKLOADS = {w.name: w for w in (VerifyGrid, McDeep, TailSweep)}

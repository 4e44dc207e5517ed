"""Spans around polartail's public functions, recorded from outside the program.

Entering a ``Tracer`` replaces every public function listed in a module's
``__all__`` (``main`` for ``cli``, which has no ``__all__``) by a wrapper
that times the call; leaving it puts the originals back. Because
polartail calls across modules through module attributes
(``_oracle.adaptive_quadrature``) and within a module through its globals,
the wrappers see those calls too.

Each call becomes a span (name, start, end, parent, run id). Self time is
a span's duration minus the time its child spans cover. Functions that
run tens of thousands of times per pass (the nested quadrature and limit
density inside ``stats.cell_masses``) are only aggregated as count,
total and self time. Wrapped functions must be called from one thread;
polartail's worker threads run only private helpers.
"""

from __future__ import annotations

import inspect
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter

AGGREGATED = frozenset({
    "oracle.adaptive_quadrature",
    "limitlaw.density_one_sided",
    "limitlaw.density_two_sided",
})


@dataclass
class FnStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    def __init__(self, modules, run_id: str):
        self.modules = modules
        self.run_id = run_id
        self.spans = []                      # (name, start, end, parent index, run id)
        self.fn = defaultdict(FnStats)
        self.counts = defaultdict(int)       # exact work counts
        self.maxima = defaultdict(float)     # worst error estimates
        self._stack = []                     # [nearest span index, child seconds]
        self._originals = []

    def __enter__(self):
        for mod in self.modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr in getattr(mod, "__all__", ["main"]):
                fn = getattr(mod, attr)
                if inspect.isfunction(fn):
                    self._originals.append((mod, attr, fn))
                    setattr(mod, attr, self._wrap(f"{short}.{attr}", fn))
        return self

    def __exit__(self, *exc):
        for mod, attr, fn in reversed(self._originals):
            setattr(mod, attr, fn)
        self._originals.clear()

    def _wrap(self, name, fn):
        keep_span = name not in AGGREGATED
        observe = _OBSERVERS.get(name)

        def wrapper(*args, **kwargs):
            stack = self._stack
            # an aggregated call passes its nearest recorded ancestor on as parent
            parent = stack[-1][0] if stack else None
            index = len(self.spans) if keep_span else parent
            if keep_span:
                self.spans.append(None)
            frame = [index, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                st = self.fn[name]
                st.calls += 1
                st.total_s += duration
                st.self_s += duration - frame[1]
                if keep_span:
                    self.spans[index] = (name, start, end, parent, self.run_id)
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper


def _observe_sample(tracer, args, kwargs, result):
    tracer.counts["montecarlo.proposals"] += result.acceptance.proposals
    tracer.counts["montecarlo.accepted"] += result.acceptance.accepted


def _observe_estimate(tracer, args, kwargs, result):
    n = args[2] if len(args) > 2 else kwargs["n_proposals"]
    tracer.counts["montecarlo.estimate.proposals"] += n


def _observe_quadrature(tracer, args, kwargs, result):
    tracer.counts["oracle.quadrature.evals"] += result.evaluations
    if result.value != 0.0:
        rel = result.abs_error_estimate / abs(result.value)
        tracer.maxima["oracle.quadrature.err_max"] = max(tracer.maxima["oracle.quadrature.err_max"], rel)


def _observe_phi(tracer, args, kwargs, result):
    tracer.maxima["asymptotics.phi_residual_max"] = max(
        tracer.maxima["asymptotics.phi_residual_max"], result.residual)


_OBSERVERS = {
    "montecarlo.sample_conditional": _observe_sample,
    "montecarlo.estimate_tail_probability": _observe_estimate,
    "oracle.adaptive_quadrature": _observe_quadrature,
    "asymptotics.compute_phi": _observe_phi,
}

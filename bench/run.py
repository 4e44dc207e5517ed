"""polartail benchmark: one workload per run, or every workload with --all.

    python3 bench/run.py --workload verify-grid --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --all --seed 1 --seconds 15 [--trace 1]

Run from the root of a source checkout; polartail is imported from its
``src/``. A run makes its inputs from ``--seed``, repeats passes of the
workload until ``--seconds`` have elapsed (at least the workload's
minimum number of passes), checks every output, and prints as its last
line one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the end-to-end ones in
BENCHMARK.json, measured untraced; with ``--trace 1`` they are the
per-layer ones, from passes with the tracer installed, alternating with
untraced passes so the tracing overhead can be reported. The lines before
the last one record the environment, the metrics under the names the
benchmark note uses, and every failing (workload, model, x, operation,
error) tuple.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("verify-grid", "mc-deep", "tail-sweep")
SETUP_REPEATS = 5

# fresh-process set-up: import, build the README model, validate it
SETUP_CODE = """
import polartail
m = polartail.build_builtin_model(
    {"radial.family": "exponential", "angular.halfwidth": 1.0, "shape_u.kappa": 2.0})
raise SystemExit(0 if polartail.validate_model(m).passed else 1)
"""

# per-layer metric -> traced functions whose self time it sums
SELF_S = {
    "cli.verify.self_s": ("cli.main",),
    "stats.convergence_report.self_s": ("stats.convergence_report",),
    "stats.cell_masses.self_s": ("stats.cell_masses",),
    "stats.chi_square.self_s": ("stats.chi_square_2d",),
    "stats.ks.self_s": ("stats.ks_two_sample", "stats.ks_one_sample"),
    "limitlaw.sample.self_s": ("limitlaw.sample_one_sided", "limitlaw.sample_two_sided"),
    "limitlaw.density.self_s": ("limitlaw.density_one_sided", "limitlaw.density_two_sided"),
    "montecarlo.sample_conditional.self_s": ("montecarlo.sample_conditional",),
    "montecarlo.estimate.self_s": ("montecarlo.estimate_tail_probability",),
    "asymptotics.compute_phi.self_s": ("asymptotics.compute_phi",),
    "asymptotics.tail_asymptotic.self_s": ("asymptotics.tail_asymptotic",),
    "oracle.tail_quadrature.self_s": ("oracle.tail_probability_quadrature",
                                      "oracle.scaled_tail_quadrature"),
    "oracle.quadrature.self_s": ("oracle.adaptive_quadrature",),
}
CALLS = {
    "limitlaw.density.calls": ("limitlaw.density_one_sided", "limitlaw.density_two_sided"),
    "asymptotics.compute_phi.calls": ("asymptotics.compute_phi",),
    "oracle.quadrature.calls": ("oracle.adaptive_quadrature",),
}
COUNTS = ("montecarlo.proposals", "montecarlo.accepted",
          "montecarlo.estimate.proposals", "oracle.quadrature.evals")
MAXIMA = ("asymptotics.phi_residual_max", "oracle.quadrature.err_max")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=WORKLOAD_NAMES)
    which.add_argument("--all", action="store_true", help="run every workload, one process each")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _commit() -> str:
    """HEAD of the checkout's git directory, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment() -> dict:
    import numpy
    import scipy
    return {"commit": _commit(), "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "machine": platform.machine()}


def _p90(values) -> float:
    import numpy
    return float(numpy.percentile(values, 90))


def _setup_seconds():
    """Wall times of the fresh-process set-ups and the reference blocks around them."""
    import hostspeed
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times, blocks = [], [hostspeed.block_seconds()]
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                              capture_output=True, timeout=120)
        times.append(perf_counter() - t0)
        if done.returncode != 0:
            raise RuntimeError(f"set-up failed: {done.stderr.decode()[-500:]}")
        blocks.append(hostspeed.block_seconds())
    return times, blocks


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _end_to_end(wl, passes, blocks, setup, setup_blocks):
    """Gated metrics, with times rescaled to nominal host speed, and the named ones as measured."""
    import hostspeed
    ops = [ms for p in passes for ms in p.ops_ms]
    rec = wl.record
    pass_s = [p.pass_s for p in passes]
    metrics = {
        "setup_s": _metric(statistics.median(hostspeed.rescale(setup, setup_blocks)), "s"),
        "pass_s": _metric(statistics.median(hostspeed.rescale(pass_s, blocks)), "s"),
        "ok_frac": _metric(1.0 - rec.failed / rec.attempted, "frac"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    rate = _metric(sum(p.work for p in passes) / (sum(p.work_s for p in passes) or math.inf), "1/s")
    named = {"setup_wall_s": _metric(statistics.median(setup), "s"),
             "pass_wall_s": _metric(statistics.median(pass_s), "s"),
             "host_block_s": _metric(statistics.median(blocks + setup_blocks), "s"),
             "failed_frac": _metric(rec.failed / rec.attempted, "frac")}
    if wl.name == "verify-grid":
        named["verify_s"] = named["pass_wall_s"]
    elif wl.name == "mc-deep":
        named["pairs_per_s"] = rate
        rates = [p.extra["proposals_per_s"] for p in passes if "proposals_per_s" in p.extra]
        named["proposals_per_s"] = _metric(statistics.median(rates) if rates else 0.0, "1/s")
    else:
        named["evals_per_s"] = rate
        named["eval_p90_ms"] = _metric(_p90(ops), "ms")
    return metrics, named, {"op_samples": len(ops), "passes": len(passes)}


def _work(tracer) -> dict:
    """Exact work counts of one traced pass."""
    return {**{n: s.calls for n, s in tracer.fn.items()}, **tracer.counts}


def _per_layer(tracers, untraced, traced, extra_passes):
    """Per-pass means of traced times; work counts from the first traced pass."""
    k = len(tracers)

    def fn_sum(names, field):
        return sum(getattr(t.fn[n], field) for t in tracers for n in names if n in t.fn)

    first = tracers[0]
    m = {name: _metric(fn_sum(fns, "self_s") / k, "s") for name, fns in SELF_S.items()}
    m.update({name: _metric(sum(first.fn[n].calls for n in fns if n in first.fn), "count")
              for name, fns in CALLS.items()})
    m.update({name: _metric(first.counts.get(name, 0), "count") for name in COUNTS})
    m.update({name: _metric(max(t.maxima.get(name, 0.0) for t in tracers), "1")
              for name in MAXIMA})
    proposals = first.counts.get("montecarlo.proposals", 0)
    accepted = first.counts.get("montecarlo.accepted", 0)
    sample_s = first.fn["montecarlo.sample_conditional"].total_s if proposals else 0.0
    m["montecarlo.acceptance_rate"] = _metric(accepted / proposals if proposals else 0.0, "1")
    m["montecarlo.proposals_per_s"] = _metric(proposals / sample_s if proposals else 0.0, "1/s")
    speedups = [p.extra["parallel_speedup"] for p in extra_passes if "parallel_speedup" in p.extra]
    m["montecarlo.parallel_speedup"] = _metric(statistics.median(speedups) if speedups else 0.0, "1")
    m["model.validate_s"] = _metric(fn_sum(("model.validate_model",), "total_s") / k, "s")
    m["trace.overhead_s"] = _metric(statistics.median(traced) - statistics.median(untraced), "s")
    return m


def _write_spans(tracer, workload, seed):
    out = BENCH_DIR / "out"
    out.mkdir(exist_ok=True)
    with open(out / f"spans-{workload}-{seed}.jsonl", "w", encoding="utf-8") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(span) + "\n")


def run_one(args) -> int:
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import polartail
    if Path(polartail.__file__).resolve().parent != (SRC / "polartail").resolve():
        print(f"polartail imported from {polartail.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from polartail import asymptotics, cli, limitlaw, model, montecarlo, oracle, stats
    import hostspeed
    import tracer as tracing
    import workloads

    setup, setup_blocks = _setup_seconds() if args.trace == 0 else ([], [])
    wl = workloads.WORKLOADS[args.workload](args.seed, ROOT)
    modules = (model, asymptotics, oracle, montecarlo, limitlaw, stats, cli)

    passes, untraced, traced, tracers = [], [], [], []
    # untraced passes are bracketed by reference blocks, which track host speed
    blocks = [] if args.trace else [hostspeed.block_seconds(wl.ref_blocks)]
    start = perf_counter()
    while len(untraced) + len(traced) < wl.min_passes or perf_counter() - start < args.seconds:
        p = wl.run_pass()
        passes.append(p)
        untraced.append(p.pass_s)
        if not args.trace:
            blocks.append(hostspeed.block_seconds(wl.ref_blocks))
        else:
            tracer = tracing.Tracer(modules, run_id=f"{args.workload}/{args.seed}/{len(tracers)}")
            with tracer:
                model.validate_model(model.build_builtin_model(workloads.README_CONFIG))
                traced.append(wl.run_pass().pass_s)
            tracers.append(tracer)
            with wl.record.op():
                if _work(tracer) != _work(tracers[0]):
                    wl.record.fail("-", "-", "trace", "work counts differ between same-seed passes")

    rec = wl.record
    failures = list(dict.fromkeys(rec.failures))
    info = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
            "environment": _environment(), "failures": len(failures)}
    if args.trace:
        metrics = _per_layer(tracers, untraced, traced, passes)
        info.update(spans=len(tracers[0].spans), passes=len(passes) + len(tracers))
        _write_spans(tracers[0], wl.name, args.seed)
    else:
        metrics, named, samples = _end_to_end(wl, passes, blocks, setup, setup_blocks)
        info.update(named=named, **samples)
    for f in failures:
        print("# fail " + json.dumps(f))
    print("# info " + json.dumps(info))
    # every output was checked; the ones that were wrong or raised are in "failed"
    print(json.dumps({"correct": True, "attempted": rec.attempted, "failed": rec.failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, then every metric by name with its unit."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print(f"{name}: exit code {done.returncode}\n{done.stderr[-2000:]}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        info = json.loads(lines[-2][len("# info "):])
        print(f"== {name}  seed {args.seed}  attempted {result['attempted']}  "
              f"failed {result['failed']}  passes {info.get('passes', '-')}  "
              f"op_samples {info.get('op_samples', '-')}  "
              f"environment {json.dumps(info['environment'])}")
        shown = dict(info.get("named", {}), **result["metrics"])
        for metric, v in shown.items():
            print(f"  {metric:40s} {v['value']:>16.6g} {v['unit']}")
        for line in lines[:-2]:
            print("  " + line)
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "polartail" / "__init__.py").is_file():
        print(f"no polartail sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    return run_all(args) if args.all else run_one(args)


if __name__ == "__main__":
    sys.exit(main())

"""Tests of the benchmark itself: python3 -m pytest bench -q

They check the tracer's self-time arithmetic, that work counts of traced
passes repeat exactly for one seed, that the scipy reference matches
closed forms, the host-speed rescaling, and that the benchmark refuses
to run without the sources.
"""

import json
import math
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import hostspeed  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from polartail import asymptotics, cli, limitlaw, model, montecarlo, oracle, stats  # noqa: E402

MODULES = (model, asymptotics, oracle, montecarlo, limitlaw, stats, cli)


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def _fake_module():
    mod = types.ModuleType("pkg.fake")
    mod.__all__ = ["outer", "inner", "Klass"]

    def inner():
        _busy(0.02)

    def outer():
        _busy(0.01)
        mod.inner()
        mod.inner()

    mod.inner, mod.outer, mod.Klass = inner, outer, type("Klass", (), {})
    return mod


def test_self_time_excludes_children_and_exit_restores():
    mod = _fake_module()
    originals = (mod.outer, mod.inner, mod.Klass)
    with tracing.Tracer([mod], run_id="t") as tr:
        mod.outer()
    assert (mod.outer, mod.inner, mod.Klass) == originals
    outer, inner = tr.fn["fake.outer"], tr.fn["fake.inner"]
    assert (outer.calls, inner.calls) == (1, 2)
    assert outer.self_s == pytest.approx(outer.total_s - inner.total_s, abs=1e-9)
    assert 0.009 < outer.self_s < 0.02
    names = [s[0] for s in tr.spans]
    assert names == ["fake.outer", "fake.inner", "fake.inner"]
    assert [s[3] for s in tr.spans] == [None, 0, 0]
    assert all(s[4] == "t" for s in tr.spans)


def _traced_work(workload_cls, seed):
    wl = workload_cls(seed, BENCH.parent)
    with tracing.Tracer(MODULES, run_id="test") as tr:
        wl.run_pass()
    return run._work(tr), wl.record


@pytest.mark.parametrize("workload_cls", [workloads.McDeep, workloads.TailSweep])
def test_work_counts_repeat_exactly_for_one_seed(workload_cls):
    first, rec = _traced_work(workload_cls, 3)
    second, _ = _traced_work(workload_cls, 3)
    assert first == second
    assert rec.attempted > 0
    if workload_cls is workloads.McDeep:
        assert first["montecarlo.proposals"] > first["montecarlo.accepted"] >= 4 * workloads.McDeep.n
        assert first["montecarlo.estimate.proposals"] == workloads.McDeep.estimate_proposals
        assert rec.failed == 0
    else:
        assert first["oracle.quadrature.evals"] > 0
        assert first["asymptotics.compute_phi"] > 0


def test_reference_closed_forms():
    m = reference.ref_model(workloads.README_CONFIG)
    for x in (1e2, 1e6, 1e12):
        assert reference.window(m, 1, x) == pytest.approx(x ** -0.5, rel=1e-14)
    # P{X > x | R > x} -> sqrt(pi) / (4 sqrt(x)) for the README model
    x = 1e8
    assert reference.scaled_tail(m, x, False) == pytest.approx(
        math.sqrt(math.pi) / (4 * math.sqrt(x)), rel=1e-6)
    assert reference.scaled_tail(m, x, True) == pytest.approx(
        2 * reference.scaled_tail(m, x, False), rel=1e-10)
    cos = reference.ref_model(workloads.SWEEP_MODELS["halfnormal-cos"])
    phi = reference.window(cos, 1, 1e3)
    assert 1 - math.cos(phi) == pytest.approx(reference.psi(cos, 1e3) / 1e3, rel=1e-9)


def test_reference_agrees_with_polartail_at_moderate_x():
    for name, config in workloads.SWEEP_MODELS.items():
        m = reference.ref_model(config)
        mdl = model.build_builtin_model(config)
        got = oracle.scaled_tail_quadrature(mdl, 100.0, workloads.RIGHT).value
        assert reference.scaled_tail(m, 100.0, False) == pytest.approx(got, rel=1e-7), name


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    rec = workloads.Record("tail-sweep", attempted=1)
    wl = types.SimpleNamespace(name="tail-sweep", record=rec)
    passes = [workloads.PassTimes(ops_ms=[1.0], work=1, work_s=1.0)]
    e2e, _, _ = run._end_to_end(wl, passes, [0.25, 0.25], [0.5], [0.25, 0.25])
    layer = run._per_layer([tracing.Tracer([], "t")], [1.0], [1.1], passes)
    for got, key in ((e2e, "end_to_end"), (layer, "per_layer")):
        assert {k: v["unit"] for k, v in got.items()} == {m["name"]: m["unit"] for m in spec[key]}


def test_rescale_divides_by_the_blocks_around_each_time():
    # nominal block 0.25 s; both passes sit between blocks averaging 0.375 s
    got = hostspeed.rescale([1.0, 2.0], [0.25, 0.5, 0.25])
    assert got == pytest.approx([1.0 / 1.5, 2.0 / 1.5])
    with pytest.raises(ValueError):
        hostspeed.rescale([1.0], [0.25])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mc-deep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""

"""The per-threshold record of a model: ``PolarModel.threshold`` and ``ThresholdFacts``."""

import dataclasses
import sys
import threading

import numpy as np
import pytest

from polartail import (
    BracketError,
    Condition,
    QuadratureResult,
    build_builtin_model,
    compute_normalizers,
    compute_phi,
    oracle,
    scaled_tail_quadrature,
    tail_asymptotic,
    tail_probability_quadrature,
)

from conftest import F1_CONFIG, tail_sweep


def _bits(value):
    """A value with every float as its hex string and an error as its type and message."""
    if isinstance(value, Exception):
        return type(value), str(value)
    if dataclasses.is_dataclass(value):
        return tuple(_bits(v) for v in dataclasses.astuple(value))
    if isinstance(value, tuple):
        return tuple(_bits(v) for v in value)
    return float(value).hex() if isinstance(value, float) else value


def _sweep_outputs(model, x, cond):
    """The four calls of one tail-sweep case, each on the model ``model()``
    returns, each output or the error it raised."""
    calls = (
        lambda mdl: compute_normalizers(mdl, x),
        lambda mdl: tail_probability_quadrature(mdl, x, cond),
        lambda mdl: scaled_tail_quadrature(mdl, x, cond),
        lambda mdl: tail_asymptotic(mdl, x, cond, scaled=True),
    )
    out = []
    for call in calls:
        try:
            out.append(_bits(call(model())))
        except Exception as exc:  # noqa: BLE001 - a typed error is an output to compare
            out.append(_bits(exc))
    return out


def test_one_model_gives_the_outputs_of_fresh_models_over_the_tail_sweep():
    models, ladder = tail_sweep()
    cases = 0
    for config in models.values():
        mdl = build_builtin_model(config)
        conds = Condition if len(mdl.sides(Condition.UNRESTRICTED)) == 2 else (Condition.RIGHT_SIDED,)
        for x in ladder:
            for cond in conds:
                cases += 1
                fresh = _sweep_outputs(lambda: build_builtin_model(config), x, cond)
                assert _sweep_outputs(lambda: mdl, x, cond) == fresh, (config, x, cond)
    assert cases == 299


def _scaled_tail_without_record(mdl, x, cond):
    """``scaled_tail_quadrature`` as a loop over the sides that keeps nothing:
    the level rule of every side in one pass, the adaptive integral where it misses."""
    value = error = 0.0
    evaluations = 0
    sides = mdl.sides(cond)
    for facts, res in zip(sides, oracle._level_rules(mdl, x, sides)):
        if not res.converged:
            evaluations += res.evaluations
            res = oracle._side_integral(mdl, x, facts)
        value += res.value
        error += res.abs_error_estimate
        evaluations += res.evaluations
    return QuadratureResult(value, error, evaluations, True)


@pytest.mark.parametrize("x", [0.1, 0.5, 1.0, 2.0])
def test_one_model_gives_the_outputs_of_fresh_models_where_the_level_rule_falls_back(x):
    # at x of order 1 and below the level rule misses on most sweep models,
    # the sides take the adaptive integral and many windows raise
    models, _ = tail_sweep()
    for config in models.values():
        mdl = build_builtin_model(config)
        for cond in (Condition.RIGHT_SIDED, Condition.UNRESTRICTED, Condition.RIGHT_SIDED):
            fresh = _sweep_outputs(lambda: build_builtin_model(config), x, cond)
            assert _sweep_outputs(lambda: mdl, x, cond) == fresh, (config, x, cond)
            reference = _scaled_tail_without_record(build_builtin_model(config), x, cond)
            assert fresh[2] == _bits(reference), (config, x, cond)


def _counting_readme_model():
    """The README model with its window inverse and its overshoot counted.

    A window solve inverts the deficit at one target, the level rule at
    its 56 nodes; a level-rule pass forms the overshoot once per level
    grid, and the README model's two sides share theirs.
    """
    mdl = build_builtin_model(F1_CONFIG)
    su, radial = mdl.shape_u, mdl.radial
    counts = {"solves": 0, "passes": 0}

    def deficit_inverse(side, d):
        counts["solves"] += np.size(d) == 1
        return su.deficit_inverse(side, d)

    def overshoot(x, e):
        counts["passes"] += 1
        return radial.exact_overshoot(x, e)

    return dataclasses.replace(
        mdl, shape_u=dataclasses.replace(su, deficit_inverse=deficit_inverse),
        radial=dataclasses.replace(radial, exact_overshoot=overshoot)), counts


def test_one_window_solve_per_side_and_one_level_rule_pass_per_threshold():
    mdl, counts = _counting_readme_model()
    for x in (10.0, 1e3, 10.0):
        counts.update(solves=0, passes=0)
        for cond in (Condition.UNRESTRICTED, Condition.RIGHT_SIDED):
            compute_normalizers(mdl, x)
            tail_probability_quadrature(mdl, x, cond)
            scaled_tail_quadrature(mdl, x, cond)
            tail_asymptotic(mdl, x, cond)
            tail_asymptotic(mdl, x, cond, scaled=True)
        assert counts == {"solves": 2, "passes": 1}, x
    # a new model starts with no record
    counts.update(solves=0, passes=0)
    copy = dataclasses.replace(mdl)
    compute_normalizers(copy, 10.0)
    scaled_tail_quadrature(copy, 10.0, Condition.UNRESTRICTED)
    assert counts == {"solves": 2, "passes": 1}


def test_the_model_holds_the_record_of_the_last_threshold():
    mdl = build_builtin_model(F1_CONFIG)
    record = mdl.threshold(10.0)
    assert mdl.threshold(10.0) is record
    compute_phi(mdl, 10.0)
    scaled_tail_quadrature(mdl, 10.0, Condition.RIGHT_SIDED)
    assert set(record.windows) == set(record.terms) == {1}
    assert mdl.threshold(np.nextafter(10.0, 11.0)) is not record
    assert mdl.threshold(10.0) is not record and not mdl.threshold(10.0).windows
    assert mdl.threshold(-0.0) is not mdl.threshold(0.0)
    assert dataclasses.replace(mdl).threshold(0.0) is not mdl.threshold(0.0)


def test_a_window_that_raises_is_solved_again_on_the_next_read():
    radial = build_builtin_model(F1_CONFIG).radial
    calls = []

    def aux_psi(x):
        calls.append(x)
        return radial.aux_psi(x)

    mdl = dataclasses.replace(build_builtin_model(F1_CONFIG),
                              radial=dataclasses.replace(radial, aux_psi=aux_psi))
    # psi(x) / x = 2 lies beyond the bracket's deficit 1/4
    for _ in range(2):
        with pytest.raises(BracketError):
            compute_phi(mdl, 0.5)
    assert calls == [0.5, 0.5]
    assert not mdl.threshold(0.5).windows


def test_threads_that_alternate_thresholds_get_the_serial_values():
    xs = (10.0, 1e3, 1e6)
    conds = tuple(Condition)

    def outputs(mdl, x):
        return [(_bits(compute_normalizers(mdl, x)), _bits(scaled_tail_quadrature(mdl, x, cond)),
                 tail_asymptotic(mdl, x, cond, scaled=True).hex()) for cond in conds]

    serial = {x: outputs(build_builtin_model(F1_CONFIG), x) for x in xs}
    shared = build_builtin_model(F1_CONFIG)
    wrong, done = [], []

    def worker(offset):
        for k in range(150):
            x = xs[(k + offset) % len(xs)]
            if outputs(shared, x) != serial[x]:
                wrong.append(x)
        done.append(offset)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(done) == [0, 1, 2, 3] and not wrong

"""Command line interface: exit codes, CSV shape, determinism, and cold start."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from polartail import (
    Condition,
    ConfigError,
    bivariate_normalized,
    build_builtin_model,
    density,
    limit_law,
    sample_conditional,
    validate_model,
)
from polartail.cli import _case_from_model, main

from conftest import F1_CONFIG, TIED_CONFIG

F1_TEXT = """\
# benchmark model
radial.family = exponential
angular.halfwidth = 1.0
shape_u.kappa = 2.0
"""


@pytest.fixture
def f1_cfg(tmp_path):
    p = tmp_path / "f1.cfg"
    p.write_text(F1_TEXT)
    return str(p)


def _lines(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_validate_passes_and_emits_csv(f1_cfg, capsys):
    code = main(["validate", "--config", f1_cfg])
    out = capsys.readouterr()
    assert code == 0
    assert "# command = validate" in out.out
    assert "check,status,measured,expected,margin,detail" in out.out
    assert "radial.gamma_psi_ratio,pass" in out.out
    assert "PASS" in out.err


def test_validate_fails_on_bad_model(tmp_path, capsys):
    p = tmp_path / "wide.cfg"
    # cosine u over two full periods keeps returning to 1 away from the
    # center, which the validator must flag
    p.write_text(
        "radial.family = exponential\n"
        "angular.halfwidth = 12.566370614359172\n"
        "shape_u.family = cosine\n"
    )
    code = main(["validate", "--config", str(p)])
    out = capsys.readouterr()
    assert code == 1
    assert "FAIL" in out.err


def test_missing_config_key_is_usage_error(tmp_path, capsys):
    p = tmp_path / "broken.cfg"
    p.write_text("angular.halfwidth = 1.0\n")
    code = main(["validate", "--config", str(p)])
    out = capsys.readouterr()
    assert code == 2
    assert "radial.family" in out.err


def test_unreadable_config_is_usage_error(tmp_path, capsys):
    code = main(["validate", "--config", str(tmp_path / "missing.cfg")])
    capsys.readouterr()
    assert code == 2


def test_phi_outputs_both_sides(f1_cfg, capsys):
    code = main(["phi", "--config", f1_cfg, "--x", "100"])
    out = capsys.readouterr().out
    assert code == 0
    rows = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert rows[0] == "x,side,phi,residual,psi,psi_over_x"
    assert len(rows) == 3
    for row, side in zip(rows[1:], "-+"):
        x, got_side, phi = row.split(",")[:3]
        assert (x, got_side) == ("100", side)
        assert abs(float(phi) - 0.1) <= 1e-12 * 0.1


def test_tailprob_infeasible_threshold_is_numeric_error(f1_cfg, capsys):
    code = main(["tailprob", "--config", f1_cfg, "--x", "2", "--method", "asym"])
    out = capsys.readouterr()
    assert code == 3
    assert "numeric error" in out.err


def test_tailprob_quad_and_asym_agree_at_large_x(f1_cfg, capsys):
    code = main(
        ["tailprob", "--config", f1_cfg, "--x-grid", "50,100", "--method", "quad"]
    )
    quad_out = capsys.readouterr().out
    assert code == 0
    code = main(
        ["tailprob", "--config", f1_cfg, "--x-grid", "50,100", "--method", "asym"]
    )
    asym_out = capsys.readouterr().out
    assert code == 0

    def values(text):
        rows = [l for l in text.splitlines() if l and not l.startswith("#")]
        assert rows[0] == "x,value"
        return [float(r.split(",")[1]) for r in rows[1:]]

    for q, a in zip(values(quad_out), values(asym_out)):
        assert abs(q / a - 1.0) < 0.05


def test_tailprob_mc_requires_seed(f1_cfg, capsys):
    code = main(["tailprob", "--config", f1_cfg, "--x", "10", "--method", "mc"])
    out = capsys.readouterr()
    assert code == 2
    assert "--seed" in out.err


def test_tailprob_mc_refuses_nan_x(f1_cfg, capsys):
    code = main(["tailprob", "--config", f1_cfg, "--x", "nan", "--method", "mc", "--seed", "1",
                 "--n", "1000"])
    out = capsys.readouterr()
    assert code == 2
    assert "x must be >= 0" in out.err


def test_x_and_x_grid_are_mutually_exclusive(f1_cfg, capsys):
    code = main(
        ["tailprob", "--config", f1_cfg, "--x", "10", "--x-grid", "10,20"]
    )
    capsys.readouterr()
    assert code == 2


def test_x_grid_without_numbers_is_usage_error(f1_cfg, tmp_path, capsys):
    out = tmp_path / "phi.csv"
    code = main(["phi", "--config", f1_cfg, "--x-grid", ",", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert "--x-grid" in err
    assert not out.exists()


def test_simulate_rejects_x_grid(f1_cfg, tmp_path, capsys):
    # simulate draws at one threshold, so it takes no --x-grid
    out = tmp_path / "sim.csv"
    code = main(["simulate", "--config", f1_cfg, "--x", "10", "--x-grid", "50,100",
                 "--n", "10", "--seed", "1", "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert "--x-grid" in err
    assert not out.exists()


def test_simulate_deterministic_across_runs_and_workers(f1_cfg, tmp_path):
    args = ["simulate", "--config", f1_cfg, "--x", "50", "--n", "2000",
            "--seed", "11"]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    c = tmp_path / "c.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert main(args + ["--workers", "4", "--out", str(c)]) == 0
    assert _lines(a) == _lines(b)
    assert _lines(a) == _lines(c)
    head = _lines(a).decode().splitlines()
    assert "# command = simulate" in head
    assert any(l.startswith("# config_hash = ") for l in head)
    assert any(l.startswith("# seed = 11") for l in head)
    assert "R,T,r_norm,t_norm" in head


def test_simulate_metadata_explains_the_acceptance_rate(f1_cfg, tmp_path):
    out = tmp_path / "sim.csv"
    assert main(["simulate", "--config", f1_cfg, "--x", "50", "--n", "2000",
                 "--seed", "11", "--out", str(out)]) == 0
    meta = dict(l[2:].split(" = ", 1) for l in out.read_text().splitlines()
                if l.startswith("# "))
    proposals = int(meta["proposals"])
    mass = float(meta["proposal_mass"])
    rate = float(meta["acceptance_rate"])
    assert proposals >= 2000
    assert 0.0 < mass < 1.0
    # acceptance_rate = proposal_mass * accepted / proposals, accepted >= n
    assert rate >= mass * 2000 / proposals


@pytest.mark.parametrize("extra, kind, n_phi", [
    ("angular.halfwidth_minus = 0\n", "phi_plus", 1),
    ("", "phi_sign", 2),
])
def test_simulate_unrestricted_scale_follows_the_sides(tmp_path, extra, kind, n_phi):
    # a one-sided model has no minus window to scale by, whatever the condition
    cfg = tmp_path / "model.cfg"
    cfg.write_text(F1_TEXT + extra)
    out = tmp_path / "sim.csv"
    assert main(["simulate", "--config", str(cfg), "--x", "100", "--n", "200", "--seed", "7",
                 "--condition", "unrestricted", "--out", str(out)]) == 0
    meta = dict(l[2:].split(" = ", 1) for l in out.read_text().splitlines()
                if l.startswith("# "))
    assert meta["scale_kind"] == kind
    assert len(meta["phi_used"].split(",")) == n_phi


def test_verify_beyond_survival_underflow_keeps_a_finite_tail_ratio(f1_cfg, tmp_path, capsys):
    # Hbar(x) = e^-x underflows to 0 from x ~ 745 on; the ratio of the
    # scaled forms stays finite there
    out = tmp_path / "verify.csv"
    code = main(["verify", "--config", f1_cfg, "--seed", "5", "--n", "2000",
                 "--x-grid", "700,800", "--out", str(out)])
    capsys.readouterr()
    assert code in (0, 1)
    rows = [l.split(",") for l in out.read_text().splitlines()
            if l and not l.startswith("#")]
    assert rows[0][-1] == "tail_ratio"
    ratios = [float(r[-1]) for r in rows[1:]]
    assert ratios == [pytest.approx(0.99893, abs=1e-5), pytest.approx(0.99906, abs=1e-5)]


def test_simulate_missing_seed_is_usage_error(f1_cfg, capsys):
    code = main(["simulate", "--config", f1_cfg, "--x", "50", "--n", "100"])
    out = capsys.readouterr()
    assert code == 2
    assert "--seed" in out.err


def test_negative_seed_is_usage_error(f1_cfg, capsys):
    code = main(["simulate", "--config", f1_cfg, "--x", "50", "--n", "5", "--seed", "-1"])
    out = capsys.readouterr()
    assert code == 2
    assert "nonnegative" in out.err
    assert out.out == ""


@pytest.mark.parametrize("command", [
    ["simulate", "--x", "50", "--seed", "1"],
    ["limit-sample", "--seed", "1"],
    ["tailprob", "--method", "mc", "--x", "10", "--seed", "1"],
    ["density"],
    ["verify", "--x-grid", "10,25", "--seed", "1"],
])
def test_zero_n_is_usage_error_not_the_default(f1_cfg, command, capsys):
    code = main(command + ["--config", f1_cfg, "--n", "0"])
    out = capsys.readouterr()
    assert code == 2
    assert "must be >= " in out.err
    assert out.out == ""


def test_config_hash_stable_under_reordering(tmp_path, capsys):
    p = tmp_path / "r.cfg"
    p.write_text(
        "shape_u.kappa = 2.0\nangular.halfwidth = 1.0\n"
        "radial.family = exponential\n"
    )

    def hash_of(cfg):
        assert main(["phi", "--config", cfg, "--x", "100"]) == 0
        out = capsys.readouterr().out
        return next(
            l.split("=")[1].strip()
            for l in out.splitlines()
            if l.startswith("# config_hash")
        )

    q = tmp_path / "f.cfg"
    q.write_text(F1_TEXT)
    assert hash_of(str(p)) == hash_of(str(q))


def test_limit_sample_case_pushforward(f1_cfg, tmp_path, capsys):
    p = tmp_path / "seif.cfg"
    p.write_text(F1_TEXT + "shape_v.family = seifert_linear\nshape_v.rho = 0.4\n")
    code = main(
        ["limit-sample", "--config", str(p), "--n", "50", "--seed", "5",
         "--case", "seifert"]
    )
    out = capsys.readouterr().out
    assert code == 0
    rows = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert rows[0] == "x1,x2"
    assert len(rows) == 51
    assert all(float(r.split(",")[0]) > 0.0 for r in rows[1:])


# every builtin second shape on u = 1 - t^2 (kappa = 2), with the case of
# the regime its delta, rho and factorization put it in
@pytest.mark.parametrize("extra, kind", [
    ({"shape_v.family": "sine"}, "fs"),
    ({"shape_v.family": "seifert_linear", "shape_v.rho": 0.0}, "seifert"),
    ({"shape_v.family": "seifert_linear", "shape_v.rho": 0.3}, "seifert"),
    ({"shape_v.family": "power_v", "shape_v.delta": 1.0}, "fs"),
    ({"shape_v.family": "power_v", "shape_v.delta": 2.0, "shape_v.rho": 0.5}, "ratio_c"),
    ({"shape_v.family": "power_v", "shape_v.delta": 3.0, "shape_v.rho": 0.5},
     "delta_gt_kappa"),
    ({"shape_v.family": "theta_polynomial", "shape_v.n": 1, "shape_v.deriv": 1.0},
     "theta_n"),
    ({"shape_v.family": "theta_polynomial", "shape_v.n": 2, "shape_v.rho": 0.5,
      "shape_v.deriv": 2.0}, "theta_n"),
    ({"shape_v.family": "theta_polynomial", "shape_v.n": 3, "shape_v.deriv": 1.0},
     "theta_n"),
], ids=lambda v: v.get("shape_v.family") if isinstance(v, dict) else v)
def test_second_shape_validates_and_fits_its_case(extra, kind):
    mdl = build_builtin_model(dict(F1_CONFIG, **extra))
    assert validate_model(mdl).passed
    case = _case_from_model(mdl, kind)
    sample = sample_conditional(mdl, 50.0, 200, Condition.RIGHT_SIDED, seed=1)
    first, second = bivariate_normalized(mdl, case, sample)
    assert np.all(first > 0.0) and np.all(np.isfinite(second))


# a --case whose regime contradicts the model's delta and kappa_plus is a
# usage error: exit 2 and no rows
@pytest.mark.parametrize("text, kind", [
    ("radial.family = half_normal\nangular.halfwidth = 1.0\nshape_u.family = cosine\n"
     "shape_v.family = sine\n", "delta_gt_kappa"),
    (F1_TEXT + "shape_v.family = power_v\nshape_v.delta = 2\nshape_v.rho = 0.5\n", "fs"),
    (F1_TEXT + "shape_v.family = power_v\nshape_v.delta = 2\nshape_v.rho = 0.5\n",
     "delta_gt_kappa"),
    (F1_TEXT + "shape_v.family = power_v\nshape_v.delta = 3\nshape_v.rho = 0.5\n", "fs"),
    (F1_TEXT + "shape_v.family = power_v\nshape_v.delta = 3\nshape_v.rho = 0.5\n", "ratio_c"),
], ids=["delta-lt-kappa-as-delta_gt_kappa", "tie-as-fs", "tie-as-delta_gt_kappa",
        "delta-gt-kappa-as-fs", "delta-gt-kappa-as-ratio_c"])
def test_limit_sample_case_must_match_the_regime(tmp_path, capsys, text, kind):
    p = tmp_path / "second.cfg"
    p.write_text(text)
    code = main(["limit-sample", "--config", str(p), "--seed", "1", "--n", "10", "--case", kind])
    out = capsys.readouterr()
    assert code == 2
    assert out.out == ""
    assert f"--case {kind}" in out.err and "delta" in out.err


# seifert needs v = (t - t0 + rho) u, i.e. theta = rho + s of order 1 and slope 1
@pytest.mark.parametrize("text", [
    "radial.family = half_normal\nangular.halfwidth = 1.0\nshape_u.family = cosine\n"
    "shape_v.family = sine\n",
    F1_TEXT + "shape_v.family = theta_polynomial\nshape_v.n = 2\nshape_v.rho = 0.5\n"
    "shape_v.deriv = 2\n",
], ids=["sine", "theta-n2"])
def test_limit_sample_seifert_needs_the_linear_factorization(tmp_path, capsys, text):
    p = tmp_path / "second.cfg"
    p.write_text(text)
    code = main(["limit-sample", "--config", str(p), "--seed", "1", "--n", "10",
                 "--case", "seifert"])
    out = capsys.readouterr()
    assert code == 2
    assert out.out == ""
    assert "does not factor as (t - t0 + rho) u" in out.err


def test_seifert_model_is_the_theta_case_of_order_one(tmp_path, capsys):
    p = tmp_path / "seif.cfg"
    p.write_text(F1_TEXT + "shape_v.family = seifert_linear\nshape_v.rho = 0.4\n")
    rows = {}
    for kind in ("seifert", "theta_n"):
        code = main(["limit-sample", "--config", str(p), "--seed", "5", "--n", "50",
                     "--case", kind])
        out = capsys.readouterr().out
        assert code == 0
        rows[kind] = [l for l in out.splitlines() if not l.startswith("#")]
    assert rows["seifert"] == rows["theta_n"]


def test_theta_order_whose_factorial_overflows_is_usage_error(tmp_path, capsys):
    theta = {"shape_v.family": "theta_polynomial", "shape_v.deriv": 1.0}
    build_builtin_model(dict(F1_CONFIG, **theta, **{"shape_v.n": 170}))
    p = tmp_path / "theta.cfg"
    p.write_text(F1_TEXT + "shape_v.family = theta_polynomial\nshape_v.n = 200\nshape_v.deriv = 1\n")
    code = main(["validate", "--config", str(p)])
    out = capsys.readouterr()
    assert code == 2
    assert out.out == ""
    assert "shape_v.n must be at most 170" in out.err


def test_second_shape_order_must_be_an_integer():
    with pytest.raises(ConfigError, match="shape_v.n"):
        build_builtin_model(dict(F1_CONFIG, **{
            "shape_v.family": "theta_polynomial", "shape_v.n": "1.5", "shape_v.deriv": 1.0}))


# a nan or inf config number is a usage error naming its key, whatever
# command reads the model; none may print a row or raise a traceback
@pytest.mark.parametrize("key, extra, argv", [
    ("shape_u.scale", "shape_u.scale = nan\n", ["tailprob", "--method", "quad", "--x", "100"]),
    ("shape_v.rho", "shape_v.family = power_v\nshape_v.delta = 3\nshape_v.rho = nan\n",
     ["limit-sample", "--seed", "3", "--n", "10", "--case", "delta_gt_kappa"]),
    ("shape_v.n", "shape_v.family = theta_polynomial\nshape_v.n = nan\nshape_v.deriv = 1\n",
     ["validate"]),
    ("shape_v.n", "shape_v.family = theta_polynomial\nshape_v.n = inf\nshape_v.deriv = 1\n",
     ["validate"]),
    ("angular.halfwidth_plus", "angular.halfwidth_plus = inf\n", ["phi", "--x", "100"]),
], ids=["scale-nan", "rho-nan", "n-nan", "n-inf", "halfwidth-inf"])
def test_non_finite_config_number_is_usage_error(tmp_path, capsys, key, extra, argv):
    p = tmp_path / "nonfinite.cfg"
    p.write_text(F1_TEXT + extra)
    code = main(argv + ["--config", str(p)])
    out = capsys.readouterr()
    assert code == 2
    assert out.out == ""
    assert f"key {key!r}: expected a finite number" in out.err


def test_limit_sample_case_refuses_unrestricted_condition(f1_cfg, tmp_path, capsys):
    # the case maps push forward the right-sided limit only
    p = tmp_path / "seif.cfg"
    p.write_text(F1_TEXT + "shape_v.family = seifert_linear\nshape_v.rho = 0.4\n")
    code = main(
        ["limit-sample", "--config", str(p), "--n", "50", "--seed", "5",
         "--case", "seifert", "--condition", "unrestricted"]
    )
    out = capsys.readouterr()
    assert code == 2
    assert out.out == ""
    assert "--case" in out.err


def test_limit_sample_plain_two_sided(f1_cfg, capsys):
    code = main(
        ["limit-sample", "--config", f1_cfg, "--n", "40", "--seed", "5",
         "--condition", "unrestricted"]
    )
    out = capsys.readouterr().out
    assert code == 0
    rows = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert rows[0] == "r,t"
    ts = [float(r.split(",")[1]) for r in rows[1:]]
    assert any(t < 0 for t in ts) and any(t > 0 for t in ts)


def test_limit_sample_gamma_overflow_is_usage_error(tmp_path, capsys):
    # kappa = 0.005 puts the Gamma shape (1 + tau)/kappa at 200
    p = tmp_path / "flat.cfg"
    p.write_text(F1_TEXT.replace("shape_u.kappa = 2.0", "shape_u.kappa = 0.005"))
    code = main(["limit-sample", "--config", str(p), "--n", "10", "--seed", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert "overflows" in err


def test_density_grid_masses(f1_cfg, capsys):
    code = main(["density", "--config", f1_cfg, "--n", "8"])
    out = capsys.readouterr().out
    assert code == 0
    rows = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert rows[0] == "r,t,density"
    assert len(rows) == 65
    vals = [float(r.split(",")[2]) for r in rows[1:]]
    assert max(vals) > 0.0
    assert min(vals) >= 0.0


def test_density_unrestricted_is_the_two_sided_limit(tmp_path, capsys):
    p = tmp_path / "tied.cfg"
    p.write_text("".join(f"{k} = {v}\n" for k, v in TIED_CONFIG.items()))
    code = main(["density", "--config", str(p), "--n", "9", "--condition", "unrestricted"])
    out = capsys.readouterr().out
    assert code == 0
    rows = [l for l in out.splitlines() if l and not l.startswith("#")]
    assert rows[0] == "r,t,density"
    r, t, dens = np.array([[float(v) for v in row.split(",")] for row in rows[1:]]).T
    assert np.any(t < 0.0) and np.any(dens[t < 0.0] > 0.0)
    law = limit_law(build_builtin_model(TIED_CONFIG), Condition.UNRESTRICTED)
    assert dens.tolist() == density(law, r, t).tolist()


def test_verify_small_grid_passes_with_loose_tolerances(f1_cfg, tmp_path, capsys):
    out_csv = tmp_path / "verify.csv"
    code = main(
        ["verify", "--config", f1_cfg, "--x-grid", "10,25", "--n", "3000",
         "--seed", "13", "--ks-tol", "0.2", "--ratio-tol", "0.2",
         "--out", str(out_csv)]
    )
    err = capsys.readouterr().err
    assert code == 0
    assert "PASS model validation" in err
    text = out_csv.read_text()
    assert "x,n,ks_r,ks_t,chi2_p,acceptance_rate,tail_ratio" in text


def test_verify_unattainable_tolerance_fails(f1_cfg, capsys):
    code = main(
        ["verify", "--config", f1_cfg, "--x-grid", "10,25", "--n", "3000",
         "--seed", "13", "--ks-tol", "1e-6"]
    )
    err = capsys.readouterr().err
    assert code == 1
    assert "FAIL" in err


def test_unknown_command_is_usage_error(capsys):
    code = main(["frobnicate"])
    capsys.readouterr()
    assert code == 2


# fresh process: which scipy modules a CLI start and the README model's
# checks load, then whether a half-normal model loads scipy.special
COLD_START = f"""
import sys
import polartail, polartail.cli
assert polartail.validate_model(polartail.build_builtin_model({F1_CONFIG!r})).passed
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
polartail.build_builtin_model({{**{F1_CONFIG!r}, "radial.family": "half_normal"}})
print("scipy.special" in sys.modules)
"""


def test_cold_start_loads_scipy_only_for_special_functions():
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run([sys.executable, "-c", COLD_START], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["[]", "True"]

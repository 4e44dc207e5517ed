"""Command line interface: exit codes, CSV shape, and determinism."""

import pytest

from polartail.cli import main

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
    assert rows[1].startswith("100,-,0.09999999999")
    assert rows[2].startswith("100,+,0.09999999999")


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


def test_x_and_x_grid_are_mutually_exclusive(f1_cfg, capsys):
    code = main(
        ["tailprob", "--config", f1_cfg, "--x", "10", "--x-grid", "10,20"]
    )
    capsys.readouterr()
    assert code == 2


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

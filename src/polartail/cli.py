"""Command line front end.

Commands read a flat key=value model config, run one computation, and
emit CSV with a '#'-prefixed metadata block (command, config hash, seed,
version, plus the effective config). Numbers are printed with 17
significant digits so doubles round-trip. Exit codes: 0 success (verify:
all thresholds pass), 1 threshold failure, 2 usage or config error,
3 numeric failure (bracket, monotonicity, convergence, budget).

Seeds are mandatory for every stochastic command; there is no ambient
entropy anywhere, so rerunning a command line reproduces its output byte
for byte. `tailprob --method mc` counts its proposal batches
concurrently, on as many threads as the process's CPU affinity allows
(at most two), and its output does not depend on that count; the other
commands run their batches one after another. --workers is accepted and
ignored; it stays because acceptance criterion 8 passes --workers 4 (the
benchmark passes the library keyword workers=, never the flag).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import sys

import numpy as np

from . import __version__
from . import asymptotics as _asymptotics
from . import limitlaw as _limitlaw
from . import model as _model
from . import montecarlo as _montecarlo
from . import oracle as _oracle
from . import stats as _stats
from .errors import (
    BracketError,
    BudgetExceeded,
    CaseMismatch,
    ConfigError,
    MonotonicityError,
    NonConvergence,
    ParameterError,
)

_NUMERIC_ERRORS = (BracketError, MonotonicityError, NonConvergence, BudgetExceeded)
_USAGE_ERRORS = (ConfigError, ParameterError, CaseMismatch)


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _config_hash(config: dict) -> str:
    lines = "\n".join(sorted(f"{k}={v}" for k, v in config.items()))
    return hashlib.sha256(lines.encode("utf-8")).hexdigest()[:16]


def _emit(args, command: str, config: dict, meta: dict, columns, rows):
    buf = io.StringIO()
    buf.write(f"# command = {command}\n")
    buf.write(f"# version = {__version__}\n")
    buf.write(f"# config_hash = {_config_hash(config)}\n")
    for key, value in meta.items():
        buf.write(f"# {key} = {value}\n")
    for key in sorted(config):
        buf.write(f"# config.{key} = {config[key]}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    text = buf.getvalue()
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_model(args) -> tuple[dict, _model.PolarModel]:
    """The config of --config and the builtin model it describes."""
    if not args.config:
        raise ConfigError("--config is required for this command")
    config = _model.load_config(args.config)
    return config, _model.build_builtin_model(config)


def _require_seed(args) -> int:
    if args.seed is None:
        raise ConfigError("--seed is required for stochastic commands")
    return args.seed


def _n_or(args, default: int) -> int:
    """--n if given (0 included, so range checks see it), else the default."""
    return default if args.n is None else args.n


def _x_values(args) -> list[float]:
    if args.x is not None and args.x_grid:
        raise ConfigError("give either --x or --x-grid, not both")
    if args.x is not None:
        return [args.x]
    if args.x_grid:
        try:
            xs = [float(v) for v in args.x_grid.split(",") if v.strip()]
        except ValueError:
            raise ConfigError(f"--x-grid: expected comma-separated numbers, got {args.x_grid!r}") from None
        if not xs:
            raise ConfigError(f"--x-grid: no thresholds in {args.x_grid!r}")
        return xs
    raise ConfigError("--x or --x-grid is required")


def _condition(args) -> _model.Condition:
    return _model.Condition.RIGHT_SIDED if args.condition == "right" else _model.Condition.UNRESTRICTED


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def _cmd_validate(args) -> int:
    config, mdl = _load_model(args)
    report = _model.validate_model(mdl)
    rows = [
        (e.name, "pass" if e.passed else "fail", e.measured, e.expected,
         "" if e.margin is None else _fmt(e.margin), e.detail)
        for e in report.entries
    ]
    _emit(args, "validate", config, {}, ("check", "status", "measured", "expected", "margin", "detail"), rows)
    for e in report.entries:
        print(f"{'PASS' if e.passed else 'FAIL'} {e.name} measured={_fmt(e.measured)}", file=sys.stderr)
    return 0 if report.passed else 1


def _cmd_phi(args) -> int:
    config, mdl = _load_model(args)
    rows = []
    for x in _x_values(args):
        # the CSV lists the minus side before the plus side
        for facts in reversed(mdl.sides(_model.Condition.UNRESTRICTED)):
            root = _asymptotics.compute_phi(mdl, x, facts.side)
            rows.append((x, "+" if facts.side > 0 else "-", root.phi, root.residual, root.psi, root.psi / x))
    _emit(args, "phi", config, {}, ("x", "side", "phi", "residual", "psi", "psi_over_x"), rows)
    return 0


def _cmd_tailprob(args) -> int:
    config, mdl = _load_model(args)
    cond = _condition(args)
    xs = _x_values(args)
    meta = {"condition": args.condition, "method": args.method}
    if args.method == "quad":
        rows = [(x, _oracle.tail_probability_quadrature(mdl, x, cond).value) for x in xs]
        _emit(args, "tailprob", config, meta, ("x", "value"), rows)
    elif args.method == "asym":
        rows = [(x, _asymptotics.tail_asymptotic(mdl, x, cond)) for x in xs]
        _emit(args, "tailprob", config, meta, ("x", "value"), rows)
    else:
        seed = _require_seed(args)
        n = _n_or(args, 10 ** 6)
        meta["seed"] = seed
        meta["n_proposals"] = n
        rows = []
        for i, x in enumerate(xs):
            est, se = _montecarlo.estimate_tail_probability(mdl, x, n, cond, (seed, i))
            rows.append((x, est, se))
        _emit(args, "tailprob", config, meta, ("x", "value", "std_error"), rows)
    return 0


def _cmd_simulate(args) -> int:
    config, mdl = _load_model(args)
    cond = _condition(args)
    seed = _require_seed(args)
    if args.x is None:
        raise ConfigError("--x is required for simulate")
    n = _n_or(args, 10 ** 4)
    sample = _montecarlo.sample_conditional(mdl, args.x, n, cond, seed)
    phi_used = sample.scale_value
    phi_text = (",".join(_fmt(v) for v in phi_used)
                if isinstance(phi_used, tuple) else _fmt(phi_used))
    meta = {
        "x": _fmt(sample.x),
        "psi": _fmt(sample.normalizers.psi_x),
        "phi_used": phi_text,
        "scale_kind": sample.scale_kind,
        "condition": args.condition,
        "seed": seed,
        "acceptance_rate": _fmt(sample.acceptance.acceptance_rate),
        "proposals": sample.acceptance.proposals,
        "proposal_mass": _fmt(sample.acceptance.proposal_mass),
    }
    rows = zip(sample.r, sample.t, sample.r_norm, sample.t_norm)
    _emit(args, "simulate", config, meta, ("R", "T", "r_norm", "t_norm"), rows)
    return 0


def _cmd_limit_sample(args) -> int:
    config, mdl = _load_model(args)
    cond = _condition(args)
    seed = _require_seed(args)
    n = _n_or(args, 10 ** 4)
    meta = {"condition": args.condition, "seed": seed}
    if args.case:
        if cond != _model.Condition.RIGHT_SIDED:
            raise ConfigError("--case applies to right-sided limit draws; drop --condition unrestricted")
        try:
            case = _asymptotics.corollary_case(mdl, args.case)
        except (CaseMismatch, ParameterError) as exc:
            raise type(exc)(f"--case {args.case}: {exc}") from None
    r, t = _limitlaw.sample(_asymptotics.limit_law(mdl, cond), n, seed)
    if not args.case:
        _emit(args, "limit-sample", config, meta, ("r", "t"), zip(r, t))
        return 0
    x1, x2 = _limitlaw.pushforward_corollary(case, r, t)
    meta["case"] = case.kind.value
    _emit(args, "limit-sample", config, meta, ("x1", "x2"), zip(x1, x2))
    return 0


def _cmd_density(args) -> int:
    config, mdl = _load_model(args)
    cond = _condition(args)
    points = _n_or(args, 64)
    if points < 2:
        raise ConfigError(f"--n must be >= 2 grid points, got {points}")
    r_hi = -float(np.log(1e-6))
    rs = np.linspace(0.0, r_hi, points)
    meta = {"condition": args.condition}
    law = _asymptotics.limit_law(mdl, cond)
    # t spans the reach r_hi^(1/kappa) of each side, mirrored on the minus side
    reach = [sign * r_hi ** (1.0 / side.kappa) for sign, _, side in law.sides]
    ts = np.linspace(min(0.0, *reach), max(reach), points)
    rows = []
    for r in rs:
        vals = np.asarray(_limitlaw.density(law, np.full_like(ts, r), ts), dtype=float)
        rows.extend((float(r), float(t), float(v)) for t, v in zip(ts, vals))
    _emit(args, "density", config, meta, ("r", "t", "density"), rows)
    return 0


def _cmd_verify(args) -> int:
    config, mdl = _load_model(args)
    cond = _condition(args)
    seed = _require_seed(args)
    n = _n_or(args, 5 * 10 ** 4)
    xs = _x_values(args) if (args.x is not None or args.x_grid) else [10.0, 25.0, 50.0, 100.0]

    validation = _model.validate_model(mdl)
    report = _stats.convergence_report(mdl, xs, n, seed, cond)
    rows = [
        (row.x, row.n, row.ks_r, row.ks_t, row.chi2_p, row.acceptance_rate, row.tail_ratio)
        for row in report.rows
    ]
    meta = {"condition": args.condition, "seed": seed, "n": n,
            # one value per row, in row order (ReportRow.acceptance_z)
            "diag.acceptance_z": ",".join(_fmt(row.acceptance_z) for row in report.rows)}
    _emit(args, "verify", config, meta,
          ("x", "n", "ks_r", "ks_t", "chi2_p", "acceptance_rate", "tail_ratio"), rows)

    last = report.rows[-1]
    failed = ", ".join(e.name for e in validation.failures())
    checks = [
        (f"model validation: {failed}" if failed else "model validation", validation.passed),
        (f"final ks_r {last.ks_r:.4f} <= {args.ks_tol}", last.ks_r <= args.ks_tol),
        (f"final ks_t {last.ks_t:.4f} <= {args.ks_tol}", last.ks_t <= args.ks_tol),
        (f"final |tail_ratio - 1| {abs(last.tail_ratio - 1):.4f} <= {args.ratio_tol}",
         abs(last.tail_ratio - 1.0) <= args.ratio_tol),
        ("ks_r trend decreasing", report.ks_r_decreasing),
        ("ks_t trend decreasing", report.ks_t_decreasing),
        ("tail ratio approaches 1", report.ratio_approaches_one),
    ]
    all_pass = True
    for label, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'} {label}", file=sys.stderr)
        all_pass &= ok
    return 0 if all_pass else 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polartail",
        description="Conditional extremes of polar random vectors: "
                    "windows, limit laws, simulation, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, seed=False, x=False, x_grid=False, n=False, workers=False,
               condition=False, method=False, case=False):
        p.add_argument("--config", help="flat key=value model configuration file")
        p.add_argument("--out", help="output CSV path (default: stdout)")
        if seed:
            p.add_argument("--seed", type=int, help="integer seed (mandatory when sampling)")
        if x:
            p.add_argument("--x", type=float, help="single threshold")
        if x_grid:
            p.add_argument("--x-grid", help="comma-separated thresholds")
        if n:
            p.add_argument("--n", type=int, help="sample size / proposal count / grid points")
        if workers:
            p.add_argument("--workers", type=int, default=1,
                           help="accepted and ignored (the thread count of "
                                "tailprob --method mc follows the CPU affinity)")
        if condition:
            p.add_argument("--condition", choices=("right", "unrestricted"), default="right")
        if method:
            p.add_argument("--method", choices=("quad", "asym", "mc"), default="quad")
        if case:
            p.add_argument("--case", help="bivariate pushforward case name")
        return p

    common(sub.add_parser("validate", help="run the model assumption checks"))
    common(sub.add_parser("phi", help="angular windows and residuals"), x=True, x_grid=True)
    common(sub.add_parser("tailprob", help="tail probability by quad, asym, or mc"),
           seed=True, x=True, x_grid=True, n=True, workers=True, condition=True, method=True)
    common(sub.add_parser("simulate", help="conditional sample given the exceedance"),
           seed=True, x=True, n=True, workers=True, condition=True)
    common(sub.add_parser("limit-sample", help="exact draws from the limit law"),
           seed=True, n=True, condition=True, case=True)
    common(sub.add_parser("density", help="limit density on a grid"),
           n=True, condition=True)
    p_verify = common(sub.add_parser("verify", help="convergence report with pass/fail"),
                      seed=True, x=True, x_grid=True, n=True, workers=True, condition=True)
    p_verify.add_argument("--ks-tol", type=float, default=0.03)
    p_verify.add_argument("--ratio-tol", type=float, default=0.05)
    return parser


_COMMANDS = {
    "validate": _cmd_validate,
    "phi": _cmd_phi,
    "tailprob": _cmd_tailprob,
    "simulate": _cmd_simulate,
    "limit-sample": _cmd_limit_sample,
    "density": _cmd_density,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return _COMMANDS[args.command](args)
    except _NUMERIC_ERRORS as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

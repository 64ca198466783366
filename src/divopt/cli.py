"""Command-line interface: solve, value, simulate, sweep, verify.

Each command's options, with their types and defaults, are declared once,
in _build_parser. --config names a flat key=value file whose keys are the
command's flags without the leading dashes (x_max for --x-max). Its lines
are parsed as --key=value flags placed before the command line's own, so
explicit flags win, and a key the command does not take is a usage error,
as its flag is.

All numeric output is formatted to 12 significant digits with '\n' line
endings, so identical inputs and seed give byte-identical files.

Exit codes: 0 success (and verification pass), 1 verification violation,
2 no bracket found by the solver, 3 configuration/usage error.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .core import ModelParams, solve_roots
from .errors import ConfigError, DivoptError
from .simulate import SimConfig, simulate
from .solver import Regime, SolveReport, solve
from .values import ValueFunction
from .verify import audit_derivative_pattern, check_hjb

_PARAM_KEYS = ("mu", "sigma", "chi", "beta", "gamma", "delta")
_BARRIER_KEYS = ("a_p", "a_c", "b", "b1", "b2", "b0")
# the asymptotic column stays in the format and is always empty
_CSV_HEADER = ",".join(("param", "regime") + _BARRIER_KEYS + ("asymptotic", "error"))


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        if math.isnan(v):
            return "nan"
        if math.isinf(v):
            return "inf"
        return format(v, ".12g")
    return str(v)


def _config_flags(path: str) -> list[str]:
    """The key=value lines of a config file as --key=value flags."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    flags = []
    for ln, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{ln}: expected key=value, got {raw.strip()!r}")
        key, _, val = line.partition("=")
        key, val = key.strip().replace("_", "-"), val.strip().strip("\"'")
        flags.append(f"--{key}={val}")
    return flags


def _finite(text: str) -> float:
    if not math.isfinite(v := float(text)):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return v


def _positive(text: str) -> float:
    if not (v := _finite(text)) > 0.0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {text!r}")
    return v


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="divopt",
        description="Optimal dividend barriers on a Brownian surplus "
        "with proportional and fixed transaction costs.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def command(name: str, handler, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        for key in _PARAM_KEYS:
            p.add_argument(f"--{key}", type=float)
        p.add_argument("--config", help="key=value file")
        p.add_argument("--tol", type=_positive, default=1e-10, help="solver tolerance")
        p.add_argument("--out", help="CSV output path")
        return p

    command("solve", cmd_solve, "classify regime and compute barriers")

    p_value = command("value", cmd_value, "tabulate V, V', V'' of the solved strategy")
    p_value.add_argument("--x-max", type=_positive, default=10.0)
    p_value.add_argument("--points", type=int, default=200)

    p_sim = command("simulate", cmd_simulate, "Monte Carlo EPV of the solved strategy")
    p_sim.add_argument("--x0", type=float, default=1.0)
    p_sim.add_argument("--paths", type=int, default=10_000)
    p_sim.add_argument("--horizon", type=float)
    p_sim.add_argument("--seed", type=int, default=42)

    p_sweep = command("sweep", cmd_sweep, "solve along one parameter axis, emit CSV")
    p_sweep.add_argument("--sweep", choices=_PARAM_KEYS)
    p_sweep.add_argument("--from", dest="from_", type=_finite)
    p_sweep.add_argument("--to", type=_finite)
    p_sweep.add_argument("--count", type=int, default=21)

    command("verify", cmd_verify, "optimality checks on the solved strategy")
    return top


def _params(values: dict) -> ModelParams:
    missing = [k for k in _PARAM_KEYS if values[k] is None]
    if missing:
        raise ConfigError(f"missing required parameter(s): {', '.join('--' + m for m in missing)}")
    try:
        return ModelParams(**{k: values[k] for k in _PARAM_KEYS})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _solved(args: argparse.Namespace, check=lambda params: None):
    """The model parameters, their roots and the solve report.

    check(params) raises a usage error before the solve, which may be slow
    or fail.
    """
    params = _params(vars(args))
    check(params)
    report = solve(params, tol=args.tol)
    return params, solve_roots(params), report


def _barrier_cells(report: SolveReport) -> dict[str, float | None]:
    cells: dict[str, float | None] = dict.fromkeys(_BARRIER_KEYS)
    st, regime = report.strategy, report.regime
    if regime is Regime.PROFITABLE_HYBRID:
        cells.update(a_p=st.a_p, a_c=st.a_c, b=st.b)
    elif regime is Regime.PROFITABLE_PERIODIC:
        cells.update(b0=st.a_p)
    elif regime is not Regime.UNPROFITABLE_PERIODIC_ZERO:
        cells.update(b1=st.b, b2=st.b2)
    return cells


def _csv_row(param: float | None, report: SolveReport) -> str:
    cells = [_fmt(c) for c in _barrier_cells(report).values()]
    return ",".join([_fmt(param), report.regime.value] + cells + ["", ""])


def _write(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write --out {path!r}: {exc}") from exc


def cmd_solve(args: argparse.Namespace) -> int:
    _, _, report = _solved(args)
    print(f"regime: {report.regime.value}")
    for name, val in _barrier_cells(report).items():
        if val is not None:
            print(f"{name} = {_fmt(val)}")
    for name, val in sorted(report.residuals.items()):
        print(f"residual {name} = {_fmt(val)}")
    for name, val in sorted(report.boundary.items()):
        if val:
            print(f"boundary: {name}")
    if args.out:
        _write(args.out, _CSV_HEADER + "\n" + _csv_row(None, report) + "\n")
    return 0


def cmd_value(args: argparse.Namespace) -> int:
    if args.points < 2:
        raise ConfigError("need --points >= 2")
    params, roots, report = _solved(args)
    vf = ValueFunction(params, roots, report.strategy)
    xs = np.linspace(0.0, args.x_max, args.points)
    lines = ["x,V,dV,d2V"]
    v, d1, d2 = vf(xs), vf.d1(xs), vf.d2(xs)
    for i in range(args.points):
        lines.append(f"{_fmt(float(xs[i]))},{_fmt(float(v[i]))},{_fmt(float(d1[i]))},{_fmt(float(d2[i]))}")
    _write(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    config = SimConfig(x0=args.x0, horizon=args.horizon, n_paths=args.paths, seed=args.seed)
    params, roots, report = _solved(args, lambda params: config.resolved_horizon(params.delta))
    res = simulate(params, roots, report.strategy, config)
    fields = [
        ("x0", res.x0),
        ("epv_mean", res.epv_mean),
        ("epv_stderr", res.epv_stderr),
        ("ruin_fraction", res.ruin_fraction),
        ("n_periodic_dividends", res.n_periodic_dividends),
        ("n_immediate_dividends", res.n_immediate_dividends),
        ("n_paths", res.n_paths),
    ]
    for name, val in fields:
        print(f"{name}={_fmt(val)}")
    if args.out:
        header = ",".join(name for name, _ in fields)
        row = ",".join(_fmt(val) for _, val in fields)
        _write(args.out, header + "\n" + row + "\n")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    if args.sweep is None:
        raise ConfigError("--sweep must name one of " + ", ".join(_PARAM_KEYS))
    if args.from_ is None or args.to is None:
        raise ConfigError("--from and --to are required for sweep")
    if args.count < 2:
        raise ConfigError("--count must be >= 2")
    base = dict(vars(args))
    lines = [_CSV_HEADER]
    for v in np.linspace(args.from_, args.to, args.count).tolist():
        base[args.sweep] = v
        try:
            lines.append(_csv_row(v, solve(_params(base), tol=args.tol)))
        except (DivoptError, ValueError) as exc:
            error = f"{type(exc).__name__}: {exc}".replace(",", ";")
            lines.append(",".join([_fmt(v)] + [""] * 8 + [error]))
    _write(args.out, "\n".join(lines) + "\n")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    params, roots, report = _solved(args)
    hjb = check_hjb(params, roots, report.strategy)
    print(f"regime: {report.regime.value}")
    print(f"hjb_max_generator_violation={_fmt(hjb.max_generator_violation)}")
    print(f"hjb_max_payment_residual={_fmt(hjb.max_payment_residual)}")
    print(f"hjb_points={hjb.n_points}")
    ok = hjb.passed
    if report.regime is Regime.PROFITABLE_HYBRID:
        audit = audit_derivative_pattern(params, roots, report.strategy)
        print(f"pattern_branch={audit.branch}")
        print(f"pattern_violations={len(audit.violations)}")
        ok = ok and audit.passed
    print("verify: " + ("pass" if ok else "FAIL"))
    return 0 if ok else 1


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            # argv[0] is the command, whose own flags follow the file's
            args = parser.parse_args(argv[:1] + _config_flags(args.config) + argv[1:])
        return args.handler(args)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; map to the config-error code
        return 3 if exc.code not in (0, None) else 0
    except (DivoptError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, (ConfigError, ValueError)) else 2


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface: solve, value, simulate, sweep, verify.

Parameters come from flags or a flat key=value config file (flags win).
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
from .errors import ConfigError, DivoptError, NoBracketError
from .simulate import SimConfig, simulate
from .solver import SolveReport, solve
from .strategies import Hybrid, Liquidation, PeriodicBarrier
from .values import ValueFunction
from .verify import audit_derivative_pattern, check_hjb

_PARAM_KEYS = ("mu", "sigma", "chi", "beta", "gamma", "delta")
_FLOAT_KEYS = _PARAM_KEYS + ("x0", "dt", "horizon", "tol", "from", "to", "x_max")
_INT_KEYS = ("paths", "seed", "count", "points")


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


def _read_config_file(path: str) -> dict:
    values: dict[str, object] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for ln, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{ln}: expected key=value, got {raw.strip()!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip().strip("\"'")
        if key in _FLOAT_KEYS:
            values[key] = float(val)
        elif key in _INT_KEYS:
            values[key] = int(val)
        elif key in ("sweep", "out", "config"):
            values[key] = val
        else:
            raise ConfigError(f"{path}:{ln}: unknown key {key!r}")
    return values


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="divopt",
        description="Optimal dividend barriers on a Brownian surplus "
        "with proportional and fixed transaction costs.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser):
        for key in _PARAM_KEYS:
            p.add_argument(f"--{key}", type=float, default=None)
        p.add_argument("--config", type=str, default=None, help="key=value file")
        p.add_argument("--tol", type=float, default=None, help="solver tolerance")
        p.add_argument("--out", type=str, default=None, help="CSV output path")

    p_solve = sub.add_parser("solve", help="classify regime and compute barriers")
    add_common(p_solve)

    p_value = sub.add_parser("value", help="tabulate V, V', V'' of the solved strategy")
    add_common(p_value)
    p_value.add_argument("--x-max", dest="x_max", type=float, default=None)
    p_value.add_argument("--points", type=int, default=None)

    p_sim = sub.add_parser("simulate", help="Monte Carlo EPV of the solved strategy")
    add_common(p_sim)
    p_sim.add_argument("--x0", type=float, default=None)
    p_sim.add_argument("--paths", type=int, default=None)
    p_sim.add_argument("--dt", type=float, default=None,
                       help="accepted for compatibility; results do not depend on it")
    p_sim.add_argument("--horizon", type=float, default=None)
    p_sim.add_argument("--seed", type=int, default=None)

    p_sweep = sub.add_parser("sweep", help="solve along one parameter axis, emit CSV")
    add_common(p_sweep)
    p_sweep.add_argument("--sweep", type=str, default=None, choices=list(_PARAM_KEYS))
    p_sweep.add_argument("--from", dest="from_", type=float, default=None)
    p_sweep.add_argument("--to", type=float, default=None)
    p_sweep.add_argument("--count", type=int, default=None)

    p_verify = sub.add_parser("verify", help="optimality checks on the solved strategy")
    add_common(p_verify)
    return top


def _merged(args: argparse.Namespace) -> dict:
    """Defaults < config file < explicit flags."""
    merged: dict[str, object] = {}
    if getattr(args, "config", None):
        merged.update(_read_config_file(args.config))
    for key, val in vars(args).items():
        if key in ("command", "config"):
            continue
        name = "from" if key == "from_" else key
        if val is not None:
            merged[name] = val
    return merged


def _params_from(merged: dict) -> ModelParams:
    missing = [k for k in _PARAM_KEYS if k not in merged]
    if missing:
        raise ConfigError(f"missing required parameter(s): {', '.join('--' + m for m in missing)}")
    try:
        return ModelParams(**{k: merged[k] for k in _PARAM_KEYS})
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _barrier_cells(report: SolveReport) -> dict[str, float | None]:
    cells: dict[str, float | None] = {
        "a_p": None, "a_c": None, "b": None, "b1": None, "b2": None, "b0": None,
    }
    st = report.strategy
    if isinstance(st, Hybrid):
        cells.update(a_p=st.a_p, a_c=st.a_c, b=st.b)
    elif isinstance(st, Liquidation):
        cells.update(b1=st.b1, b2=st.b2)
    elif isinstance(st, PeriodicBarrier):
        cells.update(b0=st.b)
    return cells


def _write(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _print_report(report: SolveReport) -> None:
    print(f"regime: {report.regime.value}")
    cells = _barrier_cells(report)
    for name, val in cells.items():
        if val is not None:
            print(f"{name} = {_fmt(val)}")
    for name, val in sorted(report.residuals.items()):
        print(f"residual {name} = {_fmt(val)}")
    for name, val in sorted(report.boundary.items()):
        if val:
            print(f"boundary: {name}")


def cmd_solve(merged: dict) -> int:
    params = _params_from(merged)
    report = solve(params, tol=float(merged.get("tol", 1e-10)))
    _print_report(report)
    if merged.get("out"):
        cells = _barrier_cells(report)
        header = "param,regime," + ",".join(cells) + ",asymptotic,error"
        row = ",".join(
            [""]
            + [report.regime.value]
            + [_fmt(v) for v in cells.values()]
            + ["", ""]
        )
        _write(merged["out"], header + "\n" + row + "\n")
    return 0


def cmd_value(merged: dict) -> int:
    params = _params_from(merged)
    report = solve(params, tol=float(merged.get("tol", 1e-10)))
    roots = solve_roots(params)
    vf = ValueFunction(params, roots, report.strategy)
    x_max = float(merged.get("x_max", 10.0))
    points = int(merged.get("points", 200))
    if points < 2 or x_max <= 0:
        raise ConfigError("need --points >= 2 and --x-max > 0")
    xs = np.linspace(0.0, x_max, points)
    lines = ["x,V,dV,d2V"]
    v, d1, d2 = vf(xs), vf.d1(xs), vf.d2(xs)
    for i in range(points):
        lines.append(f"{_fmt(float(xs[i]))},{_fmt(float(v[i]))},{_fmt(float(d1[i]))},{_fmt(float(d2[i]))}")
    _write(merged.get("out"), "\n".join(lines) + "\n")
    return 0


def cmd_simulate(merged: dict) -> int:
    params = _params_from(merged)
    report = solve(params, tol=float(merged.get("tol", 1e-10)))
    roots = solve_roots(params)
    config = SimConfig(
        x0=float(merged.get("x0", 1.0)),
        dt=float(merged.get("dt", 1e-3)),
        horizon=merged.get("horizon"),
        n_paths=int(merged.get("paths", 10_000)),
        seed=int(merged.get("seed", 42)),
    )
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
    if merged.get("out"):
        header = ",".join(name for name, _ in fields)
        row = ",".join(_fmt(val) for _, val in fields)
        _write(merged["out"], header + "\n" + row + "\n")
    return 0


def cmd_sweep(merged: dict) -> int:
    axis = merged.get("sweep")
    if axis not in _PARAM_KEYS:
        raise ConfigError("--sweep must name one of " + ", ".join(_PARAM_KEYS))
    if "from" not in merged or "to" not in merged:
        raise ConfigError("--from and --to are required for sweep")
    count = int(merged.get("count", 21))
    if count < 2:
        raise ConfigError("--count must be >= 2")
    base = dict(merged)
    values = np.linspace(float(merged["from"]), float(merged["to"]), count)
    tol = float(merged.get("tol", 1e-10))
    # the asymptotic column stays in the format and is always empty
    lines = ["param,regime,a_p,a_c,b,b1,b2,b0,asymptotic,error"]
    for v in values:
        base[axis] = float(v)
        try:
            params = _params_from(base)
            report = solve(params, tol=tol)
            cells = _barrier_cells(report)
            lines.append(
                ",".join(
                    [_fmt(float(v)), report.regime.value]
                    + [_fmt(c) for c in cells.values()]
                    + ["", ""]
                )
            )
        except (DivoptError, ValueError) as exc:
            error = f"{type(exc).__name__}: {exc}".replace(",", ";")
            lines.append(",".join([_fmt(float(v))] + [""] * 8 + [error]))
    _write(merged.get("out"), "\n".join(lines) + "\n")
    return 0


def cmd_verify(merged: dict) -> int:
    params = _params_from(merged)
    report = solve(params, tol=float(merged.get("tol", 1e-10)))
    roots = solve_roots(params)
    hjb = check_hjb(params, roots, report.strategy)
    print(f"regime: {report.regime.value}")
    print(f"hjb_max_generator_violation={_fmt(hjb.max_generator_violation)}")
    print(f"hjb_max_payment_residual={_fmt(hjb.max_payment_residual)}")
    print(f"hjb_points={hjb.n_points}")
    ok = hjb.passed
    if isinstance(report.strategy, Hybrid):
        audit = audit_derivative_pattern(params, roots, report.strategy)
        print(f"pattern_branch={audit.branch}")
        print(f"pattern_violations={len(audit.violations)}")
        ok = ok and audit.passed
    print("verify: " + ("pass" if ok else "FAIL"))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; map to the config-error code
        return 3 if exc.code not in (0, None) else 0
    try:
        merged = _merged(args)
        handler = {
            "solve": cmd_solve,
            "value": cmd_value,
            "simulate": cmd_simulate,
            "sweep": cmd_sweep,
            "verify": cmd_verify,
        }[args.command]
        return handler(merged)
    except NoBracketError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except DivoptError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

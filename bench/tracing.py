"""Per-layer tracing from outside the program.

The tracer replaces public names with timing wrappers, at the place where
their caller looks them up (``divopt.cli.solve`` is what ``cmd_sweep``
calls, ``divopt.solver.bisect_secant`` is what the solver calls), and
restores them afterwards. The layers are the package's modules: ``cli``,
``core``, ``solver``, ``rootfind``, ``values``, ``verify``, ``simulate``;
``bench`` is the benchmark's own code around each op.

Each wrapped call is a span. A span's self time is its duration minus the
durations of the spans it directly encloses, so the self times of all
spans inside an op add up to the op's duration. Aggregates per span name
are kept for every span. Individual spans are kept in memory only for the
low-frequency names (not for root-finder or objective calls, which run
thousands of times per hybrid solve) and written out at the end.

Objective functions handed to the root finders are wrapped as well. An
objective call that makes no further traced call is a leaf kernel
evaluation (``solver.kernel``); one that runs a nested root search is
``solver.objective``. Both are solver code.
"""

from __future__ import annotations

import importlib
import math
import time
from collections import defaultdict

import numpy as np

import divopt.cli
import divopt.core
import divopt.solver
import divopt.values
import divopt.verify
from divopt.strategies import Hybrid, Liquidation, PeriodicZero

LAYERS = ("cli", "core", "solver", "rootfind", "values", "verify", "simulate", "bench")
REGIMES = tuple(r.value for r in divopt.solver.Regime)
FAMILIES = ("hybrid", "periodic_zero", "liquidation")
_ROOTFINDERS = ("bisect_secant", "bracket_geometric", "smallest_root_scan")
# names too frequent to keep as individual spans
_HOT = frozenset({"rootfind", "solver.kernel", "solver.objective"})


def family_of(strategy) -> str:
    if isinstance(strategy, Hybrid):
        return "hybrid"
    if isinstance(strategy, Liquidation):
        return "liquidation"
    if isinstance(strategy, PeriodicZero):
        return "periodic_zero"
    return "periodic"


class Tracer:
    def __init__(self):
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total_s, self_s
        self.counts = defaultdict(float)
        self.spans: list[tuple] = []  # (op, parent, name, start_s, end_s)
        self._stack: list[list] = []  # [child_s, n_children, span_index]
        self._inside = defaultdict(int)  # open spans per name
        self._saved: list[tuple] = []
        self._op = -1
        self._t0 = time.perf_counter()

    # -- spans ------------------------------------------------------------

    def _enter(self, name: str) -> list:
        frame = [0.0, 0, -1]
        if name not in _HOT:
            parent = next((f[2] for f in reversed(self._stack) if f[2] >= 0), -1)
            frame[2] = len(self.spans)
            self.spans.append([self._op, parent, name, 0.0, 0.0])
        self._stack.append(frame)
        self._inside[name] += 1
        return frame

    def _exit(self, name: str, frame: list, t0: float, t1: float) -> None:
        dt = t1 - t0
        self._stack.pop()
        self._inside[name] -= 1
        if self._stack:
            parent = self._stack[-1]
            parent[0] += dt
            parent[1] += 1
        rec = self.stats[name]
        rec[0] += 1
        rec[1] += dt
        rec[2] += dt - frame[0]
        if frame[2] >= 0:
            span = self.spans[frame[2]]
            span[3], span[4] = t0 - self._t0, t1 - self._t0

    def span(self, name: str, fn, on_return=None, on_error=None):
        def wrapped(*args, **kwargs):
            frame = self._enter(name)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._exit(name, frame, t0, time.perf_counter())
                if on_error is not None:
                    on_error(args)
                raise
            t1 = time.perf_counter()
            self._exit(name, frame, t0, t1)
            if on_return is not None:
                on_return(args, kwargs, result, t1 - t0)
            return result

        return wrapped

    def op(self, fn, *args):
        """Run one benchmark op as a root span of the bench layer."""
        self._op += 1
        return self.span("bench.op", fn)(*args)

    def _kernel(self, fn):
        clock = time.perf_counter
        stack, stats, counts = self._stack, self.stats, self.counts

        def wrapped(x):
            frame = [0.0, 0, -1]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(x)
            finally:
                dt = clock() - t0
                stack.pop()
                parent = stack[-1]
                parent[0] += dt
                parent[1] += 1
                rec = stats["solver.kernel" if frame[1] == 0 else "solver.objective"]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[0]
                counts["rootfind.fn_evals"] += 1

        return wrapped

    def _rootfinder(self, fn):
        traced = self.span("rootfind", fn)

        def wrapped(target, *args, **kwargs):
            return traced(self._kernel(target), *args, **kwargs)

        return wrapped

    # -- patching ---------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        cli, core, solver, verify = divopt.cli, divopt.core, divopt.solver, divopt.verify
        # divopt.simulate is the re-exported function, not the module
        sim = importlib.import_module("divopt.simulate")
        self._patch(cli, "main", self.span("cli.main", cli.main))
        self._patch(cli, "solve", self.span(
            "solver.solve", cli.solve, self._on_solve, self._on_solve_error))
        for owner in (core, solver, cli):
            self._patch(owner, "solve_roots", self.span("core.solve_roots", owner.solve_roots))
        for attr in _ROOTFINDERS:
            self._patch(solver, attr, self._rootfinder(getattr(solver, attr)))
        vf = divopt.values.ValueFunction
        self._patch(vf, "__init__", self.span("values.init", vf.__init__))
        for attr in ("__call__", "d1", "d2"):
            self._patch(vf, attr, self._values_method(getattr(vf, attr)))
        self._patch(verify, "check_hjb", self.span("verify.check_hjb", verify.check_hjb))
        self._patch(verify, "audit_derivative_pattern",
                    self.span("verify.audit", verify.audit_derivative_pattern))
        self._patch(verify, "brute_force_hybrid",
                    self.span("verify.lattice", verify.brute_force_hybrid, self._on_lattice))
        for attr in ("simulate", "simulate_at"):
            self._patch(sim, attr, self._simulate(getattr(sim, attr)))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- counters taken at the boundaries ----------------------------------

    def _on_solve(self, args, kwargs, report, dt) -> None:
        key = f"solver.solve.{report.regime.value}"
        self.counts[key + ".calls"] += 1
        self.counts[key + ".s"] += dt

    def _on_solve_error(self, args) -> None:
        self.counts["solver.solve.fails"] += 1

    def _on_lattice(self, args, kwargs, result, dt) -> None:
        roots = args[1]
        n = result.n_per_axis
        self.counts["verify.lattice.points"] += (n if roots.a_bar > 0 else 1) * n * n

    def _values_method(self, method):
        vector = self.span("values.vector", method)
        scalar = self.span("values.scalar", method)
        counts, inside = self.counts, self._inside

        def wrapped(vf, x, *args, **kwargs):
            if np.ndim(x) == 0:
                return scalar(vf, x, *args, **kwargs)
            n = np.size(x)
            counts["values.vector.points"] += n
            if inside["verify.check_hjb"]:
                counts["verify.check_hjb.v_evals"] += n
            return vector(vf, x, *args, **kwargs)

        return wrapped

    def _simulate(self, fn):
        def on_return(args, kwargs, result, dt):
            if self._inside["simulate"]:
                return  # simulate() delegating to simulate_at(): counted once
            params, roots, strategy, config = args[:4]
            results = result if isinstance(result, list) else [result]
            fam = "simulate." + family_of(strategy)
            steps = max(1, math.ceil(config.resolved_horizon(params.delta) / config.dt))
            self.counts[fam + ".s"] += dt
            self.counts[fam + ".paths"] += config.n_paths * len(results)
            self.counts[fam + ".nominal_path_steps"] += config.n_paths * len(results) * steps
            for res in results:
                self.counts[fam + ".periodic_payments"] += res.n_periodic_dividends
                self.counts[fam + ".immediate_payments"] += res.n_immediate_dividends
                self.counts[fam + ".ruined_paths"] += res.ruin_fraction * res.n_paths

        return self.span("simulate", fn, on_return)

    # -- report -----------------------------------------------------------

    def layer_self(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, (_, _, self_s) in self.stats.items():
            out[name.split(".")[0]] += self_s
        return out

    def metrics(self) -> dict[str, tuple[float, str]]:
        """The per-layer metrics, as (value, unit)."""
        st, c = self.stats, self.counts
        m: dict[str, tuple[float, str]] = {}

        def calls(name):
            return float(st[name][0]) if name in st else 0.0

        def self_s(name):
            return st[name][2] if name in st else 0.0

        m["cli.main.calls"] = (calls("cli.main"), "count")
        m["cli.main.self_s"] = (self_s("cli.main"), "s")
        m["core.solve_roots.calls"] = (calls("core.solve_roots"), "count")
        m["core.solve_roots.self_s"] = (self_s("core.solve_roots"), "s")
        m["solver.solve.calls"] = (calls("solver.solve"), "count")
        m["solver.solve.fails"] = (c["solver.solve.fails"], "count")
        m["solver.solve.self_s"] = (self_s("solver.solve"), "s")
        for regime in REGIMES:
            key = f"solver.solve.{regime}"
            m[key + ".calls"] = (c[key + ".calls"], "count")
            m[key + ".s"] = (c[key + ".s"], "s")
        m["solver.kernel_evals"] = (calls("solver.kernel"), "count")
        m["solver.kernel_s"] = (self_s("solver.kernel"), "s")
        m["solver.objective.self_s"] = (self_s("solver.objective"), "s")
        m["rootfind.calls"] = (calls("rootfind"), "count")
        m["rootfind.fn_evals"] = (c["rootfind.fn_evals"], "count")
        m["rootfind.self_s"] = (self_s("rootfind"), "s")
        for part in ("scalar", "init", "vector"):
            m[f"values.{part}.calls"] = (calls(f"values.{part}"), "count")
            m[f"values.{part}.self_s"] = (self_s(f"values.{part}"), "s")
        m["values.vector.points"] = (c["values.vector.points"], "count")
        m["verify.check_hjb.calls"] = (calls("verify.check_hjb"), "count")
        m["verify.check_hjb.self_s"] = (self_s("verify.check_hjb"), "s")
        m["verify.check_hjb.v_evals"] = (c["verify.check_hjb.v_evals"], "count")
        m["verify.audit.self_s"] = (self_s("verify.audit"), "s")
        m["verify.lattice.self_s"] = (self_s("verify.lattice"), "s")
        m["verify.lattice.points"] = (c["verify.lattice.points"], "count")
        for fam in FAMILIES:
            key = f"simulate.{fam}"
            m[key + ".s"] = (c[key + ".s"], "s")
            m[key + ".paths"] = (c[key + ".paths"], "count")
            m[key + ".nominal_path_steps"] = (c[key + ".nominal_path_steps"], "count")
            m[key + ".periodic_payments"] = (c[key + ".periodic_payments"], "count")
            m[key + ".immediate_payments"] = (c[key + ".immediate_payments"], "count")
            paths = c[key + ".paths"]
            m[key + ".ruin_fraction"] = (c[key + ".ruined_paths"] / paths if paths else 0.0, "frac")
        for layer, value in self.layer_self().items():
            m[f"layer.{layer}.self_s"] = (value, "s")
        return m

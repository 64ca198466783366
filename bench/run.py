"""divopt benchmark: one workload per run, a closed loop with one caller.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload {sweep,certify,mc} --seed N --seconds S --trace {0,1}

The package is imported from ``src/`` of the checkout; the script exits
with code 2, printing no result, when it is not there.

Phases of a run:

1. set-up: ``import divopt`` (timed in fresh interpreters) and the
   workload's input draws and pre-solves (repeated; medians reported);
2. the timed phase: whole rounds of ops until ``--seconds`` have passed.
   The rounds make up one pass of inputs fixed by the seed, which the
   phase repeats from its start as often as time allows. With
   ``--trace 1`` the first half runs untraced and the second half
   traced, and the layer table of the project roadmap is re-timed after;
3. the correctness check of every op's output, outside the timed phase.
   Ops of the pass that the timed phase did not reach are run first, so
   ``attempted`` is always one whole pass.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the end-to-end
metrics without tracing, the per-layer metrics with it. The lines before
it, and a copy written under ``.bench_out/``, record the machine and run.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
# set-up is timed several times and the medians reported: import probes
# are cheap and noisy, input builds (with pre-solves) are not cheap
IMPORT_REPEATS = 5
BUILD_REPEATS = 3

_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import divopt; print(time.perf_counter() - t)"
)


class DeadlineExceeded(BaseException):
    """An op ran past its deadline (a BaseException, so no handler in the
    program can swallow it)."""


@contextlib.contextmanager
def deadline(seconds: float):
    """Interrupt the block after `seconds` with an interval timer (no threads)."""
    armed = [True]

    def on_alarm(signum, frame):
        if armed[0]:
            raise DeadlineExceeded(f"op exceeded {seconds} s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        armed[0] = False
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def machine_info(seed: int) -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    import numpy

    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "seed": seed,
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
    }


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "none (not a git checkout)"


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "divopt").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def time_import() -> float:
    """Median wall time of `import divopt` in fresh interpreters."""
    times = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


class Overrun:
    """Marker output of an op stopped by its deadline."""


class Crashed:
    """Marker output of an op that raised an unexpected exception."""


def run_op(wl, item, tracer=None):
    """Run one op under its deadline; an overrun or a crash is its output."""
    try:
        with deadline(item.deadline_s):
            return tracer.op(wl.run, item) if tracer else wl.run(item)
    except DeadlineExceeded:
        return Overrun()
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return Crashed()


def run_phase(wl, rounds, seconds: float, tracer=None):
    """Run whole rounds of the pass, from its start and over again, until
    `seconds` have passed; returns (done, elapsed)."""
    done = []
    t0 = time.perf_counter()
    r = 0
    while True:
        for item in rounds[r % len(rounds)]:
            done.append((item, run_op(wl, item, tracer)))
        r += 1
        if time.perf_counter() - t0 >= seconds:
            return done, time.perf_counter() - t0


def finish_pass(wl, rounds, done) -> list:
    """Run, untimed, the ops of the pass that the timed phase did not reach."""
    seen = {id(item) for item, _ in done}
    return [(item, run_op(wl, item)) for items in rounds for item in items if id(item) not in seen]


def ops_of(done) -> int:
    return sum(item.ops for item, _ in done)


def check_all(wl, done) -> tuple[int, int, dict]:
    """(attempted, failed, failures by kind) over the distinct ops of a pass.

    An op fails when it overruns its deadline, crashes, reports an error,
    or gives an answer its check rejects; only the last is a wrong answer.
    Every run of an op is checked. An op the timed phase repeated counts
    once, with its worst run, so both counts depend on the seed alone and
    not on how many passes a run got through.
    """
    worst = {}
    for item, out in done:
        if isinstance(out, Overrun):
            kinds = {"deadline": item.ops}
        elif isinstance(out, Crashed):
            kinds = {"crashed": item.ops}
        else:
            n_failed, n_wrong = wl.check(item, out)
            kinds = {"error": n_failed - n_wrong, "wrong": n_wrong}
        if id(item) not in worst or sum(kinds.values()) > sum(worst[id(item)][1].values()):
            worst[id(item)] = (item, kinds)
    totals = {"deadline": 0, "crashed": 0, "error": 0, "wrong": 0}
    for _, kinds in worst.values():
        for kind, n in kinds.items():
            totals[kind] += n
    attempted = sum(item.ops for item, _ in worst.values())
    return attempted, sum(totals.values()), totals


# ---------------------------------------------------------------------------
# the roadmap's layer table, re-timed without tracing

# ROADMAP open item 1, "Baseline to reproduce", in ms
ROADMAP_TABLE_MS = {
    "baseline.solve_roots_ms": 5.6e-3,
    "baseline.solve.periodic_zero_ms": 19e-3,
    "baseline.solve.liquidation_finite_ms": 0.21,
    "baseline.solve.liquidation_half_ms": 0.81,
    "baseline.solve.periodic_ms": 1.4,
    "baseline.solve.hybrid_ms": 42.0,
    "baseline.vector_v_vprime_1e5_ms": 6.5,
    "baseline.scalar_vprime_ms": 25e-3,
    "baseline.check_hjb_ms": 36.0,
}


def per_call_ms(fn, batches: int = 5, min_batch_s: float = 0.02) -> float:
    """Median per-call time over batches long enough to time reliably."""
    n = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        dt = time.perf_counter() - t0
        if dt >= min_batch_s:
            break
        n *= 2
    samples = [dt / n]
    for _ in range(batches - 1):
        t0 = time.perf_counter()
        for _ in range(n):
            fn()
        samples.append((time.perf_counter() - t0) / n)
    return 1e3 * statistics.median(samples)


def baseline_table() -> dict[str, float]:
    import numpy as np

    from divopt import ModelParams, Regime, ValueFunction, check_hjb, solve, solve_roots
    from workloads import NEG, POS

    # POS and NEG are the acceptance points; the other three are one point
    # per remaining regime, beside them
    cases = {
        "hybrid": (POS, Regime.PROFITABLE_HYBRID),
        "liquidation_finite": (NEG, Regime.UNPROFITABLE_LIQUIDATION_FINITE),
        "periodic": (ModelParams(1.0, 0.3, 0.01, 0.8, 1.0, 0.15), Regime.PROFITABLE_PERIODIC),
        "periodic_zero": (ModelParams(-1.0, 0.3, 0.7, 0.7, 1.0, 0.15),
                          Regime.UNPROFITABLE_PERIODIC_ZERO),
        "liquidation_half": (ModelParams(-1.0, 0.3, 0.15, 0.9, 1.0, 0.15),
                             Regime.UNPROFITABLE_LIQUIDATION_HALF),
    }
    out = {"baseline.solve_roots_ms": per_call_ms(lambda: solve_roots(POS))}
    for name, (params, regime) in cases.items():
        if solve(params).regime is not regime:
            raise RuntimeError(f"baseline point for {name} is not in regime {regime}")
        out[f"baseline.solve.{name}_ms"] = per_call_ms(lambda p=params: solve(p))
    roots = solve_roots(POS)
    st = solve(POS).strategy
    vf = ValueFunction(POS, roots, st)
    xs = np.linspace(0.0, 3.0 * st.b, 100_000)
    out["baseline.scalar_vprime_ms"] = per_call_ms(lambda: vf.d1(0.5 * st.b))
    out["baseline.vector_v_vprime_1e5_ms"] = per_call_ms(lambda: (vf(xs), vf.d1(xs)))
    out["baseline.check_hjb_ms"] = per_call_ms(lambda: check_hjb(POS, roots, st))
    return out


# ---------------------------------------------------------------------------


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("sweep", "certify", "mc"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (args.seconds > 0 and args.seed >= 0):
        ap.error("--seconds must be > 0 and --seed >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "divopt" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'divopt'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import divopt

    if Path(divopt.__file__).resolve().parent != (SRC / "divopt").resolve():
        print(f"error: imported divopt from {divopt.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import tracing
    import workloads

    info = machine_info(args.seed)
    info.update(workload=args.workload, seconds=args.seconds, trace=args.trace)
    print("# run " + json.dumps(info), flush=True)

    OUT_DIR.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[args.workload]

    import_s = time_import()
    build_times = []
    for _ in range(BUILD_REPEATS):
        t0 = time.perf_counter()
        rounds = wl.build(args.seed, str(OUT_DIR))
        build_times.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(build_times)

    metrics: dict[str, tuple[float, str]] = {}
    notes: dict[str, str] = {}
    if not args.trace:
        done, elapsed = run_phase(wl, rounds, args.seconds)
        attempted, failed, kinds = check_all(wl, done + finish_pass(wl, rounds, done))
        metrics["ops_per_s"] = (ops_of(done) / elapsed, "1/s")
        metrics["ok_frac"] = ((attempted - failed) / attempted, "frac")
        metrics["setup_s"] = (setup_s, "s")
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = (peak_kb / 1024.0, "MB")
    else:
        plain, plain_s = run_phase(wl, rounds, args.seconds / 2)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced, traced_s = run_phase(wl, rounds, args.seconds / 2, tracer)
        finally:
            tracer.uninstall()
        done = plain + traced
        untraced_rate = ops_of(plain) / plain_s
        traced_rate = ops_of(traced) / traced_s
        attempted, failed, kinds = check_all(wl, done + finish_pass(wl, rounds, done))
        metrics.update(tracer.metrics())
        metrics["trace.ops_per_s_untraced"] = (untraced_rate, "1/s")
        metrics["trace.ops_per_s_traced"] = (traced_rate, "1/s")
        metrics["trace.overhead_frac"] = (untraced_rate / traced_rate - 1.0, "frac")
        spans_s = sum(tracer.layer_self().values())
        metrics["account.wall_s"] = (traced_s, "s")
        metrics["account.unaccounted_s"] = (traced_s - spans_s, "s")
        for fam in tracing.FAMILIES:
            ratios = [
                err / tol
                for item, out in traced
                if getattr(item, "family", None) == fam and isinstance(out, tuple)
                for err, tol in workloads.mc_errors(item, out)
            ]
            metrics[f"simulate.{fam}.err_over_tol"] = (max(ratios, default=0.0), "frac")
            if not ratios:
                notes[f"simulate.{fam}.*"] = f"absent: {args.workload} runs no simulation"
        base = baseline_table()
        for name, ms in base.items():
            metrics[name] = (ms, "ms")
            notes[name] = f"roadmap table {ROADMAP_TABLE_MS[name]:g} ms, measured/table {ms / ROADMAP_TABLE_MS[name]:.2f}"
        for name, (value, _) in metrics.items():
            if value == 0.0 and name.endswith((".calls", ".self_s", ".points", ".v_evals")):
                notes.setdefault(name, f"absent: {args.workload} makes no such call")
        trace_path = OUT_DIR / f"trace-{args.workload}-s{args.seed}.json"
        trace_path.write_text(json.dumps({
            "run": info, "stats": dict(tracer.stats),
            "spans": tracer.spans,
            "span_fields": ["op", "parent", "name", "start_s", "end_s"],
        }))

    with contextlib.suppress(FileNotFoundError):
        os.remove(OUT_DIR / f"sweep-{os.getpid()}.csv")

    report = {
        "correct": kinds["wrong"] == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(f"# setup: import {import_s:.4f} s, build median {statistics.median(build_times):.4f} s")
    print(f"# failures: {json.dumps(kinds)}, fail_frac {failed / attempted:.6g}")
    for name, note in notes.items():
        print(f"# note {name}: {note}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    (OUT_DIR / f"result-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps({"run": info, "notes": notes, "failures": kinds, **report}, indent=1)
    )
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

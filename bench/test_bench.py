"""Tests of the benchmark itself: negative controls, deadlines, tracing.

The negative controls make sure a workload's check cannot pass vacuously:
a strategy or a barrier known to be wrong must be counted as a failure.
"""

import sys
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402
from divopt import (  # noqa: E402
    Hybrid,
    Regime,
    ValueFunction,
    classify_regime,
    solve,
    solve_roots,
)


def test_certify_negative_control_counts_as_failure():
    st = solve(W.POS).strategy
    good = W.CertifyItem(W.POS, st)
    # criterion 4's control: an inflated periodic barrier
    bad = W.CertifyItem(W.POS, Hybrid(st.a_p + 0.3, max(st.a_c, st.a_p + 0.3), st.b))
    done = [(item, W.run_certify(item)) for item in (good, bad)]
    assert W.check_certify(*done[0]) == (0, 0)
    assert W.check_certify(*done[1]) == (1, 1)
    attempted, failed, kinds = run.check_all(W.WORKLOADS["certify"], done)
    assert (attempted, failed, kinds["wrong"]) == (2, 1, 1)


def _pos_chi_sweep(tmp_path, ops=3):
    return W.SweepItem(W.POS, "chi", 0.005, 0.02, str(tmp_path / "s.csv"), ops=ops)


def test_sweep_negative_control_counts_as_failure(tmp_path):
    item = _pos_chi_sweep(tmp_path)
    code, text = W.run_sweep(item)
    assert code == 0
    assert W.check_sweep(item, (code, text)) == (0, 0)
    header, *rows = text.splitlines()
    cells = rows[1].split(",")
    cells[4] = repr(float(cells[4]) + 1e-3)  # upper barrier b
    rows[1] = ",".join(cells)
    bad = "\n".join([header] + rows) + "\n"
    assert W.check_sweep(item, (code, bad)) == (1, 1)
    attempted, failed, _ = run.check_all(W.WORKLOADS["sweep"], [(item, (code, bad))])
    assert failed / attempted > 0


def test_sweep_error_rows_fail_without_a_wrong_answer(tmp_path):
    item = _pos_chi_sweep(tmp_path)
    code, text = W.run_sweep(item)
    header, *rows = text.splitlines()
    rows[0] = rows[0].split(",")[0] + "," * 8 + ",solver residuals exceed tol"
    assert W.check_sweep(item, (code, "\n".join([header] + rows))) == (1, 0)
    assert W.check_sweep(item, (3, "")) == (item.ops, 0)


def test_sweep_passes_negative_exponent_values(tmp_path):
    base = replace(W.NEG, mu=-1.2e-05)
    item = W.SweepItem(base, "delta", 0.1, 0.5, str(tmp_path / "s.csv"), ops=2)
    code, text = W.run_sweep(item)
    assert code == 0
    assert len(text.splitlines()) == 3
    assert W.check_sweep(item, (code, text)) == (0, 0)


def test_sweep_rounds_have_fixed_regime_mix(tmp_path):
    a = W.build_sweep(3, str(tmp_path))
    assert len(a) == W.SWEEP_ROUNDS
    assert a == W.build_sweep(3, str(tmp_path))
    assert a != W.build_sweep(4, str(tmp_path))
    hybrid = Regime.PROFITABLE_HYBRID
    for items in a[:3]:
        points = [p for it in items for p in it.points()]
        assert len(points) == W.SWEEP_PER_ROUND * W.SWEEP_COUNT
        n_hybrid = sum(classify_regime(p, solve_roots(p)) is hybrid for p in points)
        assert n_hybrid == W.SWEEP_HYBRID_POINTS


def test_certify_pool_has_fixed_regime_mix():
    (pool,) = W.build_certify(3, "")
    assert len(pool) == W.CERTIFY_POOL
    n_hybrid = sum(W.is_hybrid(item.params) for item in pool)
    assert n_hybrid == W.CERTIFY_POOL // 2 + W.CERTIFY_C1_HYBRIDS


def test_crit2_generator_redraws_instead_of_failing():
    rng = np.random.default_rng(0)
    for _ in range(2000):
        p = W.crit2_hybrid_params(rng)
        assert p.beta > p.pvfactor + 0.015 - 1e-12


def test_mc_check_uses_criterion_5_tolerance():
    item = next(it for it in W.build_mc(0, "")[0] if it.family == "periodic_zero")
    item = replace(item, n_paths=400)
    allowance, results = W.run_mc(item)
    assert W.check_mc(item, (allowance, results)) == (0, 0)
    vf = ValueFunction(item.params, item.roots, item.strategy)
    shifted = [replace(r, epv_mean=float(vf(r.x0)) + 10.0) for r in results]
    assert W.check_mc(item, (allowance, shifted)) == (4 * 400, 4 * 400)


@dataclass(frozen=True)
class _SleepItem:
    ops: int = 5
    deadline_s: float = 0.05


class _SleepWorkload:
    @staticmethod
    def run(item):
        time.sleep(2.0)


def test_deadline_turns_a_hang_into_a_counted_failure():
    t0 = time.perf_counter()
    done, _ = run.run_phase(_SleepWorkload, [[_SleepItem()]], seconds=0.01)
    assert time.perf_counter() - t0 < 1.0
    assert isinstance(done[0][1], run.Overrun)
    attempted, failed, kinds = run.check_all(_SleepWorkload, done)
    assert attempted == failed == kinds["deadline"] == 5


def test_repeated_ops_count_once_with_their_worst_run(tmp_path):
    good, other = _pos_chi_sweep(tmp_path), _pos_chi_sweep(tmp_path, ops=2)
    out = W.run_sweep(good)
    rounds = [[good], [other]]
    # the timed phase reached good twice, once overrunning, and never other
    done = [(good, out), (good, run.Overrun()), (good, out)]
    done += run.finish_pass(W.WORKLOADS["sweep"], rounds, done)
    assert [item for item, _ in done[3:]] == [other]
    attempted, failed, kinds = run.check_all(W.WORKLOADS["sweep"], done)
    assert (attempted, failed, kinds["deadline"]) == (good.ops + other.ops, good.ops, good.ops)


def test_tracer_accounts_for_the_op_and_restores_the_program(tmp_path):
    import divopt.cli
    import divopt.solver

    originals = (divopt.cli.main, divopt.solver.bisect_secant, ValueFunction.d1)
    item = _pos_chi_sweep(tmp_path, ops=2)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        tracer.op(W.run_sweep, item)
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    assert (divopt.cli.main, divopt.solver.bisect_secant, ValueFunction.d1) == originals
    m = tracer.metrics()
    assert m["cli.main.calls"][0] == 1
    assert m["solver.solve.profitable_hybrid.calls"][0] == 2
    assert m["solver.kernel_evals"][0] > 0
    assert m["rootfind.fn_evals"][0] >= m["solver.kernel_evals"][0]
    spans_s = sum(tracer.layer_self().values())
    assert spans_s == pytest.approx(tracer.stats["bench.op"][1], rel=1e-9)
    assert spans_s <= wall


def test_tracer_counts_values_points_inside_check_hjb():
    roots = solve_roots(W.POS)
    st = solve(W.POS).strategy
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.op(W.verify.check_hjb, W.POS, roots, st)
    finally:
        tracer.uninstall()
    m = tracer.metrics()
    assert m["verify.check_hjb.calls"][0] == 1
    assert m["verify.check_hjb.v_evals"][0] == m["values.vector.points"][0] > 2000

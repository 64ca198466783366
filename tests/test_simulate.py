import importlib
import math

import numpy as np
import pytest

from divopt import (
    ConfigError,
    Hybrid,
    Liquidation,
    ModelParams,
    PeriodicBarrier,
    PeriodicZero,
    SimConfig,
    ValueFunction,
    policy_step,
    simulate,
    simulate_at,
    solve,
    solve_roots,
)


class TestPolicyStep:
    def test_hybrid_payment_map(self):
        st = Hybrid(1.0, 2.0, 4.0)
        d = policy_step(st, 4.5, is_decision_time=False)
        assert (d.amount, d.kind) == (2.5, "immediate")
        d = policy_step(st, 3.0, is_decision_time=True)
        assert (d.amount, d.kind) == (2.0, "periodic")
        d = policy_step(st, 3.0, is_decision_time=False)
        assert d.amount == 0.0
        d = policy_step(st, 0.5, is_decision_time=True)
        assert d.amount == 0.0  # at or below a_p: zero payment, a no-op

    def test_liquidation_payment_map(self):
        st = Liquidation(1.0, 2.0)
        assert policy_step(st, 1.5, False).amount == 1.5
        assert policy_step(st, 2.5, False).amount == 0.0
        assert policy_step(st, 1.0, False).amount == 0.0  # endpoints excluded
        assert policy_step(st, 2.5, True) == policy_step(st, 2.5, True)
        assert policy_step(st, 2.5, True).amount == 2.5
        assert policy_step(st, 2.5, True).kind == "periodic"

    def test_periodic_families(self):
        assert policy_step(PeriodicZero(), 1.7, True).amount == 1.7
        assert policy_step(PeriodicZero(), 1.7, False).amount == 0.0
        assert policy_step(PeriodicBarrier(1.0), 1.7, True).amount == pytest.approx(0.7)
        assert policy_step(PeriodicBarrier(1.0), 0.7, True).amount == 0.0

    def test_negative_surplus_rejected(self):
        with pytest.raises(ValueError):
            policy_step(PeriodicZero(), -0.1, True)


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            SimConfig(dt=0.0)
        with pytest.raises(ConfigError):
            SimConfig(n_paths=0)
        with pytest.raises(ConfigError):
            SimConfig(n_paths=101, antithetic=True)
        with pytest.raises(ConfigError):
            SimConfig(truncation_tol=2.0)

    def test_non_integral_path_count_rejected(self):
        with pytest.raises(ConfigError):
            SimConfig(n_paths=10.5, antithetic=False)

    def test_horizon_resolution(self):
        cfg = SimConfig(truncation_tol=1e-6)
        assert cfg.resolved_horizon(0.15) == pytest.approx(-math.log(1e-6) / 0.15)
        with pytest.raises(ConfigError):
            SimConfig(horizon=1.0, truncation_tol=1e-6).resolved_horizon(0.15)
        ok = SimConfig(horizon=40.0, truncation_tol=3e-3)
        assert ok.resolved_horizon(0.15) == 40.0


class TestSimulate:
    def test_start_at_zero_is_immediate_ruin(self, neg_params, neg_roots):
        res = simulate(
            neg_params, neg_roots, PeriodicZero(), SimConfig(x0=0.0, n_paths=64, dt=0.01)
        )
        assert res.epv_mean == 0.0
        assert res.ruin_fraction == 1.0
        assert res.mean_ruin_time == 0.0

    def test_no_starting_point_rejected(self, neg_params, neg_roots):
        with pytest.raises(ConfigError):
            simulate_at(neg_params, neg_roots, PeriodicZero(), SimConfig(n_paths=64), [])

    def test_engine_counters(self, pos_params, pos_roots):
        st = solve(pos_params).strategy
        cfg = SimConfig(dt=1e-2, n_paths=400, seed=4, truncation_tol=1e-2)
        rs = simulate_at(pos_params, pos_roots, st, cfg, [0.5, st.b + 1.0])
        n_max = math.ceil(cfg.resolved_horizon(pos_params.delta) / cfg.dt)
        for r in rs:
            assert (r.n_steps, r.n_blocks) == (rs[0].n_steps, rs[0].n_blocks)
            assert 1 <= r.n_blocks <= r.n_steps <= n_max
            assert r.n_periodic_dividends <= r.n_decision_events
            # every path lives to the horizon unless it is ruined
            assert r.path_steps <= r.n_paths * r.n_steps
            assert r.path_steps >= (1.0 - r.ruin_fraction) * r.n_paths * r.n_steps
        assert rs == simulate_at(pos_params, pos_roots, st, cfg, [0.5, st.b + 1.0])

    def test_deterministic_given_seed(self, neg_params, neg_roots):
        cfg = SimConfig(x0=0.5, dt=5e-3, n_paths=2000, seed=9)
        a = simulate(neg_params, neg_roots, PeriodicZero(), cfg)
        b = simulate(neg_params, neg_roots, PeriodicZero(), cfg)
        assert a == b
        c = simulate(
            neg_params, neg_roots, PeriodicZero(),
            SimConfig(x0=0.5, dt=5e-3, n_paths=2000, seed=10),
        )
        assert c.epv_mean != a.epv_mean

    def test_periodic_zero_matches_closed_form(self, neg_params, neg_roots):
        vf = ValueFunction(neg_params, neg_roots, PeriodicZero())
        cfg = SimConfig(x0=0.5, dt=1e-3, n_paths=30_000, seed=21)
        res = simulate(neg_params, neg_roots, PeriodicZero(), cfg)
        assert abs(res.epv_mean - float(vf(0.5))) < 4.0 * res.epv_stderr + 2e-3
        assert res.ruin_fraction == pytest.approx(1.0, abs=1e-3)

    def test_liquidation_inside_window_pays_out_at_once(self, neg_params, neg_roots):
        st = solve(neg_params).strategy
        x0 = 0.5 * (st.b1 + st.b2)
        res = simulate(neg_params, neg_roots, st, SimConfig(x0=x0, n_paths=100, dt=0.01))
        assert res.epv_mean == pytest.approx(neg_params.beta * x0 - neg_params.chi)
        assert res.ruin_fraction == 1.0
        assert res.n_immediate_dividends == 100

    def test_hybrid_start_above_b_triggers_at_time_zero(self, pos_params, pos_roots):
        st = solve(pos_params).strategy
        cfg = SimConfig(x0=st.b + 1.0, n_paths=200, dt=5e-3, truncation_tol=5e-3)
        res = simulate(pos_params, pos_roots, st, cfg)
        assert res.n_immediate_dividends >= 200  # one per path at t = 0

    def test_no_immediate_payments_without_a_trigger(self, neg_params, neg_roots):
        res = simulate(
            neg_params, neg_roots, PeriodicBarrier(0.4),
            SimConfig(x0=0.5, dt=5e-3, n_paths=3000, seed=5),
        )
        assert res.n_immediate_dividends == 0
        assert res.n_periodic_dividends > 0

    def test_zero_payments_are_not_counted(self, neg_params, neg_roots):
        # surplus can never reach the periodic barrier, so every decision
        # pays zero and the counter stays at zero
        res = simulate(
            neg_params, neg_roots, PeriodicBarrier(50.0),
            SimConfig(x0=0.5, dt=5e-3, n_paths=500, seed=5),
        )
        assert res.n_periodic_dividends == 0
        assert res.epv_mean == 0.0

    def test_antithetic_and_plain_agree(self, neg_params, neg_roots):
        vf = ValueFunction(neg_params, neg_roots, PeriodicZero())
        exact = float(vf(0.5))
        for anti in (False, True):
            cfg = SimConfig(x0=0.5, dt=2e-3, n_paths=20_000, seed=3, antithetic=anti)
            res = simulate(neg_params, neg_roots, PeriodicZero(), cfg)
            assert abs(res.epv_mean - exact) < 4.0 * res.epv_stderr + 2e-3

    def test_common_random_numbers_batch(self, neg_params, neg_roots):
        cfg = SimConfig(dt=2e-3, n_paths=4000, seed=13)
        rs = simulate_at(neg_params, neg_roots, PeriodicZero(), cfg, [0.25, 0.5, 1.0])
        vf = ValueFunction(neg_params, neg_roots, PeriodicZero())
        assert [r.x0 for r in rs] == [0.25, 0.5, 1.0]
        # higher start, higher value
        assert rs[0].epv_mean < rs[1].epv_mean < rs[2].epv_mean
        for r in rs:
            assert abs(r.epv_mean - float(vf(r.x0))) < 5.0 * r.epv_stderr + 5e-3

    def test_bridge_correction_lowers_the_grid_bias(self, neg_params, neg_roots):
        # grid detection misses intra-step ruin, biasing the estimate up;
        # the bridge correction removes it. Both runs share their increments,
        # so their difference is a paired shift far less noisy than either
        # estimate: at this dt it is 5.6e-4 +- 4.4e-5 over seeds 100-111,
        # while each estimate's stderr is 4.8e-4
        vf = ValueFunction(neg_params, neg_roots, PeriodicZero())
        base = dict(x0=0.3, dt=0.032, n_paths=60_000, seed=17)
        plain = simulate(neg_params, neg_roots, PeriodicZero(), SimConfig(**base))
        bridged = simulate(
            neg_params, neg_roots, PeriodicZero(),
            SimConfig(bridge_correction=True, **base),
        )
        assert plain.epv_mean - bridged.epv_mean > 0.0
        exact = float(vf(0.3))
        assert abs(bridged.epv_mean - exact) < 3.0 * bridged.epv_stderr

    def test_perturbed_strategy_never_beats_solved(self, pos_params, pos_roots):
        st = solve(pos_params).strategy
        worse = Hybrid(st.a_p + 0.25, st.a_c + 0.25, st.b + 0.25)
        cfg = SimConfig(x0=0.5, dt=5e-3, n_paths=20_000, seed=29, truncation_tol=1e-4)
        a = simulate(pos_params, pos_roots, st, cfg)
        b = simulate(pos_params, pos_roots, worse, cfg)
        margin = 3.0 * math.hypot(a.epv_stderr, b.epv_stderr)
        assert a.epv_mean >= b.epv_mean - margin


def test_halving_dt_moves_less_than_stderr_at_baseline(neg_params, neg_roots):
    # discretisation convergence at the full-liquidation reference point
    base = dict(x0=0.5, n_paths=100_000, seed=71, truncation_tol=2e-3)
    a = simulate(neg_params, neg_roots, PeriodicZero(), SimConfig(dt=1e-3, **base))
    b = simulate(neg_params, neg_roots, PeriodicZero(), SimConfig(dt=5e-4, **base))
    combined = math.hypot(a.epv_stderr, b.epv_stderr)
    assert abs(a.epv_mean - b.epv_mean) < combined


class TestGridSemantics:
    """Near-deterministic paths (sigma = 1e-9, and gamma = 1e-9 so that no
    decision time falls in the horizon) pin down where the engine monitors
    ruin and the immediate trigger: at grid points t = k dt only."""

    DT = 0.01

    @staticmethod
    def _params(mu, chi=0.0, beta=1.0, delta=0.5):
        return ModelParams(mu=mu, sigma=1e-9, chi=chi, beta=beta, gamma=1e-9, delta=delta)

    def _run(self, params, strategy, x0, horizon):
        cfg = SimConfig(x0=x0, dt=self.DT, horizon=horizon, n_paths=4, seed=1,
                        truncation_tol=0.5)
        return simulate(params, solve_roots(params), strategy, cfg)

    def test_hybrid_triggers_at_grid_points(self):
        p = self._params(mu=1.0, chi=0.02, beta=0.9)
        # X(t) = 1 + t crosses b = 2.005 at t = 1.005; the first grid point
        # at or above b is t = 1.01 (X = 2.01), after which the reset to
        # a_c = 1 repeats the same 101-step cycle
        res = self._run(p, Hybrid(0.5, 1.0, 2.005), x0=1.0, horizon=10.0)
        times = [1.01 * k for k in range(1, 10)]
        pay = p.beta * (2.01 - 1.0) - p.chi
        assert res.n_immediate_dividends == 4 * len(times)
        assert res.n_periodic_dividends == 0
        assert res.ruin_fraction == 0.0
        expected = sum(math.exp(-p.delta * t) * pay for t in times)
        assert res.epv_mean == pytest.approx(expected, rel=1e-5)

    def test_periodic_zero_ruins_at_first_grid_point_below_zero(self):
        p = self._params(mu=-1.0)
        # X(t) = 0.505 - t is 0.005 at t = 0.50 and -0.005 at t = 0.51
        res = self._run(p, PeriodicZero(), x0=0.505, horizon=5.0)
        assert res.ruin_fraction == 1.0
        assert res.mean_ruin_time == pytest.approx(0.51)
        assert res.epv_mean == 0.0

    def test_liquidation_pays_at_first_grid_point_inside_the_band(self):
        p = self._params(mu=-1.0, chi=0.01, beta=0.8)
        # X(t) = 1.005 - t visits the grid values ..., 0.495, 0.485, 0.475
        res = self._run(p, Liquidation(0.48, 0.49), x0=1.005, horizon=5.0)
        assert res.n_immediate_dividends == 4
        assert res.mean_ruin_time == pytest.approx(0.52)
        expected = math.exp(-p.delta * 0.52) * (p.beta * 0.485 - p.chi)
        assert res.epv_mean == pytest.approx(expected, rel=1e-5)

    def test_liquidation_band_between_grid_points_is_never_entered(self):
        # the path's range covers (0.487, 0.493), but no grid value lies in
        # it, so nothing is paid and the path ruins at t = 1.01
        p = self._params(mu=-1.0, chi=0.01, beta=0.8)
        res = self._run(p, Liquidation(0.487, 0.493), x0=1.005, horizon=5.0)
        assert res.n_immediate_dividends == 0
        assert res.epv_mean == 0.0
        assert res.ruin_fraction == 1.0
        assert res.mean_ruin_time == pytest.approx(1.01)


@pytest.mark.parametrize("family", ["hybrid", "liquidation"])
def test_block_size_leaves_the_estimate(family, pos_params, pos_roots,
                                        neg_params, neg_roots, monkeypatch):
    # one step per block against the longest blocks: the same estimator,
    # each reproducible for its seed (the draws differ once columns whose
    # paths have all finished are dropped at different times)
    params, roots = (pos_params, pos_roots) if family == "hybrid" else (neg_params, neg_roots)
    st = solve(params).strategy
    x0s = [0.5, st.b + 0.5] if family == "hybrid" else [0.15, st.b2 + 0.5]
    cfg = SimConfig(dt=2e-2, n_paths=1000, seed=8, truncation_tol=1e-2)
    engine = importlib.import_module("divopt.simulate")
    runs = {}
    for steps in (1, 4096):
        monkeypatch.setattr(engine, "_block_steps", lambda n_cols, k=steps: k)
        runs[steps] = simulate_at(params, roots, st, cfg, x0s)
        assert runs[steps] == simulate_at(params, roots, st, cfg, x0s)
    assert runs[1][0].n_blocks == runs[1][0].n_steps
    for a, b in zip(runs[1], runs[4096]):
        assert abs(a.epv_mean - b.epv_mean) < 4.0 * math.hypot(a.epv_stderr, b.epv_stderr)

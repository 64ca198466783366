import ast
import importlib.util
import math
from pathlib import Path

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
    Strategy,
    ValueFunction,
    simulate,
    simulate_at,
    solve,
    solve_roots,
)
from divopt.simulate import _Rules


class TestPolicyStep:
    """The payment rules the engine applies (simulate._Rules): pay(x, clock)
    gives (amount, new surplus) under the periodic rule where clock holds
    and the immediate rule elsewhere, where an amount <= 0 is no payment
    and a new surplus of 0 ends the path; triggered(x) the trigger set,
    interval(x) the ends of the interval a step exits (scalars when there
    is one interval below the band)."""

    def test_hybrid_payment_map(self):
        rules = _Rules(Hybrid(1.0, 2.0, 4.0))
        # the trigger set [b, inf) is closed at b
        x = np.array([0.5, 3.0, 3.99, 4.0, 4.5])
        assert rules.triggered(x).tolist() == [False, False, False, True, True]
        amount, new = rules.pay(np.array([4.5]), False)
        assert (amount.tolist(), new.tolist()) == ([2.5], [2.0])
        # at or below a_p a decision time pays nothing and keeps the level
        amount, new = rules.pay(np.array([3.0, 0.5]), True)
        assert (amount.tolist(), new.tolist()) == ([2.0, -0.5], [1.0, 0.5])
        # the rule is chosen per path
        amount, new = rules.pay(np.array([3.0, 4.5]), np.array([True, False]))
        assert (amount.tolist(), new.tolist()) == ([2.0, 2.5], [1.0, 2.0])
        assert rules.interval(np.array([0.5, 3.0])) == (0.0, 4.0)

    def test_liquidation_payment_map(self, neg_params, neg_roots):
        st = Liquidation(1.0, 2.0)
        rules = _Rules(st)
        # the trigger set [b1, b2) is closed at b1, like the hybrid's [b, inf):
        # V's right limit there is beta b1 - chi
        x = np.array([0.5, 1.0, 1.5, 2.0, 2.5])
        assert rules.triggered(x).tolist() == [False, True, True, False, False]
        # both rules pay everything, and the new level 0 ends the path
        amount, new = rules.pay(np.array([1.5]), False)
        assert (amount.tolist(), new.tolist()) == ([1.5], [0.0])
        amount, new = rules.pay(np.array([2.5]), True)
        assert (amount.tolist(), new.tolist()) == ([2.5], [0.0])
        lo, hi = rules.interval(np.array([0.5, 2.0, 2.5]))
        assert (lo.tolist(), hi.tolist()) == ([0.0, 2.0, 2.0], [1.0, math.inf, math.inf])
        # the engine ends every path that starts in [b1, b2) at time zero
        cfg = SimConfig(n_paths=64)
        for r in simulate_at(neg_params, neg_roots, st, cfg, [1.0, 1.5]):
            assert (r.ruin_fraction, r.n_immediate_dividends, r.n_events) == (1.0, 64, 0)
            assert r.max_chain == 0
            assert r.epv_mean == pytest.approx(neg_params.beta * r.x0 - neg_params.chi, rel=1e-12)

    def test_periodic_families(self):
        x = np.array([1.7, 0.7])
        pz, pb = _Rules(PeriodicZero()), _Rules(PeriodicBarrier(1.0))
        for rules in (pz, pb):
            assert not rules.triggered(x).any()
            assert rules.interval(x) == (0.0, math.inf)
        # periodic-zero pays everything down to the level 0, which ends the path
        amount, new = pz.pay(x, True)
        assert (amount.tolist(), new.tolist()) == ([1.7, 0.7], [0.0, 0.0])
        amount, new = pb.pay(x, True)
        assert amount.tolist() == pytest.approx([0.7, -0.3])
        assert new.tolist() == [1.0, 0.7]

    def test_negative_surplus_rejected(self, neg_params, neg_roots):
        with pytest.raises(ConfigError):
            simulate_at(neg_params, neg_roots, PeriodicZero(), SimConfig(n_paths=64), [-0.1])


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
        # fewer than two samples leave no standard error: one path, or one
        # antithetic pair
        for n_paths, antithetic in ((1, False), (2, True)):
            with pytest.raises(ConfigError):
                SimConfig(n_paths=n_paths, antithetic=antithetic)
        assert SimConfig(n_paths=2, antithetic=False).n_paths == 2

    def test_non_integral_path_count_rejected(self):
        with pytest.raises(ConfigError):
            SimConfig(n_paths=10.5, antithetic=False)

    @pytest.mark.parametrize("horizon", [math.nan, math.inf, 0.0, -1.0])
    def test_non_finite_or_non_positive_horizon_rejected(self, horizon):
        # nan would give eps = nan and cut every path after one step; inf
        # would give eps = 0 and never cut one
        with pytest.raises(ConfigError):
            SimConfig(horizon=horizon)

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

    def test_no_starting_point_rejected(self, neg_params, neg_roots):
        with pytest.raises(ConfigError):
            simulate_at(neg_params, neg_roots, PeriodicZero(), SimConfig(n_paths=64), [])

    def test_hybrid_netting_nothing_rejected(self, pos_params, pos_roots):
        # b - a_c = 0.001 <= chi/beta: refused before any path is drawn
        with pytest.raises(ConfigError):
            simulate_at(pos_params, pos_roots, Hybrid(0.3, 0.38, 0.381), SimConfig(), [0.5])

    def test_engine_counters(self, pos_params, pos_roots):
        st = solve(pos_params).strategy
        cfg = SimConfig(dt=1e-2, n_paths=400, seed=4, truncation_tol=1e-2)
        rs = simulate_at(pos_params, pos_roots, st, cfg, [0.5, st.b + 1.0])
        for r in rs:
            assert 0 < r.n_periodic_dividends <= r.n_decision_events < r.n_events
            # every path takes at least one step unless it pays out at time zero
            assert r.n_events >= r.n_paths
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

    def test_bounded_band_above_a_positive_level_matches_value(self, pos_params, pos_roots):
        # no family has a_p > 0 with a finite b2: above b2 a decision time
        # pays down to a_p, and the exit down at b2 pays down to a_c
        st = Strategy(0.3, 0.4, 1.3, 2.0)
        vf = ValueFunction(pos_params, pos_roots, st)
        cfg = SimConfig(n_paths=2000, seed=5, truncation_tol=1e-4)
        for r in simulate_at(pos_params, pos_roots, st, cfg, [1.0, 2.5, 4.0]):
            assert abs(r.epv_mean - float(vf(r.x0))) < 4.0 * r.epv_stderr + 1e-3

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

    def test_perturbed_strategy_never_beats_solved(self, pos_params, pos_roots):
        st = solve(pos_params).strategy
        worse = Hybrid(st.a_p + 0.25, st.a_c + 0.25, st.b + 0.25)
        cfg = SimConfig(x0=0.5, dt=5e-3, n_paths=20_000, seed=29, truncation_tol=1e-4)
        a = simulate(pos_params, pos_roots, st, cfg)
        b = simulate(pos_params, pos_roots, worse, cfg)
        margin = 3.0 * math.hypot(a.epv_stderr, b.epv_stderr)
        assert a.epv_mean >= b.epv_mean - margin


def test_results_do_not_depend_on_dt(pos_params, pos_roots):
    # the engine has no time grid: one seed gives byte-identical results
    st = solve(pos_params).strategy
    x0s = [0.5, st.a_c, st.b + 1.0]
    base = dict(n_paths=600, seed=71, truncation_tol=1e-3)
    a = simulate_at(pos_params, pos_roots, st, SimConfig(dt=1e-3, **base), x0s)
    b = simulate_at(pos_params, pos_roots, st, SimConfig(dt=5e-4, **base), x0s)
    assert a == b
    assert [r.epv_mean.hex() for r in a] == [r.epv_mean.hex() for r in b]


class TestNearDeterministicPaths:
    """sigma = 1e-9, and gamma = 1e-9 so that no decision time comes in
    reach, make each path the line x0 + mu t: exits happen at the exact
    crossing times, payments land on the barrier itself, and a band the
    line crosses is always entered."""

    @staticmethod
    def _run(mu, strategy, x0, chi=0.0, beta=1.0):
        p = ModelParams(mu=mu, sigma=1e-9, chi=chi, beta=beta, gamma=1e-9, delta=0.5)
        cfg = SimConfig(x0=x0, n_paths=4, seed=1, horizon=10.0, truncation_tol=0.5)
        return p, simulate(p, solve_roots(p), strategy, cfg)

    def test_hybrid_pays_at_each_crossing_of_b(self):
        # X(t) = 1 + t reaches b = 2.005 at t = 1.005 and pays down to a_c = 1,
        # once per cycle; the path stops after the first payment made at a
        # weight below e^{-delta horizon}, the tenth
        p, res = self._run(1.0, Hybrid(0.5, 1.0, 2.005), x0=1.0, chi=0.02, beta=0.9)
        times = [1.005 * k for k in range(1, 11)]
        assert res.n_immediate_dividends == 4 * len(times)
        assert res.n_periodic_dividends == 0 and res.ruin_fraction == 0.0
        # one step per crossing: the longest path takes ten
        assert res.max_chain == 10
        expected = sum(math.exp(-p.delta * t) * (p.beta * 1.005 - p.chi) for t in times)
        assert res.epv_mean == pytest.approx(expected, rel=1e-9)

    def test_periodic_zero_is_ruined_at_zero(self):
        _, res = self._run(-1.0, PeriodicZero(), x0=0.505)
        assert res.ruin_fraction == 1.0 and res.epv_mean == 0.0
        assert res.n_decision_events == 0 and res.max_chain == 1

    def test_liquidation_band_is_entered_at_its_upper_end(self):
        # X(t) = 1.005 - t meets the narrow band (0.487, 0.493) at t = 0.512
        p, res = self._run(-1.0, Liquidation(0.487, 0.493), x0=1.005, chi=0.01, beta=0.8)
        assert res.n_immediate_dividends == 4 and res.ruin_fraction == 1.0
        assert res.max_chain == 1
        expected = math.exp(-p.delta * 0.512) * (p.beta * 0.493 - p.chi)
        assert res.epv_mean == pytest.approx(expected, rel=1e-9)


def _gauss_legendre(fn, a, b, pieces=64, order=32):
    """Composite Gauss-Legendre quadrature of fn over [a, b]."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(a, b, pieces + 1)
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * np.diff(edges)
    pts = mid[:, None] + half[:, None] * nodes
    return float(np.sum(half[:, None] * weights * fn(pts)))


LAW_CASES = [
    # (params, interval lengths)
    (ModelParams(mu=1.0, sigma=0.3, chi=0.01, beta=0.9, gamma=1.0, delta=0.15), (1.329, 0.05)),
    (ModelParams(mu=-1.0, sigma=0.3, chi=0.15, beta=0.7, gamma=1.0, delta=0.15), (0.316, 3.0)),
    (ModelParams(mu=0.3, sigma=1.7, chi=0.1, beta=0.5, gamma=0.2, delta=0.8), (0.7, 12.0)),
]


class TestExitLaws:
    """The exit laws the engine samples from, checked against their
    definitions: lam int G = 1 - up - down, the L -> inf limits, and weight
    factors (the law at gamma + delta over the law at gamma) in (0, 1].
    Every law has one row per rate."""

    @staticmethod
    def _law(params):
        engine = importlib.import_module("divopt.simulate")
        return engine._Law(params, (params.gamma, params.gamma + params.delta))

    @staticmethod
    def _exits(law, x, L):
        """(down, up) from x in (0, L), L a scalar or one length per path."""
        X = law.exits(x, law.gap(L, x), law.nq(L))
        return X[:, 0], X[:, 1]

    @pytest.mark.parametrize("params, lengths", LAW_CASES)
    def test_green_mass_identity(self, params, lengths):
        law = self._law(params)
        for row, rate in enumerate((params.gamma, params.gamma + params.delta)):
            for L in lengths:
                for x in np.linspace(0.0, L, 7)[1:-1]:
                    down, up = self._exits(law, np.array([x]), L)

                    def green(y):
                        return law.green(x, y.ravel(), L, law.nc * law.nq(L))[row].reshape(y.shape)

                    below = _gauss_legendre(green, 0.0, x)
                    above = _gauss_legendre(green, x, L)
                    assert abs(rate * (below + above) - (1.0 - up[row, 0] - down[row, 0])) < 1e-12

    @pytest.mark.parametrize("params, lengths", LAW_CASES)
    def test_exit_masses_at_most_one(self, params, lengths):
        law = self._law(params)
        for L in lengths + (np.inf,):
            x = np.linspace(0.0, min(L, 20.0), 401)
            down, up = self._exits(law, x, np.full_like(x, L))
            assert np.all((up >= 0.0) & (down >= 0.0) & (up + down <= 1.0))
            assert np.all(down[:, 0] == 1.0) and np.all(up[:, 0] == 0.0)
            if L < np.inf:
                assert np.all(up[:, -1] == 1.0) and np.all(down[:, -1] == 0.0)
            # one length for all paths gives the same laws, bit for bit
            down_1, up_1 = self._exits(law, x, L)
            assert np.array_equal(down_1, down) and np.array_equal(np.broadcast_to(up_1, up.shape), up)

    @pytest.mark.parametrize("params, lengths", LAW_CASES)
    def test_infinite_interval_limits(self, params, lengths):
        law = self._law(params)
        x = np.linspace(0.0, 2.0, 41)
        gaps = []
        for L in (2.5, 5.0, 10.0, 40.0, 1e3, np.inf):
            down, up = self._exits(law, x, np.full_like(x, L))
            gaps.append(max(np.max(up), np.max(np.abs(down - np.exp(law.s * x)))))
        assert all(g2 <= g1 for g1, g2 in zip(gaps, gaps[1:]))
        assert gaps[-2] < 1e-12 and gaps[-1] == 0.0

    @pytest.mark.parametrize("params, lengths", LAW_CASES)
    def test_weight_factors_in_unit_interval(self, params, lengths):
        law = self._law(params)
        for L in lengths + (np.inf,):
            x = np.linspace(0.0, min(L, 20.0), 81)[1:-1]
            Ls = np.full_like(x, L)
            down, up = self._exits(law, x, Ls)
            factors = [down[1] / down[0]] + ([up[1] / up[0]] if L < np.inf else [])
            for y in x:
                g = law.green(x, y, Ls, law.nc * law.nq(Ls))
                factors.append(g[1] / g[0])
            f = np.concatenate(factors)
            assert np.all((f > 0.0) & (f <= 1.0))

    def test_far_upper_barrier_gives_finite_results(self, neg_params, neg_roots):
        # negative drift makes r large: r b > 700, where e^{r b} overflows
        st = Hybrid(0.5, 1.0, 40.0)
        law = self._law(neg_params)
        assert law.r[0, 0] * st.b > 700.0
        down, up = self._exits(law, np.array([0.1, 20.0, 39.99]), st.b)
        assert np.all(np.isfinite(up) & np.isfinite(down))
        cfg = SimConfig(n_paths=2000, seed=3, truncation_tol=1e-3)
        x0s = [0.5, 20.0, 39.9, 45.0]
        vf = ValueFunction(neg_params, neg_roots, st)
        for r in simulate_at(neg_params, neg_roots, st, cfg, x0s):
            assert math.isfinite(r.epv_mean) and math.isfinite(r.epv_stderr)
            assert abs(r.epv_mean - float(vf(r.x0))) < 4.0 * r.epv_stderr + 1e-3


def _package_imports(module: str) -> set[str]:
    """The divopt modules that divopt.<module> imports, read from its source."""
    tree = ast.parse(Path(importlib.util.find_spec(f"divopt.{module}").origin).read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            name = node.module or ""
            if node.level == 0:
                if name.split(".")[0] != "divopt":
                    continue
                name = name[len("divopt"):].lstrip(".")
            # "" is the package itself: "from . import x" names modules
            found |= {name.split(".")[0]} if name else {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            found |= {a.name.partition(".")[2] or "divopt" for a in node.names
                      if a.name.split(".")[0] == "divopt"}
    return found


def test_engine_stays_independent_of_the_closed_forms():
    # the engine reads only the parameters, its own roots and the levels
    assert _package_imports("simulate") <= {"core", "errors", "strategies"}
    assert _package_imports("strategies") == set()

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from divopt import (
    Hybrid,
    Liquidation,
    ModelParams,
    NoBracketError,
    OutOfRangeError,
    PeriodicBarrier,
    PeriodicZero,
    Q,
    Regime,
    ValueFunction,
    a_beta,
    beta0,
    c_beta_chi,
    classify_regime,
    cost_ratio_limit,
    liquidation_A,
    nu_riskiness,
    periodic_b0,
    solve,
    solve_roots,
    solve_unprofitable,
    sufficient_condition_hints,
)


def mk(mu=1.0, sigma=0.3, chi=0.01, beta=0.9, gamma=1.0, delta=0.15):
    return ModelParams(mu=mu, sigma=sigma, chi=chi, beta=beta, gamma=gamma, delta=delta)


def finite_window_draws(seeds):
    """One criterion-1 box draw (mu < 0) per seed in the finite liquidation regime."""
    out = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        while True:
            p = mk(mu=rng.uniform(-2.0, -0.05), sigma=rng.uniform(0.1, 2.0),
                   chi=rng.uniform(0.0, 0.4), beta=rng.uniform(0.05, 1.0),
                   gamma=rng.uniform(0.2, 3.0), delta=rng.uniform(0.02, 0.8))
            if classify_regime(p, solve_roots(p)) is Regime.UNPROFITABLE_LIQUIDATION_FINITE:
                out.append(p)
                break
    return out


class TestClassify:
    def test_reference_points(self, pos_params, pos_roots, neg_params, neg_roots):
        assert classify_regime(pos_params, pos_roots) is Regime.PROFITABLE_HYBRID
        assert classify_regime(neg_params, neg_roots) is Regime.UNPROFITABLE_LIQUIDATION_FINITE

    def test_low_beta_is_periodic(self):
        p = mk(beta=0.5)
        assert classify_regime(p, solve_roots(p)) is Regime.PROFITABLE_PERIODIC

    def test_beta_at_threshold_profitable(self):
        p = mk(beta=1.0 / 1.15)  # exactly gamma/(gamma+delta)
        assert classify_regime(p, solve_roots(p)) is Regime.PROFITABLE_PERIODIC

    def test_expensive_fixed_cost_waits(self):
        # chi/beta = 1.29 above -mu/(gamma+delta) = 0.87: never liquidate now
        p = mk(mu=-1.0, chi=0.9, beta=0.7)
        assert classify_regime(p, solve_roots(p)) is Regime.UNPROFITABLE_PERIODIC_ZERO

    def test_high_beta_negative_drift_is_half_line(self):
        p = mk(mu=-1.0, chi=0.15, beta=0.95)
        assert classify_regime(p, solve_roots(p)) is Regime.UNPROFITABLE_LIQUIDATION_HALF

    def test_beta_threshold_cases_negative_drift(self):
        pv = 1.0 / 1.15
        cheap = mk(mu=-1.0, chi=0.15, beta=pv)
        assert classify_regime(cheap, solve_roots(cheap)) is Regime.UNPROFITABLE_LIQUIDATION_HALF
        dear = mk(mu=-1.0, chi=0.9, beta=pv)
        assert classify_regime(dear, solve_roots(dear)) is Regime.UNPROFITABLE_PERIODIC_ZERO

    def test_below_beta0_waits(self, neg_params, neg_roots):
        b0 = beta0(neg_params, neg_roots)
        low = mk(mu=-1.0, chi=0.15, beta=0.99 * b0)
        assert classify_regime(low, solve_roots(low)) is Regime.UNPROFITABLE_PERIODIC_ZERO


class TestAuxiliaries:
    def test_Q_decreasing_onto_unit_interval(self, pos_params, pos_roots):
        a = np.linspace(0.0, pos_roots.a_bar, 64)
        q = np.array([Q(pos_params, pos_roots, v) for v in a])
        assert q[0] == pytest.approx(1.0)
        assert q[-1] == pytest.approx(0.0, abs=1e-12)
        assert np.all(np.diff(q) < 0)

    def test_a_beta_matches_slope(self, neg_params, neg_roots):
        ab = a_beta(neg_params, neg_roots)
        vf = ValueFunction(neg_params, neg_roots, PeriodicZero())
        assert float(vf.d1(ab)) == pytest.approx(neg_params.beta, abs=1e-12)

    def test_c_beta_chi_is_payout_indifference(self, neg_params, neg_roots):
        c = c_beta_chi(neg_params, neg_roots)
        vf = ValueFunction(neg_params, neg_roots, PeriodicZero())
        assert float(vf(c)) == pytest.approx(neg_params.beta * c - neg_params.chi, abs=1e-12)
        assert 0.0 < c < a_beta(neg_params, neg_roots)

    def test_cost_ratio_limit_endpoints(self, neg_params, neg_roots):
        vf = ValueFunction(neg_params, neg_roots, PeriodicZero())
        lo = float(vf.d1(0.0))
        assert cost_ratio_limit(neg_params, neg_roots, lo) == 0.0
        pv = neg_params.pvfactor
        near = cost_ratio_limit(neg_params, neg_roots, pv - 1e-9)
        lim = -neg_params.mu / (neg_params.gamma + neg_params.delta)
        assert near == pytest.approx(lim, rel=1e-6)

    def test_cost_ratio_limit_increasing(self, neg_params, neg_roots):
        vf = ValueFunction(neg_params, neg_roots, PeriodicZero())
        lo = float(vf.d1(0.0))
        grid = np.linspace(lo + 1e-6, neg_params.pvfactor - 1e-6, 100)
        vals = [cost_ratio_limit(neg_params, neg_roots, b) for b in grid]
        assert np.all(np.diff(vals) > 0)

    def test_beta0_inverts_the_limit(self, neg_params, neg_roots):
        b0 = beta0(neg_params, neg_roots)
        assert b0 == pytest.approx(0.4045629733504015, rel=1e-8)
        t = cost_ratio_limit(neg_params, neg_roots, b0)
        assert t == pytest.approx(neg_params.chi / neg_params.beta, abs=1e-10)

    def test_beta0_out_of_range(self):
        p = mk(mu=-1.0, chi=0.9, beta=0.7)  # chi/beta above the reachable limit
        with pytest.raises(OutOfRangeError):
            beta0(p, solve_roots(p))

    def test_domain_errors(self, pos_params, pos_roots):
        with pytest.raises(OutOfRangeError):
            a_beta(pos_params, pos_roots)
        with pytest.raises(OutOfRangeError):
            cost_ratio_limit(pos_params, pos_roots, 0.5)


class TestPeriodicB0:
    def test_zero_when_ratio_small(self):
        # riskiness high enough that waiting at zero is already optimal
        p = mk(mu=0.1, sigma=2.0, beta=0.5)
        r = solve_roots(p)
        assert (-r.s1 / r.r1) * r.pvfactor <= 1.0
        assert periodic_b0(p, r) == 0.0

    def test_inverse_residual(self, pos_params, pos_roots):
        b0 = periodic_b0(pos_params, pos_roots)
        assert b0 > 0
        gd = pos_params.gamma + pos_params.delta
        q_star = pos_roots.s1 * (pos_params.delta / gd) / (pos_roots.r1 + pos_roots.s1)
        assert Q(pos_params, pos_roots, b0) == pytest.approx(q_star, abs=1e-10)

    def test_solve_dispatch_low_beta(self):
        rep = solve(mk(beta=0.5))
        assert rep.regime is Regime.PROFITABLE_PERIODIC
        assert isinstance(rep.strategy, PeriodicBarrier)
        assert rep.strategy.b > 0


class TestHybridSolve:
    def test_reference_barriers(self, pos_params):
        rep = solve(pos_params)
        st = rep.strategy
        assert st.a_p == pytest.approx(0.3065903431448, rel=1e-6)
        assert st.a_c == pytest.approx(0.3844202263851, rel=1e-6)
        assert st.b == pytest.approx(1.3290615717994, rel=1e-6)
        assert all(v < 1e-8 for v in rep.residuals.values())

    def test_ordering_invariants(self, pos_params):
        st = solve(pos_params).strategy
        assert 0 <= st.a_p <= st.a_c < st.b
        assert st.b > st.a_c + pos_params.chi / pos_params.beta

    def test_vanishing_fixed_cost_closes_the_gap(self):
        # |b* - a_p*| shrinks monotonically as chi drops toward 0
        gaps = []
        for chi in (0.1, 0.05, 0.02, 0.01, 0.003, 0.001):
            st = solve(mk(chi=chi)).strategy
            gaps.append(st.b - st.a_p)
        assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))

    def test_nearly_free_immediate_payments_split_shrinks(self):
        # as beta rises toward 1 the two lower barriers approach each other
        g1 = solve(mk(beta=0.96)).strategy
        g2 = solve(mk(beta=0.99)).strategy
        assert g2.a_c - g2.a_p < g1.a_c - g1.a_p

    def test_zero_drift_collapses_lower_barriers(self):
        rep = solve(mk(mu=0.0))
        st = rep.strategy
        assert st.a_p == 0.0 and st.a_c == 0.0
        assert rep.boundary["ap_zero"] and rep.boundary["ac_equals_ap"]
        p = mk(mu=0.0)
        vf = ValueFunction(p, solve_roots(p), st)
        assert float(vf.d1(st.b, side="left")) == pytest.approx(p.beta, abs=1e-9)
        assert float(vf.d1(0.0)) <= p.beta + 1e-12

    def test_rescaling_scales_barriers_exactly(self, pos_params):
        st = solve(pos_params).strategy
        k = 3.7
        st_k = solve(pos_params.rescaled(k)).strategy
        assert st_k.a_p == pytest.approx(k * st.a_p, rel=1e-8)
        assert st_k.a_c == pytest.approx(k * st.a_c, rel=1e-8)
        assert st_k.b == pytest.approx(k * st.b, rel=1e-8)

    def test_boundary_case_high_riskiness(self):
        # both hint thresholds met: solver lands on a_p = a_c = 0
        p = mk(mu=0.05, sigma=3.0, beta=0.95)
        r = solve_roots(p)
        hints = sufficient_condition_hints(p, r)
        assert hints.predict_ap_zero and hints.predict_ac_zero
        rep = solve(p)
        assert rep.boundary["ap_zero"] and rep.boundary["ac_equals_ap"]
        assert rep.strategy.a_p == 0.0 and rep.strategy.a_c == 0.0


class TestUnprofitableSolve:
    def test_reference_window(self, neg_params):
        rep = solve(neg_params)
        st = rep.strategy
        assert isinstance(st, Liquidation)
        assert st.b1 == pytest.approx(0.3162355542055, rel=1e-6)
        assert st.b2 == pytest.approx(2.6622431975813, rel=1e-6)

    def test_ordering_chain(self, neg_params):
        # b1's bracket runs from chi/beta to b2, with no bracket from c or
        # a_beta. In the narrow window (1.556, 1.645) V'(b-) - beta is
        # positive on too short an interval for a geometric bracket to meet.
        narrow = ModelParams(-1.8529368889501905, 0.38214871744125567, 0.3466203784299663,
                             0.5313600257729486, 0.978599794517444, 0.2312938427125559)
        for p in [neg_params, narrow] + finite_window_draws(range(12)):
            r = solve_roots(p)
            st = solve(p).strategy
            c, ab = c_beta_chi(p, r), a_beta(p, r)
            assert 0 < c < st.b1 < ab < st.b2 < math.inf, p

    def test_b2_linear_equation_is_exact(self, neg_params, neg_roots):
        st = solve(neg_params).strategy
        vf = ValueFunction(neg_params, neg_roots, st)
        assert float(vf.d1(st.b2, side="right")) == pytest.approx(neg_params.beta, abs=1e-12)

    def test_b1_smooth_fit(self, neg_params, neg_roots):
        st = solve(neg_params).strategy
        vf = ValueFunction(neg_params, neg_roots, st)
        assert float(vf.d1(st.b1, side="left")) == pytest.approx(neg_params.beta, abs=1e-10)
        # the smooth fit makes A(b1) the slope matcher from below as well
        assert liquidation_A(neg_params, neg_roots, st.b1) > 0.0

    def test_half_line_solve(self):
        p = mk(mu=-1.0, chi=0.15, beta=0.95)
        rep = solve(p)
        assert rep.regime is Regime.UNPROFITABLE_LIQUIDATION_HALF
        st = rep.strategy
        assert isinstance(st, Liquidation) and math.isinf(st.b2)
        assert st.b1 > p.chi / p.beta
        vf = ValueFunction(p, solve_roots(p), st)
        assert float(vf.d1(st.b1, side="left")) == pytest.approx(p.beta, abs=1e-10)

    def test_periodic_zero_dispatch(self):
        p = mk(mu=-1.0, chi=0.9, beta=0.7)
        rep = solve(p)
        assert rep.regime is Regime.UNPROFITABLE_PERIODIC_ZERO
        assert isinstance(rep.strategy, PeriodicZero)
        assert rep.residuals == {}

    def test_requires_negative_drift(self, pos_params, pos_roots):
        with pytest.raises(OutOfRangeError):
            solve_unprofitable(pos_params, pos_roots)

    def test_zero_fixed_cost_liquidation_is_out_of_range(self):
        # b1 falls toward 0 with chi (about as its square root): at chi = 0
        # the optimum pays everything now, which no Liquidation(b1 > 0, .) is.
        # Down the ladder each solve stays fast and inside its gate.
        for beta, regime in ((0.95, Regime.UNPROFITABLE_LIQUIDATION_HALF),
                             (0.7, Regime.UNPROFITABLE_LIQUIDATION_FINITE)):
            b1 = []
            for chi in 10.0 ** -np.arange(2.0, 17.0, 2.0):
                t0 = time.perf_counter()
                rep = solve(mk(mu=-1.0, chi=chi, beta=beta))
                assert time.perf_counter() - t0 < 1.0, chi
                assert rep.regime is regime
                assert max(rep.residuals.values()) < 1e-10, (chi, rep.residuals)
                b1.append(rep.strategy.b1)
            assert all(hi > lo > 0.0 for hi, lo in zip(b1, b1[1:])) and b1[2] < 1e-3
            p = mk(mu=-1.0, chi=0.0, beta=beta)
            assert classify_regime(p, solve_roots(p)) is regime
            with pytest.raises(OutOfRangeError, match="b1 -> 0"):
                solve(p)


class TestHints:
    def test_reference_point_predicts_interior(self, pos_params, pos_roots):
        h = sufficient_condition_hints(pos_params, pos_roots)
        assert not h.predict_ap_zero and not h.predict_ac_zero
        assert h.nu == pytest.approx((0.3 / 1.0) ** 2 * 1.15)

    def test_high_riskiness_predicts_boundary(self):
        p = mk(mu=0.05, sigma=3.0, beta=0.95)
        h = sufficient_condition_hints(p, solve_roots(p))
        assert h.predict_ap_zero and h.predict_ac_zero
        assert h.nu > 1000

    def test_nu_undefined_at_zero_drift(self):
        with pytest.raises(OutOfRangeError):
            nu_riskiness(mk(mu=0.0))

    def test_predictions_consistent_with_solver_on_sweep(self):
        # advisory hints never contradict the solved boundary flags
        for sigma in (0.2, 0.5, 1.0, 2.0, 4.0):
            p = mk(mu=0.5, sigma=sigma, beta=0.92, chi=0.02)
            r = solve_roots(p)
            h = sufficient_condition_hints(p, r)
            rep = solve(p)
            if h.predict_ap_zero:
                assert rep.boundary["ap_zero"]
            if h.predict_ac_zero:
                assert rep.boundary["ac_equals_ap"]


class TestSolveReports:
    def test_residuals_below_tolerance(self, pos_params, neg_params):
        for p in (pos_params, neg_params):
            rep = solve(p)
            assert all(v < rep.tol for v in rep.residuals.values())

    def test_strategy_types_match_regimes(self):
        cases = [
            (mk(beta=0.5), PeriodicBarrier),
            (mk(), Hybrid),
            (mk(mu=-1.0, chi=0.15, beta=0.7), Liquidation),
            (mk(mu=-1.0, chi=0.9, beta=0.7), PeriodicZero),
        ]
        for p, cls in cases:
            assert isinstance(solve(p).strategy, cls)

    def test_tiny_fixed_cost_hybrid_solves(self):
        # b - a_c falls about as sqrt(chi), below any fixed floor for the
        # upper-gap bracket; it starts from chi/beta instead
        for p in (mk(), mk(mu=0.05, sigma=3.0, beta=0.95)):
            gaps = []
            for chi in (1e-14, 1e-16, 1e-20):
                rep = solve(replace(p, chi=chi))
                assert max(rep.residuals.values()) < 1e-10, (chi, rep.residuals)
                gaps.append(rep.strategy.b - rep.strategy.a_c)
            assert gaps[0] > gaps[1] > gaps[2] > 0.0


class TestThresholdApproach:
    def test_upper_barriers_diverge_toward_the_threshold(self):
        # as beta falls toward gamma/(gamma+delta), a_c and b grow without
        # settling while a_p tends to the pure-periodic barrier
        pv = 1.0 / 1.15
        sts = [solve(mk(beta=pv + eps)).strategy for eps in (6e-3, 3e-3, 1.5e-3)]
        assert sts[0].a_c < sts[1].a_c < sts[2].a_c
        assert sts[0].b < sts[1].b < sts[2].b


class TestLargeBarriers:
    """Points with r1 b > 700, where unshifted exponentials overflow, and
    points whose slope residuals need root brackets narrower than 1e-12."""

    @pytest.mark.parametrize(
        "p",
        [
            # r1 b is about 10,584
            ModelParams(0.029488273489697736, 0.1294720017823323, 0.3273737875702447,
                        0.8158993355218084, 2.1500380445484915, 0.48674447953138505),
            # b is about 6,976
            ModelParams(0.43158022021548037, 1.8365737108514044, 0.1627946028491065,
                        0.5515639313615421, 0.8059482717258291, 0.6553191894801308),
            # r1 b is about 27,861 (b about 14,011)
            ModelParams(1.1950516884324913, 0.1536703162521798, 0.34605675857543833,
                        0.8692134344065021, 2.106100933053537, 0.31696421985001044),
        ],
    )
    def test_far_upper_barrier_is_finite_and_verified(self, p):
        from divopt import audit_derivative_pattern, check_hjb

        r = solve_roots(p)
        rep = solve(p)
        assert rep.regime is Regime.PROFITABLE_HYBRID
        assert math.isfinite(rep.strategy.b) and r.r1 * rep.strategy.b > 700.0
        assert set(rep.residuals) == {"vprime_b", "vprime_ac", "vprime_ap"}
        assert all(v < 1e-10 for v in rep.residuals.values())
        assert check_hjb(p, r, rep.strategy).passed
        assert audit_derivative_pattern(p, r, rep.strategy).passed

    @pytest.mark.parametrize(
        "p",
        [
            ModelParams(1.817558808672406, 0.22869256835002977, 0.16817619226985148,
                        0.47836509491682855, 0.29993524780712805, 0.36738331186738865),
            ModelParams(1.6063393809818285, 0.10000831696177327, 0.3620558777554608,
                        0.9792805999060458, 0.7033870203409616, 0.28549298009381696),
        ],
    )
    def test_residual_gate_met(self, p):
        rep = solve(p)
        assert rep.regime is Regime.PROFITABLE_HYBRID
        assert all(v < 1e-10 for v in rep.residuals.values())


class TestFuzz:
    def test_criterion_1_box_solves_or_raises_typed(self):
        # criterion 1's box, every other draw at chi = 0 (the classical
        # proportional-cost case): each solve ends in bounded time, with a
        # strategy inside its residual gate or a typed error that names why
        # (never a stray ValueError or a missed gate)
        rng = np.random.default_rng(2024)
        outcomes = {}
        for i in range(200):
            p = ModelParams(
                mu=rng.uniform(-2.0, 2.0),
                sigma=rng.uniform(0.1, 2.0),
                chi=rng.uniform(0.0, 0.4) if i % 2 else 0.0,
                beta=rng.uniform(0.05, 1.0),
                gamma=rng.uniform(0.2, 3.0),
                delta=rng.uniform(0.02, 0.8),
            )
            t0 = time.perf_counter()
            try:
                rep = solve(p)
                outcome = rep.regime.value
                assert all(v < rep.tol for v in rep.residuals.values())
            except (NoBracketError, OutOfRangeError) as exc:
                assert p.chi == 0.0, (p, exc)
                outcome = type(exc).__name__
            assert time.perf_counter() - t0 < 1.0, p
            outcomes[outcome] = outcomes.get(outcome, 0) + 1
        # the draws reach every regime and both typed errors
        assert len(outcomes) == 7, outcomes

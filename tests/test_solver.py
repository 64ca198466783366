import math
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

from divopt import (
    DivoptError,
    Hybrid,
    Liquidation,
    ModelParams,
    NoBracketError,
    OutOfRangeError,
    PeriodicBarrier,
    PeriodicZero,
    Regime,
    ValueFunction,
    a_beta,
    check_hjb,
    classify_regime,
    f,
    liquidation_A,
    periodic_b0,
    solve,
    solve_roots,
    solve_unprofitable,
)
from divopt import solver
from divopt.values import hybrid_kernel, periodic_zero


def mk(mu=1.0, sigma=0.3, chi=0.01, beta=0.9, gamma=1.0, delta=0.15):
    return ModelParams(mu=mu, sigma=sigma, chi=chi, beta=beta, gamma=gamma, delta=delta)


HYBRID_PATHS = {"ap_ac_zero", "ap_zero", "ac_equals_ap", "interior"}


@pytest.fixture
def upper_gap_calls(monkeypatch):
    """A list that gets one entry per call of solver._upper_gap."""
    calls, upper_gap = [], solver._upper_gap
    monkeypatch.setattr(solver, "_upper_gap", lambda *args: calls.append(args) or upper_gap(*args))
    return calls


def widened_criterion_2_draws(seed, n):
    """n fixed draws of TestFuzz's widened criterion-2 hybrids: every other
    one at chi = 10^U(-16, -4), every fifth at beta = 1."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        gamma, delta = rng.uniform(0.3, 2.5), rng.uniform(0.03, 0.4)
        mu, sigma = rng.uniform(0.02, 2.5), rng.uniform(0.1, 1.5)
        chi = 10.0 ** rng.uniform(-16.0, -4.0) if i % 2 else rng.uniform(1e-4, 0.15)
        u = 1.0 - rng.random()  # in (0, 1]
        pv = gamma / (gamma + delta)
        beta = 1.0 if i % 5 == 0 else pv + u * (1.0 - pv)
        out.append(mk(mu=mu, sigma=sigma, chi=chi, beta=beta, gamma=gamma, delta=delta))
    return out


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


# V is compared across a regime boundary on this grid of surplus levels
X_GRID = np.linspace(0.0, 5.0, 51)


def along_cost_ratio(p, beta):
    """p moved to retained proportion beta with chi/beta held fixed."""
    return replace(p, beta=beta, chi=p.chi / p.beta * beta)


def flip_along_fixed_cost_ratio(p):
    """Adjacent floats lo < hi: beta0 along p's chi/beta (mu < 0).

    classify_regime gives periodic-zero at lo and the finite window at hi;
    found by bisecting classify_regime itself between V'(0; pi0), where no
    window pays, and pv (1 - 1e-12), where one does when chi/beta <
    -mu/(gamma+delta).
    """
    def window(beta):
        q = along_cost_ratio(p, beta)
        return classify_regime(q, solve_roots(q)) is Regime.UNPROFITABLE_LIQUIDATION_FINITE

    lo = max(periodic_zero(p, solve_roots(p), 0.0, 1), 1e-12)
    hi = p.pvfactor * (1.0 - 1e-12)
    assert not window(lo) and window(hi), p
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return lo, hi
        lo, hi = (lo, mid) if window(mid) else (mid, hi)


def max_value_gap(p1, rep1, p2, rep2):
    """max over X_GRID of |V2 - V1| / (1 + |V1|), each V of its own solve."""
    v1 = ValueFunction(p1, solve_roots(p1), rep1.strategy)(X_GRID)
    v2 = ValueFunction(p2, solve_roots(p2), rep2.strategy)(X_GRID)
    return float(np.max(np.abs(v2 - v1) / (1.0 + np.abs(v1))))


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

    def test_below_beta0_waits(self, neg_params):
        # beta0 is the flip along a fixed chi/beta: just below it the business
        # waits, just above it a window opens, narrow and worth next to nothing
        lo, hi = flip_along_fixed_cost_ratio(neg_params)
        assert hi == pytest.approx(0.40456297335040176, rel=1e-14)
        eps = 1e-9
        below = along_cost_ratio(neg_params, lo * (1 - eps))
        above = along_cost_ratio(neg_params, hi * (1 + eps))
        rep_below, rep_above = solve(below), solve(above)
        assert rep_below.regime is Regime.UNPROFITABLE_PERIODIC_ZERO
        assert rep_above.regime is Regime.UNPROFITABLE_LIQUIDATION_FINITE
        st = rep_above.strategy
        assert 0.0 < st.b2 - st.b1 < 1e-7, st
        assert max_value_gap(below, rep_below, above, rep_above) < 1e-9


class TestAuxiliaries:
    def test_a_beta_matches_slope(self, neg_params, neg_roots):
        ab = a_beta(neg_params, neg_roots)
        vf = ValueFunction(neg_params, neg_roots, PeriodicZero())
        assert float(vf.d1(ab)) == pytest.approx(neg_params.beta, abs=1e-12)

    def test_beta0_inverts_the_limit(self, neg_params):
        # at the flip waiting and liquidating at the slope-match level net
        # the same: V(a_beta; pi0) = beta a_beta - chi
        lo, hi = flip_along_fixed_cost_ratio(neg_params)
        for beta in (lo, hi):
            p = along_cost_ratio(neg_params, beta)
            r = solve_roots(p)
            ab = a_beta(p, r)
            assert periodic_zero(p, r, ab) == pytest.approx(beta * ab - p.chi, abs=1e-14)

    def test_beta0_out_of_range(self):
        # chi/beta above -mu/(gamma+delta): no window at any beta <= pv
        p = mk(mu=-1.0, chi=0.9, beta=0.7)
        pv = p.pvfactor
        for beta in np.linspace(0.01, pv, 50):
            q = along_cost_ratio(p, beta)
            assert classify_regime(q, solve_roots(q)) is Regime.UNPROFITABLE_PERIODIC_ZERO

    def test_domain_errors(self, pos_params, pos_roots):
        with pytest.raises(OutOfRangeError):
            a_beta(pos_params, pos_roots)
        p = mk(mu=-1.0, chi=0.15, beta=0.95)  # beta above pv: no slope-match level
        with pytest.raises(OutOfRangeError):
            a_beta(p, solve_roots(p))


class TestPeriodicB0:
    def test_zero_when_ratio_small(self):
        # riskiness high enough that waiting at zero is already optimal
        p = mk(mu=0.1, sigma=2.0, beta=0.5)
        r = solve_roots(p)
        assert (-r.s1 / r.r1) * r.pvfactor <= 1.0
        assert periodic_b0(p, r) == 0.0

    def test_kernel_b0_meets_the_papers_target(self):
        # the paper's own closed form for the periodic barrier, an oracle
        # independent of the kernel: Q(a) = 1 - (f(a)/f'(a)) (delta/mu) falls
        # from 1 to 0 on [0, a_bar], and b0 > 0 solves Q(b0) = q*
        def Q(p, r, a):
            return 1.0 - f(r, a) / f(r, a, 1) * (p.delta / p.mu)

        n_zero = n_target = 0
        for p in box_draws(600, 19):
            r = solve_roots(p)
            if classify_regime(p, r) is not Regime.PROFITABLE_PERIODIC:
                continue
            b0 = periodic_b0(p, r)
            if (-r.s1 / r.r1) * r.pvfactor <= 1.0:
                assert b0 == 0.0, p
                n_zero += 1
            else:
                q_star = r.s1 * (p.delta / (p.gamma + p.delta)) / (r.r1 + r.s1)
                assert 0.0 < b0 < r.a_bar, p
                assert Q(p, r, b0) == pytest.approx(q_star, abs=1e-10), p
                n_target += 1
        assert n_zero > 10 and n_target > 50, (n_zero, n_target)

    def test_solve_dispatch_low_beta(self):
        rep = solve(mk(beta=0.5))
        assert rep.regime is Regime.PROFITABLE_PERIODIC
        assert isinstance(rep.strategy, PeriodicBarrier)
        assert rep.strategy.a_p > 0


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

    def test_beta_one_optimum_is_reported(self, pos_params):
        # at beta = 1 an immediate payment costs only chi, so a_c = a_p > 0 with
        # V' = 1 at all three levels; the a_c residual is |V'(a_c) - beta| there
        p = replace(pos_params, beta=1.0)
        rep = solve(p)
        st = rep.strategy
        assert st.a_c == st.a_p == pytest.approx(0.3488605470923, rel=1e-9)
        assert rep.diagnostics["path"] == "ac_equals_ap"
        assert not rep.boundary["ap_zero"] and rep.boundary["ac_equals_ap"]
        assert max(rep.residuals.values()) < 1e-10, rep.residuals
        assert check_hjb(p, solve_roots(p), st).passed

    def test_boundary_case_high_riskiness(self):
        # high riskiness (sigma/mu)^2 (gamma+delta): both lower barriers collapse
        rep = solve(mk(mu=0.05, sigma=3.0, beta=0.95))
        assert rep.boundary["ap_zero"] and rep.boundary["ac_equals_ap"]
        assert rep.strategy.a_p == 0.0 and rep.strategy.a_c == 0.0

    @pytest.mark.parametrize("p, path", [
        # beta = 1 at chi = 1e-16: the (a_c, log y) Jacobian is nearly singular
        (mk(mu=1.9, sigma=0.1, chi=1e-16, beta=1.0, gamma=0.6794362417737436, delta=0.03),
         "ac_equals_ap"),
        # beta just above pv: b is about 7e11 and a_c barely moves V'(a_c)
        (mk(mu=0.5, sigma=1.3279876986725474, chi=0.037740766767995065,
            beta=0.45759871551798387, gamma=0.3, delta=0.35559624585144933), "ap_zero"),
        (mk(chi=1e-20), "interior"),
    ])
    def test_ill_conditioned_corners_solve_to_rounding(self, p, path):
        # the exact Jacobian takes these corners well inside the 1e-10 gate
        rep = solve(p)
        assert rep.diagnostics["path"] == path
        assert max(rep.residuals.values()) <= 1e-12, rep.residuals

    @pytest.mark.parametrize("p", [
        ModelParams(2.417520520219394, 0.11546005423511091, 2.8566482394534932e-15,
                    0.9613505354921658, 2.398973124404126, 0.14394024346725431),
        ModelParams(1.709850910030712, 0.26984179617428083, 5.803582750881461e-13,
                    0.9426346003710123, 1.0162874104208022, 0.3398329101821408),
    ])
    def test_long_upper_gap_step_solves(self, p):
        # widened-box draws kept for the 16x y-jump guard: a trial's step d in
        # log y is refused from d itself, before y * exp(d) can overflow into a
        # bare OverflowError
        rep = solve(p)
        assert rep.regime is Regime.PROFITABLE_HYBRID
        assert max(rep.residuals.values()) < 1e-10, rep.residuals
        assert check_hjb(p, solve_roots(p), rep.strategy).passed

    def test_ap_zero_meets_interior_continuously(self):
        # a_p leaves 0 as mu crosses mu* (sigma = 1.5, beta = pv + 0.6 (1 - pv)):
        # just below, the one Newton ends on a_p = 0 exactly, just above on a
        # small a_p > 0, and a_c and b move by about the step in mu
        pv = 1.0 / 1.15
        mu_star = 0.1335119576
        below, above = (solve(mk(mu=mu_star * (1.0 + e), sigma=1.5, beta=pv + 0.6 * (1.0 - pv)))
                        for e in (-1e-6, 1e-6))
        assert below.diagnostics["path"] == "ap_zero" and below.strategy.a_p == 0.0
        assert above.diagnostics["path"] == "interior" and 0.0 < above.strategy.a_p <= 1e-5
        lo, hi = below.strategy, above.strategy
        assert hi.a_c == pytest.approx(lo.a_c, rel=1e-5) and hi.b == pytest.approx(lo.b, rel=1e-5)


class TestUnprofitableSolve:
    def test_reference_window(self, neg_params):
        rep = solve(neg_params)
        st = rep.strategy
        assert isinstance(st, Liquidation)
        assert st.b1 == pytest.approx(0.3162355542055, rel=1e-6)
        assert st.b2 == pytest.approx(2.6622431975813, rel=1e-6)

    def test_ordering_chain(self, neg_params):
        # b1's bracket runs from chi/beta to b2, with no bracket from a_beta.
        # In the narrow window (1.556, 1.645) V'(b-) - beta is positive on too
        # short an interval for a geometric bracket to meet. A(b1) > 0: b1
        # lies above the point where liquidating now and waiting net the same
        narrow = ModelParams(-1.8529368889501905, 0.38214871744125567, 0.3466203784299663,
                             0.5313600257729486, 0.978599794517444, 0.2312938427125559)
        for p in [neg_params, narrow] + finite_window_draws(range(12)):
            r = solve_roots(p)
            st = solve(p).strategy
            assert liquidation_A(p, r, st.b1) > 0.0, p
            assert 0 < st.b1 < a_beta(p, r) < st.b2 < math.inf, p

    def test_b2_linear_equation_is_exact(self, neg_params, neg_roots):
        st = solve(neg_params).strategy
        vf = ValueFunction(neg_params, neg_roots, st)
        assert float(vf.d1(st.b2, side="right")) == pytest.approx(neg_params.beta, abs=1e-12)

    def test_window_meets_its_gate_as_beta_rises_to_pv(self):
        # b2 grows as 1/(pv - beta); its coefficient B2 must not cancel beta b2
        # against pv b2, which left |V'(b2+) - beta| at about ulp(b2)
        pv = 1.0 / 1.15
        for u in range(-4, -15, -1):
            rep = solve(mk(mu=-1.0, chi=0.15, beta=pv * (1.0 - 10.0**u)))
            assert rep.regime is Regime.UNPROFITABLE_LIQUIDATION_FINITE, u
            assert rep.strategy.b2 > 10.0 ** (-u - 1), u
            assert rep.residuals["vprime_b2"] < 1e-14, (u, rep.residuals)

    def test_collapsed_window_is_a_typed_error(self):
        # beta within rounding of beta0: the b1 search meets b2
        p = ModelParams(-0.9858379173182281, 1.9151294069235711, 0.18269453587279255,
                        0.7279668211388217, 0.9320279525384421, 0.05641945999010134)
        assert classify_regime(p, solve_roots(p)) is Regime.UNPROFITABLE_LIQUIDATION_FINITE
        with pytest.raises(DivoptError, match="window collapsed"):
            solve(p)

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
        assert rep.residuals == {"vprime_ap": 0.0}

    def test_requires_negative_drift(self, pos_params, pos_roots):
        with pytest.raises(OutOfRangeError):
            solve_unprofitable(pos_params, pos_roots)

    def test_hybrid_solve_requires_nonnegative_drift(self):
        # at mu < 0 and beta > pv the optimum is the half-line liquidation,
        # which solve_hybrid must not return as a profitable hybrid
        p = mk(mu=-1.0, chi=0.15, beta=0.95)
        with pytest.raises(OutOfRangeError, match="mu >= 0"):
            solver.solve_hybrid(p, solve_roots(p))
        assert solve(p).regime is Regime.UNPROFITABLE_LIQUIDATION_HALF

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

    def test_equal_levels_meet_equal_gates(self, pos_params, pos_roots):
        # the gate reads the levels, not the constructor or the regime: at
        # POS, (0, 0, y, inf) with y on V'(y-) = beta has V'(0) far above
        # beta, and (0, 0, inf, inf) at beta = 0.5 has V'(0) above 1
        kernel = hybrid_kernel(pos_params, pos_roots)
        y = solver._upper_gap(pos_params, pos_roots, kernel, 0.0, 0.0)
        p = mk(beta=0.5)
        R = Regime
        pairs = [
            (pos_params, (R.PROFITABLE_HYBRID, Hybrid(0.0, 0.0, y)),
             (R.UNPROFITABLE_LIQUIDATION_HALF, Liquidation(y, math.inf))),
            (p, (R.PROFITABLE_PERIODIC, PeriodicBarrier(0.0)),
             (R.UNPROFITABLE_PERIODIC_ZERO, PeriodicZero())),
        ]
        for q, *cases in pairs:
            messages = []
            for regime, st in cases:
                with pytest.raises(DivoptError, match="residuals exceed") as exc:
                    solver._report(regime, q, solve_roots(q), st, 1e-10, {})
                messages.append(str(exc.value))
            assert messages[0] == messages[1], messages

    def test_tiny_fixed_cost_hybrid_solves(self):
        # b - a_c falls about as chi^(1/3), below any fixed floor for the
        # upper-gap bracket; it starts from chi/beta instead
        for p in (mk(), mk(mu=0.05, sigma=3.0, beta=0.95)):
            gaps = []
            for chi in (1e-14, 1e-16, 1e-20):
                rep = solve(replace(p, chi=chi))
                assert max(rep.residuals.values()) < 1e-10, (chi, rep.residuals)
                gaps.append(rep.strategy.b - rep.strategy.a_c)
            assert gaps[0] > gaps[1] > gaps[2] > 0.0


class TestDiagnostics:
    def test_schema_in_every_regime(self):
        # residuals are named by level, one per condition the levels bind
        periodic, hybrid = {"vprime_ap"}, {"vprime_ap", "vprime_ac", "vprime_b"}
        cases = [
            (mk(beta=0.5), {"smooth_fit"}, True, periodic),
            (mk(mu=0.1, sigma=2.0, beta=0.5), {"b0_zero"}, True, periodic),
            (mk(), HYBRID_PATHS, True, hybrid),
            (mk(mu=-1.0, chi=0.15, beta=0.7), {"window"}, True, hybrid | {"vprime_b2"}),
            (mk(mu=-1.0, chi=0.15, beta=0.95), {"half_line"}, True, hybrid),
            (mk(mu=-1.0, chi=0.9, beta=0.7), {"closed_form"}, False, periodic),
        ]
        for p, paths, uses_kernel, residuals in cases:
            rep = solve(p)
            d = rep.diagnostics
            assert set(rep.residuals) == residuals, (p, rep.residuals)
            assert set(d) == {"path", "n_kernel_evals", "n_iters"}, p
            assert d["path"] in paths, (p, d)
            assert all(type(d[k]) is int and d[k] >= 0 for k in ("n_kernel_evals", "n_iters"))
            assert (d["n_kernel_evals"] > 0) == uses_kernel, (p, d)

    @pytest.mark.parametrize(
        "p, path",
        [
            (mk(mu=0.05, sigma=3.0, beta=0.95), "ap_ac_zero"),
            (mk(mu=0.1, sigma=1.0), "ap_zero"),
            (mk(beta=1.0), "ac_equals_ap"),
            (mk(), "interior"),
        ],
    )
    def test_known_point_reaches_each_hybrid_path(self, p, path, upper_gap_calls):
        # one Newton for every path, after at most one bracketed search
        rep = solve(p)
        assert rep.diagnostics["path"] == path
        assert len(upper_gap_calls) <= 1
        st = rep.strategy
        assert (st.a_p == 0.0) == (path in ("ap_ac_zero", "ap_zero"))
        assert (st.a_c == st.a_p) == (path in ("ap_ac_zero", "ac_equals_ap"))

    def test_reference_hybrid_kernel_calls_are_bounded(self, pos_params):
        # a bound, not a pinned count: counts move with ulp-level arithmetic
        d = solve(pos_params).diagnostics
        assert 0 < d["n_kernel_evals"] <= 700, d
        assert 0 < d["n_iters"] < d["n_kernel_evals"]

    @pytest.mark.parametrize("changes, bound", [
        ({}, 250),
        ({"chi": 1e-16}, 800),
        ({"beta": 1.0 / 1.15 * (1.0 + 1e-8)}, 800),  # pv (1 + 1e-8)
    ])
    def test_hybrid_kernel_calls_stay_bounded_toward_the_limits(self, pos_params, changes, bound):
        # y falls as chi^(1/3) and grows as 1/(beta - pv); no y search runs
        # inside the Newton, so neither limit multiplies its calls. Bounds,
        # not pinned counts
        d = solve(replace(pos_params, **changes)).diagnostics
        assert d["path"] == "interior" and d["n_kernel_evals"] <= bound, d

    @pytest.mark.parametrize("p", [
        mk(mu=1.9, sigma=0.1, chi=1e-16, beta=1.0, gamma=0.6794362417737436, delta=0.03),
        mk(mu=2.2947555732281053, sigma=0.4196482870051259, chi=3.439397933608149e-10,
           beta=1.0, gamma=1.0066375417915983, delta=0.04032320965959692),
    ])
    def test_beta_one_newton_stops_at_its_rounding(self, p):
        # both reach max |F| of 1e-13 to 1e-14 in about 20 steps, after which
        # steps along the pinned Jacobian's near-null direction no longer
        # lower it; the first such step ends the Newton, not the step cap
        rep = solve(p)
        d = rep.diagnostics
        assert d["path"] == "ac_equals_ap" and d["n_kernel_evals"] <= 250, d
        assert max(rep.residuals.values()) <= 1e-12, rep.residuals


class TestThresholdApproach:
    def test_upper_barriers_diverge_toward_the_threshold(self):
        # as beta falls toward gamma/(gamma+delta), a_c and b grow without
        # settling while a_p tends to the pure-periodic barrier
        pv = 1.0 / 1.15
        sts = [solve(mk(beta=pv + eps)).strategy for eps in (6e-3, 3e-3, 1.5e-3)]
        assert sts[0].a_c < sts[1].a_c < sts[2].a_c
        assert sts[0].b < sts[1].b < sts[2].b


def box_draws(n, seed):
    """n points of criterion 1's box, chi >= 1e-3 (chi -> 0 is its own limit)."""
    rng = np.random.default_rng(seed)
    return [
        ModelParams(mu=rng.uniform(-2.0, 2.0), sigma=rng.uniform(0.1, 2.0),
                    chi=rng.uniform(1e-3, 0.4), beta=rng.uniform(0.05, 1.0),
                    gamma=rng.uniform(0.2, 3.0), delta=rng.uniform(0.02, 0.8))
        for _ in range(n)
    ]


def boundary_crossings(p, eps):
    """p's crossings of each regime boundary at relative distance eps.

    Yields (name, below, above, gap, regimes, at): the points either side,
    their distance in the crossing parameter, the regimes the closed-form
    thresholds give them, and the points on the boundary itself. The drift
    keeps p's size for both signs at beta = pv; with mu < 0 the periodic-zero
    or window side there depends on the side of the corner chi = beta (-mu) /
    (gamma+delta). beta0 is crossed along p's chi/beta with mu < 0, where
    that ratio is below -mu/(gamma+delta).
    """
    pv, gd, m = p.pvfactor, p.gamma + p.delta, abs(p.mu)
    R = Regime
    pair = ((R.UNPROFITABLE_LIQUIDATION_HALF, R.PROFITABLE_HYBRID) if p.beta > pv
            else (R.UNPROFITABLE_PERIODIC_ZERO, R.PROFITABLE_PERIODIC))
    yield "mu = 0", replace(p, mu=-eps), replace(p, mu=eps), 2 * eps, pair, [replace(p, mu=0.0)]
    lo, hi = pv * (1 - eps), pv * (1 + eps)
    q = replace(p, mu=m)
    yield ("beta = pv, mu > 0", replace(q, beta=lo), replace(q, beta=hi), hi - lo,
           (R.PROFITABLE_PERIODIC, R.PROFITABLE_HYBRID), [replace(q, beta=pv)])
    # below pv the window pays only while chi < beta (-mu)/(gamma+delta)
    q = replace(p, mu=-m)
    wait = q.chi >= lo * m / gd
    below = R.UNPROFITABLE_PERIODIC_ZERO if wait else R.UNPROFITABLE_LIQUIDATION_FINITE
    yield ("beta = pv, mu < 0", replace(q, beta=lo), replace(q, beta=hi), hi - lo,
           (below, R.UNPROFITABLE_LIQUIDATION_HALF), [replace(q, beta=pv)])
    if q.chi / q.beta < m / gd:
        lo, hi = flip_along_fixed_cost_ratio(q)
        b_lo, b_hi = lo * (1 - eps), hi * (1 + eps)
        yield ("beta = beta0", along_cost_ratio(q, b_lo), along_cost_ratio(q, b_hi), b_hi - b_lo,
               (R.UNPROFITABLE_PERIODIC_ZERO, R.UNPROFITABLE_LIQUIDATION_FINITE),
               [along_cost_ratio(q, lo), along_cost_ratio(q, hi)])


class TestRegimeBoundaries:
    """The paper's partition of the parameters, checked at its boundaries.

    Just either side of each boundary the two solves land in the regimes the
    thresholds name, each inside its 1e-10 gate, and V on a fixed grid moves
    by at most 10 times the step across: V is continuous there, so a flip in
    the wrong place would show as a jump. On the boundary itself a solve
    gives a strategy or a typed error.
    """

    @pytest.mark.parametrize("eps", [1e-6, 1e-8])
    def test_criterion_1_box(self, eps):
        crossed = {}
        for p in box_draws(300, 5):
            for name, below, above, gap, regimes, at in boundary_crossings(p, eps):
                reps = solve(below), solve(above)
                assert tuple(r.regime for r in reps) == regimes, (name, p)
                for r in reps:
                    assert max(r.residuals.values(), default=0.0) < 1e-10, (name, p, r.residuals)
                jump = max_value_gap(below, reps[0], above, reps[1])
                assert jump <= 10.0 * gap, (name, p, jump, gap)
                for q in at:
                    try:
                        solve(q)
                    except DivoptError:
                        pass
                crossed[name] = crossed.get(name, 0) + 1
        assert crossed["beta = beta0"] > 100 and len(crossed) == 4, crossed


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
            if p.chi == 0.0 and classify_regime(p, solve_roots(p)) is Regime.PROFITABLE_HYBRID:
                # b -> a_c: refused before any search, as for the liquidations
                assert outcome == "OutOfRangeError", p
            outcomes[outcome] = outcomes.get(outcome, 0) + 1
        # the draws reach every regime and the typed error
        assert set(outcomes) == {r.value for r in Regime} | {"OutOfRangeError"}, outcomes

    def test_widened_criterion_2_fixed_draws_solve_and_verify(self, upper_gap_calls):
        # the Hypothesis test below draws a different set under a different
        # solver; these draws stay put, so their paths and verdicts compare
        # across commits. Each solve runs at most one bracketed search
        paths = set()
        for p in widened_criterion_2_draws(202, 320):
            upper_gap_calls.clear()
            rep = solve(p)
            assert len(upper_gap_calls) <= 1, p
            assert rep.regime is Regime.PROFITABLE_HYBRID
            assert max(rep.residuals.values()) < 1e-10, (p, rep.residuals)
            assert check_hjb(p, solve_roots(p), rep.strategy).passed, p
            paths.add(rep.diagnostics["path"])
        assert paths == HYBRID_PATHS

    def test_widened_criterion_2_hybrids_solve_fast_and_verified(self):
        # criterion 2's hybrid distribution with beta over all of (pv, 1],
        # beta = 1 itself, and chi down to 1e-16: every solve is inside its
        # gate, passes check_hjb and is fast, and the solves reach every path.
        # The explicit examples pin the rare low-drift, high-volatility corner
        # where a_p = 0, and the beta -> 1, tiny-chi corner
        paths = set()

        @settings(derandomize=True, database=None, deadline=None, max_examples=200)
        @example(mu=0.02, sigma=1.5, chi=0.01, gamma=1.0, delta=0.15, u=0.6)
        @example(mu=0.1, sigma=1.5, chi=1e-12, gamma=1.0, delta=0.15, u=0.25)
        @example(mu=1.0, sigma=1.0, chi=1e-16, gamma=1.0, delta=0.25, u=0.99999)
        @example(mu=1.0, sigma=1.0, chi=1e-07, gamma=1.0, delta=0.25, u=0.99999)
        @given(
            mu=hs.floats(0.02, 2.5),
            sigma=hs.floats(0.1, 1.5),
            chi=hs.one_of(hs.floats(1e-4, 0.15), hs.floats(-16.0, -4.0).map(lambda e: 10.0**e)),
            gamma=hs.floats(0.3, 2.5),
            delta=hs.floats(0.03, 0.4),
            u=hs.one_of(hs.just(1.0), hs.floats(0.0, 1.0, exclude_min=True)),
        )
        def one(mu, sigma, chi, gamma, delta, u):
            pv = gamma / (gamma + delta)
            beta = 1.0 if u == 1.0 else pv + u * (1.0 - pv)
            if not beta > pv:
                return  # u below the spacing of floats at pv
            p = ModelParams(mu=mu, sigma=sigma, chi=chi, beta=beta, gamma=gamma, delta=delta)
            # the faster of up to two runs, so a scheduler pause is not solver time
            elapsed = math.inf
            for _ in range(2):
                t0 = time.perf_counter()
                rep = solve(p)
                elapsed = min(elapsed, time.perf_counter() - t0)
                if elapsed < 0.1:
                    break
            assert elapsed < 0.1, (p, elapsed)
            assert rep.regime is Regime.PROFITABLE_HYBRID
            assert max(rep.residuals.values()) < 1e-10, (p, rep.residuals)
            assert check_hjb(p, solve_roots(p), rep.strategy).passed, p
            paths.add(rep.diagnostics["path"])

        one()
        assert paths == HYBRID_PATHS

import math

import numpy as np
import pytest

from divopt import (
    DegenerateDenominatorError,
    Hybrid,
    Liquidation,
    ModelParams,
    OutOfRangeError,
    PeriodicBarrier,
    PeriodicZero,
    ValueFunction,
    c_beta_chi,
    f,
    liquidation_A,
    solve,
    solve_roots,
)
from divopt.strategies import nets_positive
from divopt.values import hybrid_kernel
from divopt.verify import hybrid_objective


@pytest.fixture(scope="module")
def solved_pos(pos_params):
    return solve(pos_params)


@pytest.fixture(scope="module")
def solved_neg(neg_params):
    return solve(neg_params)


def _C(params, roots, a, a_c, b):
    """The coefficient C of V(.; Hybrid(a, a_c, b)), as ValueFunction reads it."""
    return hybrid_kernel(params, roots)(a, a_c - a, b - a_c)[3]


def _C_limit(params, roots, a):
    """C's limit as d = b - a grows, independent of the gaps."""
    gd = params.gamma + params.delta
    return (params.gamma * params.mu / gd**2 - roots.pvfactor / roots.s1) / (
        params.delta / gd * f(roots, a) - f(roots, a, 1) / roots.s1
    )


class TestHybridCoefficients:
    def test_zero_lower_barrier_kills_first_denominator_term(self, pos_params, pos_roots):
        # f(0) = 0, so the denominator reduces to f'(0) (g(d) - g(l)), with
        # g and J written out here rather than read from the kernel
        r = pos_roots
        g = lambda x: math.exp(r.r1 * x) - math.exp(r.s1 * x)
        J = lambda x: -r.s1 * g(x) + (r.r1 - r.s1) * (math.exp(r.s1 * x) - 1.0)
        a, a_c, b = 0.0, 0.4, 1.5
        d, l = b - a, a_c - a
        gdl, Jdl = g(d) - g(l), J(d) - J(l)
        gd = pos_params.gamma + pos_params.delta
        num = (
            (r.r1 - r.s1) * (r.alpha * (d - l) - pos_params.chi)
            + r.pvfactor * gdl
            + pos_params.gamma * pos_params.mu / gd**2 * Jdl
        )
        C = _C(pos_params, pos_roots, a, a_c, b)
        assert C == pytest.approx(num / (f(r, 0.0, 1) * gdl), rel=1e-12)

    def test_solved_coefficients_give_unit_slope_at_ap(
        self, pos_params, pos_roots, solved_pos
    ):
        st = solved_pos.strategy
        C = _C(pos_params, pos_roots, st.a_p, st.a_c, st.b)
        assert C * f(pos_roots, st.a_p, 1) == pytest.approx(1.0, abs=1e-8)
        vf = ValueFunction(pos_params, pos_roots, st)
        assert float(vf.d1(st.a_p)) == pytest.approx(C * f(pos_roots, st.a_p, 1), rel=1e-14)

    def test_large_l_limit_matches_closed_form(self, pos_params, pos_roots):
        # the coefficient converges (in l) to a limit independent of y; the
        # non-exponential numerator terms die off like e^{-r1 l}
        a, big_l = 0.2, 35.0 / pos_roots.r1
        C = _C(pos_params, pos_roots, a, a + big_l, a + big_l + 1.0)
        assert C == pytest.approx(_C_limit(pos_params, pos_roots, a), rel=1e-9)

    def test_admissibility_enforced(self, pos_params, pos_roots):
        with pytest.raises(ValueError):
            ValueFunction(pos_params, pos_roots, Hybrid(0.5, 0.4, 2.0))
        with pytest.raises(ValueError):
            # gap below chi/beta nets a negative payment
            ValueFunction(pos_params, pos_roots, Hybrid(0.1, 0.4, 0.4 + 0.005))
        with pytest.raises(ValueError):
            ValueFunction(pos_params, pos_roots, Hybrid(0.3, 0.38, 0.381))

    def test_net_payment_rule(self, pos_params):
        chi, beta = pos_params.chi, pos_params.beta
        assert nets_positive(Hybrid(0.3, 0.38, 0.4), chi, beta)
        assert not nets_positive(Hybrid(0.3, 0.38, 0.381), chi, beta)
        assert not nets_positive(Hybrid(0.3, 0.38, 0.38 + chi / beta), chi, beta)
        assert nets_positive(Hybrid(0.3, 0.38, math.inf), chi, beta)
        for st in (PeriodicBarrier(0.3), PeriodicZero(), Liquidation(0.001, 0.002)):
            assert nets_positive(st, chi, beta)

    def test_degenerate_denominator_reported(self, pos_roots):
        p = ModelParams(mu=1.0, sigma=0.3, chi=0.0, beta=0.9, gamma=1.0, delta=0.15)
        with pytest.raises(DegenerateDenominatorError):
            ValueFunction(p, pos_roots, Hybrid(0.1, 0.4, 0.4 + 1e-15))

    def test_far_lower_barrier_is_out_of_range(self, pos_params, pos_roots):
        # r0 a beyond log(DBL_MAX): f(a) itself is not a float
        assert pos_roots.r0 * 5000.0 > 710.0
        for st in (PeriodicBarrier(5000.0), Hybrid(5000.0, 5001.0, 5002.0)):
            with pytest.raises(OutOfRangeError):
                ValueFunction(pos_params, pos_roots, st)
        # r0 = 9.05: f(a) is a float, f'(a) - s1 (delta/(g+d)) f(a) is not
        p = ModelParams(mu=0.01, sigma=0.1, chi=0.01, beta=0.9, gamma=1.0, delta=0.5)
        r = solve_roots(p)
        for a in (78.15, 78.3, 78.4):
            assert r.r0 * a < 709.78 < r.r0 * a + math.log(r.r0 - r.s1 * 0.5 / 1.5)
            for st in (PeriodicBarrier(a), Hybrid(a, a + 1.0, a + 2.0)):
                with pytest.raises(OutOfRangeError):
                    ValueFunction(p, r, st)


class TestHybridKernel:
    @pytest.mark.parametrize(
        "a, l, y",
        [(0.3, 0.1, 1.0), (0.0, 0.0, 0.5), (0.2, 2.0, 40.0), (0.1, 5.0, 900.0), (0.0, 0.3, 1e4)],
    )
    def test_solver_view_matches_value_function(self, pos_params, pos_roots, a, l, y):
        # the solver reads V' at the barriers straight from the kernel; the
        # evaluator builds its pieces from the same coefficients
        vp_a, vp_ac, vp_b, *_ = hybrid_kernel(pos_params, pos_roots)(a, l, y)
        st = Hybrid(a, a + l, a + l + y)
        vf = ValueFunction(pos_params, pos_roots, st)
        # d1 at a_p = 0 is the right limit: the kernel's vp_a there is C f'(0)
        assert vp_a == pytest.approx(float(vf.d1(st.a_p)), rel=1e-12)
        assert vp_ac == pytest.approx(float(vf.d1(st.a_c)), rel=1e-12)
        assert vp_b == pytest.approx(float(vf.d1(st.b, side="left")), rel=1e-12)
        obj = float(hybrid_objective(pos_params, pos_roots, a, l, y))
        ref = float(vf(st.a_c)) - pos_params.beta * st.a_c
        assert obj == pytest.approx(ref, rel=1e-12, abs=1e-12)

    def test_every_exponential_is_bounded(self, pos_params, pos_roots):
        # r1 d in the tens of thousands: all outputs stay finite, from the
        # kernel (floats) and from the separable V(a_c) (arrays)
        out = hybrid_kernel(pos_params, pos_roots)(0.2, 3.0, 5e4)
        assert all(math.isfinite(v) for v in out)
        arr = hybrid_objective(
            pos_params, pos_roots, np.array([0.2, 0.0]), np.array([3.0, 0.0]), 5e4
        )
        assert np.isfinite(arr).all()
        st = Hybrid(0.2, 3.2, 3.2 + 5e4)
        ref = float(ValueFunction(pos_params, pos_roots, st)(st.a_c)) - pos_params.beta * st.a_c
        assert arr[0] == pytest.approx(ref, rel=1e-12)

    def test_infinite_b_is_the_periodic_limit(self, pos_params, pos_roots):
        # d -> inf: A -> 0 and C tends to _C_limit
        for a in (0.0, 0.2, 0.45):
            C = _C(pos_params, pos_roots, a, a, math.inf)
            assert C == pytest.approx(_C_limit(pos_params, pos_roots, a), rel=1e-12)
            pb = ValueFunction(pos_params, pos_roots, PeriodicBarrier(a))
            hy = ValueFunction(pos_params, pos_roots, Hybrid(a, a, math.inf))
            xs = np.linspace(0.0, a + 3.0, 50)
            assert np.array_equal(pb(xs), hy(xs))
            assert np.all(np.isfinite(pb.d2(xs)))


class TestValueExamples:
    def test_zero_at_origin_for_every_family(self, pos_params, pos_roots, neg_params, neg_roots):
        assert ValueFunction(pos_params, pos_roots, Hybrid(0.3, 0.4, 1.3))(0.0) == 0.0
        assert ValueFunction(pos_params, pos_roots, PeriodicBarrier(0.7))(0.0) == 0.0
        assert ValueFunction(neg_params, neg_roots, PeriodicZero())(0.0) == 0.0
        assert ValueFunction(neg_params, neg_roots, Liquidation(0.3, 2.7))(0.0) == 0.0

    def test_ruined_region_is_zero(self, pos_params, pos_roots):
        assert ValueFunction(pos_params, pos_roots, Hybrid(0.3, 0.4, 1.3))(-0.5) == 0.0

    def test_periodic_zero_asymptotic_slope(self, neg_params, neg_roots):
        # e^{s1 x} -> 0 leaves the linear term with slope gamma/(gamma+delta)
        d1 = ValueFunction(neg_params, neg_roots, PeriodicZero()).d1(40.0)
        assert d1 == pytest.approx(neg_params.pvfactor, abs=1e-12)

    def test_linear_branch_slope_is_beta(self, pos_params, pos_roots):
        st = Hybrid(0.3, 0.4, 1.3)
        vf = ValueFunction(pos_params, pos_roots, st)
        assert vf(st.b + 1.0) - vf(st.b) == pytest.approx(pos_params.beta, abs=1e-12)


class TestContinuityAndDerivatives:
    @pytest.mark.parametrize("which", ["hybrid", "liq", "pb"])
    def test_continuous_at_breakpoints(
        self, which, pos_params, pos_roots, neg_params, neg_roots
    ):
        if which == "hybrid":
            params, roots = pos_params, pos_roots
            vf = ValueFunction(params, roots, Hybrid(0.25, 0.45, 1.4))
        elif which == "liq":
            params, roots = neg_params, neg_roots
            vf = ValueFunction(params, roots, Liquidation(0.32, 2.7))
        else:
            params, roots = pos_params, pos_roots
            vf = ValueFunction(params, roots, PeriodicBarrier(0.6))
        eps = 1e-9
        for bp in vf.breakpoints:
            lo, hi = vf(bp - eps), vf(bp + eps)
            assert abs(hi - lo) < 1e-7 * (1.0 + abs(float(vf(bp))))

    def test_smooth_fit_only_for_solved_strategy(
        self, pos_params, pos_roots, solved_pos
    ):
        st = solved_pos.strategy
        vf = ValueFunction(pos_params, pos_roots, st)
        assert float(vf.d1(st.b, side="left")) == pytest.approx(pos_params.beta, abs=1e-9)
        assert float(vf.d1(st.b, side="right")) == pos_params.beta
        bad = Hybrid(st.a_p, st.a_c, st.b + 0.3)
        vb = ValueFunction(pos_params, pos_roots, bad)
        assert abs(float(vb.d1(bad.b, side="left")) - pos_params.beta) > 1e-3

    def test_monotone_increasing_for_solved_strategies(
        self, pos_params, pos_roots, solved_pos, neg_params, neg_roots, solved_neg
    ):
        for params, roots, rep in (
            (pos_params, pos_roots, solved_pos),
            (neg_params, neg_roots, solved_neg),
        ):
            vf = ValueFunction(params, roots, rep.strategy)
            xs = np.linspace(0.0, 6.0, 1200)
            assert np.all(np.diff(vf(xs)) > 0)

    def test_analytic_derivatives_match_central_differences(
        self, pos_params, pos_roots, solved_pos
    ):
        st = solved_pos.strategy
        vf = ValueFunction(pos_params, pos_roots, st)
        xs = np.linspace(0.01, 2.5, 173)
        keep = np.ones_like(xs, dtype=bool)
        for k in (st.a_p, st.a_c, st.b):
            keep &= np.abs(xs - k) > 1e-3
        xs = xs[keep]
        h = 1e-5  # small enough for O(h^2) truncation, large enough for fp noise
        fd1 = (vf(xs + h) - vf(xs - h)) / (2 * h)
        fd2 = (vf(xs + h) - 2 * vf(xs) + vf(xs - h)) / h**2
        assert np.max(np.abs(fd1 - vf.d1(xs))) < 5e-6
        assert np.max(np.abs(fd2 - vf.d2(xs))) < 1e-3

    def test_curvature_at_upper_barrier(self, pos_params, pos_roots, solved_pos):
        st = solved_pos.strategy
        vf = ValueFunction(pos_params, pos_roots, st)
        assert float(vf.d2(st.b, side="left")) > 0.0
        assert float(vf.d2(st.b, side="right")) == 0.0

    def test_slope_band_pattern_on_dense_grid(self, pos_params, pos_roots, solved_pos):
        st = solved_pos.strategy
        vf = ValueFunction(pos_params, pos_roots, st)
        xs = np.linspace(0.0, 2.0 * st.b, 1500)
        h = xs[1] - xs[0]
        d1 = vf.d1(xs)
        beta = pos_params.beta
        inside = lambda lo, hi: (xs > lo + h) & (xs < hi - h)
        assert np.all(d1[(xs < st.a_p - h)] > 1.0)
        assert np.all((d1[inside(st.a_p, st.a_c)] > beta) & (d1[inside(st.a_p, st.a_c)] < 1.0))
        assert np.all((d1[inside(st.a_c, st.b)] > 0.0) & (d1[inside(st.a_c, st.b)] < beta))
        assert np.all(np.abs(d1[xs > st.b + h] - beta) < 1e-12)


class TestPeriodicBarrierReduction:
    def test_periodic_barrier_is_large_l_hybrid_limit(self, pos_params, pos_roots):
        b = 0.45
        big_l = 35.0 / pos_roots.r1
        pb = ValueFunction(pos_params, pos_roots, PeriodicBarrier(b))
        hy = ValueFunction(
            pos_params, pos_roots, Hybrid(b, b + big_l, b + big_l + 1.0)
        )
        xs = np.linspace(0.0, b + 2.0, 300)
        assert np.allclose(pb(xs), hy(xs), rtol=1e-9, atol=1e-12)

    def test_zero_barrier_equals_periodic_zero(self, neg_params, neg_roots):
        pb = ValueFunction(neg_params, neg_roots, PeriodicBarrier(0.0))
        pz = ValueFunction(neg_params, neg_roots, PeriodicZero())
        xs = np.linspace(0.0, 5.0, 100)
        assert np.allclose(pb(xs), pz(xs), rtol=0, atol=1e-12)


class TestLiquidationPieces:
    def test_A_vanishes_at_indifference_point(self, neg_params, neg_roots):
        c = c_beta_chi(neg_params, neg_roots)
        assert liquidation_A(neg_params, neg_roots, c) == pytest.approx(0.0, abs=1e-10)

    def test_A_negative_at_minimum_gap(self):
        # mu < 0 and beta <= gamma/(gamma+delta): paying the bare minimum loses
        p = ModelParams(mu=-1.0, sigma=0.3, chi=0.15, beta=0.7, gamma=1.0, delta=0.15)
        r = solve_roots(p)
        assert liquidation_A(p, r, p.chi / p.beta) < 0.0

    def test_A_slope_sign_matches_smooth_fit_gap(self, neg_params, neg_roots):
        # dA/db has the sign of beta - V'(b-)
        h = 1e-7
        for b1 in (0.25, 0.31, 0.5, 1.0, 1.4):
            dA = (
                liquidation_A(neg_params, neg_roots, b1 + h)
                - liquidation_A(neg_params, neg_roots, b1 - h)
            ) / (2 * h)
            vf = ValueFunction(neg_params, neg_roots, Liquidation(b1, math.inf))
            gap = neg_params.beta - float(vf.d1(b1, side="left"))
            assert math.copysign(1.0, dA) == math.copysign(1.0, gap)

    def test_value_continuous_at_both_barriers(self, neg_params, neg_roots, solved_neg):
        st = solved_neg.strategy
        vf = ValueFunction(neg_params, neg_roots, st)
        for bp in (st.b1, st.b2):
            assert vf(bp - 1e-10) == pytest.approx(vf(bp + 1e-10), abs=1e-8)

    @pytest.mark.parametrize("beta", [0.7, 0.95])  # finite window, half-line
    def test_liquidation_is_hybrid_000_below_b2(self, beta):
        p = ModelParams(mu=-1.0, sigma=0.3, chi=0.15, beta=beta, gamma=1.0, delta=0.15)
        r = solve_roots(p)
        st = solve(p).strategy
        b2 = st.b2 if math.isfinite(st.b2) else 4.0 * st.b1
        xs = np.append(np.linspace(0.0, b2, 400, endpoint=False), st.b1)
        liq = ValueFunction(p, r, st)
        hy = ValueFunction(p, r, Hybrid(0.0, 0.0, st.b1))
        for k in ("__call__", "d1", "d2"):
            assert np.array_equal(getattr(liq, k)(xs), getattr(hy, k)(xs)), k
        # below b1 this is the closed form A g(x) + V(x; periodic-zero)
        low = xs[xs < st.b1]
        g = np.exp(r.r1 * low) - np.exp(r.s1 * low)
        ref = liquidation_A(p, r, st.b1) * g + ValueFunction(p, r, PeriodicZero())(low)
        assert np.allclose(liq(low), ref, rtol=1e-12, atol=1e-14)

    def test_half_line_variant_drops_upper_branch(self, neg_params, neg_roots):
        vf = ValueFunction(neg_params, neg_roots, Liquidation(0.4, math.inf))
        xs = np.array([0.5, 2.0, 10.0, 50.0])
        assert np.allclose(vf(xs), neg_params.beta * xs - neg_params.chi)

    def test_second_derivative_formula(self, neg_params, neg_roots, solved_neg):
        st = solved_neg.strategy
        vf = ValueFunction(neg_params, neg_roots, st)
        xs = np.linspace(0.01, st.b1 - 0.01, 50)
        h = 1e-5
        fd2 = (vf(xs + h) - 2 * vf(xs) + vf(xs - h)) / h**2
        assert np.allclose(fd2, vf.d2(xs), rtol=1e-4, atol=1e-6)


class TestSideSelector:
    def test_left_and_right_limits_at_kink(self, pos_params, pos_roots, solved_pos):
        st = solved_pos.strategy
        vf = ValueFunction(pos_params, pos_roots, st)
        left = float(vf.d2(st.b, side="left"))
        right = float(vf.d2(st.b, side="right"))
        assert left != right  # genuine kink in curvature
        with pytest.raises(ValueError):
            vf.d1(1.0, side="middle")

    def test_origin_always_uses_right_limit(self, pos_params, pos_roots):
        vf = ValueFunction(pos_params, pos_roots, Hybrid(0.3, 0.4, 1.3))
        assert float(vf.d1(0.0, side="left")) == float(vf.d1(0.0, side="right"))
        assert float(vf.d1(0.0)) > 0.0

import math

import numpy as np
import pytest

from divopt import (
    Hybrid,
    Liquidation,
    ModelParams,
    PeriodicBarrier,
    PeriodicZero,
    ValueFunction,
    audit_derivative_pattern,
    brute_force_hybrid,
    check_hjb,
    solve,
    solve_roots,
)
from divopt.verify import (
    KINK_WINDOW,
    HJBReport,
    _grid_nodes,
    _lattice_objective,
    _payment_targets,
    _strategy_levels,
    hybrid_objective,
)


@pytest.fixture(scope="module")
def solved(pos_params):
    return solve(pos_params).strategy


class TestCheckHJB:
    def test_solved_strategy_passes(self, pos_params, pos_roots, solved):
        rep = check_hjb(pos_params, pos_roots, solved)
        assert rep.passed
        assert rep.max_generator_violation <= 1e-6
        assert rep.max_payment_residual <= 1e-6

    def test_periodic_zero_passes_where_optimal(self):
        p = ModelParams(mu=-1.0, sigma=0.3, chi=0.9, beta=0.7, gamma=1.0, delta=0.15)
        r = solve_roots(p)
        rep = check_hjb(p, r, PeriodicZero())
        assert rep.passed

    def test_zero_periodic_barrier_gets_a_real_grid(self):
        # the b0 = 0 optimum has no positive level; its default grid must
        # still reach past the origin
        p = ModelParams(mu=0.1, sigma=2.0, chi=0.01, beta=0.5, gamma=1.0, delta=0.15)
        rep = solve(p)
        assert rep.strategy == PeriodicBarrier(0.0)
        r = solve_roots(p)
        hjb = check_hjb(p, r, rep.strategy)
        assert hjb.x_generator.max() == pytest.approx(3.0 * (1.0 / abs(r.s1) + 1.0 / r.r1))
        assert hjb.passed

    @pytest.mark.parametrize(
        "grid", [[], [math.nan, 1.0], [0.0, math.inf], [1.0, -1.0], [[0.0, 1.0]]],
        ids=["empty", "nan", "inf", "negative", "2-d"],
    )
    def test_degenerate_grid_is_rejected(self, pos_params, pos_roots, solved, grid):
        with pytest.raises(ValueError, match="non-empty, finite and non-negative 1-D"):
            check_hjb(pos_params, pos_roots, solved, x_grid=np.array(grid))

    @pytest.mark.parametrize("density", [0, 1, True, -1, 2.5, "6"],
                             ids=["zero", "one", "true", "negative", "float", "string"])
    def test_bad_xi_grid_density_is_rejected(self, pos_params, pos_roots, solved, density):
        with pytest.raises(ValueError, match="xi_grid_density must be an integer >= 2"):
            check_hjb(pos_params, pos_roots, solved, xi_grid_density=density)

    def test_grid_inside_the_kink_window_does_not_pass(self, pos_params, pos_roots, solved):
        # condition A is skipped within KINK_WINDOW of b, so on this grid it is
        # evaluated nowhere: a check that checked nothing must not pass
        b = solved.b
        rep = check_hjb(pos_params, pos_roots, solved, x_grid=np.array([b - 5e-7, b, b + 5e-7]))
        assert rep.max_generator_violation == -math.inf
        assert rep.max_payment_residual <= rep.tol
        assert not rep.passed

    def test_liquidation_window_passes(self, neg_params, neg_roots):
        st = solve(neg_params).strategy
        rep = check_hjb(neg_params, neg_roots, st)
        assert rep.passed

    def test_upper_barrier_perturbation_detected_near_b(
        self, pos_params, pos_roots, solved
    ):
        bad = Hybrid(solved.a_p, solved.a_c, solved.b + 0.2)
        rep = check_hjb(pos_params, pos_roots, bad)
        assert not rep.passed
        assert rep.max_payment_residual > rep.tol
        # the improving payment shows up around the displaced barrier
        assert solved.a_c < rep.worst_x_payment < bad.b + 0.5

    def test_lower_barrier_perturbation_is_a_strong_violation(
        self, pos_params, pos_roots, solved
    ):
        bad = Hybrid(solved.a_p + 0.3, max(solved.a_c, solved.a_p + 0.3), solved.b)
        rep = check_hjb(pos_params, pos_roots, bad)
        assert rep.max_generator_violation > 1e-3

    def test_inner_sup_attained_at_periodic_target(
        self, pos_params, pos_roots, solved
    ):
        rep = check_hjb(pos_params, pos_roots, solved, xi_grid_density=300)
        x = rep.x_generator
        sel = x > solved.a_p + 0.05
        # a_p is one of the payment targets, so the best payment is exact
        gap = np.abs(rep.generator_argmax_xi[sel] - (x[sel] - solved.a_p))
        assert np.all(gap <= 1e-12)

    def test_refining_xi_grid_never_lowers_suprema(self, pos_params, pos_roots, solved):
        bad = Hybrid(solved.a_p, solved.a_c, solved.b + 0.2)
        x = np.linspace(0.0, 3.0, 400)
        coarse = check_hjb(pos_params, pos_roots, bad, x_grid=x, xi_grid_density=101)
        fine = check_hjb(pos_params, pos_roots, bad, x_grid=x, xi_grid_density=201)
        assert fine.max_payment_residual >= coarse.max_payment_residual - 1e-15
        assert fine.max_generator_violation >= coarse.max_generator_violation - 1e-15


def _brute_force_hjb(p, r, st, x, density, kink_window=1e-6):
    """Condition A's residual (NaN within kink_window of a kink) and the
    best payment gain of condition B per x, and the condition A argmax, by
    a 2-D max over payment sizes xi = x - y, y in check_hjb's target set,
    ordered by increasing xi."""
    vf = ValueFunction(p, r, st)
    y = _payment_targets(_grid_nodes(x)[0], _strategy_levels(st), density)[1][::-1]
    xi = x[:, None] - y[None, :]
    v = vf(x)
    v_after = vf(x[:, None] - xi)
    improve = np.where(xi >= 0.0, xi + v_after - v[:, None], -np.inf)
    gen = 0.5 * p.sigma**2 * vf.d2(x) + p.mu * vf.d1(x) - p.delta * v
    resid_a = (gen + p.gamma * improve.max(axis=1)) / (1.0 + np.abs(v))
    away = np.ones_like(x, dtype=bool)
    for k in vf.kinks:
        away &= np.abs(x - k) > kink_window
    pay = np.where(xi > 0.0, p.beta * xi - p.chi + v_after - v[:, None], -np.inf)
    gain_b = pay.max(axis=1) / (1.0 + np.abs(v))
    argmax_xi = xi[np.arange(len(x)), improve.argmax(axis=1)]
    return np.where(away, resid_a, np.nan), gain_b, argmax_xi


def _top(st, r):
    """The top of check_hjb's default grid, over 3."""
    levels = _strategy_levels(st)
    return max(levels) if levels else 1.0 / abs(r.s1) + 1.0 / r.r1


@pytest.fixture(scope="module")
def controls():
    """The five strategy families at their optimum, and perturbed controls."""
    pos = ModelParams(mu=1.0, sigma=0.3, chi=0.01, beta=0.9, gamma=1.0, delta=0.15)
    neg = ModelParams(mu=-1.0, sigma=0.3, chi=0.15, beta=0.7, gamma=1.0, delta=0.15)
    periodic = ModelParams(mu=1.0, sigma=0.3, chi=0.01, beta=0.5, gamma=1.0, delta=0.15)
    waits = ModelParams(mu=-1.0, sigma=0.3, chi=0.9, beta=0.7, gamma=1.0, delta=0.15)
    half = ModelParams(mu=-1.0, sigma=0.3, chi=0.15, beta=0.95, gamma=1.0, delta=0.15)
    h, pb = solve(pos).strategy, solve(periodic).strategy
    liq, liq_half = solve(neg).strategy, solve(half).strategy
    cases = [
        ("hybrid", pos, h),
        ("hybrid b+0.2", pos, Hybrid(h.a_p, h.a_c, h.b + 0.2)),
        ("hybrid a_p+0.3", pos, Hybrid(h.a_p + 0.3, max(h.a_c, h.a_p + 0.3), h.b)),
        ("periodic barrier", periodic, pb),
        ("periodic barrier x1.5", periodic, PeriodicBarrier(1.5 * pb.a_p)),
        ("periodic-zero", waits, PeriodicZero()),
        ("periodic-zero where paying is best", pos, PeriodicZero()),
        ("finite liquidation", neg, liq),
        ("finite liquidation b1 x1.2", neg, Liquidation(1.2 * liq.b1, liq.b2)),
        ("half-line liquidation", half, liq_half),
        ("half-line liquidation b1 x0.8", half, Liquidation(0.8 * liq_half.b1, math.inf)),
    ]
    return {name: (p, st) for name, p, st in cases}


@pytest.mark.parametrize("x_lo", [0.0, 0.05])
def test_running_max_suprema_match_brute_force(controls, x_lo):
    for name, (p, st) in controls.items():
        r = solve_roots(p)
        x = np.linspace(x_lo, 3.0 * _top(st, r), 301)
        rep = check_hjb(p, r, st, x_grid=x, xi_grid_density=6)
        ref_a, ref_b, ref_xi = _brute_force_hjb(p, r, st, x, density=6)
        assert abs(rep.max_generator_violation - np.nanmax(ref_a)) <= 1e-12, name
        assert abs(rep.max_payment_residual - max(ref_b.max(), 0.0)) <= 1e-12, name
        # pointwise, so a defect away from the worst point shows too
        assert np.array_equal(np.isnan(rep.resid_generator), np.isnan(ref_a)), name
        assert np.nanmax(np.abs(rep.resid_generator - ref_a)) <= 1e-12, name
        np.testing.assert_allclose(rep.resid_payment, ref_b, rtol=0, atol=1e-12, err_msg=name)
        assert np.abs(rep.generator_argmax_xi - ref_xi).max() <= 1e-12, name


@pytest.mark.parametrize("n", [2, 6, 101])
def test_doubling_the_parts_per_cell_nests_the_targets(n):
    x = np.sort(np.random.default_rng(3).uniform(0.1, 4.0, 300))
    nodes = _grid_nodes(x)[0]
    coarse = _payment_targets(nodes, [0.7, 2.2], n)[1]
    fine = _payment_targets(nodes, [0.7, 2.2], 2 * n - 1)[1]
    assert len(fine) == len(coarse) + (n - 1) * len(x)
    assert np.isin(coarse, fine).all()


def _reference_hjb(p, r, st, x_grid, density, tol=1e-6):
    """check_hjb as first written: the targets sorted and made distinct by
    np.unique, each x found by np.searchsorted, and both maxima as running
    maxima over every target, with the last index attaining the condition A
    maximum taken as its argmax."""
    vf = ValueFunction(p, r, st)
    x = np.asarray(x_grid, dtype=float)
    nodes = np.unique(np.append(x, 0.0))
    u = np.linspace(0.0, 1.0, density)[1:-1]
    fill = nodes[:-1, None] + np.diff(nodes)[:, None] * u
    y = np.unique(np.concatenate([nodes, fill.ravel(), _strategy_levels(st)]))
    vy = vf(y)
    ix = np.searchsorted(y, x)
    v = vy[ix]
    scale = 1.0 + np.abs(v)
    w = vy - y
    run = np.maximum.accumulate(w)
    at = np.maximum.accumulate(np.where(w == run, np.arange(len(y)), 0))
    sup_a = x - v + run[ix]
    gen = 0.5 * p.sigma**2 * vf.d2(x) + p.mu * vf.d1(x) - p.delta * v
    ok_a = np.ones_like(x, dtype=bool)
    for k in vf.kinks:
        ok_a &= np.abs(x - k) > KINK_WINDOW
    resid_a = np.where(ok_a, (gen + p.gamma * sup_a) / scale, np.nan)
    max_a, worst_a = -math.inf, math.nan
    if ok_a.any():
        ia = int(np.argmax(np.where(ok_a, resid_a, -np.inf)))
        max_a, worst_a = float(resid_a[ia]), float(x[ia])
    run_b = np.maximum.accumulate(vy - p.beta * y)
    best_b = np.where(ix > 0, run_b[ix - 1], -np.inf)
    gain_b = (p.beta * x - p.chi - v + best_b) / scale
    ib = int(np.argmax(np.maximum(gain_b, 0.0)))
    max_b = max(float(gain_b[ib]), 0.0)
    return HJBReport(
        n_points=len(x),
        tol=tol,
        max_generator_violation=max_a,
        worst_x_generator=worst_a,
        max_payment_residual=max_b,
        worst_x_payment=float(x[ib]),
        passed=bool(ok_a.any()) and max_a <= tol and max_b <= tol,
        generator_argmax_xi=x - y[at[ix]],
        x_generator=x,
        resid_generator=resid_a,
        resid_payment=gain_b,
    )


def _assert_same_bits(rep, ref, label):
    """Every HJBReport field equal bit for bit: type, shape and bytes."""
    for name in HJBReport.__dataclass_fields__:
        a, b = np.asarray(getattr(rep, name)), np.asarray(getattr(ref, name))
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), (label, name)


@pytest.mark.parametrize("density", [2, 6, 101])
@pytest.mark.parametrize("x_lo", [0.0, 0.05])
def test_grid_order_matches_the_sorted_reference(controls, density, x_lo):
    for name, (p, st) in controls.items():
        r = solve_roots(p)
        x = np.linspace(x_lo, 3.0 * _top(st, r), 301)
        rep = check_hjb(p, r, st, x_grid=x, xi_grid_density=density)
        _assert_same_bits(rep, _reference_hjb(p, r, st, x, density), name)


def test_custom_grids_match_the_sorted_reference(controls):
    rng = np.random.default_rng(9)
    for name, (p, st) in controls.items():
        r = solve_roots(p)
        top = _top(st, r)
        levels = _strategy_levels(st)
        # shuffled, with repeats and with 0 inside
        x = rng.uniform(0.0, 3.0 * top, 200)
        x = rng.permutation(np.concatenate([x, x[:40], [0.0]]))
        grids = [("shuffled", x, 6)]
        # the levels exactly on grid points: targets repeat
        grids.append(("on levels", np.sort(np.append(np.linspace(0.0, 3.0 * top, 60), levels)), 6))
        # cells a few ulps wide, where fills round onto the next node: around
        # the top level, and halfway to the lowest, where V(y) - beta y
        # still grows and the fills would be the best payment below x
        ulps = [z + k * math.ulp(z) for z in (top, 0.5 * min(levels, default=top))
                for k in range(-3, 7)]
        x = np.sort(np.concatenate([np.linspace(0.0, 3.0 * top, 50), ulps]))
        for density in (6, 101):
            grid = _payment_targets(_grid_nodes(x)[0], levels, density)[0]
            c = density - 1
            assert (grid[c - 1 : -1 : c] == grid[c::c]).any(), name
            grids.append((f"ulps, density {density}", x, density))
        for label, x, density in grids:
            rep = check_hjb(p, r, st, x_grid=x, xi_grid_density=density)
            _assert_same_bits(rep, _reference_hjb(p, r, st, x, density), (name, label))


class TestBruteForce:
    def test_solver_dominates_lattice(self, pos_params, pos_roots, solved):
        res = brute_force_hybrid(pos_params, pos_roots, n_per_axis=30)
        obj_star = float(
            hybrid_objective(
                pos_params,
                pos_roots,
                solved.a_p,
                solved.a_c - solved.a_p,
                solved.b - solved.a_c,
            )
        )
        assert obj_star >= res.objective - 1e-6

    def test_refinement_moves_argmax_toward_solver(self, pos_params, pos_roots, solved):
        target = np.array([solved.a_p, solved.a_c - solved.a_p, solved.b - solved.a_c])
        bounds = (4 * target[1], 4 * target[2])
        coarse = brute_force_hybrid(pos_params, pos_roots, bounds, n_per_axis=12)
        fine = brute_force_hybrid(pos_params, pos_roots, bounds, n_per_axis=48)
        d_coarse = np.linalg.norm(np.array([coarse.a, coarse.l, coarse.y]) - target)
        d_fine = np.linalg.norm(np.array([fine.a, fine.l, fine.y]) - target)
        assert d_fine < d_coarse
        assert fine.objective >= coarse.objective

    def test_lattice_respects_minimum_payment_gap(self, pos_params, pos_roots):
        res = brute_force_hybrid(pos_params, pos_roots, n_per_axis=10)
        assert res.barriers[2] - res.barriers[1] > pos_params.chi / pos_params.beta

    def test_paying_the_bare_minimum_is_never_best(self, pos_params, pos_roots, solved):
        # objective strictly worse when the gap nets exactly zero
        at_min = float(
            hybrid_objective(
                pos_params,
                pos_roots,
                solved.a_p,
                solved.a_c - solved.a_p,
                pos_params.chi / pos_params.beta * 1.0000001,
            )
        )
        best = float(
            hybrid_objective(
                pos_params,
                pos_roots,
                solved.a_p,
                solved.a_c - solved.a_p,
                solved.b - solved.a_c,
            )
        )
        assert at_min < best


class TestPatternAudit:
    def test_solved_passes(self, pos_params, pos_roots, solved):
        audit = audit_derivative_pattern(pos_params, pos_roots, solved)
        assert audit.passed and audit.branch == "interior"

    def test_inflated_lower_barrier_fails_with_location(
        self, pos_params, pos_roots, solved
    ):
        bad = Hybrid(solved.a_p + 0.3, max(solved.a_c, solved.a_p + 0.3), solved.b)
        audit = audit_derivative_pattern(pos_params, pos_roots, bad)
        assert not audit.passed
        assert audit.violations
        xs = [v[0] for v in audit.violations]
        assert any(x < bad.a_p for x in xs)  # slope drops below 1 before a_p

    def test_collapsed_barriers_use_reduced_branch(self):
        p = ModelParams(mu=0.05, sigma=3.0, chi=0.01, beta=0.95, gamma=1.0, delta=0.15)
        st = solve(p).strategy
        assert st.a_p == 0.0 and st.a_c == 0.0
        audit = audit_derivative_pattern(p, solve_roots(p), st)
        assert audit.branch == "both_zero"
        assert audit.passed

    def test_rejects_non_hybrid(self, neg_params, neg_roots):
        with pytest.raises(TypeError):
            audit_derivative_pattern(neg_params, neg_roots, PeriodicZero())


class TestValueDominance:
    def test_solved_value_dominates_grid_candidates_pointwise(
        self, pos_params, pos_roots, solved
    ):
        from divopt import ValueFunction

        vf_star = ValueFunction(pos_params, pos_roots, solved)
        xs = np.linspace(0.0, 2.5 * solved.b, 40)
        rng = np.random.default_rng(77)
        min_gap = pos_params.chi / pos_params.beta
        for _ in range(25):
            a = rng.uniform(0.0, pos_roots.a_bar)
            l = rng.uniform(0.0, 0.5)
            y = rng.uniform(min_gap * 1.05, 3.0)
            cand = Hybrid(a, a + l, a + l + y)
            vc = ValueFunction(pos_params, pos_roots, cand)
            assert np.all(vf_star(xs) >= vc(xs) - 1e-6)


# a hybrid with b = 140.7: criterion 3's lattice reaches r1 (l + y) beyond
# 900, where unshifted exponentials overflow
FAR = ModelParams(0.7153723156949918, 0.2750105483646734, 0.26754445645052516,
                  0.3719527995230263, 0.46372960630358384, 0.7894698917156511)


def _criterion3_bounds(p, r):
    """Criterion 3's lattice bounds around the solved gaps."""
    st = solve(p).strategy
    return 4.0 * (st.a_c - st.a_p) + 2.0 / abs(r.s1), 4.0 * (st.b - st.a_c) + 2.0 / r.r1


def _lattice_axes(p, r, bounds, n=40):
    """The axes brute_force_hybrid lays over [0, a_bar] x [0, l_max] x (chi/beta, y_max]."""
    l_max, y_max = bounds
    y_lo = p.chi / p.beta + max(y_max * 1e-6, 1e-12)
    a = np.linspace(0.0, r.a_bar, n) if r.a_bar > 0 else np.zeros(1)
    return a, np.linspace(0.0, l_max, n), np.linspace(y_lo, y_max, n)


def _criterion3_draw(rng):
    """Acceptance criterion 3's hybrid distribution."""
    gamma = rng.uniform(0.3, 2.5)
    delta = rng.uniform(0.03, 0.4)
    pv = gamma / (gamma + delta)
    return ModelParams(mu=rng.uniform(0.02, 2.5), sigma=rng.uniform(0.1, 1.5),
                       chi=rng.uniform(1e-4, 0.15), beta=rng.uniform(pv + 0.015, 1.0),
                       gamma=gamma, delta=delta)


@pytest.mark.parametrize("case", ["pos", "a_bar_zero", "far"])
def test_contracted_lattice_matches_scalar_objective(pos_params, case):
    # 200 seeded lattice points, a tenth of them on the first y node, just
    # above chi/beta; a_bar = 0 leaves a single-point a axis, and FAR's
    # lattice reaches r1 d > 700
    if case == "a_bar_zero":
        p = ModelParams(mu=-0.3, sigma=0.6, chi=0.05, beta=0.95, gamma=1.0, delta=0.15)
        r = solve_roots(p)
        bounds = (2.0, 3.0)
    else:
        p = pos_params if case == "pos" else FAR
        r = solve_roots(p)
        bounds = _criterion3_bounds(p, r)
    a, l, y = _lattice_axes(p, r, bounds)
    lattice = _lattice_objective(p, r, a, l, y)
    assert lattice.shape == (len(a), 40, 40)
    assert np.isfinite(lattice).all()
    if case == "far":
        assert r.r1 * (l[-1] + y[-1]) > 700.0
    rng = np.random.default_rng(606)
    idx = rng.integers(0, lattice.shape, size=(200, 3))
    idx[:20, 2] = 0
    scalar = np.array(
        [float(hybrid_objective(p, r, a[i], l[j], y[k])) for i, j, k in idx]
    )
    # relative to each point, with a floor at the lattice's scale for points
    # near the zero crossing of V(a_c) - beta a_c
    np.testing.assert_allclose(
        lattice[tuple(idx.T)], scalar, rtol=1e-12, atol=1e-12 * np.abs(lattice).max()
    )


def test_lattice_search_is_the_pointwise_maximum(pos_params):
    # the contracted search finds the maximum of the same lattice evaluated
    # point by point (hybrid_objective broadcast over the 40^3 points)
    rng = np.random.default_rng(303)
    for p in [pos_params] + [_criterion3_draw(rng) for _ in range(9)]:
        r = solve_roots(p)
        bounds = _criterion3_bounds(p, r)
        res = brute_force_hybrid(p, r, bounds, n_per_axis=40)
        a, l, y = _lattice_axes(p, r, bounds)
        pointwise = hybrid_objective(p, r, a[:, None, None], l[:, None], y)
        i, j, k = np.unravel_index(np.argmax(pointwise), pointwise.shape)
        assert (res.a, res.l, res.y) == (a[i], l[j], y[k])
        assert res.objective == pytest.approx(pointwise[i, j, k], rel=1e-12)
        assert res.bounds == bounds and res.n_per_axis == 40


def test_lattice_evaluates_far_upper_barriers():
    p = FAR
    r = solve_roots(p)
    st = solve(p).strategy
    l_star, y_star = st.a_c - st.a_p, st.b - st.a_c
    bounds = (4.0 * l_star + 2.0 / abs(r.s1), 4.0 * y_star + 2.0 / r.r1)
    assert r.r1 * (bounds[0] + bounds[1]) > 700.0
    grid = brute_force_hybrid(p, r, bounds, n_per_axis=40)
    assert np.isfinite(grid.objective)
    obj = float(hybrid_objective(p, r, st.a_p, l_star, y_star))
    assert obj >= grid.objective - 1e-6

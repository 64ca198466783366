import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from divopt import ModelParams, f, laplace_exponent, solve_roots

# shared strategy for arbitrary-but-sane parameter sets
param_sets = hs.builds(
    ModelParams,
    mu=hs.floats(-3.0, 3.0),
    sigma=hs.floats(0.05, 3.0),
    chi=hs.floats(0.0, 0.5),
    beta=hs.floats(0.05, 1.0),
    gamma=hs.floats(0.1, 4.0),
    delta=hs.floats(0.01, 1.0),
)


class TestModelParams:
    @pytest.mark.parametrize(
        "bad",
        [
            dict(sigma=0.0),
            dict(sigma=-1.0),
            dict(gamma=0.0),
            dict(delta=-0.1),
            dict(beta=0.0),
            dict(beta=1.2),
            dict(chi=-0.01),
            dict(mu=math.nan),
        ],
    )
    def test_rejects_invalid(self, bad):
        kw = dict(mu=1.0, sigma=0.3, chi=0.01, beta=0.9, gamma=1.0, delta=0.15)
        kw.update(bad)
        with pytest.raises(ValueError):
            ModelParams(**kw)

    def test_derived_constants(self, pos_params):
        assert pos_params.pvfactor == pytest.approx(1.0 / 1.15)
        assert pos_params.alpha == pytest.approx(0.9 - 1.0 / 1.15)


class TestLaplaceExponent:
    def test_pure_quadratic(self):
        p = ModelParams(mu=0.0, sigma=math.sqrt(2), chi=0.0, beta=0.9, gamma=1, delta=0.1)
        assert laplace_exponent(p, 1.0) == pytest.approx(1.0)

    def test_zero_at_zero(self):
        p = ModelParams(mu=1.0, sigma=math.sqrt(2), chi=0.0, beta=0.9, gamma=1, delta=0.1)
        assert laplace_exponent(p, 0.0) == 0.0

    def test_direct_evaluation(self):
        # 0.5 * 0.09 * 4 + 1 * 2
        p = ModelParams(mu=1.0, sigma=0.3, chi=0.0, beta=0.9, gamma=1, delta=0.1)
        assert laplace_exponent(p, 2.0) == pytest.approx(2.18, abs=1e-12)


class TestRoots:
    def test_symmetric_case(self):
        # sigma^2/2 = 1, mu = 0, level gamma+delta = 1: theta^2 = 1
        p = ModelParams(mu=0.0, sigma=math.sqrt(2), chi=0.0, beta=0.9, gamma=0.85, delta=0.15)
        r = solve_roots(p)
        assert r.r1 == pytest.approx(1.0)
        assert r.s1 == pytest.approx(-1.0)
        assert r.a_bar == 0.0

    def test_quadratic_by_substitution(self):
        p = ModelParams(mu=1.0, sigma=0.3, chi=0.0, beta=0.9, gamma=1.0, delta=0.15)
        r = solve_roots(p)
        for root in (r.r0, r.s0):
            assert 0.045 * root**2 + root - 0.15 == pytest.approx(0.0, abs=1e-12)

    @settings(max_examples=150, deadline=None)
    @given(param_sets)
    def test_root_identities_and_orderings(self, p):
        r = solve_roots(p)
        gd = p.gamma + p.delta
        for root, level in ((r.r0, p.delta), (r.s0, p.delta), (r.r1, gd), (r.s1, gd)):
            # allow for the conditioning of evaluating psi itself: its two
            # terms can dwarf the level for extreme parameter ratios
            cond = 0.5 * p.sigma**2 * root**2 + abs(p.mu * root)
            assert abs(laplace_exponent(p, root) - level) <= 1e-10 * level + 8e-16 * cond
        assert r.r0 > 0 > r.s0 and r.r1 > 0 > r.s1
        assert r.r0 < r.r1
        assert abs(r.s0) < abs(r.s1)
        # strict sign splits need a drift visibly above fp noise
        if p.mu > 1e-9:
            assert abs(r.s1) > r.r1
            assert r.a_bar > 0
        elif p.mu < -1e-9:
            assert abs(r.s1) < r.r1
            assert r.a_bar == 0.0
        else:
            assert r.s1 == pytest.approx(-r.r1)

    def test_a_bar_is_inflection_of_f(self, pos_params, pos_roots):
        assert pos_roots.a_bar > 0
        assert f(pos_roots, pos_roots.a_bar, 2) == pytest.approx(0.0, abs=1e-9)


def g_roots(p):
    """g(x) = e^{r1 x} - e^{s1 x} is f one discount level up: f's roots at
    delta' = gamma + delta are (r1, s1)."""
    return solve_roots(replace(p, delta=p.gamma + p.delta))


class TestScaleFunctionBuildingBlocks:
    def test_vanish_at_zero(self, pos_params, pos_roots):
        for r in (pos_roots, g_roots(pos_params)):
            assert f(r, 0.0) == 0.0
            assert f(r, np.zeros(3)).tolist() == [0.0] * 3

    def test_g_roots_are_r1_s1(self, pos_params, pos_roots):
        gr = g_roots(pos_params)
        assert (gr.r0, gr.s0) == (pos_roots.r1, pos_roots.s1)

    def test_symmetric_g_value(self):
        # r1 = 1, s1 = -1: g(1) = e - 1/e
        p = ModelParams(mu=0.0, sigma=math.sqrt(2), chi=0.0, beta=0.9, gamma=0.85, delta=0.15)
        assert f(g_roots(p), 1.0) == pytest.approx(math.e - 1.0 / math.e, rel=1e-14)

    def test_monotone_and_positive(self, pos_params, pos_roots):
        xs = np.linspace(0.0, 4.0, 200)
        for r in (pos_roots, g_roots(pos_params)):
            assert np.all(np.diff(f(r, xs)) > 0)
            assert np.all(f(r, xs, 1) > 0)

    def test_float_and_array_paths_agree(self, pos_roots):
        xs = np.array([0.0, 0.05, 0.4, 1.1, 7.0])
        for k in (0, 1, 2):
            arr = f(pos_roots, xs, k)
            assert [f(pos_roots, float(x), k) for x in xs] == pytest.approx(arr, rel=1e-14)

    def test_derivatives_of_f_and_g_match_fd(self, pos_params, pos_roots):
        xs = np.array([0.05, 0.4, 1.1])
        h = 1e-6
        for r in (pos_roots, g_roots(pos_params)):
            fd = (f(r, xs + h) - f(r, xs - h)) / (2 * h)
            assert np.allclose(fd, f(r, xs, 1), rtol=1e-7, atol=1e-9)
            fd = (f(r, xs + h, 1) - f(r, xs - h, 1)) / (2 * h)
            assert np.allclose(fd, f(r, xs, 2), rtol=1e-6, atol=1e-8)

    @settings(max_examples=60, deadline=None)
    @given(param_sets, hs.floats(0.0, 8.0))
    def test_g_satisfies_its_ode(self, p, x):
        r = g_roots(p)
        if r.r0 * x > 700.0:  # e^{r1 x} leaves the floating-point range
            return
        lhs = f(r, x, 2) - (r.r0 + r.s0) * f(r, x, 1) + r.r0 * r.s0 * f(r, x)
        scale = abs(f(r, x, 2)) + abs(f(r, x)) + 1.0
        assert abs(lhs) <= 1e-9 * scale


class TestRescaling:
    def test_rescaled_params(self, pos_params):
        q = pos_params.rescaled(2.0)
        assert (q.mu, q.sigma, q.chi) == (2.0, 0.6, 0.02)
        assert (q.beta, q.gamma, q.delta) == (0.9, 1.0, 0.15)

    def test_roots_scale_inversely(self, pos_params, pos_roots):
        k = 3.7
        r2 = solve_roots(pos_params.rescaled(k))
        assert r2.r0 == pytest.approx(pos_roots.r0 / k, rel=1e-12)
        assert r2.s1 == pytest.approx(pos_roots.s1 / k, rel=1e-12)
        assert r2.a_bar == pytest.approx(pos_roots.a_bar * k, rel=1e-12)

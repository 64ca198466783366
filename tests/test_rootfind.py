"""The bracketing root finders and their fixed stopping constants."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from divopt.errors import NoBracketError
from divopt.rootfind import (
    ABS_TOL_X,
    GROWTH,
    HALVING_EVALS,
    MAX_GROWTH_STEPS,
    MAX_ITER,
    bisect_secant,
    bracket_geometric,
    smallest_root_scan,
)


def counted(fn):
    """fn, with the number of its calls in .calls."""

    def wrapped(x):
        wrapped.calls += 1
        return fn(x)

    wrapped.calls = 0
    return wrapped


class TestBisectSecant:
    def test_exact_zero_endpoints_are_returned(self):
        fn = lambda x: x * (x - 2.0)
        assert bisect_secant(fn, 0.0, 1.0) == 0.0
        assert bisect_secant(fn, 1.0, 2.0) == 2.0
        # also when the endpoint values are passed in
        assert bisect_secant(fn, 1.0, 2.0, fn(1.0), 0.0) == 2.0

    def test_no_sign_change_raises(self):
        with pytest.raises(NoBracketError):
            bisect_secant(lambda x: x * x + 1.0, -1.0, 1.0)

    @pytest.mark.parametrize("root", [math.sqrt(2.0), 1e-3, 1e6])
    def test_converges_to_the_stopping_width(self, root):
        # a root near a steep wall and a flat tail, where secant steps stall
        fn = lambda x: math.expm1(40.0 * (x / root - 1.0))
        x = bisect_secant(fn, 0.0, 3.0 * root)
        assert abs(x - root) <= ABS_TOL_X * (1.0 + root)

    def test_evaluation_cap(self):
        # a sign step of the smallest subnormal: the scaled end values
        # underflow to 0, so every point is a midpoint; the bracket, 2e300
        # wide, needs over 1,000 halvings, so the cap binds first
        fn = counted(lambda x: math.copysign(5e-324, x - 0.3))
        x = bisect_secant(fn, -1e300, 1e300)
        assert fn.calls == 2 + MAX_ITER
        assert abs(x - 0.3) > 1.0

    @pytest.mark.parametrize("fn, lo, hi, root", [
        # a steep wall on one side of the root and a flat tail on the other
        (lambda x: math.expm1(40.0 * (x - 1.0)), 0.0, 3.0, 1.0),
        # a flat root, where regula falsi alone creeps in from one side
        (lambda x: (x - 0.7) ** 3, -2.0, 1.0, 0.7),
        # a vertical tangent: |x - r|^0.1 with the sign of x - r
        (lambda x: math.copysign(abs(x - 0.4) ** 0.1, x - 0.4), 0.0, 10.0, 0.4),
    ])
    def test_bracket_halves_every_halving_evals(self, fn, lo, hi, root):
        # each evaluation shrinks the bracket [largest x with f < 0, smallest
        # with f > 0]; after k evaluations it is at most 2^-(k // HALVING_EVALS)
        # of the first, whatever the secant steps do
        xs = []
        x = bisect_secant(lambda t: xs.append(t) or fn(t), lo, hi)
        width0 = hi - lo
        for k in range(3, len(xs) + 1):
            below = max([lo] + [t for t in xs[2:k] if fn(t) < 0.0])
            above = min([hi] + [t for t in xs[2:k] if fn(t) > 0.0])
            assert above - below <= width0 * 0.5 ** ((k - 2) // HALVING_EVALS)
        assert abs(x - root) <= ABS_TOL_X * (1.0 + root)

    def test_tiny_values_keep_their_signs(self):
        # the product of the two end values, 1e-300 squared, rounds to 0
        x = bisect_secant(lambda x: 1e-300 * (x - 0.3), -1.0, 2.0)
        assert abs(x - 0.3) <= ABS_TOL_X * 1.3
        with pytest.raises(NoBracketError):
            bisect_secant(lambda x: 1e-200 * (x - 5.0), -1.0, 2.0)
        # the smallest subnormal: the scaled end value underflows to 0
        for s in (1.0, -1.0):
            x = bisect_secant(lambda x: s * math.copysign(5e-324, x - 0.3), -1.0, 2.0)
            assert abs(x - 0.3) <= ABS_TOL_X * 1.3

    @settings(max_examples=300, deadline=None)
    @given(
        shape=hs.sampled_from([
            lambda u: u,
            lambda u: u**3,
            math.tanh,
            math.expm1,  # overflows to inf once scaled, far from the root
            lambda u: math.copysign(abs(u) ** 0.1, u),
        ]),
        exponent=hs.floats(-300.0, 300.0),
        sign=hs.sampled_from([1.0, -1.0]),
        root=hs.floats(-10.0, 10.0),
        lo=hs.floats(-20.0, 20.0),
        width=hs.floats(1e-6, 40.0),
    )
    def test_monotone_targets_at_any_scale(self, shape, exponent, sign, root, lo, width):
        # the result lies within the stopping width of the sign change, or
        # the bracket has none and NoBracketError is raised; nothing else
        scale = sign * 10.0**exponent
        fn = lambda x: scale * shape(x - root)
        hi = lo + width
        flo, fhi = sign * fn(lo), sign * fn(hi)  # increasing
        if flo > 0.0 or fhi < 0.0:
            with pytest.raises(NoBracketError):
                bisect_secant(fn, lo, hi)
            return
        x = bisect_secant(fn, lo, hi)
        w = ABS_TOL_X * (1.0 + abs(x))
        assert lo <= x <= hi
        assert sign * fn(x - w) <= 0.0 <= sign * fn(x + w)


class TestBracketGeometric:
    def test_rejects_non_positive_start(self):
        for x0 in (0.0, -1.0):
            with pytest.raises(ValueError):
                bracket_geometric(lambda x: x - 1.0, x0)

    def test_grows_by_the_fixed_factor(self):
        # 1.7^4 < 10 <= 1.7^5
        lo, hi, flo, fhi = bracket_geometric(lambda x: x - 10.0, 1.0)
        assert GROWTH == 1.7
        assert (lo, hi) == pytest.approx((GROWTH**4, GROWTH**5), rel=1e-14)
        assert flo < 0.0 <= fhi

    def test_tiny_values_keep_their_signs(self):
        # the product of two values near 1e-300 rounds to 0
        lo, hi, flo, fhi = bracket_geometric(lambda x: 1e-300 * (x - 5.0), 1.0)
        assert lo < 5.0 <= hi and flo < 0.0 <= fhi

    def test_root_at_the_start(self):
        assert bracket_geometric(lambda x: x - 2.0, 2.0) == (2.0, 2.0, 0.0, 0.0)

    def test_step_cap(self):
        fn = counted(lambda x: 1.0)
        with pytest.raises(NoBracketError):
            bracket_geometric(fn, 1e-6)
        assert fn.calls == 1 + MAX_GROWTH_STEPS


class TestSmallestRootScan:
    def test_leftmost_of_two_roots(self):
        fn = lambda x: (x - 1.0) * (x - 3.0)
        assert smallest_root_scan(fn, 0.0, 5.0, 0.3) == pytest.approx(1.0, abs=1e-13)
        # from past the first root, the second is the leftmost
        assert smallest_root_scan(fn, 1.5, 5.0, 0.3) == pytest.approx(3.0, abs=1e-13)

    def test_zero_at_the_start_is_returned(self):
        assert smallest_root_scan(lambda x: x - 1.0, 1.0, 2.0, 0.1) == 1.0

    def test_no_root_and_bad_step(self):
        with pytest.raises(NoBracketError):
            smallest_root_scan(lambda x: x * x + 1.0, 0.0, 2.0, 0.5)
        with pytest.raises(ValueError):
            smallest_root_scan(lambda x: x, -1.0, 1.0, 0.0)

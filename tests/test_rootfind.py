"""The bracketing root finders and their fixed stopping constants."""

import math

import pytest

from divopt.errors import NoBracketError
from divopt.rootfind import (
    ABS_TOL_X,
    GROWTH,
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

    def test_round_cap(self):
        # a sign step on a huge bracket: each round halves it twice, so
        # MAX_ITER rounds stop long before the stopping width
        fn = counted(lambda x: -1.0 if x < 0.3 else 1.0)
        x = bisect_secant(fn, -1e300, 1e300)
        assert fn.calls == 2 + 2 * MAX_ITER
        assert abs(x - 0.3) > 1.0


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

"""Bracketing root finders used by the barrier solver.

All target functions are smooth and cross zero transversally on the
brackets the solver constructs. bisect_secant steps by regula falsi with
the Anderson-Bjorck scaling (Anderson & Bjorck 1973, BIT 13): when a step
replaces the same end of the bracket as the step before, the value at the
other end is scaled down, so the points close in on the root from both
sides instead of creeping up on it from one. A halving safeguard bounds
the worst case: when HALVING_EVALS - 1 evaluations have not halved the
bracket, the next point is its midpoint.

Signs are compared, never multiplied: the product of two tiny values
rounds to zero, which would read as a root or a sign change.
"""

from __future__ import annotations

from typing import Callable

from .errors import NoBracketError

# bracket width, relative to 1 + |x|, at which a root search stops; where
# V' is steep, 1e-12 left smooth-fit residuals above the solver's 1e-10 gate
ABS_TOL_X = 1e-14
# the bracket at least halves every HALVING_EVALS evaluations of
# bisect_secant, and MAX_ITER evaluations stop it, 200 halvings or more
HALVING_EVALS = 4
MAX_ITER = 200 * HALVING_EVALS
GROWTH = 1.7  # bracket_geometric's expansion factor per step
MAX_GROWTH_STEPS = 400  # 1.7^400 ~ 1e92 times x0


def bisect_secant(
    fn: Callable[[float], float],
    lo: float,
    hi: float,
    flo: float | None = None,
    fhi: float | None = None,
) -> float:
    """Root of fn on [lo, hi]; fn(lo) and fn(hi) must differ in sign."""
    flo = fn(lo) if flo is None else flo
    fhi = fn(hi) if fhi is None else fhi
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    lo_neg = flo < 0.0
    if lo_neg == (fhi < 0.0):
        raise NoBracketError(f"no sign change on [{lo}, {hi}]: f={flo:.3g}, {fhi:.3g}")
    # flo and fhi only place the next point. The end a step keeps may be
    # scaled to 0, but the end it replaced holds a nonzero value of the
    # other sign, so flo - fhi is not 0
    width = hi - lo  # the bracket when it last halved
    n = 0  # evaluations since then
    kept = 0  # the end the last step kept: -1 lo, 1 hi
    for _ in range(MAX_ITER):
        x = 0.5 * (lo + hi)
        if hi - lo <= ABS_TOL_X * (1.0 + abs(x)):
            break
        if n < HALVING_EVALS - 1:
            # an infinite end value makes cand nan or an end, both refused
            cand = lo + (hi - lo) * (flo / (flo - fhi))
            if lo < cand < hi:
                x = cand
        fx = fn(x)
        if fx == 0.0:
            return x
        n += 1
        if (fx < 0.0) == lo_neg:
            if kept == 1:
                fhi *= _ab_scale(fx, flo)
            lo, flo, kept = x, fx, 1
        else:
            if kept == -1:
                flo *= _ab_scale(fx, fhi)
            hi, fhi, kept = x, fx, -1
        if hi - lo <= 0.5 * width:
            width, n = hi - lo, 0
    return 0.5 * (lo + hi)


def _ab_scale(fx: float, fold: float) -> float:
    """Anderson-Bjorck factor for the kept end's value when fx replaces fold.

    1 - fx/fold, or 1/2 where that is not positive or is nan. fold, the
    evaluation of the step before, is never 0.
    """
    m = 1.0 - fx / fold
    return m if m > 0.0 else 0.5


def bracket_geometric(
    fn: Callable[[float], float], x0: float
) -> tuple[float, float, float, float]:
    """Expand [x0, x0 GROWTH^k] geometrically until fn changes sign.

    Returns (lo, hi, flo, fhi). Raises NoBracketError after MAX_GROWTH_STEPS.
    """
    if x0 <= 0.0:
        raise ValueError("x0 must be positive for geometric expansion")
    lo, flo = x0, fn(x0)
    if flo == 0.0:
        return lo, lo, flo, flo
    x = x0
    for _ in range(MAX_GROWTH_STEPS):
        x *= GROWTH
        fx = fn(x)
        if fx == 0.0 or (fx < 0.0) != (flo < 0.0):
            return lo, x, flo, fx
        lo, flo = x, fx
    raise NoBracketError(f"no sign change up to {x:.6g} from x0={x0:.6g}")


def smallest_root_scan(
    fn: Callable[[float], float],
    lo: float,
    hi: float,
    step: float,
) -> float:
    """Leftmost root of fn in (lo, hi]: scan left to right, then refine.

    For a target with possibly several roots in a known interval. It takes
    (hi - lo)/step evaluations, so the solver does not use it: each of its
    searches starts from a point known to lie below the only root.
    """
    if step <= 0.0:
        raise ValueError("step must be positive")
    x, fx = lo, fn(lo)
    if fx == 0.0:
        return lo
    while x < hi:
        x2 = min(x + step, hi)
        f2 = fn(x2)
        if f2 == 0.0 or (f2 < 0.0) != (fx < 0.0):
            return bisect_secant(fn, x, x2, fx, f2)
        x, fx = x2, f2
    raise NoBracketError(f"no sign change scanning [{lo:.6g}, {hi:.6g}] step {step:.3g}")

"""Bracketing root finders used by the barrier solver.

All target functions are smooth and cross zero transversally on the
brackets the solver constructs, so a guarded bisection with secant
refinement is enough: the secant step is accepted only when it stays
inside the current bracket, otherwise the step falls back to bisection.
"""

from __future__ import annotations

from typing import Callable

from .errors import NoBracketError

# bracket width, relative to 1 + |x|, at which a root search stops; where
# V' is steep, 1e-12 left smooth-fit residuals above the solver's 1e-10 gate
ABS_TOL_X = 1e-14
MAX_ITER = 200  # bisect_secant's rounds; each at least halves the bracket
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
    if flo * fhi > 0.0:
        raise NoBracketError(f"no sign change on [{lo}, {hi}]: f={flo:.3g}, {fhi:.3g}")
    for _ in range(MAX_ITER):
        mid = 0.5 * (lo + hi)
        if hi - lo <= ABS_TOL_X * (1.0 + abs(mid)):
            break
        # secant candidate from the bracket endpoints
        x = mid
        denom = fhi - flo
        if denom != 0.0:
            cand = hi - fhi * (hi - lo) / denom
            if lo < cand < hi:
                x = cand
        fx = fn(x)
        if fx == 0.0:
            return x
        if flo * fx < 0.0:
            hi, fhi = x, fx
        else:
            lo, flo = x, fx
        # guarantee progress: if the secant end stagnates, bisect once
        mid = 0.5 * (lo + hi)
        fm = fn(mid)
        if fm == 0.0:
            return mid
        if flo * fm < 0.0:
            hi, fhi = mid, fm
        else:
            lo, flo = mid, fm
    return 0.5 * (lo + hi)


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
        if flo * fx <= 0.0:
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

    Used where the smallest of possibly several roots is mandated.
    """
    if step <= 0.0:
        raise ValueError("step must be positive")
    x, fx = lo, fn(lo)
    if fx == 0.0:
        return lo
    while x < hi:
        x2 = min(x + step, hi)
        f2 = fn(x2)
        if fx * f2 <= 0.0:
            return bisect_secant(fn, x, x2, fx, f2)
        x, fx = x2, f2
    raise NoBracketError(f"no sign change scanning [{lo:.6g}, {hi:.6g}] step {step:.3g}")

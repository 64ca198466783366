"""Regime classification and optimal-barrier computation.

The optimal strategy family depends only on the sign of the drift and on
how the retained proportion beta compares with pvfactor = gamma/(gamma+delta)
(the EPV of one unit paid at the next decision time):

    mu >= 0, beta <= pv   -> periodic barrier b0*
    mu >= 0, beta >  pv   -> hybrid (a_p, a_c, b)
    mu <  0, beta >  pv   -> liquidation (b, inf)
    mu <  0, beta <= pv   -> periodic-zero, unless the fixed cost is small
                             enough that a finite liquidation window
                             (b1, b2) beats waiting

Hybrid barriers solve the smooth-fit system V'(a_p) = 1, V'(a_c) = beta,
V'(b-) = beta (with boundary variants a_p = 0 / a_p = a_c = 0). The solver
nests three levels, each solving exactly one condition for one unknown:

    1. y = b - a_c, for fixed (a, l): V'(b-) = beta;
    2. a = a_p in [0, a_bar], for fixed l: V'(a) = 1, or the boundary
       a = a_bar (V'(a_bar) >= 1) or a = 0 (V'(0) <= 1);
    3. l = a_c - a_p: an outer expansion enforces V'(a_c) = beta, or
       accepts l = 0.

For mu < 0 everything reduces to closed forms plus one-dimensional root
searches.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Any

from .core import ModelParams, Roots, f, solve_roots
from .errors import DivoptError, NoBracketError, OutOfRangeError
from .rootfind import bisect_secant, bracket_geometric, smallest_root_scan
from .strategies import Hybrid, Liquidation, PeriodicBarrier, PeriodicZero, Strategy
from .values import ValueFunction, _liquidation_numerator, hybrid_kernel, periodic_zero


class Regime(enum.Enum):
    PROFITABLE_PERIODIC = "profitable_periodic"
    PROFITABLE_HYBRID = "profitable_hybrid"
    UNPROFITABLE_PERIODIC_ZERO = "unprofitable_periodic_zero"
    UNPROFITABLE_LIQUIDATION_FINITE = "unprofitable_liquidation_finite"
    UNPROFITABLE_LIQUIDATION_HALF = "unprofitable_liquidation_half"


@dataclass
class SolveReport:
    regime: Regime
    strategy: Strategy
    residuals: dict[str, float]
    boundary: dict[str, bool]
    tol: float
    diagnostics: dict[str, Any] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# auxiliary quantities for classification and limits


def Q(params: ModelParams, roots: Roots, a: float) -> float:
    """Q(a) = 1 - (f(a)/f'(a)) / (mu/delta), decreasing from 1 to 0 on [0, a_bar].

    Maps the periodic lower barrier to the unit interval; only defined for
    mu > 0 (for mu <= 0 the support of a collapses to {0}).
    """
    if params.mu <= 0.0:
        raise OutOfRangeError("Q requires mu > 0")
    return 1.0 - (f(roots, a) / f(roots, a, 1)) * (params.delta / params.mu)


def a_beta(params: ModelParams, roots: Roots, beta_prime: float | None = None) -> float:
    """Level where the periodic-zero value slope equals beta_prime (mu < 0).

    Closed form from V'(x; pi0) = beta': the exponential term is isolated
    and logged. Requires V'(0; pi0) < beta' < gamma/(gamma+delta).
    """
    if params.mu >= 0.0:
        raise OutOfRangeError("a_beta requires mu < 0")
    bp = params.beta if beta_prime is None else beta_prime
    pv = roots.pvfactor
    gd = params.gamma + params.delta
    k = -params.gamma * params.mu / gd**2  # > 0 for mu < 0
    lo = periodic_zero(params, roots, 0.0, 1)
    if not lo < bp < pv:
        raise OutOfRangeError(
            f"beta' must lie in (V'(0; pi0), pv) = ({lo:.6g}, {pv:.6g}), got {bp}"
        )
    return math.log((pv - bp) / (k * (-roots.s1))) / roots.s1


def c_beta_chi(params: ModelParams, roots: Roots) -> float:
    """Unique point in (0, a_beta) where V(x; pi0) = beta x - chi.

    Below it, liquidating everything now nets less than waiting; above it,
    more. Exists exactly when waiting loses at the slope-match level.
    """
    ab = a_beta(params, roots)
    fn = lambda x: periodic_zero(params, roots, x) - (params.beta * x - params.chi)
    if not fn(ab) < 0.0:
        raise OutOfRangeError(
            "V(a_beta; pi0) >= beta a_beta - chi: no crossing point exists"
        )
    return bisect_secant(fn, 0.0, ab)


def cost_ratio_limit(
    params: ModelParams, roots: Roots, beta_prime: float
) -> float:
    """Largest affordable chi/beta for a finite liquidation window.

    Equals a_{beta'} - V(a_{beta'}; pi0)/beta'; increases from 0 at
    beta' = V'(0; pi0) to -mu/(gamma+delta) as beta' approaches pv.
    """
    if params.mu >= 0.0:
        raise OutOfRangeError("cost_ratio_limit requires mu < 0")
    lo = periodic_zero(params, roots, 0.0, 1)
    pv = roots.pvfactor
    if not lo <= beta_prime < pv:
        raise OutOfRangeError(
            f"beta' must lie in [V'(0; pi0), pv) = [{lo:.6g}, {pv:.6g}), got {beta_prime}"
        )
    if beta_prime == lo:
        return 0.0
    ab = a_beta(params, roots, beta_prime)
    return ab - periodic_zero(params, roots, ab) / beta_prime


def beta0(params: ModelParams, roots: Roots) -> float:
    """Threshold retained proportion separating periodic-zero from (b1, b2).

    Solves cost_ratio_limit(beta0) = chi/beta by bisection; only defined
    when chi/beta < -mu/(gamma+delta), otherwise the limit is never reached.
    """
    if params.mu >= 0.0:
        raise OutOfRangeError("beta0 requires mu < 0")
    target = params.chi / params.beta
    gd = params.gamma + params.delta
    if target >= -params.mu / gd:
        raise OutOfRangeError(
            f"chi/beta = {target:.6g} >= -mu/(gamma+delta) = {-params.mu / gd:.6g}"
        )
    pv = roots.pvfactor
    lo = periodic_zero(params, roots, 0.0, 1)
    fn = lambda bp: cost_ratio_limit(params, roots, bp) - target
    hi = pv - (pv - lo) * 1e-15
    # the limit approaches -mu/(gamma+delta) only as beta' -> pv; tighten
    # the upper end until it brackets
    while fn(hi) < 0.0:
        hi = pv - (pv - hi) * 0.1
        if pv - hi < 1e-300:
            raise NoBracketError("cost_ratio_limit never reaches chi/beta")
    return bisect_secant(fn, lo * (1.0 + 1e-14) + 1e-300, hi)


def nu_riskiness(params: ModelParams) -> float:
    """(sigma/mu)^2 (gamma+delta): squared coefficient of variation per decision."""
    if params.mu == 0.0:
        raise OutOfRangeError("nu is undefined at mu = 0")
    return (params.sigma / params.mu) ** 2 * (params.gamma + params.delta)


@dataclass(frozen=True)
class SufficientConditionHints:
    """Advisory predictions of boundary cases from closed-form thresholds.

    predict_ap_zero: (-s1/r1) pv <= 1 suggests the periodic lower barrier
    collapses to 0; predict_ac_zero: <= beta suggests both lower barriers
    collapse. Advisory only; the solver decides, these are cross-checked.
    """

    predict_ap_zero: bool
    predict_ac_zero: bool
    nu: float
    ratio: float


def sufficient_condition_hints(
    params: ModelParams, roots: Roots
) -> SufficientConditionHints:
    if params.mu <= 0.0:
        raise OutOfRangeError("hints are defined for mu > 0")
    ratio = (-roots.s1 / roots.r1) * roots.pvfactor
    return SufficientConditionHints(
        predict_ap_zero=ratio <= 1.0,
        predict_ac_zero=ratio <= params.beta,
        nu=nu_riskiness(params),
        ratio=ratio,
    )


# ---------------------------------------------------------------------------
# regime classification


def classify_regime(params: ModelParams, roots: Roots) -> Regime:
    """Exactly one regime per valid parameter set.

    For mu < 0 with beta below pv, the finite liquidation window wins iff
    waiting at the slope-match level nets less than liquidating there now
    (V(a_beta; pi0) < beta a_beta - chi); this is the direct form of the
    beta > beta0 comparison and avoids inverting the threshold curve.
    """
    pv = roots.pvfactor
    if params.mu >= 0.0:
        if params.beta <= pv:
            return Regime.PROFITABLE_PERIODIC
        return Regime.PROFITABLE_HYBRID
    if params.beta > pv:
        return Regime.UNPROFITABLE_LIQUIDATION_HALF
    gd = params.gamma + params.delta
    if params.chi >= params.beta * (-params.mu) / gd:
        return Regime.UNPROFITABLE_PERIODIC_ZERO
    if params.beta == pv:
        return Regime.UNPROFITABLE_LIQUIDATION_HALF
    if params.beta <= periodic_zero(params, roots, 0.0, 1):
        return Regime.UNPROFITABLE_PERIODIC_ZERO
    ab = a_beta(params, roots)
    if periodic_zero(params, roots, ab) < params.beta * ab - params.chi:
        return Regime.UNPROFITABLE_LIQUIDATION_FINITE
    return Regime.UNPROFITABLE_PERIODIC_ZERO


def periodic_b0(params: ModelParams, roots: Roots) -> float:
    """Optimal pure-periodic barrier.

    Zero when (-s1/r1) pv <= 1; otherwise the unique level in [0, a_bar]
    where Q hits the target q* = s1 (delta/(gamma+delta)) / (r1 + s1).
    """
    pv = roots.pvfactor
    if (-roots.s1 / roots.r1) * pv <= 1.0:
        return 0.0
    gd = params.gamma + params.delta
    q_star = roots.s1 * (params.delta / gd) / (roots.r1 + roots.s1)
    return bisect_secant(lambda a: Q(params, roots, a) - q_star, 0.0, roots.a_bar)


# ---------------------------------------------------------------------------
# hybrid solve


def solve_hybrid(params: ModelParams, roots: Roots, tol: float = 1e-10) -> SolveReport:
    """Optimal hybrid (a_p, a_c, b) for mu >= 0, beta > gamma/(gamma+delta)."""
    if params.beta <= roots.pvfactor:
        raise OutOfRangeError("hybrid solve requires beta > gamma/(gamma+delta)")
    beta = params.beta
    abar = roots.a_bar
    len_r, len_s = 1.0 / roots.r1, 1.0 / abs(roots.s1)
    kernel = hybrid_kernel(params, roots)

    def y_root(a: float, l: float) -> float:
        # V'(b-) = beta; a gap y <= chi/beta nets nothing, so the root lies above
        fn = lambda y: kernel(a, l, y)[2] - beta
        lo, hi, flo, fhi = bracket_geometric(fn, max(params.chi / beta, 1e-6 * len_r))
        return bisect_secant(fn, lo, hi, flo, fhi)

    def inner(l: float) -> tuple[float, float]:
        # (a, y) with V'(a) = 1 at y = y_root(a, l); V'(a) - 1 falls in a, so
        # a = a_bar when it is still >= 0 there and a = 0 when it is <= 0 at 0
        slope_gap = lambda a: kernel(a, l, y_root(a, l))[0] - 1.0
        gap_hi = slope_gap(abar)
        if gap_hi >= 0.0:
            a = abar
        else:
            gap_lo = slope_gap(0.0)
            a = 0.0 if gap_lo <= 0.0 else bisect_secant(slope_gap, 0.0, abar, gap_lo, gap_hi)
        return a, y_root(a, l)

    def middle_gap(l: float) -> tuple[float, float, float]:
        a, y = inner(l)
        return kernel(a, l, y)[1] - beta, a, y

    gap0, a0, y0 = middle_gap(0.0)
    if gap0 <= 0.0:
        a, l, y = a0, 0.0, y0
    else:
        l_prev, gap_prev = 0.0, gap0
        l_cur = 0.25 * len_s
        for _ in range(200):
            gap_cur, _, _ = middle_gap(l_cur)
            if gap_prev * gap_cur <= 0.0:
                break
            l_prev, gap_prev = l_cur, gap_cur
            l_cur *= 1.7
        else:
            raise NoBracketError("V'(a_c) = beta: no sign change while expanding l")
        l = bisect_secant(lambda ll: middle_gap(ll)[0], l_prev, l_cur, gap_prev, gap_cur)
        a, y = inner(l)

    strategy = Hybrid(a, a + l, a + l + y)
    vf = ValueFunction(params, roots, strategy)
    residuals = {"vprime_b": abs(float(vf.d1(strategy.b, side="left")) - beta)}
    boundary = {"ap_zero": a == 0.0, "ac_equals_ap": l == 0.0}
    if l > 0.0:
        residuals["vprime_ac"] = abs(float(vf.d1(strategy.a_c)) - beta)
    else:
        residuals["vprime_ac"] = max(0.0, float(vf.d1(0.0)) - beta)
    if a > 0.0:
        residuals["vprime_ap"] = abs(float(vf.d1(strategy.a_p)) - 1.0)
    else:
        residuals["vprime_ap"] = max(0.0, float(vf.d1(0.0)) - 1.0)
    report = SolveReport(
        regime=Regime.PROFITABLE_HYBRID,
        strategy=strategy,
        residuals=residuals,
        boundary=boundary,
        tol=tol,
    )
    _enforce_tol(report)
    return report


# ---------------------------------------------------------------------------
# unprofitable solve


def _liq_d1_left(params: ModelParams, roots: Roots, b: float) -> float:
    # V'(b-; pi_{b, .}) = A(b) g'(b) + V'(b; pi0); independent of the upper
    # barrier. A g' is evaluated through the bounded ratio g'/g (the two
    # factors overflow separately once r1 b is large, their product not).
    r1, s1 = roots.r1, roots.s1
    w = math.exp((s1 - r1) * b)
    num = _liquidation_numerator(params, roots, b)
    ratio = (r1 - s1 * w) / (1.0 - w)  # = g'(b)/g(b)
    return num * ratio + periodic_zero(params, roots, b, 1)


def solve_unprofitable(
    params: ModelParams, roots: Roots, tol: float = 1e-10
) -> SolveReport:
    """Optimal strategy for mu < 0, per the classified regime."""
    if params.mu >= 0.0:
        raise OutOfRangeError("solve_unprofitable requires mu < 0")
    regime = classify_regime(params, roots)
    beta = params.beta
    fn = lambda b: _liq_d1_left(params, roots, b) - beta

    if regime is Regime.UNPROFITABLE_PERIODIC_ZERO:
        return SolveReport(
            regime=regime,
            strategy=PeriodicZero(),
            residuals={},
            boundary={},
            tol=tol,
        )

    if params.chi == 0.0:
        raise OutOfRangeError(
            "at chi = 0 the optimal b1 -> 0 (pay everything now), which "
            "Liquidation(b1 > 0, ...) cannot represent"
        )

    if regime is Regime.UNPROFITABLE_LIQUIDATION_HALF:
        # V'(b-) - beta changes sign once above chi/beta, where payments net > 0
        lo = params.chi / beta
        lo, hi, flo, fhi = bracket_geometric(fn, lo + 1e-12 * (1.0 + lo))
        b = bisect_secant(fn, lo, hi, flo, fhi)
        strategy = Liquidation(b, math.inf)
        vf = ValueFunction(params, roots, strategy)
        report = SolveReport(
            regime=regime,
            strategy=strategy,
            residuals={"vprime_b1": abs(float(vf.d1(b, side="left")) - beta)},
            boundary={},
            tol=tol,
        )
        _enforce_tol(report)
        return report

    # finite (b1, b2) window
    gd = params.gamma + params.delta
    gm2 = params.gamma * params.mu / gd**2
    ab = a_beta(params, roots)
    c = c_beta_chi(params, roots)
    # V'(b2+) = beta reduces to a linear equation in b2
    b2 = (params.chi * roots.s1 + roots.s1 * gm2 - (roots.pvfactor - beta)) / (
        roots.s1 * roots.alpha
    )
    step = min(params.chi / beta / 10.0, (ab - c) / 16.0)
    b1 = smallest_root_scan(fn, c, ab, step)
    strategy = Liquidation(b1, b2)
    vf = ValueFunction(params, roots, strategy)
    report = SolveReport(
        regime=regime,
        strategy=strategy,
        residuals={
            "vprime_b1": abs(float(vf.d1(b1, side="left")) - beta),
            "vprime_b2": abs(float(vf.d1(b2, side="right")) - beta),
        },
        boundary={},
        tol=tol,
        diagnostics={"a_beta": ab, "c_beta_chi": c},
    )
    _enforce_tol(report)
    return report


# ---------------------------------------------------------------------------
# top-level dispatch


def _enforce_tol(report: SolveReport) -> None:
    bad = {k: v for k, v in report.residuals.items() if not v < report.tol}
    if bad:
        raise DivoptError(f"solver residuals exceed tol={report.tol}: {bad}")


def solve(params: ModelParams, tol: float = 1e-10) -> SolveReport:
    """Classify the regime and compute the optimal strategy.

    The hybrid kernel evaluates only exponentials at most 1, so hybrid
    barriers come out finite however far out they lie. Raises
    NoBracketError when a root search finds no sign change, OutOfRangeError
    for a liquidation regime at chi = 0 (its optimum b1 -> 0 is no
    Liquidation), and DivoptError when the solved barriers miss their
    smooth-fit conditions by tol or more.
    """
    roots = solve_roots(params)
    regime = classify_regime(params, roots)
    if regime is Regime.PROFITABLE_PERIODIC:
        b0 = periodic_b0(params, roots)
        residuals = {}
        if b0 > 0.0:
            gd = params.gamma + params.delta
            q_star = roots.s1 * (params.delta / gd) / (roots.r1 + roots.s1)
            residuals["periodic_target"] = abs(Q(params, roots, b0) - q_star)
        report = SolveReport(
            regime=regime,
            strategy=PeriodicBarrier(b0),
            residuals=residuals,
            boundary={"b0_zero": b0 == 0.0},
            tol=tol,
        )
        _enforce_tol(report)
        return report
    if regime is Regime.PROFITABLE_HYBRID:
        return solve_hybrid(params, roots, tol)
    return solve_unprofitable(params, roots, tol)

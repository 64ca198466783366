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

Each optimum is a point (a_p, a_c, b, b2) of one strategy family, solved
through the one hybrid kernel and gated (_report) by one smooth-fit rule
on its levels: V'(a_p) = 1, or V'(0) <= 1 when a_p = 0; where b is finite,
V'(a_c) = beta, or V'(0) <= beta when a_c = 0, and V'(b-) = beta; where
b2 is finite, V'(b2+) = beta. So a periodic barrier b0 solves V'(b0) = 1
on [0, a_bar], or is 0 when V'(0) <= 1.

A hybrid's three conditions are one system in (a_c, log l, log y), with
l = a_c - a_p and y = b - a_c, which one damped Newton solves (l = 0
pinned at beta = 1). Its a_p and a_c rows are Fischer-Burmeister functions
of the pairs a_p >= 0, V'(a_p) <= 1 and a_c >= 0, V'(a_c) <= beta, so it
ends on a_p = 0 or V'(a_p) = 1, and on a_c = 0 or V'(a_c) = beta,
whichever holds. One bracketed search on V'(b-) = beta (_upper_gap) gives
its starting y, and runs inside no Newton.

For mu < 0 the regime follows from closed forms. A liquidation (b1, b2)
is Hybrid(0, 0, b1) below b2, so b1 is the upper-gap search at a = l = 0,
for the finite window and the half-line alike; a finite b2 solves
V'(b2+) = beta, which is linear in b2.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .core import ModelParams, Roots, solve_roots
from .errors import DivoptError, OutOfRangeError
# smallest_root_scan is unused here but kept importable as solver.smallest_root_scan,
# the name the benchmark's tracer wraps
from .rootfind import bisect_secant, bracket_geometric, smallest_root_scan  # noqa: F401
from .strategies import Hybrid, Liquidation, PeriodicBarrier, PeriodicZero, Strategy
from .values import ValueFunction, complex_step, hybrid_kernel, periodic_zero


class Regime(enum.Enum):
    PROFITABLE_PERIODIC = "profitable_periodic"
    PROFITABLE_HYBRID = "profitable_hybrid"
    UNPROFITABLE_PERIODIC_ZERO = "unprofitable_periodic_zero"
    UNPROFITABLE_LIQUIDATION_FINITE = "unprofitable_liquidation_finite"
    UNPROFITABLE_LIQUIDATION_HALF = "unprofitable_liquidation_half"


@dataclass
class SolveReport:
    """A solved strategy, its smooth-fit residuals and how the solve went.

    residuals has a key per condition its levels bind: vprime_ap, vprime_ac,
    vprime_b, vprime_b2. diagnostics has fixed keys: path, the case the
    solved levels fall in (hybrid: ap_ac_zero, ap_zero, ac_equals_ap or
    interior; liquidation: window or half_line; periodic: b0_zero or
    smooth_fit; periodic-zero: closed_form); n_kernel_evals, the
    hybrid-kernel calls; and n_iters, the Newton steps plus the evaluations
    of the bracketed equation (V'(b-) = beta for a hybrid's y or a
    liquidation's b1, V'(b0) = 1 for b0).
    """

    regime: Regime
    strategy: Strategy
    residuals: dict[str, float]
    boundary: dict[str, bool]
    tol: float
    diagnostics: dict[str, Any] = field(default_factory=dict)


def _counted(fn):
    """fn, counting its calls in the attribute n."""

    def wrapped(*args):
        wrapped.n += 1
        return fn(*args)

    wrapped.n = 0
    return wrapped


# ---------------------------------------------------------------------------
# regime classification


def a_beta(params: ModelParams, roots: Roots) -> float:
    """Level where the periodic-zero value slope equals beta (mu < 0).

    Closed form from V'(x; pi0) = beta: the exponential term is isolated
    and logged. Requires V'(0; pi0) < beta < gamma/(gamma+delta).
    """
    if params.mu >= 0.0:
        raise OutOfRangeError("a_beta requires mu < 0")
    beta, pv = params.beta, roots.pvfactor
    gd = params.gamma + params.delta
    k = -params.gamma * params.mu / gd**2  # > 0 for mu < 0
    lo = periodic_zero(params, roots, 0.0, 1)
    if not lo < beta < pv:
        raise OutOfRangeError(
            f"beta must lie in (V'(0; pi0), pv) = ({lo:.6g}, {pv:.6g}), got {beta}"
        )
    return math.log((pv - beta) / (k * (-roots.s1))) / roots.s1


def classify_regime(params: ModelParams, roots: Roots) -> Regime:
    """Exactly one regime per valid parameter set.

    For mu < 0 with beta below pv, the finite liquidation window wins iff
    waiting at the slope-match level nets less than liquidating there now
    (V(a_beta; pi0) < beta a_beta - chi); this is the direct form of the
    paper's beta > beta0 comparison and avoids inverting its threshold curve.
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
    """Optimal pure-periodic barrier b0, the smooth fit of PeriodicBarrier(b0)."""
    return _b0(roots, hybrid_kernel(params, roots))


def _b0(roots: Roots, kernel) -> float:
    """b0: 0 if V'(0) <= 1, else V'(b0) = 1 on [0, a_bar], by the kernel at l = 0, b = inf."""
    slope_gap = lambda a: kernel(a, 0.0, math.inf)[0] - 1.0
    g0 = slope_gap(0.0)
    return 0.0 if g0 <= 0.0 else bisect_secant(slope_gap, 0.0, roots.a_bar, g0)


# ---------------------------------------------------------------------------
# hybrid solve

_CS_STEP = 1e-200  # the complex step h of the hybrid Newton's exact Jacobian
_MAX_NEWTON = 60  # Newton steps, each with at most _MAX_HALVINGS backtracks
_MAX_HALVINGS = 40
_MAX_LOG_STEP = 2.0  # largest Newton step in log l
_STEP_TOL = 1e-13  # Newton step, relative, below which the barriers have converged
_F_FLOOR = 1e-15  # max |F| at the rounding of its O(1) terms
_Y_JUMP = 16.0  # largest factor by which one Newton step may move the upper gap


def _upper_gap(
    params: ModelParams, roots: Roots, kernel, a: float, l: float, y_max: float = math.inf
) -> float:
    """y = b - a_c solving V'(b-) = beta for Hybrid(a, a + l, a + l + y).

    A liquidation's b1 (a = l = 0) and the hybrid Newton's starting y. A
    gap y <= chi/beta nets nothing, so the root lies above it; as chi falls
    the root falls with it (a liquidation's b1 about as sqrt(chi), a
    hybrid's y about as chi^(1/3)), so no fixed floor stays below it. From
    there the bracket grows geometrically, unless y_max, known to lie above
    the root and below any second one, closes it.
    """
    fn = lambda y: kernel(a, l, y)[2] - params.beta
    x0 = params.chi / params.beta
    if y_max < math.inf:
        return bisect_secant(fn, x0, y_max)
    return bisect_secant(fn, *bracket_geometric(fn, x0))


def solve_hybrid(params: ModelParams, roots: Roots, tol: float = 1e-10) -> SolveReport:
    """Optimal hybrid (a_p, a_c, b) for mu >= 0, beta > gamma/(gamma+delta).

    One damped Newton over (a_c, log l, log y), with l = a_c - a_p and
    y = b - a_c, solves the rows

        phi(a_p |s1|, 1 - V'(a_p)),  phi(a_c |s1|, -G / |s1|),  V'(b-) - beta,

    with G = (V'(a_c) - V'(b-)) / y. The Fischer-Burmeister phi(u, v) =
    u + v - sqrt(u^2 + v^2) is 0 iff u, v >= 0 = u v: _report's rule,
    V'(a_p) = 1 or a_p = 0 with V'(0) <= 1, and V'(a_c) = beta or a_c = 0
    with V'(0) <= beta. G vanishes with V'(a_c) - beta there but keeps its
    scale as y falls with chi. The Newton starts from l = 1 / (4 |s1|),
    a_p = b0, the periodic barrier (no probed optimum had a_p below it),
    and y on V'(b-) = beta (_upper_gap), the solve's one bracketed search;
    at beta = 1, where V'(a_p) = V'(a_c) = 1, from a_p = a_bar / 2 and l = 0,
    pinned (row 0 is 0). The Jacobian is exact (at phi's kink, a
    generalized one): its columns are Im(rows)/h at the unknowns moved by a
    complex step ih. A step is scaled to move log l by at most 2 and a_p,
    to first order, at most halfway to a_bar, then halved until it makes
    progress: a lower max |F|, or a shorter Newton correction under the
    same Jacobian. A trial is the float levels a Hybrid holds, so the gate
    reads the point solved, with a_p at or below their rounding set to 0,
    and l too where a_c's Newton target lies there; from l = 0 the step is
    in l |s1|, not log l. One moving y by a factor of 16 or more heads for
    another root of V'(b-) = beta and is halved. A step below the levels'
    rounding is tried once and ends the Newton; inside the gate, so does
    one that leaves max |F| where it was, at its rounding.

    diagnostics["path"] is read from the solved levels: ap_ac_zero (a_p =
    a_c = 0), ap_zero (a_p = 0 < a_c), ac_equals_ap (a_c = a_p > 0), else
    interior. A Newton that stops with max |F| >= tol raises DivoptError.
    mu < 0, and chi = 0, where the optimum has b = a_c, which no Hybrid is,
    raise OutOfRangeError before any search.
    """
    if params.mu < 0.0 or params.beta <= roots.pvfactor:
        raise OutOfRangeError("hybrid solve requires mu >= 0 and beta > gamma/(gamma+delta)")
    if params.chi == 0.0:
        raise OutOfRangeError("at chi = 0 the optimal b -> a_c (pay the excess now), "
                              "which Hybrid(a_p, a_c, b > a_c) cannot represent")
    beta, abar, len_s = params.beta, roots.a_bar, 1.0 / abs(roots.s1)
    kernel = _counted(hybrid_kernel(params, roots))
    gap_kernel = _counted(kernel)  # the bracketed searches' calls
    cs_kernel = _counted(hybrid_kernel(params, roots, complex_step))
    pinned = beta == 1.0

    def phi(u, v):  # u + v - sqrt(u^2 + v^2), without its cancellation where u + v > 0
        r = (u * u + v * v) ** 0.5
        return 2.0 * u * v / (u + v + r) if (u + v).real > 0.0 else u + v - r

    # over (a_c, t, log y), t = log l, or l / len_s at l = 0; pinned, t takes
    # row 0, column (1, 0, 0): step 0
    rows = lambda k, a, l, y: (0.0 if pinned else phi(a / len_s, 1.0 - k[0]),
                               phi((a + l) / len_s, -k[9] / y * len_s), k[2] - beta)
    residual = lambda k, a, l: max(abs(phi(a / len_s, 1.0 - k[0])),
                                   abs(phi((a + l) / len_s, beta - k[1])), abs(k[2] - beta))
    correction = lambda r: [-sum(u * v for u, v in zip(row, r)) for row in inv]
    relative = lambda d: max(abs(u) / c for u, c in zip(d, scale))

    def move(dc, dt, dy):  # (a, l, y) of the float levels after a step
        l1 = l * math.exp(dt) if l else max(len_s * dt, 0.0)
        a1 = a + l + dc - l1
        a1 = a1 if a1 > _STEP_TOL * (a + l + len_s) else 0.0
        l1 = l1 if a1 or a + l + dc > _STEP_TOL * (a + l + len_s) else 0.0
        ac1 = a1 + l1
        return a1, ac1 - a1, ac1 + y * math.exp(dy) - ac1

    a, l = (0.5 * abar, 0.0) if pinned else (_b0(roots, gap_kernel), len_s / 4)
    y = _upper_gap(params, roots, gap_kernel, a, l)
    k = kernel(a, l, y)
    err = residual(k, a, l)
    n_steps = 0
    for _ in range(_MAX_NEWTON):
        if not err > _F_FLOOR:
            break
        # column j, exactly: Im(rows)/h with unknown j moved by ih (a step in
        # log l holds a_c); the inverse's rows are the columns' cross products
        w, scale, ih = l or len_s, (a + l + len_s, 1.0, 1.0), 1j * _CS_STEP
        points = ((a + ih, l, y), (a - ih * w, l + ih * w, y), (a, l, y + ih * y))
        cols = [(1.0, 0.0, 0.0) if pinned and j == 1 else
                [v.imag / _CS_STEP for v in rows(cs_kernel(*pt), *pt)]
                for j, pt in enumerate(points)]
        adj = [(u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
                u[0] * v[1] - u[1] * v[0])
               for u, v in ((cols[1], cols[2]), (cols[2], cols[0]), (cols[0], cols[1]))]
        det = sum(u * v for u, v in zip(cols[0], adj[0]))
        if not det:
            break  # singular: no Newton direction
        inv = [[u / det for u in row] for row in adj]
        n_steps += 1
        step = correction(rows(k, a, l, y))
        size = relative(step)
        last = not size > _STEP_TOL  # below rounding of the barriers: one trial, then stop
        # one factor scales the whole step, keeping Newton's direction: it
        # caps the step in log l and stops a, to first order, halfway to a_bar;
        # halving brings any trial a back below a_bar
        dc, dt, dy = step
        s = min(1.0, _MAX_LOG_STEP / abs(dt)) if dt else 1.0
        da = dc - w * dt
        if a + s * da > abar:
            s = 0.5 * (abar - a) / da
        progress = False
        for _ in range(1 if last else _MAX_HALVINGS):
            # a trial moving y by a factor _Y_JUMP or more is refused before
            # exp, which a long step in log y would overflow
            if abs(s * dy) < math.log(_Y_JUMP):
                a1, l1, y1 = move(s * dc, s * dt, s * dy)
                if a1 <= abar:
                    k1 = kernel(a1, l1, y1)
                    err1 = residual(k1, a1, l1)
                    # accept a lower max |F|, or a shorter Newton correction
                    # (the rows' scales differ by orders as y falls)
                    progress = err1 < err or relative(correction(rows(k1, a1, l1, y1))) < size
                    if progress:
                        break
            s *= 0.5
        # inside the gate, a step that does not lower max |F| finds it at its rounding
        if not progress or err < tol and not err1 < err:
            break  # rounding inside the gate, else a stall
        a, l, y, k, err = a1, l1, y1, k1, err1
        if last:
            break  # converged
    if not err < tol:
        raise DivoptError(f"hybrid Newton stopped at max |F| = {err:.3g} >= tol={tol}")
    path = ("ap_ac_zero" if a == l == 0.0 else "ap_zero" if a == 0.0
            else "ac_equals_ap" if l == 0.0 else "interior")
    diagnostics = {"path": path, "n_kernel_evals": kernel.n + cs_kernel.n,
                   "n_iters": n_steps + gap_kernel.n}
    return _report(Regime.PROFITABLE_HYBRID, params, roots, Hybrid(a, a + l, a + l + y),
                   tol, diagnostics)


# ---------------------------------------------------------------------------
# unprofitable solve


def solve_unprofitable(
    params: ModelParams, roots: Roots, tol: float = 1e-10
) -> SolveReport:
    """Optimal strategy for mu < 0, per the classified regime.

    b1 solves V'(b1-) = beta for Hybrid(0, 0, b1). A finite window's b2 solves
    V'(b2+) = beta, linear in b2, and closes b1's bracket: V'(b-) - beta turns
    negative again above b1, maybe within one geometric step, but above b2.
    Next to the periodic-zero boundary the window shrinks to a point; one
    that has collapsed to b1 = b2 in rounding raises DivoptError.
    """
    if params.mu >= 0.0:
        raise OutOfRangeError("solve_unprofitable requires mu < 0")
    regime = classify_regime(params, roots)
    if regime is Regime.UNPROFITABLE_PERIODIC_ZERO:
        diagnostics = {"path": "closed_form", "n_kernel_evals": 0, "n_iters": 0}
        return _report(regime, params, roots, PeriodicZero(), tol, diagnostics)
    if params.chi == 0.0:
        raise OutOfRangeError(
            "at chi = 0 the optimal b1 -> 0 (pay everything now), which "
            "Liquidation(b1 > 0, ...) cannot represent"
        )
    b2 = math.inf
    if regime is Regime.UNPROFITABLE_LIQUIDATION_FINITE:
        s1 = roots.s1
        gm2 = params.gamma * params.mu / (params.gamma + params.delta) ** 2
        b2 = (params.chi * s1 + s1 * gm2 - (roots.pvfactor - params.beta)) / (s1 * roots.alpha)
    kernel = _counted(hybrid_kernel(params, roots))
    b1 = _upper_gap(params, roots, kernel, 0.0, 0.0, b2)
    if not b1 < b2:
        raise DivoptError(f"finite liquidation window collapsed: b1 = b2 = {b2!r}")
    diagnostics = {
        "path": "half_line" if b2 == math.inf else "window",
        "n_kernel_evals": kernel.n,
        "n_iters": kernel.n,
    }
    return _report(regime, params, roots, Liquidation(b1, b2), tol, diagnostics)


# ---------------------------------------------------------------------------
# top-level dispatch


def _report(
    regime: Regime,
    params: ModelParams,
    roots: Roots,
    strategy: Strategy,
    tol: float,
    diagnostics: dict[str, Any],
) -> SolveReport:
    """The strategy's residuals by the smooth-fit rule on its levels (module
    docstring) and its boundary flags, gated at tol."""
    beta = params.beta
    a, a_c, b, b2 = strategy.a_p, strategy.a_c, strategy.b, strategy.b2
    vf = ValueFunction(params, roots, strategy)
    # V'(0), V'(a_p), V'(a_c), V'(b-); at b = inf the last is unused
    vp0, vp_a, vp_ac, vp_b = vf.d1(np.array([0.0, a, a_c, b])).tolist()
    residuals = {"vprime_ap": abs(vp_a - 1.0) if a > 0.0 else max(0.0, vp0 - 1.0)}
    if b < math.inf:
        residuals["vprime_ac"] = abs(vp_ac - beta) if a_c > 0.0 else max(0.0, vp0 - beta)
        residuals["vprime_b"] = abs(vp_b - beta)
    if b2 < math.inf:
        residuals["vprime_b2"] = abs(float(vf.d1(b2, side="right")) - beta)
    boundary = {}
    if regime is Regime.PROFITABLE_PERIODIC:
        boundary = {"b0_zero": a == 0.0}
    elif regime is Regime.PROFITABLE_HYBRID:
        boundary = {"ap_zero": a == 0.0, "ac_equals_ap": a_c == a}
    bad = {k: v for k, v in residuals.items() if not v < tol}
    if bad:
        raise DivoptError(f"solver residuals exceed tol={tol}: {bad}")
    return SolveReport(regime, strategy, residuals, boundary, tol, diagnostics)


def solve(params: ModelParams, tol: float = 1e-10) -> SolveReport:
    """Classify the regime and compute the optimal strategy.

    The hybrid kernel evaluates only exponentials at most 1, so hybrid
    barriers come out finite however far out they lie. Raises
    NoBracketError when a root search finds no sign change, OutOfRangeError
    for a hybrid or liquidation regime at chi = 0 (its optimum b -> a_c, or
    b1 -> 0, is no Hybrid or Liquidation), and DivoptError when the solved
    barriers miss their smooth-fit conditions by tol or more, or a finite
    window has collapsed.
    """
    roots = solve_roots(params)
    regime = classify_regime(params, roots)
    if regime is Regime.PROFITABLE_PERIODIC:
        kernel = _counted(hybrid_kernel(params, roots))
        b0 = _b0(roots, kernel)
        diagnostics = {"path": "smooth_fit" if b0 > 0.0 else "b0_zero",
                       "n_kernel_evals": kernel.n, "n_iters": kernel.n}
        return _report(regime, params, roots, PeriodicBarrier(b0), tol, diagnostics)
    if regime is Regime.PROFITABLE_HYBRID:
        return solve_hybrid(params, roots, tol)
    return solve_unprofitable(params, roots, tol)

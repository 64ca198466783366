"""Independent numerical checks on solver output.

Three oracles, deliberately decoupled from the solver internals:

* check_hjb evaluates the variational inequalities that certify
  optimality, on a dense surplus grid with a discrete supremum over
  payment sizes. It consumes only the value-function evaluator. With
  y = x - xi the payment target, sup_xi (xi + V(x - xi)) = x +
  max_{y <= x} (V(y) - y), and likewise with beta xi, so both suprema are
  running maxima of V(y) - y and V(y) - beta y over one sorted 1-D set of
  targets (the surplus grid refined, plus the strategy levels), read at
  each x: V is evaluated once per target, not once per (x, xi) pair.
* brute_force_hybrid exhaustively maximises the hybrid objective
  V(a_c) - beta a_c over a barrier lattice, using only the closed-form
  kernel it shares with the solver (so it judges the search, not the
  formula; check_hjb and the Monte Carlo engine judge the formula).
* audit_derivative_pattern verifies the characteristic slope bands of an
  optimal hybrid value function (V' > 1 below a_p, between beta and 1 on
  (a_p, a_c), between 0 and beta on (a_c, b), constant beta beyond b).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import ModelParams, Roots
from .strategies import Hybrid, Strategy
from .values import ValueFunction, hybrid_value_ac

KINK_WINDOW = 1e-6  # check_hjb skips condition A this close to a kink
AUDIT_POINTS = 2000  # audit_derivative_pattern's grid size
AUDIT_ATOL = 1e-9  # its slack at the band edges


@dataclass
class HJBReport:
    n_points: int
    tol: float
    max_generator_violation: float
    worst_x_generator: float
    max_payment_residual: float
    worst_x_payment: float
    passed: bool
    generator_argmax_xi: np.ndarray = field(repr=False)
    x_generator: np.ndarray = field(repr=False)
    resid_generator: np.ndarray = field(repr=False)  # NaN inside the kink window
    resid_payment: np.ndarray = field(repr=False)  # best xi > 0; -inf at x = 0


def _strategy_levels(strategy: Strategy) -> list[float]:
    """The distinct levels strictly between 0 and inf, ascending."""
    s = strategy
    return sorted({v for v in (s.a_p, s.a_c, s.b, s.b2) if 0.0 < v < math.inf})


def _payment_targets(x: np.ndarray, levels: list[float], density: int) -> np.ndarray:
    """Sorted, distinct payment targets y = x - xi over the surplus grid x.

    The nodes are 0 and the points of x; each cell between consecutive
    nodes holds `density` evenly spaced targets, its two ends included (so
    going from n to 2n - 1, twice the parts per cell, keeps every coarser
    target); the strategy levels are added exactly.
    """
    nodes = np.unique(np.append(x, 0.0))
    u = np.linspace(0.0, 1.0, density)[1:-1]
    fill = nodes[:-1, None] + np.diff(nodes)[:, None] * u
    return np.unique(np.concatenate([nodes, fill.ravel(), levels]))


def check_hjb(
    params: ModelParams,
    roots: Roots,
    strategy: Strategy,
    x_grid: np.ndarray | None = None,
    xi_grid_density: int = 6,
    tol: float = 1e-6,
) -> HJBReport:
    """Grid check of the two optimality inequalities for V = V(.; strategy).

    Condition A (away from kinks): the discounted generator plus the best
    periodic payment improvement must be non-positive,

        sigma^2/2 V'' + mu V' - delta V
            + gamma sup_{0 <= xi <= x} (xi + V(x - xi) - V(x)) <= 0.

    Condition B (everywhere): no immediate payment can improve V,

        sup_{0 <= xi <= x} ((beta xi - chi) 1{xi>0} + V(x - xi) - V(x)) = 0,

    where the xi = 0 entry contributes 0, so the supremum is >= 0 and any
    strictly positive value is a violation.

    Both suprema are taken over payment targets y = x - xi, by the identities

        sup_A(x) = x - V(x) + max_{y <= x} (V(y) - y),
        sup_B(x) = beta x - chi - V(x) + max_{y < x} (V(y) - beta y),

    on one sorted set of targets: 0, the x grid itself (so xi = 0 and every
    x_i - x_j are candidates), each cell between consecutive grid points
    filled with xi_grid_density evenly spaced targets (both ends counted),
    and the strategy levels exactly, which are the analytic maximisers, so
    no discretisation slack is paid there. Both maxima are running maxima
    over the targets, read at each x. generator_argmax_xi is x minus the
    largest target attaining the condition A maximum.

    Both residuals are scaled by 1 + |V(x)|. They are also reported per x:
    resid_generator is condition A's left side, NaN within KINK_WINDOW of a
    kink, where it is skipped (V'' is undefined there); resid_payment is
    the gain of the best payment xi > 0 (-inf at x = 0), whose positive
    part is condition B's residual. x_grid must be non-empty, finite and
    non-negative; the check fails unless condition A is evaluated somewhere.
    """
    vf = ValueFunction(params, roots, strategy)
    levels = _strategy_levels(strategy)
    if x_grid is None:
        top = max(levels) if levels else 1.0 / abs(roots.s1) + 1.0 / roots.r1
        x_grid = np.linspace(0.0, 3.0 * top, 2000)
    x = np.asarray(x_grid, dtype=float)
    if not (x.size and np.isfinite(x).all() and (x >= 0.0).all()):
        raise ValueError("x_grid must be non-empty, finite and non-negative")

    y = _payment_targets(x, levels, xi_grid_density)
    vy = vf(y)
    ix = np.searchsorted(y, x)  # every x is a target: y[ix] == x
    v = vy[ix]
    scale = 1.0 + np.abs(v)

    # condition A: running maximum of V(y) - y over y <= x, and the latest
    # target attaining it (the smallest payment on ties)
    w = vy - y
    run = np.maximum.accumulate(w)
    at = np.maximum.accumulate(np.where(w == run, np.arange(len(y)), 0))
    sup_a = x - v + run[ix]
    argmax_xi = x - y[at[ix]]
    d1 = vf.d1(x)
    d2 = vf.d2(x)
    gen = 0.5 * params.sigma**2 * d2 + params.mu * d1 - params.delta * v
    ok_a = np.ones_like(x, dtype=bool)
    for k in vf.kinks:
        ok_a &= np.abs(x - k) > KINK_WINDOW
    resid_a = np.where(ok_a, (gen + params.gamma * sup_a) / scale, np.nan)
    if ok_a.any():
        ia = int(np.argmax(np.where(ok_a, resid_a, -np.inf)))
        max_a, worst_a = float(resid_a[ia]), float(x[ia])
    else:
        max_a, worst_a = -math.inf, math.nan

    # condition B: running maximum of V(y) - beta y over y < x; at x = 0
    # only xi = 0 is left, which contributes 0
    run_b = np.maximum.accumulate(vy - params.beta * y)
    best_b = np.where(ix > 0, run_b[ix - 1], -np.inf)
    gain_b = (params.beta * x - params.chi - v + best_b) / scale
    ib = int(np.argmax(np.maximum(gain_b, 0.0)))
    max_b, worst_b = max(float(gain_b[ib]), 0.0), float(x[ib])

    return HJBReport(
        n_points=len(x),
        tol=tol,
        max_generator_violation=max_a,
        worst_x_generator=worst_a,
        max_payment_residual=max_b,
        worst_x_payment=worst_b,
        passed=bool(ok_a.any()) and (max_a <= tol) and (max_b <= tol),
        generator_argmax_xi=argmax_xi,
        x_generator=x,
        resid_generator=resid_a,
        resid_payment=gain_b,
    )


@dataclass
class GridSearchResult:
    a: float
    l: float
    y: float
    objective: float
    n_per_axis: int
    bounds: tuple[float, float]

    @property
    def barriers(self) -> tuple[float, float, float]:
        return self.a, self.a + self.l, self.a + self.l + self.y


def hybrid_objective(params: ModelParams, roots: Roots, a, l, y):
    """V(a_c) - beta a_c from the hybrid kernel's separable form; broadcasts."""
    a, l, y = (np.asarray(v, dtype=float) for v in (a, l, y))
    F, N, G, D, h = hybrid_value_ac(params, roots, a, l, y)
    num = sum(u * v for u, v in zip(F, N))
    return num / sum(u * v for u, v in zip(G, D)) + h - params.beta * (a + l)


def _lattice_objective(params: ModelParams, roots: Roots, a, l, y) -> np.ndarray:
    """hybrid_objective on the lattice of the 1-D axes a, l, y, shape (a, l, y).

    The factors in a live on the a axis and those in the gaps on the (l, y)
    plane; both dot products contract over the a axis as matrix products,
    one block of rows of about 16k points at a time, so that the result is
    the only full-size array (each fresh full-size temporary costs its page
    faults). Then come one division per block and two broadcast adds.
    """
    F, N, G, D, h = hybrid_value_ac(params, roots, a, l[:, None], y)
    plane = len(l) * len(y)
    F, N = np.stack(F, axis=1), np.reshape(N, (3, plane))
    G, D = np.stack(G, axis=1), np.reshape(D, (2, plane))
    obj = np.empty((len(a), plane))
    rows = max(1, 2**14 // plane)
    for i in range(0, len(a), rows):
        np.divide(F[i : i + rows] @ N, G[i : i + rows] @ D, out=obj[i : i + rows])
    obj = obj.reshape(len(a), len(l), len(y))
    obj += h - params.beta * l[:, None]
    obj -= params.beta * a[:, None, None]
    return obj


def brute_force_hybrid(
    params: ModelParams,
    roots: Roots,
    bounds: tuple[float, float] | None = None,
    n_per_axis: int = 40,
) -> GridSearchResult:
    """Exhaustive lattice maximisation of V(a_c) - beta a_c.

    The lattice covers [0, a_bar] x [0, l_max] x (chi/beta, y_max]; payment
    gaps at or below chi/beta are excluded since they net nothing. bounds
    = (l_max, y_max); defaults are generous multiples of the exponential
    length scales. The lattice is evaluated in hybrid_value_ac's separable
    form, contracted over the a axis (_lattice_objective).
    """
    len_r, len_s = 1.0 / roots.r1, 1.0 / abs(roots.s1)
    if bounds is None:
        l_max = 6.0 * len_s + 2.0 * len_r
        y_max = 3.0 * params.chi / roots.alpha + 8.0 * len_r
        bounds = (l_max, y_max)
    l_max, y_max = bounds
    y_lo = params.chi / params.beta + max(y_max * 1e-6, 1e-12)
    a_grid = (
        np.linspace(0.0, roots.a_bar, n_per_axis) if roots.a_bar > 0 else np.zeros(1)
    )
    l_grid = np.linspace(0.0, l_max, n_per_axis)
    y_grid = np.linspace(y_lo, y_max, n_per_axis)
    obj = _lattice_objective(params, roots, a_grid, l_grid, y_grid)
    idx = np.unravel_index(np.argmax(obj), obj.shape)
    return GridSearchResult(
        a=float(a_grid[idx[0]]),
        l=float(l_grid[idx[1]]),
        y=float(y_grid[idx[2]]),
        objective=float(obj[idx]),
        n_per_axis=n_per_axis,
        bounds=bounds,
    )


@dataclass
class PatternAudit:
    passed: bool
    branch: str
    violations: list[tuple[float, float, str]]


def audit_derivative_pattern(
    params: ModelParams,
    roots: Roots,
    strategy: Hybrid,
) -> PatternAudit:
    """Check the slope-band pattern of a candidate-optimal hybrid strategy.

    a_p > 0:           V' > 1 on [0, a_p), in (beta, 1) on (a_p, a_c),
                       in (0, beta) on (a_c, b), identically beta beyond b.
    a_p = 0 < a_c:     V'(0) in (beta, 1]; otherwise as above.
    a_p = a_c = 0:     V'(0) in (0, beta]; V' in (0, beta) on (0, b).

    The grid has AUDIT_POINTS points. Those within one spacing of a
    barrier are skipped (the bands are open there); AUDIT_ATOL absorbs
    rounding at the band edges.
    """
    if not isinstance(strategy, Hybrid):
        raise TypeError("pattern audit applies to hybrid strategies")
    a_p, a_c, b = strategy.a_p, strategy.a_c, strategy.b
    vf = ValueFunction(params, roots, strategy)
    if a_p > 0.0:
        branch = "interior"
    elif a_c > 0.0:
        branch = "ap_zero"
    else:
        branch = "both_zero"

    hi = 1.5 * b + 1.0 / roots.r1 if math.isfinite(b) else 3.0 * (a_c + 1.0 / roots.r1)
    x = np.linspace(0.0, hi, AUDIT_POINTS)
    h = x[1] - x[0]
    d1 = vf.d1(x)
    violations: list[tuple[float, float, str]] = []

    def flag(bad, label):
        violations.extend((xv, dv, label) for xv, dv in zip(x[bad].tolist(), d1[bad].tolist()))

    def band(mask, lo, hi_, label):
        flag(mask & ~((lo - AUDIT_ATOL < d1) & (d1 < hi_ + AUDIT_ATOL)), label)

    away = lambda lev: np.abs(x - lev) > h
    if branch == "interior":
        band((x >= 0) & (x < a_p) & away(a_p), 1.0, math.inf, "V' > 1 on [0, a_p)")
        band(
            (x > a_p) & (x < a_c) & away(a_p) & away(a_c),
            params.beta,
            1.0,
            "V' in (beta, 1) on (a_p, a_c)",
        )
    elif branch == "ap_zero":
        v0 = float(vf.d1(0.0))
        if not (params.beta - AUDIT_ATOL < v0 <= 1.0 + AUDIT_ATOL):
            violations.append((0.0, v0, "V'(0) in (beta, 1]"))
        band(
            (x > 0) & (x < a_c) & away(a_c),
            params.beta,
            1.0,
            "V' in (beta, 1) on (0, a_c)",
        )
    else:
        v0 = float(vf.d1(0.0))
        if not (0.0 < v0 <= params.beta + AUDIT_ATOL):
            violations.append((0.0, v0, "V'(0) in (0, beta]"))
    band(
        (x > a_c) & (x < b) & away(a_c) & away(b),
        0.0,
        params.beta,
        "V' in (0, beta) on (a_c, b)",
    )
    if math.isfinite(b):
        flag((x > b) & away(b) & (np.abs(d1 - params.beta) > 1e-12), "V' = beta on [b, inf)")
    return PatternAudit(passed=not violations, branch=branch, violations=violations)

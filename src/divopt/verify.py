"""Independent numerical checks on solver output.

Three oracles, deliberately decoupled from the solver internals:

* check_hjb evaluates the variational inequalities that certify
  optimality, on a dense surplus grid with a discrete supremum over
  payment sizes. It consumes only the value-function evaluator. With
  y = x - xi the payment target, sup_xi (xi + V(x - xi)) = x +
  max_{y <= x} (V(y) - y), and likewise with beta xi, so both suprema are
  running maxima of V(y) - y and V(y) - beta y over one set of targets
  (the surplus grid refined, plus the strategy levels), read at each x:
  V is evaluated once per target, not once per (x, xi) pair. The targets
  are built in grid order, cell by cell, so they need no sort and no x
  needs a search; each maximum is taken within the cells, then across
  them. Ties in V(y) - y go to the largest target, the smallest payment.
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
import numbers
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


def _grid_nodes(x: np.ndarray):
    """The sorted, distinct nodes 0 and x, and where each x lies among them:
    a slice when x is strictly increasing, an index array otherwise."""
    if (x[1:] > x[:-1]).all():
        return (x, slice(None)) if x[0] == 0.0 else (np.append(0.0, x), slice(1, None))
    nodes, at = np.unique(np.append(x, 0.0), return_inverse=True)
    return nodes, at[:-1]


def _payment_targets(nodes: np.ndarray, levels: list[float], density: int):
    """Payment targets y = x - xi over the sorted, distinct nodes, in order.

    Each cell between consecutive nodes holds `density` evenly spaced
    targets, its two ends included (so going from n to 2n - 1, twice the
    parts per cell, keeps every coarser target). grid lays them out as
    node 0, the fills of cell 0, node 1, ..., the last node: with
    c = density - 1, grid[c j] is node j. A fill nodes[j] + h u (0 < u < 1)
    rounds into [nodes[j], nodes[j + 1]], so grid is non-decreasing as
    built. The strategy levels go in after the grid targets they are not
    below, giving s, and y is s without repeats: sorted and distinct.
    Returns (grid, y, to_y, at): y[to_y] is s (to_y is None when s has no
    repeats) and s[at] are the levels.
    """
    c = density - 1
    grid = np.empty(c * (len(nodes) - 1) + 1)
    cells = grid[:-1].reshape(-1, c)
    cells[:, 0] = nodes[:-1]
    h = nodes[1:] - nodes[:-1]
    for k in range(1, c):
        u = k * (1.0 / c)  # as np.linspace(0, 1, density) rounds it
        np.multiply(h, u, out=cells[:, k])
        cells[:, k] += nodes[:-1]
    grid[-1] = nodes[-1]
    at = np.searchsorted(grid, levels, "right").tolist()
    runs = [grid[i:j] for i, j in zip([0, *at], [*at, len(grid)])]
    s = np.concatenate([z for run, v in zip(runs, levels) for z in (run, [v])] + runs[-1:])
    at = [i + k for k, i in enumerate(at)]
    new = np.empty(len(s), dtype=bool)
    new[0] = True
    np.not_equal(s[1:], s[:-1], out=new[1:])
    if new.all():
        return grid, s, None, at
    return grid, s[new], np.cumsum(new) - 1, at


def _cell_max(w: np.ndarray, c: int) -> np.ndarray:
    """The maximum of each run of c consecutive entries of w, taken one
    column of the (runs, c) view at a time: numpy reduces a short last axis
    slowly, and this keeps complex w in numpy's order."""
    cells = w.reshape(-1, c)
    top = cells[:, 0].copy()
    for i in range(1, c):
        np.maximum(top, cells[:, i], out=top)
    return top


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

    on one set of targets: 0, the x grid itself (so xi = 0 and every
    x_i - x_j are candidates), each cell between consecutive grid points
    filled with xi_grid_density evenly spaced targets (both ends counted),
    and the strategy levels exactly, which are the analytic maximisers, so
    no discretisation slack is paid there. The targets are built in grid
    order (_payment_targets), so V is evaluated once, on a sorted array,
    and both maxima are taken per cell, then as running maxima across the
    cells, read at each x. generator_argmax_xi is x minus the largest
    target attaining the condition A maximum: the last one, in grid order.

    Both residuals are scaled by 1 + |V(x)|. They are also reported per x:
    resid_generator is condition A's left side, NaN within KINK_WINDOW of a
    kink, where it is skipped (V'' is undefined there); resid_payment is
    the gain of the best payment xi > 0 (-inf at x = 0), whose positive
    part is condition B's residual. x_grid must be a non-empty, finite and
    non-negative 1-D array and xi_grid_density an integer >= 2; the check
    fails unless condition A is evaluated somewhere.
    """
    if not (
        isinstance(xi_grid_density, numbers.Integral)
        and not isinstance(xi_grid_density, bool)
        and xi_grid_density >= 2
    ):
        raise ValueError(f"xi_grid_density must be an integer >= 2, got {xi_grid_density!r}")
    vf = ValueFunction(params, roots, strategy)
    levels = _strategy_levels(strategy)
    if x_grid is None:
        top = max(levels) if levels else 1.0 / abs(roots.s1) + 1.0 / roots.r1
        x_grid = np.linspace(0.0, 3.0 * top, 2000)
    x = np.asarray(x_grid, dtype=float)
    if not (x.ndim == 1 and x.size and np.isfinite(x).all() and (x >= 0.0).all()):
        raise ValueError("x_grid must be a non-empty, finite and non-negative 1-D array")

    nodes, at_x = _grid_nodes(x)
    c = int(xi_grid_density) - 1  # targets per cell, one node included
    grid, y, to_y, at = _payment_targets(nodes, levels, c + 1)
    vs = vf(y)
    if to_y is not None:
        vs = vs[to_y]
    # back onto the grid, and the levels' values
    vg = np.concatenate([vs[i + 1 : j] for i, j in zip([-1, *at], [*at, len(vs)])])
    lev = list(zip(levels, vs[at].tolist()))
    v = vg[::c][at_x]
    scale = 1.0 + np.abs(v)

    # condition A: the maximum of V(y) - y over y <= x and the largest
    # target attaining it (the smallest payment on ties) are the largest
    # (V(y) - y) + i y in numpy's complex order, which compares the real parts
    # and then the imaginary ones. Per cell (nodes[j], nodes[j + 1]], then
    # with the levels, then as a running maximum over node 0 and the cells
    wy = np.empty(len(grid), dtype=complex)
    np.subtract(vg, grid, out=wy.real)
    wy.imag = grid
    top = _cell_max(wy[1:], c)
    for (yl, vl), j in zip(lev, np.searchsorted(nodes, levels) - 1):
        if j < len(top):  # a level past the last node is below no x
            top[j] = np.maximum(top[j], complex(vl - yl, yl))
    run = np.maximum.accumulate(np.append(wy[0], top))[at_x]
    sup_a = x - v + run.real
    argmax_xi = x - run.imag
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

    # condition B: the maximum of V(y) - beta y over y < x, per cell
    # [nodes[j], nodes[j + 1]), where a fill that rounded onto nodes[j + 1]
    # is that node; at x = 0 only xi = 0 is left, which contributes 0
    wb = vg[:-1] - params.beta * grid[:-1]
    if (grid[c - 1 : -1 : c] == grid[c::c]).any():
        wb[grid[:-1] == np.repeat(nodes[1:], c)] = -np.inf
    top = _cell_max(wb, c)
    for (yl, vl), j in zip(lev, np.searchsorted(nodes, levels, "right") - 1):
        if j < len(top):
            top[j] = np.maximum(top[j], vl - params.beta * yl)
    best_b = np.append(-np.inf, np.maximum.accumulate(top))[at_x]
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

"""Monte Carlo oracle for the controlled surplus under any strategy.

Between payments the surplus moves by Euler increments mu h + sigma sqrt(h) Z
on the grid t_k = k dt (the last step ends at the horizon). What is checked
where:

* Grid points t_k: ruin (X <= 0), then the immediate-payment trigger. Both
  barriers are monitored only there, so a crossing between grid points is
  missed until the next grid point; that biases values by O(sqrt(dt))
  (Gobet 2000), which the verification suite absorbs into its tolerance via
  dt-halving. With bridge_correction=True a path that stays positive at
  both ends of a step is also ruined there with the Brownian-bridge crossing
  probability exp(-2 X_{k-1} X_k / (sigma^2 h)); steps holding a decision
  time skip that correction.
* Decision times: exponential(gamma) interarrivals, honoured exactly. Ruin
  is checked at the decision time, then the periodic rule applied; the
  trigger is not checked there. A decision inside a step splits the step's
  increment at a Brownian-bridge point: given the surplus at the step's ends
  (or at an earlier decision in the same step) the value at the decision
  time is drawn from the bridge between them. That is equal in law to
  drawing the two sub-segments afresh.

The paths of one column (every start, both antithetic halves) share one
increment stream, so each path is its offset plus its column's running sum
(sign-flipped for the antithetic half); only an event changes the offset.
The engine advances in blocks of K steps. A block draws the increments of
every column at once and bounds each column's running sum over the block
by its minimum and maximum. Comparing those with the extreme offsets of the
column's paths picks the few paths whose surplus can reach ruin or the
trigger in the block; only they, and the paths of columns holding a
decision time, are visited, to place their events exactly and in time
order. Decision times come from their own stream, window by window in
time, so runs at dt and dt/2 with one seed share them.

With antithetic=True the second half of the paths uses the negated Gaussian
draws of the first half and the standard error is computed over pair
averages. simulate_at runs several starting points against common random
numbers (each starting point remains a valid independent-across-paths
estimate); that is what keeps multi-point comparisons affordable. Identical
(seed, config, strategy, x0s) reproduce bit-identical results.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .core import ModelParams, Roots
from .errors import ConfigError
from .strategies import Hybrid, Liquidation, PeriodicBarrier, Strategy

# Gaussian increments drawn per block (steps x columns); at least 16 steps,
# so that the per-column work of a block stays small against its draws, and
# at most 4096, which bounds the per-step arrays when few columns are left
_BLOCK_BUDGET = 1 << 18
# grid points per sub-block of the event search, and path-steps per part
# of the search, which bounds its temporaries
_SUB_STEPS = 64
_SCAN_BUDGET = 1 << 14
# paths visited together for their events in one block
_PATH_BUDGET = 1 << 14
# exp(-2 a b / (sigma^2 h)) is exactly 0.0 in float64 once a and b both
# exceed this many sigma sqrt(h), so such steps need no bridge draw
_BRIDGE_REACH = 20.0


def _block_steps(n_cols: int) -> int:
    return min(max(_BLOCK_BUDGET // n_cols, 16), 4096)


@dataclass(frozen=True)
class Dividend:
    amount: float
    kind: str  # 'periodic' | 'immediate'


class _Rules:
    """The payment rules of one strategy, vectorised over surplus levels.

    periodic(x) and immediate(x) give (pay, new_x, dies); immediate applies
    on the trigger set triggered(x), which lies in the closed interval
    `band` (None when the strategy has no immediate rule).
    """

    def __init__(self, strategy: Strategy):
        self.strategy = strategy
        # periodic-zero and liquidation pay everything at a decision time
        self.keep, self.band = None, None
        if isinstance(strategy, Hybrid):
            self.keep, self.band = strategy.a_p, (strategy.b, math.inf)
        elif isinstance(strategy, PeriodicBarrier):
            self.keep = strategy.b
        elif isinstance(strategy, Liquidation):
            self.band = (strategy.b1, strategy.b2)

    def periodic(self, x):
        if self.keep is None:
            return x, np.zeros_like(x), True
        return np.maximum(x - self.keep, 0.0), np.minimum(x, self.keep), False

    def triggered(self, x):
        s = self.strategy
        if isinstance(s, Hybrid):
            return x >= s.b
        if isinstance(s, Liquidation):
            return (x > s.b1) & (x < s.b2)
        return np.zeros(np.shape(x), dtype=bool)

    def may_meet(self, lo, hi, reach):
        """Whether a path that ranges over [lo, hi] can fall to `reach`
        (ruin) or meet the trigger set."""
        out = lo <= reach
        if self.band is not None:
            trig = hi >= self.band[0]
            if self.band[1] < math.inf:
                trig &= lo <= self.band[1]
            out |= trig
        return out

    def immediate(self, x):
        s = self.strategy
        if isinstance(s, Hybrid):
            return x - s.a_c, np.full_like(x, s.a_c), False
        return x, np.zeros_like(x), True


def policy_step(strategy: Strategy, x: float, is_decision_time: bool) -> Dividend:
    """Stationary Markov payment map: amount paid at surplus x.

    At decision times the periodic rule applies (no transaction cost);
    between them the immediate rule applies. A zero amount means no
    payment; zero payments attract no cost and are no-ops.
    """
    if x < 0.0:
        raise ValueError(f"surplus must be >= 0, got {x}")
    rules = _Rules(strategy)
    xs = np.array([float(x)])
    if is_decision_time:
        return Dividend(float(rules.periodic(xs)[0][0]), "periodic")
    amount = rules.immediate(xs)[0][0] if rules.triggered(xs)[0] else 0.0
    return Dividend(float(amount), "immediate")


@dataclass(frozen=True)
class SimConfig:
    """Discretisation and sampling choices for one simulation run.

    horizon=None derives the shortest horizon whose discount truncation
    stays below truncation_tol; an explicit horizon must satisfy the same
    bound. The truncated tail contributes at most
    e^{-delta horizon} (linear growth bound) to the EPV.
    """

    x0: float = 1.0
    dt: float = 1e-3
    horizon: float | None = None
    n_paths: int = 10_000
    seed: int = 42
    antithetic: bool = True
    truncation_tol: float = 1e-6
    bridge_correction: bool = False

    def __post_init__(self):
        if not (isinstance(self.dt, (int, float)) and self.dt > 0.0):
            raise ConfigError(f"dt must be > 0, got {self.dt}")
        if not isinstance(self.n_paths, numbers.Integral) or isinstance(self.n_paths, bool):
            raise ConfigError(f"n_paths must be an integer, got {self.n_paths!r}")
        if self.n_paths < 1:
            raise ConfigError(f"n_paths must be >= 1, got {self.n_paths}")
        if self.antithetic and self.n_paths % 2:
            raise ConfigError("antithetic sampling needs an even n_paths")
        if not 0.0 < self.truncation_tol < 1.0:
            raise ConfigError("truncation_tol must be in (0, 1)")
        if self.horizon is not None and self.horizon <= 0.0:
            raise ConfigError(f"horizon must be > 0, got {self.horizon}")

    def resolved_horizon(self, delta: float) -> float:
        if self.horizon is None:
            return -math.log(self.truncation_tol) / delta
        if math.exp(-delta * self.horizon) > self.truncation_tol * (1 + 1e-12):
            raise ConfigError(
                f"horizon {self.horizon} leaves discount truncation above "
                f"truncation_tol={self.truncation_tol}"
            )
        return self.horizon


@dataclass(frozen=True)
class SimResult:
    """Estimate for one start, plus the engine's counters.

    n_steps and n_blocks count the grid steps and the blocks the run
    covered, until every path finished or the horizon (shared by every start
    of one simulate_at call); n_decision_events counts the decision times
    met by a live path of this start, path_steps the steps its paths were
    alive for.
    """

    x0: float
    epv_mean: float
    epv_stderr: float
    ruin_fraction: float
    mean_ruin_time: float  # nan when no path reached zero
    n_periodic_dividends: int
    n_immediate_dividends: int
    n_paths: int
    n_steps: int
    n_blocks: int
    n_decision_events: int
    path_steps: int


class _DecisionTimes:
    """The Poisson(gamma) decision times of every column, from their own stream.

    They are drawn over consecutive windows of length 1/gamma, in window
    order, so the schedule depends on the seed, gamma and the number of
    columns alone, never on dt. Each decision also carries the standard
    normal that places the surplus on its step's bridge.
    """

    def __init__(self, rng, gamma: float, n_cols: int):
        self.rng, self.gamma, self.n_cols = rng, gamma, n_cols
        self.n_windows = 0
        # drawn and not yet taken, sorted by time
        self.t = np.empty(0)
        self.c = np.empty(0, dtype=np.intp)
        self.z = np.empty(0)

    def take(self, t_end: float, live):
        """Decisions at times <= t_end, as (times, columns, normals) sorted
        by time; columns where live is false when a window is drawn are
        left out."""
        while self.n_windows / self.gamma < t_end:
            c = np.repeat(np.arange(self.n_cols), self.rng.poisson(1.0, self.n_cols))
            t = (self.n_windows + self.rng.random(c.size)) / self.gamma
            z = self.rng.standard_normal(c.size)
            keep = np.flatnonzero(live[c])
            keep = keep[np.argsort(t[keep])]
            self.t = np.concatenate([self.t, t[keep]])
            self.c = np.concatenate([self.c, c[keep]])
            self.z = np.concatenate([self.z, z[keep]])
            self.n_windows += 1
        n = np.searchsorted(self.t, t_end, "right")
        out = self.t[:n], self.c[:n], self.z[:n]
        self.t, self.c, self.z = self.t[n:], self.c[n:], self.z[n:]
        return out


def simulate(
    params: ModelParams, roots: Roots, strategy: Strategy, config: SimConfig
) -> SimResult:
    """Estimate the EPV of dividends net of costs until ruin from config.x0."""
    return simulate_at(params, roots, strategy, config, [config.x0])[0]


def simulate_at(
    params: ModelParams,
    roots: Roots,
    strategy: Strategy,
    config: SimConfig,
    x0s,
) -> list[SimResult]:
    """Simulate several starting points under common random numbers."""
    x0s = [float(v) for v in x0s]
    if not x0s:
        raise ConfigError("simulate_at needs at least one starting point")
    for v in x0s:
        if not math.isfinite(v) or v < 0.0:
            raise ConfigError(f"x0 must be finite and >= 0, got {v}")
    run = _Run(params, strategy, config, x0s)
    while run.cols.size and run.k < run.n_steps:
        run.block()
        run.compact()
    return run.results()


class _Run:
    """State of one simulate_at call.

    A path is (antithetic half s, start b, column c). Its surplus is its
    offset `level[s, b, c]` plus its column's running sum `base[s, c]`
    (the sum of the column's increments so far, sign-flipped for s = 1);
    only an event changes the offset. A finished (ruined or liquidated)
    path has a NaN offset; `low` and `high` hold the extreme offsets of
    each (s, c) over the starts. `cols` maps the engine's columns, which
    drop out once all their paths have finished, to record columns, and
    `col_of` maps back (-1 once dropped).
    """

    def __init__(self, params: ModelParams, strategy: Strategy, config: SimConfig, x0s):
        self.p, self.cfg, self.x0s = params, config, x0s
        self.rules = _Rules(strategy)
        self.horizon = config.resolved_horizon(params.delta)
        self.n_steps = max(1, math.ceil(self.horizon / config.dt))
        S = self.S = 2 if config.antithetic else 1
        nb, n_cols = len(x0s), config.n_paths // S
        # increments, decision times and bridge-correction uniforms each
        # have their own stream, so that runs differing only in dt or in
        # bridge_correction share what they can
        rngs = [np.random.default_rng(s) for s in np.random.SeedSequence(config.seed).spawn(3)]
        self.rng, self.bridge_rng = rngs[0], rngs[2]
        self.decisions = _DecisionTimes(rngs[1], params.gamma, n_cols)
        self.sign = np.array([1.0, -1.0], dtype=np.float32)[:S]
        self.epv = np.zeros((S, nb, n_cols))
        self.end_t = np.full((S, nb, n_cols), np.nan)
        self.level = np.empty((S, nb, n_cols))
        self.level[:] = np.asarray(x0s)[:, None]
        self.base = np.zeros((S, n_cols))
        self.cols = np.arange(n_cols)
        self.col_of = np.arange(n_cols)
        self.col_live = np.full(n_cols, S * nb, dtype=np.int64)
        self.n_live = np.full(nb, S * n_cols, dtype=np.int64)
        self.k = self.n_blocks = 0
        self.N = None
        self.n_per = np.zeros(nb, dtype=np.int64)
        self.n_imm = np.zeros(nb, dtype=np.int64)
        self.n_dec = np.zeros(nb, dtype=np.int64)
        self.path_steps = np.zeros(nb, dtype=np.int64)

        # time zero: ruin, then the immediate rule (t=0 is a.s. not a decision time)
        s, b, c = np.nonzero(self.level <= 0.0)
        self._finish(s, b, c, 0.0)
        self.level[s, b, c] = np.nan
        s, b, c = np.nonzero(self.rules.triggered(self.level))
        self.level[s, b, c] = self._immediate(s, b, c, self.level[s, b, c], 0.0)
        self.low = np.fmin.reduce(self.level, axis=1)
        self.high = np.fmax.reduce(self.level, axis=1)
        self.compact()

    # -- bookkeeping --------------------------------------------------------

    def _finish(self, s, b, c, t, g=None) -> None:
        """Record paths ending at time t, in step g of the current block."""
        if not s.size:
            return
        nb = self.n_live.size
        self.end_t[s, b, self.cols[c]] = t
        self.n_live -= np.bincount(b, minlength=nb)
        self.col_live -= np.bincount(c, minlength=self.col_live.size)
        if g is not None:
            self.path_steps -= np.bincount(b, self.K - g, minlength=nb).astype(np.int64)

    def _immediate(self, s, b, c, x, t, g=None):
        """Pay the immediate rule at time t; returns the new surplus, NaN
        where the path finishes."""
        p = self.p
        pay, new_x, dies = self.rules.immediate(x)
        self.epv[s, b, self.cols[c]] += np.exp(-p.delta * t) * (p.beta * pay - p.chi)
        self.n_imm += np.bincount(b, minlength=self.n_imm.size)
        if dies:
            self._finish(s, b, c, t, g)
            return np.full_like(x, np.nan)
        return new_x

    def compact(self) -> None:
        # drop the columns whose paths have all finished, once they make up
        # an eighth of the engine's columns
        keep = self.col_live > 0
        if 8 * np.count_nonzero(keep) <= 7 * keep.size:
            self.N = None  # the next block needs a buffer of the new width
            self.level = np.ascontiguousarray(self.level[:, :, keep])
            self.base, self.low, self.high = (
                np.ascontiguousarray(a[:, keep]) for a in (self.base, self.low, self.high)
            )
            self.col_of[self.cols[~keep]] = -1
            self.cols = self.cols[keep]
            self.col_of[self.cols] = np.arange(self.cols.size)
            self.col_live = self.col_live[keep]

    def _offsets(self, s, c):
        """The offsets of every start of each (s, c), as (len(s), starts)."""
        _, nb, C = self.level.shape
        return np.take(self.level, (s * nb)[:, None] * C + np.arange(nb) * C + c[:, None])

    # -- one block of steps -------------------------------------------------

    def _sums(self, g, s, c):
        """Running sum of half s of column c at grid point g of the block."""
        C = self.cols.size
        inner = self.drift[g] + self.sign[s] * np.take(self.N, g * C + c)
        return np.take(self.base, s * C + c) + inner

    def block(self) -> None:
        p, cfg, S = self.p, self.cfg, self.S
        C, k0 = self.cols.size, self.k
        K = self.K = min(_block_steps(C), self.n_steps - k0)
        self.n_blocks += 1
        self.k += K
        # grid times t[0..K] of the block; the column noise N[g] and the
        # drift to grid point g, so that half s of a column moves by
        # drift + sign[s] N in the block
        t = self.t = np.minimum(np.arange(k0, k0 + K + 1) * cfg.dt, self.horizon)
        if self.N is None or self.N.shape != (K + 1, C):
            self.N = None
            self.N = np.zeros((K + 1, C), dtype=np.float32)
        N = self.N
        self.rng.standard_normal(dtype=np.float32, out=N[1:])
        N[1:] *= (p.sigma * np.sqrt(np.diff(t))).astype(np.float32)[:, None]
        for prev, row in zip(N[1:], N[2:]):  # row by row: cumsum is slow across rows
            row += prev
        self.drift = (p.mu * (t - t[0])).astype(np.float32)

        # bounds on each half's moves over sub-blocks of m grid points, from
        # the extremes of the drift and of the noise there (float rounding
        # is monotone, so they bound the moves as computed)
        m = self.m = min(K, _SUB_STEPS)
        starts = np.arange(1, K + 1, m)
        lo = self.lo = np.empty((starts.size, S, C), dtype=np.float32)
        hi = self.hi = np.empty_like(lo)
        first = 1 if cfg.bridge_correction else 0  # the point before the sub-block
        for q, a in enumerate(starts):
            seg = slice(a - first, a + m)
            n_lo, n_hi = N[seg].min(axis=0), N[seg].max(axis=0)
            d_lo, d_hi = self.drift[seg].min(), self.drift[seg].max()
            lo[q, 0], hi[q, 0] = d_lo + n_lo, d_hi + n_hi
            if S == 2:
                lo[q, 1], hi[q, 1] = d_lo - n_hi, d_hi - n_lo
        self.reach = _BRIDGE_REACH * p.sigma * math.sqrt(cfg.dt) if first else 0.0

        # decision times in the block, bucketed by step, with each half's
        # running sum at them
        td, dcol, dz = self.decisions.take(t[-1], self.col_of >= 0)
        dcol = self.col_of[dcol]
        keep = np.flatnonzero(dcol >= 0)
        keep = keep[self.col_live[dcol[keep]] > 0]
        keep = keep[np.lexsort((td[keep], dcol[keep]))]
        td, dcol, dz = td[keep], dcol[keep], dz[keep]
        dg = np.clip(np.searchsorted(t, td), 1, K)  # t[g - 1] < td <= t[g]
        W = self._bridge(td, dcol, dg, dz)

        # the paths that can meet an event: the range of their surplus over
        # the block admits one, or their column holds a decision. The
        # extreme offsets of each (s, c) pick the columns to look at (float
        # rounding is monotone, so these bounds hold as computed); they are
        # visited in parts that bound the per-path arrays.
        self.blo, self.bhi = lo.min(axis=0), hi.max(axis=0)
        r_lo, r_hi = self.base + self.blo, self.base + self.bhi
        act = self.rules.may_meet(self.low + r_lo, self.high + r_hi, self.reach)
        act[:, dcol] = True
        has_dec = np.zeros(C, dtype=bool)
        has_dec[dcol] = True
        self.path_steps += K * self.n_live
        sc = np.flatnonzero(act)
        for part in np.array_split(sc, max(1, -(-sc.size * self.level.shape[1] // _PATH_BUDGET))):
            s_sc, c_sc = np.divmod(part, C)
            lv = self._offsets(s_sc, c_sc)
            on = self.rules.may_meet(lv + r_lo[s_sc, c_sc, None], lv + r_hi[s_sc, c_sc, None],
                                     self.reach)
            on |= has_dec[c_sc, None] & ~np.isnan(lv)
            i, b = np.nonzero(on)
            if not i.size:
                continue
            s, c = s_sc[i], c_sc[i]
            self.level[s, b, c] = self._events(s, b, c, lv[i, b], td, dcol, dg, W)
            lv = self._offsets(s_sc, c_sc)
            low, high = lv[:, 0].copy(), lv[:, 0].copy()
            for k in range(1, lv.shape[1]):
                np.fmin(low, lv[:, k], out=low)
                np.fmax(high, lv[:, k], out=high)
            self.low[s_sc, c_sc], self.high[s_sc, c_sc] = low, high
        for s in range(S):
            self.base[s] += self.drift[K] + self.sign[s] * N[K]
        self.lo = self.hi = self.blo = self.bhi = None  # freed before compaction

    def _bridge(self, td, dcol, dg, z):
        """Each half's running sum at each decision time. The noise there is
        drawn from the bridge between the ends of its step, or between an
        earlier decision in the step and the step's end."""
        t, N = self.t, self.N
        noise = np.empty(td.size)
        t_a, t_b = t[dg - 1], t[dg]
        n_a, n_b = N[dg - 1, dcol].astype(float), N[dg, dcol].astype(float)
        first = np.ones(td.size, dtype=bool)
        first[1:] = (dcol[1:] != dcol[:-1]) | (dg[1:] != dg[:-1])
        i = np.nonzero(first)[0]
        while i.size:
            span = np.maximum(t_b[i] - t_a[i], 1e-300)
            u = (td[i] - t_a[i]) / span
            sd = self.p.sigma * np.sqrt((td[i] - t_a[i]) * (t_b[i] - td[i]) / span)
            noise[i] = n_a[i] + u * (n_b[i] - n_a[i]) + sd * z[i]
            # a later decision in the same step bridges from this one
            i = i[i + 1 < td.size] + 1
            i = i[~first[i]]
            t_a[i], n_a[i] = td[i - 1], noise[i - 1]
        moved = self.p.mu * (td - t[0]) + self.sign[:, None].astype(float) * noise
        return self.base[:, dcol] + moved

    def _events(self, s, b, c, lv, td, dcol, dg, W):
        """Place the events of the given paths (offsets lv) in this block in
        time order; returns their offsets after the last one (NaN where
        the path finished)."""
        p, K, t = self.p, self.K, self.t
        pos = np.ones(s.size, dtype=np.int64)  # next grid point to check
        dptr = np.searchsorted(dcol, c, "left")  # next decision of the column
        dend = np.searchsorted(dcol, c, "right")
        u = None
        if self.cfg.bridge_correction:
            u = self.bridge_rng.random((s.size, K + 1))
            self.no_dec = np.ones((self.cols.size, K + 1), dtype=bool)
            self.no_dec[dcol, dg] = False
        todo = np.arange(s.size)
        while todo.size:
            ge = self._first_grid_event(s[todo], c[todo], lv[todo], pos[todo],
                                        None if u is None else u[todo])
            gd = np.full(todo.size, K + 1)
            has_d = dptr[todo] < dend[todo]
            gd[has_d] = dg[dptr[todo[has_d]]]
            on_dec = has_d & (gd <= ge)
            on_grid = ~on_dec & (ge <= K)

            # decision times: ruin first, then the periodic rule
            i, j = todo[on_dec], dptr[todo[on_dec]]
            if i.size:
                pos[i], dptr[i] = gd[on_dec], j + 1
                x = lv[i] + W[s[i], j]
                self.n_dec += np.bincount(b[i], minlength=self.n_dec.size)
                ruined = x <= 0.0
                r = i[ruined]
                self._finish(s[r], b[r], c[r], td[j[ruined]], dg[j[ruined]])
                lv[r] = np.nan
                i, j, x = i[~ruined], j[~ruined], x[~ruined]
                pay, new_x, dies = self.rules.periodic(x)
                self.epv[s[i], b[i], self.cols[c[i]]] += np.exp(-p.delta * td[j]) * pay
                self.n_per += np.bincount(b[i][pay > 0.0], minlength=self.n_per.size)
                if dies:
                    self._finish(s[i], b[i], c[i], td[j], dg[j])
                    lv[i] = np.nan
                else:
                    lv[i] = new_x - W[s[i], j]

            # grid points: bridge ruin, then ruin, then the trigger
            i, g = todo[on_grid], ge[on_grid]
            if i.size:
                pos[i] = g + 1
                run = self._sums(g, s[i], c[i])
                x = lv[i] + run
                dead = x <= 0.0
                if u is not None:
                    dead |= self._bridge_hit(s[i], c[i], lv[i], g, u[i, g])
                r = i[dead]
                self._finish(s[r], b[r], c[r], t[g[dead]], g[dead])
                lv[r] = np.nan
                i, g, x, run = i[~dead], g[~dead], x[~dead], run[~dead]
                lv[i] = self._immediate(s[i], b[i], c[i], x, t[g], g) - run

            todo = todo[on_dec | on_grid]
            todo = todo[~np.isnan(lv[todo])]
        return lv

    def _bridge_hit(self, s, c, lv, g, u):
        """Brownian-bridge ruin inside step g, for paths positive at both ends."""
        h = self.t[g] - self.t[g - 1]
        a = lv + self._sums(g - 1, s, c)
        x = lv + self._sums(g, s, c)
        with np.errstate(over="ignore", invalid="ignore"):
            prob = np.exp(-2.0 * a * x / (self.p.sigma ** 2 * h))
        return (a > 0.0) & (x > 0.0) & self.no_dec[c, g] & (u < prob)

    def _first_grid_event(self, s, c, lv, pos, u):
        """First grid point g >= pos at which each path meets ruin or its
        trigger (K + 1 where none)."""
        out = np.full(s.size, self.K + 1)
        # only paths whose range over the whole block admits an event, in
        # parts that bound the scan's temporaries
        base = self.base[s, c]
        todo = np.flatnonzero(self.rules.may_meet(lv + (base + self.blo[s, c]),
                                                  lv + (base + self.bhi[s, c]), self.reach))
        for part in np.array_split(todo, max(1, -(-todo.size * self.m // _SCAN_BUDGET))):
            self._scan(part, s, c, lv, pos, u, out)
        return out

    def _scan(self, idx, s, c, lv, pos, u, out):
        """_first_grid_event for the paths idx: scan pos's sub-block, then
        the first later sub-block whose range admits an event, and so on."""
        K, m, rules = self.K, self.m, self.rules
        Q = self.lo.shape[0]
        s, c, lv, start = s[idx], c[idx], lv[idx], pos[idx]
        q = (start - 1) // m
        todo = np.arange(idx.size)
        while todo.size:
            si, ci, li = s[todo, None], c[todo, None], lv[todo, None]
            g = 1 + q[todo, None] * m + np.arange(m)
            ok = (g >= start[todo, None]) & (g <= K)
            g = np.minimum(g, K)
            x = li + self._sums(g, si, ci)
            ev = (x <= 0.0) | rules.triggered(x)
            if u is not None:
                ev |= self._bridge_hit(si, ci, li, g, u[idx[todo, None], g])
            ev &= ok
            found = ev.any(axis=1)
            out[idx[todo[found]]] = g[found, ev[found].argmax(axis=1)]
            todo = todo[~found]
            if Q == 1:
                break
            base = self.base[s[todo], c[todo]][:, None]
            lo = self.lo[:, s[todo], c[todo]].T
            hi = self.hi[:, s[todo], c[todo]].T
            cand = rules.may_meet(lv[todo, None] + (base + lo), lv[todo, None] + (base + hi),
                                  self.reach)
            cand &= np.arange(Q) > q[todo, None]
            more = cand.any(axis=1)
            todo, nq = todo[more], cand[more].argmax(axis=1)
            q[todo] = nq
            start[todo] = 1 + nq * m

    # -- results ------------------------------------------------------------

    def results(self) -> list[SimResult]:
        out = []
        for b, v in enumerate(self.x0s):
            e = self.epv[:, b, :]
            samples = 0.5 * (e[0] + e[1]) if self.S == 2 else e[0]
            n = samples.size
            stderr = float(samples.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
            end = self.end_t[:, b, :]
            died = ~np.isnan(end)
            rt = end[died]
            out.append(
                SimResult(
                    x0=v,
                    epv_mean=float(samples.mean()),
                    epv_stderr=stderr,
                    ruin_fraction=float(died.mean()),
                    mean_ruin_time=float(rt.mean()) if rt.size else math.nan,
                    n_periodic_dividends=int(self.n_per[b]),
                    n_immediate_dividends=int(self.n_imm[b]),
                    n_paths=self.cfg.n_paths,
                    n_steps=self.k,
                    n_blocks=self.n_blocks,
                    n_decision_events=int(self.n_dec[b]),
                    path_steps=int(self.path_steps[b]),
                )
            )
        return out

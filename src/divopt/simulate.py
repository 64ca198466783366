"""Monte Carlo oracle for the controlled surplus under any strategy.

Between payments the surplus is x + mu t + sigma W_t. A strategy (a_p, a_c,
b, b2) acts only at a decision time (a clock of rate gamma) or when the
surplus leaves (0, b) below its trigger set [b, b2) or (b2, inf) above it.
Each step races that exit against the clock and draws the outcome from its
exact law (Borodin & Salminen; Avram, Kyprianou & Pistorius 2004). With the
lower end at 0, L the length, r > 0 > s the roots of sigma^2 th^2/2 + mu th
= lam, k = r - s and q(m) = 1 - e^{-k m}: exit up is worth e^{-r (L-x)} q(x)
/ q(L), exit down e^{s x} q(L-x) / q(L), and the clock rings first with the
surplus in dy with probability lam G(x, y) dy, G(x, y) = e^{s (x-y)} (y < x)
or e^{r (x-y)} (y > x) times q(x ^ y) q(L - x v y) / (sigma^2 k q(L) / 2).
At lam = gamma a uniform picks exit down, the clock or exit up; a clock step
draws Y from G(x, .) by rejection. The law at gamma + delta over the law at
gamma is the step's weight factor; weight times payment, summed, is unbiased
for the EPV. The engine imports nothing from values, solver or verify.

Paths (antithetic half, start, column) advance in parts of at most 2^14;
step k of a column's live paths uses its k-th uniforms (complements in the
antithetic half), so the starts share common random numbers. One set of array
operations evaluates both rates' laws. When b2 = inf the interval's ends are
scalars: q(L) is computed once per run and L = inf makes every law of the upper
end one broadcast value. Each step's events go into one histogram over (start,
event code), decoded into the counters once per run. The draws and arithmetic
are unchanged, and so is every result (tests/test_simulate_golden.py).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .core import ModelParams, Roots, _root_pair
from .errors import ConfigError
from .strategies import Strategy, nets_positive

_PART = 1 << 14  # paths advanced together, which bounds the per-step arrays
_SPACER = np.zeros((4, 1))  # column 0 of a step's uniforms


class _Rules:
    """A strategy's payment rules: pay(x, clock) gives (amount, new x) under
    the periodic rule (keep a_p) where clock holds, else the immediate one
    (reset to a_c); amount <= 0 is no payment, new x = 0 ends the path."""

    def __init__(self, s: Strategy):
        self.keep, self.reset, self.band = s.a_p, s.a_c, (s.b, s.b2)

    def pay(self, x, clock):
        level = np.where(clock, self.keep, self.reset)
        return x - level, np.minimum(x, level)

    def triggered(self, x):  # in the trigger set [b, b2)
        return (x >= self.band[0]) & (x < self.band[1])

    def interval(self, x):  # the ends of x's interval: scalars when b2 = inf
        b, b2 = self.band
        if b2 == math.inf:
            return 0.0, b
        above = x >= b2
        return np.where(above, b2, 0.0), np.where(above, math.inf, b)


@dataclass(frozen=True)
class SimConfig:
    """Sampling choices for one simulation run. A path stops once its
    discount weight is below eps = e^{-delta horizon} (truncation_tol when
    horizon is None; a horizon must not give more), so the EPV it drops is
    at most eps times the value where it stops. dt has no effect. A run
    needs two samples (an antithetic pair is one) for a standard error."""

    x0: float = 1.0
    dt: float = 1e-3
    horizon: float | None = None
    n_paths: int = 10_000
    seed: int = 42
    antithetic: bool = True
    truncation_tol: float = 1e-6

    def __post_init__(self):
        if not (isinstance(self.dt, (int, float)) and self.dt > 0.0):
            raise ConfigError(f"dt must be > 0, got {self.dt}")
        n = self.n_paths
        if not isinstance(n, numbers.Integral) or isinstance(n, bool) or n < 1:
            raise ConfigError(f"n_paths must be an integer >= 1, got {n!r}")
        if self.antithetic and self.n_paths % 2:
            raise ConfigError("antithetic sampling needs an even n_paths")
        if n // (2 if self.antithetic else 1) < 2:
            raise ConfigError(f"n_paths={n} gives fewer than two samples, so no standard error")
        if not 0.0 < self.truncation_tol < 1.0:
            raise ConfigError("truncation_tol must be in (0, 1)")
        if self.horizon is not None and not (math.isfinite(self.horizon) and self.horizon > 0.0):
            raise ConfigError(f"horizon must be finite and > 0, got {self.horizon}")

    def resolved_horizon(self, delta: float) -> float:
        if self.horizon is None:
            return -math.log(self.truncation_tol) / delta
        if math.exp(-delta * self.horizon) > self.truncation_tol * (1 + 1e-12):
            raise ConfigError(f"horizon {self.horizon} leaves discount truncation above "
                              f"truncation_tol={self.truncation_tol}")
        return self.horizon


@dataclass(frozen=True)
class SimResult:
    """Estimate for one start and its paths' counters: steps (n_events), those at a decision
    time, the share ended by ruin or liquidation, and the longest path's steps (max_chain)."""

    x0: float
    epv_mean: float
    epv_stderr: float
    ruin_fraction: float
    n_periodic_dividends: int
    n_immediate_dividends: int
    n_paths: int
    n_events: int
    n_decision_events: int
    max_chain: int


class _Law:
    """Exit laws from (0, L), L a scalar or one per path, against clocks at
    the given rates: r, s, k and c are columns over the rates, so each law
    broadcasts to (rate, path). All use nq(m) = -q(m) (the signs cancel)."""

    def __init__(self, params: ModelParams, rates):
        v = 0.5 * params.sigma**2
        pairs = [_root_pair(params.mu, v, rate) for rate in rates]
        self.r, self.s = (np.array(col)[:, None] for col in zip(*pairs))
        self.k = self.r - self.s
        self.c = v * self.k
        self.nr, self.nk, self.nc = -self.r, -self.k, -self.c
        self.per_z = np.stack((self.s, self.nk), axis=1)  # exponents per unit z
        # the sampler's at the first rate: exponents, rates, envelope divisors
        r, s = self.r[0, 0], self.s[0, 0]
        self.sample_x, self.sample_Lx = self.per_z[0], np.array([[-r], [self.nk[0, 0]]])
        self.sample_rates, self.sample_env = (-s, -r), np.array([[-s], [r]])

    def nq(self, m):
        return np.expm1(self.nk * m)

    @staticmethod
    def at(v, i):  # a per-path array at the paths i; what broadcasts as it is
        return v.take(i, axis=-1) if isinstance(v, np.ndarray) and v.shape[-1] > 1 else v

    @staticmethod
    def gap(hi, x):  # hi - x, kept the scalar inf when there is no upper end
        return hi if not isinstance(hi, np.ndarray) and hi == math.inf else hi - x

    def exits(self, z, Lz, nqL):
        """The exit laws (rate, (down, up), path) from z, Lz = L - z away."""
        e = self.per_z * z
        np.exp(e[:, 0], out=e[:, 0])
        np.expm1(e[:, 1], out=e[:, 1])
        t = self.nk * Lz
        np.expm1(t, out=t)
        e[:, 0] *= t
        e[:, 1] *= np.exp(np.multiply(self.nr, Lz, out=t), out=t)
        e /= nqL[:, None]
        return e

    def green(self, x, y, L, den):
        """G(x, y) on (0, L), given den = -c nq(L)."""
        mn, mx = np.minimum(x, y), np.maximum(x, y)
        e = np.exp(np.where(y < x, self.s, self.r) * (x - y))
        return e * self.nq(mn) * self.nq(self.gap(L, mx)) / den

    def sample(self, x, Lx, L, u, rng):
        """Y from G(x, .) at the first rate by rejection from truncated exponentials, Lx =
        L - x. Round 1 takes the uniforms u (3 rows), later rounds draw from rng; Y rises
        with u[0] and u[1]. rows: x, e^{s x} - 1, e^{-r Lx} - 1, envelope below x, total."""
        rows = np.empty((5, x.size))
        rows[0] = x
        np.multiply(self.sample_x, x, out=rows[1:4:2])
        np.multiply(self.sample_Lx, Lx, out=rows[2:5:2])
        np.expm1(rows[1:5], out=rows[1:5])
        np.multiply(rows[1:3], rows[4:2:-1], out=rows[3:5])
        rows[3:5] /= self.sample_env
        rows[4] += rows[3]
        y, todo, nk = np.empty(x.size), np.arange(x.size), self.nk[0, 0]
        while True:
            below = u[0] * rows[4] < rows[3]
            # the distance from x: an exponential at rate -s or r, truncated
            v = np.where(below, 1.0 - u[1], u[1]) * np.where(below, rows[1], rows[2])
            y[todo] = yt = rows[0] + np.log1p(v) / np.where(below, *self.sample_rates)
            miss = (u[2] >= -np.expm1(nk * np.where(below, yt, L - yt))).nonzero()[0]
            if not miss.size:
                return y
            todo, rows, L = todo[miss], rows.take(miss, axis=1), self.at(L, miss)
            u = rng.random((3, miss.size))


def simulate(params: ModelParams, roots: Roots, strategy: Strategy,
             config: SimConfig) -> SimResult:
    """Estimate the EPV of dividends net of costs until ruin from config.x0."""
    return simulate_at(params, roots, strategy, config, [config.x0])[0]


def simulate_at(params: ModelParams, roots: Roots, strategy: Strategy, config: SimConfig,
                x0s) -> list[SimResult]:
    """Simulate several starting points under common random numbers. A strategy whose
    immediate payments net nothing (strategies.nets_positive) is refused before any
    path is drawn: its paths would make of the order of 1/(b - a_c) payments."""
    x0s = [float(v) for v in x0s]
    if not x0s or not all(math.isfinite(v) and v >= 0.0 for v in x0s):
        raise ConfigError(f"simulate_at needs starting points, finite and >= 0, got {x0s}")
    if not nets_positive(strategy, params.chi, params.beta):
        raise ConfigError(f"{strategy} pays immediately at a gap b - a_c <= chi/beta")
    S = 2 if config.antithetic else 1
    nb, n_cols = len(x0s), config.n_paths // S
    eps = math.exp(-params.delta * config.resolved_horizon(params.delta))
    law = _Law(params, (params.gamma, params.gamma + params.delta))
    rng = np.random.default_rng(config.seed)
    epv, tally, chain = np.zeros((S, nb, n_cols)), np.zeros((2, nb, 8), np.int64), 0
    width = max(1, _PART // (S * nb))
    for c0 in range(0, n_cols, width):
        h = _run(params, _Rules(strategy), law, eps, rng, epv, x0s, c0, min(width, n_cols - c0))
        tally += np.stack((h[0], h[1:].sum(axis=0)))
        chain = np.maximum(chain, np.count_nonzero(h[1:].any(axis=2), axis=0))
    samples = epv.mean(axis=0)  # pair averages when antithetic
    se = samples.std(axis=1, ddof=1) / math.sqrt(n_cols)
    # all events and the steps' (time zero's are no steps), by (start, clock, paid, alive)
    both, steps = tally.sum(axis=0).reshape(nb, 2, 2, 2), tally[1].reshape(nb, 2, 2, 2)
    fin, per, imm = both[..., 0].sum((1, 2)), both[:, 1, 1].sum(1), both[:, 0, 1].sum(1)
    dec, ev, chain = steps[:, 1].sum((1, 2)), steps.sum((1, 2, 3)), np.broadcast_to(chain, nb)
    return [SimResult(v, float(samples[b].mean()), float(se[b]), int(fin[b]) / config.n_paths,
                      int(per[b]), int(imm[b]), config.n_paths, int(ev[b]), int(dec[b]),
                      int(chain[b])) for b, v in enumerate(x0s)]


def _code(clock, paid, alive):  # the step ended at a decision time, paid, left x > 0
    return np.uint8(4) * clock + paid.view(np.uint8) * np.uint8(2) + alive.view(np.uint8)


def _run(p: ModelParams, rules: _Rules, law: _Law, eps: float, rng, epv, x0s, c0: int, C: int):
    """Add to epv (half, start, column) the EPV samples of columns c0 to c0 + C;
    return each step's histogram (time zero first) over (start, _code)."""
    (S, nb, n_cols), acc = epv.shape, epv.reshape(-1)
    # per path: index into epv, first histogram bin of its start, column
    ids = np.empty((3, S * nb, C), dtype=np.intp)
    np.add(np.arange(0, epv.size, n_cols)[:, None], np.arange(c0, c0 + C), out=ids[0])
    ids[1], ids[2] = np.tile(np.arange(0, 8 * nb, 8), S)[:, None], np.arange(C)
    ids, x = ids.reshape(3, -1), np.repeat(np.tile(x0s, S), C)
    # time zero: the immediate rule (x0 = 0 is ruin at once)
    paid = rules.triggered(x) & (x > 0.0)
    i = paid.nonzero()[0]
    amount, x[i] = rules.pay(x[i], False)
    acc[ids[0, i]] = p.beta * amount - p.chi
    paid[i] = amount > 0.0
    alive = x > 0.0
    hist = [np.bincount(ids[1] + _code(False, paid, alive), minlength=8 * nb)]
    if not alive.all():
        i = alive.nonzero()[0]
        ids, x = ids.take(i, axis=1), x[i]
    del paid, i, amount, alive
    w, lo, moving = np.ones(x.size), None, rules.band[1] < math.inf
    with np.errstate(divide="ignore", invalid="ignore"):
        while x.size:
            if lo is None or moving:  # the interval's ends are scalars when not moving
                lo, hi = rules.interval(x)
                nqL = law.nq(hi - lo)
            # U: a spacer, 4 uniforms per column with live paths and their complements;
            # key: each path's column of U (the complements for the later half)
            has = np.zeros(C, dtype=bool)
            has[ids[2]] = True
            rank = has.cumsum()
            m, key = rank[-1], rank[ids[2]]
            key[ids[0].searchsorted(nb * n_cols):] += m  # the later half
            U = rng.random((4, m))
            U = np.concatenate((_SPACER, U, 1.0 - U), axis=1)
            # race the exits against the clock; the exits' weight factors
            Lz, u = law.gap(hi, x), U[0][key]
            X = law.exits(x - lo, Lz, nqL)
            go_up = u > 1.0 - X[0, 1]
            clock = ~(go_up | (u < X[0, 0]))
            X[1] /= X[0]
            ic = clock.nonzero()[0]
            u, lo_c, wc = U[1:].take(key[ic], axis=1), law.at(lo, ic), w[ic]
            w *= np.where(go_up, X[1, 1], X[1, 0])
            del U, key, X  # memory peaks in the sampler's first round
            # the clock steps: a position from G and its weight factor
            zc, Lc = x[ic] - lo_c, law.at(hi, ic) - lo_c
            yc = law.sample(zc, law.at(Lz, ic), Lc, u, rng)
            g = law.green(zc, yc, Lc, law.nc * law.at(nqL, ic))
            w[ic] = wc * (g[1] / g[0])
            pos = np.where(go_up, hi, lo)
            pos[ic] = lo_c + yc
            del Lz, go_up, ic, u, lo_c, wc, zc, Lc, yc, g
            # the rules: the lower end 0 is ruin, any other end a trigger
            amount, new = rules.pay(pos, clock)
            paid = amount > 0.0
            acc[ids[0]] += np.where(clock, amount, p.beta * amount - p.chi) * w * paid
            alive = new > 0.0
            hist.append(np.bincount(ids[1] + _code(clock, paid, alive), minlength=8 * nb))
            keep = (alive & (w >= eps)).nonzero()[0]
            ids, x, w = ids.take(keep, axis=1), new[keep], w[keep]
    return np.reshape(hist, (-1, nb, 8))

"""Monte Carlo oracle for the controlled surplus under any strategy.

Between payments the surplus is x + mu t + sigma W_t. A strategy (a_p, a_c,
b, b2) acts only at a decision time (an exponential clock of rate gamma) or
when the surplus leaves an interval: (0, b) below its trigger set [b, b2),
(b2, inf) above it; b = inf gives (0, inf). Each step of a path races that
exit against the clock, draws the outcome from its exact law and applies
the payment rule there: no time grid, no sampled time.

Exit laws (Borodin & Salminen, Handbook of Brownian Motion; Avram,
Kyprianou & Pistorius 2004): with the lower end shifted to 0, L the length
(possibly inf), r > 0 > s the roots of sigma^2 th^2/2 + mu th = lam,
k = r - s, q(m) = 1 - e^{-k m}, tau the exit time and e_lam a clock,

    up(x)   = E[e^{-lam tau}; exit at L] = e^{-r (L-x)} q(x) / q(L)
    down(x) = E[e^{-lam tau}; exit at 0] = e^{s x} q(L-x) / q(L)
    P(e_lam < tau, X(e_lam) in dy) = lam G(x, y) dy,
    G(x, y) = e^{s (x-y)} (y < x) or e^{r (x-y)} (y > x)
              * q(x ^ y) q(L - x v y) / ((sigma^2/2) k q(L)),

and lam int G = 1 - up - down; no exponent is positive. At lam = gamma a
uniform picks exit down, the clock or exit up (in that order); a clock
step draws Y from G(x, .) by rejection from truncated exponentials. The
expected discount over a step, given its outcome, is the law at gamma +
delta over the law at gamma (up'/up, down'/down, G'(x, Y)/G(x, Y), each in
(0, 1]); durations are independent given the positions, so the weight
(the product of these) times payment, summed, is unbiased for the EPV. A
path ends at ruin, at a payment that liquidates it, or at weight < eps.

Independence: the engine reads the parameters and the barriers and solves
its own root pairs at gamma and gamma + delta with core's quadratic
formula (criterion 1 checks it against the Laplace exponent). It imports
nothing from values, solver or verify and does not read `roots`, so no
error of the closed forms or of the solver can cancel in a comparison.

Paths (antithetic half, start, column) advance in parts of at most 2^14.
Step k of a column's live paths uses its k-th uniforms (complements in the
antithetic half): the starts share common random numbers. Equal (seed,
config, strategy, x0s) give identical results; dt has no effect.
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


class _Rules:
    """The payment rules of one strategy, vectorised over surplus levels:
    periodic(x) and immediate(x) give (amount, new_x); a new level of 0
    ends the path. keep is the periodic level a_p, reset the level a_c
    after an immediate payment and band the trigger set [b, b2)."""

    def __init__(self, strategy: Strategy):
        s = strategy
        self.keep, self.reset, self.band = s.a_p, s.a_c, (s.b, s.b2)

    def periodic(self, x):
        if self.keep == 0.0:  # pays everything; skips two array passes
            return x, np.zeros_like(x)
        return np.maximum(x - self.keep, 0.0), np.minimum(x, self.keep)

    def immediate(self, x):
        return x - self.reset, np.full_like(x, self.reset)

    def triggered(self, x):
        lo, hi = self.band
        return (x >= lo) & (x < hi)

    def interval(self, x):  # the ends of the interval holding x, below or above band
        b, b2 = self.band
        if b2 == math.inf:
            return np.zeros_like(x), np.full_like(x, b)
        above = x >= b2
        return np.where(above, b2, 0.0), np.where(above, math.inf, b)


@dataclass(frozen=True)
class SimConfig:
    """Sampling choices for one simulation run.

    A path stops once its discount weight is below eps = e^{-delta horizon}
    (truncation_tol when horizon is None; an explicit horizon must not give
    more), so the EPV it drops is at most eps times the value where it
    stops. dt is accepted and has no effect: the engine has no time grid.
    """

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
    """Estimate for one start, plus the engine's counters: the steps of its
    paths (n_events), those that ended at a decision time, and the share of
    paths that ended by ruin or liquidation before their weight cut-off."""

    x0: float
    epv_mean: float
    epv_stderr: float
    ruin_fraction: float
    n_periodic_dividends: int
    n_immediate_dividends: int
    n_paths: int
    n_events: int
    n_decision_events: int


def _q(k, m):
    return -np.expm1(-k * m)


class _Law:
    """Exit laws of the surplus from (0, L) against a clock of one rate."""

    def __init__(self, params: ModelParams, rate: float):
        self.r, self.s = _root_pair(params.mu, 0.5 * params.sigma**2, rate)
        self.k = self.r - self.s
        self.c = 0.5 * params.sigma**2 * self.k

    def exits(self, x, L):
        k, qL = self.k, _q(self.k, L)
        return np.exp(-self.r * (L - x)) * _q(k, x) / qL, np.exp(self.s * x) * _q(k, L - x) / qL

    def green(self, x, y, L):
        k = self.k
        e = np.exp(np.where(y < x, self.s, self.r) * (x - y))
        return e * _q(k, np.minimum(x, y)) * _q(k, L - np.maximum(x, y)) / (self.c * _q(k, L))

    def sample(self, x, L, u, rng):
        """Y from G(x, .) by rejection: round 1 takes the uniforms u (3 rows),
        later rounds draw from rng. Y rises with u[0] and u[1]."""
        r, s, k = self.r, self.s, self.k
        em_lo, em_hi = np.expm1(s * x), np.expm1(-r * (L - x))
        w_lo, w_hi = _q(k, L - x) * em_lo / s, _q(k, x) * em_hi / -r  # envelope masses
        y, todo = np.empty(x.size), np.arange(x.size)
        while todo.size:
            xt = x[todo]
            below = u[0] * (w_lo[todo] + w_hi[todo]) < w_lo[todo]
            # the distance from x: an exponential at rate -s or r, truncated
            v = np.where(below, 1.0 - u[1], u[1]) * np.where(below, em_lo[todo], em_hi[todo])
            d = np.log1p(v) / np.where(below, s, -r)
            yt = np.where(below, xt - d, xt + d)
            ok = u[2] < _q(k, np.where(below, yt, L[todo] - yt))
            y[todo[ok]] = yt[ok]
            todo = todo[~ok]
            u = rng.random((3, todo.size))
        return y


def simulate(params: ModelParams, roots: Roots, strategy: Strategy,
             config: SimConfig) -> SimResult:
    """Estimate the EPV of dividends net of costs until ruin from config.x0."""
    return simulate_at(params, roots, strategy, config, [config.x0])[0]


def simulate_at(params: ModelParams, roots: Roots, strategy: Strategy, config: SimConfig,
                x0s) -> list[SimResult]:
    """Simulate several starting points under common random numbers.

    A strategy whose immediate payments net nothing (strategies.nets_positive)
    is refused with ConfigError before any path is drawn: its paths would
    make of the order of 1/(b - a_c) payments for no gain.
    """
    x0s = [float(v) for v in x0s]
    if not x0s:
        raise ConfigError("simulate_at needs at least one starting point")
    for v in x0s:
        if not math.isfinite(v) or v < 0.0:
            raise ConfigError(f"x0 must be finite and >= 0, got {v}")
    if not nets_positive(strategy, params.chi, params.beta):
        raise ConfigError(f"{strategy} pays immediately at a gap b - a_c <= chi/beta")
    S = 2 if config.antithetic else 1
    nb, n_cols = len(x0s), config.n_paths // S
    eps = math.exp(-params.delta * config.resolved_horizon(params.delta))
    laws = _Law(params, params.gamma), _Law(params, params.gamma + params.delta)
    rng, counts = np.random.default_rng(config.seed), np.zeros((5, nb), dtype=np.int64)
    epv = np.empty((S, nb, n_cols))
    width = max(1, _PART // (S * nb))
    for c0 in range(0, n_cols, width):
        C = min(width, n_cols - c0)
        x = np.repeat(np.tile(x0s, S), C)  # (half, start, column), flattened
        epv[:, :, c0:c0 + C] = _run(params, _Rules(strategy), laws, eps, rng, counts,
                                    x, nb, C).reshape(S, nb, C)
    samples = epv.mean(axis=0)  # pair averages when antithetic
    se = samples.std(axis=1, ddof=1) / math.sqrt(n_cols) if n_cols > 1 else np.zeros(nb)
    fin, per, imm, dec, ev = counts.tolist()
    return [SimResult(v, float(samples[b].mean()), float(se[b]), fin[b] / config.n_paths,
                      per[b], imm[b], config.n_paths, ev[b], dec[b]) for b, v in enumerate(x0s)]


def _run(p: ModelParams, rules: _Rules, laws, eps: float, rng, counts, x, nb: int, C: int):
    """EPV samples of the paths x, indexed (half, start, column). Adds to
    counts[:, b] start b's finished (ruined or liquidated) paths, periodic
    and immediate payments, decision steps and steps."""
    law, law_d = laws
    epv, idx, w = np.zeros(x.size), np.arange(x.size), np.ones(x.size)

    def count(row, i):
        counts[row] += np.bincount(idx[i] // C % nb, minlength=nb)

    def pay(i, x, immediate):
        """Pay a rule at surplus x on live paths i; the new surplus."""
        amount, new = (rules.immediate if immediate else rules.periodic)(x)
        count(2 if immediate else 1, i[amount > 0.0])  # zero payments are no-ops
        epv[idx[i]] += w[i] * (p.beta * amount - p.chi if immediate else amount)
        return new

    # time zero: the immediate rule (x0 = 0 is ruin at once)
    i = np.flatnonzero(rules.triggered(x) & (x > 0.0))
    x[i] = pay(i, x[i], True)
    count(0, ~(x > 0.0))
    idx, x, w = idx[x > 0.0], x[x > 0.0], w[x > 0.0]
    with np.errstate(divide="ignore", invalid="ignore"):
        while idx.size:
            # uniforms per column with live paths; complements in the later half
            has = np.zeros(C, dtype=bool)
            has[idx % C] = True
            u = rng.random((4, np.count_nonzero(has)))[:, np.cumsum(has)[idx % C] - 1]
            h = np.searchsorted(idx, nb * C)
            u[:, h:] = 1.0 - u[:, h:]
            lo, hi = rules.interval(x)
            z, L = x - lo, hi - lo
            (up, down), (up_d, down_d) = law.exits(z, L), law_d.exits(z, L)
            go_up = u[0] > 1.0 - up
            out = go_up | (u[0] < down)
            y = np.where(go_up, L, 0.0)
            f = np.where(go_up, up_d / up, down_d / down)
            ic = np.flatnonzero(~out)
            zc, Lc = z[ic], L[ic]  # clock steps
            y[ic] = yc = law.sample(zc, Lc, u[1:, ic], rng)
            f[ic] = law_d.green(zc, yc, Lc) / law.green(zc, yc, Lc)
            w *= f
            # the rules: the lower end 0 is ruin, any other end a trigger
            pos, new = lo + y, np.full(idx.size, np.nan)
            new[ic] = pay(ic, pos[ic], False)
            ie = np.flatnonzero(out & (pos > 0.0))
            new[ie] = pay(ie, pos[ie], True)
            for row, hit in ((0, ~(new > 0.0)), (3, ic), (4, slice(None))):
                count(row, hit)
            keep = (new > 0.0) & (w >= eps)
            idx, x, w = idx[keep], new[keep], w[keep]
    return epv

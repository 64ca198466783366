"""The three benchmark workloads: inputs from a seed, the timed op, the check.

Every workload is a closed loop driven by one caller: the next op starts
when the previous one returns. A seed fixes one pass of inputs, grouped in
rounds of fixed composition. The timed phase repeats the pass and always
ends on a round boundary, so the mix of cheap and expensive ops is the
same in every run and on every commit. The program is deterministic, so
a repeated op gives the same answer, and the ops that fail are a property
of the seed, not of how far a run got.

Each op calls the program through module attributes looked up at call
time (``cli.main``, ``verify.check_hjb``, ``simulate.simulate_at``, ...),
which is what lets the traced run wrap them from the outside.

A workload provides:

* ``build(seed, out_dir)``: draw the inputs (set-up, untimed); returns the
  pass as a list of rounds, each a list of items; ``item.ops`` is the
  number of ops an item counts.
* ``run(item)``: the timed op; returns its output.
* ``check(item, output)``: the correctness rule, applied after the timed
  phase; returns (ops failed, ops among them with a wrong answer). An op
  that reports a typed error fails without a wrong answer.
"""

from __future__ import annotations

import importlib
import math
import os
from dataclasses import dataclass, replace

import numpy as np

import divopt.cli as cli
import divopt.core as core
import divopt.solver as solver
import divopt.verify as verify
from divopt.core import ModelParams
from divopt.errors import DivoptError
from divopt.strategies import Hybrid, Liquidation, PeriodicBarrier, PeriodicZero
from divopt.values import ValueFunction

# the package re-exports the function simulate under the module's name
simulate = importlib.import_module("divopt.simulate")

PARAM_KEYS = ("mu", "sigma", "chi", "beta", "gamma", "delta")

# acceptance reference points (tests/test_acceptance.py)
POS = ModelParams(mu=1.0, sigma=0.3, chi=0.01, beta=0.9, gamma=1.0, delta=0.15)
NEG = ModelParams(mu=-1.0, sigma=0.3, chi=0.15, beta=0.7, gamma=1.0, delta=0.15)

# criterion 1's parameter box; every point in it is a valid ModelParams
CRIT1_BOX = {
    "mu": (-2.0, 2.0),
    "sigma": (0.1, 2.0),
    "chi": (0.0, 0.4),
    "beta": (0.05, 1.0),
    "gamma": (0.2, 3.0),
    "delta": (0.02, 0.8),
}


def crit1_params(rng) -> ModelParams:
    """Acceptance criterion 1's distribution, covering all five regimes."""
    return ModelParams(**{k: rng.uniform(*CRIT1_BOX[k]) for k in PARAM_KEYS})


def crit2_hybrid_params(rng) -> ModelParams:
    """Acceptance criterion 2's hybrid distribution.

    The acceptance copy fails when gamma/(gamma+delta) + 0.015 >= 1, since
    the beta range is then empty; this copy redraws (gamma, delta) instead.
    """
    while True:
        gamma = rng.uniform(0.3, 2.5)
        delta = rng.uniform(0.03, 0.4)
        pv = gamma / (gamma + delta)
        if pv + 0.015 < 1.0:
            break
    return ModelParams(
        mu=rng.uniform(0.02, 2.5),
        sigma=rng.uniform(0.1, 1.5),
        chi=rng.uniform(1e-4, 0.15),
        beta=rng.uniform(pv + 0.015, 1.0),
        gamma=gamma,
        delta=delta,
    )


def workload_rng(seed: int, tag: int):
    return np.random.default_rng([seed, tag])


# ---------------------------------------------------------------------------
# sweep: the CLI sweep command, one op per sweep point

# Points along one sweep cost about the same, so a run's cost varies with
# the number of distinct sweeps it holds; short sweeps make that large.
SWEEP_COUNT = 5
SWEEP_PER_ROUND = 60
# hybrid points per round: criterion 1 draws are hybrid 42 times in 300
# (14%), and hybrid solves take about 95% of the solve time, so the share
# is fixed per round to keep ops/s independent of the seed's luck
SWEEP_HYBRID_POINTS = 45
# rounds in a pass: about 19 s of the 35 s timed phase at the parent commit
SWEEP_ROUNDS = 12
SWEEP_FIT_TOL = 1e-8  # criterion 2's smooth-fit tolerance


@dataclass(frozen=True)
class SweepItem:
    base: ModelParams
    axis: str
    lo: float
    hi: float
    out_path: str
    ops: int = SWEEP_COUNT
    deadline_s: float = 1.0 * SWEEP_COUNT

    def points(self) -> list[ModelParams]:
        # the same linspace cmd_sweep evaluates, so no value is rounded
        values = np.linspace(self.lo, self.hi, self.ops)
        return [replace(self.base, **{self.axis: float(v)}) for v in values]

    def argv(self) -> list[str]:
        # --flag=value, since argparse reads a value such as -1e-05 as a flag
        values = {key: getattr(self.base, key) for key in PARAM_KEYS}
        values.update({"from": self.lo, "to": self.hi})
        argv = ["sweep", "--sweep", self.axis, "--count", str(self.ops), "--out", self.out_path]
        return argv + [f"--{key}={value!r}" for key, value in values.items()]


def _draw_sweeps(rng, n: int):
    """n candidate sweeps, with the number of hybrid points of each.

    The regime map (README): a point is hybrid exactly when mu >= 0 and
    beta > gamma/(gamma+delta). It is evaluated here from the parameters
    alone, on the same linspace the sweep command uses, so drawing costs
    no solver time.
    """
    lo_box, hi_box = (np.array([CRIT1_BOX[k][i] for k in PARAM_KEYS]) for i in (0, 1))
    base = lo_box + (hi_box - lo_box) * rng.random((n, len(PARAM_KEYS)))
    axis = rng.integers(len(PARAM_KEYS), size=n)
    ends = np.sort(lo_box[axis, None] + (hi_box - lo_box)[axis, None] * rng.random((n, 2)), axis=1)
    grid = np.repeat(base[:, :, None], SWEEP_COUNT, axis=2)
    grid[np.arange(n), axis, :] = np.linspace(ends[:, 0], ends[:, 1], SWEEP_COUNT, axis=1)
    mu, beta, gamma, delta = (grid[:, PARAM_KEYS.index(k)] for k in ("mu", "beta", "gamma", "delta"))
    hybrid = np.count_nonzero((mu >= 0.0) & (beta > gamma / (gamma + delta)), axis=1)
    return base, axis, ends, hybrid


def build_sweep(seed: int, out_dir: str):
    """Rounds of sweeps from criterion 1 base points.

    Each sweep varies one seeded axis over a seeded range whose ends are
    drawn from criterion 1's box for that axis; the box lies inside the
    valid ModelParams domain, so no point needs clipping. Sweeps are taken
    in drawn order and kept when they fit the round's remaining hybrid and
    non-hybrid point budgets.
    """
    rng = workload_rng(seed, 1)
    out_path = os.path.join(out_dir, f"sweep-{os.getpid()}.csv")
    n_total = SWEEP_PER_ROUND * SWEEP_COUNT
    rounds = []
    for _ in range(SWEEP_ROUNDS):
        items = []
        need_h, need_n = SWEEP_HYBRID_POINTS, n_total - SWEEP_HYBRID_POINTS
        while need_h or need_n:
            for b, a, (lo, hi), h in zip(*_draw_sweeps(rng, 1024)):
                if h <= need_h and SWEEP_COUNT - h <= need_n:
                    base = ModelParams(*(float(v) for v in b))
                    items.append(SweepItem(base, PARAM_KEYS[a], float(lo), float(hi), out_path))
                    need_h -= h
                    need_n -= SWEEP_COUNT - h
                    if not (need_h or need_n):
                        break
        rounds.append(items)
    return rounds


def run_sweep(item: SweepItem):
    if os.path.exists(item.out_path):
        os.remove(item.out_path)  # a failed call must not leave the last CSV
    code = cli.main(item.argv())
    if code != 0:
        return code, ""
    with open(item.out_path, encoding="utf-8") as fh:
        return code, fh.read()


def _fit_errors(params: ModelParams, cells: dict) -> list[float]:
    """Smooth-fit residuals of the barriers in one CSV row (criterion 2)."""
    roots = core.solve_roots(params)
    beta = params.beta
    if cells["b"] is not None:
        st = Hybrid(cells["a_p"], cells["a_c"], cells["b"])
        if math.isinf(st.b):
            return []  # asymptotic report: no finite upper barrier to fit
        vf = ValueFunction(params, roots, st)
        v0 = float(vf.d1(0.0))
        errs = [abs(float(vf.d1(st.b, side="left")) - beta)]
        errs.append(abs(float(vf.d1(st.a_c)) - beta) if st.a_c > st.a_p else max(0.0, v0 - beta))
        errs.append(abs(float(vf.d1(st.a_p)) - 1.0) if st.a_p > 0.0 else max(0.0, v0 - 1.0))
        return errs
    if cells["b1"] is not None:
        st = Liquidation(cells["b1"], cells["b2"])
        vf = ValueFunction(params, roots, st)
        errs = [abs(float(vf.d1(st.b1, side="left")) - beta)]
        if math.isfinite(st.b2):
            errs.append(abs(float(vf.d1(st.b2, side="right")) - beta))
        return errs
    if cells["b0"] is not None and cells["b0"] > 0.0:
        vf = ValueFunction(params, roots, PeriodicBarrier(cells["b0"]))
        return [abs(float(vf.d1(cells["b0"])) - 1.0)]
    return []


SWEEP_COLUMNS = ("param", "regime", "a_p", "a_c", "b", "b1", "b2", "b0", "asymptotic", "error")


def sweep_row_ok(params: ModelParams, row: str) -> bool:
    """An answer row passes when its regime is the classified one and its
    finite barriers meet their smooth-fit conditions to 1e-8."""
    fields = row.split(",")
    if len(fields) != len(SWEEP_COLUMNS):
        return False
    cells = dict(zip(SWEEP_COLUMNS, fields))
    roots = core.solve_roots(params)
    if cells["regime"] != solver.classify_regime(params, roots).value:
        return False
    try:
        barriers = {k: float(cells[k]) if cells[k] else None for k in SWEEP_COLUMNS[2:8]}
        errs = _fit_errors(params, barriers)
    except (ValueError, DivoptError):
        return False
    return all(e <= SWEEP_FIT_TOL for e in errs)


def check_sweep(item: SweepItem, output) -> tuple[int, int]:
    code, text = output
    if code != 0:
        return item.ops, 0  # the command reported an error
    rows = text.splitlines()[1:]
    if len(rows) != item.ops:
        return item.ops, item.ops
    errors = [row.rsplit(",", 1)[-1] != "" for row in rows]  # error column filled
    wrong = sum(
        not err and not sweep_row_ok(p, row)
        for p, row, err in zip(item.points(), rows, errors)
    )
    return sum(errors) + wrong, wrong


# ---------------------------------------------------------------------------
# certify: the three oracles on pre-solved strategies, one op per strategy

CERTIFY_POOL = 48  # half criterion 1 draws, half criterion 2 hybrid draws
# hybrids among the criterion 1 half: a finite hybrid costs the lattice and
# the audit on top of the HJB check, so their number is fixed, at
# criterion 1's share (about 1 in 8), to keep ops/s independent of the seed
CERTIFY_C1_HYBRIDS = 3
LATTICE_N = 40  # criterion 3's 40^3 lattice
ORACLE_TOL = 1e-6  # criteria 3 and 4


@dataclass(frozen=True)
class CertifyItem:
    params: ModelParams
    strategy: object  # None when the pre-solve reported an error
    ops: int = 1
    deadline_s: float = 5.0


@dataclass
class Certificate:
    """What the three oracles said about one strategy."""

    hjb_passed: bool
    hjb_worst: float  # largest of the two HJB residuals
    audit_passed: bool = True
    lattice_best: float = -math.inf  # best lattice objective


def certify_item(params: ModelParams) -> CertifyItem:
    try:
        return CertifyItem(params, solver.solve(params).strategy)
    except (DivoptError, ValueError):
        return CertifyItem(params, None)


def is_hybrid(p: ModelParams) -> bool:
    """The regime map (README), from the parameters alone."""
    return p.mu >= 0.0 and p.beta > p.gamma / (p.gamma + p.delta)


def build_certify(seed: int, out_dir: str):
    """One round: the whole pool. Criterion 1 draws are taken in drawn
    order when they fit the remaining hybrid and non-hybrid budgets."""
    rng = workload_rng(seed, 2)
    need = {True: CERTIFY_C1_HYBRIDS, False: CERTIFY_POOL // 2 - CERTIFY_C1_HYBRIDS}
    c1 = []
    while need[True] or need[False]:
        p = crit1_params(rng)
        if need[is_hybrid(p)]:
            need[is_hybrid(p)] -= 1
            c1.append(p)
    pool = [certify_item(p) for p in c1]
    pool += [certify_item(crit2_hybrid_params(rng)) for _ in range(CERTIFY_POOL - len(c1))]
    return [pool]


def _finite_hybrid(strategy) -> bool:
    return isinstance(strategy, Hybrid) and math.isfinite(strategy.b)


def lattice_bounds(roots, st: Hybrid) -> tuple[float, float]:
    """Criterion 3's lattice bounds around the solved gaps."""
    l_star, y_star = st.a_c - st.a_p, st.b - st.a_c
    return 4.0 * l_star + 2.0 / abs(roots.s1), 4.0 * y_star + 2.0 / roots.r1


def run_certify(item: CertifyItem):
    if item.strategy is None:
        return None
    p, st = item.params, item.strategy
    roots = core.solve_roots(p)
    hjb = verify.check_hjb(p, roots, st)
    cert = Certificate(
        hjb.passed, max(hjb.max_generator_violation, hjb.max_payment_residual)
    )
    if _finite_hybrid(st):
        cert.audit_passed = verify.audit_derivative_pattern(p, roots, st).passed
        cert.lattice_best = verify.brute_force_hybrid(
            p, roots, lattice_bounds(roots, st), n_per_axis=LATTICE_N
        ).objective
    return cert


def check_certify(item: CertifyItem, cert) -> tuple[int, int]:
    """Criteria 4 (HJB), 6 (slope bands) and 3 (lattice dominance)."""
    if cert is None:
        return 1, 0  # the pre-solve reported an error
    ok = cert.hjb_passed and cert.hjb_worst <= ORACLE_TOL
    if _finite_hybrid(item.strategy):
        st = item.strategy
        roots = core.solve_roots(item.params)
        obj = float(
            verify.hybrid_objective(item.params, roots, st.a_p, st.a_c - st.a_p, st.b - st.a_c)
        )
        ok = ok and cert.audit_passed and obj >= cert.lattice_best - ORACLE_TOL
    return (0, 0) if ok else (1, 1)


# ---------------------------------------------------------------------------
# mc: acceptance criterion 5 in miniature, one op per path per start

MC_DT = 1e-3
# (name, params, crit-5 seed, truncation tol, paths); the long-lived hybrid
# family is bound by per-step overhead and the two ruin-heavy families by
# array work, and these path counts give each side about half the time
MC_FAMILIES = (
    ("periodic_zero", NEG, 404, 1e-6, 32_000),
    ("hybrid", POS, 405, 1e-5, 200),
    ("liquidation", NEG, 406, 1e-6, 32_000),
)


@dataclass(frozen=True)
class McItem:
    family: str
    params: ModelParams
    roots: object
    strategy: object
    x0s: tuple
    trunc: float
    n_paths: int
    seed: int
    deadline_s: float = 60.0

    @property
    def ops(self) -> int:
        return self.n_paths * len(self.x0s)


def build_mc(seed: int, out_dir: str):
    """One round: the three criterion-5 families with criterion 5's four
    starts each, on seeds offset from the benchmark seed."""
    pos_roots, neg_roots = core.solve_roots(POS), core.solve_roots(NEG)
    hyb = solver.solve(POS).strategy
    liq = solver.solve(NEG).strategy
    setups = {
        "periodic_zero": (neg_roots, PeriodicZero(), (0.25, 0.5, 1.0, 2.0)),
        "hybrid": (pos_roots, hyb, (0.5, hyb.a_p, hyb.a_c, hyb.b + 1.0)),
        "liquidation": (
            neg_roots,
            liq,
            (0.15, 0.8 * liq.b1, 0.5 * (liq.b1 + liq.b2), liq.b2 + 0.5),
        ),
    }
    items = []
    for name, params, crit_seed, trunc, n_paths in MC_FAMILIES:
        roots, strategy, x0s = setups[name]
        run_seed = crit_seed + 1000 * seed
        items.append(McItem(name, params, roots, strategy, x0s, trunc, n_paths, run_seed))
    return [items]


def run_mc(item: McItem):
    """Criterion 5's procedure: the dt-halving allowance pair, then the
    four starts under common random numbers."""
    trunc_pair = max(item.trunc, 2e-3)
    pair_paths = item.n_paths // 2
    base = simulate.simulate(
        item.params, item.roots, item.strategy,
        simulate.SimConfig(x0=item.x0s[0], dt=MC_DT, n_paths=pair_paths,
                           seed=item.seed + 50, truncation_tol=trunc_pair),
    )
    half = simulate.simulate(
        item.params, item.roots, item.strategy,
        simulate.SimConfig(x0=item.x0s[0], dt=MC_DT / 2, n_paths=pair_paths,
                           seed=item.seed + 51, truncation_tol=trunc_pair),
    )
    gap = abs(base.epv_mean - half.epv_mean)
    allowance = 2.0 * max(gap, math.hypot(base.epv_stderr, half.epv_stderr))
    cfg = simulate.SimConfig(dt=MC_DT, n_paths=item.n_paths, seed=item.seed,
                             antithetic=True, truncation_tol=item.trunc)
    results = simulate.simulate_at(item.params, item.roots, item.strategy, cfg, item.x0s)
    return allowance, results


def mc_errors(item: McItem, output) -> list[tuple[float, float]]:
    """(|sim - exact|, 3 stderr + allowance) per start."""
    allowance, results = output
    vf = ValueFunction(item.params, item.roots, item.strategy)
    return [
        (abs(res.epv_mean - float(vf(res.x0))), 3.0 * res.epv_stderr + allowance)
        for res in results
    ]


def check_mc(item: McItem, output) -> tuple[int, int]:
    wrong = sum(item.n_paths for err, tol in mc_errors(item, output) if not err <= tol)
    return wrong, wrong


@dataclass(frozen=True)
class Workload:
    build: object
    run: object
    check: object


WORKLOADS = {
    "sweep": Workload(build_sweep, run_sweep, check_sweep),
    "certify": Workload(build_certify, run_certify, check_certify),
    "mc": Workload(build_mc, run_mc, check_mc),
}

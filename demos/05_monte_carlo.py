"""Monte Carlo cross-check of the closed-form value functions.

Simulates the controlled surplus event by event (each step races the
exit from the strategy's interval against the decision clock and draws
the outcome from its exact law; no time grid, so ruin and the trigger are
never missed between steps) and compares the discounted-dividend estimate
against the analytic value.
Path counts here are kept small; the acceptance suite runs the full-size
comparison.
"""

import time

from divopt import (
    ModelParams,
    PeriodicZero,
    SimConfig,
    ValueFunction,
    simulate_at,
    solve,
    solve_roots,
)

t0 = time.time()

neg = ModelParams(mu=-1.0, sigma=0.3, chi=0.15, beta=0.7, gamma=1.0, delta=0.15)
rn = solve_roots(neg)
pz = PeriodicZero()
vf = ValueFunction(neg, rn, pz)
cfg = SimConfig(dt=1e-3, n_paths=40_000, seed=11, antithetic=True)
print("periodic-zero under negative drift (liquidate at the first decision time)")
print("   x0     simulated     stderr     analytic      z")
for res in simulate_at(neg, rn, pz, cfg, [0.25, 0.5, 1.0, 2.0]):
    exact = float(vf(res.x0))
    z = (res.epv_mean - exact) / res.epv_stderr
    print(f"{res.x0:5.2f} {res.epv_mean:12.6f} {res.epv_stderr:10.6f} {exact:12.6f} {z:+6.2f}")

pos = ModelParams(mu=1.0, sigma=0.3, chi=0.01, beta=0.9, gamma=1.0, delta=0.15)
rp = solve_roots(pos)
hy = solve(pos).strategy
vfh = ValueFunction(pos, rp, hy)
cfg = SimConfig(dt=2e-3, n_paths=20_000, seed=11, antithetic=True, truncation_tol=1e-4)
print(f"\nsolved hybrid {tuple(round(v, 4) for v in (hy.a_p, hy.a_c, hy.b))}, mu > 0")
print("   x0     simulated     stderr     analytic      z")
results = simulate_at(pos, rp, hy, cfg, [0.5, hy.a_c, hy.b + 1.0])
for res in results:
    exact = float(vfh(res.x0))
    z = (res.epv_mean - exact) / res.epv_stderr
    print(f"{res.x0:5.2f} {res.epv_mean:12.6f} {res.epv_stderr:10.6f} {exact:12.6f} {z:+6.2f}")
r = results[0]
print(f"\npayment counts at x0=0.5: periodic {r.n_periodic_dividends}, "
      f"immediate {r.n_immediate_dividends}; ruin fraction {r.ruin_fraction:.4f}")
print(f"total demo time {time.time() - t0:.1f}s")

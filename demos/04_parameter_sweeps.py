"""Sensitivity of the optimal barriers to costs, illustrated as sweep tables.

Reproduces the qualitative patterns: a rising fixed cost is absorbed
almost entirely by the upper barrier; lowering the retained proportion
toward gamma/(gamma+delta) splits the two lower barriers apart until the
strategy degenerates into a pure periodic barrier; under negative drift
the liquidation window collapses to a point at the lower regime boundary.
"""

import numpy as np

from divopt import Liquidation, ModelParams, PeriodicBarrier, solve

print("fixed-cost sweep (mu=1, sigma=0.3, beta=0.9, gamma=1, delta=0.15)")
print("   chi      a_p      a_c        b")
for chi in np.geomspace(0.001, 0.1, 8):
    st = solve(ModelParams(1.0, 0.3, float(chi), 0.9, 1.0, 0.15)).strategy
    print(f"{chi:7.4f} {st.a_p:8.4f} {st.a_c:8.4f} {st.b:8.4f}")

print("\nretained-proportion sweep across gamma/(gamma+delta) = 0.8696")
print("  beta    regime              barriers")
for beta in (0.82, 0.86, 0.875, 0.90, 0.95, 0.99):
    rep = solve(ModelParams(1.0, 0.3, 0.01, beta, 1.0, 0.15))
    st = rep.strategy
    if isinstance(st, PeriodicBarrier):
        desc = f"b0 = {st.a_p:.4f}"
    else:
        desc = f"a_p = {st.a_p:.4f}, a_c = {st.a_c:.4f}, b = {st.b:.4f}"
    print(f"{beta:6.3f}  {rep.regime.value:22s} {desc}")

print("\nnegative drift: liquidation window vs beta (chi = 0.15)")
print("  beta    regime                          window")
for beta in (0.48, 0.52, 0.58, 0.66, 0.74, 0.82):
    rep = solve(ModelParams(-1.0, 0.3, 0.15, beta, 1.0, 0.15))
    st = rep.strategy
    if isinstance(st, Liquidation):
        print(f"{beta:6.2f}  {rep.regime.value:30s} ({st.b1:.4f}, {st.b2:.4f})"
              f"  width {st.b2 - st.b1:.4f}")
    else:
        print(f"{beta:6.2f}  {rep.regime.value:30s} liquidate at first decision time")

"""Model parameters, quadratic roots and the scale function f.

The whole toolkit reduces to two root pairs of
sigma^2/2 theta^2 + mu theta = q (at q = delta and q = gamma + delta) and
exponential combinations of them, such as f(x) = e^{r0 x} - e^{s0 x}. This
script walks through those objects and the monetary-rescaling identity.
"""

import numpy as np

from divopt import ModelParams, f, laplace_exponent, solve, solve_roots

params = ModelParams(mu=1.0, sigma=0.3, chi=0.01, beta=0.9, gamma=1.0, delta=0.15)
roots = solve_roots(params)

print("parameters:", params)
print(f"pvfactor gamma/(gamma+delta) = {params.pvfactor:.6f}")
print(f"alpha = beta - pvfactor      = {params.alpha:.6f}")
print()
print(f"roots of psi = delta:        r0 = {roots.r0:.6f},  s0 = {roots.s0:.6f}")
print(f"roots of psi = gamma+delta:  r1 = {roots.r1:.6f},  s1 = {roots.s1:.6f}")
for root, level in ((roots.r0, params.delta), (roots.s1, params.gamma + params.delta)):
    print(f"  check: psi({root:+.4f}) - level = {laplace_exponent(params, root) - level:.2e}")

print(f"\na_bar (zero of f'') = {roots.a_bar:.6f}; f''(a_bar) = {f(roots, roots.a_bar, 2):.2e}")

xs = np.array([0.0, 0.25, 0.5, 1.0])
print("\n  x      f(x)      f'(x)     f''(x)")
for x, *fk in zip(xs, *(f(roots, xs, k) for k in (0, 1, 2))):
    print(f"{x:5.2f} " + " ".join(f"{v:10.5f}" for v in fk))

# changing the monetary unit by k scales every optimal barrier by k
k = 5.0
st = solve(params).strategy
st_k = solve(params.rescaled(k)).strategy
print(f"\nrescaling by k = {k}:")
print(f"  barriers          : ({st.a_p:.6f}, {st.a_c:.6f}, {st.b:.6f})")
print(f"  k x barriers      : ({k * st.a_p:.6f}, {k * st.a_c:.6f}, {k * st.b:.6f})")
print(f"  rescaled solve    : ({st_k.a_p:.6f}, {st_k.a_c:.6f}, {st_k.b:.6f})")

"""Model parameters, quadratic roots and the scale function f.

Everything downstream (value functions, barrier equations, verification)
is assembled from the two root pairs of the quadratic

    psi(theta) = sigma^2/2 * theta^2 + mu * theta

evaluated at the levels delta and gamma + delta. f(x) = exp(r0 x) -
exp(s0 x) is proportional to the scale function of the surplus diffusion
at discount level delta; its counterpart g at gamma + delta, and the
integrated J, appear only inside values.hybrid_kernel, which evaluates
them in exponent-shifted form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np


@dataclass(frozen=True)
class ModelParams:
    """The six scalars defining one problem instance.

    mu     drift per unit time (any sign)
    sigma  volatility per sqrt(time), > 0
    chi    fixed cost per immediate dividend, >= 0
    beta   net proportion retained on immediate dividends, 0 < beta <= 1
    gamma  Poisson rate of periodic decision times, > 0
    delta  discount force, > 0
    """

    mu: float
    sigma: float
    chi: float
    beta: float
    gamma: float
    delta: float

    def __post_init__(self):
        for name in ("mu", "sigma", "chi", "beta", "gamma", "delta"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v)):
                raise ValueError(f"{name} must be a finite number, got {v!r}")
            object.__setattr__(self, name, float(v))
        if self.sigma <= 0.0:
            raise ValueError(f"sigma must be > 0, got {self.sigma}")
        if self.gamma <= 0.0:
            raise ValueError(f"gamma must be > 0, got {self.gamma}")
        if self.delta <= 0.0:
            raise ValueError(f"delta must be > 0, got {self.delta}")
        if not 0.0 < self.beta <= 1.0:
            raise ValueError(f"beta must be in (0, 1], got {self.beta}")
        if self.chi < 0.0:
            raise ValueError(f"chi must be >= 0, got {self.chi}")

    @property
    def pvfactor(self) -> float:
        """gamma / (gamma + delta): EPV of one unit paid at the next decision time."""
        return self.gamma / (self.gamma + self.delta)

    @property
    def alpha(self) -> float:
        """beta - gamma/(gamma+delta): net edge of immediate over periodic payment."""
        return self.beta - self.pvfactor

    def rescaled(self, k: float) -> "ModelParams":
        """Change of monetary unit: (mu, sigma, chi) -> (k mu, k sigma, k chi).

        Barriers of the rescaled problem are exactly k times the original
        ones; beta, gamma, delta are unit-free and unchanged.
        """
        if k <= 0.0:
            raise ValueError("scale factor must be positive")
        return replace(self, mu=k * self.mu, sigma=k * self.sigma, chi=k * self.chi)


def laplace_exponent(params: ModelParams, theta) -> float:
    """psi(theta) = sigma^2/2 theta^2 + mu theta."""
    return 0.5 * params.sigma**2 * theta**2 + params.mu * theta


def _root_pair(mu: float, half_s2: float, q: float) -> tuple[float, float]:
    # Stable quadratic formula: the small-magnitude root comes from the
    # product r*s = -q/half_s2 to avoid cancellation in -mu +/- sqrt(...).
    disc = math.sqrt(mu * mu + 4.0 * half_s2 * q)
    if mu >= 0.0:
        r = 2.0 * q / (disc + mu)
        s = -(mu + disc) / (2.0 * half_s2)
    else:
        r = (disc - mu) / (2.0 * half_s2)
        s = -2.0 * q / (disc - mu)
    return r, s


@dataclass(frozen=True)
class Roots:
    """Root pairs of psi(theta) = delta and psi(theta) = gamma + delta.

    r0 > 0 > s0 solve psi = delta; r1 > 0 > s1 solve psi = gamma + delta.
    a_bar is the unique positive zero of f'' when one exists (mu > 0),
    else 0; it bounds the support of the periodic lower barrier.
    """

    r0: float
    s0: float
    r1: float
    s1: float
    alpha: float
    pvfactor: float
    a_bar: float


def solve_roots(params: ModelParams) -> Roots:
    """Closed-form roots plus the derived constants alpha, pvfactor, a_bar."""
    half_s2 = 0.5 * params.sigma**2
    r0, s0 = _root_pair(params.mu, half_s2, params.delta)
    r1, s1 = _root_pair(params.mu, half_s2, params.gamma + params.delta)
    # f''(x) = r0^2 e^{r0 x} - s0^2 e^{s0 x} vanishes at ln(s0^2/r0^2)/(r0-s0),
    # which is positive iff |s0| > r0, i.e. iff mu > 0.
    a_bar = max(0.0, math.log(s0 * s0 / (r0 * r0)) / (r0 - s0))
    return Roots(
        r0=r0,
        s0=s0,
        r1=r1,
        s1=s1,
        alpha=params.alpha,
        pvfactor=params.pvfactor,
        a_bar=a_bar,
    )


def f(roots: Roots, x, k: int = 0):
    """k-th derivative (k = 0, 1, 2) of f(x) = exp(r0 x) - exp(s0 x).

    Plain floats go through math.exp, arrays through np.exp.
    """
    exp = np.exp if isinstance(x, np.ndarray) else math.exp
    return roots.r0**k * exp(roots.r0 * x) - roots.s0**k * exp(roots.s0 * x)

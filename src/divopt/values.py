"""Closed-form value functions V(x; strategy) and their derivatives.

Each strategy family has an explicit piecewise representation built from
f, g, J and a small set of coefficients:

* Hybrid (a, a_c, b), with l = a_c - a, d = b - a, y = b - a_c:

    V(x) = 0                                            x < 0
           C f(x)                                       0 <= x < a
           A g(x-a) + B e^{s1 (x-a)}
             + pv (x - a + mu/(g+d) + V(a))             a <= x < b
           beta (x - a_c) - chi + V(a_c)                x >= b

  C, B, A are the unique constants making V continuous at a and b and C^1
  at a. One kernel, hybrid_kernel, computes them in exponent-shifted form:
  e^{r1 d} is factored out of the numerator and denominator of C, and A is
  carried as A_hat = A e^{r1 d}, so every exponential it evaluates is at
  most 1. This is the usual treatment of scale functions, whose scaled form
  e^{-Phi(q) x} W^(q)(x) stays bounded (Kuznetsov, Kyprianou & Rivero 2012);
  g is such a scale function. On [a, b), with u = x - a,

    V(x) = A_hat e^{r1 (u - d)} + (B - A) e^{s1 u} + pv (u + mu/(g+d) + V(a))

  and both exponential terms are bounded.

* PeriodicBarrier(b) is Hybrid(b, b, inf): never paying immediately is the
  d -> inf limit of the kernel, where A -> 0 and C tends to a closed form
  independent of d.

* PeriodicZero: V(x) = -(g mu/(g+d)^2) e^{s1 x} + pv (x + mu/(g+d)).

* Liquidation(b1, b2):

    V(x) = A g(x) + V(x; periodic-zero)                 0 <= x < b1
           beta x - chi                                 b1 <= x < b2
           B e^{s1 (x - b2)} + pv (x + mu/(g+d))        x >= b2 (b2 finite)

  with A fixed by continuity at b1 and B by continuity at b2. The branch
  beyond b2 is absent when b2 is infinite.

Derivatives are always analytic; at kink points the first derivative is
one-sided and callers choose the side (left by default, matching how the
smooth-fit conditions are stated).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ModelParams, Roots, f, f_d1, f_d2
from .errors import DegenerateDenominatorError
from .strategies import Hybrid, Liquidation, PeriodicBarrier, PeriodicZero, Strategy


@dataclass(frozen=True)
class HybridCoefficients:
    """Constants C, B and A_hat = A e^{r1 (b - a)} of the hybrid form, plus V(a)."""

    C: float
    B: float
    A_hat: float
    v_a: float  # V(a) = C f(a), cached to avoid branch recursion


def _affine(x, k: int, slope: float, intercept: float):
    """k-th derivative of slope x + intercept."""
    if k == 0:
        return slope * x + intercept
    return slope if k == 1 else 0.0


def periodic_zero(params: ModelParams, roots: Roots, x, k: int = 0):
    """k-th derivative (k = 0, 1, 2) of V(x; PeriodicZero).

    Plain floats go through math.exp, since the solver's scans call this
    once per point; arrays go through np.exp.
    """
    gd = params.gamma + params.delta
    s1, pv = roots.s1, roots.pvfactor
    exp = np.exp if isinstance(x, np.ndarray) else math.exp
    return -params.gamma * params.mu / gd**2 * s1**k * exp(s1 * x) + _affine(
        x, k, pv, pv * params.mu / gd
    )


def hybrid_kernel(params: ModelParams, roots: Roots):
    """The hybrid closed form of one parameter set, as a function of (a, l, y).

    kernel(a, l, y), at lower barrier a and gaps l = a_c - a, y = b - a_c,
    returns (vp_a, vp_ac, vp_b, v_ac, C, B, A_hat, den): V' at a, a_c and
    b-, V(a_c), the coefficients with A_hat = A e^{r1 d} (d = l + y), and
    the shifted denominator. With E = e^{-r1 d}, g(d,l) = g(d) - g(l) and
    J(d,l) = J(d) - J(l):

        den   = (delta/(g+d)) f(a) J(d,l) E + f'(a) g(d,l) E
        C     = [ (r1-s1)(alpha y - chi) E + pv g(d,l) E
                  + (g mu/(g+d)^2) J(d,l) E ] / den
        B     = (delta/(g+d)) C f(a) - pv mu/(g+d)
        A_hat = [ (alpha y - chi) (f'(a) - s1 (delta/(g+d)) f(a))
                  + (pv/(g+d)) (mu f'(a) - delta f(a)) (e^{s1 d} - e^{s1 l}) ] / den

    A_hat is the cancellation-free form of (C f'(a) - B s1 - pv) e^{r1 d}
    / (r1 - s1). Every exponential evaluated is at most 1, so nothing
    overflows however large r1 d is, and y = inf gives the b = inf limit.

    Plain floats go through math.exp (a hybrid solve makes thousands of
    calls), arrays through np.exp with broadcasting. No admissibility
    checks: the solver probes freely inside its search box.
    """
    r0, s0, r1, s1 = roots.r0, roots.s0, roots.r1, roots.s1
    alpha, chi, mu, delta = roots.alpha, params.chi, params.mu, params.delta
    gd = params.gamma + delta
    pv = roots.pvfactor
    k = delta / gd
    c_gap, c_J, m1, c_curv = r1 - s1, params.gamma * mu / gd**2, mu / gd, pv / gd
    ndarray = np.ndarray

    def kernel(a, l, y):
        lin = alpha * y - chi
        if isinstance(a, ndarray) or isinstance(l, ndarray) or isinstance(y, ndarray):
            exp = np.exp
        else:
            exp = math.exp
            if y == math.inf:
                lin = 0.0  # it only meets factors E -> 0 and e^{r1 (u - d)} -> 0
        er0a, es0a = exp(r0 * a), exp(s0 * a)
        fa, fpa = er0a - es0a, r0 * er0a - s0 * es0a
        es1d, es1l = exp(s1 * (l + y)), exp(s1 * l)
        ey = exp(-r1 * y)  # e^{r1 l} E
        E = ey * exp(-r1 * l)
        gdl = 1.0 - es1d * E - ey + es1l * E
        Jdl = -s1 * gdl + c_gap * (es1d - es1l) * E
        den = k * fa * Jdl + fpa * gdl
        C = (c_gap * lin * E + pv * gdl + c_J * Jdl) / den
        B = k * C * fa - pv * m1
        A_hat = (
            lin * (fpa - s1 * k * fa) + c_curv * (mu * fpa - delta * fa) * (es1d - es1l)
        ) / den
        bt = B - A_hat * E  # B - A
        vp_ac = A_hat * r1 * ey + bt * s1 * es1l + pv
        vp_b = A_hat * r1 + bt * s1 * es1d + pv
        v_ac = A_hat * (ey - es1l * E) + B * es1l + pv * (l + m1 + C * fa)
        return C * fpa, vp_ac, vp_b, v_ac, C, B, A_hat, den

    return kernel


def hybrid_coefficients(
    params: ModelParams, roots: Roots, a: float, a_c: float, b: float
) -> HybridCoefficients:
    """Coefficients of V(.; Hybrid(a, a_c, b)), from hybrid_kernel.

    Requires b > a_c + chi/beta (immediate payments must net strictly
    positive) and 0 <= a <= a_c; b may be infinite.
    """
    if not 0.0 <= a <= a_c:
        raise ValueError(f"need 0 <= a <= a_c, got ({a}, {a_c})")
    if not b > a_c + params.chi / params.beta:
        raise ValueError(
            f"need b > a_c + chi/beta = {a_c + params.chi / params.beta}, got b={b}"
        )
    *_, C, B, A_hat, den = hybrid_kernel(params, roots)(a, a_c - a, b - a_c)
    fa, fpa = float(f(roots, a)), float(f_d1(roots, a))
    # den tends to f'(a) - s1 (delta/(g+d)) f(a) > 0 as d grows; a
    # denominator this many orders below that is cancellation noise
    scale = fpa - roots.s1 * params.delta / (params.gamma + params.delta) * fa
    if not abs(den) > 1e-12 * scale:
        raise DegenerateDenominatorError(
            f"C denominator degenerate at (a={a}, a_c={a_c}, b={b}): {den!r}"
        )
    return HybridCoefficients(C=C, B=B, A_hat=A_hat, v_a=C * fa)


def _liquidation_numerator(params: ModelParams, roots: Roots, b: float) -> float:
    """alpha b - chi - (g mu/(g+d)^2)(1 - e^{s1 b}), the numerator of A(b) g(b)."""
    gm2 = params.gamma * params.mu / (params.gamma + params.delta) ** 2
    return roots.alpha * b - params.chi - gm2 * (1.0 - math.exp(roots.s1 * b))


def liquidation_A(params: ModelParams, roots: Roots, b1: float) -> float:
    """A(b1) = [alpha b1 - chi - (g mu/(g+d)^2)(1 - e^{s1 b1})] / g(b1).

    The division is carried out in exponent-shifted form so large r1 b1
    underflows to the true near-zero value instead of overflowing.
    """
    if not b1 > 0.0:
        raise ValueError(f"b1 must be > 0, got {b1}")
    num = _liquidation_numerator(params, roots, b1)
    return num * math.exp(-roots.r1 * b1) / (1.0 - math.exp((roots.s1 - roots.r1) * b1))


class ValueFunction:
    """Piecewise evaluator for V, V' and V'' of one strategy.

    Pure and reentrant; accepts scalars or arrays. V' and V'' are analytic
    per branch; at a breakpoint the side selector picks the limit
    ('left' by default). At x = 0 the right limit is always returned, and
    x < 0 evaluates to 0 (the ruined state).
    """

    def __init__(self, params: ModelParams, roots: Roots, strategy: Strategy):
        self.params = params
        self.roots = roots
        self.strategy = strategy
        gd = params.gamma + params.delta
        pv = roots.pvfactor
        m1 = params.mu / gd
        r1, s1 = roots.r1, roots.s1
        beta, chi = params.beta, params.chi

        def pz(x, k):
            return periodic_zero(params, roots, x, k)

        # (upper_bound, fn) with fn(x, k) the k-th derivative on the piece;
        # the last upper bound is inf
        pieces = []

        if isinstance(strategy, PeriodicZero):
            pieces.append((math.inf, pz))
            self.kinks: tuple[float, ...] = ()

        elif isinstance(strategy, (Hybrid, PeriodicBarrier)):
            if isinstance(strategy, Hybrid):
                a, a_c, b = strategy.a_p, strategy.a_c, strategy.b
            else:
                a, a_c, b = strategy.b, strategy.b, math.inf
            co = hybrid_coefficients(params, roots, a, a_c, b)
            C, A_hat, d = co.C, co.A_hat, b - a
            bt = co.B - A_hat * math.exp(-r1 * d)  # B - A
            c0 = pv * (m1 + co.v_a - a)

            def mid(x, k):
                v = bt * s1**k * np.exp(s1 * (x - a)) + _affine(x, k, pv, c0)
                if d < math.inf:  # at b = inf the r1 term is 0 everywhere
                    v += A_hat * r1**k * np.exp(r1 * (x - b))
                return v

            if a > 0.0:
                pieces.append((a, lambda x, k: C * (f, f_d1, f_d2)[k](roots, x)))
            pieces.append((b, mid))
            if math.isfinite(b):
                v_ac = float(mid(np.float64(a_c), 0))
                pieces.append(
                    (math.inf, lambda x, k: _affine(x, k, beta, v_ac - beta * a_c - chi))
                )
                self.kinks = (b,)
            else:
                self.kinks = (a,) if a > 0.0 else ()

        elif isinstance(strategy, Liquidation):
            b1, b2 = strategy.b1, strategy.b2
            # A g(x) evaluated in ratio form A g(x) = num g(x)/g(b1): the
            # numerator is O(1) and the ratio stays bounded on [0, b1]
            # even when g(b1) itself would overflow
            num = _liquidation_numerator(params, roots, b1)
            ratio = num / (1.0 - math.exp((s1 - r1) * b1))  # num e^{r1 b1}/g(b1)

            def lower(x, k):
                return ratio * (
                    r1**k * np.exp(r1 * (x - b1)) - s1**k * np.exp(s1 * x - r1 * b1)
                ) + pz(x, k)

            pieces.append((b1, lower))
            pieces.append((b2, lambda x, k: _affine(x, k, beta, -chi)))
            if math.isinf(b2):
                self.kinks = (b1,)
            else:
                b2c = beta * b2 - chi - pv * (b2 + m1)
                pieces.append(
                    (
                        math.inf,
                        lambda x, k: b2c * s1**k * np.exp(s1 * (x - b2))
                        + _affine(x, k, pv, pv * m1),
                    )
                )
                self.kinks = (b1, b2)

        else:
            raise TypeError(f"unknown strategy type: {strategy!r}")

        self._pieces = pieces
        self.breakpoints = tuple(ub for ub, _ in pieces[:-1])

    def _eval(self, x, k: int, side: str):
        # side='right': piece i covers [lo_i, ub_i). side='left': (lo_i, ub_i],
        # except the first piece, which is closed at 0 so that x = 0 always
        # yields the right limit. x < 0 falls through to 0.
        if side not in ("left", "right"):
            raise ValueError(f"side must be 'left' or 'right', got {side!r}")
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        xv = np.atleast_1d(x)
        out = np.zeros_like(xv)
        lo = 0.0
        for i, (ub, fn) in enumerate(self._pieces):
            if side == "left":
                sel = (xv > lo) & (xv <= ub) if i > 0 else (xv >= 0.0) & (xv <= ub)
            else:
                sel = (xv >= lo) & (xv < ub)
            if sel.any():
                out[sel] = fn(xv[sel], k)
            lo = ub
        return float(out[0]) if scalar else out

    def __call__(self, x):
        return self._eval(x, 0, side="right")

    def d1(self, x, side: str = "left"):
        return self._eval(x, 1, side)

    def d2(self, x, side: str = "left"):
        return self._eval(x, 2, side)

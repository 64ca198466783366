"""Closed-form value functions V(x; strategy) and their derivatives.

Every strategy's value function is one piecewise form built from the
scale function f (core.f), its counterpart g(x) = e^{r1 x} - e^{s1 x} at
discount level gamma + delta, and a small set of coefficients:

* Strategy(a, a_c, b, b2), with l = a_c - a, d = b - a, y = b - a_c (the
  hybrid form; every strategy is evaluated through it):

    V(x) = 0                                            x < 0
           C f(x)                                       0 <= x < a
           A g(x-a) + B e^{s1 (x-a)}
             + pv (x - a + mu/(g+d) + V(a))             a <= x < b
           beta (x - a_c) - chi + V(a_c)                b <= x < b2
           B2 e^{s1 (x-b2)}
             + pv (x - a + mu/(g+d) + V(a))             x >= b2 (b2 finite)

  C, B, A are the unique constants making V continuous at a and b and C^1
  at a, and B2 makes it continuous at b2. One kernel, hybrid_kernel,
  computes C, B, A in exponent-shifted form (with g and
  J(x) = -s1 g(x) + (r1 - s1)(e^{s1 x} - 1) written out):
  e^{r1 d} is factored out of the numerator and denominator of C, and A is
  carried as A_hat = A e^{r1 d}, so every exponential it evaluates is at
  most 1. This is the usual treatment of scale functions, whose scaled form
  e^{-Phi(q) x} W^(q)(x) stays bounded (Kuznetsov, Kyprianou & Rivero 2012);
  g is such a scale function. On [a, b), with u = x - a and E = e^{-r1 d},

    V(x) = A_hat (e^{r1 (u - d)} - E e^{s1 u}) + B e^{s1 u}
             + pv (u + mu/(g+d) + V(a))

  All exponential terms are bounded, and at u = 0 the A_hat terms cancel
  exactly, so a = 0 gives V(0) = 0.

  The kernel has two stages. Stage 1 (_hybrid_factors) evaluates the
  factors of a alone and those of the gaps (l, y) alone, through xp's exp
  and expm1: math for floats, np for arrays, or complex_step for the
  complex points of the solver's exact Jacobian. Stage 2 builds
  what its caller reads: hybrid_kernel gives V' at a, a_c and b- and the
  coefficients (the solver, ValueFunction); hybrid_value_ac gives V(a_c)
  (the barrier lattice). V(a_c) is separable: a ratio of two dot products,
  (P, Q, f(a)) . N(l, y) over (f(a), f'(a)) . D(l, y), plus a term in l,
  so on a lattice both contract over the a axis as matrix products.

* PeriodicBarrier(b) = (b, b, inf, inf): never paying immediately is the
  d -> inf limit of the kernel, where A -> 0 and C tends to a closed form
  independent of d.

* PeriodicZero() = PeriodicBarrier(0) = (0, 0, inf, inf): the kernel at
  a = l = 0, y = inf gives V(x) = -(g mu/(g+d)^2) e^{s1 x} + pv (x + mu/(g+d)),
  with V(0) = 0 exactly. periodic_zero evaluates the same closed form
  directly for the solver's regime scans.

* Liquidation(b1, b2) = (0, 0, b1, b2), the hybrid form at a = a_c = 0
  below b2:

    V(x) = A g(x) + V(x; periodic-zero)                 0 <= x < b1
           beta x - chi                                 b1 <= x < b2
           B2 e^{s1 (x - b2)} + pv (x + mu/(g+d))       x >= b2 (b2 finite)

  The hybrid's B at a = a_c = 0 is -g mu/(g+d)^2, and its A_hat e^{-r1 b1}
  is A = [alpha b1 - chi - (g mu/(g+d)^2)(1 - e^{s1 b1})] / g(b1)
  (liquidation_A).

Derivatives are always analytic; at kink points the first derivative is
one-sided and callers choose the side (left by default, matching how the
smooth-fit conditions are stated).
"""

from __future__ import annotations

import cmath
import math
import sys
import types

import numpy as np

from .core import ModelParams, Roots, f
from .errors import DegenerateDenominatorError, OutOfRangeError
from .strategies import Strategy, nets_positive

# math.exp overflows beyond this argument
_LOG_DBL_MAX = math.log(sys.float_info.max)

# stage 1 at complex points x + ih: Im f(x + ih)/h is f'(x), with no
# subtraction (Squire & Trapp 1998). cmath has no expm1; at imaginary parts
# as small as h = 1e-200, cos is 1 and sin the identity in floats: exact
complex_step = types.SimpleNamespace(exp=cmath.exp, expm1=lambda z: complex(
    math.expm1(z.real), math.exp(z.real) * z.imag))


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


def _hybrid_factors(params: ModelParams, roots: Roots, xp):
    """Stage 1 of the hybrid closed form: factors(a, l, y) -> the factors of a
    alone, then those of the gaps alone,

        f(a), f'(a), P, Q,   alpha y - chi, E, e^{-r1 y}, e^{s1 d} - e^{s1 l},
                             e^{s1 l}, g(d,l) E, J(d,l) E, C's numerator,

    with d = l + y, E = e^{-r1 d}, k = delta/(g+d) and

        P = f'(a) - s1 k f(a),    Q = (pv/(g+d)) (mu f'(a) - delta f(a)).

    xp is math (floats), np (arrays, one shape for a and one for the gaps)
    or complex_step (complex scalars). Every exponential evaluated is at
    most 1. Both differences that vanish with y, e^{s1 d} - e^{s1 l} and
    1 - e^{-r1 y}, come from expm1, so a small gap y carries no cancellation.
    """
    r0, s0, r1, s1 = roots.r0, roots.s0, roots.r1, roots.s1
    alpha, chi, mu, delta = roots.alpha, params.chi, params.mu, params.delta
    gd = params.gamma + delta
    pv = roots.pvfactor
    k, c_curv = delta / gd, pv / gd
    c_gap, c_J = r1 - s1, params.gamma * mu / gd**2
    scalar, inf = xp is math, math.inf

    def factors(a, l, y):
        er0a, es0a = xp.exp(r0 * a), xp.exp(s0 * a)
        fa, fpa = er0a - es0a, r0 * er0a - s0 * es0a
        lin = alpha * y - chi
        if scalar and y == inf:
            lin = 0.0  # it only meets factors E -> 0 and e^{r1 (u - d)} -> 0
        es1l = xp.exp(s1 * l)
        ds1 = es1l * xp.expm1(s1 * y)  # e^{s1 d} - e^{s1 l}
        gy = -xp.expm1(-r1 * y)  # 1 - e^{-r1 y}
        ey = 1.0 - gy  # e^{r1 l} E
        E = ey * xp.exp(-r1 * l)
        gdl = gy - ds1 * E
        Jdl = -s1 * gdl + c_gap * ds1 * E
        P, Q = fpa - s1 * k * fa, c_curv * (mu * fpa - delta * fa)
        c_num = c_gap * lin * E + pv * gdl + c_J * Jdl
        return fa, fpa, P, Q, lin, E, ey, ds1, es1l, gdl, Jdl, c_num

    return factors


def hybrid_kernel(params: ModelParams, roots: Roots, xp=math):
    """The hybrid closed form of one parameter set, as a function of (a, l, y).

    kernel(a, l, y), at lower barrier a and gaps l = a_c - a, y = b - a_c,
    all scalars, returns (vp_a, vp_ac, vp_b, C, B, A_hat, den, f(a), P,
    vp_gap, B - A): V' at a, a_c and b-, the coefficients with A_hat =
    A e^{r1 d} (d = l + y), the shifted denominator, stage 1's f(a) and P
    (den's limit as d grows), vp_gap = vp_ac - vp_b, formed from the gap
    factors so that it keeps its relative precision as y -> 0, and B - A,
    which V's derivatives read. It is stage 2 over _hybrid_factors: with
    E = e^{-r1 d}, g(d,l) = g(d) - g(l) and J(d,l) = J(d) - J(l),

        den   = (delta/(g+d)) f(a) J(d,l) E + f'(a) g(d,l) E
        C     = [ (r1-s1)(alpha y - chi) E + pv g(d,l) E
                  + (g mu/(g+d)^2) J(d,l) E ] / den
        B     = (delta/(g+d)) C f(a) - pv mu/(g+d)
        A_hat = [ (alpha y - chi) P + Q (e^{s1 d} - e^{s1 l}) ] / den

    A_hat is the cancellation-free form of (C f'(a) - B s1 - pv) e^{r1 d}
    / (r1 - s1). Nothing overflows however large r1 d is, and y = inf gives
    the b = inf limit. V(a_c), the lattice's objective, is the other stage 2,
    hybrid_value_ac, which works on arrays.

    Stage 1 runs on xp: math for floats, a call at a time, or complex_step,
    whose outputs at x + ih give the derivatives in x exactly, as Im/h. No
    admissibility checks: the solver probes freely inside its search box.
    """
    r1, s1 = roots.r1, roots.s1
    gd = params.gamma + params.delta
    pv = roots.pvfactor
    k, pv_m1 = params.delta / gd, pv * (params.mu / gd)
    factors = _hybrid_factors(params, roots, xp)

    def kernel(a, l, y):
        fa, fpa, P, Q, lin, E, ey, ds1, es1l, gdl, Jdl, c_num = factors(a, l, y)
        den = k * fa * Jdl + fpa * gdl
        C = c_num / den
        B = k * C * fa - pv_m1
        A_hat = (lin * P + Q * ds1) / den
        bt = B - A_hat * E  # B - A
        vp_ac = A_hat * r1 * ey + bt * s1 * es1l + pv
        vp_b = A_hat * r1 + bt * s1 * (es1l + ds1) + pv
        vp_gap = -(A_hat * r1 * (gdl + ds1 * E) + bt * s1 * ds1)  # vp_ac - vp_b
        return C * fpa, vp_ac, vp_b, C, B, A_hat, den, fa, P, vp_gap, bt

    return kernel


def hybrid_value_ac(params: ModelParams, roots: Roots, a, l, y):
    """V(a_c) of Hybrid(a, a + l, a + l + y) in separable form, on arrays.

    Returns (F, N, G, D, h): F and G are tuples of arrays in a alone, N and
    D tuples of arrays in the gaps alone, h an array in l alone, and

        V(a_c) = (F . N) / (G . D) + h,
        F = (P, Q, f(a)),   N = ((alpha y - chi) w, (e^{s1 d} - e^{s1 l}) w,
                                 C's numerator (k e^{s1 l} + pv)),
        G = (f(a), f'(a)),  D = (k J(d,l) E, g(d,l) E),
        h = pv (l + (mu/(g+d)) (1 - e^{s1 l})),

    with w = e^{-r1 y} - e^{s1 l} E. This is hybrid_kernel's A_hat w +
    B e^{s1 l} + pv (l + mu/(g+d) + C f(a)) over its one denominator
    G . D = den, from the same stage-1 factors. On a lattice a x l x y
    both dot products contract over the a axis as the matrix products
    (n_a x 3)(3 x n_l n_y) and (n_a x 2)(2 x n_l n_y).
    """
    gd = params.gamma + params.delta
    pv = roots.pvfactor
    k = params.delta / gd
    factors = _hybrid_factors(params, roots, np)
    fa, fpa, P, Q, lin, E, ey, ds1, es1l, gdl, Jdl, c_num = factors(a, l, y)
    w = ey - es1l * E
    N = (lin * w, ds1 * w, c_num * (k * es1l + pv))
    h = pv * (l + params.mu / gd * (1.0 - es1l))
    return (P, Q, fa), N, (fa, fpa), (k * Jdl, gdl), h


def liquidation_A(params: ModelParams, roots: Roots, b1: float) -> float:
    """A(b1) = [alpha b1 - chi - (g mu/(g+d)^2)(1 - e^{s1 b1})] / g(b1).

    Read as A_hat e^{-r1 b1} from the kernel of Hybrid(0, 0, b1), so large
    r1 b1 underflows to the true near-zero value instead of overflowing.
    """
    if not b1 > 0.0:
        raise ValueError(f"b1 must be > 0, got {b1}")
    return hybrid_kernel(params, roots)(0.0, 0.0, b1)[5] * math.exp(-roots.r1 * b1)


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

        a, a_c, b, b2 = strategy.a_p, strategy.a_c, strategy.b, strategy.b2
        if not nets_positive(strategy, chi, beta):
            raise ValueError(f"need b > a_c + chi/beta = {a_c + chi / beta}, got b={b}")
        if roots.r0 * a > _LOG_DBL_MAX:
            raise OutOfRangeError(f"f(a) overflows at lower barrier a={a}: r0 a > log(DBL_MAX)")
        C, B, A_hat, den, fa, P, _, bt = hybrid_kernel(params, roots)(a, a_c - a, b - a_c)[3:]
        # P (below) bounds den and f'(a); it overflows before f(a) does
        # once r0 - s1 delta/(g+d) > 1
        if not math.isfinite(P):
            raise OutOfRangeError(f"f'(a) - s1 k f(a) overflows at lower barrier a={a}")
        # den tends to P = f'(a) - s1 (delta/(g+d)) f(a) > 0 as d grows; a
        # denominator this many orders below that is cancellation noise
        if not abs(den) > 1e-12 * P:
            raise DegenerateDenominatorError(
                f"C denominator degenerate at (a={a}, a_c={a_c}, b={b}): {den!r}"
            )
        # E through np.exp, as mid's e^{r1 (x - b)}: at x = a V's A_hat terms
        # cancel exactly, so V(0) = 0 when a = 0
        E = np.exp(r1 * (a - b))
        c0 = pv * (m1 + C * fa - a)  # V(a) = C f(a)

        def mid(x, k):
            es1u = s1**k * np.exp(s1 * (x - a))
            if b == math.inf:  # the A_hat terms are 0 everywhere
                return B * es1u + _affine(x, k, pv, c0)
            er1u = r1**k * np.exp(r1 * (x - b))
            if k:  # B - A as the kernel has it: where |s1| is large, an ulp of
                # E in A = A_hat E alone moves V'(a_c) by more than 1e-10
                return bt * es1u + _affine(x, k, pv, c0) + A_hat * er1u
            return B * es1u + _affine(x, k, pv, c0) + A_hat * (er1u - E * es1u)

        # (upper_bound, fn) with fn(x, k) the k-th derivative on the piece;
        # the last upper bound is inf
        pieces = []
        if a > 0.0:
            pieces.append((a, lambda x, k: C * f(roots, x, k)))
        pieces.append((b, mid))
        if math.isfinite(b):
            v_ac = float(mid(np.float64(a_c), 0))
            pieces.append((b2, lambda x, k: _affine(x, k, beta, v_ac - beta * a_c - chi)))
            self.kinks: tuple[float, ...] = (b,)
        else:
            self.kinks = (a,) if a > 0.0 else ()
        if b2 < math.inf:
            # B2: V(b2) is beta (b2 - a_c) - chi + V(a_c), the band's limit.
            # b2 grows as 1/(pv - beta), so (beta - pv) b2 is formed first:
            # beta b2 - pv b2 would cancel to about ulp(b2)
            b2c = (beta - pv) * b2 - beta * a_c - chi + v_ac - pv * (m1 + C * fa - a)
            pieces.append(
                (
                    math.inf,
                    lambda x, k: b2c * s1**k * np.exp(s1 * (x - b2)) + _affine(x, k, pv, c0),
                )
            )
            self.kinks = (b, b2)

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

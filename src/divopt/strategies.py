"""Dividend strategies: one family of levels (a_p, a_c, b, b2).

Strategy(a_p, a_c, b, b2) pays down to a_p at each decision time, and
down to a_c as soon as the surplus is in the trigger set [b, b2). A level
of 0 is ruin, so a payment down to 0 liquidates; b = inf never pays
immediately. The four optimal families are its points, and their
constructors only map their arguments onto the levels:

* Hybrid(a_p, a_c, b) is (a_p, a_c, b, inf).
* PeriodicBarrier(b) is (b, b, inf, inf): at each decision time pay the
  excess above b. Its barrier is a_p.
* Liquidation(b1, b2) is (0, 0, b1, b2): pay out everything on entry to
  [b1, b2), otherwise liquidate at the first decision time; b2 may be inf.
* PeriodicZero() is (0, 0, inf, inf): liquidate fully at the first
  decision time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Strategy:
    """Pay down to a_p at decision times and down to a_c in [b, b2)."""

    a_p: float
    a_c: float
    b: float
    b2: float = math.inf

    def __post_init__(self):
        if not 0.0 <= self.a_p <= self.a_c:
            raise ValueError(f"need 0 <= a_p <= a_c, got ({self.a_p}, {self.a_c})")
        if not self.b > self.a_c:
            raise ValueError(f"need b > a_c, got b={self.b}, a_c={self.a_c}")
        if not (self.b2 > self.b or self.b == self.b2 == math.inf):
            raise ValueError(f"need b2 > b, got b={self.b}, b2={self.b2}")
        # The cost-dependent part of admissibility is nets_positive, checked
        # where model parameters are available.


class Hybrid(Strategy):
    def __init__(self, a_p: float, a_c: float, b: float):
        super().__init__(a_p, a_c, b)


class PeriodicBarrier(Strategy):
    def __init__(self, b: float):
        super().__init__(b, b, math.inf)


class Liquidation(Strategy):
    def __init__(self, b1: float, b2: float):
        super().__init__(0.0, 0.0, b1, b2)

    @property
    def b1(self) -> float:
        return self.b


class PeriodicZero(Strategy):
    def __init__(self):
        super().__init__(0.0, 0.0, math.inf)


def nets_positive(strategy: Strategy, chi: float, beta: float) -> bool:
    """Whether the strategy's immediate payments net strictly more than 0.

    A payment down to a_c > 0 pays b - a_c, keeps beta of it and pays chi,
    so it needs b > a_c + chi/beta: a smaller gap nets nothing, while a
    simulated path makes of the order of 1/(b - a_c) payments. A payment
    down to a_c = 0 liquidates, so it is made once and passes.
    """
    return strategy.a_c == 0.0 or strategy.b > strategy.a_c + chi / beta

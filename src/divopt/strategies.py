"""Dividend strategy families.

Four stationary Markov families cover every optimal regime:

* PeriodicBarrier(b): at each decision time pay the excess above b.
* Hybrid(a_p, a_c, b): at decision times pay down to a_p; between decision
  times pay down to a_c as soon as the surplus reaches b.
* Liquidation(b1, b2): pay out everything on first entry to the open
  interval (b1, b2), otherwise liquidate at the first decision time.
  b2 may be math.inf, in which case the strategy acts like Hybrid(0, 0, b1).
* PeriodicZero: liquidate fully at the first decision time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union


@dataclass(frozen=True)
class PeriodicBarrier:
    b: float

    def __post_init__(self):
        if not (math.isfinite(self.b) and self.b >= 0.0):
            raise ValueError(f"barrier must be finite and >= 0, got {self.b}")


@dataclass(frozen=True)
class Hybrid:
    a_p: float
    a_c: float
    b: float  # math.inf never pays immediately; PeriodicBarrier(b) is Hybrid(b, b, inf)

    def __post_init__(self):
        if not 0.0 <= self.a_p <= self.a_c:
            raise ValueError(f"need 0 <= a_p <= a_c, got ({self.a_p}, {self.a_c})")
        if not self.b > self.a_c:
            raise ValueError(f"need b > a_c, got b={self.b}, a_c={self.a_c}")
        # The cost-dependent part of admissibility is nets_positive, checked
        # where model parameters are available.


@dataclass(frozen=True)
class Liquidation:
    b1: float
    b2: float  # math.inf for the (b, inf) half-line variant

    def __post_init__(self):
        if not (math.isfinite(self.b1) and self.b1 > 0.0):
            raise ValueError(f"b1 must be finite and > 0, got {self.b1}")
        if not self.b2 > self.b1:
            raise ValueError(f"need b2 > b1, got ({self.b1}, {self.b2})")


@dataclass(frozen=True)
class PeriodicZero:
    pass


Strategy = Union[PeriodicBarrier, Hybrid, Liquidation, PeriodicZero]


def nets_positive(strategy: Strategy, chi: float, beta: float) -> bool:
    """Whether the strategy's immediate payments net strictly more than 0.

    A hybrid pays b - a_c, keeps beta of it and pays chi, so it needs
    b > a_c + chi/beta: a smaller gap nets nothing, while a simulated path
    makes of the order of 1/(b - a_c) payments. The other families pass.
    """
    return not isinstance(strategy, Hybrid) or strategy.b > strategy.a_c + chi / beta

"""Optimal dividend barriers on a Brownian surplus with affine transaction costs.

The package classifies the optimal-strategy regime of a drifted Brownian
surplus paying periodic (cost-free) and immediate (proportionally and
fixed-cost taxed) dividends, computes the optimal barriers from the
smooth-fit derivative conditions, evaluates the closed-form value
functions, and cross-checks everything against grid, variational-
inequality and Monte Carlo oracles.
"""

from .core import ModelParams, Roots, f, laplace_exponent, solve_roots
from .errors import (
    ConfigError,
    DegenerateDenominatorError,
    DivoptError,
    NoBracketError,
    OutOfRangeError,
)
from .simulate import SimConfig, SimResult, simulate, simulate_at
from .solver import (
    Regime,
    SolveReport,
    a_beta,
    classify_regime,
    periodic_b0,
    solve,
    solve_hybrid,
    solve_unprofitable,
)
from .strategies import Hybrid, Liquidation, PeriodicBarrier, PeriodicZero, Strategy
from .values import ValueFunction, liquidation_A
from .verify import (
    GridSearchResult,
    HJBReport,
    PatternAudit,
    audit_derivative_pattern,
    brute_force_hybrid,
    check_hjb,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DegenerateDenominatorError",
    "DivoptError",
    "GridSearchResult",
    "HJBReport",
    "Hybrid",
    "Liquidation",
    "ModelParams",
    "NoBracketError",
    "OutOfRangeError",
    "PatternAudit",
    "PeriodicBarrier",
    "PeriodicZero",
    "Regime",
    "Roots",
    "SimConfig",
    "SimResult",
    "SolveReport",
    "Strategy",
    "ValueFunction",
    "a_beta",
    "audit_derivative_pattern",
    "brute_force_hybrid",
    "check_hjb",
    "classify_regime",
    "f",
    "laplace_exponent",
    "liquidation_A",
    "periodic_b0",
    "simulate",
    "simulate_at",
    "solve",
    "solve_hybrid",
    "solve_roots",
    "solve_unprofitable",
]

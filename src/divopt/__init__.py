"""Optimal dividend barriers on a Brownian surplus with affine transaction costs.

The package classifies the optimal-strategy regime of a drifted Brownian
surplus paying periodic (cost-free) and immediate (proportionally and
fixed-cost taxed) dividends, computes the optimal barriers from the
smooth-fit derivative conditions, evaluates the closed-form value
functions, and cross-checks everything against grid, variational-
inequality and Monte Carlo oracles.
"""

from .core import (
    EXP_ARG_LIMIT,
    J,
    J_d1,
    ModelParams,
    Roots,
    exp_guarded,
    f,
    f_d1,
    f_d2,
    g,
    g_d1,
    g_d2,
    laplace_exponent,
    solve_roots,
)
from .errors import (
    ConfigError,
    DegenerateDenominatorError,
    DivoptError,
    NoBracketError,
    OutOfRangeError,
    OverflowGuardError,
)
from .simulate import Dividend, SimConfig, SimResult, policy_step, simulate, simulate_at
from .solver import (
    Q,
    Q_inv,
    Regime,
    SolveReport,
    SufficientConditionHints,
    a_beta,
    beta0,
    c_beta_chi,
    classify_regime,
    cost_ratio_limit,
    nu_riskiness,
    periodic_b0,
    solve,
    solve_hybrid,
    solve_unprofitable,
    sufficient_condition_hints,
)
from .strategies import Hybrid, Liquidation, PeriodicBarrier, PeriodicZero, Strategy
from .values import (
    HybridCoefficients,
    ValueFunction,
    hybrid_coefficients,
    liquidation_A,
)
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
    "EXP_ARG_LIMIT",
    "ConfigError",
    "DegenerateDenominatorError",
    "Dividend",
    "DivoptError",
    "GridSearchResult",
    "HJBReport",
    "Hybrid",
    "HybridCoefficients",
    "J",
    "J_d1",
    "Liquidation",
    "ModelParams",
    "NoBracketError",
    "OutOfRangeError",
    "OverflowGuardError",
    "PatternAudit",
    "PeriodicBarrier",
    "PeriodicZero",
    "Q",
    "Q_inv",
    "Regime",
    "Roots",
    "SimConfig",
    "SimResult",
    "SolveReport",
    "Strategy",
    "SufficientConditionHints",
    "ValueFunction",
    "a_beta",
    "audit_derivative_pattern",
    "beta0",
    "brute_force_hybrid",
    "c_beta_chi",
    "check_hjb",
    "classify_regime",
    "cost_ratio_limit",
    "exp_guarded",
    "f",
    "f_d1",
    "f_d2",
    "g",
    "g_d1",
    "g_d2",
    "hybrid_coefficients",
    "laplace_exponent",
    "liquidation_A",
    "nu_riskiness",
    "periodic_b0",
    "policy_step",
    "simulate",
    "simulate_at",
    "solve",
    "solve_hybrid",
    "solve_roots",
    "solve_unprofitable",
    "sufficient_condition_hints",
]

"""The package's public names: exactly the agreed set, each importable."""

import inspect

import pytest

import divopt
from divopt import rootfind, solver, verify

PUBLIC = {
    # core and errors
    "ModelParams", "Roots", "f", "laplace_exponent", "solve_roots",
    "ConfigError", "DegenerateDenominatorError", "DivoptError", "NoBracketError",
    "OutOfRangeError",
    # strategies and value functions
    "Hybrid", "Liquidation", "PeriodicBarrier", "PeriodicZero", "Strategy",
    "ValueFunction", "liquidation_A",
    # solver
    "Regime", "SolveReport", "a_beta", "classify_regime", "periodic_b0",
    "solve", "solve_hybrid", "solve_unprofitable",
    # oracles
    "GridSearchResult", "HJBReport", "PatternAudit", "audit_derivative_pattern",
    "brute_force_hybrid", "check_hjb", "SimConfig", "SimResult", "simulate", "simulate_at",
}

REMOVED = [
    "EXP_ARG_LIMIT", "exp_guarded", "OverflowGuardError",
    "f_d1", "f_d2", "g", "g_d1", "g_d2", "J", "J_d1",
    "HybridCoefficients", "hybrid_coefficients",
    "Dividend", "policy_step", "Q", "Q_inv",
    "beta0", "cost_ratio_limit", "c_beta_chi", "nu_riskiness",
    "sufficient_condition_hints", "SufficientConditionHints",
]


def test_all_is_the_agreed_surface():
    assert len(PUBLIC) == 35
    assert len(divopt.__all__) == len(set(divopt.__all__))
    assert set(divopt.__all__) == PUBLIC


def test_every_public_name_resolves():
    for name in divopt.__all__:
        assert getattr(divopt, name) is not None, name


@pytest.mark.parametrize("name", REMOVED)
def test_removed_name_is_gone(name):
    with pytest.raises(ImportError):
        exec(f"from divopt import {name}", {})


@pytest.mark.parametrize(
    "fn, gone",
    [
        (rootfind.bisect_secant, {"xtol", "maxiter"}),
        (rootfind.bracket_geometric, {"factor", "x_max", "maxiter"}),
        (rootfind.smallest_root_scan, {"xtol"}),
        (solver.solve_hybrid, {"l_step0", "y_seed"}),
        (verify.check_hjb, {"kink_window"}),
        (verify.audit_derivative_pattern, {"n_points", "atol"}),
        (solver.a_beta, {"beta_prime"}),
    ],
)
def test_fixed_knobs_are_not_parameters(fn, gone):
    assert not gone & set(inspect.signature(fn).parameters)

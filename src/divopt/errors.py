"""Exception types shared across the package."""


class DivoptError(Exception):
    """Base class for package-specific errors."""


class OverflowGuardError(DivoptError):
    """An exponential was asked for an argument beyond the guard limit.

    Raised by core.exp_guarded instead of silently returning inf. The value
    functions and the solver evaluate their closed forms in exponent-shifted
    form, whose exponentials never exceed 1, so they do not raise it.
    """

    def __init__(self, arg: float, limit: float):
        self.arg = float(arg)
        self.limit = float(limit)
        super().__init__(f"exp argument {arg:.6g} exceeds guard limit {limit:.6g}")


class DegenerateDenominatorError(DivoptError):
    """A coefficient denominator is too close to zero to divide reliably."""


class NoBracketError(DivoptError):
    """No sign change was found within the (auto-expanded) search window."""


class OutOfRangeError(DivoptError):
    """An argument lies outside the mathematical domain of the function."""


class ConfigError(DivoptError):
    """Invalid run or simulation configuration."""

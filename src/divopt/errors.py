"""Exception types shared across the package, each a DivoptError.

OutOfRangeError covers arguments outside a function's domain, among them
a lower barrier a so far out that f(a) or f'(a) leaves the floating-point
range, and an optimum no strategy type can represent (at chi = 0, a
hybrid's b -> a_c and a liquidation's b1 -> 0).
Otherwise the hybrid closed form evaluates only exponentials at most 1,
so no overflow guard is needed.
"""


class DivoptError(Exception):
    """Base class for package-specific errors."""


class DegenerateDenominatorError(DivoptError):
    """A coefficient denominator is too close to zero to divide reliably."""


class NoBracketError(DivoptError):
    """No sign change was found within the (auto-expanded) search window."""


class OutOfRangeError(DivoptError):
    """An argument lies outside the mathematical domain of the function."""


class ConfigError(DivoptError):
    """Invalid run or simulation configuration."""

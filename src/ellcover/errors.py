"""Exception and warning types shared across the package, and its one integer check."""

import operator


class EllcoverError(Exception):
    """Base class for all errors raised by this package."""


class InvalidPoint(EllcoverError):
    """Input is not a finite complex number / valid torus point."""


class InvalidOrder(EllcoverError):
    """Torsion order must be a positive integer."""


class InvalidSubgroup(EllcoverError):
    """Subgroup generators are not admissible torsion points."""


class NoConvergence(EllcoverError):
    """The AGM elliptic logarithm missed the residual contract of wp_inverse."""


class SumNotZero(EllcoverError):
    """Divisor points do not sum to zero on the curve."""


class IllConditioned(EllcoverError):
    """Input beyond numerical resolution: rank-deficient evaluation matrix or too-tall quotient."""


class DegenerateSection(EllcoverError):
    """Section coefficients are numerically zero; no zero locus is defined."""


class OrderCapExceeded(EllcoverError):
    """A listing of L was asked for past DEFAULT_ORDER_CAP matrices."""


class ExponentMismatch(EllcoverError):
    """Mixed intersection exponents do not sum to the ambient dimension."""


class NonIntegralNorm(EllcoverError):
    """Norm endomorphism came out non-integral; the sublattice was not saturated."""


class NonGenericTarget(EllcoverError):
    """Fiber computation hit a branch point or a collision of roots."""


class ConfigError(EllcoverError):
    """Invalid CLI / run configuration."""


class NotVeryAmpleWarning(UserWarning):
    """Configuration does not meet the very-ampleness precondition.

    The construction still produces a group and a cover of the right degree,
    but the line bundle backing it is only ample, not certified very ample.
    """


def check_integer(name: str, value, bound: float = float("inf"), error: type = ConfigError) -> None:
    """Raise `error` unless `value` is an integer, not a bool, with 1 <= value <= bound."""
    try:
        if isinstance(value, bool):
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise error(f"{name} must be an integer, got {value!r}") from None
    if value < 1:
        raise error(f"{name} must be >= 1, got {value}")
    if value > bound:
        raise error(f"{name} must be <= {bound}, got {value}")

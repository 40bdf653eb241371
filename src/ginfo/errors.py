"""Exception types raised by the numeric kernels."""


class NumericDomainError(ValueError):
    """Input violates a mathematical domain requirement (e.g. not SPD)."""


class SingularMatrixError(NumericDomainError):
    """A matrix that must be invertible is singular to working tolerance."""


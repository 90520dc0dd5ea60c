"""Exception and warning types shared across the package."""


class DomainError(ValueError):
    """A parameter lies outside its mathematical domain (e.g. nbar < 0)."""


class UnphysicalState(ValueError):
    """A state representation violates a Heisenberg-type physicality bound."""


class DimensionMismatch(ValueError):
    """Two Fock-space objects with incompatible truncation dimensions."""


class ConvergenceFailure(RuntimeError):
    """A numerical minimization failed to converge from every starting point."""


class TruncationWarning(UserWarning):
    """A truncated Fock-space object is missing non-negligible probability mass."""

"""Exception types shared across the package.

The CLI maps these onto distinct exit codes, so raising the right class
matters: shape problems, unitarity failures and numerical instability are
all reported differently to callers.
"""

from __future__ import annotations


class OptiqError(Exception):
    """Base class for every package-specific error."""


class ShapeError(OptiqError):
    """Matrix or plan dimensions do not match what the operation requires."""


class UnitarityError(OptiqError):
    """A matrix expected to be unitary fails the residual check."""

    def __init__(self, residual: float, tol: float, context: str = ""):
        self.residual = float(residual)
        self.tol = float(tol)
        msg = f"unitarity residual {self.residual:.6e} exceeds tolerance {self.tol:.3e}"
        if context:
            msg = f"{context}: {msg}"
        super().__init__(msg)


class DimensionOverflowError(OptiqError):
    """Requested Fock space exceeds the configured dense-storage cap."""


class InvalidOrderingError(OptiqError):
    """Basis ordering is not a valid permutation of the full state set."""


class UnknownStateError(OptiqError):
    """Occupation vector does not belong to the basis."""


class RankDeficiencyError(OptiqError):
    """A Gram-Schmidt pivot or a singular value is negligible where none may be."""


class NumericalInstabilityError(OptiqError):
    """A run violated an invariant that exact arithmetic guarantees."""

    def __init__(self, message: str, step: int | None = None):
        self.step = step
        if step is not None:
            message = f"step {step}: {message}"
        super().__init__(message)


class InternalConsistencyError(OptiqError):
    """A quantity that is real or zero by construction came out otherwise."""

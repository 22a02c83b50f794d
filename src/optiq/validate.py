"""Validation helpers for matrices crossing the public API boundary.

Internal products are trusted; these checks run on untrusted input such as
files, CLI arguments and top-level library calls.
"""

from __future__ import annotations

import operator

import numpy as np

from .errors import ShapeError, UnitarityError

#: Unitarity residual bound per unit of matrix dimension.
UNITARITY_TOL = 1e-9


def as_complex_matrix(A, name: str = "matrix") -> np.ndarray:
    """Coerce to a dense complex square ndarray or raise ShapeError."""
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ShapeError(f"{name} must be a square matrix, got shape {A.shape}")
    return A


def require_int(x) -> int:
    """An int or numpy integer as a Python int; bool, float and str raise
    TypeError. A type test, cheap enough for per-entry use."""
    if isinstance(x, bool):
        raise TypeError(f"{x!r} is not an integer")
    return operator.index(x)


def require_same_shape(A: np.ndarray, B: np.ndarray, name: str = "operands") -> None:
    if A.shape != B.shape:
        raise ShapeError(f"{name} must have equal shapes, got {A.shape} and {B.shape}")


def unitarity_residual(A: np.ndarray) -> float:
    """Frobenius norm of A†A - Id."""
    d = A.shape[0]
    return float(np.linalg.norm(A.conj().T @ A - np.eye(d)))


def require_unitary(A, name: str = "matrix", tol: float = UNITARITY_TOL) -> np.ndarray:
    """Validate unitarity within tol * dim and return the coerced array."""
    A = as_complex_matrix(A, name)
    res = unitarity_residual(A)
    bound = tol * A.shape[0]
    if not res <= bound:  # also rejects NaN
        raise UnitarityError(res, bound, context=name)
    return A

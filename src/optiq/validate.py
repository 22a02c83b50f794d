"""Validation helpers for matrices crossing the public API boundary.

Internal products are trusted; these checks run on untrusted input such as
files, CLI arguments and top-level library calls. The unitarity check's
:func:`frobenius_norm` is also the one norm the kernels use.
"""

from __future__ import annotations

import operator

import numpy as np

from .errors import ShapeError, UnitarityError

#: Unitarity residual bound per unit of matrix dimension.
UNITARITY_TOL = 1e-9


def as_complex_matrix(A, name: str = "matrix", *, stack: bool = False) -> np.ndarray:
    """Coerce to a dense complex square ndarray, or with ``stack`` also a
    stack (..., d, d) of them, or raise ShapeError."""
    A = np.asarray(A, dtype=complex)
    if A.ndim < 2 or (A.ndim > 2 and not stack) or A.shape[-1] != A.shape[-2]:
        what = "a square matrix or a stack of them" if stack else "a square matrix"
        raise ShapeError(f"{name} must be {what}, got shape {A.shape}")
    return A


def frobenius_norm(A):
    """||A||_F of a matrix as a float, or per matrix of a stack (..., d, d).

    Each norm is sqrt(re . re + im . im) from two BLAS dot products, as
    ``np.linalg.norm`` computes it for a C-contiguous complex matrix, so a
    stack gives every matrix the bits it would get alone, whatever its size.
    """
    A = np.ascontiguousarray(A, dtype=complex)
    rows = A.reshape(A.shape[:-2] + (1, A.shape[-2] * A.shape[-1]))
    re, im = rows.real, rows.imag
    norms = np.sqrt((re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2))[..., 0, 0])
    return float(norms) if A.ndim == 2 else norms


def require_int(x) -> int:
    """An int or numpy integer as a Python int; bool, float and str raise
    TypeError. A type test, cheap enough for per-entry use."""
    if isinstance(x, bool):
        raise TypeError(f"{x!r} is not an integer")
    return operator.index(x)


def require_same_shape(A: np.ndarray, B: np.ndarray, name: str = "operands") -> None:
    if A.shape != B.shape:
        raise ShapeError(f"{name} must have equal shapes, got {A.shape} and {B.shape}")


def unitarity_residual(A: np.ndarray):
    """Frobenius norm of A†A - Id, per matrix of a stack."""
    P = A.conj().swapaxes(-1, -2) @ A
    np.einsum("...ii->...i", P)[...] -= 1
    return frobenius_norm(P)


def require_unitary(A, name: str = "matrix", tol: float = UNITARITY_TOL, *,
                    stack: bool = False) -> np.ndarray:
    """Validate unitarity within tol * dim and return the coerced array.

    With ``stack``, every matrix of a stack (..., d, d) is checked, and the
    error names the flat index of the first that fails.
    """
    A = as_complex_matrix(A, name, stack=stack)
    res = unitarity_residual(A)
    bound = tol * A.shape[-1]
    ok = np.ravel(res <= bound)  # also rejects NaN
    if not ok.all():
        i = int(ok.argmin())
        raise UnitarityError(np.ravel(res)[i], bound,
                             context=name if A.ndim == 2 else f"{name} [{i}]")
    return A

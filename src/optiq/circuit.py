"""Mesh synthesis for scattering matrices.

Factors an m-mode unitary into a rectangular mesh of adjacent-mode beam
splitters followed by one output phase per mode. The beam-splitter block on
modes (j, j+1) is, bit-exactly as stored in plan files,

    [[exp(i phi) cos theta, -sin theta],
     [exp(i phi) sin theta,  cos theta]],

with theta in [0, pi/2] and phi in (-pi, pi]. A plan reconstructs as

    U = diag(exp(i residual_phases)) @ M(e_last) @ ... @ M(e_1),

elements listed in the order light meets them.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import atan2, pi

import numpy as np

from .errors import InternalConsistencyError, ShapeError
from .lie import polar_unitary
from .validate import require_unitary

#: Entries already this small are not worth an elimination of their own.
NULL_SKIP_TOL = 1e-12

#: Inputs rounded to print precision are accepted; the factorization then
#: describes their unitary polar projection.
INPUT_UNITARITY_TOL = 1e-4

#: Residual off-diagonal mass allowed after a full elimination sweep.
SWEEP_RESIDUAL_TOL = 1e-8


def _wrap(angle: float) -> float:
    """Reduce an angle to (-pi, pi]."""
    a = float(np.angle(np.exp(1j * angle)))
    return a if a > -pi else pi


@dataclass(frozen=True)
class OpticalElement:
    """One mesh element: a beam splitter on an adjacent pair of modes."""

    kind: str                # "beam_splitter"
    modes: tuple[int, ...]
    theta: float = 0.0       # splitting angle
    phi: float = 0.0


@dataclass(frozen=True)
class CircuitPlan:
    """Ordered element list plus the final per-mode phases."""

    m: int
    elements: tuple[OpticalElement, ...]
    residual_phases: tuple[float, ...]


def _splitter_block(theta: float, phi: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    e = np.exp(1j * phi)
    return np.array([[e * c, -s], [e * s, c]], dtype=complex)


def _validate_plan(plan: CircuitPlan) -> None:
    if plan.m < 1:
        raise ShapeError(f"mode count must be >= 1, got {plan.m}")
    if len(plan.residual_phases) != plan.m:
        raise ShapeError(
            f"expected {plan.m} residual phases, got {len(plan.residual_phases)}")
    for el in plan.elements:
        if el.kind != "beam_splitter":
            raise ShapeError(f"unknown element kind {el.kind!r}")
        if len(el.modes) != 2 or el.modes[1] != el.modes[0] + 1:
            raise ShapeError(
                f"beam splitter modes must be an adjacent pair, got {el.modes}")
        if not (0 <= el.modes[0] and el.modes[1] < plan.m):
            raise ShapeError(f"beam splitter modes {el.modes} out of range for m={plan.m}")


def reconstruct(plan: CircuitPlan) -> np.ndarray:
    """Multiply out a plan into its m x m scattering matrix, each element on its two rows."""
    _validate_plan(plan)
    U = np.eye(plan.m, dtype=complex)
    for el in plan.elements:
        j, k = el.modes
        U[j:k + 1] = _splitter_block(el.theta, el.phi) @ U[j:k + 1]
    return np.exp(1j * np.asarray(plan.residual_phases, dtype=float))[:, None] * U


def decompose(S) -> CircuitPlan:
    """Factor a unitary into at most m(m-1)/2 beam splitters plus phases.

    Rectangular elimination: sweeps of adjacent-mode rotations null the
    strictly lower triangle, alternating column operations (applied at the
    input side) and row operations (output side); the row factors are then
    commuted through the final diagonal so every stored element is a plain
    beam-splitter block. Eliminations whose target entry is already below
    NULL_SKIP_TOL are skipped, so the identity yields an empty plan.

    Input must be unitary within INPUT_UNITARITY_TOL times its dimension; what
    gets factored is its unitary polar projection, so reconstruction is
    exactly unitary and agrees with the input to its own rounding error.
    """
    S = require_unitary(S, "scattering matrix", tol=INPUT_UNITARITY_TOL)
    m = S.shape[0]
    V = polar_unitary(S)
    right_ops: list[tuple[int, float, float]] = []  # (mode, theta, phi) as applied
    left_ops: list[tuple[int, float, float]] = []
    for i in range(1, m):
        if i % 2 == 1:
            for j in range(i):
                r, c = m - j - 1, i - j - 1
                if abs(V[r, c]) <= NULL_SKIP_TOL:
                    continue
                theta = atan2(abs(V[r, c]), abs(V[r, c + 1]))
                phi = _wrap(np.angle(V[r, c]) - np.angle(V[r, c + 1]))
                V[:, c:c + 2] = V[:, c:c + 2] @ _splitter_block(theta, phi).conj().T
                right_ops.append((c, theta, phi))
        else:
            for j in range(1, i + 1):
                r, c = m + j - i - 1, j - 1
                if abs(V[r, c]) <= NULL_SKIP_TOL:
                    continue
                theta = atan2(abs(V[r, c]), abs(V[r - 1, c]))
                phi = _wrap(np.angle(V[r, c]) - np.angle(V[r - 1, c]) + pi)
                V[r - 1:r + 1, :] = _splitter_block(theta, phi) @ V[r - 1:r + 1, :]
                left_ops.append((r - 1, theta, phi))

    diag = np.diagonal(V).copy()
    off = float(np.linalg.norm(V - np.diag(diag)))
    if off > SWEEP_RESIDUAL_TOL:
        raise InternalConsistencyError(
            f"elimination sweep left off-diagonal residual {off:.3e}")

    # At this point U = B(l_1)^-1 ... B(l_q)^-1 D B(r_p) ... B(r_1). Commute
    # each inverted row factor through the diagonal with the identity
    #   B(th, phi)^-1 diag(e^ia, e^ib) = diag(e^i(b-phi+pi), e^ib) B(th, a-b-pi)
    # so the stored mesh consists of plain beam-splitter blocks only.
    phases = list(np.angle(diag))
    elements = [OpticalElement("beam_splitter", (c, c + 1), theta, phi)
                for (c, theta, phi) in right_ops]
    for (p, theta, phi) in reversed(left_ops):
        alpha, beta = phases[p], phases[p + 1]
        elements.append(
            OpticalElement("beam_splitter", (p, p + 1), theta, _wrap(alpha - beta - pi)))
        phases[p] = _wrap(beta - phi + pi)
    return CircuitPlan(m, tuple(elements), tuple(_wrap(x) for x in phases))

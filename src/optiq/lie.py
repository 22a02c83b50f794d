"""Metric, logarithm, exponential and projection machinery on u(M).

The trace metric is the inner product <u, v> = (1/2) tr(u† v + v† u) =
Re tr(u† v), whose norm is the Frobenius norm. The reachable subalgebra
(the image of the generator lift from u(m)) is m^2-dimensional. Every
lifted generator vanishes off the transition positions of the Fock basis
(about 16 % of the entries at M = 70), so the basis is built and held only
there: :func:`build_image_basis` lifts the canonical basis of u(m) to its
entries on those positions in one stacked call, factors their Gram matrix
as L L^T (Cholesky) and applies L^{-1} to the entries and to their u(m)
preimages alike. That is Gram-Schmidt in generator order with positive
pivots, and it keeps the preimage of every element, so projections can be
pulled back to mode space exactly. :func:`project` and the engine's
per-step witness read each element only on its :class:`ImageBasis`
``support``. :func:`principal_log` diagonalizes a unitary through one
Hermitian ``eigh`` of a shifted Cayley transform.

:func:`principal_log`, :func:`matrix_exp`, :func:`polar_unitary`,
:func:`project` and :func:`distance` also take a stack (..., M, M) and act
on each matrix of it alone: every product, factorization and norm is a
per-matrix LAPACK or BLAS call, so a matrix gets the same bits in a stack
of any size as on its own.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import InternalConsistencyError, RankDeficiencyError, ShapeError
from .fock import FockBasis
# second_quantize is not called here; perfbench/spans.py wraps it by this name
from .homomorphism import (second_quantize, transition_entries,  # noqa: F401
                           transition_positions)
from .validate import (as_complex_matrix, frobenius_norm, require_same_shape,
                       require_unitary)

#: A Cholesky pivot (the norm a Gram-Schmidt vector keeps after
#: orthogonalization) below this signals a rank-deficient lift.
GRAM_SCHMIDT_DROP_TOL = 1e-8

#: Projection coefficients are real by construction; larger imaginary parts
#: indicate non-anti-Hermitian input or a corrupted basis.
COEFF_IMAG_TOL = 1e-9

#: First Cayley shift of principal_log: the pole -e^{0.6i} sits at about
#: -146 degrees, away from +-1, +-i and the cube roots of unity.
CAYLEY_SHIFT = 0.6

#: A Cayley pass's error grows like eps * |tan|^2. principal_log keeps a
#: pass with every |tan| up to CAYLEY_BOUND (this matches a Schur-form log
#: to roundoff); past CAYLEY_POLE_BOUND (a pole within 2e-5 of an
#: eigenvalue) its angles are too wrong to place the next pole by.
CAYLEY_BOUND = 100.0
CAYLEY_POLE_BOUND = 1e5


def distance(A, B):
    """Frobenius distance ||A - B||_F; for a stack A, one per matrix, with B
    a stack of the same shape or one matrix for all."""
    A = np.asarray(A, dtype=complex)
    B = np.asarray(B, dtype=complex)
    if B.ndim != 2 or A.shape[-2:] != B.shape:
        require_same_shape(A, B, "distance operands")
    return frobenius_norm(A - B)


def _dagger(A):
    """Conjugate transpose of a matrix or of each matrix of a stack."""
    return A.conj().swapaxes(-1, -2)


def _cayley_eigh(U, alpha):
    """Eigenpairs of H = i(s - U)(s + U)^{-1}, s = e^{i alpha}, from one LU
    solve and one ``eigh`` per matrix of the stack U; this is the Cayley
    transform of e^{-i alpha} U. ``alpha`` is one shift or one per matrix."""
    if isinstance(alpha, np.ndarray):
        z = np.array([cmath.exp(1j * a) for a in alpha])[:, None, None]
    else:
        z = cmath.exp(1j * alpha)
    s = z * np.eye(U.shape[-1])
    return np.linalg.eigh(np.linalg.solve(s + U, 1j * (s - U)))


def _cayley_pass(U, alpha):
    """:func:`_cayley_eigh` of a stack U at alpha, one shift or one per
    matrix, with NaN tangents for each matrix whose solve is exactly
    singular (LAPACK then fails the whole stack)."""
    try:
        return _cayley_eigh(U, alpha)
    except np.linalg.LinAlgError:
        if len(U) == 1:
            return np.full(U.shape[:-1], np.nan), np.zeros_like(U)
    each = zip(U, np.broadcast_to(alpha, len(U)))
    return tuple(map(np.concatenate, zip(*(_cayley_pass(u[None], a) for u, a in each))))


def _eigen_angles(U, Q):
    """Angles of diag(Q† U Q) in (-pi, pi]; an exact -1 maps to +pi."""
    z = (Q.conj() * (U @ Q)).sum(axis=-2)
    # np.angle gives -pi for imaginary part -0.0
    return np.where((z.imag == 0) & (z.real < 0), np.pi, np.angle(z))


def _mid_gap(theta):
    """Per row of angles, the shift alpha whose Cayley pole -e^{i alpha}
    sits in the middle of the widest gap between them."""
    ordered = np.sort(theta, axis=-1)
    gaps = np.diff(ordered, axis=-1, append=ordered[:, :1] + 2 * np.pi)
    r, j = np.arange(len(ordered)), gaps.argmax(axis=-1)
    return ordered[r, j] + gaps[r, j] / 2 - np.pi


def principal_log(U, shifts=None) -> np.ndarray:
    """Principal logarithm of a unitary matrix, or of each of a stack.

    Returns the anti-Hermitian v with exp(v) = U whose eigenvalues i*theta
    all have theta in (-pi, pi]. For unitary U the Cayley transform
    H = i(I - W)(I + W)^{-1} of W = e^{-i alpha} U is Hermitian, shares the
    eigenvectors of U and has eigenvalues tan((theta - alpha)/2), with a
    pole at the eigenvalue -e^{i alpha} (Higham, *Functions of Matrices*,
    SIAM 2008, ch. 11). ``eigh`` of H gives eigenvectors Q, orthonormal even
    under degeneracy; theta is read from diag(Q† U Q), and
    v = Q diag(i theta) Q† is anti-Hermitized.

    Shift rule: the first pass takes alpha = CAYLEY_SHIFT, or with
    ``shifts`` (a float64 array of shape U.shape[:-2]) each matrix's own
    shift, and is kept when every |tan| is at most CAYLEY_BOUND. Otherwise
    the pole moves to the middle of the widest gap between the angles just
    read, at least 2 pi / M wide, and a second pass keeps every |tan|
    within about cot(pi / 2M). A first pass whose solve is exactly
    singular, or whose largest |tan| exceeds CAYLEY_POLE_BOUND, is retried
    at alpha + k, k = 1, 2, ...; these poles are distinct, so at most M of
    them can fail. ``shifts`` is then overwritten, like numpy's ``out=``,
    with the mid-gap shift of each matrix's final angles: a caller whose
    next matrix has nearly the same spectrum passes it back, and its first
    pass is almost always kept.

    Branch: an exact eigenvalue -1 maps to angle +pi. A -1 that carries
    roundoff takes the sign of its perturbation; both signs of pi give a
    minimal-norm logarithm.

    On a stack, each matrix is checked for unitarity (the error names the
    first that fails), and the retries and the mid-gap pass run only on the
    matrices that need them.
    """
    U = require_unitary(U, "principal_log input", stack=True)
    if shifts is not None:
        # written in place, so a copy made here would lose the next shifts
        if not (isinstance(shifts, np.ndarray) and shifts.dtype == np.float64):
            raise TypeError(f"shifts must be a float64 array, got {type(shifts).__name__} "
                            f"of {getattr(shifts, 'dtype', None)}")
        if shifts.shape != U.shape[:-2]:
            raise ShapeError(f"shifts shape {shifts.shape} does not match the stack "
                             f"shape {U.shape[:-2]}")
    flat = U.reshape((-1,) + U.shape[-2:])
    first = CAYLEY_SHIFT if shifts is None else shifts.reshape(-1).copy()
    tans, Q = _cayley_pass(flat, first)
    worst = np.abs(tans).max(axis=-1)
    k = 0
    while not (worst <= CAYLEY_POLE_BOUND).all():  # also NaN
        k += 1
        retry = np.flatnonzero(~(worst <= CAYLEY_POLE_BOUND))
        alpha = first if shifts is None else first[retry]
        tans, Q[retry] = _cayley_pass(flat[retry], alpha + k)
        worst[retry] = np.abs(tans).max(axis=-1)
    theta = _eigen_angles(flat, Q)
    wide = worst > CAYLEY_BOUND
    if wide.any():
        # a view, not a copy, when every matrix needs the pass
        wide = slice(None) if wide.all() else np.flatnonzero(wide)
        U_wide = flat[wide]
        _, Q_wide = _cayley_eigh(U_wide, _mid_gap(theta[wide]))
        Q[wide], theta[wide] = Q_wide, _eigen_angles(U_wide, Q_wide)
    if shifts is not None:
        shifts[...] = _mid_gap(theta).reshape(shifts.shape)
    v = (Q * (1j * theta)[:, None, :]) @ _dagger(Q)
    return ((v - _dagger(v)) / 2.0).reshape(U.shape)


def matrix_exp(v) -> np.ndarray:
    """exp(v) for anti-Hermitian v, or each of a stack, via eigendecomposition
    of Hermitian -i v."""
    v = as_complex_matrix(v, "matrix_exp input", stack=True)
    H = -1j * v
    H = (H + _dagger(H)) / 2.0
    w, W = np.linalg.eigh(H)
    return (W * np.exp(1j * w)[..., None, :]) @ _dagger(W)


def polar_unitary(A) -> np.ndarray:
    """Closest unitary in Frobenius norm, or to each of a stack: the polar
    factor W Vh of the SVD A = W diag(s) Vh. LAPACK's gesdd can fail to
    converge on a finite, nearly unitary matrix; then each matrix of a stack
    is factored alone, and one that fails again takes the slower gesvd.
    That fallback is optiq's only use of scipy, which it imports on first
    use, so a run that never needs it never loads scipy."""
    A = as_complex_matrix(A, "polar input", stack=True)
    try:
        W, _, Vh = np.linalg.svd(A)
    except np.linalg.LinAlgError:
        if A.ndim > 2:
            flat = A.reshape((-1,) + A.shape[-2:])
            return np.reshape([polar_unitary(a) for a in flat], A.shape)
        import scipy.linalg
        W, _, Vh = scipy.linalg.svd(A, lapack_driver="gesvd")
    return W @ Vh


def unitary_algebra_generators(m: int) -> list[np.ndarray]:
    """Canonical basis of u(m): i E_jj, then E_jk - E_kj and i(E_jk + E_kj)
    for j < k. Exactly m^2 anti-Hermitian matrices."""
    if m < 1:
        raise ValueError(f"mode count must be >= 1, got {m}")
    gens = []
    for j in range(m):
        g = np.zeros((m, m), dtype=complex)
        g[j, j] = 1j
        gens.append(g)
    for j in range(m):
        for k in range(j + 1, m):
            g = np.zeros((m, m), dtype=complex)
            g[j, k] = 1.0
            g[k, j] = -1.0
            gens.append(g)
            g = np.zeros((m, m), dtype=complex)
            g[j, k] = 1j
            g[k, j] = 1j
            gens.append(g)
    return gens


@dataclass(frozen=True, eq=False)
class ImageBasis:
    """Orthonormal basis of the reachable subalgebra, with u(m) preimages,
    held only where its M x M elements can be nonzero.

    ``support`` holds flat positions (row * M + column) of an M x M
    matrix: :func:`build_image_basis` gives the basis's transition
    positions (see :func:`optiq.homomorphism.transition_positions`), in
    that order. ``values[i]`` is element i there, and the element is zero
    everywhere else; the elements are orthonormal under the trace metric.
    ``preimages[i]`` is the m x m generator whose lift equals element i by
    the linearity of the orthogonalization. Immutable; share freely.
    """

    basis: FockBasis
    support: np.ndarray    # (P,)
    values: np.ndarray     # (m*m, P)
    preimages: np.ndarray  # (m*m, m, m)

    def __len__(self) -> int:
        return len(self.preimages)

    @property
    def elements(self) -> np.ndarray:
        """The dense (m*m, M, M) elements, scattered from ``values`` anew on
        each access; nothing in the package reads them."""
        M = len(self.basis)
        dense = np.zeros((len(self), M * M), dtype=complex)
        dense[:, self.support] = self.values
        return dense.reshape(len(self), M, M)


def _orthonormalize(vectors, preimages):
    """Orthonormalize ``vectors`` in order, carrying the same real linear
    combinations on ``preimages``; returns both as stacked arrays.

    With G = L L^T the Cholesky factorization of the Gram matrix under the
    trace metric, the rows of L^{-1} V are what Gram-Schmidt makes of the
    rows of V, and the pivots L[i, i] are the norms it divides by.
    """
    vectors = np.asarray(vectors, dtype=complex)
    preimages = np.asarray(preimages, dtype=complex)
    k = len(vectors)
    # <u, v> = Re tr(u† v) is the dot product of the (re, im) float views
    flat = vectors.reshape(k, -1).view(float)
    try:
        L = np.linalg.cholesky(flat @ flat.T)
    except np.linalg.LinAlgError:
        L = None
    if L is None or np.diagonal(L).min() < GRAM_SCHMIDT_DROP_TOL:
        raise RankDeficiencyError(
            "a Gram-Schmidt pivot fell below "
            f"{GRAM_SCHMIDT_DROP_TOL:g}; the lifted generators should be "
            "linearly independent")
    L_inv = np.linalg.solve(L, np.eye(k))
    elements = (L_inv @ flat).view(complex)
    pre = (L_inv @ preimages.reshape(k, -1).view(float)).view(complex)
    return elements.reshape(vectors.shape), pre.reshape(preimages.shape)


def build_image_basis(basis: FockBasis) -> ImageBasis:
    """Orthonormal basis of the image subalgebra for the given Fock basis.

    Lifts the canonical u(m) generators to their entries on the transition
    positions, the only entries a lift can make nonzero, and
    orthonormalizes those under the trace metric, tracking preimages so
    that ``transition_entries(preimages[i]) == values[i]`` to roundoff. No
    dense M x M element is ever formed.
    """
    gens = np.array(unitary_algebra_generators(basis.m))
    values, preimages = _orthonormalize(transition_entries(gens, basis), gens)
    return ImageBasis(basis, transition_positions(basis), values, preimages)


def project(v, image_basis: ImageBasis):
    """Orthogonal decomposition of v, or of each of a stack, against the
    image subalgebra.

    Returns ``(v_T, v_N, coeffs)`` with v_T = sum coeffs[i] * element i,
    v_N = v - v_T, and coeffs real, with coeffs of shape (..., len(basis))
    for a stack. The coefficients of an anti-Hermitian v against
    anti-Hermitian basis elements are real in exact arithmetic; a noticeable
    imaginary residue raises InternalConsistencyError, which names the first
    failing matrix of a stack.

    Only the basis's ``support`` is read: the coefficients come from the
    entries of v there, and v_T is zero off it, so all of v off the support
    stays in v_N.
    """
    v = as_complex_matrix(v, "projection input", stack=True)
    M = len(image_basis.basis)
    if v.shape[-2:] != (M, M):
        raise ShapeError(
            f"cannot project shape {v.shape} onto a basis of shape {(M, M)}")
    E, support = image_basis.values, image_basis.support
    on = v.reshape(v.shape[:-2] + (-1,))[..., support]
    # conj(E conj(v)) is tr(e† v) without a conjugated copy of the basis;
    # one matvec per matrix, never one GEMM whose rows depend on the stack
    t = (E @ on.conj()[..., None])[..., 0].conj()
    worst = np.abs(t.imag).max(axis=-1, initial=0.0).ravel()
    if (worst > COEFF_IMAG_TOL).any():
        i = int(np.argmax(worst > COEFF_IMAG_TOL))
        raise InternalConsistencyError(
            f"projection coefficients{'' if v.ndim == 2 else f' [{i}]'} have "
            f"imaginary residue {worst[i]:.3e}; input is probably not anti-Hermitian")
    coeffs = np.ascontiguousarray(t.real)
    v_T = np.zeros(v.shape, dtype=complex)
    # real coefficients times the (re, im) float view: one real matvec
    v_T.reshape(on.shape[:-1] + (-1,))[..., support] = \
        (coeffs[..., None, :] @ E.view(float))[..., 0, :].view(complex)
    v_N = v - v_T
    return v_T, v_N, coeffs

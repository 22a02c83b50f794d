"""Scattering-matrix lifts between the mode space and the photon space.

An m-mode scattering matrix S acts on n indistinguishable photons as an
M x M evolution matrix, M = C(m+n-1, n), defined entrywise by permanents,

    <out| U |in> = per(S[out|in]) / sqrt(prod out_j! * prod in_k!),

where S[out|in] repeats row j of S out_j times and column k in_k times.
The algebra-level lift is second quantization, sum_{jk} A[j,k] a†_j a_k.
Both lifts are computed from tables of creation operators instead: the
group lift photon by photon from U a†_c U† = sum_j S[j,c] a†_j (Scheel,
quant-ph/0406127), the algebra lift from a†_j a_k = sum_r a†_j |r><r| a_k.
The tables are built once per basis and kept on it, so a lift costs only
its arithmetic. Both lift a stack (..., m, m) of matrices as well as a
single one.

A generator's lift is nonzero only at the P = M + m(m-1) dim(m, n-1)
transition positions (the a†_j a_k, j != k, and the diagonal), 770 of the
4 900 entries at M = 70. :func:`transition_entries` gives the lift there,
and :func:`second_quantize` is those entries scattered into a dense M x M
matrix. The image basis is built and held on the entries alone, and the
projection and the engine's per-step witness read only them; nothing in
the package calls :func:`second_quantize`.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError
from .fock import FockBasis, _compositions, enumerate_basis


def _level(basis: FockBasis) -> tuple[np.ndarray, ...]:
    """(up, w, occ, c, src, div, pairs, ww) for the states of ``basis``:
    a†_j |r> = w[r, j] |up[r, j]> for the lex-ordered states r with one
    photon fewer (w = sqrt(r_j + 1)), and each state q's occupations
    occ[q], first occupied mode c[q], state src[q] = q - e_c and
    div[q] = sqrt(q_c); then the off-diagonal mode pairs (j, k), j != k,
    as two index arrays, and ww[r, i] = w[r, j] w[r, k] for pair i."""
    m = basis.m
    lower = np.array(list(_compositions(m, basis.n - 1)))
    raised = lower[:, None, :] + np.eye(m, dtype=int)
    up = np.reshape([basis.index_of(s) for s in raised.reshape(-1, m).tolist()], (-1, m))
    occ = np.array(basis.states)
    c = np.argmax(occ > 0, axis=1)
    hit = c[up] == np.arange(m)  # up[r, j] = q with j = c_q, once per q
    src = np.empty(len(basis), dtype=int)
    src[up[hit]] = np.nonzero(hit)[0]
    w = np.sqrt(lower + 1.0)
    j, k = pairs = np.nonzero(~np.eye(m, dtype=bool))
    return (up, w, occ, c, src, np.sqrt(occ[np.arange(len(basis)), c]),
            pairs, w[:, j] * w[:, k])


def _levels(basis: FockBasis) -> tuple[tuple[np.ndarray, ...], ...]:
    """The tables of photon levels 1, ..., n, the last in ``basis``'s own
    order; built on first use and kept on the (immutable) basis."""
    if basis._lift_tables is None:
        basis._lift_tables = tuple(
            _level(basis if k == basis.n else enumerate_basis(basis.m, k, max_dim=None))
            for k in range(1, basis.n + 1))
    return basis._lift_tables


def evolution_matrix(S, basis: FockBasis) -> np.ndarray:
    """Lift any m x m scattering matrix, or a stack (..., m, m), to the
    M x M evolution matrix.

    Built one photon at a time from the 1 x 1 vacuum lift: column q of the
    k-photon lift is sum_j S[j,c] a†_j applied to column q - e_c of the
    (k-1)-photon lift, divided by sqrt(q_c), with c the first occupied mode
    of q. The lift is a group homomorphism and preserves unitarity. Each
    matrix of a stack is lifted by the same elementwise arithmetic as alone.
    """
    S = np.asarray(S, dtype=complex)
    if S.shape[-2:] != (basis.m, basis.m):
        raise ShapeError(
            f"scattering matrix shape {S.shape} does not match basis with m={basis.m}")
    U = np.ones(S.shape[:-2] + (1, 1), dtype=complex)
    for up, w, _, c, src, div, *_ in _levels(basis):
        prev = U[..., src]
        U = np.zeros(S.shape[:-2] + (len(c), len(c)), dtype=complex)
        for j in range(basis.m):  # the rows up[:, j] are distinct
            U[..., up[:, j], :] += w[:, j, None] * S[..., None, j, c] * prev
        # dividing last keeps e.g. the identity lift exactly the identity
        U /= div
    return U


def transition_positions(basis: FockBasis) -> np.ndarray:
    """Flat positions (row * M + column) of the entries of an M x M lift
    that a generator can make nonzero, in the order of
    :func:`transition_entries`: the off-diagonal a†_j a_k, j != k, of every
    state with one photon fewer, then the diagonal. There are
    P = M + m(m-1) dim(m, n-1) of them, all distinct."""
    up, *_, (j, k), _ = _levels(basis)[-1]
    M = len(basis)
    return np.concatenate([(up[:, j] * M + up[:, k]).ravel(), np.arange(M) * (M + 1)])


def transition_entries(A, basis: FockBasis) -> np.ndarray:
    """Entries of :func:`second_quantize` of A, or of each of a stack
    (..., m, m), at :func:`transition_positions`; the lift is zero
    everywhere else. Each off-diagonal entry is A[j,k] w[r,j] w[r,k] for
    the one state r with one photon fewer that a†_j a_k takes it from, and
    the diagonal is sum_j A[j,j] q_j."""
    A = np.asarray(A, dtype=complex)
    if A.shape[-2:] != (basis.m, basis.m):
        raise ShapeError(
            f"generator shape {A.shape} does not match basis with m={basis.m}")
    _, _, occ, *_, (j, k), ww = _levels(basis)[-1]
    off = A[..., None, j, k] * ww
    diag = (np.diagonal(A, axis1=-2, axis2=-1)[..., None, :] * occ).sum(-1)
    return np.concatenate([off.reshape(A.shape[:-2] + (-1,)), diag], axis=-1)


def second_quantize(A, basis: FockBasis) -> np.ndarray:
    """Lift an m x m generator, or a stack (..., m, m), to the photon space.

    Returns sum_{jk} A[j,k] a†_j a_k in the given basis: the
    :func:`transition_entries` of A scattered to their
    :func:`transition_positions`, zero elsewhere. Anti-Hermitian input
    yields anti-Hermitian output.
    """
    entries = transition_entries(A, basis)
    M = len(basis)
    out = np.zeros(entries.shape[:-1] + (M * M,), dtype=complex)
    out[..., transition_positions(basis)] = entries
    return out.reshape(entries.shape[:-1] + (M, M))

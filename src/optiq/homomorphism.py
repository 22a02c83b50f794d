"""Scattering-matrix lifts between the mode space and the photon space.

An m-mode scattering matrix S acts on n indistinguishable photons as an
M x M evolution matrix, M = C(m+n-1, n), defined entrywise by permanents,

    <out| U |in> = per(S[out|in]) / sqrt(prod out_j! * prod in_k!),

where S[out|in] repeats row j of S out_j times and column k in_k times.
The algebra-level lift is second quantization, sum_{jk} A[j,k] a†_j a_k.
Both lifts are computed from tables of creation operators instead: the
group lift photon by photon from U a†_c U† = sum_j S[j,c] a†_j (Scheel,
quant-ph/0406127), the algebra lift from a†_j a_k = sum_r a†_j |r><r| a_k.
The group lift gathers each photon level in column blocks of bounded
bytes, with the products and the order of sums of that recursion. The
tables are built once per basis and kept on it, so a lift costs only its
arithmetic. Both lift a stack (..., m, m) of matrices as well as one.

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
from .fock import FockBasis, _compositions

#: evolution_matrix's column blocks keep each temporary within about this many bytes.
LIFT_BLOCK_BYTES = 2**20


def _level(basis: FockBasis) -> tuple:
    """(up, w, c, src, div, pos, terms) for the states of ``basis``:
    a†_j |r> = w[r, j] |up[r, j]> for the lex-ordered states r with one
    photon fewer (w = sqrt(r_j + 1)). terms[t] is (j, r, w[r, j]), r = q - e_j,
    for the t-th occupied mode j of each state q that has one, in the lift's
    rows pos[q] by descending mode count; (c, src, div) is terms[0] per q."""
    m = basis.m
    lower = np.array(list(_compositions(m, basis.n - 1)))
    raised = lower[:, None, :] + np.eye(m, dtype=int)
    up = np.reshape([basis.index_of(s) for s in raised.reshape(-1, m).tolist()], (-1, m))
    w = np.sqrt(lower + 1.0)
    count = (np.array(basis.states) > 0).sum(axis=1)
    pos = np.argsort(np.argsort(-count, kind="stable"))
    # mode j of q = r + e_j is its t-th, t the modes r occupies below j
    t, row = np.cumsum(lower > 0, axis=1) - (lower > 0), pos[up]
    j, r, wj = (np.zeros((count.max(), len(basis)), dtype=d) for d in (int, int, float))
    j[t, row], r[t, row], wj[t, row] = np.arange(m), np.arange(len(lower))[:, None], w
    # weight 0 marks the rows past the states that have a t-th mode
    terms = tuple((j[i, :k], r[i, :k], wj[i, :k]) for i, k in enumerate(np.count_nonzero(wj, 1)))
    return (up, w, *(a[pos] for a in terms[0]), pos, terms)


def _levels(basis: FockBasis) -> tuple[tuple, ...]:
    """The tables of photon levels 1, ..., n, the last in ``basis``'s own
    order; built on first use and kept on the (immutable) basis."""
    if "levels" not in basis._lift_tables:
        basis._lift_tables["levels"] = tuple(
            _level(basis if k == basis.n else FockBasis(basis.m, k, _compositions(basis.m, k)))
            for k in range(1, basis.n + 1))
    return basis._lift_tables["levels"]


def _transitions(basis: FockBasis) -> tuple[np.ndarray, ...]:
    """(up, occ, j, k, ww): the top level's up, the occupations occ[q], the
    mode pairs j != k and ww[r, i] = w[r, j] w[r, k]. They grow as m^2, so
    only the generator lift builds them, on first use; kept on the basis."""
    if "transitions" not in basis._lift_tables:
        up, w, *_ = _levels(basis)[-1]
        j, k = np.nonzero(~np.eye(basis.m, dtype=bool))
        basis._lift_tables["transitions"] = (up, np.array(basis.states), j, k, w[:, j] * w[:, k])
    return basis._lift_tables["transitions"]


def evolution_matrix(S, basis: FockBasis) -> np.ndarray:
    """Lift any m x m scattering matrix, or a stack (..., m, m), to the
    M x M evolution matrix.

    Built one photon at a time from the 1 x 1 vacuum lift: column q of the
    k-photon lift is sum_j S[j,c] a†_j applied to column q - e_c of the
    (k-1)-photon lift, divided by sqrt(q_c), with c the first occupied mode
    of q: entry (p, q) sums w S[j,c] times entry (p - e_j, q - e_c) over
    p's modes j in ascending order, onto zero, in column blocks of about
    LIFT_BLOCK_BYTES. The lift is a group homomorphism and preserves
    unitarity; a stack's matrices get the same elementwise arithmetic as alone.
    """
    S = np.asarray(S, dtype=complex)
    if S.shape[-2:] != (basis.m, basis.m):
        raise ShapeError(
            f"scattering matrix shape {S.shape} does not match basis with m={basis.m}")
    U = np.ones(S.shape[:-2] + (1, 1), dtype=complex)
    for _, _, c, src, div, pos, terms in _levels(basis):
        M = len(c)
        prev, U = U, np.empty(S.shape[:-2] + (M, M), dtype=complex)
        width = max(1, LIFT_BLOCK_BYTES // (16 * M * max(1, S.size // basis.m**2)))
        for cols in (slice(b, b + width) for b in range(0, M, width)):
            S_c, prev_c = S[..., c[cols]], prev[..., src[cols]]
            acc = np.zeros(S_c.shape[:-2] + (M, S_c.shape[-1]), dtype=complex)
            for j, r, wj in terms:
                acc[..., :len(j), :] += wj[:, None] * S_c[..., j, :] * prev_c[..., r, :]
            U[..., cols] = acc[..., pos, :]
        # dividing last keeps e.g. the identity lift exactly the identity
        U /= div
    return U


def transition_positions(basis: FockBasis) -> np.ndarray:
    """Flat positions (row * M + column) of the entries of an M x M lift
    that a generator can make nonzero, in the order of
    :func:`transition_entries`: the off-diagonal a†_j a_k, j != k, of every
    state with one photon fewer, then the diagonal. There are
    P = M + m(m-1) dim(m, n-1) of them, all distinct."""
    up, _, j, k, _ = _transitions(basis)
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
    _, occ, j, k, ww = _transitions(basis)
    off = A[..., None, j, k] * ww
    diag = (np.diagonal(A, axis1=-2, axis2=-1)[..., None, :] * occ).sum(-1)
    return np.concatenate([off.reshape(A.shape[:-2] + (ww.size,)), diag], axis=-1)


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

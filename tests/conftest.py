import os

# one BLAS thread, as CI and the benchmark run, unless the shell sets it;
# set before numpy loads OpenBLAS, which reads it once
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import math  # noqa: E402

import numpy as np  # noqa: E402
import pytest  # noqa: E402
import scipy.linalg  # noqa: E402

import golden  # noqa: E402
from optiq import approx  # noqa: E402
from optiq.errors import ShapeError  # noqa: E402
from optiq.fock import enumerate_basis  # noqa: E402
from optiq.homomorphism import transition_positions  # noqa: E402
from optiq.lie import ImageBasis, build_image_basis  # noqa: E402
from optiq.validate import as_complex_matrix, require_same_shape  # noqa: E402


_listdir, _waitpid = os.listdir, os.waitpid  # as they are before any test patches them


@pytest.fixture(autouse=True)
def nothing_left_open():
    """Each test leaves no child process and no new open descriptor: every
    forked worker is reaped and every pipe closed, whether a search
    succeeds or fails."""
    fds = _listdir("/dev/fd")
    yield
    with pytest.raises(ChildProcessError):
        _waitpid(-1, os.WNOHANG)
    assert _listdir("/dev/fd") == fds


@pytest.fixture(scope="session")
def basis22():
    """The reference-ordered two-photon, two-mode basis."""
    return enumerate_basis(2, 2, ordering=golden.ORDER_22)


@pytest.fixture(scope="session")
def image22(basis22):
    return build_image_basis(basis22)


@pytest.fixture(scope="session")
def basis22_lex():
    return enumerate_basis(2, 2)


@pytest.fixture(scope="session")
def image22_lex(basis22_lex):
    return build_image_basis(basis22_lex)


@pytest.fixture(scope="session")
def image23():
    return build_image_basis(enumerate_basis(2, 3))


@pytest.fixture
def iterates(monkeypatch):
    """Every (S, lift(S)) pair the engine forms, in order, one per matrix of
    its stack: the pairs of one approximate() run are its iterates 0, 1,
    ..., one per trace record. Clear it between runs."""
    pairs = []
    lift = approx.evolution_matrix

    def recorded(S, basis):
        U = lift(S, basis)
        pairs.extend(zip(S, U))
        return U

    monkeypatch.setattr(approx, "evolution_matrix", recorded)
    return pairs


def inner(u, v) -> float:
    """The trace metric (1/2) tr(u† v + v† u); inner(u, u) = ||u||_F^2."""
    u = as_complex_matrix(u, "inner operand")
    v = as_complex_matrix(v, "inner operand")
    require_same_shape(u, v, "inner operands")
    return float(np.real(np.sum(np.conj(u) * v)))


def dense_image_basis(basis, elements, preimages):
    """An ImageBasis from dense (m*m, M, M) elements, for hand-built and
    corrupted bases: its support is the basis's transition positions, then
    every other position where an element is nonzero, so the basis keeps
    exactly its dense meaning."""
    flat = np.asarray(elements, dtype=complex).reshape(len(elements), -1)
    positions = transition_positions(basis)
    elsewhere = flat.any(axis=0)
    elsewhere[positions] = False
    support = np.concatenate([positions, np.flatnonzero(elsewhere)])
    return ImageBasis(basis, support, flat.take(support, axis=1),
                      np.asarray(preimages, dtype=complex))


def haar(rng, m):
    """Independent Haar sampler for tests (QR of a Ginibre draw with the
    R-diagonal phase correction), driven by a shared Generator."""
    Z = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    Q, R = np.linalg.qr(Z)
    d = np.diagonal(R)
    return Q * (d / np.abs(d))


def schur_log(U, branch=0):
    """Oracle: the principal logarithm from the complex Schur form, which is
    diagonal for unitary U. ``branch`` (0 or 1 per eigenvalue, in Schur
    order) adds 2 pi to those angles, giving the other logarithms of U."""
    T, Q = scipy.linalg.schur(U, output="complex")
    theta = np.angle(np.diagonal(T)) + 2 * np.pi * np.asarray(branch)
    v = (Q * (1j * theta)) @ Q.conj().T
    return (v - v.conj().T) / 2.0


def permanent(A) -> complex:
    """Oracle: permanent of a square complex matrix by Ryser's formula with
    Gray-code subset updates, O(2^k k) time. The empty matrix has
    permanent 1."""
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ShapeError(f"permanent requires a square matrix, got shape {A.shape}")
    k = A.shape[0]
    if k == 0:
        return complex(1.0)
    rowsum = np.zeros(k, dtype=complex)
    total = 0.0 + 0.0j
    parity = 1  # (-1)^{|subset|}, flips once per Gray-code step
    gray = 0
    for s in range(1, 1 << k):
        bit = s & -s
        j = bit.bit_length() - 1
        gray ^= bit
        if gray & bit:
            rowsum += A[:, j]
        else:
            rowsum -= A[:, j]
        parity = -parity
        total += parity * rowsum.prod()
    return complex(total if k % 2 == 0 else -total)


def evolution_matrix_oracle(S, basis):
    """Oracle: the entrywise permanent formula that defines the lift."""
    S = np.asarray(S, dtype=complex)
    modes = np.arange(basis.m)
    reps = [np.repeat(modes, state) for state in basis.states]
    facts = [math.prod(math.factorial(x) for x in state) for state in basis.states]
    M = len(basis)
    U = np.empty((M, M), dtype=complex)
    for q in range(M):
        for p in range(M):
            U[p, q] = (permanent(S[np.ix_(reps[p], reps[q])])
                       / math.sqrt(facts[p] * facts[q]))
    return U

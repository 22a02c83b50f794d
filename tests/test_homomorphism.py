import itertools
import random
import tracemalloc

import numpy as np
import pytest

import golden
from conftest import evolution_matrix_oracle, haar, permanent
from optiq import homomorphism
from optiq.errors import ShapeError
from optiq.fock import dimension, enumerate_basis
from optiq.homomorphism import (_levels, evolution_matrix, second_quantize,
                                transition_entries, transition_positions)
from optiq.lie import matrix_exp


def exp_lift(A, basis):
    """exp(second_quantize(A)); equals evolution_matrix(exp(A)) for A in u(m)."""
    return matrix_exp(second_quantize(A, basis))


def second_quantize_dense(A, basis):
    """Oracle: the dense lift as one fancy-indexed assignment per pattern,
    sum_{jk} A[j,k] a†_j a_k with off-diagonal entries A[j,k] w[r,j] w[r,k]
    and diagonal sum_j A[j,j] q_j."""
    A = np.asarray(A, dtype=complex)
    up, w, *_ = _levels(basis)[-1]
    occ = np.array(basis.states)
    j, k = np.nonzero(~np.eye(basis.m, dtype=bool))
    M = len(basis)
    out = np.zeros(A.shape[:-2] + (M, M), dtype=complex)
    out[..., up[:, j], up[:, k]] = A[..., None, j, k] * (w[:, j] * w[:, k])
    diag = np.arange(M)
    out[..., diag, diag] = (np.diagonal(A, axis1=-2, axis2=-1)[..., None, :] * occ).sum(-1)
    return out


def permanent_naive(A):
    """Oracle: definition as a sum over all permutations."""
    A = np.asarray(A, dtype=complex)
    k = A.shape[0]
    total = 0.0 + 0.0j
    for perm in itertools.permutations(range(k)):
        total += np.prod([A[i, perm[i]] for i in range(k)])
    return total


def shuffled(m, n, seed):
    states = list(enumerate_basis(m, n).states)
    random.Random(seed).shuffle(states)
    return states


def random_anti_hermitian(rng, m):
    Z = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    return (Z - Z.conj().T) / 2


class TestPermanent:
    def test_two_by_two(self):
        a, b, c, d = 1.5, 2 - 1j, 0.25j, -3.0
        assert permanent([[a, b], [c, d]]) == pytest.approx(a * d + b * c)

    def test_all_ones(self):
        assert permanent(np.ones((3, 3))) == pytest.approx(6.0)

    def test_empty_and_single(self):
        assert permanent(np.zeros((0, 0))) == 1.0
        assert permanent([[3.5j]]) == pytest.approx(3.5j)

    def test_against_naive_oracle(self):
        rng = np.random.default_rng(11)
        for k in range(2, 7):
            for _ in range(5):
                A = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
                got = permanent(A)
                want = permanent_naive(A)
                assert abs(got - want) <= 1e-12 * abs(want)

    def test_rejects_non_square(self):
        with pytest.raises(ShapeError):
            permanent(np.ones((2, 3)))


class TestEvolutionMatrix:
    def test_identity_lifts_to_identity(self, basis22):
        assert np.array_equal(evolution_matrix(np.eye(2), basis22), np.eye(3))

    def test_reference_scattering_matrix(self, basis22):
        got = evolution_matrix(golden.SA3, basis22)
        assert np.max(np.abs(got - golden.UA3)) < 1e-4
        assert abs(got[0, 2] - 0.70711) < 1e-4

    def test_diagonal_formula(self, basis22):
        # derived by hand from the permanent of 1x1 and 2x2 diagonal blocks
        t1, t2 = 0.31, -1.2
        S = np.diag([np.exp(1j * t1), np.exp(1j * t2)])
        want = np.diag([np.exp(2j * t1), np.exp(2j * t2), np.exp(1j * (t1 + t2))])
        assert np.allclose(evolution_matrix(S, basis22), want, atol=1e-12)

    def test_shape_mismatch(self, basis22):
        with pytest.raises(ShapeError):
            evolution_matrix(np.eye(3), basis22)

    @pytest.mark.parametrize("m,n,ordering", [
        pytest.param(1, 3, "lex_desc", id="1-3"),
        pytest.param(2, 2, golden.ORDER_22, id="2-2-golden"),
        pytest.param(3, 3, "lex_desc", id="3-3"),
        pytest.param(4, 3, shuffled(4, 3, seed=43), id="4-3-shuffled"),
        pytest.param(5, 4, "lex_desc", id="5-4"),
    ])
    def test_matches_permanent_oracle(self, m, n, ordering):
        basis = enumerate_basis(m, n, ordering)
        rng = np.random.default_rng(10 * m + n)
        ginibre = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        for S in (haar(rng, m), ginibre):
            want = evolution_matrix_oracle(S, basis)
            got = evolution_matrix(S, basis)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        # the algebra lift against the same definition
        A = random_anti_hermitian(rng, m)
        want = evolution_matrix_oracle(matrix_exp(A), basis)
        assert np.linalg.norm(exp_lift(A, basis) - want) < 1e-9

    @pytest.mark.parametrize("m,n,ordering", [
        pytest.param(2, 2, golden.ORDER_22, id="2-2-golden"),
        pytest.param(3, 3, "lex_desc", id="3-3"),
        pytest.param(5, 4, "lex_desc", id="5-4"),
    ])
    def test_stack_matches_each_matrix(self, m, n, ordering):
        basis = enumerate_basis(m, n, ordering)
        rng = np.random.default_rng(20 * m + n)
        ginibre = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
        S = np.array([haar(rng, m) for _ in range(5)] + [ginibre])
        got = evolution_matrix(S, basis)
        assert got.shape == (6, len(basis), len(basis))
        for i in range(len(S)):
            assert np.array_equal(got[i], evolution_matrix(S[i], basis))
        assert np.array_equal(evolution_matrix(S.reshape(2, 3, m, m), basis),
                              got.reshape(2, 3, len(basis), len(basis)))

    @pytest.mark.parametrize("m,n,k", [(3, 3, 7), (5, 4, 5)])
    def test_column_blocks_keep_the_bits(self, m, n, k, monkeypatch):
        # the default lifts each level of these stacks in one block; one
        # column per block, or three at the top level (where the last block
        # is ragged), gives the same bits
        basis = enumerate_basis(m, n)
        rng = np.random.default_rng(30 * m + n)
        S = np.array([haar(rng, m) for _ in range(k)])
        want = evolution_matrix(S, basis)
        M = len(basis)
        assert M % 3 and 16 * M * M * k <= homomorphism.LIFT_BLOCK_BYTES
        for block_bytes in (1, 3 * 16 * M * k):
            monkeypatch.setattr(homomorphism, "LIFT_BLOCK_BYTES", block_bytes)
            assert np.array_equal(evolution_matrix(S, basis), want)

    @pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_homomorphism_and_unitarity(self, m, n):
        basis = enumerate_basis(m, n)
        rng = np.random.default_rng(100 * m + n)
        M = len(basis)
        for _ in range(10):
            S1, S2 = haar(rng, m), haar(rng, m)
            U1, U2 = evolution_matrix(S1, basis), evolution_matrix(S2, basis)
            assert np.linalg.norm(evolution_matrix(S1 @ S2, basis) - U1 @ U2) < 1e-9
            assert np.linalg.norm(U1.conj().T @ U1 - np.eye(M)) < 1e-9
            assert np.linalg.norm(evolution_matrix(S1.conj().T, basis) - U1.conj().T) < 1e-9

    def test_first_lift_memory_follows_its_result(self):
        # one photon in 1500 modes: the first lift builds its tables too,
        # but not the generator lift's m(m - 1) mode pairs
        basis = enumerate_basis(1500, 1)
        rng = np.random.default_rng(8)
        S = np.eye(1500)[rng.permutation(1500)] * np.exp(1j * rng.uniform(-np.pi, np.pi, 1500))
        tracemalloc.start()
        try:
            U = evolution_matrix(S, basis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(U, S)
        assert peak < 2 * U.nbytes, (peak, U.nbytes)


class TestSecondQuantize:
    def test_zero(self, basis22):
        assert np.array_equal(second_quantize(np.zeros((2, 2)), basis22),
                              np.zeros((3, 3)))

    def test_scaled_identity_counts_photons(self):
        for m, n in [(2, 2), (3, 2), (2, 3)]:
            basis = enumerate_basis(m, n)
            got = second_quantize(1j * np.eye(m), basis)
            assert np.allclose(got, 1j * n * np.eye(len(basis)), atol=1e-12)

    def test_reference_tangent_projection_is_reachable(self, basis22):
        # generator extracted from the reference projection: diagonal entries
        # are halved diagonal phases, off-diagonal couples through sqrt(2)
        a, b, d = -0.89062 / 2, -2.251 / 2, 0.22672 / np.sqrt(2)
        h = np.array([[1j * a, 1j * d], [1j * d, 1j * b]])
        assert np.max(np.abs(second_quantize(h, basis22) - golden.LOG_U_T)) < 1e-4

    def test_algebra_homomorphism(self, basis22):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a, b = random_anti_hermitian(rng, 2), random_anti_hermitian(rng, 2)
            da, db = second_quantize(a, basis22), second_quantize(b, basis22)
            want = da @ db - db @ da
            got = second_quantize(a @ b - b @ a, basis22)
            assert np.linalg.norm(got - want) < 1e-9

    def test_output_is_anti_hermitian(self):
        rng = np.random.default_rng(4)
        basis = enumerate_basis(3, 3)
        for _ in range(5):
            dA = second_quantize(random_anti_hermitian(rng, 3), basis)
            assert np.linalg.norm(dA + dA.conj().T) == 0.0

    def test_derivative_of_group_lift(self, basis22):
        rng = np.random.default_rng(5)
        A = random_anti_hermitian(rng, 2)
        A /= np.linalg.norm(A)
        t = 1e-6
        finite = (evolution_matrix(matrix_exp(t * A), basis22) - np.eye(3)) / t
        assert np.linalg.norm(finite - second_quantize(A, basis22)) < 1e-5

    def test_shape_mismatch(self, basis22):
        with pytest.raises(ShapeError):
            second_quantize(np.zeros((3, 3)), basis22)
        with pytest.raises(ShapeError):
            transition_entries(np.zeros((3, 3)), basis22)

    @pytest.mark.parametrize("m, n, ordering", [
        pytest.param(2, 2, golden.ORDER_22, id="2-2-golden"),
        pytest.param(3, 3, "lex_desc", id="3-3"),
        pytest.param(5, 4, "lex_desc", id="5-4"),
    ])
    def test_scatter_of_transition_entries(self, m, n, ordering):
        # the same bits as the dense oracle, on a stack and alone, and zero
        # off the P = M + m(m-1) dim(m, n-1) distinct transition positions
        basis = enumerate_basis(m, n, ordering=ordering)
        M = len(basis)
        rng = np.random.default_rng(m * 10 + n)
        A = rng.standard_normal((2, 3, m, m)) + 1j * rng.standard_normal((2, 3, m, m))
        got = second_quantize(A, basis)
        assert np.array_equal(got, second_quantize_dense(A, basis))
        assert np.array_equal(got[1, 2], second_quantize(A[1, 2], basis))
        pos = transition_positions(basis)
        assert len(np.unique(pos)) == len(pos) == M + m * (m - 1) * dimension(m, n - 1)
        assert np.array_equal(got.reshape(2, 3, -1)[..., pos], transition_entries(A, basis))
        off = np.ones(M * M, dtype=bool)
        off[pos] = False
        assert not got.reshape(2, 3, -1)[..., off].any()


class TestExpLift:
    def test_zero(self, basis22):
        assert np.allclose(exp_lift(np.zeros((2, 2)), basis22), np.eye(3), atol=1e-15)

    def test_two_paths_agree(self, basis22):
        rng = np.random.default_rng(6)
        for _ in range(10):
            A = random_anti_hermitian(rng, 2)
            direct = exp_lift(A, basis22)
            via_group = evolution_matrix(matrix_exp(A), basis22)
            assert np.linalg.norm(direct - via_group) < 1e-9

    def test_full_photon_phase(self, basis22):
        got = exp_lift(1j * np.pi * np.eye(2), basis22)
        assert np.allclose(got, np.eye(3), atol=1e-12)  # exp(2 pi i) = 1

import itertools
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

import golden
from conftest import dense_image_basis, haar, inner, schur_log
from optiq import lie
from optiq.errors import InternalConsistencyError, RankDeficiencyError, ShapeError
from optiq.fock import dimension, enumerate_basis
from optiq.homomorphism import evolution_matrix, second_quantize
from optiq.lie import (_orthonormalize, build_image_basis, distance,
                       matrix_exp, polar_unitary, principal_log, project,
                       unitary_algebra_generators)


def random_anti_hermitian(rng, d):
    Z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (Z - Z.conj().T) / 2


def near_first_pole(offset, rotate):
    """10 x 10 unitary with one eigenvalue ``offset`` radians from the first
    Cayley pole and the others spread over (-0.4, 2.9); returns it and its
    eigenvalues."""
    rng = np.random.default_rng(41)
    pole = -np.exp(1j * (lie.CAYLEY_SHIFT + offset))
    phases = np.append(pole, np.exp(1j * np.linspace(-0.4, 2.9, 9)))
    Q = haar(rng, 10) if rotate else np.eye(10)
    return (Q * phases) @ Q.conj().T, phases


def off_pattern(image22):
    """The basis in ``ORDER_22`` with element 0 corrupted by an
    anti-Hermitian pair between |2,0> and |0,2>, which no a†_j a_k
    connects: off the transition pattern, so it joins the support."""
    elements = image22.elements.copy()
    elements[0, 0, 1], elements[0, 1, 0] = 1e-3, -1e-3
    return dense_image_basis(image22.basis, elements, image22.preimages)


def record_cayley_passes(monkeypatch):
    """Record (stack shape, shift) of every Cayley pass principal_log makes."""
    passes = []
    cayley_eigh = lie._cayley_eigh

    def recorded(U, alpha):
        passes.append((U.shape, alpha))
        return cayley_eigh(U, alpha)

    monkeypatch.setattr(lie, "_cayley_eigh", recorded)
    return passes


class TestInner:
    def test_self_inner_is_squared_frobenius(self):
        rng = np.random.default_rng(0)
        u = random_anti_hermitian(rng, 4)
        assert inner(u, u) == pytest.approx(np.linalg.norm(u) ** 2, rel=1e-12)

    def test_disjoint_support(self):
        e1 = np.zeros((3, 3), dtype=complex)
        e2 = np.zeros((3, 3), dtype=complex)
        e1[0, 0] = 1j
        e2[1, 1] = 1j
        assert inner(e1, e2) == 0.0

    def test_elementwise_trace_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            a, b = random_anti_hermitian(rng, 3), random_anti_hermitian(rng, 3)
            want = -sum(a[j, k] * b[k, j] for j in range(3) for k in range(3))
            assert abs(want.imag) < 1e-12
            assert inner(a, b) == pytest.approx(want.real, abs=1e-12)

    def test_positive_definite(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            u = random_anti_hermitian(rng, 3)
            if np.linalg.norm(u) > 0:
                assert inner(u, u) > 0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            inner(np.zeros((2, 2)), np.zeros((3, 3)))


class TestPrincipalLog:
    def test_identity(self):
        assert np.allclose(principal_log(np.eye(4)), 0, atol=1e-12)

    def test_minus_identity_maps_to_plus_pi(self):
        v = principal_log(-np.eye(2))
        assert np.allclose(v, 1j * np.pi * np.eye(2), atol=1e-12)

    def test_reference_target(self, basis22):
        assert np.max(np.abs(principal_log(golden.QFT3) - golden.LOG_U)) < 1e-4

    def test_round_trip_and_angle_range(self):
        rng = np.random.default_rng(3)
        for i in range(100):
            M = 2 + i % 9
            U = haar(rng, M)
            v = principal_log(U)
            assert np.linalg.norm(v + v.conj().T) < 1e-12
            assert distance(matrix_exp(v), U) < 1e-9
            angles = np.linalg.eigvalsh(-1j * v)
            assert np.all(angles <= np.pi + 1e-9)
            assert np.all(angles > -np.pi)

    def test_engineered_minus_one_eigenvalue(self):
        rng = np.random.default_rng(4)
        Q = haar(rng, 3)
        U = (Q * np.array([-1.0, np.exp(0.4j), np.exp(-1.1j)])) @ Q.conj().T
        v = principal_log(U)
        assert distance(matrix_exp(v), U) < 1e-9
        angles = np.linalg.eigvalsh(-1j * v)
        assert np.all(np.abs(angles) <= np.pi + 1e-9)
        # one angle sits at the branch point, magnitude pi either way
        assert np.min(np.abs(np.abs(angles) - np.pi)) < 1e-9

    def test_minimality_over_shifted_branches(self):
        # every other logarithm adds 2 pi to some eigenangles and is longer
        rng = np.random.default_rng(5)
        for _ in range(10):
            U = haar(rng, 3)
            v = principal_log(U)
            for mask in itertools.product((0, 1), repeat=3):
                if not any(mask):
                    continue
                w = schur_log(U, mask)
                assert distance(matrix_exp(w), U) < 1e-9
                assert np.linalg.norm(v) <= np.linalg.norm(w) + 1e-12

    @pytest.mark.parametrize("M", [3, 10, 35, 70])
    def test_matches_schur_oracle(self, M):
        rng = np.random.default_rng(40 + M)
        shift_rng = np.random.default_rng(M)
        for _ in range(20):
            U = haar(rng, M)
            want = schur_log(U)
            assert np.max(np.abs(principal_log(U) - want)) < 1e-12
            # a carried shift, and one whose pole sits on an eigenvalue (the
            # retry path); the shift is overwritten with one whose pole sits
            # mid-gap, at least half the widest gap (>= 2 pi / M) from every
            # eigenvalue
            eigenvalues = np.linalg.eigvals(U)
            for alpha in (shift_rng.uniform(-np.pi, np.pi), np.angle(eigenvalues[0]) - np.pi):
                shift = np.array(alpha)
                assert np.max(np.abs(principal_log(U, shift) - want)) < 1e-12
                pole = -np.exp(1j * shift)
                assert np.min(np.abs(eigenvalues - pole)) > 2 * np.sin(np.pi / (2 * M)) - 1e-9

    def test_degenerate_spectra(self):
        # a diagonal phase lifts to a diagonal U with repeated eigenvalues
        basis = enumerate_basis(3, 3)
        U = evolution_matrix(np.diag(np.exp([0.3j, 0.3j, -0.5j])), basis)
        assert np.max(np.abs(principal_log(U) - schur_log(U))) < 1e-12
        # the unitary 8-point DFT has eigenvalues +-1 and +-i, each repeated;
        # its -1 carries roundoff, so either sign of pi is a principal angle
        F = np.fft.fft(np.eye(8)) / np.sqrt(8)
        v = principal_log(F)
        assert distance(matrix_exp(v), F) < 1e-12
        assert np.linalg.norm(v + v.conj().T) < 1e-12
        assert np.linalg.norm(v) == pytest.approx(np.linalg.norm(schur_log(F)), abs=1e-12)
        assert np.max(np.abs(np.linalg.eigvalsh(-1j * v))) <= np.pi + 1e-12

    @pytest.mark.parametrize("offset,rotate", [
        (0.0, False), (0.0, True), (1e-6, True), (1e-3, True),
    ], ids=["exact-diagonal", "exact-rotated", "within-1e-6", "within-1e-3"])
    def test_eigenvalue_near_first_pole(self, monkeypatch, offset, rotate):
        passes = record_cayley_passes(monkeypatch)
        U, phases = near_first_pole(offset, rotate)
        assert np.max(np.abs(principal_log(U) - schur_log(U))) < 1e-12
        shifts = [alpha for _, alpha in passes]
        assert shifts[0] == lie.CAYLEY_SHIFT and len(shifts) == 2
        if offset < 1e-5:
            # a singular or nearly singular first pass retries the next shift
            assert shifts[1] == lie.CAYLEY_SHIFT + 1
        else:
            # the second pole sits mid-gap, at least half the widest gap
            # (here > 2 pi / 10) from every eigenvalue
            second_pole = -np.exp(1j * shifts[1])
            assert np.min(np.abs(phases - second_pole)) > 2 * np.sin(np.pi / 20)

    def test_exact_minus_one_maps_to_plus_pi(self):
        U = np.diag([-1.0, np.exp(0.4j), np.exp(-1.1j)])
        assert principal_log(U)[0, 0] == pytest.approx(1j * np.pi, abs=1e-15)
        # a swap has eigenvectors (1, -1)/sqrt(2); the -1 it reads is real
        swap = np.array([[0.0, 1.0], [1.0, 0.0]])
        want = 0.5j * np.pi * np.array([[1, -1], [-1, 1]])
        assert np.max(np.abs(principal_log(swap) - want)) < 1e-12

    def test_rejects_non_unitary(self):
        from optiq.errors import UnitarityError
        with pytest.raises(UnitarityError):
            principal_log(np.eye(3) * 1.5)

    def test_stack_matches_each_matrix(self, monkeypatch):
        # a plain Haar draw, one exactly singular first pass (which fails
        # the stacked solve), one near-singular first pass (both retry at
        # the next fixed shift) and one that takes the mid-gap pass
        U = np.array([haar(np.random.default_rng(42), 10),
                      near_first_pole(0.0, False)[0],
                      near_first_pole(1e-6, True)[0],
                      near_first_pole(1e-3, True)[0]])
        passes = record_cayley_passes(monkeypatch)
        got = principal_log(U)
        stacked = list(passes)
        for i in range(len(U)):
            assert np.array_equal(got[i], principal_log(U[i]))
        assert np.array_equal(principal_log(U.reshape(2, 2, 10, 10)), got.reshape(2, 2, 10, 10))
        # the first pass covers the stack, once stacked and, as its solve
        # fails, once per matrix; the retry and the mid-gap pass cover
        # only the matrices that need them
        shapes = [(shape[0], alpha.tolist()) for shape, alpha in stacked]
        assert shapes[:5] == [(4, [lie.CAYLEY_SHIFT] * 4)] + [(1, [lie.CAYLEY_SHIFT])] * 4
        assert shapes[5] == (2, [lie.CAYLEY_SHIFT + 1] * 2)
        assert shapes[6][0] == 1 and len(shapes) == 7
        # no shifts is a fresh array of the fixed shift
        assert np.array_equal(principal_log(U, np.full(U.shape[:-2], lie.CAYLEY_SHIFT)), got)
        # likewise with a carried shift per matrix; the pole of matrix 1
        # again sits exactly on an eigenvalue and fails the stacked solve
        shifts = np.array([0.3, lie.CAYLEY_SHIFT, -2.0, 1.0])
        each = [np.array(alpha) for alpha in shifts]
        got = principal_log(U, shifts)
        for i in range(len(U)):
            assert np.array_equal(got[i], principal_log(U[i], each[i]))
            assert shifts[i] == each[i]
            assert np.max(np.abs(got[i] - schur_log(U[i]))) < 1e-12
        # shifts are written in place, so they must be a float64 array of
        # the stack's shape; a non-finite shift would be retried forever
        for bad, error in [(np.zeros(4, dtype=int), TypeError), ([0.0] * 4, TypeError),
                           (0.0, TypeError), (np.zeros(3), ShapeError),
                           (np.zeros((4, 1)), ShapeError),
                           (np.array([0.3, np.nan, 0.0, 0.0]), ValueError),
                           (np.full(4, np.inf), ValueError),
                           (np.array([0.0, 0.0, 0.0, -np.inf]), ValueError)]:
            with pytest.raises(error, match="shifts"):
                principal_log(U, bad)

    def test_stack_names_non_unitary_member(self):
        from optiq.errors import UnitarityError
        U = np.array([np.eye(3), np.eye(3), 1.5 * np.eye(3)])
        with pytest.raises(UnitarityError, match=r"\[2\]"):
            principal_log(U)


class TestMatrixExp:
    def test_zero(self):
        assert np.array_equal(matrix_exp(np.zeros((3, 3))), np.eye(3))

    def test_diagonal(self):
        got = matrix_exp(1j * np.diag([np.pi / 2, -np.pi / 2]))
        assert np.allclose(got, np.diag([1j, -1j]), atol=1e-15)

    def test_rejects_a_vector(self):
        with pytest.raises(ShapeError, match=r"got shape \(3,\)"):
            matrix_exp(np.ones(3))

    def test_result_unitary(self):
        rng = np.random.default_rng(6)
        v = random_anti_hermitian(rng, 5)
        E = matrix_exp(v)
        assert np.linalg.norm(E.conj().T @ E - np.eye(5)) < 1e-12

    @pytest.mark.parametrize("M", [3, 10, 35])
    def test_stack_matches_each_matrix(self, M):
        rng = np.random.default_rng(60 + M)
        v = np.array([random_anti_hermitian(rng, M) for _ in range(5)])
        got = matrix_exp(v)
        for i in range(len(v)):
            assert np.array_equal(got[i], matrix_exp(v[i]))


def drifted_unitaries(rng, M, count):
    return np.array([haar(rng, M) + 1e-8 * rng.standard_normal((M, M))
                     for _ in range(count)])


def test_polar_unitary_rejects_non_square():
    with pytest.raises(ShapeError, match=r"got shape \(2, 3\)"):
        polar_unitary(np.ones((2, 3)))


def test_polar_unitary_projects():
    rng = np.random.default_rng(7)
    U = haar(rng, 4)
    drifted = U + 1e-8 * rng.standard_normal((4, 4))
    P = polar_unitary(drifted)
    assert np.linalg.norm(P.conj().T @ P - np.eye(4)) < 1e-13
    assert distance(P, U) < 1e-7


def test_polar_unitary_stack_matches_each_matrix():
    A = drifted_unitaries(np.random.default_rng(70), 10, 5)
    got = polar_unitary(A)
    for i in range(len(A)):
        assert np.array_equal(got[i], polar_unitary(A[i]))


def test_polar_unitary_falls_back_to_gesvd(monkeypatch):
    # gesdd can fail to converge on a finite, nearly unitary matrix; the
    # fallback gives gesvd's polar factor to roundoff, also far from unitary
    A = drifted_unitaries(np.random.default_rng(71), 6, 3)
    want = [polar_unitary(a) for a in A]
    rng = np.random.default_rng(72)
    # singular values 0.7 to 1.3: full rank, 0.3 from unitary
    far = (haar(rng, 70) * np.linspace(0.7, 1.3, 70)) @ haar(rng, 70)
    gesvd = []
    for a in (A[1], far):
        W, _, Vh = scipy.linalg.svd(a, lapack_driver="gesvd")
        gesvd.append(W @ Vh)
    svd = np.linalg.svd

    def gesdd_fails(a, *args, **kwargs):
        if a.ndim > 2 or np.array_equal(a, A[1]) or a.shape == far.shape:
            raise np.linalg.LinAlgError("SVD did not converge")
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", gesdd_fails)
    # on a stack, only the failing member takes the fallback
    got = polar_unitary(A)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[2], want[2])
    assert np.array_equal(got[1], polar_unitary(A[1]))
    assert distance(got[1], want[1]) < 1e-13
    for P, W_Vh in [(got[1], gesvd[0]), (polar_unitary(far), gesvd[1])]:
        assert np.max(np.abs(P - W_Vh)) < 1e-12
        assert np.linalg.norm(P.conj().T @ P - np.eye(len(P))) < 1e-13


def dense_build(basis):
    """Reference: the u(m) generators lifted to whole M x M matrices and
    orthonormalized as one (m*m, M, M) stack; returns (elements,
    preimages)."""
    gens = np.array(unitary_algebra_generators(basis.m))
    return _orthonormalize(second_quantize(gens, basis), gens)


def gram_schmidt_oracle(basis):
    """Modified Gram-Schmidt with one re-orthogonalization pass over the
    lifted u(m) generators, carrying the same combinations on the
    preimages. Slow but obvious; returns stacked (elements, preimages)."""
    out_b, out_g = [], []
    for g in unitary_algebra_generators(basis.m):
        w = second_quantize(g, basis)
        p = g.copy()
        for _ in range(2):
            for b, h in zip(out_b, out_g):
                c = inner(b, w)
                w -= c * b
                p -= c * h
        nrm = np.sqrt(inner(w, w))
        out_b.append(w / nrm)
        out_g.append(p / nrm)
    return np.array(out_b), np.array(out_g)


@pytest.fixture(scope="module", params=[
    pytest.param((1, 3, "lex_desc"), id="1-3"),
    pytest.param((2, 2, golden.ORDER_22), id="2-2-golden"),
    pytest.param((3, 3, "lex_desc"), id="3-3"),
    pytest.param((4, 3, "lex_desc"), id="4-3"),
    pytest.param((5, 4, "lex_desc"), id="5-4"),
])
def image_and_oracle(request):
    basis = enumerate_basis(*request.param)
    return build_image_basis(basis), gram_schmidt_oracle(basis)


class TestImageBasis:
    def test_generator_count(self):
        for m in (1, 2, 3, 4):
            gens = unitary_algebra_generators(m)
            assert len(gens) == m * m
            for g in gens:
                assert np.linalg.norm(g + g.conj().T) == 0.0
        with pytest.raises(ValueError):
            unitary_algebra_generators(0)

    def test_single_mode(self):
        basis = enumerate_basis(1, 3)
        ib = build_image_basis(basis)
        assert len(ib) == 1
        assert np.allclose(ib.elements[0], 1j * np.eye(1), atol=1e-12)

    def test_gram_matrix_is_identity(self, image_and_oracle):
        ib, oracle = image_and_oracle
        k = ib.basis.m ** 2
        assert len(ib) == k
        gram = np.array([[inner(a, b) for b in ib.elements] for a in ib.elements])
        assert np.linalg.norm(gram - np.eye(k)) < 1e-9
        assert np.max(np.abs(ib.elements - oracle[0])) < 1e-12

    def test_preimages_lift_to_elements(self, image_and_oracle):
        ib, oracle = image_and_oracle
        each = np.array([second_quantize(g, ib.basis) for g in ib.preimages])
        for b, w in zip(ib.elements, each):
            assert np.linalg.norm(w - b) < 1e-9
        assert np.array_equal(second_quantize(ib.preimages, ib.basis), each)
        assert np.max(np.abs(ib.preimages - oracle[1])) < 1e-12

    @pytest.mark.parametrize("m, n, ordering, tol", [
        pytest.param(2, 2, golden.ORDER_22, 0.0, id="2-2-golden"),
        pytest.param(2, 2, "lex_desc", 0.0, id="2-2-lex"),
        pytest.param(2, 3, "lex_desc", 0.0, id="2-3"),
        pytest.param(3, 3, "lex_desc", 1e-15, id="3-3"),
        pytest.param(4, 4, "lex_desc", 1e-15, id="4-4"),
    ])
    def test_matches_dense_build(self, m, n, ordering, tol):
        # same Gram-Schmidt, but its dot products skip the zeros off the
        # support, which can move the last bit
        ib = build_image_basis(enumerate_basis(m, n, ordering=ordering))
        elements, preimages = dense_build(ib.basis)
        assert np.max(np.abs(ib.elements - elements)) <= tol
        assert np.max(np.abs(ib.preimages - preimages)) <= tol

    def test_build_holds_no_dense_lifts(self):
        # at M = 252 the dense (36, M, M) lifts alone take 36.6 MB
        basis = enumerate_basis(6, 5)
        tracemalloc.start()
        try:
            build_image_basis(basis)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6

    def test_rank_deficiency_detected(self):
        v = np.zeros((2, 2), dtype=complex)
        v[0, 0] = 1j
        with pytest.raises(RankDeficiencyError):
            _orthonormalize([v, v.copy()], [v, v.copy()])


class TestProject:
    def test_fortran_ordered_values_project_the_same(self):
        ib = build_image_basis(enumerate_basis(3, 3))
        f_ordered = lie.ImageBasis(ib.basis, ib.support, np.asfortranarray(ib.values),
                                   ib.preimages)
        assert f_ordered.values.flags.c_contiguous
        v = random_anti_hermitian(np.random.default_rng(60), len(ib.basis))
        for got, want in zip(project(v, f_ordered), project(v, ib)):
            assert np.array_equal(got, want)

    def test_basis_element_projects_to_itself(self, image22):
        b0 = image22.elements[0]
        v_T, v_N, coeffs = project(b0, image22)
        assert np.linalg.norm(v_T - b0) < 1e-12
        assert np.linalg.norm(v_N) < 1e-12
        want = np.zeros(len(image22))
        want[0] = 1.0
        assert np.allclose(coeffs, want, atol=1e-12)

    def test_matches_trace_formula(self, image_and_oracle):
        # coeffs[k] = <e_k, v> and v_T = sum_k coeffs[k] e_k, term by term
        ib, _ = image_and_oracle
        rng = np.random.default_rng(13)
        v = random_anti_hermitian(rng, len(ib.basis))
        v_T, v_N, coeffs = project(v, ib)
        want = np.array([inner(e, v) for e in ib.elements])
        assert np.max(np.abs(coeffs - want)) < 1e-12
        v_T_want = sum(c * e for c, e in zip(want, ib.elements))
        assert np.max(np.abs(v_T - v_T_want)) < 1e-12
        assert np.array_equal(v_N, v - v_T)

    def test_reference_projection(self, basis22, image22):
        v_T, _, _ = project(principal_log(golden.QFT3), image22)
        assert np.max(np.abs(v_T - golden.LOG_U_T)) < 1e-4

    def test_pythagoras(self, image22):
        rng = np.random.default_rng(8)
        for _ in range(20):
            v = random_anti_hermitian(rng, 3)
            v_T, v_N, _ = project(v, image22)
            lhs = np.linalg.norm(v) ** 2
            rhs = np.linalg.norm(v_T) ** 2 + np.linalg.norm(v_N) ** 2
            assert lhs == pytest.approx(rhs, abs=1e-9)
            assert abs(inner(v_T, v_N)) < 1e-8

    def test_idempotent(self, image22):
        rng = np.random.default_rng(9)
        v = random_anti_hermitian(rng, 3)
        v_T, _, _ = project(v, image22)
        again, residue, _ = project(v_T, image22)
        assert np.linalg.norm(again - v_T) < 1e-9
        assert np.linalg.norm(residue) < 1e-9

    def test_complex_coefficients_rejected(self, image22):
        not_anti_hermitian = np.eye(3, dtype=complex)
        with pytest.raises(InternalConsistencyError):
            project(not_anti_hermitian, image22)

    def test_shape_mismatch(self, image22):
        with pytest.raises(ShapeError):
            project(np.zeros((4, 4)), image22)

    def test_stack_matches_each_matrix(self, image_and_oracle):
        ib, _ = image_and_oracle
        rng = np.random.default_rng(14)
        v = np.array([random_anti_hermitian(rng, len(ib.basis)) for _ in range(4)])
        v_T, v_N, coeffs = project(v, ib)
        assert coeffs.shape == (4, len(ib))
        for i in range(len(v)):
            for got, want in zip((v_T[i], v_N[i], coeffs[i]), project(v[i], ib)):
                assert np.array_equal(got, want)

    def test_reads_only_the_support(self, image_and_oracle):
        # the elements vanish off the P transition positions, and so does
        # v_T: whatever v holds there, NaN included, stays in v_N alone
        ib, _ = image_and_oracle
        m, n, M = ib.basis.m, ib.basis.n, len(ib.basis)
        assert len(ib.support) == M + m * (m - 1) * dimension(m, n - 1)
        off = np.ones(M * M, dtype=bool)
        off[ib.support] = False
        assert not ib.elements.reshape(len(ib), -1)[:, off].any()
        v = random_anti_hermitian(np.random.default_rng(16), M)
        v_T, v_N, coeffs = project(v, ib)
        w = v.copy()
        w.reshape(-1)[off] = np.nan
        w_T, w_N, w_coeffs = project(w, ib)
        assert np.array_equal(w_T, v_T) and np.array_equal(w_coeffs, coeffs)
        assert np.array_equal(np.isnan(w_N).reshape(-1), off)

    def test_support_keeps_dense_semantics(self, image22):
        ib = off_pattern(image22)
        assert len(ib.support) == len(image22.support) + 2
        v = random_anti_hermitian(np.random.default_rng(17), 3)
        v_T, v_N, coeffs = project(v, ib)
        want = np.array([inner(e, v) for e in ib.elements])
        assert np.max(np.abs(coeffs - want)) < 1e-12
        assert np.max(np.abs(v_T - sum(c * e for c, e in zip(want, ib.elements)))) < 1e-12
        assert np.array_equal(v_N, v - v_T)

    def test_stack_names_member_with_complex_coefficients(self, image22):
        v = np.array([np.zeros((3, 3)), np.eye(3), np.eye(3)], dtype=complex)
        with pytest.raises(InternalConsistencyError, match=r"\[1\]"):
            project(v, image22)


class TestTangentExponentialMembership:
    def test_exp_tangent_has_scattering_witness(self, image22):
        # the lifted projection coefficients realize exp(v_T) from mode space
        rng = np.random.default_rng(10)
        for _ in range(20):
            v = principal_log(haar(rng, 3))
            v_T, v_N, coeffs = project(v, image22)
            h = np.einsum("k,kij->ij", coeffs, image22.preimages)
            witness = evolution_matrix(matrix_exp(h), image22.basis)
            assert distance(witness, matrix_exp(v_T)) < 1e-8

    def test_error_bounded_by_normal_norm(self, image22, image23):
        rng = np.random.default_rng(11)
        for ib in (image22, image23):
            M = len(ib.basis)
            for _ in range(200):
                U = haar(rng, M)
                v_T, v_N, _ = project(principal_log(U), ib)
                U_a = matrix_exp(v_T)
                assert distance(U, U_a) <= np.linalg.norm(v_N) + 1e-12

    def test_fidelity_lower_bound(self, image22):
        rng = np.random.default_rng(12)
        for _ in range(20):
            U = haar(rng, 3)
            v_T, v_N, _ = project(principal_log(U), image22)
            vn2 = np.linalg.norm(v_N) ** 2
            if vn2 > 2:
                continue  # bound is vacuous
            U_a = matrix_exp(v_T)
            psi = rng.standard_normal((3, 100)) + 1j * rng.standard_normal((3, 100))
            psi /= np.linalg.norm(psi, axis=0)
            overlaps = np.abs(np.einsum("ik,ij,jk->k", psi.conj(),
                                        U.conj().T @ U_a, psi))
            assert np.all(overlaps >= 1 - vn2 / 2 - 1e-9)


class TestDistance:
    def test_reference_values(self):
        assert distance(golden.QFT3, np.eye(3)) == pytest.approx(golden.D0, abs=1e-6)
        assert distance(golden.QFT3, golden.UA3) == pytest.approx(golden.DIST_UA3, abs=1e-4)

    def test_zero_on_equal(self):
        A = np.full((3, 3), 0.5j)
        assert distance(A, A) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            distance(np.eye(2), np.eye(3))

    def test_stack_matches_each_matrix(self):
        rng = np.random.default_rng(15)
        A = drifted_unitaries(rng, 10, 4)
        B = haar(rng, 10)
        got = distance(A, B)
        assert np.array_equal(got, [distance(a, B) for a in A])
        assert np.array_equal(distance(A, A[::-1]), [distance(a, b) for a, b in zip(A, A[::-1])])
        assert got[0] == np.linalg.norm(A[0] - B)

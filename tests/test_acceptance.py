"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Tolerances are fixed here and nowhere else: 5-digit reference matrix
entries carry 1e-4, 10-digit reference distances 1e-6, exact-arithmetic
identities 1e-9 unless stated otherwise.
"""

import itertools
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

import golden
from conftest import evolution_matrix_oracle, haar, permanent, schur_log
from optiq import serialize
from optiq.approx import approximate, derive_seed, haar_random, multi_start
from optiq.circuit import decompose, reconstruct
from optiq.cli import main
from optiq.fock import enumerate_basis
from optiq.homomorphism import evolution_matrix
from optiq.lie import distance, matrix_exp, principal_log, project
from test_homomorphism import exp_lift


@contextmanager
def criterion(number, text):
    try:
        yield
    except BaseException:
        print(f"FAIL  criterion {number:2d}: {text}")
        raise
    else:
        print(f"PASS  criterion {number:2d}: {text}")


def random_anti_hermitian(rng, m):
    Z = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    return (Z - Z.conj().T) / 2


def test_criterion_1_golden_trajectory(image22):
    with criterion(1, "golden trajectory distances d0, d1, d10, d20"):
        t0 = time.perf_counter()
        res = approximate(golden.QFT3, np.eye(2), image22, tol=1e-12, max_iter=20)
        elapsed = time.perf_counter() - t0
        assert res.trace[0].distance == pytest.approx(golden.D0, abs=1e-6)
        assert res.trace[1].distance == pytest.approx(golden.D1, abs=1e-6)
        assert res.trace[10].distance == pytest.approx(golden.D10, abs=1e-6)
        assert res.trace[20].distance == pytest.approx(golden.D20, abs=1e-6)
        assert elapsed < 1.0


def test_criterion_2_golden_matrices(image22):
    with criterion(2, "golden log, tangent projection and first iterate"):
        v = principal_log(golden.QFT3)
        assert np.max(np.abs(v - golden.LOG_U)) < 1e-4
        v_T, _, _ = project(v, image22)
        assert np.max(np.abs(v_T - golden.LOG_U_T)) < 1e-4
        U1 = approximate(golden.QFT3, np.eye(2), image22, tol=1e-12, max_iter=1).evolution
        assert np.max(np.abs(U1 - golden.U1)) < 1e-4


def test_criterion_3_local_optima(image22):
    with criterion(3, "three local optima from 1000 starts with expected rates"):
        t0 = time.perf_counter()
        clusters = multi_start(golden.QFT3, image22, k=1000, tol=1e-10,
                               max_iter=500, rng_seed=7)
        elapsed = time.perf_counter() - t0
        assert len(clusters) == 3
        dists = [res.final_distance for res, _ in clusters]
        assert dists[0] == pytest.approx(0.85675, abs=1e-3)
        assert dists[1] == pytest.approx(1.7320, abs=1e-3)
        assert dists[2] == pytest.approx(1.7320, abs=1e-3)
        matched = set()
        for res, hits in clusters:
            errs = {name: np.max(np.abs(res.evolution - ref))
                    for name, ref in [("UA1", golden.UA1), ("UA2", golden.UA2),
                                      ("UA3", golden.UA3)]}
            name, err = min(errs.items(), key=lambda kv: kv[1])
            assert err < 1e-4
            matched.add(name)
            assert 0.25 <= hits / 1000 <= 0.42
        assert matched == {"UA1", "UA2", "UA3"}
        assert elapsed < 180.0


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_criterion_4_homomorphism_suite(m, n):
    with criterion(4, f"lift matches the permanent oracle; group and algebra "
                      f"identities at (m, n) = ({m}, {n})"):
        basis = enumerate_basis(m, n)
        rng = np.random.default_rng(1000 + 10 * m + n)
        for _ in range(50):
            S1, S2 = haar(rng, m), haar(rng, m)
            U1 = evolution_matrix(S1, basis)
            assert np.linalg.norm(U1 - evolution_matrix_oracle(S1, basis)) < 1e-9
            assert np.linalg.norm(
                evolution_matrix(S1 @ S2, basis) - U1 @ evolution_matrix(S2, basis)) < 1e-9
            assert np.linalg.norm(
                evolution_matrix(S1.conj().T, basis) - U1.conj().T) < 1e-9
            A = random_anti_hermitian(rng, m)
            assert np.linalg.norm(
                exp_lift(A, basis) - evolution_matrix(matrix_exp(A), basis)) < 1e-9


def test_criterion_5_permanent_oracle():
    with criterion(5, "Ryser permanent matches permutation expansion to 1e-12"):
        rng = np.random.default_rng(2024)
        for k in range(0, 7):
            for _ in range(6):
                A = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
                naive = sum(
                    np.prod([A[i, p[i]] for i in range(k)])
                    for p in itertools.permutations(range(k))) if k else 1.0
                assert abs(permanent(A) - naive) <= 1e-12 * max(1.0, abs(naive))


def test_criterion_6_principal_log_contract():
    with criterion(6, "principal log round-trip, angle range and minimality"):
        rng = np.random.default_rng(31)
        for i in range(100):
            M = 2 + i % 9
            U = haar(rng, M)
            v = principal_log(U)
            assert distance(matrix_exp(v), U) < 1e-9
            angles = np.linalg.eigvalsh(-1j * v)
            assert np.all(angles <= np.pi + 1e-9) and np.all(angles > -np.pi)
        v = principal_log(-np.eye(2))
        assert np.allclose(v, 1j * np.pi * np.eye(2), atol=1e-12)
        for _ in range(10):
            U = haar(rng, 3)
            v = principal_log(U)
            for mask in itertools.product((0, 1), repeat=3):
                if not any(mask):
                    continue
                w = schur_log(U, mask)
                assert distance(matrix_exp(w), U) < 1e-9
                assert np.linalg.norm(v) <= np.linalg.norm(w) + 1e-12


def test_criterion_7_per_run_invariants(image22_lex, iterates):
    label = ("per-run invariants on 200 Haar targets: geodesic-norm descent, "
             "step bound, witness, fidelity")
    with criterion(7, label):
        fb = image22_lex.basis
        rng = np.random.default_rng(555)
        for t in range(200):
            U = haar(rng, 3)
            iterates.clear()
            res = approximate(U, np.eye(2), image22_lex)
            assert len(iterates) == len(res.trace)
            # the geodesic norm is the provably monotone distance proxy; the
            # recorded Frobenius distance obeys the per-step normal-norm bound
            for prev, cur in zip(res.trace, res.trace[1:]):
                geo = math.hypot(cur.tangent_norm, cur.normal_norm)
                assert geo <= prev.normal_norm + 1e-9
                assert geo <= math.hypot(prev.tangent_norm, prev.normal_norm) + 1e-9
                assert cur.distance <= prev.normal_norm + 1e-9
            for k, (S_k, U_k) in enumerate(iterates):
                assert distance(evolution_matrix(S_k, fb), U_k) < 1e-8 * (k + 1)
            psi = rng.standard_normal((3, 100)) + 1j * rng.standard_normal((3, 100))
            psi /= np.linalg.norm(psi, axis=0)
            for k in range(len(res.trace) - 1):
                vn = res.trace[k].normal_norm
                if vn ** 2 > 2:
                    continue  # bound vacuous at this step
                U_next = iterates[k + 1][1]
                overlaps = np.abs(np.einsum("ik,ij,jk->k", psi.conj(),
                                            U.conj().T @ U_next, psi))
                assert np.all(overlaps >= 1 - vn ** 2 / 2 - 1e-9)


def test_criterion_8_membership_fixed_point(image22):
    with criterion(8, "targets already reachable converge at step 0"):
        for t in range(50):
            S = haar_random(2, derive_seed(906, t))
            U = evolution_matrix(S, image22.basis)
            res = approximate(U, S, image22)
            assert res.converged and res.iterations == 0
            assert res.final_distance < 1e-9


def test_criterion_9_circuit_round_trip():
    with criterion(9, "mesh decomposition round-trips on Haar draws and the "
                      "reference matrix"):
        rng = np.random.default_rng(77)
        for m in range(2, 7):
            for _ in range(100):
                S = haar(rng, m)
                assert distance(reconstruct(decompose(S)), S) < 1e-9
        assert np.max(np.abs(reconstruct(decompose(golden.SA3)) - golden.SA3)) < 1e-4


def test_criterion_10_cli_determinism(tmp_path):
    with criterion(10, "byte-identical CLI reports and verified replay"):
        target = tmp_path / "target.json"
        serialize.save_matrix(target, golden.QFT3)
        order = tmp_path / "order.json"
        order.write_text(serialize.dumps_canonical([list(s) for s in golden.ORDER_22]))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["approximate", str(target), "-m", "2", "-n", "2",
                "--ordering", "@" + str(order), "--starts", "8", "--seed", "13",
                "--max-iter", "500", "--trace"]
        assert main(args + ["-o", str(a)]) == 0
        assert main(args + ["-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert main(["replay", str(a)]) == 0

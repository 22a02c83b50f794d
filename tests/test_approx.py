import itertools
import math
import os
import re
import threading

import numpy as np
import pytest

import golden
from conftest import dense_image_basis, haar
from optiq import approx
from optiq.approx import (approximate, derive_seed, fidelity_bound,
                          haar_random, multi_start)
from optiq.errors import (InternalConsistencyError, NumericalInstabilityError,
                          OptiqError, ShapeError, UnitarityError)
from optiq.fock import enumerate_basis
from optiq.homomorphism import evolution_matrix
from optiq.lie import build_image_basis, distance, principal_log
from reference_engine import reference_image_basis, reference_run
from test_lie import off_pattern, record_cayley_passes


def same_result(a, b):
    """Bit-for-bit equality of two ApproxResults."""
    return (np.array_equal(a.evolution, b.evolution)
            and np.array_equal(a.scattering, b.scattering)
            and a.trace == b.trace and a.final_distance == b.final_distance
            and (a.iterations, a.converged) == (b.iterations, b.converged))


def records(res):
    """(distance, tangent norm, normal norm) of each iterate of a run."""
    return np.array([(r.distance, r.tangent_norm, r.normal_norm) for r in res.trace])


def raised(run):
    """(class, step, message) of the OptiqError that run() raises, or None."""
    try:
        run()
    except OptiqError as exc:
        return type(exc), getattr(exc, "step", None), str(exc)
    return None


def record_runs(monkeypatch):
    """Collect the per-start results of every batched run, in start order."""
    results = []
    iterate = approx._iterate

    def recorded(*args, **kwargs):
        out = iterate(*args, **kwargs)
        results.append(out)
        return out

    monkeypatch.setattr(approx, "_iterate", recorded)
    return results


def record_stacks(monkeypatch):
    """Collect the stack size of every run of the engine in this process."""
    sizes = []
    run = approx._run

    def recorded(U, S, *args):
        sizes.append(len(S))
        return run(U, S, *args)

    monkeypatch.setattr(approx, "_run", recorded)
    return sizes


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestApproximate:
    def test_reference_trajectory(self, image22):
        res = approximate(golden.QFT3, np.eye(2), image22, tol=1e-12, max_iter=20)
        assert res.trace[0].distance == pytest.approx(golden.D0, abs=1e-6)
        assert res.trace[1].distance == pytest.approx(golden.D1, abs=1e-6)
        assert res.final_distance == distance(golden.QFT3, res.evolution)

    def test_fixed_point_of_membership(self, image22):
        S = haar_random(2, 77)
        U = evolution_matrix(S, image22.basis)
        res = approximate(U, S, image22)
        assert res.converged
        assert res.iterations == 0
        assert res.final_distance < 1e-9

    def test_identity_target_identity_start(self, image22):
        res = approximate(np.eye(3), np.eye(2), image22)
        assert res.converged and res.iterations == 0
        assert res.final_distance == 0.0

    def test_per_step_invariants(self, image22_lex, iterates):
        rng = np.random.default_rng(21)
        for _ in range(10):
            U = haar(rng, 3)
            iterates.clear()
            res = approximate(U, np.eye(2), image22_lex)
            assert len(iterates) == len(res.trace)
            for prev, cur in zip(res.trace, res.trace[1:]):
                # provable step bounds: both the new distance and the new
                # geodesic norm sit below the previous normal norm
                assert cur.distance <= prev.normal_norm + 1e-9
                geo = math.hypot(cur.tangent_norm, cur.normal_norm)
                assert geo <= prev.normal_norm + 1e-9
            for k, (S_k, U_k) in enumerate(iterates):
                assert distance(evolution_matrix(S_k, image22_lex.basis), U_k) \
                    < 1e-8 * (k + 1)

    def test_geodesic_norm_sequence_monotone(self, image22_lex):
        rng = np.random.default_rng(22)
        for _ in range(10):
            res = approximate(haar(rng, 3), np.eye(2), image22_lex)
            geo = [math.hypot(r.tangent_norm, r.normal_norm) for r in res.trace]
            assert all(b <= a + 1e-9 for a, b in zip(geo, geo[1:]))

    def test_witness_on_result(self, image22, iterates):
        # every returned evolution, and every iterate the engine forms, is
        # the lift of its scattering matrix, bit for bit
        for image in (image22, build_image_basis(enumerate_basis(3, 3))):
            fb = image.basis
            U = golden.QFT3 if image is image22 else haar_random(len(fb), 3)
            iterates.clear()
            res = approximate(U, np.eye(fb.m), image, max_iter=60)
            reps = [r for r, _ in multi_start(U, image, k=8, max_iter=60, rng_seed=3)]
            for S, E in [(r.scattering, r.evolution) for r in [res, *reps]] + iterates:
                assert np.array_equal(evolution_matrix(S, fb), E)

    def test_carried_cayley_shift(self, monkeypatch, iterates):
        # U_i† U moves little per step, so a first Cayley pass at the mid-gap
        # shift of the previous step's angles is almost always kept; from
        # the fixed shift, many of the same logs need a mid-gap pass
        image = build_image_basis(enumerate_basis(4, 4))
        passes = record_cayley_passes(monkeypatch)
        carried = fixed = 0  # passes beyond each log's first
        for seed in (1, 2, 3):
            U = haar_random(35, derive_seed(seed, 0))
            passes.clear()
            iterates.clear()
            res = approximate(U, np.eye(4), image, max_iter=30)
            carried += len(passes) - len(res.trace)
            passes.clear()
            for _, U_i in iterates:
                principal_log(U_i.conj().T @ U)
            fixed += len(passes) - len(res.trace)
        assert fixed > 0 and 2 * carried <= fixed

    def test_left_invariance_of_final_distance(self, image22_lex):
        rng = np.random.default_rng(23)
        fb = image22_lex.basis
        U = haar(rng, 3)
        R = haar(rng, 2)
        S0 = haar(rng, 2)
        base = approximate(U, S0, image22_lex)
        shifted = approximate(evolution_matrix(R, fb) @ U, R @ S0, image22_lex)
        assert abs(base.final_distance - shifted.final_distance) < 1e-8

    def test_long_run_stays_unitary(self, image22_lex):
        # exercises the periodic re-unitarization path (> 25 updates)
        rng = np.random.default_rng(24)
        res = approximate(haar(rng, 3), haar(rng, 2), image22_lex,
                          tol=1e-14, max_iter=150)
        E = res.evolution
        assert np.linalg.norm(E.conj().T @ E - np.eye(3)) < 1e-10

    def test_corrupted_basis_reported_as_instability(self, image22, monkeypatch):
        # elements and preimages scaled alike overshoot each step and break
        # the step bounds, scaled preimages alone the lift of the step
        # generator, and a non-anti-Hermitian element the projection; start
        # `late` fails at a later step than start 1, at the same step with
        # its own witness value, or not at all
        steps = dense_image_basis(image22.basis, image22.elements * 1.5,
                                  image22.preimages * 1.5)
        witness = dense_image_basis(image22.basis, image22.elements, image22.preimages * 1.01)
        elements = image22.elements.copy()
        elements[0] += 9e-10 * np.eye(3)
        kernel = dense_image_basis(image22.basis, elements, image22.preimages)
        for broken, late, cls in ((steps, 5, NumericalInstabilityError),
                                  (witness, 2, NumericalInstabilityError),
                                  (kernel, 4, InternalConsistencyError)):
            alone = raised(lambda: approximate(golden.QFT3, np.eye(2), broken, max_iter=50))
            assert alone[0] is cls and (alone[1] is None) == (cls is InternalConsistencyError)
            # a batched run raises the error of its lowest-index failing
            # start: the class, step and message of that start's own run
            starts = [haar_random(2, derive_seed(0, i)) for i in (late, 1)]
            errors = [raised(lambda: approximate(golden.QFT3, start, broken, max_iter=50))
                      for start in starts]
            assert errors[1][0] is cls
            if cls is InternalConsistencyError:
                assert errors[0] is None
            elif broken is witness:
                assert errors[0][1] == errors[1][1] == 0 and errors[0] != errors[1]
            else:
                assert errors[1][1] < errors[0][1]
            # the same errors whether the failing start runs here or in a
            # forked worker (start 1 of two, and starts 1 and 3 of five)
            for workers in (1, 2):
                monkeypatch.setattr(approx, "_workers", lambda k: min(k, workers))
                assert raised(lambda: multi_start(golden.QFT3, broken, k=5, max_iter=50)) == \
                    alone
                assert raised(lambda: approx._iterate(golden.QFT3, starts, broken, 1e-10,
                                                      50)) == (errors[0] or errors[1])
                no_child_left()

    def test_basis_corrupted_off_the_transition_pattern(self, image22):
        # the pair enters v_T but not the lift of the step generator
        with pytest.raises(NumericalInstabilityError, match="^" + re.escape(
                "step 0: lifted step generator differs from the projected "
                "logarithm by 2.120e-03") + "$"):
            approximate(golden.QFT3, np.eye(2), off_pattern(image22))

    @pytest.mark.parametrize("fault", ["distance", "normal", "off_support"])
    def test_non_finite_norm_raises(self, image22, monkeypatch, fault):
        # NaN passes both step bounds, so only a finiteness check stops it:
        # a NaN distance, a NaN v_N, or a NaN in the log between |2,0> and
        # |0,2>, off the support, which project leaves in v_N alone; each
        # strikes at step 2 only
        def log_nan_off_support(v):
            v = v.copy()
            v[..., 0, 1] = np.nan
            return v

        name, spoil = {
            "distance": ("distance", lambda d: d * np.nan),
            "normal": ("project", lambda out: (out[0], out[1] * np.nan, out[2])),
            "off_support": ("principal_log", log_nan_off_support),
        }[fault]
        fn, calls = getattr(approx, name), itertools.count()

        def spoiled(*args):
            out = fn(*args)
            return spoil(out) if next(calls) == 2 else out

        monkeypatch.setattr(approx, name, spoiled)
        with pytest.raises(NumericalInstabilityError,
                           match=r"^step 2: non-finite distance ") as info:
            approximate(golden.QFT3, np.eye(2), image22, max_iter=20)
        assert info.value.step == 2

    def test_distance_bound_violation_raises(self, image22, monkeypatch):
        # d <= ||v|| in any arithmetic (a chord is never longer than its
        # arc), so only a faulty distance reaches this check. This one adds
        # 10 to each distance below 1: start 1 trips the bound at step 2,
        # start 4 at step 1
        monkeypatch.setattr(approx, "distance",
                            lambda A, B: (d := distance(A, B)) + 10.0 * (d < 1.0))
        starts = [haar_random(2, derive_seed(0, i)) for i in (1, 4)]
        with pytest.raises(NumericalInstabilityError,
                           match=r"^step 2: distance \S+ exceeds previous normal norm ") as info:
            approximate(golden.QFT3, starts[0], image22, max_iter=50)
        assert info.value.step == 2
        assert raised(lambda: approximate(golden.QFT3, starts[1], image22, max_iter=50))[1] == 1
        assert raised(lambda: approx._iterate(golden.QFT3, starts, image22, 1e-10, 50)) == \
            (NumericalInstabilityError, 2, str(info.value))

    def test_stacked_error_kept_when_no_start_fails_alone(self, image22, monkeypatch):
        run = approx._run

        def stack_only(U, S, *args):
            big = np.zeros(10)  # noqa: F841 -- must be released before the reruns
            if len(S) > 1:
                raise InternalConsistencyError("stacked run failed")
            return run(U, S, *args)

        monkeypatch.setattr(approx, "_run", stack_only)
        with pytest.raises(InternalConsistencyError, match="^stacked run failed$") as info:
            multi_start(golden.QFT3, image22, k=3, max_iter=20)
        tb = info.value.__traceback__
        while tb.tb_frame.f_code is not stack_only.__code__:
            tb = tb.tb_next
        assert "big" not in tb.tb_frame.f_locals

    def test_input_validation(self, image22):
        with pytest.raises(UnitarityError):
            approximate(np.eye(3) * 1.1, np.eye(2), image22)
        with pytest.raises(ShapeError):
            approximate(np.eye(4), np.eye(2), image22)
        with pytest.raises(ShapeError):
            approximate(np.eye(3), np.eye(3), image22)
        with pytest.raises(ValueError):
            approximate(np.eye(3), np.eye(2), image22, tol=0.0)
        with pytest.raises(ValueError):
            approximate(np.eye(3), np.eye(2), image22, max_iter=0)
        with pytest.raises(TypeError):
            approximate(golden.QFT3, np.eye(2), image22, max_iter=2.5)

    def test_stacked_target_rejected(self, image22):
        # a stack of targets is not a target, even when each is unitary
        with pytest.raises(ShapeError, match=r"got shape \(2, 3, 3\)"):
            approximate(np.stack([np.eye(3)] * 2), np.eye(2), image22)

    @pytest.mark.parametrize("m,n", [(3, 3), (4, 3), (5, 4)])
    def test_follows_the_reference_engine(self, m, n):
        # far past the M = 3 goldens: every kernel of the step at once
        basis = enumerate_basis(m, n)
        elements, image = reference_image_basis(basis)
        rng = np.random.default_rng(10 * m + n)
        U, start = haar(rng, len(basis)), haar(rng, m)
        steps = 50
        res = approximate(U, start, image, tol=1e-300, max_iter=steps)
        want, last = reference_run(U, start, basis, elements, steps)
        got = [(r.distance, r.tangent_norm, r.normal_norm) for r in res.trace]
        assert res.iterations == steps
        assert np.abs(np.array(got) - want).max() < 1e-12
        assert np.abs(res.evolution - last).max() < 1e-12

    @pytest.mark.parametrize("m,n", [(3, 3), (4, 3), (5, 4)])
    def test_two_sided_equivariance(self, m, n):
        # lift(A) lift(S) lift(B) = lift(A S B), and the log, the projection
        # and the metric commute with both sides: the run only moves rigidly
        basis = enumerate_basis(m, n)
        image = build_image_basis(basis)
        rng = np.random.default_rng(20 * m + n)
        U, start, A, B = haar(rng, len(basis)), haar(rng, m), haar(rng, m), haar(rng, m)
        res = approximate(U, start, image, tol=1e-3, max_iter=50)
        moved = approximate(evolution_matrix(A, basis) @ U @ evolution_matrix(B, basis),
                            A @ start @ B, image, tol=1e-3, max_iter=50)
        assert moved.iterations == res.iterations
        assert np.abs(records(moved) - records(res)).max() < 1e-10
        assert np.abs(moved.scattering - A @ res.scattering @ B).max() < 1e-10

    @pytest.mark.parametrize("m,n", [(3, 3), (4, 3), (5, 4)])
    def test_basis_permutation_equivariance(self, m, n):
        # the Fock states' order is a coordinate choice: permuting it
        # permutes the iterates and changes no distance
        basis = enumerate_basis(m, n)
        rng = np.random.default_rng(30 * m + n)
        order = rng.permutation(len(basis))
        permuted = enumerate_basis(m, n, ordering=[basis.states[i] for i in order])
        U, start = haar(rng, len(basis)), haar(rng, m)
        res = approximate(U, start, build_image_basis(basis), tol=1e-3, max_iter=50)
        moved = approximate(U[np.ix_(order, order)], start, build_image_basis(permuted),
                            tol=1e-3, max_iter=50)
        assert moved.iterations == res.iterations
        assert np.abs(records(moved) - records(res)).max() < 1e-10
        assert np.abs(moved.evolution - res.evolution[np.ix_(order, order)]).max() < 1e-10


class TestHaarRandom:
    def test_unitary(self):
        for m in (1, 2, 5):
            U = haar_random(m, 1234)
            assert np.linalg.norm(U.conj().T @ U - np.eye(m)) < 1e-10
        with pytest.raises(ValueError):
            haar_random(0, 1)

    def test_deterministic(self):
        assert np.array_equal(haar_random(4, 99), haar_random(4, 99))
        assert not np.array_equal(haar_random(4, 99), haar_random(4, 100))

    def test_negative_seed_accepted(self):
        assert np.array_equal(haar_random(2, -5), haar_random(2, -5))

    def test_derive_seed_stable(self):
        assert derive_seed(7, 1) == derive_seed(7, 1)
        assert derive_seed(7, 1) != derive_seed(7, 2)
        assert derive_seed(8, 1) != derive_seed(7, 1)

    def test_spacing_matches_exact_law(self):
        # oracle: inverse-CDF sampling of the exact spacing density, written
        # independently of the sampler under test
        from scipy.stats import chi2

        def spacing(U):
            # circular distance in [0, pi] between the two eigenphases
            a, b = np.angle(np.linalg.eigvals(U))
            delta = abs(a - b) % (2 * np.pi)
            return min(delta, 2 * np.pi - delta)

        def oracle_samples(count, seed):
            rng = np.random.default_rng(seed)
            q = rng.uniform(0, 1, size=count)
            lo = np.zeros(count)
            hi = np.full(count, np.pi)
            for _ in range(60):
                mid = (lo + hi) / 2
                below = (mid - np.sin(mid)) / np.pi < q
                lo = np.where(below, mid, lo)
                hi = np.where(below, hi, mid)
            return (lo + hi) / 2

        n = 10_000
        observed = np.array([spacing(haar_random(2, derive_seed(314, i)))
                             for i in range(n)])
        reference = oracle_samples(n, 2718)
        edges = np.quantile(reference, np.linspace(0, 1, 21))
        edges[0], edges[-1] = 0.0, np.pi
        a, _ = np.histogram(observed, bins=edges)
        b, _ = np.histogram(reference, bins=edges)
        stat = np.sum((a - b) ** 2 / (a + b))
        assert stat < chi2.ppf(0.99, len(a) - 1)


class TestMultiStart:
    def test_k_one_equals_identity_run(self, image22):
        clusters = multi_start(golden.QFT3, image22, k=1, max_iter=60, rng_seed=9)
        assert len(clusters) == 1
        res, hits = clusters[0]
        assert hits == 1
        direct = approximate(golden.QFT3, np.eye(2), image22, max_iter=60)
        assert res.final_distance == direct.final_distance

    def test_membership_target_found_exactly(self, image22):
        S = haar_random(2, 4321)
        U = evolution_matrix(S, image22.basis)
        clusters = multi_start(U, image22, k=10, rng_seed=12, max_iter=300)
        assert clusters[0][0].final_distance < 1e-6

    def test_three_local_optima(self, image22, monkeypatch):
        def search():
            return multi_start(golden.QFT3, image22, k=60, tol=1e-10,
                               max_iter=500, rng_seed=7)

        clusters = search()
        assert len(clusters) == 3
        dists = [res.final_distance for res, _ in clusters]
        # the two sqrt(3) clusters tie to roundoff: the order is by TIE_TOL
        # bins, ties in first-start order, never by the raw floats
        bins = [round(d / approx.TIE_TOL) for d in dists]
        assert bins == sorted(bins)
        assert dists[0] == pytest.approx(golden.DIST_UA3, abs=1e-3)
        assert dists[1] == pytest.approx(1.7320508, abs=1e-3)
        assert dists[2] == pytest.approx(1.7320508, abs=1e-3)
        assert [h for _, h in clusters] == [17, 20, 23]
        # a unit phase of 2e-15 on every step's exponential swaps the float
        # order of the tied pair; the clusters' order must not follow it
        exp = approx.matrix_exp
        monkeypatch.setattr(approx, "matrix_exp", lambda A: exp(A) * np.exp(-2e-15j))
        assert [(h, r.iterations) for r, h in search()] == \
               [(h, r.iterations) for r, h in clusters]

    def test_deterministic(self, image22):
        a = multi_start(golden.QFT3, image22, k=8, max_iter=300, rng_seed=31)
        b = multi_start(golden.QFT3, image22, k=8, max_iter=300, rng_seed=31)
        assert [(h, r.final_distance) for r, h in a] == \
               [(h, r.final_distance) for r, h in b]
        assert all(np.array_equal(ra.evolution, rb.evolution)
                   for (ra, _), (rb, _) in zip(a, b))

    @pytest.mark.parametrize("seed", [7, 8, 9, 31])
    def test_representatives_ignore_roundoff(self, image22, monkeypatch, seed):
        # a unit phase of 2e-15 on every step's exponential moves each
        # start's final distance by roundoff alone; the members of one fixed
        # point tie, so neither the representatives nor the order may change
        def census():
            return multi_start(golden.QFT3, image22, k=20, max_iter=500, rng_seed=seed)

        before = census()
        exp = approx.matrix_exp
        monkeypatch.setattr(approx, "matrix_exp", lambda A: exp(A) * np.exp(2e-15j))
        after = census()
        assert [(h, r.iterations) for r, h in before] == [(h, r.iterations) for r, h in after]
        for (a, _), (b, _) in zip(before, after):
            assert np.abs(a.scattering - b.scattering).max() < 1e-9
            assert np.abs(a.evolution - b.evolution).max() < 1e-9

    def test_validates_k(self, image22):
        with pytest.raises(ValueError):
            multi_start(golden.QFT3, image22, k=0)
        for k in (True, 2.5):
            with pytest.raises(TypeError):
                multi_start(golden.QFT3, image22, k=k)

    def test_start_depends_only_on_seed_and_index(self, monkeypatch):
        # start i gets the same bits alone, among 7 or 50 starts, in a run
        # whose starts are cut into chunks of 3, and whether 1, 2 or 3
        # processes share each chunk
        image = build_image_basis(enumerate_basis(3, 3))
        U = haar_random(10, 5)
        runs = {}
        for (label, k, stack_bytes), workers in itertools.product(
                [("k=7", 7, approx.STACK_BYTES), ("k=50", 50, approx.STACK_BYTES),
                 ("chunks of 3", 7, 3 * 16 * 10 * 10)], (1, 2, 3)):
            monkeypatch.setattr(approx, "STACK_BYTES", stack_bytes)
            monkeypatch.setattr(approx, "_workers", lambda k: min(k, workers))
            own = record_stacks(monkeypatch)
            batches = record_runs(monkeypatch)
            multi_start(U, image, k=k, rng_seed=5, max_iter=60)
            runs[label, workers] = [res for batch in batches for res in batch]
            monkeypatch.undo()
            assert [len(b) for b in batches] == ([3, 3, 1] if label == "chunks of 3" else [k])
            # this process ran its own share of each chunk, and nothing again
            assert own == [len(b[::min(len(b), workers)]) for b in batches]
        for i in range(10):
            start = np.eye(3) if i == 0 else haar_random(3, derive_seed(5, i))
            alone = approximate(U, start, image, max_iter=60)
            assert all(same_result(results[i], alone)
                       for results in runs.values() if i < len(results))
        # the stack shrank as starts converged at different steps
        iterations = {res.iterations for res in runs["k=50", 1]}
        assert len(iterations) > 2 and max(iterations) == 60

    @pytest.mark.parametrize("fault", ["exit", "short"])
    def test_failed_worker_reruns_in_process(self, image22, monkeypatch, fault):
        # a child that exits 3, or exits 0 after writing a truncated pickle,
        # costs a rerun in this process, not the results; no child is left
        def search():
            return multi_start(golden.QFT3, image22, k=8, max_iter=300, rng_seed=31)

        monkeypatch.setattr(approx, "_workers", lambda k: 1)
        serial = search()
        parent, run = os.getpid(), approx._run

        def dying(*args):
            if os.getpid() != parent:
                os._exit(3)
            return run(*args)

        def truncated(obj, f, *args):
            f.write(approx.pickle.dumps(obj)[:-9])

        if fault == "exit":
            monkeypatch.setattr(approx, "_run", dying)
        else:
            monkeypatch.setattr(approx.pickle, "dump", truncated)
        monkeypatch.setattr(approx, "_workers", lambda k: min(k, 2))
        own = record_stacks(monkeypatch)
        forked = search()
        assert own == [4, 8]  # its own share, then the whole chunk again
        assert [h for _, h in forked] == [h for _, h in serial]
        assert all(same_result(a, b) for (a, _), (b, _) in zip(forked, serial))
        no_child_left()

    def test_stays_in_process_beside_a_thread(self, image22, monkeypatch):
        # fork copies only the calling thread, so no process with a second
        # thread forks, however many CPUs it may use; nor does a single start
        def fork():
            raise AssertionError("os.fork called")

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        monkeypatch.setattr(os, "fork", fork)
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            assert approx._workers(8) == 1
            clusters = multi_start(golden.QFT3, image22, k=8, max_iter=300, rng_seed=31)
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert sum(h for _, h in clusters) == 8
        assert approx._workers(1) == 1
        approximate(golden.QFT3, np.eye(2), image22)


class TestFidelityBound:
    def test_zero(self):
        assert fidelity_bound(0.0) == 1.0

    def test_clamped(self):
        assert fidelity_bound(2.0) == -1.0
        assert fidelity_bound(100.0) == -1.0

    def test_pythagoras_on_first_record(self, image22):
        # the step-0 record splits the log norm into tangent and normal parts
        res = approximate(golden.QFT3, np.eye(2), image22, max_iter=5)
        first = res.trace[0]
        log_norm_sq = first.tangent_norm ** 2 + first.normal_norm ** 2
        want = 1 - (log_norm_sq - first.tangent_norm ** 2) / 2
        assert fidelity_bound(first.normal_norm) == pytest.approx(want, abs=1e-9)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            fidelity_bound(-0.1)

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            fidelity_bound(math.nan)

"""Iterative approximation of a photon-space unitary by reachable evolutions.

Each step takes the principal logarithm of what remains to be done,
projects it onto the reachable subalgebra, and moves along that geodesic:

    U_{i+1} = U_i exp(v_T),   v = log(U_i† U_target).

The same real projection coefficients applied to the basis preimages give
an m x m generator h whose lift is v_T, so the step is taken in mode space,
S_{i+1} = S_i exp(h), and the evolution iterate is the lift of the
scattering iterate, U_{i+1} = lift(S_{i+1}). Every iterate is thus
reachable by construction; the identity lift(h) = v_T that makes it the
paper's step is checked at every step, on the image basis's support: both
sides are zero off it. Multi-start exploration draws Haar-random
scattering matrices from per-run derived seeds and clusters the fixed
points it finds.

One engine runs every start: the iterates of all unfinished starts form one
(k, M, M) stack, and each step makes one stacked call of the log, the
projection and the lift, dropping starts as they converge or reach
max_iter. Each start carries its log's Cayley shift from step to step, so
a step costs one M x M LU solve and one ``eigh``. :func:`approximate` is
the engine with one start. The stacked kernels treat each matrix alone, so
start i's result depends only on (rng_seed, i), whatever k and however the
starts are chunked, or in which process they run. A start's trace, its
distance, tangent norm and normal norm at each step, becomes one float64
record array when the start finishes, so a forked share pickles as a few
arrays per start, not as an object per step.

Every chunk runs one way: start i in worker i mod w, where this process
is worker 0 and the others are ``os.fork`` children that send their
results back through a pipe; with w = 1, the in-process search, nothing
is forked. w is min(k, usable CPUs), or 1 in a process with a second OS
thread (a BLAS thread pool, a Python thread), since fork copies only the
calling thread, and where ``os.fork`` or ``os.sched_getaffinity`` is
missing. Threads would not overlap the step loop: it is Python, which
holds the interpreter lock. A child's share arrives only as one complete
pickle; a share whose child could not be forked, or exited before sending
all of it, runs here as its own stack, after this process's share. When a
run fails, its starts rerun alone, in index order, and the first that
fails alone raises its own error.
"""

from __future__ import annotations

import gc
import math
import os
import pickle
import signal
import traceback
from dataclasses import dataclass

import numpy as np

from .errors import NumericalInstabilityError, OptiqError, ShapeError
from .homomorphism import evolution_matrix, transition_entries
from .lie import (CAYLEY_SHIFT, ImageBasis, distance, matrix_exp, polar_unitary,
                  principal_log, project)
from .validate import frobenius_norm, require_int, require_unitary

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 200
DEFAULT_CLUSTER_TOL = 1e-4

#: The m x m scattering iterate is polar-projected back to the unitary group
#: this often; the evolution iterate, its lift, follows. Large enough that
#: short reference runs are bit-for-bit unaffected.
REUNITARIZE_EVERY = 25

#: Exact arithmetic guarantees d_{i+1} <= ||v_N^i|| and the geodesic norm
#: ||v^{i+1}|| <= ||v_N^i|| at every step; excesses beyond this slack are
#: reported as numerical instability rather than absorbed. (The Frobenius
#: distance itself may legitimately rise on early steps; only the geodesic
#: distance is monotone.)
MONOTONICITY_SLACK = 1e-6

#: Bound on ||second_quantize(h) - v_T||_F at every step: the step's m x m
#: generator must lift to the projected logarithm it stands for. Both are
#: zero off the image basis's support, so the norm is taken there.
WITNESS_TOL = 1e-8

#: multi_start runs its starts in chunks whose (k, M, M) stack of
#: evolutions stays within this many bytes: about 10 000 starts at M = 10,
#: 200 at M = 70 and 16 at M = 252.
STACK_BYTES = 16 * 2**20

#: Final distances this close tie, as members of one fixed point do under
#: roundoff: a tie keeps the earlier start and the earlier cluster first.
TIE_TOL = 1e-9

_MASK64 = (1 << 64) - 1


@dataclass(eq=False)
class ApproxResult:
    """Outcome of one approximation run.

    ``evolution`` is the closest reachable M x M matrix found and
    ``scattering`` the m x m matrix realizing it:
    ``evolution_matrix(scattering) == evolution`` bit for bit. ``trace`` is
    a float64 record array with fields ``distance``, ``tangent_norm`` and
    ``normal_norm``, one row per iterate: ``trace[i]`` describes the
    iterate after i updates, so ``len(trace) == iterations + 1``.
    """

    evolution: np.ndarray
    scattering: np.ndarray
    final_distance: float
    iterations: int
    converged: bool
    trace: np.recarray


def approximate(U, start, image_basis: ImageBasis,
                tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER) -> ApproxResult:
    """Run the projection iteration from one scattering-matrix seed.

    Args:
        U: target M x M unitary in the coordinate system of
            ``image_basis.basis``.
        start: m x m unitary seed; the identity reproduces the plain
            iteration, Haar draws explore other local optima.
        image_basis: orthonormal basis of the reachable subalgebra.
        tol: stop once the tangent-component norm falls below this.
        max_iter: maximum number of multiplicative updates.

    At every step the new distance and the new geodesic norm are checked
    against the previous normal-component norm, the inequalities exact
    arithmetic guarantees, and the step generator's lift against the
    projected logarithm; a violation beyond MONOTONICITY_SLACK or
    WITNESS_TOL, or a distance or norm that is not finite, raises
    NumericalInstabilityError with the offending step index.
    """
    return _iterate(U, [start], image_basis, tol, max_iter)[0]


def _iterate(U, starts, image_basis: ImageBasis, tol: float,
             max_iter: int) -> list[ApproxResult]:
    """Run the iteration from every start as one stack; one result per start.

    Start i runs in worker i mod w = :func:`_workers` (see :func:`_shared`)
    and gets the same checks and bits as it would alone. When a run fails,
    the starts rerun alone, in index order, up to the first that fails, and
    its own error is raised: only a failing run pays, with at most one
    serial pass. If none fails alone, a kernel broke the per-matrix
    contract and the error of the stack that failed here is kept: this
    process's share, or a share that did not arrive, so with w > 1 a
    ``[i]`` in its message counts within that share.
    """
    fb = image_basis.basis
    U = require_unitary(U, "target")
    if U.shape[0] != len(fb):
        raise ShapeError(
            f"target dimension {U.shape[0]} does not match basis dimension {len(fb)}")
    S = []
    for start in starts:
        start = require_unitary(start, "start")
        if start.shape[0] != fb.m:
            raise ShapeError(
                f"start dimension {start.shape[0]} does not match mode count {fb.m}")
        S.append(start)
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if require_int(max_iter) < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")

    try:
        return _shared(U, S, image_basis, tol, max_iter, _workers(len(S)))
    except OptiqError as exc:
        if len(S) == 1:
            raise
        stacked = exc
    traceback.clear_frames(stacked.__traceback__)  # frees the failed stack's arrays
    for start in S:
        _run(U, start[None], image_basis, tol, max_iter)
    raise stacked


def _workers(k: int) -> int:
    """How many processes share a chunk of k starts: one per usable CPU, at
    most k, where forking is safe and available; else 1."""
    if k < 2 or not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    try:
        # fork copies only the calling thread: a lock that another thread
        # holds, in the interpreter or in a BLAS pool, stays held in the child
        if len(os.listdir("/proc/self/task")) != 1:
            return 1
    except OSError:  # no /proc: the thread count cannot be read
        return 1
    return min(k, len(os.sched_getaffinity(0)))


def _shared(U, S: list, image_basis: ImageBasis, tol: float, max_iter: int,
            w: int) -> list[ApproxResult]:
    """Run start i of the checked starts S in worker i mod w, this process
    being worker 0, and return the results in start order. A share arrives
    as one complete pickle from its child; a share whose child could not be
    forked, or exited before sending all of it, runs here as its own stack,
    after this process's share. An error in a stack run here is raised.
    Every child is reaped before this returns or raises."""
    pids, pipes = [], []
    try:
        for j in range(1, w):
            r, wr = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # out of processes or memory
                os.close(r)
                os.close(wr)
                break
            if pid == 0:
                os.close(r)  # so that a write fails, not blocks, once the parent is gone
                _child(wr, U, S[j::w], image_basis, tol, max_iter)
            os.close(wr)
            pids.append(pid)
            pipes.append(open(r, "rb"))
        results = [None] * len(S)
        results[::w] = _run(U, np.array(S[::w]), image_basis, tol, max_iter)
        for j in range(1, w):
            try:
                results[j::w] = pickle.load(pipes[j - 1])
            except (IndexError, EOFError, pickle.UnpicklingError):  # not forked, or short data
                results[j::w] = _run(U, np.array(S[j::w]), image_basis, tol, max_iter)
        return results
    finally:
        for pipe in pipes:
            pipe.close()
        for pid in pids:  # its share arrived, or is no longer needed
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _child(fd: int, U, S: list, image_basis: ImageBasis, tol: float, max_iter: int):
    """A forked worker: run its share, write the pickled results to fd, and
    leave through os._exit, with status 0 only if all were written."""
    code = 1
    try:
        # a collection here could run the finalizers of the parent's garbage
        gc.disable()
        with open(fd, "wb") as f:
            pickle.dump(_run(U, np.array(S), image_basis, tol, max_iter), f,
                        pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)


def _run(U, S, image_basis: ImageBasis, tol: float, max_iter: int) -> list[ApproxResult]:
    """Step the checked starts S as one stack, dropping each as it finishes;
    raises at the first check any start fails."""
    fb = image_basis.basis
    k = len(S)
    Ui = evolution_matrix(S, fb)
    rows = np.arange(k)  # the start each row of the stack belongs to
    prev_normal = np.full(k, math.inf)
    shifts = np.full(k, CAYLEY_SHIFT)  # each row's next first Cayley shift
    traces: list[list[tuple]] = [[] for _ in range(k)]  # (d_i, t_i, n_i) per step
    results: list[ApproxResult] = [None] * k
    for step in range(max_iter + 1):
        v = principal_log(Ui.conj().swapaxes(-1, -2) @ U, shifts)
        v_T, v_N, coeffs = project(v, image_basis)
        d = distance(Ui, U)
        tangent, normal = frobenius_norm(v_T), frobenius_norm(v_N)
        go = []  # rows that take another step
        for r, (i, d_i, t_i, n_i, p_i) in enumerate(zip(
                rows.tolist(), d.tolist(), tangent.tolist(), normal.tolist(),
                prev_normal.tolist())):
            if not all(map(math.isfinite, (d_i, t_i, n_i))):
                # NaN would pass both bounds below, and the next step's too
                raise NumericalInstabilityError(
                    f"non-finite distance {d_i}, tangent norm {t_i} or normal norm {n_i}",
                    step=step)
            if d_i > p_i + MONOTONICITY_SLACK:
                raise NumericalInstabilityError(
                    f"distance {d_i:.12e} exceeds previous normal norm {p_i:.12e}",
                    step=step)
            if math.hypot(t_i, n_i) > p_i + MONOTONICITY_SLACK:
                raise NumericalInstabilityError(
                    f"geodesic norm {math.hypot(t_i, n_i):.12e} exceeds "
                    f"previous normal norm {p_i:.12e}", step=step)
            traces[i].append((d_i, t_i, n_i))
            if t_i < tol or step == max_iter:
                trace = np.rec.fromrecords(traces[i], dtype=[
                    ("distance", float), ("tangent_norm", float), ("normal_norm", float)])
                results[i] = ApproxResult(
                    evolution=Ui[r].copy(), scattering=S[r].copy(), final_distance=d_i,
                    iterations=step, converged=t_i < tol, trace=trace)
            else:
                go.append(r)
        if not go:
            return results
        if len(go) < len(rows):
            S, rows, normal, coeffs, v_T, shifts = (
                a[go] for a in (S, rows, normal, coeffs, v_T, shifts))
        prev_normal = normal
        h = np.einsum("ak,kij->aij", coeffs, image_basis.preimages)
        # both sides are zero off the support, and h's lift also past its
        # transition positions, the first entries of the support
        gap = v_T.reshape(len(v_T), -1)[:, image_basis.support]
        lift = transition_entries(h, fb)
        gap[:, :lift.shape[-1]] -= lift
        witness = frobenius_norm(gap[:, None, :])
        bad = np.flatnonzero(~(witness <= WITNESS_TOL))  # also NaN
        if bad.size:
            raise NumericalInstabilityError(
                f"lifted step generator differs from the projected logarithm "
                f"by {witness[bad[0]]:.3e}", step=step)
        S = S @ matrix_exp(h)
        if (step + 1) % REUNITARIZE_EVERY == 0:
            S = polar_unitary(S)
        Ui = evolution_matrix(S, fb)


def derive_seed(rng_seed: int, index: int) -> int:
    """Per-run seed, stable across platforms and processes.

    Start i of a multi-start run draws the same matrix however many starts
    there are, because it depends only on (rng_seed, i).
    """
    ss = np.random.SeedSequence(entropy=int(rng_seed) & _MASK64,
                                spawn_key=(int(index),))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def haar_random(m: int, rng_seed: int) -> np.ndarray:
    """Haar-distributed m x m unitary, deterministic in the seed.

    Draws an m x m standard complex Gaussian, takes its QR factorization and
    rescales each column of Q by the unit phase of the matching diagonal
    entry of R, which corrects the QR gauge to the uniform distribution.
    """
    if m < 1:
        raise ValueError(f"mode count must be >= 1, got {m}")
    rng = np.random.default_rng(int(rng_seed) & _MASK64)
    Z = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    Q, R = np.linalg.qr(Z)
    d = np.diagonal(R)
    return Q * (d / np.abs(d))


def multi_start(U, image_basis: ImageBasis, k: int,
                tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER,
                rng_seed: int = 0,
                cluster_tol: float = DEFAULT_CLUSTER_TOL) -> list[tuple[ApproxResult, int]]:
    """Explore local optima from the identity plus k - 1 Haar-random seeds.

    The starts run in consecutive chunks of at most STACK_BYTES of
    evolutions; start i of a chunk runs in worker i mod w, where this
    process is worker 0, the others are forked and w = 1 is the in-process
    search (see the module docstring). Start i draws its seed from
    (rng_seed, i) and its result depends on nothing else: not on k, nor on
    the chunking, nor on the worker that runs it. No worker outlives the call.
    A result joins, in start order, the first cluster whose representative
    lies within ``cluster_tol`` in Frobenius distance; that is its first
    start until a later member is closer by more than TIE_TOL. Returns
    (representative, hit count) pairs sorted by final distance in steps of
    TIE_TOL, ties in first-start order, so roundoff changes neither. If runs
    fail, the error is that of the lowest-index failing start.
    """
    if require_int(k) < 1:
        raise ValueError(f"start count must be >= 1, got {k}")
    if not 0 < cluster_tol < math.inf:
        raise ValueError(f"cluster_tol must be positive and finite, got {cluster_tol}")
    m, M = image_basis.basis.m, len(image_basis.basis)
    chunk = max(1, STACK_BYTES // (16 * M * M))
    clusters: list[list] = []  # [representative, hit_count]
    reps = np.empty((1, M, M), dtype=complex)  # their evolutions; doubles when full
    for first in range(0, k, chunk):
        starts = [np.eye(m, dtype=complex) if i == 0 else
                  haar_random(m, derive_seed(rng_seed, i))
                  for i in range(first, min(k, first + chunk))]
        for res in _iterate(U, starts, image_basis, tol, max_iter):
            n = len(clusters)
            near = np.flatnonzero(distance(reps[:n], res.evolution) < cluster_tol)
            if len(near):
                entry = clusters[near[0]]
                entry[1] += 1
                if res.final_distance < entry[0].final_distance - TIE_TOL:
                    entry[0] = res
                    reps[near[0]] = res.evolution
            else:
                reps = reps if n < len(reps) else np.concatenate([reps, np.empty_like(reps)])
                reps[n] = res.evolution
                clusters.append([res, 1])
    return [tuple(entry) for entry in
            sorted(clusters, key=lambda entry: round(entry[0].final_distance / TIE_TOL))]


def fidelity_bound(v_N_norm: float) -> float:
    """State-fidelity lower bound 1 - ||v_N||^2 / 2, clamped to -1.

    The bound is vacuous (negative) once the normal component exceeds
    sqrt(2); the clamp keeps reports finite. The bound is a Python float
    for any real input, numpy scalars included, as replay compares types.
    """
    if not v_N_norm >= 0:  # also NaN, which max() below would turn into -1
        raise ValueError(f"norm must be non-negative, got {v_N_norm}")
    return float(max(-1.0, 1.0 - 0.5 * v_N_norm * v_N_norm))


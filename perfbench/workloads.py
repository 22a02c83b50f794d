"""The benchmark's workloads: inputs made from a seed, one operation, checks.

Each workload builds its inputs in ``setup`` (the part ``setup_s`` times in
a fresh process), writes any input files in ``prepare``, runs one operation
per ``op`` call and validates that operation's output in ``check``. The
operation calls the package only through module attributes (``approx.
approximate``, ``cli.main``, ...) so that a traced run sees every call.
"""

from __future__ import annotations

import contextlib
import io
import math
import time
from pathlib import Path

import numpy as np

from optiq import approx, cli, fock, lie, serialize
from optiq.homomorphism import evolution_matrix
from optiq.lie import distance

#: Bound on ||lift(scattering) - evolution|| for a single run's result.
WITNESS_TOL = 1e-8


class Workload:
    name = ""

    def __init__(self, seed: int, small: bool):
        """``small`` shrinks the workload for the benchmark's own tests."""
        self.seed = seed

    def setup(self) -> None:
        raise NotImplementedError

    def prepare(self, workdir: Path) -> None:
        """Write input files; untimed."""

    def op(self, i: int, j: int):
        """Run operation number j on input number i."""
        raise NotImplementedError

    def check(self, i: int, j: int, out) -> tuple[dict, list[str]]:
        """Return a record of the output and the checks it failed."""
        raise NotImplementedError


class SingleRun(Workload):
    """One approximate run at M = 70 from the identity: a fixed number of
    large steps, with the multi-start machinery bypassed."""

    name = "single-m70"
    TARGETS = 3

    def __init__(self, seed, small):
        super().__init__(seed, small)
        self.m, self.n, self.max_iter = (3, 3, 20) if small else (5, 4, 200)

    def setup(self):
        self.image = lie.build_image_basis(fock.enumerate_basis(self.m, self.n))
        M = len(self.image.basis)
        self.targets = [approx.haar_random(M, approx.derive_seed(self.seed, t))
                        for t in range(self.TARGETS)]
        self.start = np.eye(self.m, dtype=complex)

    def op(self, i, j):
        return approx.approximate(self.targets[i % self.TARGETS], self.start,
                                  self.image, max_iter=self.max_iter)

    def check(self, i, j, res):
        witness = distance(evolution_matrix(res.scattering, self.image.basis),
                           res.evolution)
        errors = []
        if not witness < WITNESS_TOL:
            errors.append(f"witness error {witness:.3e} >= {WITNESS_TOL}")
        if not math.isfinite(res.final_distance):
            errors.append(f"final distance {res.final_distance}")
        elif res.final_distance > res.trace[0].distance:
            errors.append(f"final distance {res.final_distance:.9f} exceeds "
                          f"step-0 distance {res.trace[0].distance:.9f}")
        return {"target": i % self.TARGETS, "final_distance": res.final_distance,
                "iterations": res.iterations, "converged": res.converged,
                "witness": witness}, errors


class CliRoundTrip(Workload):
    """``optiq approximate`` twice on a seeded Haar 10 x 10 target at
    (m, n) = (3, 3), then ``optiq replay`` of the report: the CLI's write
    path and read path over the same layers."""

    name = "cli-m10"
    M_MODES, N_PHOTONS = 3, 3
    #: Distinct targets built in setup; inputs cycle through them.
    TARGETS = 8

    def __init__(self, seed, small):
        super().__init__(seed, small)
        self.starts = 3 if small else 50
        self.reports: dict[int, bytes] = {}

    def setup(self):
        basis = fock.enumerate_basis(self.M_MODES, self.N_PHOTONS)
        self.image = lie.build_image_basis(basis)
        self.targets = [approx.haar_random(len(basis), approx.derive_seed(self.seed, t))
                        for t in range(self.TARGETS)]

    def prepare(self, workdir):
        self.workdir = workdir
        self.target_files = []
        for t, target in enumerate(self.targets):
            path = workdir / f"target-{t}.json"
            serialize.save_matrix(path, target)
            self.target_files.append(path)

    @staticmethod
    def main(argv) -> dict:
        """Run the CLI in this process; return its exit code, stderr and time."""
        err = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects its arguments
                code = exc.code
        return {"exit": code, "seconds": time.perf_counter() - start,
                "stderr": err.getvalue().strip()}

    def op(self, i, j):
        t = i % self.TARGETS
        reports = [self.workdir / f"report-{j}-{k}.json" for k in (0, 1)]
        calls = [self.main(["approximate", str(self.target_files[t]),
                            "-m", str(self.M_MODES), "-n", str(self.N_PHOTONS),
                            "--starts", str(self.starts), "--seed", str(self.seed + t),
                            "--trace", "-o", str(path)])
                 for path in reports]
        calls.append(self.main(["replay", str(reports[0])]))
        return t, reports, calls

    def check(self, i, j, out):
        t, reports, calls = out
        errors = [f"{command} exited {c['exit']}: {c['stderr']}"
                  for command, c in zip(("approximate", "approximate", "replay"), calls)
                  if c["exit"] != 0]
        data = []
        for path in reports:
            if path.exists():
                data.append(path.read_bytes())
                path.unlink()
        if len(data) != 2:
            errors.append("approximate wrote no report")
        elif not data[0] == data[1] == self.reports.setdefault(t, data[0]):
            errors.append("reports of identical invocations differ")
        return {"target": t, "report_bytes": len(data[0]) if data else 0,
                "approximate_s": [c["seconds"] for c in calls[:2]],
                "replay_s": calls[2]["seconds"], "summary": calls[0]["stderr"]}, errors


WORKLOADS = {w.name: w for w in (SingleRun, CliRoundTrip)}

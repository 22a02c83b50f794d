"""Command-line surface.

Subcommands:
    approximate   multi-start search for the closest reachable evolution
    lift          evolution matrix of a scattering-matrix file
    sample        Haar-random scattering matrix
    decompose     beam-splitter mesh of a scattering-matrix file
    replay        run a report's search again and compare the rebuilt report

Exit codes: 0 success, 2 shape error, 3 unitarity error, 4 numerical
instability, 1 anything else. Every command is deterministic given its
flags; reports embed the full configuration so they can be replayed.
Replay rebuilds the report with approximate's own :func:`_report` and
compares the two documents; each recorded mesh is multiplied out and
compared with its recorded scattering matrix instead.
"""

from __future__ import annotations

import argparse
import math
import reprlib
import sys
from dataclasses import asdict, dataclass

import numpy as np

from . import serialize
from .approx import (DEFAULT_CLUSTER_TOL, DEFAULT_MAX_ITER, DEFAULT_TOL, TIE_TOL,
                     fidelity_bound, haar_random, multi_start)
from .circuit import decompose, reconstruct
from .errors import (NumericalInstabilityError, OptiqError, ShapeError,
                     UnitarityError)
from .fock import FockBasis, enumerate_basis
from .homomorphism import evolution_matrix
from .lie import build_image_basis, distance
from .validate import require_int, require_unitary, unitarity_residual

REPORT_VERSION = 2
#: The errors that do not exit 1.
EXIT_CODES = {ShapeError: 2, UnitarityError: 3, NumericalInstabilityError: 4}


@dataclass
class RunConfig:
    """Everything a multi-start run needs; embedded in reports for replay."""

    m: int
    n: int
    ordering: object  # tag string or explicit state list
    tol: float = DEFAULT_TOL
    max_iter: int = DEFAULT_MAX_ITER
    starts: int = 1
    rng_seed: int = 0
    cluster_tol: float = DEFAULT_CLUSTER_TOL

    def basis(self) -> FockBasis:
        return enumerate_basis(self.m, self.n, self.ordering)

    def to_obj(self) -> dict:
        return asdict(self)

    @classmethod
    def from_obj(cls, obj: dict) -> "RunConfig":
        try:
            tol, cluster_tol = obj["tol"], obj["cluster_tol"]
            if not all(type(x) in (int, float) for x in (tol, cluster_tol)):  # not bool or str
                raise TypeError(f"tolerances must be numbers, got {tol!r}, {cluster_tol!r}")
            return cls(m=require_int(obj["m"]), n=require_int(obj["n"]),
                       ordering=obj["ordering"], tol=float(tol),
                       max_iter=require_int(obj["max_iter"]),
                       starts=require_int(obj["starts"]),
                       rng_seed=require_int(obj["rng_seed"]),
                       cluster_tol=float(cluster_tol))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise OptiqError(f"malformed run configuration: {exc!r}") from None


def _parse_ordering(value: str):
    """A tag, or from "@file" a state list that :func:`enumerate_basis` checks."""
    return serialize.load_json(value[1:]) if value.startswith("@") else value


def _write_output(path: str, obj) -> None:
    if path == "-":
        serialize.dump_canonical(obj, sys.stdout)
    else:
        serialize.save_json(path, obj)


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _cluster_builder(result, hits: int, include_trace: bool):
    """A zero-argument builder of one cluster's report entry. What can raise
    (the fidelity bound and the mesh) runs now; the matrices as lists and
    the trace as dicts are built only when called, for the writer to drop
    once written."""
    bound = fidelity_bound(result.trace[-1].normal_norm)
    plan = decompose(result.scattering)

    def build() -> dict:
        entry = {
            "final_distance": result.final_distance,
            "fidelity_bound": bound,
            "hit_count": hits,
            "converged": result.converged,
            "iterations": result.iterations,
            "scattering_matrix": serialize.matrix_to_obj(result.scattering),
            "evolution_matrix": serialize.matrix_to_obj(result.evolution),
            "circuit": serialize.plan_to_obj(plan),
        }
        if include_trace:
            entry["trace"] = [
                {"step": step, "distance": d, "tangent_norm": t, "normal_norm": n}
                for step, (d, t, n) in enumerate(result.trace.tolist())]
        return entry
    return build


def _search(config: RunConfig, target: np.ndarray):
    """The engine's (representative, hit count) clusters for a target that
    must be a unitary of the configured basis's dimension."""
    basis = config.basis()
    if target.shape[0] != len(basis):
        raise ShapeError(
            f"target dimension {target.shape[0]} does not match "
            f"dimension(m={config.m}, n={config.n}) = {len(basis)}")
    require_unitary(target, "target")
    return multi_start(target, build_image_basis(basis), config.starts,
                       tol=config.tol, max_iter=config.max_iter,
                       rng_seed=config.rng_seed, cluster_tol=config.cluster_tol)


def _report(config: RunConfig, target: np.ndarray, clusters, include_trace: bool) -> dict:
    """A search's report, each cluster a builder (see :func:`_cluster_builder`)."""
    return {"format_version": REPORT_VERSION, "config": config.to_obj(),
            "target": serialize.matrix_to_obj(target),
            "clusters": [_cluster_builder(r, hits, include_trace) for r, hits in clusters]}


def cmd_approximate(args) -> int:
    config = RunConfig(m=args.modes, n=args.photons,
                       ordering=_parse_ordering(args.ordering),
                       tol=args.tol, max_iter=args.max_iter, starts=args.starts,
                       rng_seed=args.seed, cluster_tol=args.cluster_tol)
    target = serialize.load_matrix(args.target)
    clusters = _search(config, target)
    _write_output(args.output, _report(config, target, clusters, args.trace))
    best = clusters[0][0]
    _log(f"{len(clusters)} cluster(s); best distance {best.final_distance:.9f} "
         f"(fidelity bound {fidelity_bound(best.trace[-1].normal_norm):.6f})")
    if not best.converged:
        _log(f"warning: the best cluster did not converge within "
             f"max_iter={config.max_iter} iterations")
    return 0


REPLAY_TOL = TIE_TOL
REPLAY_LINES = 20  # mismatch lines printed before the rest are only counted


def _mesh_residual(plan, S) -> tuple[float, float]:
    """How far the plan's reconstruction lies from the matrix S, and the
    bound it must stay within."""
    if plan.m != S.shape[0]:
        raise ShapeError(f"plan has m = {plan.m} but the matrix has dimension {S.shape[0]}")
    # print-precision inputs can only be reconstructed up to their own defect
    return distance(reconstruct(plan), S), max(1e-9 * plan.m, 10.0 * unitarity_residual(S))


def _mesh_diff(entry: dict, path: str):
    """The (path, text) of a recorded cluster entry whose circuit does not
    reconstruct its recorded scattering matrix. The mesh is compared by
    its product, not angle by angle: an angle is ill-conditioned in the
    matrix, so roundoff can move it by far more than REPLAY_TOL."""
    try:
        # a tampered matrix may overflow; a residual or bound of inf or NaN is a mismatch
        with np.errstate(over="ignore", invalid="ignore"):
            residual, bound = _mesh_residual(
                serialize.plan_from_obj(entry["circuit"]),
                serialize.matrix_from_obj(entry["scattering_matrix"]))
    except OptiqError as exc:
        yield path, f"cannot be reconstructed: {exc}"
        return
    if not residual <= bound < math.inf:
        yield path, (f"reconstruction differs from the recorded scattering matrix "
                     f"by {residual:.3e}, more than {bound:.3e}")


def _diff(old, new, path=""):
    """The (path, text) of each place where the recorded tree old differs
    from the rebuilt tree new, whose builders are called when reached. Types
    (1 is neither True nor 1.0), dict keys and list lengths must match;
    floats agree within REPLAY_TOL, other leaves exactly; a circuit is
    checked by :func:`_mesh_diff`."""
    new = new() if callable(new) else new
    same, keys = type(old) is type(new), ()
    if same and type(new) is dict and old.keys() == new.keys():
        keys = [key for key in new if key != "circuit"]
        if "circuit" in new:
            yield from _mesh_diff(old, f"{path}.circuit")
    elif same and type(new) is list and len(old) == len(new):
        keys = range(len(new))
    elif same and type(new) is dict:
        yield path or "report", (f"missing keys {sorted(new.keys() - old.keys())}, "
                                 f"unexpected keys {sorted(old.keys() - new.keys())}")
    elif same and type(new) is list:
        yield path, f"{len(old)} items recorded, {len(new)} recomputed"
    elif not same or not (abs(old - new) <= REPLAY_TOL if type(new) is float else old == new):
        yield path, f"recorded {reprlib.repr(old)}, recomputed {reprlib.repr(new)}"
    for key in keys:
        a, b = old[key], new[key]
        # matching floats, the common leaf, are passed over without a call
        if not (type(a) is type(b) is float and abs(a - b) <= REPLAY_TOL):
            yield from _diff(a, b, f"{path}.{key}" if path else key)


def cmd_replay(args) -> int:
    report = serialize.load_json(args.report)
    try:
        if type(version := report["format_version"]) is not int or version != REPORT_VERSION:
            raise ValueError(f"format_version must be {REPORT_VERSION}, got {version!r}")
        config_obj, target_obj, clusters = report["config"], report["target"], report["clusters"]
        include_trace = bool(clusters) and "trace" in clusters[0]
    except (KeyError, TypeError, ValueError) as exc:
        raise OptiqError(f"malformed report: {exc!r}") from None
    config = RunConfig.from_obj(config_obj)
    target = serialize.matrix_from_obj(target_obj)
    found = list(_diff(report, _report(config, target, _search(config, target), include_trace)))
    for path, text in found[:REPLAY_LINES]:
        _log(f"replay mismatch: {path}: {text}")
    if len(found) > REPLAY_LINES:
        _log(f"replay mismatch: {len(found) - REPLAY_LINES} more not shown")
    if found:
        return 1
    _log(f"replay verified: {len(clusters)} cluster(s) match within {REPLAY_TOL:g}")
    return 0


def cmd_lift(args) -> int:
    basis = enumerate_basis(args.modes, args.photons, _parse_ordering(args.ordering))
    S = serialize.load_matrix(args.scattering)
    _write_output(args.output, serialize.matrix_to_obj(evolution_matrix(S, basis)))
    return 0


def cmd_sample(args) -> int:
    _write_output(args.output, serialize.matrix_to_obj(haar_random(args.modes, args.seed)))
    return 0


def cmd_decompose(args) -> int:
    S = serialize.load_matrix(args.scattering)
    plan = decompose(S)
    residual, bound = _mesh_residual(plan, S)
    if residual > bound:
        raise NumericalInstabilityError(
            f"plan reconstruction differs from input by {residual:.3e}")
    _write_output(args.output, serialize.plan_to_obj(plan))
    _log(f"{'idx':>3}  {'kind':<13} {'modes':<8} {'theta':>12} {'phi':>12}")
    for idx, el in enumerate(plan.elements):
        _log(f"{idx:>3}  {el.kind:<13} {str(list(el.modes)):<8} "
             f"{el.theta:>12.6f} {el.phi:>12.6f}")
    phases = ", ".join(f"{p:.6f}" for p in plan.residual_phases)
    _log(f"residual phases: [{phases}]  (reconstruction residual {residual:.2e})")
    return 0


def _add_basis_options(parser) -> None:
    parser.add_argument("--modes", "-m", type=int, required=True,
                        help="number of optical modes m")
    parser.add_argument("--photons", "-n", type=int, required=True,
                        help="number of photons n")
    parser.add_argument("--ordering", default="lex_desc",
                        help="basis ordering: 'lex_desc' or @file with a JSON state list")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="optiq",
        description="Locally optimal linear-optics approximations to "
                    "multiphoton unitaries.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("approximate",
                       help="multi-start search for the closest reachable evolution")
    p.add_argument("target", help="target evolution-matrix file (JSON or text)")
    _add_basis_options(p)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL,
                   help="stop when the tangent norm falls below this")
    p.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER)
    p.add_argument("--starts", "-k", type=int, default=1,
                   help="number of starts: the identity plus k-1 Haar draws")
    p.add_argument("--seed", type=int, default=0, help="base RNG seed")
    p.add_argument("--cluster-tol", type=float, default=DEFAULT_CLUSTER_TOL)
    p.add_argument("--trace", action="store_true",
                   help="include per-step traces in the report")
    p.add_argument("--output", "-o", default="report.json")
    p.set_defaults(func=cmd_approximate)

    p = sub.add_parser("replay", help="re-run a report's config and verify its clusters")
    p.add_argument("report")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("lift", help="evolution matrix of a scattering matrix")
    p.add_argument("scattering", help="scattering-matrix file (JSON or text)")
    _add_basis_options(p)
    p.add_argument("--output", "-o", default="-")
    p.set_defaults(func=cmd_lift)

    p = sub.add_parser("sample", help="Haar-random scattering matrix")
    p.add_argument("--modes", "-m", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", "-o", default="-")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("decompose", help="beam-splitter mesh of a scattering matrix")
    p.add_argument("scattering", help="scattering-matrix file (JSON or text)")
    p.add_argument("--output", "-o", default="-")
    p.set_defaults(func=cmd_decompose)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OptiqError, ValueError, OSError) as exc:  # json's decode error is a ValueError
        _log(f"error: {exc}")
        return next((code for cls, code in EXIT_CODES.items() if isinstance(exc, cls)), 1)


if __name__ == "__main__":
    sys.exit(main())

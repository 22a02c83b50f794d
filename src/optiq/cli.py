"""Command-line surface.

Subcommands:
    approximate   multi-start search for the closest reachable evolution
    lift          evolution matrix of a scattering-matrix file
    sample        Haar-random scattering matrix
    decompose     beam-splitter mesh of a scattering-matrix file
    replay        run a report's search again and compare its clusters directly

Exit codes: 0 success, 2 shape error, 3 unitarity error, 4 numerical
instability, 1 anything else. Every command is deterministic given its
flags; reports embed the full configuration so they can be replayed.
Replay builds no meshes or report entries for the clusters it recomputes.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

import numpy as np

from . import serialize
from .approx import (DEFAULT_CLUSTER_TOL, DEFAULT_MAX_ITER, DEFAULT_TOL,
                     fidelity_bound, haar_random, multi_start)
from .circuit import decompose, reconstruct
from .errors import (NumericalInstabilityError, OptiqError, ShapeError,
                     UnitarityError)
from .fock import FockBasis, enumerate_basis
from .homomorphism import evolution_matrix
from .lie import build_image_basis, distance
from .validate import require_int, require_unitary, unitarity_residual

REPORT_VERSION = 1


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
        return {"m": self.m, "n": self.n, "ordering": self.ordering,
                "tol": self.tol, "max_iter": self.max_iter,
                "starts": self.starts, "rng_seed": self.rng_seed,
                "cluster_tol": self.cluster_tol}

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
        except (KeyError, TypeError, ValueError) as exc:
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
                {"step": r.step, "distance": r.distance,
                 "tangent_norm": r.tangent_norm, "normal_norm": r.normal_norm}
                for r in result.trace]
        return entry
    return build


def _search(config: RunConfig, target: np.ndarray):
    """The basis and the engine's (representative, hit count) clusters for a
    target that must be a unitary of the basis's dimension."""
    basis = config.basis()
    if target.shape[0] != len(basis):
        raise ShapeError(
            f"target dimension {target.shape[0]} does not match "
            f"dimension(m={config.m}, n={config.n}) = {len(basis)}")
    require_unitary(target, "target")
    return basis, multi_start(target, build_image_basis(basis), config.starts,
                              tol=config.tol, max_iter=config.max_iter,
                              rng_seed=config.rng_seed, cluster_tol=config.cluster_tol)


def cmd_approximate(args) -> int:
    config = RunConfig(m=args.modes, n=args.photons,
                       ordering=_parse_ordering(args.ordering),
                       tol=args.tol, max_iter=args.max_iter, starts=args.starts,
                       rng_seed=args.seed, cluster_tol=args.cluster_tol)
    target = serialize.load_matrix(args.target)
    _, clusters = _search(config, target)
    _write_output(args.output, {
        "format_version": REPORT_VERSION,
        "config": config.to_obj(),
        "target": serialize.matrix_to_obj(target),
        "clusters": [_cluster_builder(result, hits, args.trace) for result, hits in clusters],
    })
    best = clusters[0][0]
    _log(f"{len(clusters)} cluster(s); best distance {best.final_distance:.9f} "
         f"(fidelity bound {fidelity_bound(best.trace[-1].normal_norm):.6f})")
    if not best.converged:
        _log(f"warning: the best cluster did not converge within "
             f"max_iter={config.max_iter} iterations")
    return 0


#: Fields of a report's cluster that replay must reproduce exactly. The
#: representative's iterations and scattering matrix are not among them:
#: members at one fixed point tie in distance to within roundoff, so another
#: BLAS may pick another member, and a scattering matrix is fixed by its lift
#: only up to an n-th root of unity. The recorded scattering matrix is
#: checked through its lift instead.
EXACT_FIELDS = ("hit_count", "converged")
REPLAY_TOL = 1e-9


def _cluster_fields(cluster: dict) -> dict:
    fields = {key: cluster[key] for key in EXACT_FIELDS}
    d = fields["final_distance"] = cluster["final_distance"]
    if type(d) not in (int, float) or not np.isfinite(d):  # not bool, str or NaN
        raise ValueError(f"final_distance must be a finite number, got {d!r}")
    for key in ("scattering_matrix", "evolution_matrix"):
        fields[key] = serialize.matrix_from_obj(cluster[key])
    return fields


def _gap(A: np.ndarray, B: np.ndarray) -> float:
    """Largest entry difference of A and B; infinite for different shapes."""
    return float(np.abs(A - B).max()) if A.shape == B.shape else np.inf


def _mismatches(old: list[dict], new: list[dict], basis: FockBasis) -> list[str]:
    """Every difference between recorded and recomputed clusters."""
    if len(old) != len(new):
        return [f"{len(old)} recorded clusters vs {len(new)} recomputed"]
    found = []
    worst = max((abs(a["final_distance"] - b["final_distance"])
                 for a, b in zip(old, new)), default=0.0)
    if worst > REPLAY_TOL:
        found.append(f"distances differ by {worst:.3e}")
    for i, a in enumerate(old):
        # clusters whose distances tie may swap places: compare with the
        # nearest evolution among the recomputed clusters at this distance
        tied = [c for c in new if abs(c["final_distance"] - a["final_distance"]) <= REPLAY_TOL]
        b = min(tied or [new[i]], key=lambda c: _gap(a["evolution_matrix"], c["evolution_matrix"]))
        for key in EXACT_FIELDS:
            if repr(a[key]) != repr(b[key]):  # 1 is not True
                found.append(f"cluster {i} {key} {a[key]!r} recorded vs {b[key]!r} recomputed")
        if not (gap := _gap(a["evolution_matrix"], b["evolution_matrix"])) <= REPLAY_TOL:
            found.append(f"cluster {i} evolution_matrix differs by {gap:.3e}")
        S = a["scattering_matrix"]
        gap = (_gap(evolution_matrix(S, basis), a["evolution_matrix"])
               if S.shape == (basis.m, basis.m) else np.inf)
        if not gap <= REPLAY_TOL:
            found.append(f"cluster {i} scattering_matrix lifts {gap:.3e} away from "
                         f"its evolution_matrix")
    return found


def cmd_replay(args) -> int:
    report = serialize.load_json(args.report)
    try:
        config_obj, target_obj = report["config"], report["target"]
        old = [_cluster_fields(c) for c in report["clusters"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise OptiqError(f"malformed report: {exc!r}") from None
    config = RunConfig.from_obj(config_obj)
    target = serialize.matrix_from_obj(target_obj)
    basis, clusters = _search(config, target)
    new = [{"hit_count": hits, "converged": r.converged, "final_distance": r.final_distance,
            "evolution_matrix": r.evolution} for r, hits in clusters]
    found = _mismatches(old, new, basis)
    for line in found:
        _log(f"replay mismatch: {line}")
    if found:
        return 1
    _log(f"replay verified: {len(old)} cluster(s) match within {REPLAY_TOL:g}")
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
    residual = distance(reconstruct(plan), S)
    # print-precision inputs can only be reconstructed up to their own defect
    bound = max(1e-9 * plan.m, 10.0 * unitarity_residual(np.asarray(S, dtype=complex)))
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
    except ShapeError as exc:
        _log(f"error: {exc}")
        return 2
    except UnitarityError as exc:
        _log(f"error: {exc}")
        return 3
    except NumericalInstabilityError as exc:
        _log(f"error: {exc}")
        return 4
    except (OptiqError, ValueError, OSError, json.JSONDecodeError) as exc:
        _log(f"error: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Run one optiq benchmark workload and print its metrics.

    python3 perfbench/run.py --workload single-m70 --seed 7 --seconds 60 --trace 0

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src``. ``--trace 0`` prints the end-to-end metrics of
BENCHMARK.json, ``--trace 1`` its per-layer metrics. The last line of
standard output is a JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. A full record of the run (environment, every
operation and its checks, all layer timings) goes to
``perfbench/out/<workload>-seed<seed>-trace<t>.json``, and a traced run's
spans to ``perfbench/out/<workload>-seed<seed>-spans.jsonl``.
"""

from __future__ import annotations

import os

# BLAS threading is pinned for every workload before numpy is imported: on
# a small shared machine the default thread pool mostly measures
# oversubscription (see README.md).
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
# The CLI would otherwise cache image bases in that directory, outside the
# checkout, and later runs would load them instead of building them.
os.environ.pop("OPTIQ_BASIS_CACHE", None)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Operations per run at least, however short --seconds is.
MIN_OPS = 2


def import_optiq():
    """Import the package from this checkout's src, and nothing else."""
    sys.path.insert(0, str(SRC))
    try:
        import optiq
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import optiq from {SRC}: {exc}")
    if not Path(optiq.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"perfbench: optiq was imported from {optiq.__file__}, not {SRC}")


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
    }


def time_setup(args) -> float:
    """Wall time from spawning a fresh interpreter until the workload's
    inputs are built in it."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--scale", args.scale]
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe exited {proc.returncode}: {line!r}")
    return elapsed


def run_ops(wl, seconds: float, tracer=None, after=None) -> list[dict]:
    """Closed loop, one client: run operations until ``seconds`` have passed.

    Another operation starts only while it is expected to end within half
    an operation of the deadline. ``after``, if given, is called after every
    operation, outside the operation's time but inside the run's. A traced
    run runs each input twice in a row and traces the second, so each pair
    also gives the tracing overhead on identical work.
    """
    records = []
    begin = time.perf_counter()
    j = 0
    while (j < MIN_OPS or (tracer is not None and j % 2)
           or time.perf_counter() - begin + records[-1]["seconds"] / 2 < seconds):
        i = j // 2 if tracer is not None else j
        traced = tracer is not None and j % 2 == 1
        rec = {"op": j, "input": i, "traced": traced}
        if traced:
            tracer.run = f"op{j}"
            tracer.install()
        start = time.perf_counter()
        try:
            out = wl.op(i, j)
        except Exception:
            rec["errors"] = [traceback.format_exc()]
        finally:
            rec["seconds"] = time.perf_counter() - start
            if traced:
                tracer.restore()
                tracer.run = None
        if "errors" not in rec:
            try:
                detail, rec["errors"] = wl.check(i, j, out)
                rec.update(detail)
            except Exception:
                rec["errors"] = [traceback.format_exc()]
        records.append(rec)
        if after is not None:
            after()
        j += 1
    return records


def layer_values(tracer, records, setup_wall: float):
    """Per-layer numbers of one traced set-up plus one traced operation
    (operations averaged), and each span name's share of that wall time."""
    import spans as sp

    setup = [s for s in tracer.spans if s.run == "setup"]
    ops = [s for s in tracer.spans if s.run != "setup"]
    traced = [r for r in records if r["traced"]]
    n = len(traced)
    setup_stats, op_stats = sp.layer_stats(setup), sp.layer_stats(ops)
    values = {}
    for name, _, _ in sp.PATCHES:
        for key in ("calls", "busy_s", "self_s"):
            values[f"{name}.{key}"] = (setup_stats.get(name, {}).get(key, 0)
                                       + op_stats.get(name, {}).get(key, 0) / n)
    for group, names in sp.GROUPS.items():
        values[f"{group}.busy_s"] = sp.group_busy(setup, names) + sp.group_busy(ops, names) / n

    def notes(name, key):
        return [s.note[key] for s in tracer.spans if s.name == name and key in s.note]

    runs = notes("approx.approximate", "converged")
    clusters = notes("approx.multi_start", "clusters")
    calls = values["approx.approximate.calls"]
    values["lie.image_basis.bytes"] = max(notes("lie.build_image_basis", "bytes"), default=0)
    values["approx.steps_per_run"] = values["lie.principal_log.calls"] / calls if calls else 0.0
    values["approx.converged_frac"] = sum(runs) / len(runs) if runs else 0.0
    values["approx.clusters"] = statistics.fmean(clusters) if clusters else 0.0
    values["serialize.report_bytes"] = statistics.fmean(
        r.get("report_bytes", 0) for r in traced)
    untraced = sum(r["seconds"] for r in records if not r["traced"])
    values["trace.overhead_frac"] = sum(r["seconds"] for r in traced) / untraced - 1.0

    wall = setup_wall + statistics.fmean(r["seconds"] for r in traced)
    shares = {name: values[f"{name}.busy_s"] / wall for name, _, _ in sp.PATCHES}
    shares.update({g: values[f"{g}.busy_s"] / wall for g in sp.GROUPS})
    return values, dict(sorted(shares.items(), key=lambda kv: -kv[1]))


def measure(wl, args, workdir: Path, outdir: Path) -> tuple[dict, dict, list[dict]]:
    """Run the workload; return (metric values, extra record, op records)."""
    if not args.trace:
        # A fresh-process set-up follows every operation, so that the
        # set-ups' median spans the same slow and fast phases of a shared
        # machine as the operations' median.
        setups = []
        wl.setup()
        wl.prepare(workdir)
        records = run_ops(wl, args.seconds, after=lambda: setups.append(time_setup(args)))
        values = {
            "setup_s": statistics.median(setups),
            "op_s": statistics.median(r["seconds"] for r in records),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        return values, {"setup_samples_s": setups}, records

    import spans as sp

    tracer = sp.Tracer()
    tracer.run = "setup"
    tracer.install()
    start = time.perf_counter()
    try:
        wl.setup()
    finally:
        setup_wall = time.perf_counter() - start
        tracer.restore()
        tracer.run = None
    wl.prepare(workdir)
    records = run_ops(wl, args.seconds, tracer)
    tracer.write(outdir / f"{args.workload}-seed{args.seed}-spans.jsonl")
    values, shares = layer_values(tracer, records, setup_wall)
    return values, {"setup_wall_s": setup_wall, "shares": shares,
                    "spans": len(tracer.spans)}, records


def load_metric_specs(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["per_layer" if trace else "end_to_end"]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "small"), default="full",
                   help="'small' shrinks every workload, for the benchmark's own tests")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    import_optiq()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload](args.seed, args.scale == "small")
    if args.setup_probe:
        wl.setup()
        print("ready", flush=True)
        return 0

    specs = load_metric_specs(bool(args.trace))
    outdir = HERE / "out"
    workdir = outdir / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        values, extra, records = measure(wl, args, workdir, outdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(1 for r in records if r["errors"])
    metrics = {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs}
    env = environment(args)
    detail = {"environment": env, "metrics": metrics, "failed": failed,
              "attempted": len(records), "all_values": values, **extra,
              "operations": records}
    (outdir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1, default=str) + "\n", encoding="utf-8")

    print(f"{args.workload}  seed {args.seed}  trace {args.trace}: "
          f"{len(records)} operations, {failed} failed")
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'failed_frac':<40} {failed / len(records):>14.6g} ratio")
    for r in records:
        for e in r["errors"]:
            print(f"  operation {r['op']} failed: {e.strip()}")
    print("environment " + json.dumps(env, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

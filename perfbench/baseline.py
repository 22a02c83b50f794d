"""Run the benchmark over ten seeds and write its baseline.

    python3 perfbench/baseline.py

Every workload of BENCHMARK.json runs once per seed in SEEDS, each run a
separate ``run.py`` process, one after another. For every workload and
end-to-end metric the summary holds the median of the runs and their
spread, the distance between the first and third quartile as a share of the
median; a steady benchmark keeps each spread below a third of the metric's
bound in BENCHMARK.json. Every workload is also run once with tracing at
TRACED_SEED, and the summary records that run's environment, its per-layer
metrics and each layer's share of the traced wall time. The summary goes to
``perfbench/baseline.json``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)
TRACED_SEED = 7
OUTPUT = HERE / "baseline.json"


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {"run_seconds": spec["run_seconds"], "seeds": list(SEEDS), "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        results = [run(workload, seed, spec["run_seconds"], 0) for seed in SEEDS]
        entry = {"correct": all(r["correct"] for r in results),
                 "attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results), "end_to_end": {}}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            entry["end_to_end"][name] = {
                "median": statistics.median(values), "spread": spread(values),
                "bound": bound, "unit": results[0]["metrics"][name]["unit"],
                "values": values}
            print(f"{workload:<22} {name:<14} median {statistics.median(values):10.5g}  "
                  f"spread {spread(values):.4f}  (bound {bound})", flush=True)
        traced = run(workload, TRACED_SEED, spec["run_seconds"], 1)
        record = json.loads((HERE / "out" / f"{workload}-seed{TRACED_SEED}-trace1.json")
                            .read_text(encoding="utf-8"))
        entry["environment"] = record["environment"]
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        entry["layer_shares"] = {k: v for k, v in record["shares"].items() if v > 0}
        summary["workloads"][workload] = entry
    OUTPUT.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

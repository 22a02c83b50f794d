"""Tests of the benchmark itself: span arithmetic, tracing, every workload at
a reduced size, and the BENCHMARK.json contract.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def span(id, name, start, end, parent=None):
    return spans.Span(id, name, start, end, parent, "r")


def test_self_time_subtracts_children():
    tree = [
        span(0, "outer", 0.0, 10.0),
        span(1, "inner", 1.0, 4.0, parent=0),
        span(2, "leaf", 2.0, 3.0, parent=1),
        span(3, "inner", 6.0, 7.5, parent=0),
    ]
    stats = spans.layer_stats(tree)
    assert stats["outer"] == {"calls": 1, "busy_s": 10.0, "self_s": 5.5}
    assert stats["inner"] == {"calls": 2, "busy_s": 4.5, "self_s": 3.5}
    assert stats["leaf"] == {"calls": 1, "busy_s": 1.0, "self_s": 1.0}


def test_overlapping_children_are_covered_once():
    tree = [span(0, "p", 0.0, 10.0), span(1, "c", 1.0, 5.0, 0), span(2, "c", 3.0, 6.0, 0)]
    assert spans.layer_stats(tree)["p"]["self_s"] == pytest.approx(5.0)


def test_group_busy_counts_nested_members_once():
    tree = [
        span(0, "cli", 0.0, 10.0),
        span(1, "load_matrix", 1.0, 4.0, parent=0),
        span(2, "matrix_from_obj", 2.0, 3.0, parent=1),
        span(3, "matrix_from_obj", 5.0, 6.0, parent=0),
    ]
    assert spans.group_busy(tree, {"load_matrix", "matrix_from_obj"}) == 4.0


def test_tracer_records_parents_and_restores_the_package():
    import numpy as np
    from optiq import approx

    wl = workloads.SingleRun(seed=3, small=True)
    wl.setup()
    originals = {name: getattr(approx, name) for name in ("principal_log", "approximate")}
    tracer = spans.Tracer()
    tracer.run = "t"
    tracer.install()
    try:
        res = approx.approximate(wl.targets[0], np.eye(3), wl.image, max_iter=3)
    finally:
        tracer.restore()
    assert {name: getattr(approx, name) for name in originals} == originals
    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    (top,) = by_name["approx.approximate"]
    assert top.parent is None and top.note == {"converged": res.converged}
    assert len(by_name["lie.principal_log"]) == res.iterations + 1
    assert all(s.parent == top.id for s in by_name["lie.principal_log"])
    assert all(s.run == "t" for s in tracer.spans)


def run_bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric_with_its_unit(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "7", "--seconds", "0",
                     "--trace", str(trace), "--scale", "small")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    specs = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {s["name"]: s["unit"] for s in specs}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path, "--workload", "single-m70", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_follows_its_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    assert 1 <= SPEC["run_seconds"] <= 60
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in SPEC[key]]
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())

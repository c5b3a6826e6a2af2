"""Smoke check of the benchmark at a tiny size. Run from the checkout:

    python3 perfbench/smoke.py

It checks that every metric BENCHMARK.json names is reported with its unit,
that `layer_map.json` covers every workload and every traced function, that
the traced run's checks pass and its wrappers are removed afterwards, and
that a RunResult whose cost does not match its trajectory is caught. Exits
0 when all hold.
"""

from __future__ import annotations

import json
import sys
import threading
from dataclasses import replace
from decimal import Decimal

import run
from spans import TARGETS, installed_objects

TINY_TASKS = 18


def tiny(workload: run.Workload, bench) -> tuple[run.Workload, object]:
    small = replace(workload, sweeps=2, num_tasks=TINY_TASKS, budgets=workload.budgets[:2])
    return small, bench.SweepConfig(catalog=workload.catalog, validation_size=12)


def check_names(result: dict, trace: bool, expected: dict[str, str], label: str) -> list[str]:
    got = {name: run.units(trace)[name] for name in result["metrics"]}
    problems = [f"{label}: {name} missing" for name in expected if name not in got]
    problems += [f"{label}: {name} not in BENCHMARK.json" for name in got if name not in expected]
    problems += [
        f"{label}: {name} unit {got[name]} != {unit}"
        for name, unit in expected.items()
        if name in got and got[name] != unit
    ]
    if not result["correct"] or result["failed"]:
        problems.append(f"{label}: {result['failed']} failed: {result['report']['problems'][:3]}")
    return problems


def corrupted_result_is_caught(bench, workload: run.Workload) -> list[str]:
    """Skew one scored RunResult's total cost by a micro-dollar inside a real sweep."""
    small, config = tiny(workload, bench)
    run_task = bench.run_task
    lock = threading.Lock()
    corrupted: list[str] = []

    def skewed(*args, **kwargs):
        result = run_task(*args, **kwargs)
        with lock:
            if corrupted:
                return result
            corrupted.append(result.task_id)
        return replace(result, total_cost=result.total_cost + Decimal("0.000001"))

    bench.run_task = skewed
    try:
        result = run.run(small, 0, 0, False, config=config, probes=0)
    finally:
        bench.run_task = run_task
    if result["correct"] or result["failed"] < 1:
        return [f"a cost skew on {corrupted} went unnoticed"]
    return []


def main() -> int:
    bench = run.load_weaver()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    layer_map = json.loads((run.HERE / "layer_map.json").read_text(encoding="utf-8"))
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}

    problems = []
    if sorted(w["name"] for w in spec["workloads"]) != sorted(run.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.WORKLOADS")
    if sorted(layer_map["workloads"]) != sorted(run.WORKLOADS):
        problems.append("layer_map.json workloads differ from run.WORKLOADS")
    mapped = {name for entry in layer_map["layers"] for name in entry["metrics"]}
    counted = {
        name for name in per_layer
        if not name.endswith((".calls", ".self_s", ".wait_s")) and name != "trace_overhead_share"
    }
    for name in [t[0] for t in TARGETS] + sorted(counted):
        if name not in mapped:
            problems.append(f"layer_map.json does not map {name}")

    for name, workload in run.WORKLOADS.items():
        small, config = tiny(workload, bench)
        result = run.run(small, 0, 0, False, config=config, probes=1)
        problems += check_names(result, False, end_to_end, f"{name} trace 0")
        before = installed_objects()
        result = run.run(small, 0, 0, True, config=config)
        problems += check_names(result, True, per_layer, f"{name} trace 1")
        after = installed_objects()
        if after.keys() != before.keys() or any(after[k] is not v for k, v in before.items()):
            problems.append(f"{name} trace 1: a wrapper was left installed")

    problems += corrupted_result_is_caught(bench, run.WORKLOADS["gaia_planner"])

    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

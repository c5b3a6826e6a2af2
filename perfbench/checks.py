"""Correctness checks on sweep output, applied from outside the program.

Every check that fails counts as one failed operation in the benchmark's
result line. The checks mirror the invariants of the acceptance suite:
exact cost sums, overshoot bounded by the last charged step, a consistent
overshoot flag, and byte-identical output on replay.
"""

from __future__ import annotations

import hashlib
from decimal import Decimal
from pathlib import Path


def run_result_failures(result, budget: Decimal) -> list[str]:
    """One message per violated invariant of a RunResult scored at ``budget``.

    The overshoot bound uses the last step that charged money: a run that
    has already overshot logs its best-effort finish step for free.
    """
    failures = []
    step_sum = sum((entry.cost.dollars for entry in result.trajectory), Decimal(0))
    if result.total_cost != step_sum:
        failures.append(
            f"{result.task_id}@{budget}: total_cost {result.total_cost} != step sum {step_sum}"
        )
    excess = result.total_cost - budget
    charged = [entry.cost.dollars for entry in result.trajectory if entry.cost.dollars > 0]
    if excess > 0 and (not charged or excess > charged[-1]):
        failures.append(f"{result.task_id}@{budget}: overshoot {excess} above last charged step")
    if result.overshoot != (result.total_cost > budget):
        failures.append(
            f"{result.task_id}@{budget}: overshoot flag {result.overshoot}"
            f" with total {result.total_cost}"
        )
    return failures


def sweep_failures(sweep) -> tuple[int, list[str], list[str]]:
    """Return (task-runs, the ``error`` of each failed task-run, check failures) of a sweep."""
    runs = 0
    errors: list[str] = []
    failures: list[str] = []
    for cell in sweep.cells.values():
        for result in cell.results:
            runs += 1
            if result.error is not None:
                errors.append(f"{result.task_id}@{cell.budget} {cell.method.value}: {result.error}")
            failures.extend(run_result_failures(result, cell.budget))
    return runs, errors, failures


def digest_dir(path: str | Path) -> str:
    """SHA-256 over every file's relative path and bytes, in sorted path order."""
    root = Path(path)
    h = hashlib.sha256()
    for file in sorted(p for p in root.rglob("*") if p.is_file()):
        data = file.read_bytes()
        h.update(file.relative_to(root).as_posix().encode())
        h.update(len(data).to_bytes(8, "big"))
        h.update(data)
    return h.hexdigest()

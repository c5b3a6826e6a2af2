"""Rendering of the trajectory log: one JSON line per logged step, then one
per run. ``orchestrator.trajectory_rows`` defines the rows;
``orchestrator.write_trajectory_log`` writes the lines.
"""

from __future__ import annotations

from decimal import Decimal
from json.encoder import encode_basestring_ascii as _json_str
from typing import TYPE_CHECKING

from .agents import _digest
from .core import HistoryEntry, as_dollars

if TYPE_CHECKING:
    from .orchestrator import Method, RunResult


class TrajectoryLog:
    """Renders results as trajectory-log lines, each equal to
    ``json.dumps(row, ensure_ascii=True)`` of its ``orchestrator.trajectory_rows`` row.

    Of a step's row, only ``budget`` and ``remaining_after`` depend on the
    cell and ``task_id`` and ``method`` on the result, so the other eight
    fields are rendered once per ``HistoryEntry`` and reused for every
    result that logs it: a cut run holds the very entries of the run it was
    cut from. A sweep keeps one log per sweep seed and drops it with the
    seed's artifacts.
    """

    def __init__(self):
        # id(entry) -> (entry, text); holding the entry keeps its id from being reused.
        self._steps: dict[int, tuple[HistoryEntry, str]] = {}

    def _step(self, entry: HistoryEntry) -> str:
        hit = self._steps.get(id(entry))
        if hit is not None:
            return hit[1]
        action, cost = entry.action, entry.cost
        text = (
            f'"step": {entry.step}, "action_kind": {_json_str(action.id.kind.value)}, '
            f'"action_name": {_json_str(action.id.name)}, "subtask": {_json_str(action.subtask)}, '
            f'"output_digest": "{_digest(entry.output)}", "input_tokens": {cost.usage.input_tokens}, '
            f'"output_tokens": {cost.usage.output_tokens}, "dollars": "{cost.dollars!s}", '
        )
        self._steps[id(entry)] = (entry, text)
        return text

    def lines(self, result: RunResult, method: Method, budget: Decimal) -> list[str]:
        """``result``'s log lines under ``method`` at ``budget``: its steps, then its trailer."""
        budget = as_dollars(budget)
        task_id = _json_str(result.task_id)
        head = f'{{"task_id": {task_id}, "method": {_json_str(method.value)}, "budget": "{budget!s}", '
        remaining = budget
        lines = []
        for entry in result.trajectory:
            remaining -= entry.cost.dollars
            lines.append(f'{head}{self._step(entry)}"remaining_after": "{remaining!s}"}}')
        answer = "null" if result.final_answer is None else _json_str(result.final_answer)
        lines.append(
            f'{{"task_id": {task_id}, "final_answer": {answer}, "solved": {_json_bool(result.solved)}, '
            f'"total_cost": "{result.total_cost!s}", "overshoot": {_json_bool(result.overshoot)}}}'
        )
        return lines


def _json_bool(value: bool) -> str:
    return "true" if value else "false"

"""Self-play reflection: cost estimation and module mining.

Rounds of budget-unaware execution on a validation slice build a trajectory
store. From it we (a) estimate per-action mean dollar costs as exact
rationals and (b) mine recurring contiguous agent patterns out of the
successful trajectories, abstracting them into new collaboration modules,
at most one per round. A profile estimated here is attached to later runs
as metadata; nothing asserts it transfers to unseen tasks.
"""

from __future__ import annotations

import hashlib
import json
import logging
import threading
from dataclasses import dataclass
from decimal import MAX_PREC, Context, Decimal, Inexact, InvalidOperation, localcontext
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Mapping, Sequence

from .agents import _digest
from .collab import (
    CollaborationModule,
    Ensemble,
    Interactive,
    ModuleExecutor,
    ModuleRegistry,
    Pipeline,
    Single,
    Strategy,
)
from .core import (
    ActionId,
    ActionKind,
    AGGREGATE_MODEL,
    CostLedger,
    CostProfile,
    CostRecord,
    FINISH,
    ProfileEntry,
    TokenUsage,
    as_dollars,
    sum_records,
)
from .tasks import Task

if TYPE_CHECKING:
    from .bench import SweepConfig

log = logging.getLogger(__name__)

DEFAULT_MIN_SUPPORT = 0.5
DEFAULT_MAX_LEN = 4
DEFAULT_AGGREGATOR = "reason"


class EmptyStore(ValueError):
    """Cost estimation requires at least one stored trajectory."""


@dataclass(frozen=True)
class StoredStep:
    action: ActionId
    subtask_digest: str
    cost: CostRecord


@dataclass(frozen=True)
class StoredTrajectory:
    task_id: str
    round: int
    success: bool
    steps: tuple[StoredStep, ...]


class TrajectoryStore:
    """Append-only log of executed trajectories, persistable as NDJSON."""

    def __init__(self):
        self._trajectories: list[StoredTrajectory] = []
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._trajectories)

    def append(self, trajectory: StoredTrajectory) -> None:
        with self._lock:
            self._trajectories.append(trajectory)

    def append_result(self, result, round: int = 0) -> StoredTrajectory:
        """Store a finished run (an orchestrator RunResult)."""
        steps = tuple(
            StoredStep(
                action=entry.action.id,
                subtask_digest=_digest(entry.action.subtask),
                cost=entry.cost,
            )
            for entry in result.trajectory
        )
        trajectory = StoredTrajectory(result.task_id, round, bool(result.solved), steps)
        self.append(trajectory)
        return trajectory

    def trajectories(self) -> tuple[StoredTrajectory, ...]:
        with self._lock:
            return tuple(self._trajectories)

    def action_sequences(self, successful_only: bool = False) -> list[tuple[ActionId, ...]]:
        return [
            tuple(step.action for step in traj.steps)
            for traj in self.trajectories()
            if traj.success or not successful_only
        ]

    def _lines(self) -> Iterator[str]:
        """What ``save`` writes: a JSON line per step, then one per trajectory's outcome."""
        for traj in self.trajectories():
            head = {"task_id": traj.task_id, "round": traj.round}
            for i, step in enumerate(traj.steps):
                yield json.dumps(
                    {
                        **head,
                        "step": i,
                        "action": str(step.action),
                        "subtask_digest": step.subtask_digest,
                        "input_tokens": step.cost.usage.input_tokens,
                        "output_tokens": step.cost.usage.output_tokens,
                        "dollars": str(step.cost.dollars),
                    }
                ) + "\n"
            yield json.dumps({**head, "success": traj.success}) + "\n"

    def save(self, path: str | Path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(self._lines())

    @staticmethod
    def load(path: str | Path) -> "TrajectoryStore":
        store = TrajectoryStore()
        steps: list[StoredStep] = []
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                row = json.loads(line)
                if "success" in row:
                    store.append(
                        StoredTrajectory(
                            task_id=str(row["task_id"]),
                            round=int(row["round"]),
                            success=bool(row["success"]),
                            steps=tuple(steps),
                        )
                    )
                    steps = []
                    continue
                usage = TokenUsage(int(row["input_tokens"]), int(row["output_tokens"]))
                steps.append(
                    StoredStep(
                        action=ActionId.parse(row["action"]),
                        subtask_digest=str(row["subtask_digest"]),
                        cost=CostRecord(usage=usage, model=AGGREGATE_MODEL, dollars=as_dollars(row["dollars"])),
                    )
                )
        if steps:
            raise ValueError("trajectory file ends mid-trajectory (missing trailer)")
        return store

    def digest(self) -> str:
        """SHA-256 of the bytes ``save`` writes, for replay checks."""
        return hashlib.sha256("".join(self._lines()).encode()).hexdigest()


# Decimal sums that never round: a sum that would is an Inexact error.
_EXACT_SUM = Context(prec=MAX_PREC, traps=[Inexact, InvalidOperation])


def estimate_costs(store: TrajectoryStore) -> CostProfile:
    """Exact per-action arithmetic mean of every logged dollar cost, with
    the number of costs it averages.

    Each action's dollars are summed as Decimals in ``_EXACT_SUM``, so one
    ``Fraction`` per action equals the mean of the steps' ``Fraction``s.
    """
    trajectories = store.trajectories()
    if not trajectories:
        raise EmptyStore("no trajectories logged")
    dollars: dict[ActionId, list[Decimal]] = {}
    for traj in trajectories:
        for step in traj.steps:
            dollars.setdefault(step.action, []).append(step.cost.dollars)
    entries = {}
    with localcontext(_EXACT_SUM):
        for aid, values in dollars.items():
            mean = Fraction(sum(values, Decimal(0))) / len(values)
            entries[aid] = ProfileEntry(mean_dollars=mean, sample_count=len(values))
    return CostProfile(entries)


# -- pattern mining -----------------------------------------------------------


def _abstract(pattern: tuple[ActionId, ...]) -> tuple[str, Strategy]:
    """Turn a contiguous agent-id pattern of at least 2 steps into (name, strategy)."""
    names = [aid.name for aid in pattern]
    if len(set(names)) == 1:
        n = len(names)
        return (
            f"mined_ensemble{n}_{names[0]}",
            Ensemble(n, Single(names[0]), DEFAULT_AGGREGATOR),
        )
    if len(names) >= 3 and len(set(names)) == 2 and all(
        name == names[i % 2] for i, name in enumerate(names)
    ):
        return (
            f"mined_interactive_{names[0]}_{names[1]}",
            Interactive(Single(names[0]), Single(names[1])),
        )
    return (
        "mined_pipeline_" + "_".join(names),
        Pipeline(tuple(Single(name) for name in names)),
    )


def mine_modules(
    store: TrajectoryStore,
    min_support: float = DEFAULT_MIN_SUPPORT,
    max_len: int = DEFAULT_MAX_LEN,
    registry: ModuleRegistry | None = None,
) -> list[CollaborationModule]:
    """Frequent contiguous agent patterns from successful trajectories.

    Support is the fraction of successful trajectories containing the
    pattern at least once. Candidates are ranked by support x length; one
    whose strategy equals a registered module's or an earlier candidate's
    (strategies compare structurally) is dropped. Windows containing module
    or finish steps are skipped: only direct agent interactions are
    abstractable.
    """
    if not 0 < min_support <= 1:
        raise ValueError("min_support must be in (0, 1]")
    if max_len < 2:
        raise ValueError("max_len must be at least 2")
    sequences = store.action_sequences(successful_only=True)
    if not sequences:
        return []
    support_floor = Fraction(str(min_support))
    windows: dict[tuple[ActionId, ...], int] = {}
    for seq in sequences:
        seen: set[tuple[ActionId, ...]] = set()
        for length in range(2, max_len + 1):
            for i in range(len(seq) - length + 1):
                window = seq[i : i + length]
                if any(aid.kind is not ActionKind.AGENT for aid in window):
                    continue
                seen.add(window)
        for window in seen:
            windows[window] = windows.get(window, 0) + 1

    total = len(sequences)
    scored: list[tuple[Fraction, Fraction, tuple[ActionId, ...], str, Strategy]] = []
    for window, count in windows.items():
        support = Fraction(count, total)
        if support < support_floor:
            continue
        name, strategy = _abstract(window)
        scored.append((support * len(window), support, window, name, strategy))

    known = {m.strategy for m in registry.modules()} if registry is not None else set()
    out: list[CollaborationModule] = []
    for score, support, window, name, strategy in sorted(
        scored, key=lambda row: (-row[0], -row[1], str(row[2]))
    ):
        if strategy in known:
            continue
        known.add(strategy)
        out.append(
            CollaborationModule(
                name=name,
                strategy=strategy,
                description=(
                    f"mined pattern {' -> '.join(a.name for a in window)}"
                    f" (support {float(support):.2f})"
                ),
            )
        )
    return out


# -- self-play ----------------------------------------------------------------


def run_selfplay(
    tasks: Sequence[Task],
    registry: ModuleRegistry,
    backend,
    config: SweepConfig,
    seed: int = 0,
    roster: Mapping | None = None,
) -> tuple[TrajectoryStore, CostProfile, list[CollaborationModule]]:
    """Iterative budget-unaware execution, costing, and mining.

    Each of ``config.selfplay_rounds`` rounds (``SweepConfig`` checks there
    is at least one) runs every task with the current registry and registers
    at most one mined module whose strategy no registered module has. Every
    run is a ``modules_unaware`` run under ``config``'s run knobs at
    ``config.selfplay_budget``; one that fails is stored as unsuccessful,
    with the steps and spend it logged. After the last round every action
    of ``action_space`` but finish that no stored step executed, roster
    agents first and then registry modules, is cost-probed: its
    ``registry.strategy_for`` is run once, and its spend stored as a
    one-step unsuccessful trajectory. So the returned profile prices the
    whole action space, less any action whose probe failed.
    """
    from .orchestrator import Method, action_space, default_roster, run_task

    if not tasks:
        raise ValueError("tasks must be non-empty")
    roster = roster or default_roster(config.models)
    run_config = config.run_config(Method.MODULES_UNAWARE, config.selfplay_budget)
    store = TrajectoryStore()
    new_modules: list[CollaborationModule] = []

    for round_idx in range(config.selfplay_rounds):
        round_seed = seed + 7919 * round_idx
        for task in tasks:
            result = run_task(
                task, run_config, registry=registry, backend=backend, seed=round_seed, roster=roster
            )
            if result.error is not None:
                log.warning("selfplay task %s failed: %s", task.id, result.error)
            store.append_result(result, round=round_idx)
        candidates = mine_modules(store, config.min_support, config.max_len, registry=registry)
        if candidates:
            new_modules.append(registry.register(candidates[0]))
    observed = {step.action for traj in store.trajectories() for step in traj.steps}
    task = tasks[0]
    for action_id in action_space(roster, registry.modules()):
        if action_id == FINISH or action_id in observed:
            continue
        ledger = CostLedger(config.selfplay_budget)
        try:
            session = backend.session(task.id)
            ModuleExecutor(session, roster, ledger, config.prices).run(
                registry.strategy_for(action_id), f"work the open parts of case {task.id}", []
            )
        except Exception as exc:
            log.warning("cost probe for %s failed: %s", action_id, exc)
            continue
        step = StoredStep(action_id, _digest("cost probe"), sum_records(ledger.entries))
        store.append(StoredTrajectory(task.id, config.selfplay_rounds - 1, False, (step,)))
    return store, estimate_costs(store), new_modules

"""Sweep harness: method x budget grids, Acc@B, and report emission.

A sweep fixes a task file and, per seed, builds one synthetic world, runs
self-play reflection on the validation slice (first tasks) to obtain the
module registry, cost profile, and transition prior, then scores every
(method, budget) cell on the remaining tasks. All artifacts are
deterministic functions of (tasks, config, seed).

A cell runs its tasks inline: the synthetic world is pure Python, where
threads only contend for the GIL. A sweep scores each method's budgets
largest first, and each cell is cut from the cell before it
(``orchestrator.cut_run``), so a budget-blind method's task executes once
per seed, at the largest budget. React at a budget is the start of
``iter_verify`` at that budget, so ``iter_verify``'s cells run first and
react's largest cell is cut from ``iter_verify``'s. A task runs again in
full when its longer run ended in an error, when a step's remaining budget
falls below that step's floor (only a budget-aware step, of
``modules_prompt`` or ``weaver``, has a floor above 0), or when the cut
needs a step the longer run never took (a react run that forces a metered
finish where ``iter_verify`` went on to verify). A seed's cells share one
``TrajectoryLog``, so each logged step's JSON is rendered once however
many cells log it. ``weaver run``
scores one cell on any backend through ``run_cell`` and ``cell_row``.
"""

from __future__ import annotations

import json
# Unused here; perfbench/spans.py swaps this name to trace the sweep.
from concurrent.futures import ThreadPoolExecutor  # noqa: F401
from dataclasses import dataclass, field
from decimal import Decimal, ROUND_HALF_EVEN
from pathlib import Path
from typing import ClassVar, Mapping, Sequence

from .agents import ChatBackend, SyntheticWorld, WorldParams
from .collab import MAX_BRANCH_THREADS, ModuleRegistry, builtin_catalog
from .core import CostProfile, as_dollars, positive_budget
from .orchestrator import (
    MODULE_METHODS,
    Method,
    RunParams,
    RunResult,
    action_space,
    cut_run,
    default_roster,
    run_task,
    write_trajectory_log,
)
from .planner import TransitionPrior
from .reflection import DEFAULT_MAX_LEN, DEFAULT_MIN_SUPPORT, TrajectoryStore, run_selfplay
from .tasks import Task, split_validation
from .trajectory_log import TrajectoryLog


class EmptyResults(ValueError):
    """Accuracy over zero runs is undefined."""


# A method whose largest cell is cut from another method's at the same
# budget: react at B is the start of iter_verify at B.
CUT_FROM = {Method.REACT: Method.ITER_VERIFY}


def acc_at_b(results: Sequence[RunResult], budget, strict: bool = True) -> float:
    """Percentage of runs solved within budget, to 2 decimals.

    Strict mode counts a solved-but-overshooting run as unsolved.
    """
    if not results:
        raise EmptyResults("no run results")
    bound = as_dollars(budget)
    hits = 0
    for result in results:
        if not result.solved:
            continue
        if strict and result.total_cost > bound:
            continue
        hits += 1
    pct = Decimal(100 * hits) / Decimal(len(results))
    return float(pct.quantize(Decimal("0.01"), rounding=ROUND_HALF_EVEN))


def mean_cost(results: Sequence[RunResult]) -> Decimal:
    if not results:
        raise EmptyResults("no run results")
    return as_dollars(sum((r.total_cost for r in results), Decimal(0)) / len(results))


def utilization(results: Sequence[RunResult], budget) -> float:
    """Mean spend as a fraction of the budget, to 4 decimals."""
    frac = mean_cost(results) / as_dollars(budget)
    return float(frac.quantize(Decimal("0.0001"), rounding=ROUND_HALF_EVEN))


@dataclass(frozen=True)
class CellResult:
    method: Method
    budget: Decimal
    seed: int
    results: tuple[RunResult, ...]
    log_path: str

    @property
    def acc(self) -> float:
        return acc_at_b(self.results, self.budget, strict=True)

    @property
    def acc_lenient(self) -> float:
        return acc_at_b(self.results, self.budget, strict=False)

    @property
    def mean_cost(self) -> Decimal:
        return mean_cost(self.results)

    @property
    def utilization(self) -> float:
        return utilization(self.results, self.budget)

    @property
    def overshoot_count(self) -> int:
        return sum(1 for r in self.results if r.overshoot)


@dataclass
class SweepResult:
    methods: tuple[Method, ...]
    budgets: tuple[Decimal, ...]
    seeds: tuple[int, ...]
    cells: dict[tuple[str, str, int], CellResult] = field(default_factory=dict)
    scored_task_ids: tuple[str, ...] = ()
    validation_task_ids: tuple[str, ...] = ()

    def cell(self, method: Method, budget, seed: int) -> CellResult:
        return self.cells[(method.value, str(as_dollars(budget)), int(seed))]


@dataclass(frozen=True, kw_only=True)
class SweepConfig(RunParams):
    """Everything a sweep and its self-play need beyond the method/budget/seed grid.

    ``max_workers`` is a class constant, not a field: a sweep runs its cells
    inline, and the only threads it starts are an ensemble's branches on a
    backend that blocks on I/O, at most ``collab.MAX_BRANCH_THREADS``."""

    max_workers: ClassVar[int] = MAX_BRANCH_THREADS

    world_params: WorldParams | None = None
    catalog: str = "gaia"
    validation_size: int = 30
    selfplay_rounds: int = 5
    selfplay_budget: Decimal = Decimal("1.00")
    models: Mapping[str, str] | None = None
    min_support: float = DEFAULT_MIN_SUPPORT
    max_len: int = DEFAULT_MAX_LEN

    def __post_init__(self):
        super().__post_init__()
        if self.validation_size < 0:
            raise ValueError("validation_size must be at least 0")
        if self.selfplay_rounds < 1:
            raise ValueError("selfplay_rounds must be at least 1")
        if not 0 < self.min_support <= 1:
            raise ValueError("min_support must be in (0, 1]")
        if self.max_len < 2:
            raise ValueError("max_len must be at least 2")
        try:  # quantized once here, like RunConfig.budget
            budget = positive_budget(self.selfplay_budget)
        except ValueError:
            raise ValueError(f"selfplay_budget {self.selfplay_budget} is not a positive dollar amount") from None
        object.__setattr__(self, "selfplay_budget", budget)


@dataclass(frozen=True)
class SeedArtifacts:
    """Per-seed products of self-play reflection, shared by every cell."""

    world: SyntheticWorld | ChatBackend  # any backend with ``session(task_id)``
    registry: ModuleRegistry
    profile: CostProfile | None
    prior: TransitionPrior | None


def prepare_seed(
    tasks: Sequence[Task],
    seed: int,
    config: SweepConfig,
    need_selfplay: bool,
    profile: CostProfile | None = None,
    registry: ModuleRegistry | None = None,
    prior: TransitionPrior | None = None,
) -> tuple[SeedArtifacts, list[Task]]:
    """Build the world and (if needed) run self-play on the validation slice;
    without self-play, weaver plans with the given ``prior`` (None: uniform).

    A given ``registry`` is copied, so self-play at one seed never mines
    into the registry another seed starts from."""
    validation, scored = split_validation(tasks, config.validation_size)
    world = SyntheticWorld(tasks, seed=seed, params=config.world_params)
    roster = default_roster(config.models)
    registry = catalog_registry(config.catalog, roster) if registry is None else registry.copy()
    if need_selfplay and profile is None:
        store, profile, _new = run_selfplay(validation, registry, world, config, seed, roster)
        prior = store_prior(store, roster, registry)
    return SeedArtifacts(world, registry, profile, prior), scored


def catalog_registry(catalog: str, roster) -> ModuleRegistry:
    """A registry holding the named builtin catalog, checked against ``roster``."""
    registry = ModuleRegistry(roster=list(roster))
    for module in builtin_catalog(catalog):
        registry.register(module)
    return registry


def store_prior(store: TrajectoryStore, roster, registry: ModuleRegistry) -> TransitionPrior:
    """The prior weaver plans with: the store's action transitions, counted
    over weaver's action space."""
    space = action_space(roster, registry.modules())
    return TransitionPrior.from_sequences(store.action_sequences(), space)


def run_cell(
    scored: Sequence[Task],
    method: Method,
    budget: Decimal,
    seed: int,
    config: SweepConfig,
    artifacts: SeedArtifacts,
    out_dir: str | Path,
    longer: Sequence[RunResult] | None = None,
    log: TrajectoryLog | None = None,
) -> CellResult:
    """Score ``method`` at ``budget`` on every task of ``scored``.

    ``longer`` holds, task by task, results at a budget at least as large
    under the same seed and artifacts, of this method or of one that
    ``orchestrator.cut_run`` reads it off; each run is cut from them instead
    of executed, unless the cut is None. ``log`` renders the cell's
    trajectory log; cells that share one render a shared step once.
    """
    run_config = config.run_config(method, budget)
    roster = default_roster(config.models)
    if longer is None:
        longer = [None] * len(scored)

    def one(task: Task, above: RunResult | None) -> RunResult:
        if above is not None:
            cut = cut_run(above, task, run_config)
            if cut is not None:
                return cut
        return run_task(
            task,
            run_config,
            registry=artifacts.registry,
            cost_profile=artifacts.profile,
            backend=artifacts.world,
            seed=seed,
            roster=roster,
            prior=artifacts.prior,
        )

    results = tuple(one(task, above) for task, above in zip(scored, longer, strict=True))

    out_dir = Path(out_dir)
    log_name = f"trajectories/{method.value}_b{as_dollars(budget)}_s{seed}.ndjson"
    log = TrajectoryLog() if log is None else log
    lines = [line for result in results for line in log.lines(result, method, budget)]
    write_trajectory_log(lines, out_dir / log_name)
    return CellResult(
        method=method,
        budget=as_dollars(budget),
        seed=seed,
        results=results,
        log_path=log_name,
    )


def sweep_grid(methods: Sequence, budgets: Sequence, seeds: Sequence) -> tuple[tuple, tuple, tuple]:
    """A sweep's axes: its methods, its budgets quantized and sorted, its seeds as ints.

    ValueError when an axis is empty, a method is unknown, a budget is not
    a positive amount, or an entry repeats (0.45 and 0.450000 are one budget).
    """
    if not methods or not budgets or not seeds:
        raise ValueError("methods, budgets, and seeds must all be non-empty")
    axes = {
        "method": tuple(Method(m) for m in methods),
        "budget": tuple(sorted(positive_budget(b) for b in budgets)),
        "seed": tuple(int(s) for s in seeds),
    }
    for name, values in axes.items():
        for i, value in enumerate(values):
            if value in values[:i]:
                raise ValueError(f"{name} {getattr(value, 'value', value)} repeats")
    return axes["method"], axes["budget"], axes["seed"]


def check_scored(tasks: Sequence[Task], validation_size: int, selfplay: bool) -> None:
    """ValueError unless a task is left to score after the validation slice,
    and, when ``selfplay`` runs (a module method and no given profile), the
    slice holds a task for it."""
    if len(tasks) <= validation_size:
        raise ValueError(f"{len(tasks)} tasks leave none to score after validation_size {validation_size}")
    if selfplay and validation_size == 0:
        raise ValueError("validation_size 0 leaves self-play no task; give a cost profile or a validation slice")


def run_sweep(
    tasks: Sequence[Task],
    methods: Sequence[Method],
    budgets: Sequence,
    seeds: Sequence[int],
    config: SweepConfig | None = None,
    out_dir: str | Path = "sweep_out",
    profile: CostProfile | None = None,
    registry: ModuleRegistry | None = None,
    prior: TransitionPrior | None = None,
) -> SweepResult:
    """Execute the full grid; self-play runs once per seed when needed,
    unless a ``profile`` (with the ``prior`` learned beside it) is given.
    A bad grid (see ``sweep_grid``), no task to score, or no task for a
    needed self-play (see ``check_scored``) raises ValueError before any
    self-play or file write."""
    methods, budgets, seeds = sweep_grid(methods, budgets, seeds)
    config = config or SweepConfig()
    need_selfplay = any(m in MODULE_METHODS for m in methods)
    check_scored(tasks, config.validation_size, need_selfplay and profile is None)
    validation, scored = split_validation(tasks, config.validation_size)
    sweep = SweepResult(
        methods=methods,
        budgets=budgets,
        seeds=seeds,
        scored_task_ids=tuple(t.id for t in scored),
        validation_task_ids=tuple(t.id for t in validation),
    )
    for seed in seeds:
        artifacts, _ = prepare_seed(tasks, seed, config, need_selfplay, profile, registry, prior)
        # A method cut from another runs after it, from its largest cell.
        log = TrajectoryLog()
        largest: dict[Method, tuple[RunResult, ...]] = {}
        for method in sorted(methods, key=lambda m: m in CUT_FROM):
            longer = largest.get(CUT_FROM.get(method))
            for budget in reversed(budgets):
                cell = run_cell(scored, method, budget, seed, config, artifacts, out_dir, longer, log)
                sweep.cells[(method.value, str(budget), seed)] = cell
                longer = cell.results
            largest[method] = sweep.cell(method, budgets[-1], seed).results
        # Free this seed's world, its stream table and its log before the next is built.
        del artifacts, log
    emit_reports(sweep, out_dir)
    return sweep


# -- reports -------------------------------------------------------------------


def build_summary(sweep: SweepResult) -> dict:
    """Machine-readable sweep summary; the sole input to table emission."""
    if not sweep.cells:
        raise EmptyResults("sweep produced no cells")
    return {
        "methods": [m.value for m in sweep.methods],
        "budgets": [str(b) for b in sweep.budgets],
        "seeds": list(sweep.seeds),
        "scored_tasks": list(sweep.scored_task_ids),
        "validation_tasks": list(sweep.validation_task_ids),
        "cells": [
            cell_row(sweep.cell(method, budget, seed))
            for method in sweep.methods
            for budget in sweep.budgets
            for seed in sweep.seeds
        ],
    }


def cell_row(cell: CellResult) -> dict:
    """One cell's ``summary.json`` row; ``weaver run`` writes it as ``run_summary.json``."""
    return {
        "method": cell.method.value,
        "budget": str(cell.budget),
        "seed": cell.seed,
        "acc": cell.acc,
        "acc_lenient": cell.acc_lenient,
        "mean_cost": str(cell.mean_cost),
        "utilization": cell.utilization,
        "overshoot_count": cell.overshoot_count,
        "n_tasks": len(cell.results),
        "log": cell.log_path,
    }


def render_reports(summary: Mapping) -> dict[str, str]:
    """The two tables plus the summary itself, by file name; deterministic text."""
    cells = {(c["method"], c["budget"], c["seed"]): c for c in summary["cells"]}
    seeds = summary["seeds"]

    def seed_cells(method: str, budget: str) -> list[Mapping]:
        return [cells[(method, budget, s)] for s in seeds]

    lines = ["| method | " + " | ".join(f"Acc@{b}" for b in summary["budgets"]) + " |"]
    lines.append("|" + "---|" * (len(summary["budgets"]) + 1))
    for method in summary["methods"]:
        accs = []
        for budget in summary["budgets"]:
            group = seed_cells(method, budget)
            accs.append(f"{sum(c['acc'] for c in group) / len(group):.2f}")
        lines.append(f"| {method} | " + " | ".join(accs) + " |")

    util_lines = ["method,budget,mean_cost,utilization"]
    for method in summary["methods"]:
        for budget in summary["budgets"]:
            group = seed_cells(method, budget)
            cost = sum((Decimal(c["mean_cost"]) for c in group), Decimal(0)) / len(group)
            util = sum(c["utilization"] for c in group) / len(group)
            util_lines.append(f"{method},{budget},{as_dollars(cost)},{util:.4f}")

    return {
        "accuracy.md": "\n".join(lines) + "\n",
        "utilization.csv": "\n".join(util_lines) + "\n",
        "summary.json": json.dumps(summary, indent=2) + "\n",
    }


def write_reports(reports: Mapping[str, str], out_dir: str | Path) -> list[Path]:
    """Write ``render_reports``'s files under ``out_dir``; returns their paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = [out_dir / name for name in reports]
    for path, text in zip(paths, reports.values()):
        path.write_text(text, encoding="utf-8")
    return paths


def emit_reports(sweep: SweepResult, out_dir: str | Path) -> list[Path]:
    """Accuracy table, utilization table, and a machine-readable summary."""
    return write_reports(render_reports(build_summary(sweep)), out_dir)

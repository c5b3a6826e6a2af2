"""Collaboration modules: reusable multi-agent workflow fragments.

A module wraps a strategy tree over worker agents. The algebra is closed
under composition: Single | Pipeline | Interactive | Ensemble, where each
ensemble branch runs on its own execution lane and the branch outputs are
sorted canonically before aggregation, so results do not depend on branch
order. Branches run inline, one after another, unless the session blocks on
I/O (a wire backend); only then do they overlap on a thread pool.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, is_dataclass
from typing import Mapping, Sequence, Union

from .agents import DONE_MARK, UnknownDocument, WorkerAgent, blocks_on_io
from .core import (
    ActionId,
    ActionKind,
    CostLedger,
    CostRecord,
    DEFAULT_PRICES,
    HistoryEntry,
    PriceSheet,
    price_cost,
)


# Thread cap for an ensemble's branches on a session that blocks on I/O.
MAX_BRANCH_THREADS = 4


class ModuleFailed(RuntimeError):
    """Every branch of an ensemble failed softly."""


class UnknownAgent(KeyError):
    """Strategy references an agent name missing from the roster."""


# Faults of the action rather than of the run: an ensemble leaves a branch
# that raised one out of its aggregation, and a run logs one as an
# ``[error]`` output and goes on. Any other exception ends the run.
SOFT_FAILURES = (ModuleFailed, UnknownDocument)


class MalformedStrategy(ValueError):
    """A strategy or module does not satisfy the algebra's rules.

    Raised for a malformed serialized row as well as for a strategy built
    in code with too few children, branches or rounds.
    """


@dataclass(frozen=True)
class Single:
    agent: str

    def members(self) -> frozenset[str]:
        return frozenset({self.agent})


@dataclass(frozen=True)
class Pipeline:
    children: tuple["Strategy", ...]

    def __post_init__(self):
        if len(self.children) < 2:
            raise MalformedStrategy("pipeline needs at least two children")
        object.__setattr__(self, "children", tuple(self.children))

    def members(self) -> frozenset[str]:
        return frozenset().union(*(c.members() for c in self.children))


@dataclass(frozen=True)
class Interactive:
    left: "Strategy"
    right: "Strategy"
    max_rounds: int = 4

    def __post_init__(self):
        if self.max_rounds < 1:
            raise MalformedStrategy("max_rounds must be at least 1")

    def members(self) -> frozenset[str]:
        return self.left.members() | self.right.members()


@dataclass(frozen=True)
class Ensemble:
    n: int
    child: "Strategy"
    aggregator: str

    def __post_init__(self):
        if self.n < 2:
            raise MalformedStrategy("ensemble needs at least two branches")

    def members(self) -> frozenset[str]:
        return self.child.members() | {self.aggregator}


Strategy = Union[Single, Pipeline, Interactive, Ensemble]


def strategy_to_config(strategy: Strategy) -> dict:
    """``{"type": <class name, lower-cased>, <field>: <value>, ...}`` in field
    order; a nested strategy recurses and ``children`` becomes a list."""
    row = {"type": type(strategy).__name__.lower()}
    for f in fields(strategy):
        value = getattr(strategy, f.name)
        if isinstance(value, tuple):
            value = [strategy_to_config(child) for child in value]
        elif is_dataclass(value):
            value = strategy_to_config(value)
        row[f.name] = value
    return row


def _mapping(node, what: str) -> Mapping:
    if not isinstance(node, Mapping):
        raise MalformedStrategy(f"{what} must be a mapping, got {node!r}")
    return node


def _field(cfg: Mapping, key: str, kind: type, default=None):
    """``cfg[key]`` (or ``default``) if it is exactly a ``kind``; a bool is no int."""
    value = cfg.get(key, default)
    if isinstance(value, bool) or not isinstance(value, kind):
        raise MalformedStrategy(f"{key!r} must be of type {kind.__name__}, got {value!r}")
    return value


def strategy_from_config(cfg) -> Strategy:
    """The one parser of a serialized strategy; input may come from outside the program."""
    cfg = _mapping(cfg, "a strategy")
    kind = cfg.get("type")
    if kind == "single":
        return Single(_field(cfg, "agent", str))
    if kind == "pipeline":
        return Pipeline(tuple(strategy_from_config(c) for c in _field(cfg, "children", list)))
    if kind == "interactive":
        return Interactive(
            strategy_from_config(cfg.get("left")),
            strategy_from_config(cfg.get("right")),
            _field(cfg, "max_rounds", int, Interactive.max_rounds),
        )
    if kind == "ensemble":
        return Ensemble(
            _field(cfg, "n", int),
            strategy_from_config(cfg.get("child")),
            _field(cfg, "aggregator", str),
        )
    raise MalformedStrategy(f"unknown strategy type {kind!r}")


@dataclass(frozen=True)
class CollaborationModule:
    name: str
    strategy: Strategy
    description: str = ""

    def __post_init__(self):
        if not self.name.isidentifier():
            raise MalformedStrategy(f"module name {self.name!r} is not an identifier")

    @property
    def id(self) -> ActionId:
        return ActionId.module(self.name)

    def members(self) -> frozenset[str]:
        return self.strategy.members()

    def to_config(self) -> dict:
        return {
            "name": self.name,
            "description": self.description,
            "strategy": strategy_to_config(self.strategy),
        }

    @staticmethod
    def from_config(cfg) -> "CollaborationModule":
        """Read one ``modules.json`` row; raise MalformedStrategy on any defect."""
        cfg = _mapping(cfg, "a module row")
        return CollaborationModule(
            name=_field(cfg, "name", str),
            strategy=strategy_from_config(cfg.get("strategy")),
            description=_field(cfg, "description", str, ""),
        )


class ModuleRegistry:
    """Named modules with structural dedup.

    A strategy is a frozen dataclass, so two strategies with the same tree
    compare and hash equal. Registering a module whose strategy equals a
    registered module's is a no-op that returns the registered module, so
    repeated mining rounds can only grow the registry with new structures.
    """

    def __init__(self, roster: Sequence[str] | None = None):
        self._roster = frozenset(roster) if roster is not None else None
        self._by_name: dict[str, CollaborationModule] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._by_name)

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def get(self, name: str) -> CollaborationModule:
        return self._by_name[name]

    def modules(self) -> list[CollaborationModule]:
        return list(self._by_name.values())

    def strategy_for(self, action_id: ActionId) -> Strategy:
        """What an agent or module action runs: ``Single(name)`` for an agent,
        the registered module's strategy for a module (KeyError if unknown)."""
        if action_id.kind is ActionKind.MODULE:
            return self._by_name[action_id.name].strategy
        return Single(action_id.name)

    def register(self, module: CollaborationModule) -> CollaborationModule:
        if self._roster is not None:
            missing = module.members() - self._roster
            if missing:
                raise UnknownAgent(f"module {module.name!r} references {sorted(missing)}")
        with self._lock:
            for existing in self._by_name.values():
                if existing.strategy == module.strategy:
                    return existing
            if module.name in self._by_name:
                raise ValueError(f"module name {module.name!r} already registered")
            self._by_name[module.name] = module
            return module

    def copy(self) -> "ModuleRegistry":
        """A registry with this roster and these modules that grows on its own."""
        reg = ModuleRegistry(self._roster)
        for module in self.modules():
            reg.register(module)
        return reg

    def to_config(self) -> list[dict]:
        return [m.to_config() for m in self._by_name.values()]

    @staticmethod
    def from_config(rows: Sequence[Mapping], roster: Sequence[str] | None = None) -> "ModuleRegistry":
        """Read a ``modules.json`` list of rows; raise MalformedStrategy on any defect."""
        if not isinstance(rows, list):
            raise MalformedStrategy(f"a module config must be a list of rows, got {rows!r}")
        reg = ModuleRegistry(roster)
        for row in rows:
            reg.register(CollaborationModule.from_config(row))
        return reg


def builtin_catalog(name: str) -> list[CollaborationModule]:
    """Hand-written starter modules for the two benchmark settings."""
    search, browse, reason = Single("search"), Single("browse"), Single("reason")
    critic = Single("critic")
    if name == "gaia":
        return [
            CollaborationModule(
                "interactive_search_and_browse",
                Interactive(search, browse),
                "alternate searching and browsing until the record is complete",
            ),
            CollaborationModule(
                "search_then_browse",
                Pipeline((search, browse)),
                "one search followed by one read of the best hit",
            ),
            CollaborationModule(
                "ensemble_search",
                Ensemble(3, search, "reason"),
                "three parallel searches merged by an aggregator",
            ),
            CollaborationModule(
                "two_ensemble_reasoning",
                Ensemble(2, reason, "reason"),
                "two independent reasoning passes, aggregated",
            ),
            CollaborationModule(
                "three_ensemble_reasoning",
                Ensemble(3, reason, "reason"),
                "three independent reasoning passes, aggregated",
            ),
        ]
    if name == "browse":
        inter = Interactive(search, browse)
        return [
            CollaborationModule(
                "interactive_search",
                inter,
                "alternate searching and reading until the record is complete",
            ),
            CollaborationModule(
                "ensemble_interactive_search",
                Ensemble(3, inter, "reason"),
                "three interactive search sessions, aggregated",
            ),
            CollaborationModule(
                "interactive_search_then_critic",
                Pipeline((inter, critic)),
                "interactive search followed by a critique of coverage",
            ),
            CollaborationModule(
                "ensemble_interactive_search_then_critic",
                Ensemble(3, Pipeline((inter, critic)), "reason"),
                "three critiqued interactive searches, aggregated",
            ),
        ]
    raise ValueError(f"unknown catalog {name!r}")


class ModuleExecutor:
    """Runs strategy trees against a backend session, charging a ledger.

    Every agent invocation produces one CostRecord. Ensemble branches run on
    derived lanes (``lane/e{i}``), which keeps seeded backends deterministic
    regardless of scheduling. They run inline in branch order; a session
    that blocks on I/O runs them on ``min(n, MAX_BRANCH_THREADS)`` threads instead.
    A branch that raises one of ``SOFT_FAILURES`` is left out of the
    aggregation; any other exception propagates, as it does from any other
    strategy. Every call that returned a reply was billed, so it is charged
    to the ledger however the action ends: completed, failed branch, raised
    exception.
    """

    def __init__(
        self,
        session,
        roster: Mapping[str, WorkerAgent],
        ledger: CostLedger,
        prices: PriceSheet = DEFAULT_PRICES,
    ):
        self.session = session
        self.roster = dict(roster)
        self.ledger = ledger
        self.prices = prices

    def _agent(self, name: str) -> WorkerAgent:
        try:
            return self.roster[name]
        except KeyError:
            raise UnknownAgent(name) from None

    def _invoke(
        self,
        name: str,
        subtask: str,
        context: Sequence[HistoryEntry],
        scratch: Sequence[str],
        lane: str,
        records: list[CostRecord],
    ) -> str:
        agent = self._agent(name)
        result = self.session.invoke(agent, subtask, context, lane=lane, scratch=scratch)
        records.append(price_cost(result.usage, agent.model, self.prices))
        return result.output

    def run(
        self,
        module: CollaborationModule | Strategy,
        subtask: str,
        context: Sequence[HistoryEntry] = (),
        lane: str = "main",
    ) -> str:
        """Run the strategy and return its output; its calls go on the ledger."""
        strategy = module.strategy if isinstance(module, CollaborationModule) else module
        records: list[CostRecord] = []
        # Charged once the action ends, however it ends: every call that
        # returned was billed.
        try:
            return self._run(strategy, subtask, context, [], lane, records)
        finally:
            for record in records:
                self.ledger.charge(record)

    def _run(
        self,
        strategy: Strategy,
        subtask: str,
        context: Sequence[HistoryEntry],
        scratch: list[str],
        lane: str,
        records: list[CostRecord],
    ) -> str:
        if isinstance(strategy, Single):
            return self._invoke(strategy.agent, subtask, context, scratch, lane, records)

        if isinstance(strategy, Pipeline):
            shared = list(scratch)
            output = ""
            for child in strategy.children:
                output = self._run(child, subtask, context, shared, lane, records)
                shared.append(output)
            return output

        if isinstance(strategy, Interactive):
            shared = list(scratch)
            output = ""
            for _ in range(strategy.max_rounds):
                for side in (strategy.left, strategy.right):
                    output = self._run(side, subtask, context, shared, lane, records)
                    shared.append(output)
                    if output.startswith(DONE_MARK):
                        return output
            return output

        if isinstance(strategy, Ensemble):
            return self._run_ensemble(strategy, subtask, context, scratch, lane, records)

        raise TypeError(f"not a strategy: {strategy!r}")

    def _run_ensemble(
        self,
        strategy: Ensemble,
        subtask: str,
        context: Sequence[HistoryEntry],
        scratch: list[str],
        lane: str,
        records: list[CostRecord],
    ) -> str:
        spent: list[list[CostRecord]] = [[] for _ in range(strategy.n)]

        def branch(i: int) -> str:
            return self._run(strategy.child, subtask, context, list(scratch), f"{lane}/e{i}", spent[i])

        pool = None
        if blocks_on_io(self.session):
            pool = ThreadPoolExecutor(max_workers=min(strategy.n, MAX_BRANCH_THREADS))
            futures = [pool.submit(branch, i) for i in range(strategy.n)]
        outputs: list[str] = []
        try:
            for i in range(strategy.n):
                try:
                    outputs.append(futures[i].result() if pool is not None else branch(i))
                except SOFT_FAILURES:
                    pass  # left out of the aggregation; its calls stay charged
        finally:
            if pool is not None:
                # Start no more branches; wait for the billed in-flight calls.
                pool.shutdown(cancel_futures=True)
            records.extend(r for local in spent for r in local)
        if not outputs:
            raise ModuleFailed(f"all {strategy.n} branches failed")
        merged = "aggregate:\n" + "\n---\n".join(sorted(outputs))
        return self._invoke(strategy.aggregator, merged, context, scratch, lane, records)

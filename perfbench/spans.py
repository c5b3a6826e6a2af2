"""Thread-aware span tracing around weaver's public layer functions.

`Tracer.installed()` replaces each function in `TARGETS` with a wrapper that
records a span (name, start, end, parent span, task-run id, thread CPU time)
and restores every original on exit. Spans are kept in memory per thread
and written out once, after the run.

Parents come from a per-thread stack. The thread pools that `weaver.bench`
and `weaver.collab` create are swapped for a subclass that carries the
submitting thread's open span into the worker, so a task run on a pool
thread, or an ensemble branch, links to the span that submitted it and
shares its task-run id. Each call of `orchestrator.run_task` opens a new
task-run id.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import statistics
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path

# (layer.function, defining module, attribute path) for every traced function.
TARGETS = (
    ("bench.prepare_seed", "weaver.bench", "prepare_seed"),
    ("bench.run_cell", "weaver.bench", "run_cell"),
    ("bench.write_trajectory_log", "weaver.orchestrator", "write_trajectory_log"),
    ("bench.emit_reports", "weaver.bench", "emit_reports"),
    ("reflection.run_selfplay", "weaver.reflection", "run_selfplay"),
    ("reflection.mine_modules", "weaver.reflection", "mine_modules"),
    ("reflection.estimate_costs", "weaver.reflection", "estimate_costs"),
    ("planner.from_sequences", "weaver.planner", "TransitionPrior.from_sequences"),
    ("planner.plan_step", "weaver.planner", "plan_step"),
    ("planner.sample_candidates", "weaver.planner", "sample_candidates"),
    ("planner.speculate", "weaver.planner", "speculate"),
    ("planner.sample_rollout", "weaver.planner", "TransitionPrior.sample_rollout"),
    ("planner.cost_trajectory", "weaver.planner", "cost_trajectory"),
    ("planner.action_frequencies", "weaver.planner", "FeasibleSet.action_frequencies"),
    ("planner.render_carried", "weaver.planner", "render_carried"),
    ("planner.select_action", "weaver.planner", "select_action"),
    ("policy.sample", "weaver.policy", "RulePolicy.sample"),
    ("collab.run", "weaver.collab", "ModuleExecutor.run"),
    ("agents.invoke", "weaver.agents", "SyntheticSession.invoke"),
    ("agents.policy_usage", "weaver.agents", "SyntheticSession.policy_usage"),
    ("orchestrator.run_task", "weaver.orchestrator", "run_task"),
    ("core.charge", "weaver.core", "CostLedger.charge"),
    ("core.price_cost", "weaver.core", "price_cost"),
)

FUNCTION_STATS = (("calls", "count"), ("self_s", "s"), ("wait_s", "s"))

# Counts and ratios recorded at the same boundaries, and the cost of tracing: (name, unit, better).
COUNTS = (
    ("planner.rollouts", "count", "higher"),
    ("planner.feasible_rollouts", "count", "higher"),
    ("planner.feasible_ratio", "ratio", "higher"),
    ("policy.draws", "count", "lower"),
    ("collab.ensembles", "count", "lower"),
    ("collab.branches", "count", "lower"),
    ("collab.run.failed", "count", "lower"),
    ("agents.world_invocations", "count", "lower"),
    ("orchestrator.steps", "count", "lower"),
    ("orchestrator.run_task.p50_ms", "ms", "lower"),
    ("orchestrator.run_task.p95_ms", "ms", "lower"),
    ("trace_overhead_share", "ratio", "lower"),  # traced sweep time against untraced
)

POOL_MODULES = ("weaver.bench", "weaver.collab")

# Float slack for comparing sums of perf_counter differences.
EPSILON = 1e-6


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = [
        (f"{name}.{stat}", unit, "lower")
        for name, _module, _attr in TARGETS
        for stat, unit in FUNCTION_STATS
    ]
    out.extend(COUNTS)
    return out


def installed_objects() -> dict[str, object]:
    """Every attribute of weaver's modules and traced classes, to show wrappers were removed."""
    out = {}
    for module_name, module in list(sys.modules.items()):
        if module_name == "weaver" or module_name.startswith("weaver."):
            out.update((f"{module_name}.{key}", value) for key, value in vars(module).items())
    for _name, module_name, attr in TARGETS:
        if "." in attr:
            cls_name, method = attr.split(".")
            out[f"{module_name}.{attr}"] = vars(getattr(sys.modules[module_name], cls_name))[method]
    return out


def strategy_fanout(strategy) -> tuple[int, int]:
    """(ensembles, branches) a strategy tree runs; an ensemble runs its child n times."""
    from weaver.collab import CollaborationModule, Ensemble, Interactive, Pipeline

    if isinstance(strategy, CollaborationModule):
        strategy = strategy.strategy
    if isinstance(strategy, Ensemble):
        ensembles, branches = strategy_fanout(strategy.child)
        return 1 + strategy.n * ensembles, strategy.n * (1 + branches)
    if isinstance(strategy, Pipeline):
        children = strategy.children
    elif isinstance(strategy, Interactive):
        children = (strategy.left, strategy.right)
    else:
        return 0, 0
    totals = [strategy_fanout(child) for child in children]
    return sum(t[0] for t in totals), sum(t[1] for t in totals)


class _ThreadLog:
    """One thread's open-span stack and finished spans."""

    __slots__ = ("index", "stack", "spans")

    def __init__(self, index: int):
        self.index = index
        self.stack: list[tuple[int, int]] = []  # (span id, task-run id)
        self.spans: list[tuple] = []  # (id, name, parent id, run id, start, end, cpu)


def _merged_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class Tracer:
    """Records spans and counts while installed; see the module docstring.

    Planning purity is checked per task run: every `planner.plan_step` span
    must leave the number of `agents.invoke` calls of its own task run
    unchanged. (The world-wide `SyntheticWorld.count_invocations()` moves
    under the sweep's concurrent task runs, so it is compared once, after
    the run, with the total of `agents.invoke` calls.)
    """

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._logs: list[_ThreadLog] = []
        self._span_ids = itertools.count(1)
        self._run_ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []
        self._origin = time.perf_counter()
        self.counts = {name: 0 for name in (
            "planner.rollouts", "planner.feasible_rollouts", "policy.draws",
            "collab.ensembles", "collab.branches", "collab.run.failed", "orchestrator.steps",
        )}
        self.invocations_by_run: dict[int, int] = {}
        self.worlds: list = []
        self.failures: list[str] = []

    # -- recording ----------------------------------------------------------

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            with self._lock:
                log = _ThreadLog(len(self._logs))
                self._logs.append(log)
            self._local.log = log
        return log

    def _add(self, name: str, n: int) -> None:
        with self._lock:
            self.counts[name] += n

    def _before(self, name: str, run_id: int, args: tuple):
        """Count work at entry; returns what `_after` needs."""
        if name == "agents.invoke":
            with self._lock:
                self.invocations_by_run[run_id] = self.invocations_by_run.get(run_id, 0) + 1
        elif name == "planner.plan_step":
            with self._lock:
                return self.invocations_by_run.get(run_id, 0)
        elif name == "collab.run":
            ensembles, branches = strategy_fanout(args[1])
            self._add("collab.ensembles", ensembles)
            self._add("collab.branches", branches)
        return None

    def _after(self, name: str, run_id: int, state, result) -> None:
        if name == "planner.plan_step":
            with self._lock:
                after = self.invocations_by_run.get(run_id, 0)
            if after != state:
                self.failures.append(
                    f"plan_step in task-run {run_id} moved its invocations from {state} to {after}"
                )
            self._add("planner.feasible_rollouts", sum(result.feasible.counts()))
        elif name == "planner.speculate":
            self._add("planner.rollouts", len(result))
        elif name == "policy.sample":
            self._add("policy.draws", len(result))
        elif name == "orchestrator.run_task":
            self._add("orchestrator.steps", result.steps)
        elif name == "bench.prepare_seed":
            with self._lock:
                self.worlds.append(result[0].world)

    def _wrap(self, name: str, fn):
        from weaver.collab import ModuleFailed

        tracer = self
        opens_run = name == "orchestrator.run_task"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            log = tracer._log()
            parent, run_id = log.stack[-1] if log.stack else (0, 0)
            if opens_run:
                run_id = next(tracer._run_ids)
            span_id = next(tracer._span_ids)
            state = tracer._before(name, run_id, args)
            log.stack.append((span_id, run_id))
            start = time.perf_counter()
            cpu_start = time.thread_time()
            try:
                result = fn(*args, **kwargs)
            except ModuleFailed:
                if name == "collab.run":
                    tracer._add("collab.run.failed", 1)
                raise
            finally:
                cpu = time.thread_time() - cpu_start
                end = time.perf_counter()
                log.stack.pop()
                log.spans.append((span_id, name, parent, run_id, start, end, cpu))
            tracer._after(name, run_id, state, result)
            return result

        return traced

    def _linked_pool(self):
        tracer = self

        class LinkedThreadPoolExecutor(ThreadPoolExecutor):
            """Runs each submitted call under the submitting thread's open span."""

            def submit(self, fn, /, *args, **kwargs):
                stack = tracer._log().stack
                if not stack:
                    return super().submit(fn, *args, **kwargs)
                origin = stack[-1]

                def linked(*a, **kw):
                    worker_stack = tracer._log().stack
                    worker_stack.append(origin)
                    try:
                        return fn(*a, **kw)
                    finally:
                        worker_stack.pop()

                return super().submit(linked, *args, **kwargs)

        return LinkedThreadPoolExecutor

    # -- installation ---------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    @contextmanager
    def installed(self):
        """Install every wrapper; restore the originals on exit."""
        import weaver  # noqa: F401  (loads every submodule)

        modules = [m for n, m in sorted(sys.modules.items()) if n == "weaver" or n.startswith("weaver.")]
        try:
            for name, module_name, attr in TARGETS:
                module = sys.modules[module_name]
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(module, cls_name)
                    raw = cls.__dict__[method]
                    if isinstance(raw, staticmethod):
                        self._set(cls, method, staticmethod(self._wrap(name, raw.__func__)))
                    else:
                        self._set(cls, method, self._wrap(name, raw))
                    continue
                original = getattr(module, attr)
                wrapper = self._wrap(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._set(mod, key, wrapper)
            pool = self._linked_pool()
            for module_name in POOL_MODULES:
                self._set(sys.modules[module_name], "ThreadPoolExecutor", pool)
            yield self
        finally:
            while self._patches:
                owner, attr, original = self._patches.pop()
                setattr(owner, attr, original)

    # -- analysis -------------------------------------------------------------

    def spans(self) -> list[tuple]:
        """Every finished span as (thread, id, name, parent, run id, start, end, cpu)."""
        return [(log.index, *span) for log in self._logs for span in log.spans]

    def layer_metrics(self) -> dict[str, float]:
        """Per-function calls, self and wait time, plus the counts; checks consistency.

        Self time is a span's wall time minus the part of it that its child
        spans, on any thread, cover. Wait time is wall time minus the thread
        CPU time spent over the span. Failed checks: a negative self time,
        self time summed over all threads above the threads' traced time, an
        unclosed span, or world invocations that differ from agents.invoke calls.
        """
        spans = self.spans()
        children: dict[int, list[tuple[float, float]]] = {}
        for _thread, _sid, _name, parent, _run, start, end, _cpu in spans:
            if parent:
                children.setdefault(parent, []).append((start, end))

        stats = {name: {"calls": 0, "self_s": 0.0, "wait_s": 0.0} for name, _m, _a in TARGETS}
        run_task_ms = []
        for _thread, sid, name, _parent, _run, start, end, cpu in spans:
            wall = end - start
            own = wall - _merged_length(children.get(sid, []), start, end)
            if own < -EPSILON:
                self.failures.append(f"{name} span {sid} has negative self time {own}")
            entry = stats[name]
            entry["calls"] += 1
            entry["self_s"] += own
            entry["wait_s"] += wall - cpu
            if name == "orchestrator.run_task":
                run_task_ms.append(wall * 1000.0)

        thread_time = sum(
            _merged_length([(s[4], s[5]) for s in log.spans], float("-inf"), float("inf"))
            for log in self._logs
        )
        # Summed over every function, so each function's own sum is bounded too.
        total_self = sum(entry["self_s"] for entry in stats.values())
        if total_self > thread_time + EPSILON:
            self.failures.append(
                f"summed self time {total_self:.6f} s exceeds thread time {thread_time:.6f} s"
            )
        if any(log.stack for log in self._logs):
            self.failures.append("a span stack was left open")

        world_invocations = sum(world.count_invocations() for world in self.worlds)
        if world_invocations != stats["agents.invoke"]["calls"]:
            self.failures.append(
                f"world counted {world_invocations} invocations,"
                f" agents.invoke ran {stats['agents.invoke']['calls']}"
            )

        metrics: dict[str, float] = {}
        for name, entry in stats.items():
            for stat, _unit in FUNCTION_STATS:
                metrics[f"{name}.{stat}"] = entry[stat]
        metrics.update(self.counts)
        rollouts = self.counts["planner.rollouts"]
        metrics["planner.feasible_ratio"] = (
            self.counts["planner.feasible_rollouts"] / rollouts if rollouts else 0.0
        )
        metrics["agents.world_invocations"] = world_invocations
        if len(run_task_ms) >= 2:
            metrics["orchestrator.run_task.p50_ms"] = statistics.median(run_task_ms)
            metrics["orchestrator.run_task.p95_ms"] = statistics.quantiles(run_task_ms, n=20)[18]
        else:
            metrics["orchestrator.run_task.p50_ms"] = metrics["orchestrator.run_task.p95_ms"] = (
                run_task_ms[0] if run_task_ms else 0.0
            )
        return metrics

    def write_spans(self, path: Path) -> int:
        """Write every span as gzip CSV (times in seconds from tracer creation)."""
        spans = self.spans()
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("thread,span,name,parent,task_run,start_s,end_s,cpu_s\n")
            for thread, sid, name, parent, run, start, end, cpu in spans:
                fh.write(
                    f"{thread},{sid},{name},{parent},{run},"
                    f"{start - self._origin:.6f},{end - self._origin:.6f},{cpu:.6f}\n"
                )
        return len(spans)

"""Learning the numbers the planner needs: self-play reflection.

Before budget-aware planning can price a future, something has to know
what actions cost and which teamwork patterns recur. Self-play runs the
task list budget-unaware, stores every trajectory, estimates exact
rational cost means per action, and mines frequent agent patterns into
new modules.
"""

import json

from weaver.agents import SyntheticWorld
from weaver.bench import SweepConfig
from weaver.collab import ModuleRegistry, builtin_catalog, strategy_to_config
from weaver.core import ActionId, CostRecord, TokenUsage, as_dollars
from weaver.orchestrator import default_roster
from weaver.reflection import (
    StoredStep,
    StoredTrajectory,
    TrajectoryStore,
    estimate_costs,
    mine_modules,
    run_selfplay,
)
from weaver.tasks import synthetic_tasks

tasks = synthetic_tasks(seed=5, num_tasks=8)
world = SyntheticWorld(tasks, seed=5)
roster = default_roster()
registry = ModuleRegistry(roster=list(roster))
for module in builtin_catalog("gaia"):
    registry.register(module)

print("== two rounds of self-play on 8 tasks ==")
# SweepConfig carries self-play's rounds, budget, mining thresholds and run knobs.
store, profile, new_modules = run_selfplay(
    tasks, registry, world, SweepConfig(selfplay_rounds=2), seed=5, roster=roster
)
wins = sum(1 for t in store.trajectories() if t.success)
print(f"  stored trajectories: {len(store)} ({wins} successful)")
print(f"  newly mined modules: {[m.name for m in new_modules] or 'none this time'}")

print("\n== the learned cost profile (exact rationals) ==")
for aid in profile.ids():
    entry = profile.entries[aid]
    print(
        f"  {str(aid):38s} mean {str(entry.mean_dollars):>14s} "
        f"(~${as_dollars(entry.mean_dollars)})  n={entry.sample_count}"
    )

# Mining on a hand-planted store makes the rules visible: a pattern needs
# support >= min_support among successful runs, same-id runs become
# ensembles, alternations become interactives, the rest become pipelines.
print("\n== mining a planted store ==")


def planted(task_id, names):
    steps = tuple(
        StoredStep(
            ActionId.agent(n),
            "0" * 16,
            CostRecord(TokenUsage(100, 50), "aggregate", as_dollars("0.01")),
        )
        for n in names
    )
    return StoredTrajectory(task_id, 0, True, steps)


fixture = TrajectoryStore()
for i, names in enumerate(
    [
        ["search", "browse", "critic", "reason", "reason"],
        ["search", "browse", "reason", "reason", "critic"],
        ["critic", "search", "browse", "reason", "reason"],
        ["search", "browse", "critic", "reason"],
        ["search", "browse"],
        ["reason", "reason"],
    ]
):
    fixture.append(planted(f"t{i}", names))

for module in mine_modules(fixture, min_support=0.5, max_len=4):
    print(f"  {module.name}: {json.dumps(strategy_to_config(module.strategy))}")
    print(f"    {module.description}")

print("\n== dedup against an owning catalog ==")
owning = ModuleRegistry()
for module in builtin_catalog("gaia"):
    owning.register(module)
suppressed = mine_modules(fixture, min_support=0.5, max_len=4, registry=owning)
print(f"  against the gaia builtins the same store yields: {suppressed}")

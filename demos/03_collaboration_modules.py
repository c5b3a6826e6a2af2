"""Collaboration modules: teamwork packaged as a single action.

A strategy is a small algebra (Single, Pipeline, Interactive, Ensemble)
over worker agents. Wrapping one in a CollaborationModule gives the
orchestrator a named action; the executor runs the whole tree and charges
the ledger once the module ends, with every worker call that returned,
however the module ended.
"""

import json
from decimal import Decimal

from weaver.agents import SyntheticWorld, WorldParams
from weaver.collab import (
    CollaborationModule,
    Ensemble,
    Interactive,
    ModuleExecutor,
    ModuleRegistry,
    Pipeline,
    Single,
    builtin_catalog,
    strategy_to_config,
)
from weaver.core import CostLedger, DEFAULT_PRICES
from weaver.orchestrator import default_roster
from weaver.tasks import synthetic_tasks

print("== the strategy algebra, as modules.json writes it ==")
strategies = [
    Single("search"),
    Pipeline((Single("search"), Single("browse"))),
    Interactive(Single("search"), Single("browse")),
    Ensemble(3, Single("reason"), "reason"),
]
for s in strategies:
    print(f"  {json.dumps(strategy_to_config(s))}")
    print(f"    members={sorted(s.members())}")

print("\n== builtin catalogs ==")
for catalog in ("gaia", "browse"):
    names = [m.name for m in builtin_catalog(catalog)]
    print(f"  {catalog}: {names}")

# Execution: a perfect-accuracy world keeps the traces short.
tasks = synthetic_tasks(seed=7, num_tasks=6)
task = next(t for t in tasks if t.meta["kind"] == "lookup" and len(t.chain) == 2)
world = SyntheticWorld(tasks, seed=7, params=WorldParams(p_hit=1.0, p_reason=1.0, p_agg=1.0))
roster = default_roster()

print(f"\n== running modules on {task.id} ==")
registry = ModuleRegistry(roster=list(roster))
for module in builtin_catalog("gaia"):
    registry.register(module)

for name in ("search_then_browse", "interactive_search_and_browse", "three_ensemble_reasoning"):
    module = registry.get(name)
    ledger = CostLedger(Decimal("1.00"))
    executor = ModuleExecutor(world.session(task.id), roster, ledger, DEFAULT_PRICES)
    output = executor.run(module, f"work the open parts of case {task.id}", [])
    print(f"  {name}")
    print(f"    internal calls: {len(ledger.entries)}  module total: ${ledger.total()}")
    print(f"    output: {output[:90]}")

# The ledger is the only record of spend: every worker call that returned
# lands on it once the module ends, however it ends. The orchestrator then
# logs the module as a single step costing what the ledger charged since
# the previous step.
ledger = CostLedger(Decimal("1.00"))
executor = ModuleExecutor(world.session(task.id), roster, ledger, DEFAULT_PRICES)
executor.run(registry.get("ensemble_search"), "find the lead document", [])
print(f"\n== charging discipline ==")
print(f"  ensemble_search made {len(ledger.entries)} worker calls")
for entry in ledger.entries:
    print(f"    {entry.model:26s} {entry.usage.input_tokens:5d} in {entry.usage.output_tokens:4d} out  ${entry.dollars}")
print(f"  ledger total: ${ledger.total()}")

print("\n== structural dedup: strategies are compared by value ==")
dup = CollaborationModule("renamed_pipeline", Pipeline((Single("search"), Single("browse"))))
returned = registry.register(dup)
print(f"  registering a renamed duplicate returns: {returned.name!r}")
print(f"  registry size unchanged: {len(registry)} modules")

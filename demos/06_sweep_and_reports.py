"""A method x budget sweep, end to end.

The harness splits the task file (first slice = validation for self-play,
rest = scored), builds one seeded world per seed, runs every cell, writes
one trajectory log per cell, and emits three reports. Everything is a
deterministic function of (tasks, config, seed): run it twice and the
bytes match. The output directory is temporary and removed at the end.

Takes about a second.
"""

import json
import tempfile
from pathlib import Path

from weaver.bench import SweepConfig, run_sweep
from weaver.orchestrator import Method
from weaver.tasks import synthetic_tasks

tasks = synthetic_tasks(seed=0, num_tasks=80)
# Removed by tmp.cleanup() at the end, or at exit if the demo fails first.
tmp = tempfile.TemporaryDirectory(prefix="sweep_demo_")
out = Path(tmp.name)

sweep = run_sweep(
    tasks,
    [Method.REACT, Method.MODULES_UNAWARE, Method.WEAVER],
    ["0.05", "0.15", "0.45"],
    [1],
    config=SweepConfig(selfplay_rounds=3),
    out_dir=out,
)

print("== the grid ==")
print(f"  validation tasks: {len(sweep.validation_task_ids)} (self-play only, never scored)")
print(f"  scored tasks:     {len(sweep.scored_task_ids)}")
header = "  method            " + "".join(f"  Acc@{b}" for b in sweep.budgets)
print(header)
for method in sweep.methods:
    cells = [sweep.cell(method, b, 1) for b in sweep.budgets]
    row = "".join(f"  {c.acc:12.2f}" for c in cells)
    print(f"  {method.value:18s}{row}")

print("\n== strict vs lenient at the scarce budget ==")
for method in sweep.methods:
    cell = sweep.cell(method, sweep.budgets[0], 1)
    print(
        f"  {method.value:18s} strict {cell.acc:6.2f}  lenient {cell.acc_lenient:6.2f}  "
        f"overshoots {cell.overshoot_count}/{len(cell.results)}"
    )

print("\n== what lands on disk ==")
for path in sorted(out.rglob("*")):
    if path.is_file():
        print(f"  {path.relative_to(out)}")

print("\n== accuracy.md ==")
print((out / "accuracy.md").read_text(), end="")

print("\n== utilization.csv ==")
print((out / "utilization.csv").read_text(), end="")

# Each trajectory log is NDJSON: step rows (12 fields) then a per-task
# trailer. The trailer alone is enough to recompute every summary number.
log = out / sweep.cell(Method.WEAVER, sweep.budgets[-1], 1).log_path
with open(log) as fh:
    rows = [json.loads(line) for line in fh]
step_row = next(r for r in rows if "step" in r)
trailer = next(r for r in rows if "solved" in r)
print("\n== one step row ==")
print(json.dumps(step_row, indent=2))
print("== one trailer ==")
print(json.dumps(trailer, indent=2))

tmp.cleanup()

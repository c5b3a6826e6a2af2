"""Time weaver's set-up in this (fresh) process and print it as JSON.

Set-up is: import `weaver`, generate the tasks, and build the synthetic
world and the module registry of the workload's catalog through
`weaver.bench.prepare_seed` without self-play. Run from the checkout:

    python3 perfbench/setup_probe.py --seed 0 --num-tasks 60 --catalog gaia --world-seed 1
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--num-tasks", type=int, required=True)
    parser.add_argument("--catalog", required=True)
    parser.add_argument("--world-seed", type=int, required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(ROOT / "src"))

    start = time.perf_counter()
    from weaver import synthetic_tasks
    from weaver.bench import SweepConfig, prepare_seed

    tasks = synthetic_tasks(seed=args.seed, num_tasks=args.num_tasks)
    artifacts, _scored = prepare_seed(
        tasks, args.world_seed, SweepConfig(catalog=args.catalog), need_selfplay=False
    )
    elapsed = time.perf_counter() - start

    print(json.dumps({
        "setup_s": elapsed,
        "tasks": len(artifacts.world.tasks),
        "modules": len(artifacts.registry),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Weaver sweep benchmark: method x budget grids through `weaver.bench.run_sweep`.

Run from the root of a checkout:

    python3 perfbench/run.py --workload gaia_planner --seed 0 --seconds 36 --trace 0

A run sweeps its workload's grid `sweeps` times, each time on its own tasks
and sweep seeds with the program's default `SweepConfig`: run `n` uses task
seeds n*sweeps .. n*sweeps + sweeps - 1, and task seed t is swept with seeds
t+1, t+2, ... Every sweep has 60 tasks, of which the default 30-task
validation split leaves 30 scored; run 0 starts with tasks seed 0 and sweep
seed 1 at that size, not with the 90-task grid of ROADMAP aim 1. One sweep's
time and Acc@B vary by about 10 % from seed to seed, so a run's figures are
means over several sweeps.

With `--trace 0` every sweep runs once, then sweeps are replayed, in order,
while `--seconds` lasts (at least one replay). A replay must write the same
bytes as the first run of its sweep. Each sweep's time is the median of
its first run and replays; `sweep_s` is the mean of these over the run's
sweeps, and `task_runs_per_s` is the run's task runs over their summed time
outside self-play. With `--trace 1` the first
`TRACE_SWEEPS` sweeps run untraced, then traced, and the per-layer metrics
come from the traced ones. Every RunResult is checked (checks.py).

The last line of standard output is one JSON object: {"correct",
"attempted", "failed", "metrics"}. Lines before it give every metric with
its unit, the self-play time and failed share, the environment and the
output digest. Outputs, spans and a result file go to `.perfbench/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from checks import digest_dir, sweep_failures

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench"

SETUP_PROBES = 9
TRACE_SWEEPS = 2

# (name, unit) of every end-to-end metric in BENCHMARK.json, in report order.
END_TO_END = (
    ("setup_s", "s"),
    ("sweep_s", "s"),
    ("task_runs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("acc_at_b", "%"),
    ("overshoot_share", "ratio"),
)


@dataclass(frozen=True)
class Workload:
    name: str
    methods: tuple[str, ...]
    catalog: str
    sweeps: int
    seeds_per_sweep: int = 1
    num_tasks: int = 60
    budgets: tuple[str, ...] = ("0.05", "0.15", "0.45", "0.90")

    def inputs(self, seed: int) -> list[tuple[int, list[int]]]:
        """(task seed, sweep seeds) of each sweep that run `seed` makes."""
        out = []
        for j in range(self.sweeps):
            task_seed = seed * self.sweeps + j
            out.append((task_seed, [task_seed + 1 + i for i in range(self.seeds_per_sweep)]))
        return out


WORKLOADS = {
    w.name: w
    for w in (
        Workload("gaia_planner", ("modules_unaware", "weaver"), "gaia", sweeps=5),
        Workload("baselines_policy", ("react", "best_of_n", "iter_verify"), "gaia", sweeps=16),
        Workload("browse_fanout", ("modules_unaware",), "browse", sweeps=6, seeds_per_sweep=2),
    )
}


@dataclass
class Sweep:
    """One checked, timed and digested run_sweep."""

    sweep_s: float
    selfplay_s: float
    task_runs: int
    errors: list[str]
    failures: list[str]
    digest: str
    accs: list[float]
    overshoots: int


@dataclass
class Outcome:
    metrics: dict[str, float]
    sweeps: list[Sweep]
    problems: list[str] = field(default_factory=list)
    extra: dict = field(default_factory=dict)


def load_weaver():
    """Import weaver from this checkout's `src/`, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "weaver" / "__init__.py").is_file():
        raise SystemExit(f"error: no weaver sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import weaver
    import weaver.bench

    if Path(weaver.__file__).resolve().parent != (src / "weaver").resolve():
        raise SystemExit(f"error: imported weaver from {weaver.__file__}, not {src}")
    return weaver.bench


def environment(bench) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "max_workers": bench.SweepConfig().max_workers,
    }


def setup_times(workload: Workload, seed: int, probes: int) -> list[float]:
    """Set-up time of `probes` fresh processes for the run's first sweep (see setup_probe.py)."""
    task_seed, sweep_seeds = workload.inputs(seed)[0]
    cmd = [
        sys.executable, str(HERE / "setup_probe.py"),
        "--seed", str(task_seed),
        "--num-tasks", str(workload.num_tasks),
        "--catalog", workload.catalog,
        "--world-seed", str(sweep_seeds[0]),
    ]
    out = []
    for _ in range(probes):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def sweep(bench, workload: Workload, tasks, seeds, config, out_dir: Path) -> Sweep:
    """One run_sweep into a fresh `out_dir`; checked, timed and digested.

    A timer around `bench.prepare_seed` (called once per sweep seed, for
    self-play, profile and prior) gives the self-play part of the sweep.
    """
    shutil.rmtree(out_dir, ignore_errors=True)
    selfplay = []
    prepare_seed = bench.prepare_seed

    def timed_prepare_seed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return prepare_seed(*args, **kwargs)
        finally:
            selfplay.append(time.perf_counter() - start)

    bench.prepare_seed = timed_prepare_seed
    try:
        start = time.perf_counter()
        result = bench.run_sweep(
            tasks, list(workload.methods), list(workload.budgets), seeds,
            config=config, out_dir=out_dir,
        )
        sweep_s = time.perf_counter() - start
    finally:
        bench.prepare_seed = prepare_seed

    runs, errors, failures = sweep_failures(result)
    cells = list(result.cells.values())
    return Sweep(
        sweep_s=sweep_s,
        selfplay_s=sum(selfplay),
        task_runs=runs,
        errors=errors,
        failures=failures,
        digest=digest_dir(out_dir),
        accs=[cell.acc for cell in cells],
        overshoots=sum(cell.overshoot_count for cell in cells),
    )


def replay_problem(j: int, first: Sweep, again: Sweep) -> list[str]:
    if again.digest == first.digest:
        return []
    return [f"sweep {j} replay wrote digest {again.digest[:16]}, first run {first.digest[:16]}"]


def end_to_end(bench, workload, inputs, seed, seconds, config, work: Path, probes: int) -> Outcome:
    """Every sweep once, then replays while `seconds` lasts; means over sweeps.

    The set-up probes are spread over the first pass, so that their median,
    like the sweep times, covers the run's whole window: a host's CPU speed
    can change within seconds.
    """
    before = [j * len(inputs) // probes for j in range(probes)] if probes else []
    setup: list[float] = []
    start = time.perf_counter()
    first = []
    for j, (tasks, seeds) in enumerate(inputs):
        setup += setup_times(workload, seed, before.count(j))
        first.append(sweep(bench, workload, tasks, seeds, config, work / f"sweep{j}"))
    samples = [[s] for s in first]
    problems = []
    n = 0
    while n == 0 or time.perf_counter() - start + first[n % len(first)].sweep_s <= seconds:
        j = n % len(first)
        tasks, seeds = inputs[j]
        again = sweep(bench, workload, tasks, seeds, config, work / f"replay{n}")
        problems += replay_problem(j, first[j], again)
        samples[j].append(again)
        n += 1

    def per_sweep(value) -> list[float]:
        """Each sweep's median of `value` over its first run and replays."""
        return [statistics.median(value(s) for s in group) for group in samples]

    task_runs = sum(s.task_runs for s in first)
    metrics = {
        "setup_s": statistics.median(setup) if setup else 0.0,
        "sweep_s": statistics.fmean(per_sweep(lambda s: s.sweep_s)),
        "task_runs_per_s": task_runs / sum(per_sweep(lambda s: s.sweep_s - s.selfplay_s)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "acc_at_b": statistics.fmean(acc for s in first for acc in s.accs),
        "overshoot_share": sum(s.overshoots for s in first) / task_runs,
    }
    extra = {
        "selfplay_s": statistics.fmean(per_sweep(lambda s: s.selfplay_s)),
        "sweep_s_each": [[round(s.sweep_s, 4) for s in group] for group in samples],
    }
    return Outcome(metrics, [s for group in samples for s in group], problems, extra)


def traced(bench, workload, inputs, config, work: Path) -> Outcome:
    """The first TRACE_SWEEPS sweeps untraced, then traced; per-layer metrics from the traced."""
    from spans import Tracer

    inputs = inputs[:TRACE_SWEEPS]
    plain = [
        sweep(bench, workload, tasks, seeds, config, work / f"untraced{j}")
        for j, (tasks, seeds) in enumerate(inputs)
    ]
    tracer = Tracer()
    with tracer.installed():
        again = [
            sweep(bench, workload, tasks, seeds, config, work / f"traced{j}")
            for j, (tasks, seeds) in enumerate(inputs)
        ]
    metrics = tracer.layer_metrics()
    metrics["trace_overhead_share"] = (
        sum(s.sweep_s for s in again) / sum(s.sweep_s for s in plain) - 1.0
    )
    spans = tracer.write_spans(work / "spans.csv.gz")
    problems = [p for j in range(len(plain)) for p in replay_problem(j, plain[j], again[j])]
    return Outcome(metrics, plain + again, problems + tracer.failures, {"spans": spans})


def run(workload: Workload, seed: int, seconds: float, trace: bool, config=None,
        probes: int = SETUP_PROBES) -> dict:
    """Measure one workload; returns the result object plus a report for people."""
    bench = load_weaver()
    from weaver import synthetic_tasks

    config = config or bench.SweepConfig(catalog=workload.catalog)
    inputs = [
        (synthetic_tasks(seed=task_seed, num_tasks=workload.num_tasks), sweep_seeds)
        for task_seed, sweep_seeds in workload.inputs(seed)
    ]
    work = OUT / workload.name
    shutil.rmtree(work, ignore_errors=True)
    if trace:
        outcome = traced(bench, workload, inputs, config, work)
    else:
        outcome = end_to_end(bench, workload, inputs, seed, seconds, config, work, probes)

    attempted = sum(s.task_runs for s in outcome.sweeps)
    problems = [p for s in outcome.sweeps for p in s.errors + s.failures] + outcome.problems
    failed = len(problems)
    digests = list(dict.fromkeys(s.digest for s in outcome.sweeps))
    report = {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "inputs": workload.inputs(seed),
        "sweeps_run": len(outcome.sweeps),
        "digest": hashlib.sha256("".join(digests).encode()).hexdigest(),
        "sweep_digests": digests,
        "failed_share": failed / attempted,
        "environment": environment(bench),
        "problems": problems[:20],
        "metrics": outcome.metrics,
        "extra": outcome.extra,
    }
    work.mkdir(parents=True, exist_ok=True)
    (work / f"result-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(report, indent=2) + "\n", encoding="utf-8"
    )
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": outcome.metrics,
        "report": report,
    }


def units(trace: bool) -> dict[str, str]:
    if trace:
        from spans import per_layer_spec

        return {name: unit for name, unit, _better in per_layer_spec()}
    return dict(END_TO_END)


def non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be non-negative")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Weaver sweep benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=non_negative, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    result = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))
    report = result.pop("report")
    unit_of = units(bool(args.trace))
    print(f"workload {report['workload']} seed {report['seed']} trace {report['trace']}"
          f" sweeps run {report['sweeps_run']}")
    print("environment " + json.dumps(report["environment"], sort_keys=True))
    print(f"digest {report['digest']}")
    for name, value in report["metrics"].items():
        print(f"  {name} {value:.6g} {unit_of[name]}")
    if "selfplay_s" in report["extra"]:
        print(f"  selfplay_s {report['extra']['selfplay_s']:.6g} s")
    print(f"  failed_share {report['failed_share']:.6g} ratio"
          f" ({result['failed']} of {result['attempted']})")
    for problem in report["problems"]:
        print(f"problem: {problem}")
    result["metrics"] = {
        name: {"value": result["metrics"][name], "unit": unit} for name, unit in unit_of.items()
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

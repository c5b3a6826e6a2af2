"""Command-line entry points: selfplay, run, sweep, report, gen-tasks."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import config as config_mod
from .agents import ChatBackend, ChatClient, SyntheticWorld
from .bench import acc_at_b, build_summary, mean_cost, run_sweep, store_prior, write_reports
from .collab import CollaborationModule, ModuleRegistry, builtin_catalog
from .core import CostProfile, as_dollars
from .orchestrator import (
    Method,
    default_roster,
    run_task,
    trajectory_rows,
    write_trajectory_log,
)
from .reflection import TrajectoryStore, run_selfplay
from .tasks import load_tasks, save_tasks, synthetic_tasks


def _build_backend(kind: str, tasks, seed: int, cfg: dict):
    if kind == "sim":
        return SyntheticWorld(tasks, seed=seed, params=config_mod.world_params(cfg))
    if kind == "chat":
        # endpoint and token come from the environment, never the config file
        return ChatBackend(ChatClient.from_env(), role_prompts=cfg["prompts"]["roles"])
    raise ValueError(f"unknown backend {kind!r}")


def _build_registry(cfg: dict, roster, modules_path: str | None) -> ModuleRegistry:
    registry = ModuleRegistry(roster=list(roster))
    if modules_path:
        data = json.loads(Path(modules_path).read_text(encoding="utf-8"))
        for item in data:
            registry.register(CollaborationModule.from_config(item))
    else:
        for module in builtin_catalog(cfg["catalog"]):
            registry.register(module)
    return registry


def _cmd_gen_tasks(args) -> int:
    tasks = synthetic_tasks(
        seed=args.seed,
        num_tasks=args.num_tasks,
        num_docs=args.num_docs,
        chain_min=args.chain_min,
        chain_max=args.chain_max,
        synthesis_share=args.synthesis_share,
    )
    save_tasks(tasks, args.out)
    print(f"wrote {len(tasks)} tasks to {args.out}")
    return 0


def _cmd_selfplay(args) -> int:
    cfg = config_mod.load_config(args.config)
    sweep_cfg = config_mod.sweep_config(cfg)
    tasks = load_tasks(args.tasks)
    roster = default_roster(cfg["models"])
    backend = _build_backend(args.backend, tasks, args.seed, cfg)
    registry = _build_registry(cfg, roster, None)
    store, profile, new_modules = run_selfplay(
        tasks,
        registry,
        rounds=sweep_cfg.selfplay_rounds if args.rounds is None else args.rounds,
        budget_per_task=sweep_cfg.selfplay_budget,
        seed=args.seed,
        backend=backend,
        roster=roster,
        min_support=sweep_cfg.min_support,
        max_len=sweep_cfg.max_len,
        params=sweep_cfg,
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    store.save(out / "store.ndjson")
    (out / "profile.json").write_text(
        json.dumps(profile.to_json(), indent=2) + "\n", encoding="utf-8"
    )
    (out / "modules.json").write_text(
        json.dumps([m.to_config() for m in registry.modules()], indent=2) + "\n",
        encoding="utf-8",
    )
    print(f"trajectories: {len(store.trajectories())}")
    print(f"profiled actions: {len(profile.ids())}")
    print(f"mined modules: {[m.name for m in new_modules]}")
    print(f"artifacts in {out}")
    return 0


def _load_profile(path: str | None) -> CostProfile | None:
    if not path:
        return None
    return CostProfile.from_json(json.loads(Path(path).read_text(encoding="utf-8")))


def _cmd_run(args) -> int:
    cfg = config_mod.load_config(args.config)
    tasks = load_tasks(args.tasks)
    roster = default_roster(cfg["models"])
    backend = _build_backend(args.backend, tasks, args.seed, cfg)
    registry = _build_registry(cfg, roster, args.modules)
    profile = _load_profile(args.profile)
    method = Method(args.method)
    if method is Method.WEAVER and profile is None:
        print(
            "method weaver needs a cost profile; run `weaver selfplay` first "
            "and pass --profile",
            file=sys.stderr,
        )
        return 2
    prior = None
    if method is Method.WEAVER:
        store = Path(args.store) if args.store else Path(args.profile).with_name("store.ndjson")
        if store.exists():
            prior = store_prior(TrajectoryStore.load(store), roster, registry)
        elif args.store:
            print(f"no self-play store at {store}", file=sys.stderr)
            return 2
        else:
            print(f"no {store}; planning with a uniform prior", file=sys.stderr)
    run_cfg = config_mod.sweep_config(cfg).run_config(method, args.budget)
    results = []
    for task in tasks:
        results.append(
            run_task(
                task,
                run_cfg,
                registry=registry,
                cost_profile=profile,
                backend=backend,
                seed=args.seed,
                roster=roster,
                prior=prior,
            )
        )
    out = Path(args.out)
    budget = as_dollars(run_cfg.budget)
    log_path = out / f"trajectories/{method.value}_b{budget}_s{args.seed}.ndjson"
    rows = []
    for result in results:
        rows.extend(trajectory_rows(result, method, budget))
    write_trajectory_log(rows, log_path)
    summary = {
        "method": method.value,
        "budget": str(budget),
        "seed": args.seed,
        "acc": acc_at_b(results, budget, strict=True),
        "acc_lenient": acc_at_b(results, budget, strict=False),
        "mean_cost": str(mean_cost(results)),
        "solved": sum(1 for r in results if r.solved),
        "overshoot": sum(1 for r in results if r.overshoot),
        "n_tasks": len(results),
    }
    (out / "run_summary.json").write_text(
        json.dumps(summary, indent=2) + "\n", encoding="utf-8"
    )
    print(json.dumps(summary, indent=2))
    return 0


def _cmd_sweep(args) -> int:
    cfg = config_mod.load_config(args.config)
    tasks = load_tasks(args.tasks)
    if args.backend != "sim":
        print("sweep drives the synthetic world only", file=sys.stderr)
        return 2
    methods = [Method(m.strip()) for m in args.methods.split(",") if m.strip()]
    budgets = [b.strip() for b in args.budgets.split(",") if b.strip()]
    seeds = [int(s.strip()) for s in args.seeds.split(",") if s.strip()]
    roster = default_roster(cfg["models"])
    registry = _build_registry(cfg, roster, args.modules) if args.modules else None
    sweep = run_sweep(
        tasks,
        methods,
        budgets,
        seeds,
        config=config_mod.sweep_config(cfg),
        out_dir=args.out,
        profile=_load_profile(args.profile),
        registry=registry,
    )
    print(f"{len(sweep.cells)} cells -> {args.out}")
    for name in ("accuracy.md", "utilization.csv", "summary.json"):
        print(f"  {Path(args.out) / name}")
    return 0


def _cmd_report(args) -> int:
    summary_path = Path(args.in_dir) / "summary.json"
    if not summary_path.exists():
        print(f"no summary.json under {args.in_dir}", file=sys.stderr)
        return 2
    summary = json.loads(summary_path.read_text(encoding="utf-8"))
    paths = write_reports(summary, args.out)
    for path in paths:
        print(path)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weaver", description="budget-aware multi-agent orchestration"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-tasks", help="write a synthetic task file")
    gen.add_argument("--out", required=True)
    gen.add_argument("--num-tasks", type=int, default=230)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--num-docs", type=int, default=400)
    gen.add_argument("--chain-min", type=int, default=1)
    gen.add_argument("--chain-max", type=int, default=3)
    gen.add_argument("--synthesis-share", type=float, default=0.5)
    gen.set_defaults(func=_cmd_gen_tasks)

    selfplay = sub.add_parser("selfplay", help="reflect: execute, cost, and mine modules")
    selfplay.add_argument("--tasks", required=True)
    selfplay.add_argument("--rounds", type=int, default=None, help="default: the config's selfplay.rounds")
    selfplay.add_argument("--seed", type=int, default=0)
    selfplay.add_argument("--backend", choices=["sim", "chat"], default="sim")
    selfplay.add_argument("--config", default=None)
    selfplay.add_argument("--out", required=True)
    selfplay.set_defaults(func=_cmd_selfplay)

    run = sub.add_parser("run", help="run one method at one budget over a task file")
    run.add_argument("--tasks", required=True)
    run.add_argument("--method", required=True, choices=[m.value for m in Method])
    run.add_argument("--budget", required=True)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--backend", choices=["sim", "chat"], default="sim")
    run.add_argument("--config", default=None)
    run.add_argument("--profile", default=None)
    run.add_argument(
        "--store", default=None,
        help="self-play store.ndjson weaver learns its prior from; default: the one next to --profile",
    )
    run.add_argument("--modules", default=None)
    run.add_argument("--out", required=True)
    run.set_defaults(func=_cmd_run)

    sweep = sub.add_parser("sweep", help="full method x budget x seed grid")
    sweep.add_argument("--tasks", required=True)
    sweep.add_argument("--methods", required=True)
    sweep.add_argument("--budgets", required=True)
    sweep.add_argument("--seeds", required=True)
    sweep.add_argument("--backend", choices=["sim", "chat"], default="sim")
    sweep.add_argument("--config", default=None)
    sweep.add_argument("--profile", default=None)
    sweep.add_argument("--modules", default=None)
    sweep.add_argument("--out", required=True)
    sweep.set_defaults(func=_cmd_sweep)

    report = sub.add_parser("report", help="re-emit tables from a sweep summary")
    report.add_argument("--in", dest="in_dir", required=True)
    report.add_argument("--out", required=True)
    report.set_defaults(func=_cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

"""Command-line entry points: selfplay, run, sweep, report, gen-tasks."""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import config as config_mod
from .agents import ChatBackend, ChatClient, SyntheticWorld
from .bench import (
    SeedArtifacts,
    SweepConfig,
    catalog_registry,
    cell_row,
    check_scored,
    render_reports,
    run_cell,
    run_sweep,
    store_prior,
    sweep_grid,
    write_reports,
)
from .collab import ModuleRegistry
from .core import CostProfile, positive_budget
from .orchestrator import BUDGET_AWARE_METHODS, MODULE_METHODS, Method, default_roster
from .planner import TransitionPrior
from .reflection import TrajectoryStore, run_selfplay
from .tasks import load_tasks, save_tasks, synthetic_tasks


def _build_backend(kind: str, tasks, seed: int, config: SweepConfig, role_prompts: dict):
    if kind == "sim":
        return _parsed("world", SyntheticWorld, tasks, seed=seed, params=config.world_params)
    if kind == "chat":
        # endpoint and token come from the environment, never the config file
        return ChatBackend(ChatClient.from_env(), role_prompts=role_prompts)
    raise ValueError(f"unknown backend {kind!r}")


class BadInput(Exception):
    """An input file the command cannot use; ``main`` reports it on stderr and exits 2."""


def _read(flag: str, path, read):
    """``read(path)``; any defect of the file is raised as a one-line BadInput."""
    # JSONDecodeError, MalformedStrategy and a bad config are ValueErrors; a
    # missing field or an UnknownAgent is a KeyError, a field of the wrong
    # shape a TypeError and a malformed decimal an ArithmeticError.
    try:
        return read(path)
    except (OSError, ValueError, KeyError, TypeError, ArithmeticError) as exc:
        message = " ".join(f"{type(exc).__name__}: {exc}".split())
        raise BadInput(f"bad {flag} file {path}: {message}") from exc


def _parsed(what: str, parse, *args, **kwargs):
    """``parse(*args, **kwargs)``; a ValueError is raised as a one-line BadInput naming ``what``."""
    try:
        return parse(*args, **kwargs)
    except ValueError as exc:
        raise BadInput(f"bad {what}: {exc}") from exc


def _entries(text: str) -> list[str]:
    """The non-empty entries of a comma-separated flag."""
    return [part.strip() for part in text.split(",") if part.strip()]


def _read_json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _load_config(path: str | None):
    """The config mapping and the ``SweepConfig`` built from it."""
    cfg = _read("--config", path, config_mod.load_config)
    return cfg, _read("--config", path, lambda _: config_mod.sweep_config(cfg))


def _build_registry(catalog: str, roster, modules_path: str | None) -> ModuleRegistry:
    if modules_path:
        return _read(
            "--modules", modules_path,
            lambda path: ModuleRegistry.from_config(_read_json(path), list(roster)),
        )
    return catalog_registry(catalog, roster)


# gen-tasks options passed only when given, so their defaults are synthetic_tasks's.
TASK_KNOBS = ("num_docs", "chain_min", "chain_max", "synthesis_share")


def _cmd_gen_tasks(args) -> int:
    knobs = {name: value for name, value in vars(args).items() if name in TASK_KNOBS}
    tasks = _parsed("gen-tasks options", synthetic_tasks, args.seed, args.num_tasks, **knobs)
    save_tasks(tasks, args.out)
    print(f"wrote {len(tasks)} tasks to {args.out}")
    return 0


def _cmd_selfplay(args) -> int:
    cfg, config = _load_config(args.config)
    if args.rounds is not None:
        config = _parsed("--rounds", replace, config, selfplay_rounds=args.rounds)
    tasks = _read("--tasks", args.tasks, load_tasks)
    roster = default_roster(config.models)
    backend = _build_backend(args.backend, tasks, args.seed, config, cfg["prompts"]["roles"])
    registry = catalog_registry(config.catalog, roster)
    store, profile, new_modules = run_selfplay(tasks, registry, backend, config, args.seed, roster)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    store.save(out / "store.ndjson")
    (out / "profile.json").write_text(
        json.dumps(profile.to_json(), indent=2) + "\n", encoding="utf-8"
    )
    (out / "modules.json").write_text(json.dumps(registry.to_config(), indent=2) + "\n", encoding="utf-8")
    print(f"trajectories: {len(store.trajectories())}")
    print(f"profiled actions: {len(profile.ids())}")
    print(f"mined modules: {[m.name for m in new_modules]}")
    print(f"artifacts in {out}")
    return 0


def _load_profile(path: str | None) -> CostProfile | None:
    if not path:
        return None
    return _read("--profile", path, lambda path: CostProfile.from_json(_read_json(path)))


def _load_prior(store: Path, roster, registry: ModuleRegistry) -> TransitionPrior | None:
    """The prior learned from a self-play store; None (uniform) when there is none."""
    if store.exists():
        return store_prior(_read("--store", store, TrajectoryStore.load), roster, registry)
    print(f"no {store}; planning with a uniform prior", file=sys.stderr)
    return None


def _cmd_run(args) -> int:
    method = _parsed("--method", Method, args.method)
    budget = _parsed("--budget", positive_budget, args.budget)
    cfg, config = _load_config(args.config)
    tasks = _read("--tasks", args.tasks, load_tasks)
    roster = default_roster(config.models)
    backend = _build_backend(args.backend, tasks, args.seed, config, cfg["prompts"]["roles"])
    registry = _build_registry(config.catalog, roster, args.modules)
    profile = _load_profile(args.profile)
    if method in BUDGET_AWARE_METHODS and profile is None:
        print(
            f"method {method.value} needs a cost profile; run `weaver selfplay` first "
            "and pass --profile",
            file=sys.stderr,
        )
        return 2
    prior = None
    if method is Method.WEAVER:
        if args.store and not Path(args.store).exists():
            print(f"no self-play store at {args.store}", file=sys.stderr)
            return 2
        store = Path(args.store or Path(args.profile).with_name("store.ndjson"))
        prior = _load_prior(store, roster, registry)
    cell = run_cell(
        tasks, method, budget, args.seed, config,
        SeedArtifacts(backend, registry, profile, prior), args.out,
    )
    for result in cell.results:
        if result.error is not None:
            print(f"{result.task_id}: {result.error}", file=sys.stderr)
    summary = cell_row(cell)
    (Path(args.out) / "run_summary.json").write_text(
        json.dumps(summary, indent=2) + "\n", encoding="utf-8"
    )
    print(json.dumps(summary, indent=2))
    return 0


def _cmd_sweep(args) -> int:
    methods, budgets, seeds = _parsed(
        "grid", sweep_grid, _entries(args.methods), _entries(args.budgets), _entries(args.seeds)
    )
    _, config = _load_config(args.config)
    tasks = _read("--tasks", args.tasks, load_tasks)
    roster = default_roster(config.models)
    profile = _load_profile(args.profile)
    selfplay = profile is None and any(m in MODULE_METHODS for m in methods)
    _parsed("--tasks", check_scored, tasks, config.validation_size, selfplay)
    _parsed("world", config.world_params.check, tasks)
    registry = _build_registry(config.catalog, roster, args.modules)
    prior = None
    if profile is not None and Method.WEAVER in methods:
        prior = _load_prior(Path(args.profile).with_name("store.ndjson"), roster, registry)
    sweep = run_sweep(
        tasks,
        methods,
        budgets,
        seeds,
        config=config,
        out_dir=args.out,
        profile=profile,
        registry=registry,
        prior=prior,
    )
    print(f"{len(sweep.cells)} cells -> {args.out}")
    for name in ("accuracy.md", "utilization.csv", "summary.json"):
        print(f"  {Path(args.out) / name}")
    return 0


def _cmd_report(args) -> int:
    summary_path = Path(args.in_dir) / "summary.json"
    reports = _read("--in", summary_path, lambda path: render_reports(_read_json(path)))
    for path in write_reports(reports, args.out):
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
    gen.add_argument("--num-docs", type=int, default=argparse.SUPPRESS)
    gen.add_argument("--chain-min", type=int, default=argparse.SUPPRESS)
    gen.add_argument("--chain-max", type=int, default=argparse.SUPPRESS)
    gen.add_argument("--synthesis-share", type=float, default=argparse.SUPPRESS)
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
    run.add_argument("--method", required=True, help=", ".join(m.value for m in Method))
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
    try:
        return args.func(args)
    except BadInput as exc:
        print(exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

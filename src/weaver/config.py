"""File-based configuration: price sheet, world and planner knobs, prompts.

A config file is YAML. Anything omitted falls back to the defaults below;
nested sections merge key by key. Credentials never live here: the wire
backend reads its endpoint and token from environment variables only.
"""

from __future__ import annotations

import copy
from decimal import Decimal
from pathlib import Path
from typing import Any, Mapping

import yaml

from .agents import DEFAULT_ROLE_PROMPTS, TokenProfile, WorldParams
from .core import PriceSheet
from .reflection import DEFAULT_REFLECT_PROMPT


DEFAULTS: dict[str, Any] = {
    "catalog": "gaia",
    "prices": {
        "claude-3-5-haiku-latest": {"input_per_1k": "0.0008", "output_per_1k": "0.004"},
        "claude-3-7-sonnet-latest": {"input_per_1k": "0.003", "output_per_1k": "0.015"},
        "qwen3-32b": {"input_per_1k": "0.0007", "output_per_1k": "0.0028"},
    },
    "models": {
        "search": "claude-3-5-haiku-latest",
        "browse": "claude-3-5-haiku-latest",
        "reason": "claude-3-7-sonnet-latest",
        "critic": "claude-3-7-sonnet-latest",
    },
    "world": {
        "p_hit": 0.55,
        "p_reason": 0.65,
        "p_agg": 0.85,
        "num_docs": 400,
        "results_per_search": 5,
        "orchestrator_model": "claude-3-7-sonnet-latest",
        "token_profiles": {},
    },
    "planner": {
        "k": 3,
        "n_rollouts": 5,
        "depth_limit": 6,
        "g_weight": 1.0,
        "h_weight": 1.0,
        "policy_boost": 1.5,
    },
    "run": {
        "t_max": 12,
        "n_attempts": 3,
        "meter_orchestrator_tokens": True,
    },
    "selfplay": {
        "rounds": 5,
        "budget_per_task": "1.00",
        "min_support": 0.5,
        "max_len": 4,
        "validation_size": 30,
    },
    "sweep": {
        "max_workers": 4,
    },
    "prompts": {
        "roles": dict(DEFAULT_ROLE_PROMPTS),
        "reflect": DEFAULT_REFLECT_PROMPT,
    },
}


def deep_merge(base: Mapping, override: Mapping) -> dict:
    """Recursive dict merge; override wins, nested dicts merge key-wise."""
    merged = dict(base)
    for key, value in override.items():
        if isinstance(value, Mapping) and isinstance(merged.get(key), Mapping):
            merged[key] = deep_merge(merged[key], value)
        else:
            merged[key] = value
    return merged


def load_config(path: str | Path | None = None) -> dict:
    """Defaults, optionally overlaid with a YAML file."""
    config = copy.deepcopy(DEFAULTS)
    if path is None:
        return config
    text = Path(path).read_text(encoding="utf-8")
    loaded = yaml.safe_load(text) or {}
    if not isinstance(loaded, dict):
        raise ValueError(f"config root must be a mapping, got {type(loaded).__name__}")
    unknown = set(loaded) - set(DEFAULTS)
    if unknown:
        raise ValueError(f"unknown config sections: {sorted(unknown)}")
    return deep_merge(config, loaded)


def price_sheet(config: Mapping) -> PriceSheet:
    return PriceSheet(
        {
            model: (entry["input_per_1k"], entry["output_per_1k"])
            for model, entry in config["prices"].items()
        }
    )


def world_params(config: Mapping) -> WorldParams:
    section = config["world"]
    params = WorldParams(
        p_hit=float(section["p_hit"]),
        p_reason=float(section["p_reason"]),
        p_agg=float(section["p_agg"]),
        num_docs=int(section["num_docs"]),
        results_per_search=int(section["results_per_search"]),
        orchestrator_model=section["orchestrator_model"],
    )
    for role, fields in (section.get("token_profiles") or {}).items():
        params.token_profiles[role] = TokenProfile(
            mu_in=float(fields["mu_in"]),
            sigma_in=float(fields["sigma_in"]),
            mu_out=float(fields["mu_out"]),
            sigma_out=float(fields["sigma_out"]),
        )
    return params


def sweep_config(config: Mapping):
    from .bench import SweepConfig

    return SweepConfig(
        world_params=world_params(config),
        catalog=config["catalog"],
        validation_size=int(config["selfplay"]["validation_size"]),
        selfplay_rounds=int(config["selfplay"]["rounds"]),
        selfplay_budget=Decimal(str(config["selfplay"]["budget_per_task"])),
        t_max=int(config["run"]["t_max"]),
        k=int(config["planner"]["k"]),
        n_rollouts=int(config["planner"]["n_rollouts"]),
        depth_limit=int(config["planner"]["depth_limit"]),
        n_attempts=int(config["run"]["n_attempts"]),
        meter_orchestrator_tokens=bool(config["run"]["meter_orchestrator_tokens"]),
        policy_boost=float(config["planner"]["policy_boost"]),
        g_weight=float(config["planner"]["g_weight"]),
        h_weight=float(config["planner"]["h_weight"]),
        prices=price_sheet(config),
        models=dict(config["models"]),
        max_workers=int(config["sweep"]["max_workers"]),
        min_support=float(config["selfplay"]["min_support"]),
        max_len=int(config["selfplay"]["max_len"]),
    )


def run_config(config: Mapping, method, budget):
    from .orchestrator import Method, RunConfig

    return RunConfig(
        method=Method(method),
        budget=budget,
        t_max=int(config["run"]["t_max"]),
        k=int(config["planner"]["k"]),
        n_rollouts=int(config["planner"]["n_rollouts"]),
        depth_limit=int(config["planner"]["depth_limit"]),
        n_attempts=int(config["run"]["n_attempts"]),
        meter_orchestrator_tokens=bool(config["run"]["meter_orchestrator_tokens"]),
        policy_boost=float(config["planner"]["policy_boost"]),
        g_weight=float(config["planner"]["g_weight"]),
        h_weight=float(config["planner"]["h_weight"]),
        prices=price_sheet(config),
    )

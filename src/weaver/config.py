"""File-based configuration: price sheet, world and planner knobs, prompts.

A config file is YAML. Anything omitted falls back to ``DEFAULTS``, which
is read off the defaults of ``SweepConfig``, ``WorldParams``, the price
sheet and the agent->model table; nested sections merge key by key. A
section or key that ``DEFAULTS`` does not have is rejected, except that
``prices`` and ``models`` take any model and any agent, and
``world.token_profiles`` and ``prompts.roles`` any role.
Credentials never live here: the wire backend reads its endpoint and
token from environment variables only.
"""

from __future__ import annotations

import copy
from dataclasses import asdict, fields
from decimal import Decimal
from pathlib import Path
from typing import Any, Mapping

import yaml

from .agents import DEFAULT_ROLE_PROMPTS, TokenProfile, WorldParams
from .bench import SweepConfig
from .core import PriceSheet
from .orchestrator import DEFAULT_MODELS

# YAML section -> {key: SweepConfig field}. Each key's default is the field's
# default; `sweep_config` maps the keys back onto the fields.
SECTIONS: dict[str, dict[str, str]] = {
    "planner": {key: key for key in ("k", "n_rollouts", "depth_limit")},
    "run": {key: key for key in ("t_max", "n_attempts", "meter_orchestrator_tokens")},
    "selfplay": {
        "rounds": "selfplay_rounds",
        "budget_per_task": "selfplay_budget",
        "min_support": "min_support",
        "max_len": "max_len",
        "validation_size": "validation_size",
    },
}


def _coerce(name: str, default, value):
    """Cast config key ``name``'s value to the type of the default it overrides.

    YAML has already typed the value, so some kinds are rejected rather than
    cast: anything but a bool for a bool key (``bool("false")`` is true), a
    bool for any other key, and a float for an int key (``int(3.7)`` is 3).
    """
    kind = type(default)
    if kind is bool:
        wrong = not isinstance(value, bool)
    else:
        wrong = isinstance(value, bool) or (kind is int and isinstance(value, float))
    if not wrong:
        try:
            return Decimal(str(value)) if kind is Decimal else kind(value)
        except (TypeError, ValueError, ArithmeticError):
            pass  # reported below, with the key's name
    raise ValueError(f"config key '{name}' must be {kind.__name__}, got {type(value).__name__} {value!r}")


def _plain(value):
    """A default as it reads in YAML: exact decimals stay strings."""
    return str(value) if isinstance(value, Decimal) else value


def _defaults() -> dict[str, Any]:
    sweep = SweepConfig()
    world = WorldParams()
    return {
        "catalog": sweep.catalog,
        "prices": {
            model: {key: _plain(value) for key, value in asdict(sweep.prices.get(model)).items()}
            for model in sweep.prices.models()
        },
        "models": dict(DEFAULT_MODELS),
        "world": {
            **{f.name: getattr(world, f.name) for f in fields(world) if f.name != "token_profiles"},
            "token_profiles": {},
        },
        **{
            section: {key: _plain(getattr(sweep, name)) for key, name in keys.items()}
            for section, keys in SECTIONS.items()
        },
        "prompts": {"roles": dict(DEFAULT_ROLE_PROMPTS)},
    }


DEFAULTS: dict[str, Any] = _defaults()


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
    """Defaults, optionally overlaid with a YAML file; a bad file raises ValueError."""
    config = copy.deepcopy(DEFAULTS)
    if path is None:
        return config
    text = Path(path).read_text(encoding="utf-8")
    try:
        loaded = yaml.safe_load(text) or {}
    except yaml.YAMLError as exc:
        raise ValueError(f"not YAML: {exc}") from None
    if not isinstance(loaded, dict):
        raise ValueError(f"config root must be a mapping, got {type(loaded).__name__}")
    unknown = set(loaded) - set(DEFAULTS)
    if unknown:
        raise ValueError(f"unknown config sections: {sorted(unknown)}")
    for section, value in loaded.items():
        default = DEFAULTS[section]
        if isinstance(default, dict) and not isinstance(value, dict):
            raise ValueError(f"config section {section!r} must be a mapping, got {type(value).__name__}")
        if section in (*SECTIONS, "world", "prompts"):  # not prices or models
            names = [f"{section}.{key}" for key in value if key not in default]
            if names:
                raise ValueError(f"unknown config keys: {names}")
            for key, entry in value.items():
                if isinstance(default[key], dict) and not isinstance(entry, dict):
                    kind = type(entry).__name__
                    raise ValueError(f"config key '{section}.{key}' must be a mapping, got {kind}")
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
    defaults = WorldParams()
    params = WorldParams(
        **{
            f.name: _coerce(f"world.{f.name}", getattr(defaults, f.name), section[f.name])
            for f in fields(defaults)
            if f.name != "token_profiles"
        }
    )
    for role, profile in (section.get("token_profiles") or {}).items():
        params.token_profiles[role] = TokenProfile(
            **{
                f.name: _coerce(f"world.token_profiles.{role}.{f.name}", 0.0, profile[f.name])
                for f in fields(TokenProfile)
            }
        )
    return params


def sweep_config(config: Mapping) -> SweepConfig:
    defaults = SweepConfig()
    return SweepConfig(
        world_params=world_params(config),
        catalog=config["catalog"],
        prices=price_sheet(config),
        models=dict(config["models"]),
        **{
            name: _coerce(f"{section}.{key}", getattr(defaults, name), config[section][key])
            for section, keys in SECTIONS.items()
            for key, name in keys.items()
        },
    )

"""Config loading, merging, and the builders that feed the engine."""

from dataclasses import fields
from pathlib import Path

import pytest
import yaml

from weaver.agents import WorldParams
from weaver.bench import SweepConfig
from weaver.collab import MAX_BRANCH_THREADS
from weaver.config import (
    DEFAULTS,
    deep_merge,
    load_config,
    price_sheet,
    sweep_config,
    world_params,
)
from weaver.core import TokenUsage, as_dollars, price_cost
from weaver.orchestrator import DEFAULT_MODELS, Method, RunConfig

README = Path(__file__).resolve().parents[1] / "README.md"


def assert_same_params(built, bare, names):
    for name in names:
        got, want = getattr(built, name), getattr(bare, name)
        if name == "prices":  # a PriceSheet compares by identity
            assert got.models() == want.models()
            for model in want.models():
                assert got.get(model) == want.get(model), model
        else:
            assert got == want, name


class TestDeepMerge:
    def test_override_wins_flat(self):
        assert deep_merge({"a": 1, "b": 2}, {"b": 3}) == {"a": 1, "b": 3}

    def test_nested_sections_merge_keywise(self):
        base = {"world": {"p_hit": 0.55, "num_docs": 400}}
        got = deep_merge(base, {"world": {"p_hit": 0.9}})
        assert got == {"world": {"p_hit": 0.9, "num_docs": 400}}

    def test_scalar_replaces_mapping(self):
        assert deep_merge({"a": {"x": 1}}, {"a": 7}) == {"a": 7}

    def test_inputs_are_not_mutated(self):
        base = {"a": {"x": 1}}
        deep_merge(base, {"a": {"y": 2}})
        assert base == {"a": {"x": 1}}


UNKNOWN_KEYS = [  # (file text, the key the error names)
    ("planner:\n  kk: 5\n", "planner.kk"),
    ("run:\n  tmax: 3\n", "run.tmax"),
    ("selfplay:\n  round: 2\n", "selfplay.round"),
    ("prompts:\n  reflect: propose modules\n", "prompts.reflect"),
    ("world:\n  p_hti: 0.8\n", "world.p_hti"),
]
NOT_MAPPINGS = {  # the name the error gives: file text
    "planner": "planner: [1]\n",
    "models": "models: 3\n",
    "world.token_profiles": "world:\n  token_profiles: [1]\n",
    "prompts.roles": "prompts:\n  roles: none\n",
}


class TestLoadConfig:
    def test_no_file_gives_fresh_defaults(self):
        config = load_config()
        assert config == DEFAULTS
        config["world"]["p_hit"] = 0.0
        assert DEFAULTS["world"]["p_hit"] == 0.55  # deep copy, not a view

    def test_yaml_overlay(self, tmp_path):
        path = tmp_path / "conf.yaml"
        path.write_text("world:\n  p_hit: 0.8\nplanner:\n  k: 5\n")
        config = load_config(path)
        assert config["world"]["p_hit"] == 0.8
        assert config["world"]["num_docs"] == 400
        assert config["planner"]["k"] == 5
        assert config["planner"]["n_rollouts"] == 5

    def test_empty_file_is_defaults(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text("")
        assert load_config(path) == DEFAULTS

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("wrold:\n  p_hit: 0.8\n")
        with pytest.raises(ValueError, match="wrold"):
            load_config(path)

    @pytest.mark.parametrize("text, name", UNKNOWN_KEYS, ids=[name for _, name in UNKNOWN_KEYS])
    def test_unknown_key_rejected(self, tmp_path, text, name):
        path = tmp_path / "bad.yaml"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"'{name}'"):
            load_config(path)

    @pytest.mark.parametrize("name", sorted(NOT_MAPPINGS))
    def test_non_mapping_section_rejected(self, tmp_path, name):
        path = tmp_path / "bad.yaml"
        path.write_text(NOT_MAPPINGS[name])
        with pytest.raises(ValueError, match=f"'{name}' must be a mapping"):
            load_config(path)

    def test_open_keys_load(self, tmp_path):
        # any model, any agent, any role
        path = tmp_path / "open.yaml"
        path.write_text(
            "prices:\n  m9: {input_per_1k: '0.001', output_per_1k: '0.002'}\n"
            "models:\n  scout: m9\n"
            "prompts:\n  roles: {planner: plan well}\n"
            "world:\n  token_profiles:\n    scout: {mu_in: 9, sigma_in: 1, mu_out: 9, sigma_out: 1}\n"
        )
        config = load_config(path)
        assert config["prices"]["m9"]["input_per_1k"] == "0.001"
        assert config["models"]["scout"] == "m9"
        assert config["prompts"]["roles"]["planner"] == "plan well"
        assert world_params(config).token_profiles["scout"].mu_in == 9.0

    def test_non_mapping_root_rejected(self, tmp_path):
        path = tmp_path / "list.yaml"
        path.write_text("- a\n- b\n")
        with pytest.raises(ValueError, match="mapping"):
            load_config(path)


WRONG_KINDS = [  # (file text, the key the error names)
    ("run:\n  meter_orchestrator_tokens: 'false'\n", "run.meter_orchestrator_tokens"),
    ("run:\n  meter_orchestrator_tokens: 0\n", "run.meter_orchestrator_tokens"),
    ("run:\n  t_max: 3.7\n", "run.t_max"),
    ("run:\n  t_max: true\n", "run.t_max"),
    ("planner:\n  k: seven\n", "planner.k"),
    ("selfplay:\n  min_support: true\n", "selfplay.min_support"),
    ("selfplay:\n  budget_per_task: false\n", "selfplay.budget_per_task"),
    ("world:\n  p_hit: true\n", "world.p_hit"),
    (
        "world:\n  token_profiles:\n    scout: {mu_in: true, sigma_in: 1, mu_out: 9, sigma_out: 1}\n",
        "world.token_profiles.scout.mu_in",
    ),
]


class TestValueKinds:
    @pytest.mark.parametrize("text, name", WRONG_KINDS, ids=[text for text, _ in WRONG_KINDS])
    def test_a_value_of_the_wrong_kind_is_rejected(self, tmp_path, text, name):
        path = tmp_path / "bad.yaml"
        path.write_text(text)
        config = load_config(path)
        with pytest.raises(ValueError, match=f"config key '{name}' must be"):
            sweep_config(config)

    def test_plain_yaml_values_load_as_typed(self, tmp_path):
        path = tmp_path / "conf.yaml"
        path.write_text(
            "run:\n  meter_orchestrator_tokens: false\n  t_max: 3\n"
            "world:\n  p_hit: 1\nselfplay:\n  budget_per_task: '0.2'\n"
        )
        built = sweep_config(load_config(path))
        assert built.meter_orchestrator_tokens is False
        assert built.t_max == 3 and isinstance(built.t_max, int)
        assert built.world_params.p_hit == 1.0 and isinstance(built.world_params.p_hit, float)
        assert built.selfplay_budget == as_dollars("0.2")


class TestBuilders:
    def test_price_sheet_quotes_match_defaults(self):
        sheet = price_sheet(load_config())
        record = price_cost(TokenUsage(1000, 1000), "claude-3-7-sonnet-latest", sheet)
        assert record.dollars == as_dollars("0.018")

    def test_world_params_come_out_typed(self):
        config = load_config()
        config["world"]["p_hit"] = "0.75"
        config["world"]["token_profiles"] = {
            "search": {"mu_in": 900, "sigma_in": 50, "mu_out": 150, "sigma_out": 20}
        }
        params = world_params(config)
        assert isinstance(params, WorldParams)
        assert params.p_hit == 0.75
        assert params.token_profiles["search"].mu_in == 900.0

    def test_sweep_config_reflects_sections(self):
        config = load_config()
        config["planner"]["k"] = 7
        config["selfplay"]["validation_size"] = 12
        built = sweep_config(config)
        assert isinstance(built, SweepConfig)
        assert built.k == 7
        assert built.validation_size == 12
        assert built.world_params.p_hit == 0.55
        assert built.models == DEFAULTS["models"]

    def test_run_config_builder(self):
        built = sweep_config(load_config()).run_config("weaver", "0.25")
        assert isinstance(built, RunConfig)
        assert built.method is Method.WEAVER
        assert built.budget == as_dollars("0.25")
        assert built.t_max == 12
        assert built.meter_orchestrator_tokens is True

    def test_prompts_section_present(self):
        # role prompts key off the role, not the agent name
        config = load_config()
        assert set(config["prompts"]["roles"]) == {"searcher", "reader", "reasoner", "critic"}
        assert set(config["prompts"]) == {"roles"}


class TestOneHomeForDefaults:
    def test_config_defaults_equal_the_dataclass_defaults(self):
        built, bare = sweep_config(load_config()), SweepConfig()
        # a bare SweepConfig leaves the world and the models to their own defaults
        assert bare.world_params is None and built.world_params == WorldParams()
        assert bare.models is None and built.models == DEFAULT_MODELS
        names = [f.name for f in fields(SweepConfig) if f.name not in ("world_params", "models")]
        assert_same_params(built, bare, names)

    def test_max_workers_is_the_branch_thread_cap_not_a_field(self):
        with pytest.raises(TypeError):
            SweepConfig(max_workers=2)
        assert SweepConfig().max_workers == MAX_BRANCH_THREADS
        names = [f.name for f in fields(SweepConfig)]
        assert len(names) == 15 and "max_workers" not in names

    @pytest.mark.parametrize("method", list(Method))
    def test_run_config_from_the_config_equals_a_bare_one(self, method):
        built = sweep_config(load_config()).run_config(method, "0.25")
        bare = RunConfig(method=method, budget="0.25")
        assert_same_params(built, bare, [f.name for f in fields(RunConfig)])

    def test_readme_configuration_block_matches_defaults(self):
        section = README.read_text(encoding="utf-8").split("## Configuration", 1)[1]
        documented = yaml.safe_load(section.split("```yaml\n", 1)[1].split("```", 1)[0])

        def check(doc, defaults, path):
            for key, value in doc.items():
                if key == "...":  # an elided entry
                    continue
                assert key in defaults, path + [key]
                if isinstance(value, dict) and value:
                    check(value, defaults[key], path + [key])
                elif value != "...":
                    assert value == defaults[key], path + [key]

        check(documented, DEFAULTS, [])
        assert set(documented) == set(DEFAULTS)

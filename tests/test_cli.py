"""End-to-end command-line flows against the synthetic world."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import weaver
from weaver.cli import main
from weaver.orchestrator import Method
from weaver.tasks import load_tasks, save_tasks, synthetic_tasks


def run_cli(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def task_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("tasks") / "tasks.json"
    code = run_cli("gen-tasks", "--out", path, "--num-tasks", 36, "--seed", 9)
    assert code == 0
    return path


@pytest.fixture(scope="module")
def selfplay_dir(tmp_path_factory, task_file):
    out = tmp_path_factory.mktemp("selfplay")
    code = run_cli(
        "selfplay", "--tasks", task_file, "--rounds", 1, "--seed", 9, "--out", out
    )
    assert code == 0
    return out


class TestGenTasks:
    def test_writes_a_loadable_file(self, task_file):
        tasks = load_tasks(task_file)
        assert len(tasks) == 36
        assert len({t.id for t in tasks}) == 36

    def test_unset_knobs_take_synthetic_tasks_defaults(self, task_file):
        assert load_tasks(task_file) == synthetic_tasks(seed=9, num_tasks=36)

    def test_respects_generation_knobs(self, tmp_path):
        path = tmp_path / "lookups.json"
        assert run_cli("gen-tasks", "--out", path, "--num-tasks", 8, "--synthesis-share", 0.0) == 0
        assert all(t.meta["kind"] == "lookup" for t in load_tasks(path))


class TestSelfplay:
    def test_emits_all_three_artifacts(self, selfplay_dir):
        for name in ("store.ndjson", "profile.json", "modules.json"):
            assert (selfplay_dir / name).exists(), name
        profile = json.loads((selfplay_dir / "profile.json").read_text())
        assert profile  # at least one priced action
        for row in profile.values():
            assert row["mean_den"] >= 1
        modules = json.loads((selfplay_dir / "modules.json").read_text())
        assert {m["name"] for m in modules} >= {"search_then_browse"}

    def test_rounds_default_to_the_config(self, tmp_path):
        tasks = tmp_path / "tasks.json"
        assert run_cli("gen-tasks", "--out", tasks, "--num-tasks", 4, "--seed", 9) == 0
        conf = tmp_path / "conf.yaml"
        conf.write_text("selfplay:\n  rounds: 1\n")

        def rounds_run(*flags):
            out = tmp_path / f"sp{len(flags)}"
            code = run_cli("selfplay", "--tasks", tasks, "--config", conf, "--out", out, *flags)
            assert code == 0
            lines = (out / "store.ndjson").read_text().splitlines()
            return {json.loads(line)["round"] for line in lines}

        assert rounds_run() == {0}
        assert rounds_run("--rounds", 2) == {0, 1}  # the flag still wins

    def test_profile_prices_every_registered_module(self, tmp_path):
        tasks = tmp_path / "tasks.json"
        assert run_cli("gen-tasks", "--out", tasks, "--num-tasks", 6, "--seed", 2) == 0
        out = tmp_path / "sp"
        assert run_cli("selfplay", "--tasks", tasks, "--rounds", 1, "--seed", 2, "--out", out) == 0
        profile = json.loads((out / "profile.json").read_text())
        modules = json.loads((out / "modules.json").read_text())
        missing = [m["name"] for m in modules if f"module:{m['name']}" not in profile]
        assert missing == []


class TestRun:
    def test_react_run_writes_log_and_summary(self, tmp_path, task_file):
        out = tmp_path / "react_out"
        code = run_cli(
            "run", "--tasks", task_file, "--method", "react",
            "--budget", "0.30", "--seed", 9, "--out", out,
        )
        assert code == 0
        summary = json.loads((out / "run_summary.json").read_text())
        assert summary["method"] == "react"
        assert summary["n_tasks"] == 36
        assert 0.0 <= summary["acc"] <= 100.0
        log = out / "trajectories" / "react_b0.300000_s9.ndjson"
        trailer_ids = set()
        with open(log) as fh:
            for line in fh:
                row = json.loads(line)
                if "solved" in row:
                    trailer_ids.add(row["task_id"])
        assert len(trailer_ids) == 36

    @pytest.mark.parametrize("method", ["modules_prompt", "weaver"])
    def test_weaver_without_profile_is_refused(self, tmp_path, task_file, capsys, method):
        out = tmp_path / "w"
        code = run_cli("run", "--tasks", task_file, "--method", method, "--budget", "0.30", "--out", out)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"method {method} needs a cost profile") and err.count("\n") == 1
        assert not out.exists()

    def test_weaver_consumes_selfplay_artifacts(self, tmp_path, task_file, selfplay_dir):
        out = tmp_path / "weaver_out"
        code = run_cli(
            "run", "--tasks", task_file, "--method", "weaver",
            "--budget", "0.30", "--seed", 9, "--out", out,
            "--profile", selfplay_dir / "profile.json",
            "--modules", selfplay_dir / "modules.json",
        )
        assert code == 0
        summary = json.loads((out / "run_summary.json").read_text())
        assert summary["n_tasks"] == 36

    def test_weaver_plans_with_the_selfplay_prior(self, tmp_path, task_file, selfplay_dir, capsys):
        def weaver_log(profile_dir, *flags):
            out = tmp_path / f"out{len(list(tmp_path.iterdir()))}"
            code = run_cli(
                "run", "--tasks", task_file, "--method", "weaver",
                "--budget", "0.30", "--seed", 9, "--out", out,
                "--profile", profile_dir / "profile.json",
                "--modules", selfplay_dir / "modules.json", *flags,
            )
            assert code == 0
            return (out / "trajectories" / "weaver_b0.300000_s9.ndjson").read_text()

        learned = weaver_log(selfplay_dir)  # the store next to the profile
        assert weaver_log(selfplay_dir, "--store", selfplay_dir / "store.ndjson") == learned

        bare = tmp_path / "bare"
        bare.mkdir()
        (bare / "profile.json").write_text((selfplay_dir / "profile.json").read_text())
        capsys.readouterr()
        uniform = weaver_log(bare)
        assert "uniform prior" in capsys.readouterr().err
        empty = tmp_path / "empty.ndjson"
        empty.write_text("")
        assert weaver_log(selfplay_dir, "--store", empty) == uniform  # no transitions: uniform
        assert uniform != learned

    def test_run_is_the_matching_sweep_cell(self, tmp_path, task_file, selfplay_dir):
        scored = tmp_path / "scored.json"
        save_tasks(load_tasks(task_file)[30:], scored)  # the sweep's default validation is 30
        learned = (
            "--profile", selfplay_dir / "profile.json", "--modules", selfplay_dir / "modules.json"
        )
        sweep_out = tmp_path / "sweep"
        code = run_cli(
            "sweep", "--tasks", task_file, "--methods", "react,weaver",
            "--budgets", "0.30", "--seeds", 9, "--out", sweep_out, *learned,
        )
        assert code == 0
        cells = json.loads((sweep_out / "summary.json").read_text())["cells"]
        for cell in cells:
            out = tmp_path / cell["method"]
            code = run_cli(
                "run", "--tasks", scored, "--method", cell["method"],
                "--budget", "0.30", "--seed", 9, "--out", out, *learned,
            )
            assert code == 0
            assert json.loads((out / "run_summary.json").read_text()) == cell
            assert (out / cell["log"]).read_bytes() == (sweep_out / cell["log"]).read_bytes()

    def test_run_is_the_matching_cut_cell(self, tmp_path, task_file, selfplay_dir):
        # A sweep cuts each method's smaller cell from its larger cell; a run
        # at the smaller budget executes every task.
        scored = tmp_path / "scored.json"
        save_tasks(load_tasks(task_file)[30:], scored)
        learned = (
            "--profile", selfplay_dir / "profile.json", "--modules", selfplay_dir / "modules.json"
        )
        for methods, budgets, cut_at in (
            ("react,best_of_n,iter_verify,modules_unaware", "0.10,0.45", "0.10"),
            ("modules_prompt,weaver", "0.45,0.90", "0.45"),
        ):
            sweep_out = tmp_path / f"sweep{cut_at}"
            code = run_cli(
                "sweep", "--tasks", task_file, "--methods", methods,
                "--budgets", budgets, "--seeds", 9, "--out", sweep_out, *learned,
            )
            assert code == 0
            cells = json.loads((sweep_out / "summary.json").read_text())["cells"]
            cut = [cell for cell in cells if cell["budget"] == f"{cut_at}0000"]
            assert [cell["method"] for cell in cut] == methods.split(",")
            for cell in cut:
                out = tmp_path / cell["method"]
                code = run_cli(
                    "run", "--tasks", scored, "--method", cell["method"],
                    "--budget", cut_at, "--seed", 9, "--out", out, *learned,
                )
                assert code == 0
                assert json.loads((out / "run_summary.json").read_text()) == cell
                assert (out / cell["log"]).read_bytes() == (sweep_out / cell["log"]).read_bytes()

    def test_a_task_that_raises_is_scored_failed(self, tmp_path, capsys):
        tasks = tmp_path / "tasks.json"
        assert run_cli("gen-tasks", "--out", tasks, "--num-tasks", 6, "--seed", 2) == 0
        sp = tmp_path / "sp"
        assert run_cli("selfplay", "--tasks", tasks, "--rounds", 1, "--seed", 2, "--out", sp) == 0
        # Without a cost for the critic, every weaver run fails with
        # MissingCostProfile before its first step.
        profile_path = sp / "profile.json"
        profile = json.loads(profile_path.read_text())
        del profile["agent:critic"]
        profile_path.write_text(json.dumps(profile))
        out = tmp_path / "out"
        capsys.readouterr()
        code = run_cli(
            "run", "--tasks", tasks, "--method", "weaver", "--budget", "0.30", "--out", out,
            "--profile", sp / "profile.json", "--modules", sp / "modules.json",
        )
        assert code == 0
        summary = json.loads((out / "run_summary.json").read_text())
        assert summary["n_tasks"] == 6 and summary["acc_lenient"] == 0.0
        rows = [json.loads(line) for line in (out / summary["log"]).read_text().splitlines()]
        trailers = [row for row in rows if "solved" in row]
        assert len(trailers) == 6 and not any(row["solved"] for row in trailers)
        err = capsys.readouterr().err
        assert err.count("MissingCostProfile") == 6

    def test_weaver_refuses_a_missing_store(self, tmp_path, task_file, selfplay_dir, capsys):
        code = run_cli(
            "run", "--tasks", task_file, "--method", "weaver",
            "--budget", "0.30", "--out", tmp_path / "w",
            "--profile", selfplay_dir / "profile.json",
            "--store", tmp_path / "nowhere.ndjson",
        )
        assert code == 2
        assert "nowhere.ndjson" in capsys.readouterr().err


class TestSweepAndReport:
    def test_sweep_then_report_reproduces_tables(self, tmp_path, task_file):
        sweep_out = tmp_path / "sweep"
        code = run_cli(
            "sweep", "--tasks", task_file, "--methods", "react,modules_unaware",
            "--budgets", "0.10,0.30", "--seeds", "9", "--out", sweep_out,
        )
        assert code == 0
        report_out = tmp_path / "tables"
        assert run_cli("report", "--in", sweep_out, "--out", report_out) == 0
        for name in ("accuracy.md", "utilization.csv", "summary.json"):
            assert (report_out / name).read_bytes() == (sweep_out / name).read_bytes()

    def test_sweep_plans_with_the_store_next_to_the_profile(
        self, tmp_path, task_file, selfplay_dir, capsys
    ):
        def weaver_log(profile_dir):
            out = tmp_path / f"sweep_{profile_dir.name}"
            code = run_cli(
                "sweep", "--tasks", task_file, "--methods", "weaver", "--budgets", "0.30",
                "--seeds", 9, "--out", out, "--profile", profile_dir / "profile.json",
            )
            assert code == 0
            return (out / "trajectories" / "weaver_b0.300000_s9.ndjson").read_bytes()

        capsys.readouterr()
        learned = weaver_log(selfplay_dir)
        assert "uniform prior" not in capsys.readouterr().err
        bare = tmp_path / "bare"
        bare.mkdir()
        (bare / "profile.json").write_text((selfplay_dir / "profile.json").read_text())
        uniform = weaver_log(bare)
        assert "uniform prior" in capsys.readouterr().err
        assert uniform != learned

    def test_sweep_has_no_backend_flag(self, tmp_path, task_file, capsys):
        # sweep drives the synthetic world only, so argparse refuses the flag.
        with pytest.raises(SystemExit) as exc:
            run_cli(
                "sweep", "--tasks", task_file, "--methods", "react", "--budgets", "0.1",
                "--seeds", "1", "--backend", "chat", "--out", tmp_path / "x",
            )
        assert exc.value.code == 2
        assert "--backend" in capsys.readouterr().err

    def test_report_needs_a_summary(self, tmp_path, capsys):
        assert run_cli("report", "--in", tmp_path, "--out", tmp_path / "y") == 2
        assert "summary.json" in capsys.readouterr().err


def modules_row(name, strategy):
    return json.dumps([{"name": name, "description": "", "strategy": strategy}])


SEARCH = {"type": "single", "agent": "search"}
GHOST = {"type": "single", "agent": "ghost"}
BAD_MODULES = {  # case: (file text or None for no file, the error stderr names)
    "missing": (None, "FileNotFoundError"),
    "not_json": ("[{", "JSONDecodeError"),
    "not_a_list": ("{}", "MalformedStrategy"),
    "malformed_row": (
        modules_row("e", {"type": "ensemble", "n": 2.5, "child": SEARCH, "aggregator": "reason"}),
        "MalformedStrategy",
    ),
    "unknown_agent": (
        modules_row("g", {"type": "pipeline", "children": [SEARCH, GHOST]}),
        "UnknownAgent",
    ),
}


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("case", sorted(BAD_MODULES))
def test_a_bad_modules_file_is_reported_with_exit_2(tmp_path, task_file, capsys, command, case):
    text, error = BAD_MODULES[case]
    modules = tmp_path / "modules.json"
    if text is not None:
        modules.write_text(text)
    if command == "run":
        grid = ("--method", "react", "--budget", "0.30")
    else:
        grid = ("--methods", "react", "--budgets", "0.30", "--seeds", 9)
    out = tmp_path / "out"
    code = run_cli(command, "--tasks", task_file, *grid, "--modules", modules, "--out", out)
    assert code == 2
    err = capsys.readouterr().err
    assert f"bad --modules file {modules}: {error}" in err
    assert not out.exists()


BAD_INPUTS = {  # case: (flag, file text, the error stderr names)
    "profile_not_json": ("--profile", "[", "JSONDecodeError"),
    "profile_not_a_mapping": ("--profile", "[]", "TypeError"),
    "profile_missing_field": ("--profile", '{"agent:search": {"mean_num": 1}}', "KeyError"),
    "profile_zero_denominator": (
        "--profile",
        '{"agent:search": {"mean_num": 1, "mean_den": 0, "sample_count": 1, "sample_stddev": 0}}',
        "ValueError: profile row 'agent:search'",
    ),
    "profile_float_mean": (
        "--profile",
        '{"agent:search": {"mean_num": 1.5, "mean_den": 2.9, "sample_count": 1}}',
        "ValueError: profile row 'agent:search'",
    ),
    "store_missing_field": ("--store", '{"task_id": "t0"}\n', "KeyError: 'input_tokens'"),
    "store_not_json": ("--store", "{\n", "JSONDecodeError"),
    "config_unknown_section": ("--config", "wrold:\n  p_hit: 0.8\n", "ValueError: unknown config sections"),
    "config_unknown_key": ("--config", "planner:\n  kk: 5\n", "ValueError: unknown config keys"),
    "config_section_not_a_mapping": ("--config", "planner: [1]\n", "ValueError: config section"),
    "config_not_yaml": ("--config", "planner: [1\n", "ValueError: not YAML"),
    "config_bad_value": ("--config", "planner:\n  k: 0\n", "ValueError: planner parameters"),
    "config_quoted_bool": (
        "--config",
        "run:\n  meter_orchestrator_tokens: 'false'\n",
        "ValueError: config key 'run.meter_orchestrator_tokens' must be bool",
    ),
    "tasks_missing_field": ("--tasks", '{"id": "t0"}\n', "KeyError: 'question'"),
    "tasks_empty": ("--tasks", "\n", "ValueError: no task in the file"),
    "config_negative_validation_size": (
        "--config", "selfplay:\n  validation_size: -5\n", "ValueError: validation_size must be at least 0"
    ),
    "config_zero_rounds": ("--config", "selfplay:\n  rounds: 0\n", "ValueError: selfplay_rounds must be at least 1"),
    "config_zero_min_support": ("--config", "selfplay:\n  min_support: 0\n", "ValueError: min_support must be in"),
    "config_short_max_len": ("--config", "selfplay:\n  max_len: 1\n", "ValueError: max_len must be at least 2"),
    "config_zero_selfplay_budget": (
        "--config", "selfplay:\n  budget_per_task: '0'\n", "ValueError: selfplay_budget 0 is not a positive"
    ),
}
READERS = {"--profile": ("run", "sweep"), "--store": ("run", "sweep")}
READERS["--config"] = READERS["--tasks"] = ("run", "sweep", "selfplay")
BAD_INPUT_RUNS = [  # (command, case) for every command that reads the case's flag
    (command, case) for case, (flag, _, _) in sorted(BAD_INPUTS.items()) for command in READERS[flag]
]


@pytest.mark.parametrize("command, case", BAD_INPUT_RUNS)
def test_a_bad_input_file_is_reported_with_exit_2(tmp_path, task_file, selfplay_dir, capsys, command, case):
    flag, text, error = BAD_INPUTS[case]
    bad = tmp_path / ("store.ndjson" if flag == "--store" else "input")
    bad.write_text(text)
    if flag == "--store":
        # sweep reads the store next to --profile; run takes it with --store too
        profile = tmp_path / "profile.json"
        profile.write_text((selfplay_dir / "profile.json").read_text())
        args = ["--profile", profile] + (["--store", bad] if command == "run" else [])
    else:
        args = [flag, bad]  # a bad --tasks comes last, so it wins over the good one
    grid = {
        "run": ("--method", "weaver", "--budget", "0.30"),
        "sweep": ("--methods", "weaver", "--budgets", "0.30", "--seeds", 9),
        "selfplay": ("--rounds", 1),
    }[command]
    out = tmp_path / "out"
    code = run_cli(command, "--tasks", task_file, *grid, *args, "--out", out)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"bad {flag} file {bad}: {error}")
    assert err.count("\n") == 1  # one line, no traceback
    assert not out.exists()


BAD_GRIDS = {  # case: (command, grid or rounds flags, the line stderr starts with)
    "run_unknown_method": ("run", ("--method", "reactt", "--budget", "0.30"), "bad --method: 'reactt'"),
    "run_malformed_budget": ("run", ("--method", "react", "--budget", "0.3o"), "bad --budget: budget '0.3o'"),
    "run_zero_budget": ("run", ("--method", "react", "--budget", "0"), "bad --budget: budget '0'"),
    "sweep_unknown_method": ("sweep", ("--methods", "weaver,reactt", "--budgets", "0.30"), "bad grid: 'reactt'"),
    "sweep_malformed_budget": ("sweep", ("--methods", "weaver", "--budgets", "0.30,x"), "bad grid: budget 'x'"),
    "sweep_negative_budget": ("sweep", ("--methods", "weaver", "--budgets", "-0.30"), "bad grid: budget '-0.30'"),
    "sweep_repeated_method": ("sweep", ("--methods", "weaver,weaver", "--budgets", "0.30"), "bad grid: method weaver repeats"),
    "sweep_repeated_budget": (
        "sweep", ("--methods", "weaver", "--budgets", "0.45,0.450000"), "bad grid: budget 0.450000 repeats"
    ),
    "sweep_repeated_seed": ("sweep", ("--methods", "weaver", "--budgets", "0.30", "--seeds", "9,9"), "bad grid: seed 9 repeats"),
    "sweep_malformed_seed": ("sweep", ("--methods", "weaver", "--budgets", "0.30", "--seeds", "9,x"), "bad grid: invalid literal"),
    "selfplay_zero_rounds": ("selfplay", ("--rounds", "0"), "bad --rounds: selfplay_rounds must be at least 1"),
}


def no_selfplay(*args, **kwargs):
    raise AssertionError("self-play ran")


@pytest.mark.parametrize("case", sorted(BAD_GRIDS))
def test_a_bad_grid_is_reported_with_exit_2_before_any_selfplay(tmp_path, task_file, capsys, monkeypatch, case):
    command, grid, message = BAD_GRIDS[case]
    if command == "sweep" and "--seeds" not in grid:
        grid += ("--seeds", "9")
    monkeypatch.setattr("weaver.bench.run_selfplay", no_selfplay)
    monkeypatch.setattr("weaver.cli.run_selfplay", no_selfplay)
    out = tmp_path / "out"
    code = run_cli(command, "--tasks", task_file, *grid, "--out", out)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(message)
    assert err.count("\n") == 1  # one line, no traceback
    assert not out.exists()


def test_a_sweep_with_no_task_to_score_is_reported_with_exit_2_before_any_selfplay(tmp_path, capsys, monkeypatch):
    tasks = tmp_path / "tasks.json"
    save_tasks(synthetic_tasks(seed=9, num_tasks=30), tasks)  # all inside the 30-task validation slice
    monkeypatch.setattr("weaver.bench.run_selfplay", no_selfplay)
    out = tmp_path / "out"
    code = run_cli("sweep", "--tasks", tasks, "--methods", "weaver", "--budgets", "0.30", "--seeds", 9, "--out", out)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("bad --tasks: 30 tasks leave none to score after validation_size 30")
    assert err.count("\n") == 1  # one line, no traceback
    assert not out.exists()


def no_validation_config(tmp_path):
    config = tmp_path / "config.yaml"
    config.write_text("selfplay:\n  validation_size: 0\n")
    return config


def test_a_sweep_whose_selfplay_has_no_task_is_reported_with_exit_2(tmp_path, capsys, monkeypatch):
    tasks = tmp_path / "tasks.json"
    save_tasks(synthetic_tasks(seed=9, num_tasks=8), tasks)
    monkeypatch.setattr("weaver.bench.run_selfplay", no_selfplay)
    out = tmp_path / "out"
    code = run_cli(
        "sweep", "--tasks", tasks, "--methods", "weaver", "--budgets", "0.30", "--seeds", 1,
        "--config", no_validation_config(tmp_path), "--out", out,
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("bad --tasks: validation_size 0 leaves self-play no task")
    assert err.count("\n") == 1  # one line, no traceback
    assert not out.exists()


def test_a_sweep_without_selfplay_runs_with_no_validation_slice(tmp_path, selfplay_dir):
    tasks = tmp_path / "tasks.json"
    save_tasks(synthetic_tasks(seed=9, num_tasks=8), tasks)
    config = no_validation_config(tmp_path)
    for name, given in (("react", ()), ("weaver", ("--profile", selfplay_dir / "profile.json"))):
        out = tmp_path / name
        code = run_cli(
            "sweep", "--tasks", tasks, "--methods", name, "--budgets", "0.30", "--seeds", 1,
            "--config", config, *given, "--out", out,
        )
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["validation_tasks"] == [] and len(summary["scored_tasks"]) == 8


CHAIN_ORDER = "bad gen-tasks options: need 1 <= chain_min <= chain_max <= num_docs"
BAD_TASK_OPTIONS = {  # case: (gen-tasks options synthetic_tasks refuses, the line stderr starts with)
    "chain_min_above_chain_max": (("--chain-min", 3, "--chain-max", 2), CHAIN_ORDER),
    "chain_max_above_num_docs": (("--chain-max", 500), CHAIN_ORDER),
    "chain_min_zero": (("--chain-min", 0), CHAIN_ORDER),
    "no_tasks": (("--num-tasks", 0), "bad gen-tasks options: num_tasks must be at least 1, got 0"),
    "synthesis_share_above_one": (
        ("--synthesis-share", 2), "bad gen-tasks options: synthesis_share must be in [0, 1], got 2.0"
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_TASK_OPTIONS))
def test_bad_task_options_are_reported_with_exit_2(tmp_path, capsys, case):
    options, message = BAD_TASK_OPTIONS[case]
    out = tmp_path / "tasks.json"
    assert run_cli("gen-tasks", "--out", out, "--num-tasks", 4, *options) == 2
    err = capsys.readouterr().err
    assert err.startswith(message)
    assert err.count("\n") == 1  # one line, no traceback
    assert not out.exists()


BAD_SUMMARIES = {  # case: (summary.json text, the error stderr names)
    "not_json": ("[", "JSONDecodeError"),
    "no_cells": ('{"methods": ["react"]}', "KeyError: 'cells'"),
}


@pytest.mark.parametrize("case", sorted(BAD_SUMMARIES))
def test_a_bad_summary_is_reported_with_exit_2(tmp_path, capsys, case):
    text, error = BAD_SUMMARIES[case]
    summary = tmp_path / "summary.json"
    summary.write_text(text)
    out = tmp_path / "out"
    assert run_cli("report", "--in", tmp_path, "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"bad --in file {summary}: {error}")
    assert err.count("\n") == 1  # one line, no traceback
    assert not out.exists()


WORLD_GRIDS = {  # command: its grid options
    "run": ("--method", "react", "--budget", "0.30"),
    "selfplay": ("--rounds", 1),
    "sweep": ("--methods", "react,weaver", "--budgets", "0.30", "--seeds", 1),
}


@pytest.mark.parametrize("command", sorted(WORLD_GRIDS))
def test_world_params_under_which_a_search_never_returns_are_reported_with_exit_2(
    tmp_path, capsys, monkeypatch, command
):
    # Five docs leave a chain of one to three fewer than the five a search lists.
    tasks = tmp_path / "tasks.json"
    assert run_cli("gen-tasks", "--out", tasks, "--num-tasks", 40, "--num-docs", 5) == 0
    config = tmp_path / "config.yaml"
    config.write_text("world:\n  num_docs: 5\n")
    monkeypatch.setattr("weaver.bench.run_selfplay", no_selfplay)
    capsys.readouterr()
    out = tmp_path / "out"
    code = run_cli(command, "--tasks", tasks, *WORLD_GRIDS[command], "--config", config, "--out", out)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("bad world: num_docs 5 leaves task t0000 fewer than results_per_search 5")
    assert err.count("\n") == 1  # one line, no traceback
    assert not out.exists()


# Runs commands through cli.main with NumPy unimportable: any import of it
# raises ImportError.
WITHOUT_NUMPY = """
import json, sys
sys.modules["numpy"] = None
from weaver.cli import main
for argv in json.loads(sys.argv[1]):
    if main(argv) != 0:
        sys.exit(f"exit status {argv}")
"""


def test_commands_run_without_numpy_and_write_what_they_write_in_process(tmp_path, monkeypatch):
    commands = [
        ["gen-tasks", "--out", "tasks.json", "--num-tasks", "40", "--seed", "3"],
        ["selfplay", "--tasks", "tasks.json", "--rounds", "1", "--seed", "3", "--out", "sp"],
        [
            "sweep", "--tasks", "tasks.json", "--methods", ",".join(m.value for m in Method),
            "--budgets", "0.10,0.45", "--seeds", "3", "--out", "sweep",
        ],
    ]
    bare, here = tmp_path / "bare", tmp_path / "here"
    bare.mkdir()
    here.mkdir()
    src = str(Path(weaver.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", WITHOUT_NUMPY, json.dumps(commands)],
        cwd=bare, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    monkeypatch.chdir(here)
    for argv in commands:
        assert main(argv) == 0
    files = sorted(path.relative_to(here) for path in here.rglob("*") if path.is_file())
    assert len(files) == 1 + 3 + 3 + 2 * len(Method)  # tasks, self-play, reports, one log a cell
    assert sorted(path.relative_to(bare) for path in bare.rglob("*") if path.is_file()) == files
    for name in files:
        assert (bare / name).read_bytes() == (here / name).read_bytes(), name

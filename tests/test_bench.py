"""Accuracy-at-budget scoring, the sweep grid, and report emission."""

import json
import tempfile
from dataclasses import replace
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

import weaver.bench
import weaver.collab
from weaver.agents import BackendUnavailable, MalformedUsage, SyntheticWorld
from weaver.bench import (
    EmptyResults,
    SeedArtifacts,
    SweepConfig,
    acc_at_b,
    build_summary,
    catalog_registry,
    emit_reports,
    mean_cost,
    prepare_seed,
    render_reports,
    run_cell,
    run_sweep,
    store_prior,
    utilization,
    write_reports,
)
from weaver.collab import ModuleRegistry
from weaver.core import FINISH, Action, ActionId, CostRecord, HistoryEntry, TokenUsage, as_dollars
from weaver.orchestrator import (
    BUDGET_AWARE_METHODS,
    Method,
    RunResult,
    cut_run,
    default_roster,
    trajectory_rows,
)
from weaver.reflection import run_selfplay
from weaver.tasks import synthetic_tasks
from weaver.trajectory_log import TrajectoryLog

from test_agents import FaultySession


def result(solved, cost, task_id="t", overshoot=False):
    return RunResult(
        task_id=task_id,
        final_answer="x" if solved else None,
        solved=solved,
        total_cost=as_dollars(cost),
        overshoot=overshoot,
        steps=1,
        trajectory=(),
    )


def batch(hits, total, cost="0.01"):
    return [result(i < hits, cost, task_id=f"t{i}") for i in range(total)]


class TestAccAtB:
    def test_known_fraction_rounds_to_two_decimals(self):
        assert acc_at_b(batch(78, 162), "1.00") == 48.15

    def test_bankers_rounding_at_the_half_digit(self):
        assert acc_at_b(batch(1, 32), "1.00") == 3.12  # 3.125 rounds to even
        assert acc_at_b(batch(3, 32), "1.00") == 9.38  # 9.375 rounds up to even

    def test_strict_mode_discounts_overshooters(self):
        results = [result(True, "0.30"), result(True, "0.05"), result(False, "0.02")]
        budget = "0.10"
        assert acc_at_b(results, budget, strict=True) == 33.33
        assert acc_at_b(results, budget, strict=False) == 66.67

    def test_budget_edge_is_inclusive(self):
        results = [result(True, "0.100000")]
        assert acc_at_b(results, "0.10", strict=True) == 100.0

    def test_empty_results_raise(self):
        with pytest.raises(EmptyResults):
            acc_at_b([], "1.00")
        with pytest.raises(EmptyResults):
            mean_cost([])
        with pytest.raises(EmptyResults):
            utilization([], "1.00")


class TestUtilization:
    def test_mean_cost_and_fraction(self):
        results = [result(True, "0.02"), result(False, "0.04")]
        assert mean_cost(results) == Decimal("0.030000")
        assert utilization(results, "0.10") == 0.3
        assert utilization(results, "0.09") == 0.3333

    def test_four_decimal_quantization(self):
        results = [result(True, "0.010000")] * 3
        assert utilization(results, "0.30") == 0.0333


def small_sweep_config():
    return SweepConfig(validation_size=30, selfplay_rounds=1, t_max=8)


def small_sweep(tmp_path, name, methods, budgets, seeds, num_tasks=40):
    tasks = synthetic_tasks(seed=4, num_tasks=num_tasks)
    out = tmp_path / name
    sweep = run_sweep(tasks, methods, budgets, seeds, config=small_sweep_config(), out_dir=out)
    return tasks, sweep, out


class TestRunSweep:
    def test_validation_slice_never_scores(self, tmp_path):
        tasks, sweep, out = small_sweep(
            tmp_path, "a", [Method.REACT], ["0.10"], [1], num_tasks=40
        )
        assert sweep.validation_task_ids == tuple(t.id for t in tasks[:30])
        assert sweep.scored_task_ids == tuple(t.id for t in tasks[30:])
        assert set(sweep.validation_task_ids).isdisjoint(sweep.scored_task_ids)
        cell = sweep.cell(Method.REACT, "0.10", 1)
        assert len(cell.results) == 10
        assert [r.task_id for r in cell.results] == list(sweep.scored_task_ids)

    def test_grid_is_complete_and_budgets_sorted(self, tmp_path):
        _, sweep, out = small_sweep(
            tmp_path, "b", ["react", "best_of_n"], ["0.30", "0.10"], [1, 2]
        )
        assert sweep.budgets == (Decimal("0.100000"), Decimal("0.300000"))
        assert len(sweep.cells) == 8
        for method in sweep.methods:
            for budget in sweep.budgets:
                for seed in sweep.seeds:
                    cell = sweep.cell(method, budget, seed)
                    assert cell.log_path == (
                        f"trajectories/{method.value}_b{budget}_s{seed}.ndjson"
                    )
                    assert (out / cell.log_path).exists()

    def test_summary_matches_log_trailers(self, tmp_path):
        _, sweep, out = small_sweep(tmp_path, "c", [Method.MODULES_UNAWARE], ["0.20"], [3])
        cell = sweep.cell(Method.MODULES_UNAWARE, "0.20", 3)
        trailers = {}
        with open(out / cell.log_path) as fh:
            for line in fh:
                row = json.loads(line)
                if "total_cost" in row and "step" not in row:
                    trailers[row["task_id"]] = row
        assert set(trailers) == set(sweep.scored_task_ids)
        hits = sum(
            1
            for row in trailers.values()
            if row["solved"] and Decimal(row["total_cost"]) <= Decimal("0.20")
        )
        recomputed = float(
            (Decimal(100 * hits) / Decimal(len(trailers))).quantize(Decimal("0.01"))
        )
        assert cell.acc == recomputed
        spent = sum(Decimal(row["total_cost"]) for row in trailers.values())
        assert cell.mean_cost == as_dollars(spent / len(trailers))

    def test_rerun_is_byte_identical(self, tmp_path):
        grid = ([Method.REACT, Method.WEAVER], ["0.15"], [5])
        _, _, out_a = small_sweep(tmp_path, "d1", *grid)
        _, _, out_b = small_sweep(tmp_path, "d2", *grid)
        files_a = sorted(p.relative_to(out_a) for p in out_a.rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(out_b) for p in out_b.rglob("*") if p.is_file())
        assert files_a == files_b and files_a
        for rel in files_a:
            assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes(), rel

    def test_react_cut_from_iter_verify_writes_what_react_alone_writes(self, tmp_path, monkeypatch):
        budgets, seeds = ["0.05", "0.45"], [1, 2]
        executed = []
        run_task = weaver.bench.run_task

        def logged_run_task(task, config, **kwargs):
            executed.append((config.method, config.budget, kwargs["seed"], task.id))
            return run_task(task, config, **kwargs)

        monkeypatch.setattr(weaver.bench, "run_task", logged_run_task)
        tasks, both, out_both = small_sweep(tmp_path, "both", [Method.REACT, Method.ITER_VERIFY], budgets, seeds)
        monkeypatch.undo()
        _, alone, out_alone = small_sweep(tmp_path, "alone", [Method.REACT], budgets, seeds)
        rows = json.loads((out_both / "summary.json").read_text())["cells"]
        assert [row for row in rows if row["method"] == "react"] == build_summary(alone)["cells"]
        for key, cell in alone.cells.items():
            assert both.cells[key].results == cell.results
            assert (out_both / cell.log_path).read_bytes() == (out_alone / cell.log_path).read_bytes()
        # React's top cell executes only the tasks its cut from iter_verify misses.
        top = both.budgets[-1]
        config = small_sweep_config().run_config(Method.REACT, top)
        for seed in seeds:
            verify = both.cell(Method.ITER_VERIFY, top, seed).results
            missed = [t.id for t, above in zip(tasks[30:], verify) if cut_run(above, t, config) is None]
            ran = [task for method, budget, s, task in executed if (method, budget, s) == (Method.REACT, top, seed)]
            assert ran == missed and len(missed) < len(verify)

    @pytest.mark.parametrize(
        "methods, budgets, seeds, repeated",
        [
            (["react", "react"], ["0.45"], [1], "method react"),
            (["react"], ["0.45", "0.450000"], [1], "budget 0.450000"),
            (["react"], ["0.45"], [1, "1"], "seed 1"),
        ],
    )
    def test_rejects_a_repeated_entry(self, tmp_path, methods, budgets, seeds, repeated):
        tasks = synthetic_tasks(seed=1, num_tasks=31)
        with pytest.raises(ValueError, match=f"{repeated} repeats"):
            run_sweep(tasks, methods, budgets, seeds, out_dir=tmp_path / "out")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("budget", ["0", "-0.10", "0.0000001", "abc", "nan", "inf"])
    def test_rejects_a_budget_that_is_not_positive(self, tmp_path, budget):
        tasks = synthetic_tasks(seed=1, num_tasks=31)
        with pytest.raises(ValueError, match="not a positive dollar amount"):
            run_sweep(tasks, [Method.WEAVER], ["0.45", budget], [1], out_dir=tmp_path / "out")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("method", ["modules_unaware", "modules_prompt", "weaver"])
    def test_rejects_a_selfplay_with_no_task_before_any_write(self, tmp_path, monkeypatch, method):
        def no_selfplay(*args, **kwargs):
            raise AssertionError("self-play ran")

        monkeypatch.setattr("weaver.bench.run_selfplay", no_selfplay)
        config = SweepConfig(validation_size=0)
        with pytest.raises(ValueError, match="validation_size 0 leaves self-play no task"):
            run_sweep(synthetic_tasks(seed=1, num_tasks=8), [method], ["0.30"], [1], config, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_rejects_empty_axes(self, tmp_path):
        tasks = synthetic_tasks(seed=1, num_tasks=31)
        with pytest.raises(ValueError):
            run_sweep([], [Method.REACT], ["0.1"], [1], out_dir=tmp_path)
        with pytest.raises(ValueError):
            run_sweep(tasks, [], ["0.1"], [1], out_dir=tmp_path)
        with pytest.raises(ValueError):
            run_sweep(tasks, [Method.REACT], [], [1], out_dir=tmp_path)
        with pytest.raises(ValueError):
            run_sweep(tasks, [Method.REACT], ["0.1"], [], out_dir=tmp_path)


    def test_selfplay_mines_into_a_copy_of_the_given_registry(self):
        # What `weaver sweep --modules` without `--profile` does: one registry for every seed.
        tasks = synthetic_tasks(seed=3, num_tasks=50)
        given = ModuleRegistry(list(default_roster()))
        first, _ = prepare_seed(tasks, 1, SweepConfig(), True, registry=given)
        second, _ = prepare_seed(tasks, 2, SweepConfig(), True, registry=given)
        alone, _ = prepare_seed(tasks, 2, SweepConfig(), True, registry=ModuleRegistry(list(default_roster())))
        assert len(given) == 0
        assert len(first.registry) > 0  # seed 1 mined modules that seed 2 must not start with
        assert second.registry.to_config() == alone.registry.to_config()
        assert second.profile == alone.profile


AWKWARD = ['say "hi"', "back\\slash", "nul\x00 tab\t bell\x07 del\x7f", "naïve €, 日本, 😀", "\u2028"]
SOME_TEXT = st.text(max_size=12) | st.sampled_from(AWKWARD)
SOME_NAME = st.text(min_size=1, max_size=8) | st.sampled_from(AWKWARD)


@st.composite
def logged_results(draw):
    """A result whose task id, action names, subtasks, outputs and answer may hold any text."""
    entries = []
    for step in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from([ActionId.agent, ActionId.module, None]))
        action_id = FINISH if kind is None else kind(draw(SOME_NAME))
        usage = TokenUsage(draw(st.integers(0, 10**6)), draw(st.integers(0, 10**6)))
        dollars = as_dollars(Decimal(draw(st.integers(0, 10**6))) / 10**6)
        entries.append(
            HistoryEntry(step, Action(action_id, draw(SOME_NAME)), draw(SOME_TEXT), CostRecord(usage, "m", dollars))
        )
    answer = draw(st.none() | SOME_TEXT)
    total = sum((e.cost.dollars for e in entries), as_dollars(0))
    return RunResult(draw(SOME_TEXT), answer, draw(st.booleans()), total, draw(st.booleans()), len(entries), tuple(entries))


def awkward_result(answer):
    """Every text field of a row holds quotes, a backslash, control characters and non-ASCII text."""
    text = "".join(AWKWARD)
    step = HistoryEntry(
        0, Action(ActionId.module(text), text), text, CostRecord(TokenUsage(7, 9), "m", as_dollars("0.06"))
    )
    return RunResult(text, answer, False, as_dollars("0.06"), True, 1, (step,))


def rows_json(result, method, budget):
    return [json.dumps(row, ensure_ascii=True) for row in trajectory_rows(result, method, budget)]


class TestTrajectoryLog:
    @given(
        result=logged_results(),
        method=st.sampled_from(list(Method)),
        budget=st.sampled_from(["0.000001", "0.05", "0.45", "2.00"]),
    )
    @example(result=awkward_result("".join(AWKWARD)), method=Method.REACT, budget="0.05")
    @example(result=awkward_result(None), method=Method.WEAVER, budget="0.45")
    def test_each_line_is_its_rows_json(self, result, method, budget):
        log = TrajectoryLog()
        assert log.lines(result, method, as_dollars(budget)) == rows_json(result, method, budget)
        # A cut of the result, logged by the same log under another method
        # and budget, reuses each step's text and still writes its rows.
        cut = replace(result, trajectory=result.trajectory[:2], final_answer=None)
        assert log.lines(cut, Method.REACT, as_dollars("0.02")) == rows_json(cut, Method.REACT, "0.02")


class TestReports:
    def test_emitted_files_and_shapes(self, tmp_path):
        _, sweep, out = small_sweep(tmp_path, "e", [Method.REACT], ["0.10", "0.20"], [1])
        summary = json.loads((out / "summary.json").read_text())
        assert summary["methods"] == ["react"]
        assert summary["budgets"] == ["0.100000", "0.200000"]
        assert len(summary["cells"]) == 2
        for cell_row in summary["cells"]:
            assert set(cell_row) == {
                "method",
                "budget",
                "seed",
                "acc",
                "acc_lenient",
                "mean_cost",
                "utilization",
                "overshoot_count",
                "n_tasks",
                "log",
            }
            assert cell_row["n_tasks"] == 10
        table = (out / "accuracy.md").read_text().splitlines()
        assert table[0] == "| method | Acc@0.100000 | Acc@0.200000 |"
        assert table[1] == "|---|---|---|"
        assert table[2].startswith("| react | ")
        csv = (out / "utilization.csv").read_text().splitlines()
        assert csv[0] == "method,budget,mean_cost,utilization"
        assert len(csv) == 3

    def test_reports_regenerate_from_summary_alone(self, tmp_path):
        _, sweep, out = small_sweep(tmp_path, "f", [Method.BEST_OF_N], ["0.25"], [2])
        originals = {
            name: (out / name).read_bytes()
            for name in ("accuracy.md", "utilization.csv", "summary.json")
        }
        summary = json.loads(originals["summary.json"].decode())
        redo = tmp_path / "re-emitted"
        paths = write_reports(render_reports(summary), redo)
        assert [p.name for p in paths] == ["accuracy.md", "utilization.csv", "summary.json"]
        for name, blob in originals.items():
            assert (redo / name).read_bytes() == blob

    def test_mean_over_seeds_lands_in_the_table(self, tmp_path):
        _, sweep, out = small_sweep(tmp_path, "g", [Method.REACT], ["0.20"], [1, 2])
        a = sweep.cell(Method.REACT, "0.20", 1).acc
        b = sweep.cell(Method.REACT, "0.20", 2).acc
        table = (out / "accuracy.md").read_text().splitlines()
        assert table[2] == f"| react | {(a + b) / 2:.2f} |"

    def test_summary_requires_cells(self):
        from weaver.bench import SweepResult

        empty = SweepResult(methods=(Method.REACT,), budgets=(Decimal("1"),), seeds=(1,))
        with pytest.raises(EmptyResults):
            build_summary(empty)


class TestFanOut:
    def test_synthetic_sweeps_never_start_a_thread_pool(self, tmp_path, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("the synthetic world must run inline")

        monkeypatch.setattr(weaver.bench, "ThreadPoolExecutor", no_pool)
        monkeypatch.setattr(weaver.collab, "ThreadPoolExecutor", no_pool)
        tasks = synthetic_tasks(seed=4, num_tasks=24)
        for catalog, methods in (
            ("gaia", [Method.MODULES_UNAWARE, Method.WEAVER]),
            ("browse", [Method.MODULES_UNAWARE]),
        ):
            config = SweepConfig(catalog=catalog, validation_size=12, selfplay_rounds=1, t_max=8)
            sweep = run_sweep(
                tasks, methods, ["0.10", "0.45"], [1], config=config, out_dir=tmp_path / catalog
            )
            assert len(sweep.cells) == 2 * len(methods)
            results = [r for cell in sweep.cells.values() for r in cell.results]
            assert len(results) == 12 * len(sweep.cells)
            assert all(r.error is None for r in results)
            steps = [e.action.id.name for r in results for e in r.trajectory]
            assert any(name.startswith("ensemble") for name in steps)


class CrashingSession:
    """A world session whose third worker call raises a plain exception."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = 0

    def invoke(self, *args, **kwargs):
        self.calls += 1
        if self.calls == 3:
            raise RuntimeError("backend crashed")
        return self.inner.invoke(*args, **kwargs)

    def policy_usage(self):
        return self.inner.policy_usage()


class CrashingWorld:
    def __init__(self, world, crash=True):
        self.world = world
        self.crash = crash

    def session(self, task_id):
        session = self.world.session(task_id)
        return CrashingSession(session) if self.crash else session


class TestCrashedRuns:
    def cell(self, tmp_path, crash):
        tasks = synthetic_tasks(seed=4, num_tasks=8)
        world = CrashingWorld(SyntheticWorld(tasks, seed=1), crash=crash)
        artifacts = SeedArtifacts(world, ModuleRegistry(), None, None)
        return run_cell(
            [tasks[0]], Method.REACT, Decimal("1.00"), 1, SweepConfig(), artifacts, tmp_path
        )

    def test_crashed_run_keeps_what_it_charged(self, tmp_path):
        (crashed,) = self.cell(tmp_path / "crash", crash=True).results
        (clean,) = self.cell(tmp_path / "clean", crash=False).results
        assert crashed.error == "RuntimeError: backend crashed"
        assert crashed.final_answer is None and not crashed.solved
        # Two executed steps, then the step whose worker call crashed: its
        # policy draw was charged, so it stays in the result.
        assert crashed.trajectory[:2] == clean.trajectory[:2]
        assert len(crashed.trajectory) == crashed.steps == 3
        last = crashed.trajectory[-1]
        assert last.output == "[error] RuntimeError: backend crashed"
        assert 0 < last.cost.dollars < clean.trajectory[2].cost.dollars
        assert crashed.total_cost == sum(e.cost.dollars for e in crashed.trajectory)
        assert crashed.total_cost > sum(e.cost.dollars for e in clean.trajectory[:2])
        assert not crashed.overshoot


FAULT_TASKS = synthetic_tasks(seed=5, num_tasks=4)
FAULT_WORLD = SyntheticWorld(FAULT_TASKS, seed=2)
GAIA = catalog_registry("gaia", default_roster())
BROWSE = catalog_registry("browse", default_roster())


class InjectedWorld:
    """Each session raises ``fault`` on its ``index``-th worker call of one
    kind: inside an ensemble branch (lane ``.../e{i}``) or outside any.
    ``fired`` maps a task to the lane its fault was raised on, ``sessions``
    to the session it ran on."""

    def __init__(self, fault, index, in_branch):
        self.fault = fault
        self.index = index
        self.in_branch = in_branch
        self.params = FAULT_WORLD.params
        self.fired = {}
        self.sessions = {}

    def session(self, task_id):
        seen = []

        def fails(agent, lane):
            if ("/e" in lane) != self.in_branch:
                return False
            seen.append(lane)
            if len(seen) - 1 != self.index:
                return False
            self.fired[task_id] = lane
            return True

        session = FaultySession(FAULT_WORLD.session(task_id), fails, self.fault)
        self.sessions[task_id] = session
        return session


INJECTED = dict(
    fault=st.sampled_from([BackendUnavailable, MalformedUsage, RuntimeError]),
    index=st.integers(0, 8),
    in_branch=st.booleans(),
    method=st.sampled_from([Method.REACT, Method.MODULES_UNAWARE, Method.MODULES_PROMPT]),
    budget=st.sampled_from(["0.02", "0.05", "0.30"]),
)


class TestInjectedFaults:
    @given(**INJECTED)
    def test_every_charged_dollar_reaches_the_result(self, fault, index, in_branch, method, budget):
        world = InjectedWorld(fault, index, in_branch)
        artifacts = SeedArtifacts(world, GAIA, None, None)
        with tempfile.TemporaryDirectory() as out:
            cell = run_cell(FAULT_TASKS, method, as_dollars(budget), 1, SweepConfig(), artifacts, out)
        for result in cell.results:
            assert result.total_cost == sum(e.cost.dollars for e in result.trajectory)
            charged = [e.cost.dollars for e in result.trajectory if e.cost.dollars > 0]
            assert result.total_cost - cell.budget <= (charged[-1] if charged else 0)
            lane = world.fired.get(result.task_id)
            if lane is None:
                assert result.error is None
                continue
            # Whether a single agent, a module or a branch raised it, the run
            # ends with the fault's type and message, and so does its last step.
            assert result.error == f"{fault.__name__}: provider fault on {lane}"
            assert result.trajectory[-1].output == f"[error] {result.error}"
            assert not result.solved

    @given(**INJECTED, registry=st.sampled_from([GAIA, BROWSE]))
    # A plain exception in an ensemble branch that has already made calls.
    @example(
        fault=RuntimeError,
        index=1,
        in_branch=True,
        method=Method.MODULES_UNAWARE,
        budget="0.30",
        registry=BROWSE,
    )
    def test_every_billed_call_is_charged(self, fault, index, in_branch, method, budget, registry):
        # Unmetered policy draws cost nothing, so a run's spend is its worker calls.
        world = InjectedWorld(fault, index, in_branch)
        artifacts = SeedArtifacts(world, registry, None, None)
        config = SweepConfig(meter_orchestrator_tokens=False)
        with tempfile.TemporaryDirectory() as out:
            cell = run_cell(FAULT_TASKS, method, as_dollars(budget), 1, config, artifacts, out)
        for result in cell.results:
            billed = world.sessions[result.task_id].billed
            assert result.total_cost == sum(record.dollars for record in billed)


class SessionLog:
    """A world that records the task of every session it opens."""

    def __init__(self, world):
        self.world = world
        self.opened = []

    def session(self, task_id):
        self.opened.append(task_id)
        return self.world.session(task_id)


def fault_artifacts(world, registry, method):
    """Seed artifacts over ``world``; a budget-aware method's come from one
    self-play round on the fault tasks, in a world of their own."""
    if method not in BUDGET_AWARE_METHODS:
        return SeedArtifacts(world, registry, None, None)
    learned = registry.copy()
    store, profile, _ = run_selfplay(
        FAULT_TASKS, learned, SyntheticWorld(FAULT_TASKS, seed=2), SweepConfig(selfplay_rounds=1), 1
    )
    return SeedArtifacts(world, learned, profile, store_prior(store, default_roster(), learned))


METHODS = sorted(Method, key=lambda method: method.value)
# The worker call, counted outside any ensemble branch, that fails in a run
# that makes it. Best-of-N and verification runs make many more such calls
# at 0.90, so theirs comes later.
FAULT_INDEX = {
    Method.REACT: 2,
    Method.MODULES_UNAWARE: 2,
    Method.MODULES_PROMPT: 2,
    Method.WEAVER: 2,
    Method.BEST_OF_N: 20,
    Method.ITER_VERIFY: 28,
}


class TestCutCells:
    """A cell given the cell above it equals the cell run in full."""

    def cell(self, out, world, method, budget, longer=None, registry=GAIA, artifacts=None):
        artifacts = artifacts or SeedArtifacts(world, registry, None, None)
        return run_cell(FAULT_TASKS, method, as_dollars(budget), 1, SweepConfig(), artifacts, out, longer)

    @pytest.mark.parametrize("registry", [GAIA, BROWSE], ids=["gaia", "browse"])
    @pytest.mark.parametrize("method", METHODS, ids=[m.value for m in METHODS])
    def test_only_the_tasks_a_cut_misses_execute(self, tmp_path, method, registry):
        # A budget-blind cell at 0.02 executes nothing; a budget-aware cell
        # at 0.45, whose steps read the budget, runs only the tasks whose cut
        # crosses a floor.
        budget = "0.45" if method in BUDGET_AWARE_METHODS else "0.02"
        world = SessionLog(SyntheticWorld(FAULT_TASKS, seed=2))
        artifacts = fault_artifacts(world, registry, method)
        top = self.cell(tmp_path / "top", world, method, "0.90", artifacts=artifacts)
        assert len(world.opened) == len(FAULT_TASKS)
        config = SweepConfig().run_config(method, as_dollars(budget))
        missed = [t.id for t, above in zip(FAULT_TASKS, top.results) if cut_run(above, t, config) is None]
        cut = self.cell(tmp_path / "cut", world, method, budget, top.results, artifacts=artifacts)
        assert world.opened[len(FAULT_TASKS) :] == missed
        assert len(missed) < len(FAULT_TASKS) if method in BUDGET_AWARE_METHODS else not missed
        full = self.cell(tmp_path / "full", world, method, budget, artifacts=artifacts)
        assert cut.results == full.results
        assert (tmp_path / "cut" / cut.log_path).read_bytes() == (tmp_path / "full" / full.log_path).read_bytes()

    @pytest.mark.parametrize("registry", [GAIA, BROWSE], ids=["gaia", "browse"])
    def test_react_top_cell_runs_only_the_tasks_iter_verify_misses(self, tmp_path, registry):
        world = SessionLog(SyntheticWorld(FAULT_TASKS, seed=2))
        artifacts = SeedArtifacts(world, registry, None, None)
        verify = self.cell(tmp_path / "verify", world, Method.ITER_VERIFY, "0.90", artifacts=artifacts)
        config = SweepConfig().run_config(Method.REACT, as_dollars("0.90"))
        missed = [t.id for t, above in zip(FAULT_TASKS, verify.results) if cut_run(above, t, config) is None]
        assert 0 < len(missed) < len(FAULT_TASKS)
        world.opened.clear()
        cut = self.cell(tmp_path / "cut", world, Method.REACT, "0.90", verify.results, artifacts=artifacts)
        assert world.opened == missed
        full = self.cell(tmp_path / "full", world, Method.REACT, "0.90", artifacts=artifacts)
        assert cut.results == full.results
        assert (tmp_path / "cut" / cut.log_path).read_bytes() == (tmp_path / "full" / full.log_path).read_bytes()

    @pytest.mark.parametrize("fault", [BackendUnavailable, RuntimeError])
    @pytest.mark.parametrize("method", METHODS, ids=[m.value for m in METHODS])
    def test_a_run_that_ended_in_an_error_runs_again(self, tmp_path, method, fault):
        # The injected call ends some of these runs at 0.90 and not others.
        budget = "0.45" if method in BUDGET_AWARE_METHODS else "0.05"

        def injected():
            world = InjectedWorld(fault, FAULT_INDEX[method], in_branch=False)
            return world, fault_artifacts(world, GAIA, method)

        world, artifacts = injected()
        top = self.cell(tmp_path / "top", world, method, "0.90", artifacts=artifacts)
        failed = {r.task_id for r in top.results if r.error is not None}
        assert failed and len(failed) < len(FAULT_TASKS)
        config = SweepConfig().run_config(method, as_dollars(budget))
        missed = {t.id for t, above in zip(FAULT_TASKS, top.results) if cut_run(above, t, config) is None}
        # A budget-blind run is cut unless it failed; a budget-aware one also
        # runs again when a step's remaining budget falls below its floor.
        assert failed == missed if method not in BUDGET_AWARE_METHODS else failed <= missed
        world, artifacts = injected()
        cut = self.cell(tmp_path / "cut", world, method, budget, top.results, artifacts=artifacts)
        assert set(world.sessions) == missed  # only those ran again
        world, artifacts = injected()
        full = self.cell(tmp_path / "full", world, method, budget, artifacts=artifacts)
        assert cut.results == full.results


"""End-to-end behavior of every orchestration method on the synthetic world."""

import functools
import itertools
import json
import math
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction

import pytest

from weaver.agents import BackendUnavailable, ChatBackend, ChatClient, SyntheticWorld, WorldParams
from weaver.collab import (
    CollaborationModule,
    ModuleExecutor,
    ModuleRegistry,
    Pipeline,
    Single,
    builtin_catalog,
)
from weaver.core import (
    Action,
    ActionCosts,
    ActionId,
    ActionKind,
    CostProfile,
    FINISH,
    ProfileEntry,
    as_dollars,
)
from weaver.bench import SweepConfig, catalog_registry, store_prior
from weaver.orchestrator import (
    BUDGET_AWARE_METHODS,
    Method,
    RunConfig,
    _modal_answer,
    action_space,
    cut_run,
    default_roster,
    run_task,
    trajectory_rows,
    write_trajectory_log,
)
from weaver.planner import PlanCosts, TransitionPrior, plan_step
from weaver.policy import RulePolicy
from weaver.reflection import run_selfplay
from weaver.streams import SeedStream
from weaver.tasks import synthetic_tasks
from weaver.trajectory_log import TrajectoryLog

from test_agents import FakeTransport, FaultySession, NotJsonResponse, ok_response


def make_world(seed=0, num_tasks=20, **params):
    tasks = synthetic_tasks(seed=seed, num_tasks=num_tasks)
    return SyntheticWorld(tasks, seed=seed, params=WorldParams(**params)), tasks


def make_registry():
    reg = ModuleRegistry(roster=["search", "browse", "reason", "critic"])
    for m in builtin_catalog("gaia"):
        reg.register(m)
    return reg


def flat_profile(space, cents=2):
    return CostProfile({aid: ProfileEntry(Fraction(cents, 100), 2) for aid in space})


def weaver_space(registry):
    return action_space(default_roster(), registry.modules())


class TestRunConfig:
    def test_rejects_non_positive_budget(self):
        with pytest.raises(ValueError):
            RunConfig(method=Method.REACT, budget=Decimal("0"))

    def test_rejects_bad_planner_params(self):
        with pytest.raises(ValueError):
            RunConfig(method=Method.WEAVER, budget=Decimal("1"), k=0)
        with pytest.raises(ValueError):
            RunConfig(method=Method.REACT, budget=Decimal("1"), t_max=0)

    def test_budget_is_quantized_to_micro_dollars(self):
        cfg = RunConfig(method=Method.REACT, budget=0.3)
        assert cfg.budget == Decimal("0.300000")
        assert str(cfg.budget) == "0.300000"

    def test_run_costing_exactly_the_budget_does_not_overshoot(self):
        world, tasks = make_world(seed=8)
        probe = run_task(tasks[0], RunConfig(method=Method.REACT, budget=Decimal("5")), backend=world, seed=1)
        spent = probe.total_cost
        # Unquantized, the float budget would sit just below the exact spend.
        assert Decimal(float(spent)) < spent
        cfg = RunConfig(method=Method.REACT, budget=float(spent))
        world, tasks = make_world(seed=8)
        result = run_task(tasks[0], cfg, backend=world, seed=1)
        assert cfg.budget == spent
        assert result.total_cost == spent
        assert result.overshoot is False


class TestReact:
    def test_solves_lookup_chain_in_perfect_world(self):
        world, tasks = make_world(seed=8, p_hit=1.0, p_reason=1.0)
        task = next(t for t in tasks if t.meta["kind"] == "lookup" and len(t.chain) == 1)
        cfg = RunConfig(method=Method.REACT, budget=Decimal("0.50"))
        result = run_task(task, cfg, backend=world, seed=1)
        assert result.solved
        assert result.final_answer == task.answer
        assert result.trajectory[-1].action.id == FINISH

    def test_ledger_total_equals_sum_of_step_costs(self):
        world, tasks = make_world(seed=8)
        cfg = RunConfig(method=Method.REACT, budget=Decimal("0.10"))
        result = run_task(tasks[0], cfg, backend=world, seed=2)
        assert result.total_cost == sum(
            (e.cost.dollars for e in result.trajectory), Decimal(0)
        )

    def test_billable_steps_start_within_budget(self):
        world, tasks = make_world(seed=8)
        cfg = RunConfig(method=Method.REACT, budget=Decimal("0.05"))
        result = run_task(tasks[1], cfg, backend=world, seed=2)
        remaining = cfg.budget
        for entry in result.trajectory:
            if entry.cost.dollars > 0:
                assert remaining > 0  # a forced zero-cost finish is exempt
            remaining -= entry.cost.dollars

    def test_overshoot_bounded_by_last_billable_action(self):
        world, tasks = make_world(seed=8)
        cfg = RunConfig(method=Method.REACT, budget=Decimal("0.01"))
        overshoots = 0
        for i, seed in enumerate((3, 4, 5, 6)):
            result = run_task(tasks[2 + i], cfg, backend=world, seed=seed)
            if not result.overshoot:
                continue
            overshoots += 1
            excess = result.total_cost - cfg.budget
            last_billable = [e for e in result.trajectory if e.cost.dollars > 0][-1]
            assert excess <= last_billable.cost.dollars
        assert overshoots >= 1  # the tight budget must actually trigger the case

    def test_tiny_budget_still_emits_an_answer(self):
        world, tasks = make_world(seed=8)
        cfg = RunConfig(method=Method.REACT, budget=Decimal("0.000001"))
        result = run_task(tasks[0], cfg, backend=world, seed=1)
        assert result.final_answer is not None
        assert result.trajectory[-1].action.id == FINISH

    def test_replay_is_bit_exact(self):
        runs = []
        for _ in range(2):
            world, tasks = make_world(seed=12)
            cfg = RunConfig(method=Method.REACT, budget=Decimal("0.20"))
            result = run_task(tasks[3], cfg, backend=world, seed=5)
            runs.append(trajectory_rows(result, Method.REACT, cfg.budget))
        assert runs[0] == runs[1]

    def test_unmetered_runs_charge_no_policy_records(self):
        world, tasks = make_world(seed=8)
        cfg = RunConfig(
            method=Method.REACT, budget=Decimal("0.20"), meter_orchestrator_tokens=False
        )
        result = run_task(tasks[0], cfg, backend=world, seed=1)
        finish_step = result.trajectory[-1]
        assert finish_step.cost.dollars == 0


class TestBestOfN:
    def test_modal_answer_majority_and_tie_break(self):
        assert _modal_answer(["A", "A", "B"]) == "A"
        assert _modal_answer(["b", "a", "a"]) == "a"
        assert _modal_answer(["x", "y"]) == "x"  # tie: earliest answer wins
        assert _modal_answer(["The Cat", "the cat.", "dog"]) == "The Cat"

    def test_runs_up_to_n_attempts_and_votes(self):
        world, tasks = make_world(seed=9, p_hit=1.0, p_reason=1.0)
        task = next(t for t in tasks if t.meta["kind"] == "lookup" and len(t.chain) == 1)
        cfg = RunConfig(method=Method.BEST_OF_N, budget=Decimal("1.00"))
        result = run_task(task, cfg, backend=world, seed=4)
        assert result.solved
        finishes = [e for e in result.trajectory if e.action.id == FINISH]
        assert len(finishes) >= 2  # several attempts each emitted a finish

    def test_budget_exhaustion_falls_back_to_best_effort(self):
        world, tasks = make_world(seed=9)
        cfg = RunConfig(method=Method.BEST_OF_N, budget=Decimal("0.004"))
        result = run_task(tasks[0], cfg, backend=world, seed=4)
        assert result.final_answer is not None
        assert result.steps == len(result.trajectory)

    def test_each_attempt_sees_only_its_own_steps(self, monkeypatch):
        # (who, history length): policy draws keyed by purpose, executor calls by "execute"
        events = []
        sample, execute = RulePolicy.sample, ModuleExecutor.run

        def spy_sample(policy, k, history, *args, **kwargs):
            events.append((policy.purpose, len(history)))
            return sample(policy, k, history, *args, **kwargs)

        def spy_execute(executor, module, subtask, context=(), *args, **kwargs):
            events.append(("execute", len(context)))
            return execute(executor, module, subtask, context, *args, **kwargs)

        monkeypatch.setattr(RulePolicy, "sample", spy_sample)
        monkeypatch.setattr(ModuleExecutor, "run", spy_execute)
        world, tasks = make_world(seed=9, p_hit=1.0, p_reason=1.0)
        task = next(t for t in tasks if t.meta["kind"] == "lookup" and len(t.chain) == 1)
        cfg = RunConfig(method=Method.BEST_OF_N, budget=Decimal("1.00"))
        result = run_task(task, cfg, backend=world, seed=4)

        seen: dict[str, list[int]] = {}
        last_draw = None
        for who, length in events:
            if who == "execute":
                assert length == last_draw  # the executor sees what the draw saw
            else:
                seen.setdefault(who, []).append(length)
                last_draw = length
        assert list(seen) == [f"attempt{i}" for i in range(len(seen))]
        assert len(seen) >= 2
        for lengths in seen.values():
            assert lengths == list(range(len(lengths)))  # every attempt starts from zero steps
        assert len(result.trajectory) > len(seen["attempt0"])  # later attempts had history to hide

    def test_attempts_share_one_ledger(self):
        world, tasks = make_world(seed=9)
        cfg = RunConfig(method=Method.BEST_OF_N, budget=Decimal("0.05"))
        result = run_task(tasks[1], cfg, backend=world, seed=4)
        assert result.total_cost == sum(
            (e.cost.dollars for e in result.trajectory), Decimal(0)
        )


class TestIterVerify:
    def test_verification_rounds_appear_after_first_pass(self):
        world, tasks = make_world(seed=10, p_hit=1.0, p_reason=1.0)
        task = next(t for t in tasks if t.meta["kind"] == "synthesis")
        cfg = RunConfig(method=Method.ITER_VERIFY, budget=Decimal("1.00"))
        result = run_task(task, cfg, backend=world, seed=6)
        names = [e.action.id.name for e in result.trajectory]
        assert "critic" in names
        assert result.solved

    def test_never_starts_an_action_without_budget(self):
        world, tasks = make_world(seed=10)
        cfg = RunConfig(method=Method.ITER_VERIFY, budget=Decimal("0.02"))
        result = run_task(tasks[0], cfg, backend=world, seed=6)
        remaining = Decimal("0.02")
        for entry in result.trajectory:
            if entry.cost.dollars > 0:
                assert remaining > 0
            remaining -= entry.cost.dollars

    def test_replay_is_bit_exact(self):
        rows = []
        for _ in range(2):
            world, tasks = make_world(seed=10)
            cfg = RunConfig(method=Method.ITER_VERIFY, budget=Decimal("0.15"))
            result = run_task(tasks[2], cfg, backend=world, seed=7)
            rows.append(trajectory_rows(result, Method.ITER_VERIFY, Decimal("0.15")))
        assert rows[0] == rows[1]


class TestPassLength:
    @pytest.mark.parametrize("t_max", [1, 2, 3])
    @pytest.mark.parametrize("method", list(Method))
    def test_a_pass_takes_at_most_t_max_steps(self, method, t_max):
        # Each pass stops after t_max steps; iter_verify adds up to t_max
        # two-step rounds, and a run no pass finished adds one forced finish.
        world, tasks = make_world(seed=14)
        registry = make_registry()
        profile = flat_profile(weaver_space(registry))
        cfg = RunConfig(method=method, budget=Decimal("100"), t_max=t_max)
        passes = cfg.n_attempts if method is Method.BEST_OF_N else 1
        verify = 2 * t_max if method is Method.ITER_VERIFY else 0
        for task in tasks[:6]:
            result = run_task(task, cfg, registry=registry, cost_profile=profile, backend=world, seed=2)
            assert result.error is None
            assert result.steps <= passes * t_max + verify + 1


class TestModuleMethods:
    def test_unaware_uses_modules_from_registry(self):
        world, tasks = make_world(seed=11)
        registry = make_registry()
        cfg = RunConfig(method=Method.MODULES_UNAWARE, budget=Decimal("0.40"))
        kinds = set()
        for task in tasks[:6]:
            result = run_task(task, cfg, registry=registry, backend=world, seed=8)
            kinds |= {e.action.id.kind for e in result.trajectory}
        assert ActionKind.MODULE in kinds

    def test_prompt_method_dampens_expensive_modules_when_poor(self):
        """Damping is multiplicative, not a hard mask, so compare frequencies."""
        registry = make_registry()
        space = weaver_space(registry)
        profile = CostProfile(
            {
                aid: ProfileEntry(
                    Fraction(9, 100) if aid.kind is ActionKind.MODULE else Fraction(1, 200), 2
                )
                for aid in space
            }
        )

        def module_steps(method, with_profile):
            world, tasks = make_world(seed=11)
            cfg = RunConfig(method=method, budget=Decimal("0.03"))
            count = 0
            for task in tasks[:10]:
                result = run_task(
                    task,
                    cfg,
                    registry=registry,
                    cost_profile=profile if with_profile else None,
                    backend=world,
                    seed=8,
                )
                count += sum(
                    1 for e in result.trajectory if e.action.id.kind is ActionKind.MODULE
                )
            return count

        unaware = module_steps(Method.MODULES_UNAWARE, with_profile=False)
        damped = module_steps(Method.MODULES_PROMPT, with_profile=True)
        assert damped < unaware


class TestWeaver:
    def test_requires_covering_cost_profile(self):
        world, tasks = make_world(seed=13)
        registry = make_registry()
        cfg = RunConfig(method=Method.WEAVER, budget=Decimal("0.40"))
        unpriced = run_task(tasks[0], cfg, registry=registry, backend=world, seed=9)
        partial = flat_profile([ActionId.agent("search")])
        uncovered = run_task(
            tasks[0], cfg, registry=registry, cost_profile=partial, backend=world, seed=9
        )
        assert "reason" in uncovered.error
        for result in (unpriced, uncovered):
            # The run ends before its first step, with nothing charged.
            assert result.error.startswith("MissingCostProfile")
            assert result.trajectory == () and result.steps == 0
            assert result.total_cost == 0 and not result.solved and result.final_answer is None

    def test_full_plan_step_performs_zero_worker_invocations(self):
        world, tasks = make_world(seed=13)
        registry = make_registry()
        space = weaver_space(registry)
        profile = flat_profile(space)
        prior = TransitionPrior(space)
        session = world.session(tasks[0].id)
        table = ActionCosts(profile, space)
        policy = RulePolicy(9, tasks[0].id, space, costs=table)
        before_workers = world.count_invocations()
        before_policy_draws = session._policy_calls
        outcome = plan_step(
            policy,
            [],
            PlanCosts(table, prior),
            remaining=Decimal("0.40"),
            seed=SeedStream([9, 0]),
            k=3,
            n_rollouts=12,
            depth_limit=8,
        )
        assert world.count_invocations() == before_workers
        assert session._policy_calls == before_policy_draws
        assert outcome.action is not None
        assert sum(outcome.feasible.counts()) > 0  # speculation really happened

    def test_weaver_runs_end_to_end_and_answers(self):
        world, tasks = make_world(seed=13)
        registry = make_registry()
        profile = flat_profile(weaver_space(registry))
        cfg = RunConfig(method=Method.WEAVER, budget=Decimal("0.40"))
        result = run_task(
            tasks[1], cfg, registry=registry, cost_profile=profile, backend=world, seed=9
        )
        assert result.final_answer is not None

    def test_h_steers_away_from_unaffordable_plans(self):
        """With one affordable and one ruinous action, weaver picks the affordable one."""
        world, tasks = make_world(seed=14)
        registry = make_registry()
        space = weaver_space(registry)
        profile = CostProfile(
            {
                aid: ProfileEntry(
                    Fraction(2, 1) if aid.kind is ActionKind.MODULE else Fraction(1, 500), 2
                )
                for aid in space
            }
        )
        cfg = RunConfig(method=Method.WEAVER, budget=Decimal("0.05"), t_max=6)
        for task in tasks[:4]:
            result = run_task(
                task, cfg, registry=registry, cost_profile=profile, backend=world, seed=10
            )
            for entry in result.trajectory:
                assert entry.action.id.kind is not ActionKind.MODULE


class TestProviderFaults:
    @pytest.mark.parametrize(
        "method, first_reply",
        [
            (Method.REACT, "search results: d0001"),
            (Method.BEST_OF_N, "search results: d0001"),
            # The pass finishes, so the fault hits a verification round.
            (Method.ITER_VERIFY, "[[done]] FINAL: 42"),
        ],
    )
    def test_non_json_reply_ends_the_run_with_its_spend_kept(self, method, first_reply):
        transport = FakeTransport([ok_response(first_reply), NotJsonResponse()])
        backend = ChatBackend(ChatClient("http://x", transport=transport, sleeper=lambda s: None))
        task = synthetic_tasks(seed=0, num_tasks=3)[0]
        result = run_task(task, RunConfig(method=method, budget="0.50"), backend=backend, seed=0)
        assert len(transport.calls) == 2
        assert "not JSON" in result.error
        assert not result.solved and result.final_answer is None
        charged = result.trajectory[0].cost.dollars
        assert charged > 0
        assert result.total_cost == charged == sum(e.cost.dollars for e in result.trajectory)

    def test_module_fault_logs_the_spend_it_charged(self):
        world, tasks = make_world(seed=3)

        class FlakyWorld:
            """Every ensemble's second branch hits a provider outage."""

            params = world.params

            def session(self, task_id):
                return FaultySession(world.session(task_id), lambda agent, lane: lane.endswith("/e1"))

        cfg = RunConfig(method=Method.MODULES_UNAWARE, budget="0.50", meter_orchestrator_tokens=False)
        faulted = []
        for task in tasks:
            result = run_task(task, cfg, registry=make_registry(), backend=FlakyWorld(), seed=3)
            assert result.total_cost == sum(e.cost.dollars for e in result.trajectory)
            if result.error is not None:
                faulted.append(result.trajectory[-1])
        assert faulted
        for step in faulted:
            # Branch e0 returned before the outage; its call is on the ledger.
            assert step.output.startswith("[error] BackendUnavailable")
            assert step.cost.dollars > 0


CUT_GRID = list(itertools.product(list(Method), ("gaia", "browse"), (True, False), (12, 3)))


@functools.cache
def learned(catalog):
    """(registry, profile, prior) from one self-play round on the cut tests' world and tasks."""
    world, tasks = make_world(seed=6, num_tasks=8)
    registry = catalog_registry(catalog, default_roster())
    config = SweepConfig(catalog=catalog, selfplay_rounds=1)
    store, profile, _ = run_selfplay(tasks, registry, world, config, seed=4)
    return registry, profile, store_prior(store, default_roster(), registry)


def cut_fixture(method, catalog):
    """The world, tasks and run_task keywords a cut test runs ``method`` with:
    a budget-aware method plans with a self-play profile and prior."""
    world, tasks = make_world(seed=6, num_tasks=8)
    if method in BUDGET_AWARE_METHODS:
        registry, profile, prior = learned(catalog)
        return world, tasks, dict(registry=registry, cost_profile=profile, prior=prior, backend=world, seed=4)
    registry = catalog_registry(catalog, default_roster())
    return world, tasks, dict(registry=registry, backend=world, seed=4)


def replay_diverges(method, metered, t_max, longer, want):
    """Whether ``cut_run(longer, ...)`` must be None for the direct run ``want``.

    Only an iter_verify run whose plain pass took all ``t_max`` steps without
    a finish can end in a forced finish charged while budget remains. If
    ``longer`` went on to verify past that step, it holds no such step.
    """
    plain = want.trajectory[:t_max]
    return (
        method is Method.ITER_VERIFY
        and metered
        and len(plain) == t_max
        and all(e.action.id != FINISH for e in plain)
        and want.trajectory[-1].cost.dollars > 0
        and len(want.trajectory) < len(longer.trajectory)
    )


class TestCutRun:
    """A run at a smaller budget is its larger-budget run, cut, wherever
    every step's remaining budget stays at or above the step's floor."""

    @pytest.mark.parametrize(
        "method, catalog, metered, t_max", CUT_GRID, ids=["-".join(map(str, case)) for case in CUT_GRID]
    )
    def test_every_cut_equals_a_direct_run(self, method, catalog, metered, t_max):
        world, tasks, kwargs = cut_fixture(method, catalog)

        def direct(task, budget):
            cfg = RunConfig(method=method, budget=budget, t_max=t_max, meter_orchestrator_tokens=metered)
            return cfg, run_task(task, cfg, **kwargs)

        cuts = halved = 0
        for task in tasks:
            _, largest = direct(task, Decimal("0.90"))
            assert largest.error is None
            # Budgets at and just below every step boundary of the largest
            # run, down to one below its cheapest step, plus a fixed grid.
            spent, bounds = Decimal(0), set()
            for entry in largest.trajectory:
                spent += entry.cost.dollars
                bounds |= {spent, spent - Decimal("0.000001")}
            cheapest = min(e.cost.dollars for e in largest.trajectory if e.cost.dollars > 0)
            bounds |= {cheapest - Decimal("0.000001"), *map(Decimal, ("0.45", "0.15", "0.05", "0.01"))}
            longer = largest
            for budget in sorted((b for b in bounds if 0 < b < Decimal("0.90")), reverse=True):
                cfg, want = direct(task, budget)
                for above in (largest, longer):
                    cut = cut_run(above, task, cfg)
                    if replay_diverges(method, metered, t_max, above, want):
                        assert cut is None, budget
                    elif method in BUDGET_AWARE_METHODS and cut is None:
                        continue  # some step's remaining budget fell below its floor
                    else:
                        assert cut == want, budget
                    halved += above is largest and budget == Decimal("0.45")
                longer = want
                cuts += len(want.trajectory) < len(largest.trajectory)
        assert cuts > 0  # some budgets really stop the run early
        assert halved > 0  # some 0.45 run is read off its 0.90 run

    @pytest.mark.parametrize("method", list(Method))
    def test_a_replay_samples_and_plans_nothing(self, monkeypatch, method):
        # A cut run reads every step off its recording, so no policy draw and
        # no planning step runs inside cut_run, however many steps it replays.
        _, tasks, kwargs = cut_fixture(method, "gaia")
        recorder = Method.ITER_VERIFY if method is Method.REACT else method
        longer = [run_task(task, RunConfig(method=recorder, budget="0.90"), **kwargs) for task in tasks]

        def forbidden(*args, **kw):
            raise AssertionError("a replay sampled or planned")

        monkeypatch.setattr(RulePolicy, "sample", forbidden)
        monkeypatch.setattr("weaver.orchestrator.plan_step", forbidden)
        replayed = 0
        for task, above in zip(tasks, longer):
            for budget in ("0.90", "0.45", "0.15"):
                cut = cut_run(above, task, RunConfig(method=method, budget=budget))
                replayed += cut is not None and len(cut.trajectory) > 1
        assert replayed > 0

    def test_a_run_that_ended_in_an_error_is_not_cut(self):
        world, tasks = make_world(seed=6, num_tasks=8)
        cfg = RunConfig(method=Method.REACT, budget="0.90")
        crashed = replace(run_task(tasks[0], cfg, backend=world, seed=4), error="BackendUnavailable: down")
        assert cut_run(crashed, tasks[0], RunConfig(method=Method.REACT, budget="0.05")) is None

    @pytest.mark.parametrize("catalog", ["gaia", "browse"])
    def test_a_step_below_its_floor_is_not_cut(self, catalog):
        # The largest budget at which step i's remaining budget is below its
        # floor, where every earlier step's remaining is at least its own.
        world, tasks, kwargs = cut_fixture(Method.WEAVER, catalog)
        checked = 0
        for task in tasks:
            longer = run_task(task, RunConfig(method=Method.WEAVER, budget="0.90"), **kwargs)
            spent, need = Fraction(0), Fraction(0)
            for entry in longer.trajectory:
                edge = spent + entry.floor
                budget = Decimal(math.ceil(edge * 10**6) - 1) / 10**6
                if entry.floor > 0 and budget > spent and budget >= need:
                    assert cut_run(longer, task, RunConfig(method=Method.WEAVER, budget=budget)) is None
                    checked += 1
                    break
                need = max(need, edge)
                spent += Fraction(entry.cost.dollars)
        assert checked >= 4

    @pytest.mark.parametrize("catalog", ["gaia", "browse"])
    def test_react_is_cut_from_iter_verify(self, catalog):
        # React at B is the start of iter_verify at B, and of iter_verify at
        # any larger budget too: the cut is None or the direct run.
        _, _, kwargs = cut_fixture(Method.REACT, catalog)
        cuts = missed = 0
        for world_seed, seed in ((6, 4), (6, 5), (7, 4), (7, 5)):
            world, tasks = make_world(seed=world_seed, num_tasks=8)
            run = dict(kwargs, backend=world, seed=seed)
            for task in tasks:
                largest = run_task(task, RunConfig(method=Method.ITER_VERIFY, budget="0.90"), **run)
                for budget in ("0.05", "0.15", "0.45", "0.90"):
                    react = RunConfig(method=Method.REACT, budget=budget)
                    want = run_task(task, react, **run)
                    verify = run_task(task, RunConfig(method=Method.ITER_VERIFY, budget=budget), **run)
                    for above in (verify, largest):
                        cut = cut_run(above, task, react)
                        if cut is None:
                            missed += 1
                        else:
                            assert cut == want, (task.id, budget)
                            cuts += 1
        assert cuts > 2 * missed

    def test_a_react_forced_finish_where_iter_verify_verified_is_not_cut(self):
        # React runs out of steps and charges a forced finish; iter_verify,
        # after the same steps, verifies instead, so the replay meets a
        # critic step where react needs its finish.
        world, tasks, kwargs = cut_fixture(Method.REACT, "gaia")
        react = RunConfig(method=Method.REACT, budget="0.90", t_max=2)
        verify = RunConfig(method=Method.ITER_VERIFY, budget="0.90", t_max=2)
        checked = 0
        for task in tasks:
            want = run_task(task, react, **kwargs)
            if any(e.action.id == FINISH for e in want.trajectory[:2]):
                continue
            forced = want.trajectory[2]
            assert forced.action.id == FINISH and forced.cost.dollars > 0
            longer = run_task(task, verify, **kwargs)
            assert longer.trajectory[:2] == want.trajectory[:2]
            assert longer.trajectory[2].action.id.name == "critic"
            assert cut_run(longer, task, react) is None
            checked += 1
        assert checked > 0


class SessionBackend:
    """A backend whose every run uses one given session."""

    def __init__(self, session):
        self._session = session

    def session(self, task_id):
        return self._session


class MeterFaultSession:
    """A world session whose ``n``-th policy draw hits a provider outage."""

    def __init__(self, inner, n):
        self.inner = inner
        self.n = n
        self.draws = 0

    def invoke(self, *args, **kwargs):
        return self.inner.invoke(*args, **kwargs)

    def policy_usage(self):
        self.draws += 1
        if self.draws == self.n:
            raise BackendUnavailable("policy endpoint down")
        return self.inner.policy_usage()


class TestEveryBilledCallIsCharged:
    """A step costs every call billed since the step before, however it ended."""

    SEARCH_THEN_BROWSE = CollaborationModule(
        "search_then_browse", Pipeline((Single("search"), Single("browse")))
    )

    def scripted(self, monkeypatch, subtask, fails):
        """A session failing where ``fails`` says, and a one-step run whose
        policy always picks ``search_then_browse`` on ``subtask``."""
        world, tasks = make_world(seed=3)
        registry = ModuleRegistry()
        registry.register(self.SEARCH_THEN_BROWSE)
        action = Action(self.SEARCH_THEN_BROWSE.id, subtask)
        monkeypatch.setattr(RulePolicy, "sample", lambda policy, k, history, **kw: [action] * k)
        session = FaultySession(world.session(tasks[0].id), fails, RuntimeError)
        cfg = RunConfig(
            method=Method.MODULES_UNAWARE, budget="0.50", t_max=1, meter_orchestrator_tokens=False
        )
        return session, lambda: run_task(
            tasks[0], cfg, registry=registry, backend=SessionBackend(session), seed=3
        )

    def test_a_crash_inside_a_module_keeps_the_calls_before_it(self, monkeypatch):
        session, run = self.scripted(monkeypatch, "find the lead", lambda agent, lane: agent == "browse")
        crashed = run()
        assert crashed.error == "RuntimeError: provider fault on main"
        (search,) = session.billed
        last = crashed.trajectory[-1]
        assert last.output == "[error] RuntimeError: provider fault on main"
        assert (last.cost.usage, last.cost.dollars) == (search.usage, search.dollars)
        assert crashed.total_cost == search.dollars

    @pytest.mark.parametrize("n", [2, 5])
    def test_a_fault_while_metering_keeps_the_draws_before_it(self, n):
        # Weaver meters K = 3 draws a step: the 2nd draw faults in the first
        # step, the 5th in the second.
        world, tasks = make_world(seed=13)
        registry = make_registry()
        session = MeterFaultSession(world.session(tasks[1].id), n)
        cfg = RunConfig(method=Method.WEAVER, budget=Decimal("0.45"))
        result = run_task(
            tasks[1],
            cfg,
            registry=registry,
            cost_profile=flat_profile(weaver_space(registry)),
            backend=SessionBackend(session),
            seed=9,
        )
        assert session.draws == n
        assert result.error.startswith("BackendUnavailable")
        assert result.trajectory[-1].output == "[error] BackendUnavailable: policy endpoint down"
        assert result.total_cost == sum(e.cost.dollars for e in result.trajectory) > 0
        assert not result.solved and result.final_answer is None

    def test_a_soft_failure_costs_the_calls_it_made(self, monkeypatch):
        session, run = self.scripted(monkeypatch, "read d9999", lambda agent, lane: False)
        result = run()
        (search,) = session.billed
        step = result.trajectory[0]
        assert step.output.startswith("[error] UnknownDocument")
        assert (step.cost.usage, step.cost.dollars) == (search.usage, search.dollars)
        assert result.total_cost == search.dollars

    def test_a_crash_in_a_verification_round_is_logged(self, monkeypatch):
        # The pass finishes at once, so the crash hits the first verification round.
        monkeypatch.setattr(
            RulePolicy, "sample", lambda policy, k, history, **kw: [Action(FINISH, "42")] * k
        )
        world, tasks = make_world(seed=3)
        session = FaultySession(
            world.session(tasks[0].id), lambda agent, lane: agent == "critic", RuntimeError
        )
        cfg = RunConfig(method=Method.ITER_VERIFY, budget="0.50")
        crashed = run_task(tasks[0], cfg, backend=SessionBackend(session), seed=3)
        assert [e.action.id.name for e in crashed.trajectory] == ["finish", "critic"]
        assert crashed.trajectory[-1].output == "[error] RuntimeError: provider fault on main"
        assert crashed.error == "RuntimeError: provider fault on main"
        assert crashed.total_cost == sum(e.cost.dollars for e in crashed.trajectory)


class TestTrajectoryLog:
    def test_rows_carry_schema_fields_and_recomputed_remaining(self, tmp_path):
        world, tasks = make_world(seed=15)
        cfg = RunConfig(method=Method.REACT, budget=Decimal("0.10"))
        result = run_task(tasks[0], cfg, backend=world, seed=11)
        rows = trajectory_rows(result, Method.REACT, cfg.budget)
        running = as_dollars(cfg.budget)
        for row in rows[:-1]:
            assert set(row) == {
                "task_id",
                "method",
                "budget",
                "step",
                "action_kind",
                "action_name",
                "subtask",
                "output_digest",
                "input_tokens",
                "output_tokens",
                "dollars",
                "remaining_after",
            }
            running -= Decimal(row["dollars"])
            assert Decimal(row["remaining_after"]) == running
        trailer = rows[-1]
        assert trailer["total_cost"] == str(result.total_cost)
        assert trailer["solved"] == result.solved

    def test_log_file_roundtrip(self, tmp_path):
        world, tasks = make_world(seed=15)
        cfg = RunConfig(method=Method.REACT, budget=Decimal("0.10"))
        result = run_task(tasks[1], cfg, backend=world, seed=11)
        rows = trajectory_rows(result, Method.REACT, cfg.budget)
        path = tmp_path / "log.ndjson"
        write_trajectory_log(TrajectoryLog().lines(result, Method.REACT, cfg.budget), path)
        loaded = [json.loads(line) for line in path.read_text().splitlines()]
        assert loaded == rows

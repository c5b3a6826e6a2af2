"""Experience store, cost estimation, pattern mining, and self-play."""

import hashlib
import itertools
import time
from decimal import Decimal
from fractions import Fraction

import pytest

from weaver.agents import BackendUnavailable, SyntheticWorld, WorldParams
from weaver.collab import (
    Ensemble,
    Interactive,
    ModuleRegistry,
    Pipeline,
    Single,
    builtin_catalog,
)
from weaver.bench import SweepConfig
from weaver.core import ActionId, CostRecord, TokenUsage, as_dollars
from weaver.orchestrator import Method, RunParams, action_space, default_roster, run_task
from weaver.reflection import (
    EmptyStore,
    StoredStep,
    StoredTrajectory,
    TrajectoryStore,
    estimate_costs,
    mine_modules,
    run_selfplay,
)
from weaver.tasks import synthetic_tasks

from test_agents import FaultySession


def step(name, dollars="0.010000", kind="agent"):
    maker = ActionId.agent if kind == "agent" else ActionId.module
    return StoredStep(
        action=maker(name),
        subtask_digest="0" * 16,
        cost=CostRecord(usage=TokenUsage(100, 40), model="aggregate", dollars=as_dollars(dollars)),
    )


def traj(task_id, names, success=True, round=0):
    return StoredTrajectory(task_id, round, success, tuple(step(n) for n in names))


def agent_store(paths, success=True):
    store = TrajectoryStore()
    for i, names in enumerate(paths):
        store.append(traj(f"t{i}", names, success=success))
    return store


def catalog_registry(name="gaia"):
    registry = ModuleRegistry()
    for module in builtin_catalog(name):
        registry.register(module)
    return registry


class TestStore:
    def test_append_result_keeps_order_and_success(self):
        store = agent_store([["search"], ["browse"]])
        assert len(store) == 2
        assert [t.task_id for t in store.trajectories()] == ["t0", "t1"]

    def test_action_sequences_filters_failures(self):
        store = TrajectoryStore()
        store.append(traj("ok", ["search", "browse"], success=True))
        store.append(traj("bad", ["search"], success=False))
        assert len(store.action_sequences()) == 2
        wins = store.action_sequences(successful_only=True)
        assert wins == [(ActionId.agent("search"), ActionId.agent("browse"))]

    def test_save_load_roundtrip(self, tmp_path):
        store = TrajectoryStore()
        store.append(traj("a", ["search", "browse"], success=True))
        store.append(StoredTrajectory("b", 1, False, (step("ens", kind="module"),)))
        store.append(StoredTrajectory("c", 2, True, ()))
        path = tmp_path / "deep" / "store.ndjson"
        store.save(path)
        again = TrajectoryStore.load(path)
        assert again.trajectories() == store.trajectories()
        assert again.digest() == store.digest() == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_digest_tracks_content(self):
        one = agent_store([["search", "browse"]])
        two = agent_store([["search", "browse"]])
        assert one.digest() == two.digest()
        two.append(traj("x", ["critic"]))
        assert one.digest() != two.digest()

    def test_truncated_file_is_rejected(self, tmp_path):
        store = agent_store([["search", "browse"]])
        path = tmp_path / "store.ndjson"
        store.save(path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")  # drop the trailer
        with pytest.raises(ValueError, match="mid-trajectory"):
            TrajectoryStore.load(path)


class TestEstimateCosts:
    def test_mean_is_exact_rational(self):
        store = TrajectoryStore()
        store.append(
            StoredTrajectory(
                "a", 0, True, (step("search", "0.01"), step("search", "0.02"), step("browse", "0.02"))
            )
        )
        store.append(StoredTrajectory("b", 0, False, (step("search", "0.04"),)))
        profile = estimate_costs(store)
        got = profile.entries[ActionId.agent("search")]
        assert got.mean_dollars == Fraction(7, 300)
        assert got.sample_count == 3
        browse = profile.entries[ActionId.agent("browse")]
        assert browse.mean_dollars == Fraction(1, 50)
        assert browse.sample_count == 1

    def test_module_steps_are_profiled_too(self):
        store = TrajectoryStore()
        store.append(StoredTrajectory("a", 0, True, (step("ens", "0.05", kind="module"),)))
        profile = estimate_costs(store)
        assert profile.entries[ActionId.module("ens")].mean_dollars == Fraction(1, 20)

    def test_decimal_sum_equals_the_per_step_fraction_mean(self):
        # A 7-place amount, one with more digits than the default 28-digit
        # context keeps, and everyday 6-place amounts.
        amounts = {
            "search": ["0.0000001", "0.010000", "0.0000003"],
            "browse": ["123456789012345678901234567890.123456", "0.000001", "7"],
            "reason": ["0.333333"] * 7,
        }
        steps = tuple(
            StoredStep(
                action=ActionId.agent(name),
                subtask_digest="0" * 16,
                cost=CostRecord(usage=TokenUsage(1, 1), model="aggregate", dollars=Decimal(d)),
            )
            for name, values in amounts.items()
            for d in values
        )
        store = TrajectoryStore()
        store.append(StoredTrajectory("a", 0, True, steps[:5]))
        store.append(StoredTrajectory("b", 1, False, steps[5:]))
        profile = estimate_costs(store)
        for name, values in amounts.items():
            got = profile.entries[ActionId.agent(name)]
            mean = Fraction(sum(Fraction(Decimal(d)) for d in values), len(values))
            assert got.mean_dollars == mean
            assert got.sample_count == len(values)

    def test_empty_store_raises(self):
        with pytest.raises(EmptyStore):
            estimate_costs(TrajectoryStore())
        assert issubclass(EmptyStore, ValueError)


SIX_RUNS = [
    ["search", "browse", "critic", "reason", "reason"],
    ["search", "browse", "reason", "reason", "critic"],
    ["critic", "search", "browse", "reason", "reason"],
    ["search", "browse", "critic", "reason"],
    ["search", "browse"],
    ["reason", "reason"],
]


class TestMining:
    def test_planted_patterns_are_the_only_survivors(self):
        store = agent_store(SIX_RUNS)
        t0 = time.perf_counter()
        mined = mine_modules(store, min_support=0.5, max_len=4)
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.0
        assert [m.name for m in mined] == ["mined_pipeline_search_browse", "mined_ensemble2_reason"]
        assert mined[0].strategy == Pipeline((Single("search"), Single("browse")))
        assert mined[1].strategy == Ensemble(2, Single("reason"), "reason")
        assert mined[0].description == "mined pattern search -> browse (support 0.83)"
        assert mined[1].description == "mined pattern reason -> reason (support 0.67)"

    def test_registered_strategies_suppress_known_patterns(self):
        # the builtin roster already owns pipe(search,browse) and ens(2,reason)
        store = agent_store(SIX_RUNS)
        mined = mine_modules(store, min_support=0.5, max_len=4, registry=catalog_registry("gaia"))
        assert mined == []

    def test_alternating_runs_become_interactive(self):
        store = agent_store([["search", "critic", "search"]] * 2)
        mined = mine_modules(store, min_support=0.5, max_len=4)
        assert mined[0].name == "mined_interactive_search_critic"
        assert mined[0].strategy == Interactive(Single("search"), Single("critic"), 4)
        # the two length-2 windows tie on support x length; str order decides
        assert [m.name for m in mined[1:]] == [
            "mined_pipeline_critic_search",
            "mined_pipeline_search_critic",
        ]

    def test_windows_never_cross_module_steps(self):
        store = TrajectoryStore()
        run = (step("search"), step("ens", kind="module"), step("browse"))
        store.append(StoredTrajectory("a", 0, True, run))
        store.append(StoredTrajectory("b", 0, True, run))
        assert mine_modules(store, min_support=0.5) == []

    def test_failures_carry_no_support(self):
        store = agent_store(SIX_RUNS, success=False)
        assert mine_modules(store, min_support=0.5) == []
        assert mine_modules(TrajectoryStore(), min_support=0.5) == []

    def test_repeats_inside_one_run_count_once(self):
        # search->browse occurs twice in the first run yet supports only 1/2
        store = agent_store([["search", "browse", "search", "browse"], ["critic"]])
        mined = mine_modules(store, min_support=0.5, max_len=2)
        assert [m.name for m in mined] == [
            "mined_pipeline_browse_search",
            "mined_pipeline_search_browse",
        ]
        assert all("support 0.50" in m.description for m in mined)

    def test_parameter_validation(self):
        store = agent_store([["search", "browse"]])
        with pytest.raises(ValueError):
            mine_modules(store, min_support=0.0)
        with pytest.raises(ValueError):
            mine_modules(store, min_support=1.5)
        with pytest.raises(ValueError):
            mine_modules(store, max_len=1)
        assert mine_modules(store, min_support=1.0)  # inclusive upper edge


class ProbesFail:
    """A synthetic world whose sessions fail once ``runs`` have been opened,
    so that every cost probe after self-play's runs fails."""

    def __init__(self, world, runs):
        self.world = world
        self.params = world.params
        self.runs = runs

    def session(self, task_id):
        if self.runs == 0:
            raise BackendUnavailable("no probes")
        self.runs -= 1
        return self.world.session(task_id)


class TestSelfplay:
    def make_backend(self, seed=11, num_tasks=3, **params):
        tasks = synthetic_tasks(seed=seed, num_tasks=num_tasks)
        world = SyntheticWorld(tasks, seed=seed, params=WorldParams(**params))
        return tasks, world

    def run_once(self, seed=11, backend=None):
        """Two rounds on three tasks: six runs, then the cost probes."""
        tasks, world = self.make_backend(seed=seed, p_hit=1.0, p_reason=1.0, p_agg=1.0)
        registry = catalog_registry("gaia")
        store, profile, new_modules = run_selfplay(
            tasks, registry, backend or world, SweepConfig(selfplay_rounds=2), seed
        )
        return registry, store, profile, new_modules

    @staticmethod
    def runs_and_probes(store, runs=6):
        trajectories = store.trajectories()
        executed = {step.action for traj in trajectories[:runs] for step in traj.steps}
        return executed, trajectories[runs:]

    def test_smoke_profiles_every_observed_action(self):
        registry, store, profile, new_modules = self.run_once()
        assert len(store) >= 2 * 3
        seen = {s.action for t in store.trajectories() for s in t.steps}
        assert seen
        assert all(a in profile for a in seen)
        for module in new_modules:
            assert registry.get(module.name) is module
            assert module.id in profile

    def test_an_unexecuted_module_is_priced_at_its_probe(self):
        registry, store, profile, _ = self.run_once()
        executed, probes = self.runs_and_probes(store)
        probed = {traj.steps[0].action: traj.steps[0].cost.dollars for traj in probes}
        unexecuted = [m.id for m in registry.modules() if m.id not in executed]
        assert unexecuted
        for aid in unexecuted:
            assert probed[aid] > 0
            assert profile.entries[aid].mean_dollars == Fraction(probed[aid])
            assert profile.entries[aid].sample_count == 1

    def test_only_unexecuted_actions_are_probed_agents_first(self):
        registry, store, _, _ = self.run_once()
        executed, probes = self.runs_and_probes(store)
        assert all(not t.success and len(t.steps) == 1 and t.round == 1 for t in probes)
        ids = [agent.id for agent in default_roster().values()] + [m.id for m in registry.modules()]
        assert any(m.id in executed for m in registry.modules())
        assert [t.steps[0].action for t in probes] == [a for a in ids if a not in executed]

    def test_a_module_whose_probe_fails_is_unpriced_and_weaver_names_it(self):
        tasks, world = self.make_backend(p_hit=1.0, p_reason=1.0, p_agg=1.0)
        registry, store, profile, _ = self.run_once(backend=ProbesFail(world, runs=6))
        executed, probes = self.runs_and_probes(store)
        assert probes == ()
        unexecuted = [m.id for m in registry.modules() if m.id not in executed]
        assert unexecuted and not any(aid in profile for aid in unexecuted)
        config = RunParams().run_config(Method.WEAVER, Decimal("0.30"))
        result = run_task(tasks[0], config, registry=registry, cost_profile=profile, backend=world, seed=11)
        assert result.error.startswith("MissingCostProfile")
        assert all(str(aid) in result.error for aid in unexecuted)

    def test_replay_is_bit_exact(self):
        _, store_a, profile_a, mods_a = self.run_once(seed=23)
        _, store_b, profile_b, mods_b = self.run_once(seed=23)
        assert store_a.digest() == store_b.digest()
        assert profile_a.entries == profile_b.entries
        assert [m.name for m in mods_a] == [m.name for m in mods_b]

    @pytest.mark.parametrize("catalog", ["gaia", "browse"])
    def test_every_roster_agent_is_priced(self, catalog):
        # This self-play never runs the critic; a cost probe prices it so that
        # a weaver run on the profile can plan.
        tasks = synthetic_tasks(seed=2, num_tasks=6)
        world = SyntheticWorld(tasks, seed=2)
        registry = catalog_registry(catalog)
        store, profile, _ = run_selfplay(tasks, registry, world, SweepConfig(selfplay_rounds=1), 2)
        assert profile.entries[ActionId.agent("critic")].sample_count == 1  # the probe
        assert all(a in profile for a in action_space(default_roster(), registry.modules()))
        config = RunParams().run_config(Method.WEAVER, Decimal("0.30"))
        for task in tasks:
            result = run_task(task, config, registry=registry, cost_profile=profile, backend=world, seed=2)
            assert result.error is None

    def test_unreachable_backend_yields_failed_rows(self):
        class DownBackend:
            def session(self, task_id):
                raise BackendUnavailable("offline")

        tasks = synthetic_tasks(seed=2, num_tasks=2)
        store, profile, new_modules = run_selfplay(
            tasks, ModuleRegistry(), DownBackend(), SweepConfig(selfplay_rounds=2)
        )
        assert len(store) == 4
        assert all(not t.success and t.steps == () for t in store.trajectories())
        assert profile.entries == {}
        assert new_modules == []

    def test_a_crashing_run_is_stored_and_selfplay_goes_on(self):
        tasks, world = self.make_backend(num_tasks=4)

        class CrashingWorld:
            """Every session raises a plain exception on its third worker call."""

            params = world.params

            def session(self, task_id):
                calls = itertools.count(1)
                return FaultySession(
                    world.session(task_id), lambda agent, lane: next(calls) == 3, RuntimeError
                )

        selfplay = SweepConfig(selfplay_rounds=1)
        store, _, _ = run_selfplay(tasks, ModuleRegistry(), CrashingWorld(), selfplay, 11)
        # The same runs again, outside self-play; the round's runs come first in the store.
        config = RunParams().run_config(Method.MODULES_UNAWARE, selfplay.selfplay_budget)
        runs = [
            run_task(task, config, registry=ModuleRegistry(), backend=CrashingWorld(), seed=11)
            for task in tasks
        ]
        crashed = 0
        for run, stored in zip(runs, store.trajectories()):
            assert stored == TrajectoryStore().append_result(run)
            if run.error is not None:
                crashed += 1
                assert run.error == "RuntimeError: provider fault on main"
                assert not stored.success and stored.steps
                assert sum(step.cost.dollars for step in stored.steps) == run.total_cost > 0
        assert crashed > 0

    def test_argument_validation(self):
        tasks, world = self.make_backend()
        with pytest.raises(ValueError):
            run_selfplay(tasks, ModuleRegistry(), world, SweepConfig(selfplay_rounds=0))
        with pytest.raises(ValueError):
            run_selfplay([], ModuleRegistry(), world, SweepConfig())
        with pytest.raises(ValueError):
            run_selfplay(tasks, ModuleRegistry(), None, SweepConfig())

"""Strategy algebra, registry dedup, and the module executor."""

import json
import threading
from collections import Counter

import pytest

from weaver.agents import BackendUnavailable, MalformedUsage, SyntheticWorld, WorldParams, parse_final
from weaver.collab import (
    CollaborationModule,
    Ensemble,
    Interactive,
    MalformedStrategy,
    ModuleExecutor,
    ModuleFailed,
    ModuleRegistry,
    Pipeline,
    Single,
    UnknownAgent,
    builtin_catalog,
    strategy_from_config,
    strategy_to_config,
)
from weaver.core import ActionId, CostLedger
from weaver.orchestrator import default_roster
from weaver.tasks import synthetic_tasks

from test_agents import FaultySession, WireLikeSession, entry, gather_chain


class TestStrategyAlgebra:
    def test_strategies_are_structural_values(self):
        search, browse, reason = Single("search"), Single("browse"), Single("reason")
        equal = [
            (Pipeline([search, browse]), Pipeline((Single("search"), Single("browse")))),
            (Interactive(search, browse), Interactive(search, browse, max_rounds=4)),
            (
                Ensemble(3, Pipeline([Interactive(search, browse), reason]), "reason"),
                Ensemble(3, Pipeline((Interactive(search, browse, 4), reason)), "reason"),
            ),
        ]
        for a, b in equal:
            assert a == b and hash(a) == hash(b)
            assert len({a, b}) == 1
        unequal = [
            (Ensemble(3, search, "reason"), Ensemble(2, search, "reason")),
            (Interactive(search, browse), Interactive(search, browse, max_rounds=3)),
            (Ensemble(3, search, "reason"), Ensemble(3, search, "critic")),
            (Pipeline((search, browse)), Pipeline((browse, search))),
            (Single("search"), Single("browse")),
        ]
        for a, b in unequal:
            assert a != b

    def test_members_are_leaf_closure(self):
        strat = Ensemble(2, Pipeline((Single("search"), Single("browse"))), "reason")
        assert strat.members() == {"search", "browse", "reason"}

    def test_pipeline_needs_two_children(self):
        with pytest.raises(ValueError):
            Pipeline((Single("search"),))

    def test_ensemble_needs_two_branches(self):
        with pytest.raises(ValueError):
            Ensemble(1, Single("search"), "reason")

    def test_interactive_needs_a_round(self):
        with pytest.raises(ValueError):
            Interactive(Single("search"), Single("browse"), max_rounds=0)

    def test_config_roundtrip(self):
        strat = Ensemble(
            3,
            Interactive(Single("search"), Pipeline((Single("browse"), Single("critic")))),
            "reason",
        )
        again = strategy_from_config(strategy_to_config(strat))
        assert again == strat
        module = CollaborationModule("team", strat, "desc")
        assert CollaborationModule.from_config(module.to_config()) == module


SEARCH = {"type": "single", "agent": "search"}


def ensemble_row(**fields):
    return {"type": "ensemble", "n": 2, "child": SEARCH, "aggregator": "reason", **fields}


def interactive_row(**fields):
    return {"type": "interactive", "left": SEARCH, "right": SEARCH, **fields}


class TestFromConfig:
    """Module rows come from hand-edited files and model replies; every defect is one error."""

    @pytest.mark.parametrize(
        "row",
        [
            pytest.param(["team", SEARCH], id="row-not-a-mapping"),
            pytest.param({"name": "team", "strategy": ["single", "search"]}, id="strategy-not-a-mapping"),
            pytest.param({"name": "team"}, id="strategy-missing"),
            pytest.param({"name": "team", "strategy": {"type": "loop", "agent": "search"}}, id="unknown-type"),
            pytest.param({"name": "team", "strategy": {"agent": "search"}}, id="type-missing"),
            pytest.param({"name": "team", "strategy": {"type": "single", "agent": 3}}, id="agent-not-str"),
            pytest.param({"name": "team", "strategy": {"type": "single"}}, id="agent-missing"),
            pytest.param({"name": "team", "strategy": ensemble_row(aggregator=None)}, id="aggregator-not-str"),
            pytest.param({"name": "team", "strategy": SEARCH, "description": 5}, id="description-not-str"),
            pytest.param({"name": "team", "strategy": ensemble_row(n="2")}, id="n-str"),
            pytest.param({"name": "team", "strategy": ensemble_row(n=True)}, id="n-bool"),
            pytest.param({"name": "team", "strategy": ensemble_row(n=2.5)}, id="n-float"),
            pytest.param({"name": "team", "strategy": ensemble_row(n=1)}, id="n-one"),
            pytest.param({"name": "team", "strategy": interactive_row(max_rounds="4")}, id="max_rounds-str"),
            pytest.param({"name": "team", "strategy": interactive_row(max_rounds=True)}, id="max_rounds-bool"),
            pytest.param({"name": "team", "strategy": interactive_row(max_rounds=2.5)}, id="max_rounds-float"),
            pytest.param({"name": "team", "strategy": interactive_row(right=None)}, id="child-missing"),
            pytest.param(
                {"name": "team", "strategy": {"type": "pipeline", "children": SEARCH}}, id="children-not-list"
            ),
            pytest.param(
                {"name": "team", "strategy": {"type": "pipeline", "children": [SEARCH]}}, id="pipeline-one-child"
            ),
            pytest.param({"name": "two words", "strategy": SEARCH}, id="name-not-identifier"),
            pytest.param({"name": "", "strategy": SEARCH}, id="name-empty"),
            pytest.param({"name": 7, "strategy": SEARCH}, id="name-not-str"),
            pytest.param({"strategy": SEARCH}, id="name-missing"),
        ],
    )
    def test_rejects_malformed_rows(self, row):
        with pytest.raises(MalformedStrategy):
            CollaborationModule.from_config(row)


BROWSE = {"type": "single", "agent": "browse"}
REASON = {"type": "single", "agent": "reason"}
CRITIC = {"type": "single", "agent": "critic"}
INTER = {"type": "interactive", "left": SEARCH, "right": BROWSE, "max_rounds": 4}
INTER_CRITIC = {"type": "pipeline", "children": [INTER, CRITIC]}


def catalog_row(name, description, strategy):
    return {"name": name, "description": description, "strategy": strategy}


def ensemble3(child):
    return {"type": "ensemble", "n": 3, "child": child, "aggregator": "reason"}


CATALOG_ROWS = {  # catalog: its modules.json rows, in the order and key order written
    "gaia": [
        catalog_row(
            "interactive_search_and_browse",
            "alternate searching and browsing until the record is complete",
            INTER,
        ),
        catalog_row(
            "search_then_browse",
            "one search followed by one read of the best hit",
            {"type": "pipeline", "children": [SEARCH, BROWSE]},
        ),
        catalog_row("ensemble_search", "three parallel searches merged by an aggregator", ensemble3(SEARCH)),
        catalog_row(
            "two_ensemble_reasoning",
            "two independent reasoning passes, aggregated",
            {"type": "ensemble", "n": 2, "child": REASON, "aggregator": "reason"},
        ),
        catalog_row(
            "three_ensemble_reasoning", "three independent reasoning passes, aggregated", ensemble3(REASON)
        ),
    ],
    "browse": [
        catalog_row(
            "interactive_search", "alternate searching and reading until the record is complete", INTER
        ),
        catalog_row(
            "ensemble_interactive_search", "three interactive search sessions, aggregated", ensemble3(INTER)
        ),
        catalog_row(
            "interactive_search_then_critic",
            "interactive search followed by a critique of coverage",
            INTER_CRITIC,
        ),
        catalog_row(
            "ensemble_interactive_search_then_critic",
            "three critiqued interactive searches, aggregated",
            ensemble3(INTER_CRITIC),
        ),
    ],
}


class TestRegistry:
    def test_register_dedups_by_equal_strategy(self):
        reg = ModuleRegistry(roster=["search", "browse", "reason", "critic"])
        first = reg.register(CollaborationModule("a", Pipeline((Single("search"), Single("browse")))))
        second = reg.register(CollaborationModule("b", Pipeline((Single("search"), Single("browse")))))
        assert second is first
        assert len(reg) == 1

    def test_same_name_different_structure_rejected(self):
        reg = ModuleRegistry(roster=["search", "browse", "reason"])
        reg.register(CollaborationModule("a", Pipeline((Single("search"), Single("browse")))))
        with pytest.raises(ValueError):
            reg.register(CollaborationModule("a", Ensemble(2, Single("reason"), "reason")))

    def test_unknown_member_rejected(self):
        reg = ModuleRegistry(roster=["search"])
        with pytest.raises(UnknownAgent):
            reg.register(CollaborationModule("a", Pipeline((Single("search"), Single("ghost")))))

    def test_builtin_catalogs(self):
        gaia = {m.name for m in builtin_catalog("gaia")}
        assert gaia == {
            "interactive_search_and_browse",
            "search_then_browse",
            "ensemble_search",
            "two_ensemble_reasoning",
            "three_ensemble_reasoning",
        }
        browse = {m.name for m in builtin_catalog("browse")}
        assert browse == {
            "interactive_search",
            "ensemble_interactive_search",
            "interactive_search_then_critic",
            "ensemble_interactive_search_then_critic",
        }
        with pytest.raises(ValueError):
            builtin_catalog("math")

    @pytest.mark.parametrize("catalog", ["gaia", "browse"])
    def test_config_roundtrip_preserves_registry(self, catalog):
        reg = ModuleRegistry(roster=["search", "browse", "reason", "critic"])
        for m in builtin_catalog(catalog):
            reg.register(m)
        again = ModuleRegistry.from_config(reg.to_config(), roster=["search", "browse", "reason", "critic"])
        assert [m.strategy for m in again.modules()] == [m.strategy for m in reg.modules()]

    @pytest.mark.parametrize("catalog", sorted(CATALOG_ROWS))
    def test_catalog_rows_are_pinned(self, catalog):
        reg = ModuleRegistry()
        for m in builtin_catalog(catalog):
            reg.register(m)
        # json.dumps writes keys in insertion order, so this pins modules.json's bytes.
        assert json.dumps(reg.to_config()) == json.dumps(CATALOG_ROWS[catalog])

    def test_strategy_for_an_agent_and_a_module(self):
        reg = ModuleRegistry()
        for m in builtin_catalog("gaia"):
            reg.register(m)
        assert reg.strategy_for(ActionId.agent("critic")) == Single("critic")
        assert reg.strategy_for(ActionId.module("ensemble_search")) == Ensemble(3, Single("search"), "reason")
        with pytest.raises(KeyError):
            reg.strategy_for(ActionId.module("ghost"))

    def test_a_copy_keeps_the_roster_and_grows_on_its_own(self):
        reg = ModuleRegistry(roster=["search", "browse"])
        reg.register(CollaborationModule("a", Pipeline((Single("search"), Single("browse")))))
        copy = reg.copy()
        copy.register(CollaborationModule("b", Interactive(Single("search"), Single("browse"))))
        assert [m.name for m in reg.modules()] == ["a"]
        assert [m.name for m in copy.modules()] == ["a", "b"]
        with pytest.raises(UnknownAgent):
            copy.register(CollaborationModule("c", Pipeline((Single("search"), Single("ghost")))))


def make_executor(seed=0, ledger=None, **params):
    tasks = synthetic_tasks(seed=seed, num_tasks=20)
    world = SyntheticWorld(tasks, seed=seed, params=WorldParams(**params))
    roster = default_roster()
    task = tasks[0]
    session = world.session(task.id)
    ledger = ledger if ledger is not None else CostLedger("1.00")
    return ModuleExecutor(session, roster, ledger=ledger), session, task, tasks, world


class TestExecutor:
    def test_single_produces_one_record(self):
        executor, _, task, _, _ = make_executor()
        output = executor.run(Single("search"), "find the next archive item")
        assert len(executor.ledger.entries) == 1
        assert output.startswith("search results:")

    def test_ensemble_of_three_singles_produces_four_records(self):
        executor, _, _, _, _ = make_executor()
        executor.run(Ensemble(3, Single("search"), "reason"), "find the next archive item")
        assert len(executor.ledger.entries) == 4  # three branches, one aggregation

    def test_pipeline_chains_scratch(self):
        executor, _, task, _, _ = make_executor(p_hit=1.0)
        output = executor.run(
            Pipeline((Single("search"), Single("browse"))), "find the next archive item"
        )
        assert len(executor.ledger.entries) == 2
        assert f"d{task.chain[0]:04d}" in output

    def test_interactive_stops_early_on_done(self):
        executor, _, task, tasks, world = make_executor(p_hit=1.0)
        lookup = next(t for t in tasks if t.meta["kind"] == "lookup")
        session = world.session(lookup.id)
        ledger = CostLedger("1.00")
        executor = ModuleExecutor(session, default_roster(), ledger)
        output = executor.run(
            Interactive(Single("search"), Single("browse"), max_rounds=4),
            "work the case",
        )
        assert output.startswith("[[done]]")
        assert len(ledger.entries) == 2 * len(lookup.chain)

    def test_interactive_respects_max_rounds(self):
        executor, _, _, _, _ = make_executor(p_hit=0.0)
        executor.run(Interactive(Single("search"), Single("browse"), max_rounds=2), "work the case")
        assert len(executor.ledger.entries) == 4  # 2 rounds x (search + browse), no done

    def test_ledger_charged_exactly_once_per_record(self):
        ledger = CostLedger("1.00")
        _, session, _, _, _ = make_executor()
        billing = FaultySession(session, lambda agent, lane: False)
        ModuleExecutor(billing, default_roster(), ledger).run(Ensemble(3, Single("search"), "reason"), "find")
        assert len(billing.billed) == 4
        assert Counter(ledger.entries) == Counter(billing.billed)
        assert ledger.total() == sum(record.dollars for record in billing.billed)

    def test_unknown_agent_fails_fast(self):
        executor, _, _, _, _ = make_executor()
        with pytest.raises(UnknownAgent):
            executor.run(Single("ghost"), "do something")

    def test_all_branches_failing_is_module_failure_and_costs_nothing(self):
        ledger = CostLedger("1.00")
        executor, _, _, _, _ = make_executor(ledger=ledger)
        with pytest.raises(ModuleFailed):
            executor.run(Ensemble(2, Single("browse"), "reason"), "read d9999")  # UnknownDocument
        assert ledger.total() == 0

    def test_a_branch_that_is_no_soft_failure_ends_the_ensemble(self):
        ledger = CostLedger("1.00")
        executor, _, _, _, _ = make_executor(ledger=ledger)
        with pytest.raises(UnknownAgent):
            executor.run(Ensemble(2, Single("ghost"), "reason"), "do something")
        assert ledger.total() == 0

    def test_ensemble_output_is_schedule_independent(self):
        # A session that blocks on I/O runs the branches on threads, with the
        # same output and records as the inline path.
        strategy = Ensemble(3, Interactive(Single("search"), Single("browse")), "reason")
        tasks = synthetic_tasks(seed=6, num_tasks=5)

        def run(session):
            ledger = CostLedger("1.00")
            return ModuleExecutor(session, default_roster(), ledger).run(strategy, "find"), ledger

        inline, inline_ledger = run(SyntheticWorld(tasks, seed=6).session(tasks[0].id))
        wire = WireLikeSession(SyntheticWorld(tasks, seed=6).session(tasks[0].id))
        threaded, threaded_ledger = run(wire)
        assert threaded == inline
        assert threaded_ledger.entries == inline_ledger.entries
        assert wire.overlap.peak >= 2

    @pytest.mark.parametrize("fault", [BackendUnavailable, MalformedUsage, RuntimeError])
    @pytest.mark.parametrize("wire_like", [False, True], ids=["inline", "threaded"])
    def test_branch_fault_propagates_with_the_billed_calls_charged(self, fault, wire_like):
        ledger = CostLedger("1.00")
        tasks = synthetic_tasks(seed=0, num_tasks=5)
        world = SyntheticWorld(tasks, seed=0, params=WorldParams())
        in_flight = threading.Barrier(3, timeout=10)

        def fails(agent, lane):
            if wire_like:
                in_flight.wait()  # all three branches have started
            return lane.endswith("/e1")

        flaky = FaultySession(world.session(tasks[0].id), fails, fault)
        session = WireLikeSession(flaky) if wire_like else flaky
        executor = ModuleExecutor(session, default_roster(), ledger=ledger)
        with pytest.raises(fault, match="main/e1"):
            executor.run(Ensemble(3, Single("search"), "reason"), "find")
        # Inline, e2 never starts; on threads it was in flight and is billed.
        assert len(flaky.billed) == (2 if wire_like else 1)
        assert Counter(ledger.entries) == Counter(flaky.billed)

    def test_pipeline_fault_keeps_the_calls_that_returned(self):
        ledger = CostLedger("1.00")
        tasks = synthetic_tasks(seed=0, num_tasks=5)
        world = SyntheticWorld(tasks, seed=0, params=WorldParams())
        flaky = FaultySession(world.session(tasks[0].id), lambda agent, lane: agent == "browse")
        executor = ModuleExecutor(flaky, default_roster(), ledger=ledger)
        with pytest.raises(BackendUnavailable):
            executor.run(Pipeline((Single("search"), Single("browse"))), "find")
        assert len(flaky.billed) == 1
        assert ledger.entries == tuple(flaky.billed)


class TestEnsembleLift:
    def test_three_way_reasoning_lift_matches_independence(self):
        """P(module correct) = 1 - (1 - p)^3 when aggregation never drops answers."""
        p_reason = 0.5
        tasks = synthetic_tasks(seed=21, num_tasks=40)
        world = SyntheticWorld(
            tasks, seed=21, params=WorldParams(p_hit=1.0, p_reason=p_reason, p_agg=1.0)
        )
        roster = default_roster()
        synth = [t for t in tasks if t.meta["kind"] == "synthesis"][:20]
        wins = trials = 0
        for task in synth:
            session = world.session(task.id)
            history = gather_chain(session, task, roster)
            executor = ModuleExecutor(session, roster, CostLedger("100.00"))
            for rep in range(25):
                output = executor.run(
                    Ensemble(3, Single("reason"), "reason"),
                    "derive the conclusion",
                    context=history,
                    lane=f"mc{rep}",
                )
                trials += 1
                wins += parse_final(output) == task.answer
        rate = wins / trials
        expected = 1 - (1 - p_reason) ** 3  # 0.875
        assert abs(rate - expected) < 0.05, rate

"""Stage inference, conditioning, and determinism of the rule policy."""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from decimal import Decimal
from fractions import Fraction

import numpy as np

from weaver import policy as policy_module
from weaver.agents import SyntheticWorld
from weaver.collab import ModuleRegistry, builtin_catalog
from weaver.core import (
    MICRO,
    Action,
    ActionCosts,
    ActionId,
    ActionKind,
    CostProfile,
    FINISH,
    HistoryEntry,
    ProfileEntry,
    sum_records,
)
from weaver.policy import (
    DAMPING,
    DEFAULT_BOOST,
    DONE,
    GATHER,
    SYNTH,
    UNKNOWN_ANSWER,
    RulePolicy,
    best_effort_answer,
)
from weaver.orchestrator import Method, RunConfig, action_space, default_roster, run_task
from weaver.streams import _key64
from weaver.tasks import synthetic_tasks

SPACE = [
    ActionId.agent("search"),
    ActionId.agent("browse"),
    ActionId.agent("reason"),
    ActionId.agent("critic"),
    ActionId.module("search_then_browse"),
    ActionId.module("two_ensemble_reasoning"),
]


def entry(step, name, output, kind=ActionKind.AGENT):
    return HistoryEntry(
        step=step,
        action=Action(ActionId(kind, name), "x"),
        output=output,
        cost=sum_records([]),
    )


def policy(**kwargs):
    return RulePolicy(seed=3, task_id="t0001", action_space=SPACE, **kwargs)


class TestStage:
    def test_initial_stage_is_gather(self):
        assert policy().stage([]) == (GATHER, None)

    def test_record_complete_moves_to_synth(self):
        history = [entry(0, "browse", "[[done]] [doc d0007] record complete: encoded as cipher 'xyz'.")]
        assert policy().stage(history) == (SYNTH, None)

    def test_token_line_is_done_with_answer(self):
        history = [
            entry(0, "browse", "[[done]] [doc d0007] record complete: the conclusion token is 'amber-fox'.")
        ]
        assert policy().stage(history) == (DONE, "amber-fox")

    def test_final_mark_is_done_with_answer(self):
        history = [entry(0, "reason", "[[done]] FINAL: amber-fox")]
        assert policy().stage(history) == (DONE, "amber-fox")

    def test_unmarked_final_is_not_done(self):
        # premature reasoner guesses lack the done mark and must not end the run
        history = [entry(0, "reason", "FINAL: guess-1234 (evidence incomplete)")]
        stage, answer = policy().stage(history)
        assert stage == GATHER
        assert answer is None

    def test_best_effort_falls_back_to_any_final_then_unknown(self):
        assert best_effort_answer([]) == UNKNOWN_ANSWER
        history = [entry(0, "reason", "FINAL: guess-1234 (evidence incomplete)")]
        assert best_effort_answer(history) == "guess-1234"


class TestWeights:
    def test_finish_dominates_once_done(self):
        history = [entry(0, "reason", "[[done]] FINAL: x")]
        weights = policy().weights(history)
        assert weights[FINISH] == max(weights.values())

    def test_reason_paths_dominate_in_synth(self):
        history = [entry(0, "browse", "record complete: encoded as cipher 'zyx'.")]
        weights = policy().weights(history)
        top = max(weights, key=weights.get)
        assert "reason" in top.name

    def test_budget_damping_suppresses_unaffordable_actions(self):
        profile = CostProfile(
            {
                ActionId.module("two_ensemble_reasoning"): ProfileEntry(Fraction(5, 100), 3),
                ActionId.agent("reason"): ProfileEntry(Fraction(1, 100), 3),
            }
        )
        p = policy(costs=ActionCosts(profile, SPACE))
        history = [entry(0, "browse", "record complete: encoded as cipher 'zyx'.")]
        rich = p.weights(history, remaining=Decimal("1.00"))
        poor = p.weights(history, remaining=Decimal("0.02"))
        mod = ActionId.module("two_ensemble_reasoning")
        assert poor[mod] == rich[mod] * DAMPING
        assert poor[ActionId.agent("reason")] == rich[ActionId.agent("reason")]

    def test_no_profile_means_no_damping(self):
        p = policy()
        history = []
        assert p.weights(history, remaining="0.000001") == p.weights(history)
        # Sampling too: a profile-less policy's draws never read the budget.
        draws = {}
        for remaining in (None, "0.000001", "0.05", "100"):
            q = policy()
            draws[remaining] = []
            for _ in range(6):
                draws[remaining].append([a.id for a in q.sample(3, history, remaining=remaining)])
                assert q.floor(remaining) == 0
        assert all(drawn == draws[None] for drawn in draws.values())

    def test_carried_frequencies_boost_weights(self):
        p = policy()
        freq = {ActionId.agent("search"): Fraction(1, 2)}
        plain = p.weights([], None, None)
        boosted = p.weights([], None, freq)
        aid = ActionId.agent("search")
        assert boosted[aid] == plain[aid] * (1 + DEFAULT_BOOST * 0.5)
        assert boosted[ActionId.agent("critic")] == plain[ActionId.agent("critic")]


class TestThresholdTest:
    """The damping test and the floor read one ``ActionCosts`` table, whose
    integer cap is pinned here with means over awkward denominators."""

    MEANS = {
        ActionId.agent("search"): Fraction(3, 1000),
        ActionId.agent("browse"): Fraction(1, 7),
        ActionId.agent("reason"): Fraction(1, 3),
        ActionId.module("two_ensemble_reasoning"): Fraction(1, 7),
    }
    HISTORIES = ([], [entry(0, "browse", "record complete: encoded as cipher 'zyx'.")])

    def profile(self) -> CostProfile:
        return CostProfile({aid: ProfileEntry(mean, 2) for aid, mean in self.MEANS.items()})

    def budgets(self) -> list[Decimal]:
        """Micro-dollar budgets one micro-dollar either side of each mean,
        and at its nearest micro-dollar."""
        out = []
        for mean in self.MEANS.values():
            near = Decimal(mean.numerator) / Decimal(mean.denominator)
            near = near.quantize(MICRO)
            out += [near - MICRO, near, near + MICRO]
        return out

    def test_table_over_the_space(self):
        costs = ActionCosts(self.profile(), SPACE)
        assert costs.denominator == 21_000
        assert costs.units == {
            ActionId.agent("search"): 63,
            ActionId.agent("browse"): 3_000,
            ActionId.agent("reason"): 7_000,
            ActionId.module("two_ensemble_reasoning"): 3_000,
        }
        # A priced action outside the space takes no part.
        outside = CostProfile({**self.profile().entries, FINISH: ProfileEntry(Fraction(1, 11), 1)})
        assert ActionCosts(outside, SPACE).units == costs.units
        assert ActionCosts(CostProfile(), SPACE).units == {}
        assert ActionCosts(CostProfile(), SPACE).floor(Decimal("5")) == 0

    def test_cap_follows_alternating_budgets(self):
        # A budget asked twice in a row, one asked again after others, and
        # equal values of other types (Fraction, int, a Decimal with a
        # trailing zero) must all give the formula's cap.
        costs = ActionCosts(self.profile(), SPACE)
        budgets = self.budgets()
        asked = budgets + budgets[::-1] + [b for b in budgets for _ in (0, 1)]
        asked += [Fraction(1, 7), Decimal("0.5"), Decimal("0.50"), Fraction(1, 2), 3, Decimal(3)]
        for remaining in asked:
            budget = Fraction(remaining)
            assert costs.cap(remaining) == budget.numerator * costs.denominator // budget.denominator, remaining

    def test_damped_exactly_when_the_mean_exceeds_remaining(self):
        costs = ActionCosts(self.profile(), SPACE)
        p = policy(costs=costs)
        checked = 0
        for history in self.HISTORIES:
            base = policy().weights(history)
            for remaining in self.budgets():
                weights = p.weights(history, remaining)
                for aid in p.space:
                    over = aid in self.MEANS and self.MEANS[aid] > remaining
                    assert weights[aid] == (base[aid] * DAMPING if over else base[aid]), (aid, remaining)
                    if aid in self.MEANS:
                        assert (costs.units[aid] > costs.cap(remaining)) == over
                        checked += over
        assert checked > 0
        # A mean equal to the remaining budget fits.
        at = p.weights([], Fraction(1, 7))
        assert at[ActionId.agent("browse")] == policy().weights([])[ActionId.agent("browse")]

    def test_floor_is_the_largest_mean_within_remaining(self):
        p = policy(costs=ActionCosts(self.profile(), SPACE))
        budgets = self.budgets() + [Decimal("0.000001"), Decimal("0.002"), Decimal("7")]
        floors = {}
        for remaining in budgets:
            want = max([m for m in self.MEANS.values() if m <= remaining], default=Fraction(0))
            floors[remaining] = p.floor(remaining)
            assert floors[remaining] == want, remaining
        assert p.floor(None) == 0 and policy().floor(Decimal("7")) == 0
        # Weighing or drawing at other budgets leaves every floor as it was.
        for other in (Decimal("0.000001"), Decimal("0.2"), Decimal("100"), None):
            p.weights(self.HISTORIES[1], other)
            p.sample(3, self.HISTORIES[0], remaining=other)
            assert {r: p.floor(r) for r in budgets} == floors

    def test_scaling_profile_and_remaining_together(self):
        profile = self.profile()
        for factor in (Fraction(7, 3), Fraction(1, 1000), Fraction(13)):
            plain = policy(costs=ActionCosts(profile, SPACE))
            scaled = policy(costs=ActionCosts(profile.scaled(factor), SPACE))
            for remaining in self.budgets():
                moved = Fraction(remaining) * factor
                for history in self.HISTORIES:
                    assert scaled.weights(history, moved) == plain.weights(history, remaining)
                    assert scaled.sample(3, history, moved) == plain.sample(3, history, remaining)
                assert scaled.floor(moved) == plain.floor(remaining) * factor


class TestSampling:
    def test_same_seed_same_purpose_replays(self):
        a = policy()
        b = policy()
        draws_a = [tuple(x.id for x in a.sample(3, [])) for _ in range(5)]
        draws_b = [tuple(x.id for x in b.sample(3, [])) for _ in range(5)]
        assert draws_a == draws_b

    def test_purpose_key_separates_streams(self):
        a = policy()
        b = policy(purpose="speculate")
        seq_a = [tuple(x.id for x in a.sample(3, [])) for _ in range(8)]
        seq_b = [tuple(x.id for x in b.sample(3, [])) for _ in range(8)]
        assert seq_a != seq_b

    def test_ordinal_advances_the_stream(self):
        p = policy()
        seqs = [tuple(x.id for x in p.sample(3, [])) for _ in range(10)]
        assert p._ordinal == 10
        assert len(set(seqs)) > 1  # successive calls draw from fresh streams

    def test_draws_are_generator_choice_on_the_keyed_stream(self):
        profile = CostProfile({aid: ProfileEntry(Fraction(i + 1, 300), 1) for i, aid in enumerate(SPACE)})
        histories = [[], [entry(0, "search", "search results: d0001, d0002")]]
        carried = {SPACE[1]: Fraction(2, 3), SPACE[4]: Fraction(1, 3)}
        p = policy(costs=ActionCosts(profile, SPACE))
        for ordinal in range(40):
            history = histories[ordinal % 2]
            remaining = Fraction(ordinal, 1000) if ordinal % 3 else None
            freq = carried if ordinal % 4 == 1 else None
            k = ordinal % 5 + 1
            weights = p.weights(history, remaining, freq)
            probs = np.array(list(weights.values()))
            rng = np.random.default_rng([3, _key64("t0001"), _key64("policy"), ordinal])
            want = [list(weights)[i] for i in rng.choice(len(weights), size=k, p=probs / probs.sum())]
            assert [a.id for a in p.sample(k, history, remaining, freq)] == want

    def test_finish_payload_carries_answer(self):
        p = policy()
        history = [entry(0, "reason", "[[done]] FINAL: amber-fox")]
        for _ in range(20):
            actions = p.sample(1, history)
            if actions[0].id is FINISH or actions[0].id == FINISH:
                assert actions[0].subtask == "amber-fox"
                return
        raise AssertionError("finish never sampled in the done stage")

    def test_gather_prefers_browse_with_unread_head(self):
        p = policy()
        history = [entry(0, "search", "search results: d0001, d0002")]
        weights = p.weights(history)
        assert weights[ActionId.agent("browse")] > weights[ActionId.agent("search")]

    def test_gather_prefers_fresh_search_after_head_was_read(self):
        p = policy()
        history = [
            entry(0, "search", "search results: d0001, d0002"),
            entry(1, "browse", "[doc d0001] routine filing"),
        ]
        weights = p.weights(history)
        assert weights[ActionId.agent("search")] > weights[ActionId.agent("browse")]


def choice_draws(p, k, history, remaining, freq, ordinal):
    """What ``Generator.choice`` draws on the call's keyed stream."""
    weights = p.weights(history, remaining, freq)
    probs = np.array(list(weights.values()))
    rng = np.random.default_rng([3, _key64("t0001"), _key64(p.purpose), ordinal])
    return [list(weights)[i] for i in rng.choice(len(weights), size=k, p=probs / probs.sum())]


def cached_cdfs():
    return sum(len(rows) for rows in policy_module._BLIND.values())


class TestCdfCache:
    HISTORIES = [
        [],
        [entry(0, "search", "search results: d0001, d0002")],
        [entry(0, "browse", "[[done]] [doc d0007] record complete: encoded as cipher 'xyz'.")],
        [entry(0, "reason", "[[done]] FINAL: amber-fox")],
    ]

    def test_hits_across_policies_are_generator_choice(self):
        profile = CostProfile({aid: ProfileEntry(Fraction(i + 1, 300), 1) for i, aid in enumerate(SPACE)})
        costs = ActionCosts(profile, SPACE)
        conditions = [(h, r) for h in self.HISTORIES for r in (None, Fraction(1, 1000), Fraction(3, 300))]
        first = policy(costs=costs)
        for history, remaining in conditions:  # fills the caches
            first.sample(2, history, remaining)
        filled = cached_cdfs()
        second = policy(costs=costs)  # a new policy over the same space hits them
        for ordinal, (history, remaining) in enumerate(conditions * 2):
            k = ordinal % 4 + 1
            want = choice_draws(second, k, history, remaining, None, ordinal)
            assert [a.id for a in second.sample(k, history, remaining)] == want
        assert cached_cdfs() == filled
        assert tuple(SPACE) + (FINISH,) in policy_module._BLIND

    def test_weaver_steps_that_carry_plans_cache_nothing(self, monkeypatch):
        tasks = synthetic_tasks(seed=13, num_tasks=4)
        roster = default_roster()
        registry = ModuleRegistry(roster=list(roster))
        for module in builtin_catalog("gaia"):
            registry.register(module)
        space = action_space(roster, registry.modules())
        profile = CostProfile({aid: ProfileEntry(Fraction(2, 100), 2) for aid in space})
        sample = RulePolicy.sample
        carried_steps = []

        def watched(self, k, history, remaining=None, carried_freq=None):
            before = cached_cdfs()
            out = sample(self, k, history, remaining, carried_freq)
            if carried_freq:
                carried_steps.append((before, cached_cdfs()))
            return out

        monkeypatch.setattr(RulePolicy, "sample", watched)
        world = SyntheticWorld(tasks, seed=13)
        for task in tasks:
            for budget in ("0.10", "0.40"):
                config = RunConfig(method=Method.WEAVER, budget=Decimal(budget))
                run_task(task, config, registry=registry, cost_profile=profile, backend=world, seed=13)
        assert len(carried_steps) > 10
        assert all(before == after for before, after in carried_steps)

    def test_threads_filling_the_caches_draw_what_choice_draws(self):
        # A space no other test uses, so the threads race to fill its entries.
        space = SPACE + [ActionId.module("race_only")]
        profile = CostProfile({aid: ProfileEntry(Fraction(i + 1, 500), 1) for i, aid in enumerate(space)})
        costs = ActionCosts(profile, space)
        conditions = [(h, r) for h in self.HISTORIES for r in (None, Fraction(1, 250), Fraction(1, 80))]
        workers = 4
        barrier = threading.Barrier(workers)

        def draws(p):
            return [[a.id for a in p.sample(2, h, r)] for h, r in conditions]

        def work(_):
            p = RulePolicy(seed=3, task_id="t0001", action_space=space, costs=costs)
            barrier.wait(timeout=10)
            return draws(p)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                futures = [pool.submit(work, w) for w in range(workers)]
                got = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        reference = RulePolicy(seed=3, task_id="t0001", action_space=space, costs=costs)
        want = [
            choice_draws(reference, 2, h, r, None, ordinal) for ordinal, (h, r) in enumerate(conditions)
        ]
        assert got == [want] * workers

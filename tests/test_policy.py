"""Stage inference, conditioning, and determinism of the rule policy."""

from fractions import Fraction

import numpy as np

from weaver.core import (
    Action,
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
from weaver.streams import _key64

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
        p = policy(profile=profile)
        history = [entry(0, "browse", "record complete: encoded as cipher 'zyx'.")]
        rich = p.weights(history, remaining="1.00")
        poor = p.weights(history, remaining="0.02")
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
                assert q.floor == 0
        assert all(drawn == draws[None] for drawn in draws.values())

    def test_carried_frequencies_boost_weights(self):
        p = policy()
        freq = {ActionId.agent("search"): Fraction(1, 2)}
        plain = p.weights([], None, None)
        boosted = p.weights([], None, freq)
        aid = ActionId.agent("search")
        assert boosted[aid] == plain[aid] * (1 + DEFAULT_BOOST * 0.5)
        assert boosted[ActionId.agent("critic")] == plain[ActionId.agent("critic")]


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
        p = policy(profile=profile)
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

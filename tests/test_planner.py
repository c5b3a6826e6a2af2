"""Oracle checks for the two-horizon planner.

The gain functions are recomputed here with independent brute-force loops
over the raw rollout data, then compared against the planner's exact
rational outputs. Randomized instances cover K in 1..8.
"""

import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from weaver.core import Action, ActionCosts, ActionId, CostProfile, FINISH, HistoryEntry, ProfileEntry, sum_records
from weaver.planner import (
    DEFAULT_DEPTH_LIMIT,
    DEFAULT_N_ROLLOUTS,
    FeasibleSet,
    MissingCostProfile,
    PlanCosts,
    PolicyFailure,
    SpeculativeTrajectory,
    TransitionPrior,
    cost_trajectory,
    filter_feasible,
    long_term_gain,
    plan_step,
    render_carried,
    sample_candidates,
    select_action,
    short_term_gain,
    speculate,
)
from weaver.policy import RulePolicy
from weaver.streams import SeedStream

AGENTS = [ActionId.agent(n) for n in ("search", "browse", "reason", "critic")]
MODULES = [ActionId.module(n) for n in ("team_a", "team_b", "team_c")]
VOCAB = AGENTS + MODULES


def random_profile(rng) -> CostProfile:
    entries = {}
    for aid in VOCAB + [FINISH]:
        micros = int(rng.integers(100, 50_000))
        entries[aid] = ProfileEntry(Fraction(micros, 10**6), int(rng.integers(1, 9)))
    return CostProfile(entries)


def random_counts(rng) -> dict[tuple[ActionId, ActionId], int]:
    counts = {}
    for a in VOCAB + [FINISH]:
        for b in VOCAB + [FINISH]:
            if rng.random() < 0.3:
                counts[(a, b)] = int(rng.integers(1, 6))
    return counts


def random_prior(rng) -> TransitionPrior:
    return TransitionPrior(VOCAB, random_counts(rng))


def plan_costs(profile, prior) -> PlanCosts:
    """``PlanCosts`` as a run builds it: from a table over the prior's vocabulary."""
    return PlanCosts(ActionCosts(profile, prior.vocabulary), prior)


def reference_rollout(prior, start, rng, depth_limit):
    """Rollout drawn from the exact distribution with ``Generator.choice``."""
    actions = [start]
    while actions[-1] != FINISH and len(actions) < depth_limit:
        dist = prior.next_distribution(actions[-1])
        ids = list(dist)
        probs = np.array([float(p) for p in dist.values()])
        probs = probs / probs.sum()
        actions.append(ids[int(rng.choice(len(ids), p=probs))])
    return tuple(actions)


def random_instance(rng, k=None):
    """One planner decision problem: candidates, rollouts, and a budget."""
    k = k or int(rng.integers(1, 9))
    prior = random_prior(rng)
    profile = random_profile(rng)
    picks = rng.integers(0, len(VOCAB), size=k)
    candidates = tuple(Action(VOCAB[int(i)], "work") for i in picks)
    remaining = Decimal(int(rng.integers(1_000, 120_000))) / Decimal(10**6)
    seed = int(rng.integers(0, 2**32))
    costs = plan_costs(profile, prior)
    buckets = []
    for i, cand in enumerate(candidates):
        rollouts = speculate(cand, costs, n_rollouts=4, depth_limit=5, seed=[seed, i])
        buckets.append(rollouts)
    return candidates, buckets, remaining, profile, seed


class TestTransitionPrior:
    def test_empty_counts_is_uniform(self):
        prior = TransitionPrior(VOCAB)
        dist = prior.next_distribution(AGENTS[0])
        assert len(dist) == len(VOCAB) + 1  # vocabulary plus finish
        assert set(dist.values()) == {Fraction(1, len(VOCAB) + 1)}

    def test_additive_smoothing_exact(self):
        a, b = AGENTS[0], AGENTS[1]
        prior = TransitionPrior([a, b], counts={(a, b): 3})
        dist = prior.next_distribution(a)
        assert dist[b] == Fraction(4, 6)
        assert dist[a] == Fraction(1, 6)
        assert dist[FINISH] == Fraction(1, 6)

    def test_distribution_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        prior = random_prior(rng)
        for aid in prior.vocabulary:
            assert sum(prior.next_distribution(aid).values()) == 1

    def test_from_sequences_ignores_unknown_ids(self):
        ghost = ActionId.agent("ghost")
        seqs = [[AGENTS[0], ghost, AGENTS[1]], [AGENTS[0], AGENTS[1]]]
        prior = TransitionPrior.from_sequences(seqs, [AGENTS[0], AGENTS[1]])
        # only the (search -> browse) transition was countable
        assert prior.next_distribution(AGENTS[0])[AGENTS[1]] == Fraction(2, 4)

    def test_rollout_stops_at_finish_and_depth(self):
        prior = TransitionPrior(VOCAB)
        rng = np.random.default_rng(5)
        for _ in range(50):
            roll = prior.sample_rollout(AGENTS[0], rng, depth_limit=4)
            assert 1 <= len(roll) <= 4
            assert FINISH not in roll[:-1]

    def test_rollout_replays_bit_exact(self):
        prior = TransitionPrior(VOCAB)
        a = prior.sample_rollout(AGENTS[0], np.random.default_rng(99), depth_limit=6)
        b = prior.sample_rollout(AGENTS[0], np.random.default_rng(99), depth_limit=6)
        assert a == b

    def test_rollouts_match_reference_choice_loop_draw_for_draw(self):
        ghost = ActionId.agent("ghost")
        for s in range(60):
            counts = random_counts(np.random.default_rng(s))
            # a start outside the vocabulary, with and without counts of its own
            with_ghost = TransitionPrior(VOCAB, {**counts, (ghost, AGENTS[1]): 7})
            for prior in (TransitionPrior(VOCAB, counts), with_ghost):
                for start in (VOCAB[s % len(VOCAB)], FINISH, ghost):
                    got_rng = np.random.default_rng([s, 1])
                    want_rng = np.random.default_rng([s, 1])
                    for depth in range(1, 7):
                        got = prior.sample_rollout(start, got_rng, depth)
                        assert got == reference_rollout(prior, start, want_rng, depth)
                    assert got_rng.random() == want_rng.random()

    def test_shared_prior_gives_serial_results_across_threads(self):
        # Mirrors run_cell: one prior per seed, first used by several workers at once.
        profile = random_profile(np.random.default_rng(22))
        jobs = [(VOCAB[j], [s, j]) for s in range(4) for j in range(len(VOCAB))]
        workers = 4
        barrier = threading.Barrier(workers)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for round_seed in range(100):
                serial = random_prior(np.random.default_rng(round_seed))
                serial_costs = plan_costs(profile, serial)
                expected = [speculate(start, serial_costs, seed=seed) for start, seed in jobs]
                shared = random_prior(np.random.default_rng(round_seed))

                def work(offset):
                    costs = plan_costs(profile, shared)  # one per run, as in _Run
                    barrier.wait(timeout=10)
                    return [
                        speculate(start, costs, seed=seed)
                        for start, seed in jobs[offset::workers]
                    ]

                with ThreadPoolExecutor(max_workers=workers) as pool:
                    futures = [pool.submit(work, w) for w in range(workers)]
                    parts = [f.result(timeout=60) for f in futures]
                got = [None] * len(jobs)
                for offset, part in enumerate(parts):
                    got[offset::workers] = part
                assert got == expected
        finally:
            sys.setswitchinterval(interval)


class TestGainOracles:
    def test_short_and_long_gains_match_brute_force_over_random_instances(self):
        rng = np.random.default_rng(2024)
        start = time.monotonic()
        for trial in range(1000):
            k = trial % 8 + 1
            candidates, buckets, remaining, profile, _ = random_instance(rng, k=k)

            g = short_term_gain(candidates)
            ids = [c.id for c in candidates]
            for i in range(k):
                matches = sum(1 for j in range(k) if ids[j] == ids[i])
                assert g[i] == Fraction(matches, k)

            feasible = FeasibleSet(
                tuple(tuple(filter_feasible(b, remaining)) for b in buckets)
            )
            h = long_term_gain(feasible.counts())

            bound = Fraction(remaining)
            oracle_counts = []
            for bucket in buckets:
                n_ok = 0
                for traj in bucket:
                    total = Fraction(0)
                    for aid in traj.actions:
                        total += profile.mean(aid)
                    assert total == traj.estimated_cost
                    if total <= bound:
                        n_ok += 1
                oracle_counts.append(n_ok)
            denom = sum(oracle_counts)
            if denom == 0:
                assert h == [Fraction(1, k)] * k
            else:
                assert h == [Fraction(c, denom) for c in oracle_counts]
            assert abs(float(sum(h)) - 1.0) <= 1e-9
        elapsed = time.monotonic() - start
        assert elapsed < 5.0, f"oracle sweep took {elapsed:.2f}s"

    def test_uniform_fallback_when_nothing_is_feasible(self):
        h = long_term_gain([0, 0, 0])
        assert h == [Fraction(1, 3)] * 3

    def test_boundary_cost_is_feasible(self):
        traj = SpeculativeTrajectory((AGENTS[0],), Fraction(25, 1000))
        assert filter_feasible([traj], Decimal("0.025")) == [traj]
        assert filter_feasible([traj], Decimal("0.024999")) == []


class TestFeasibleSet:
    def test_union_dedups_preserving_order(self):
        t1 = SpeculativeTrajectory((AGENTS[0], FINISH), Fraction(1, 100))
        t2 = SpeculativeTrajectory((AGENTS[1], FINISH), Fraction(2, 100))
        fs = FeasibleSet(((t1, t2), (t2, t1)))
        assert fs.union() == (t1, t2)

    def test_action_frequencies_over_distinct_trajectories(self):
        t1 = SpeculativeTrajectory((AGENTS[0], AGENTS[1], FINISH), Fraction(1))
        t2 = SpeculativeTrajectory((AGENTS[0], FINISH), Fraction(2))
        fs = FeasibleSet(((t1,), (t2,)))
        freq = fs.action_frequencies()
        assert freq[AGENTS[0]] == Fraction(2, 2)
        assert freq[AGENTS[1]] == Fraction(1, 2)
        assert freq[FINISH] == Fraction(2, 2)

    def test_empty_has_no_frequencies(self):
        assert FeasibleSet().action_frequencies() == {}


class TestRenderCarried:
    def test_orders_by_estimated_cost_then_path(self):
        search, browse = AGENTS[0], AGENTS[1]
        dear = SpeculativeTrajectory((search, FINISH), Fraction(3, 100))
        cheap_s = SpeculativeTrajectory((search, browse, FINISH), Fraction(1, 100))
        cheap_b = SpeculativeTrajectory((browse, FINISH), Fraction(1, 100))
        text = render_carried(FeasibleSet(((dear, cheap_s), (cheap_b,))))
        assert text.splitlines() == [
            "feasible plans:",
            f"agent:browse -> {FINISH} (est $0.0100)",
            f"agent:search -> agent:browse -> {FINISH} (est $0.0100)",
            f"agent:search -> {FINISH} (est $0.0300)",
        ]

    def test_nothing_carried(self):
        assert render_carried(FeasibleSet()) == "no feasible plans carried"
        assert render_carried(FeasibleSet(((), ()))) == "no feasible plans carried"

    def test_repeat_calls_are_identical(self):
        t1 = SpeculativeTrajectory((AGENTS[2], FINISH), Fraction(7, 1000))
        t2 = SpeculativeTrajectory((AGENTS[3], AGENTS[2], FINISH), Fraction(1, 1000))
        feasible = FeasibleSet(((t1, t2), (t2,)))
        assert render_carried(feasible) == render_carried(feasible)


class TestSelection:
    def _profile(self, means):
        return CostProfile(
            {aid: ProfileEntry(Fraction(m, 1000), 1) for aid, m in means.items()}
        )

    def test_argmax_of_f(self):
        a, b = Action(AGENTS[0], "x"), Action(AGENTS[1], "y")
        profile = self._profile({AGENTS[0]: 5, AGENTS[1]: 5})
        action, _ = select_action(
            [a, b], [Fraction(1, 2), Fraction(1, 2)], [Fraction(1, 4), Fraction(3, 4)], profile
        )
        assert action is b

    def test_tie_goes_to_cheaper_mean(self):
        a, b = Action(AGENTS[0], "x"), Action(AGENTS[1], "y")
        profile = self._profile({AGENTS[0]: 9, AGENTS[1]: 3})
        action, _ = select_action(
            [a, b], [Fraction(1, 2)] * 2, [Fraction(1, 2)] * 2, profile
        )
        assert action is b

    def test_full_tie_goes_to_lower_index(self):
        a = Action(AGENTS[0], "x")
        b = Action(AGENTS[0], "y")  # same id, same mean
        profile = self._profile({AGENTS[0]: 7})
        action, _ = select_action(
            [a, b], [Fraction(1)] * 2, [Fraction(1, 2)] * 2, profile
        )
        assert action is a

    def test_monotonicity_and_scale_invariance_over_random_states(self):
        rng = np.random.default_rng(77)
        start = time.monotonic()
        for _ in range(1000):
            candidates, buckets, remaining, profile, _ = random_instance(rng)

            extra = Decimal(int(rng.integers(0, 80_000))) / Decimal(10**6)
            lo = FeasibleSet(tuple(tuple(filter_feasible(b, remaining)) for b in buckets))
            hi = FeasibleSet(
                tuple(tuple(filter_feasible(b, remaining + extra)) for b in buckets)
            )
            for lo_bucket, hi_bucket in zip(lo.per_candidate, hi.per_candidate):
                assert set(lo_bucket) <= set(hi_bucket)

            g = short_term_gain(candidates)
            h = long_term_gain(lo.counts())
            base_action, _ = select_action(candidates, g, h, profile)

            factor = Fraction(int(rng.integers(1, 50)), int(rng.integers(1, 50)))
            scaled_profile = profile.scaled(factor)
            scaled_buckets = [
                [SpeculativeTrajectory(t.actions, t.estimated_cost * factor) for t in b]
                for b in buckets
            ]
            scaled_remaining = Fraction(remaining) * factor
            scaled_fs = FeasibleSet(
                tuple(tuple(filter_feasible(b, scaled_remaining)) for b in scaled_buckets)
            )
            assert scaled_fs.counts() == lo.counts()
            scaled_h = long_term_gain(scaled_fs.counts())
            assert scaled_h == h
            scaled_action, _ = select_action(candidates, g, scaled_h, scaled_profile)
            assert scaled_action == base_action
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, f"sweep took {elapsed:.2f}s"


class ScriptedPolicy:
    """Returns pre-baked actions; records every sampling call it sees."""

    def floor(self, remaining):
        return Fraction(0)  # it compares no cost with the remaining budget

    def __init__(self, batches):
        self.batches = list(batches)
        self.calls = []

    def sample(self, k, history, remaining=None, carried_freq=None):
        self.calls.append({"k": k, "remaining": remaining, "carried_freq": carried_freq})
        return list(self.batches.pop(0))[:k]


class TestPlanStep:
    def _fixture(self, rng_seed=1):
        rng = np.random.default_rng(rng_seed)
        prior, profile = random_prior(rng), random_profile(rng)
        return plan_costs(profile, prior), profile

    def test_policy_receives_conditioning(self):
        costs, _ = self._fixture()
        batch = [Action(AGENTS[0], "x")] * 3
        policy = ScriptedPolicy([batch])
        t = SpeculativeTrajectory((AGENTS[1], FINISH), Fraction(1, 1000))
        carried = FeasibleSet(((t,),))
        plan_step(
            policy,
            [],
            costs,
            remaining=Decimal("0.05"),
            seed=SeedStream([0]),
            carried=carried,
            k=3,
        )
        call = policy.calls[0]
        assert call["k"] == 3
        assert call["remaining"] == Decimal("0.05")
        assert call["carried_freq"] == carried.action_frequencies()

    def test_wrong_candidate_count_is_policy_failure(self):
        costs, _ = self._fixture()
        policy = ScriptedPolicy([[Action(AGENTS[0], "x")]])  # one, not three
        with pytest.raises(PolicyFailure):
            plan_step(policy, [], costs, remaining=Decimal("0.05"), seed=SeedStream([0]), k=3)

    def test_uniform_h_skips_speculation_and_carry(self):
        costs, _ = self._fixture()
        batch = [Action(AGENTS[0], "x"), Action(AGENTS[1], "y"), Action(AGENTS[0], "z")]
        policy = ScriptedPolicy([batch])
        outcome = plan_step(
            policy, [], costs, remaining=Decimal("0.05"), seed=SeedStream([0]), k=3, uniform_h=True
        )
        assert outcome.h == (Fraction(1, 3),) * 3
        assert outcome.feasible == FeasibleSet()
        assert outcome.action.id == AGENTS[0]  # g breaks the uniform-h tie
        assert outcome.candidates == tuple(batch)

    def test_plan_replays_bit_exact_for_fixed_seed(self):
        costs, _ = self._fixture()
        batch = [Action(AGENTS[0], "x"), Action(AGENTS[2], "y"), Action(AGENTS[2], "z")]
        outcomes = []
        for _ in range(2):
            policy = ScriptedPolicy([list(batch)])
            outcomes.append(
                plan_step(
                    policy, [], costs, remaining=Decimal("0.06"), seed=SeedStream([9, 4]), k=3
                )
            )
        assert outcomes[0] == outcomes[1]

    def test_per_candidate_rollout_streams_are_index_keyed(self):
        costs, _ = self._fixture()
        # same candidate in slots 0 and 2: identical streams would make their
        # buckets equal only if keyed by index-independent state
        batch = [Action(AGENTS[0], "x"), Action(AGENTS[1], "y"), Action(AGENTS[0], "z")]
        policy = ScriptedPolicy([batch])
        outcome = plan_step(
            policy, [], costs, remaining=Decimal("100"), seed=SeedStream([7]), k=3
        )
        direct_0 = speculate(batch[0], costs, seed=[7, 0])
        direct_2 = speculate(batch[2], costs, seed=[7, 2])
        assert tuple(t.actions for t in outcome.feasible.per_candidate[0]) == tuple(
            t.actions for t in direct_0
        )
        assert tuple(t.actions for t in outcome.feasible.per_candidate[2]) == tuple(
            t.actions for t in direct_2
        )

    def test_cost_trajectory_is_exact_sum(self):
        _, profile = self._fixture()
        actions = (AGENTS[0], AGENTS[1], FINISH)
        assert cost_trajectory(actions, profile) == sum(
            (profile.mean(a) for a in actions), Fraction(0)
        )

    def test_sample_candidates_requires_positive_k(self):
        with pytest.raises(ValueError):
            sample_candidates(ScriptedPolicy([[]]), [], FeasibleSet(), k=0)


class TestPlanFloor:
    """A step's floor is sufficient: planning again at it gives the same
    outcome. It is tight: just below it, a damping test or a feasibility
    test comes out the other way."""

    HISTORIES = (
        [],
        [HistoryEntry(0, Action(AGENTS[1], "read"), "[doc d0003] record complete: cipher 'q'.", sum_records([]))],
    )

    def test_the_floor_is_sufficient_and_tight(self):
        rng = np.random.default_rng(1717)
        from_damping = from_rollouts = 0
        for trial in range(150):
            prior, profile = random_prior(rng), random_profile(rng)
            table = ActionCosts(profile, prior.vocabulary)
            costs = PlanCosts(table, prior)
            history = self.HISTORIES[trial % 2]
            seed = SeedStream([trial, 5])
            carried = FeasibleSet()
            for ordinal in range(3):
                remaining = Decimal(int(rng.integers(1, 200_000))) / Decimal(10**6)

                def plan(budget):
                    policy = RulePolicy(trial, "t0001", VOCAB, costs=table)
                    policy._ordinal = ordinal
                    return plan_step(policy, history, costs, budget, seed=seed, carried=carried), policy

                outcome, policy = plan(remaining)
                floor = outcome.floor
                assert 0 <= floor <= remaining
                again, _ = plan(floor)
                assert again == outcome, (trial, ordinal)
                if floor > 0:
                    below = floor - Fraction(1, 10**12)
                    freq = carried.action_frequencies() or None
                    if policy.weights(history, below, freq) != policy.weights(history, floor, freq):
                        from_damping += 1
                    else:
                        # Same candidates and rollouts; the dearest kept one is dropped.
                        under, _ = plan(below)
                        assert under.candidates == outcome.candidates
                        assert sum(under.feasible.counts()) < sum(outcome.feasible.counts())
                        from_rollouts += 1
                carried = outcome.feasible
        assert from_damping > 50 and from_rollouts > 50


class TestIntegerPlanPath:
    """plan_step's integer path against a rebuild from the rational oracles."""

    @staticmethod
    def awkward_profile(rng) -> CostProfile:
        """Means over mixed denominators, many non-terminating as decimals."""
        entries = {}
        for aid in VOCAB + [FINISH]:
            den = int(rng.choice([10**6, 3, 7, 9, 11, 13, 999_983, int(rng.integers(1, 5000))]))
            num = int(rng.integers(1, den * 50 // 1000 + 2))
            entries[aid] = ProfileEntry(Fraction(num, den), 1)
        return CostProfile(entries)

    @staticmethod
    def reference(candidates, prior, profile, remaining, seed, n_rollouts, depth):
        buckets = []
        for i, cand in enumerate(candidates):
            rng = np.random.default_rng([*seed, i])
            paths = [prior.sample_rollout(cand.id, rng, depth) for _ in range(n_rollouts)]
            trajs = [SpeculativeTrajectory(p, cost_trajectory(p, profile)) for p in paths]
            buckets.append(tuple(filter_feasible(trajs, remaining)))
        g = short_term_gain(candidates)
        h = long_term_gain([len(b) for b in buckets])
        f = tuple(gi + hi for gi, hi in zip(g, h))
        action, _ = select_action(candidates, g, h, profile)
        union = list(dict.fromkeys(t for b in buckets for t in b))
        freq = {}
        for t in union:
            for aid in set(t.actions):
                freq[aid] = freq.get(aid, 0) + 1
        freq = {aid: Fraction(c, len(union)) for aid, c in freq.items()}
        return tuple(buckets), tuple(g), tuple(h), f, action, freq

    def test_matches_rational_rebuild_over_random_profiles(self):
        rng = np.random.default_rng(606)
        pool = [*VOCAB, FINISH]
        boundary_hits = 0
        for trial in range(300):
            prior = random_prior(rng)
            profile = self.awkward_profile(rng)
            k = int(rng.integers(1, 6))
            candidates = tuple(Action(pool[int(i)], "work") for i in rng.integers(0, len(pool), size=k))
            seed = [int(rng.integers(0, 2**32)), int(rng.integers(0, 2**64, dtype=np.uint64)), trial]
            n_rollouts, depth = int(rng.integers(1, 7)), int(rng.integers(1, 7))
            factor = Fraction(int(rng.integers(1, 40)), int(rng.integers(1, 40)))
            # A budget at one rollout's cost sits on the inclusive edge; a
            # hair below it leaves that rollout out by less than one unit.
            probe = self.reference(
                candidates, prior, profile, Fraction(10**9), seed, n_rollouts, depth
            )[0]
            costs = sorted({t.estimated_cost for b in probe for t in b})
            remaining = costs[int(rng.integers(0, len(costs)))]
            if trial % 3 == 1:
                remaining -= Fraction(1, 10**40)
            elif trial % 3 == 2:
                remaining = Decimal(int(rng.integers(1_000, 150_000))) / Decimal(10**6)
            for scale in (Fraction(1), factor):
                scaled = profile if scale == 1 else profile.scaled(scale)
                budget = remaining if scale == 1 else Fraction(remaining) * scale
                want = self.reference(
                    candidates, prior, scaled, budget, seed, n_rollouts, depth
                )
                outcome = plan_step(
                    ScriptedPolicy([candidates]), [], plan_costs(scaled, prior), budget,
                    seed=SeedStream(seed), k=k, n_rollouts=n_rollouts, depth_limit=depth,
                )
                buckets, g, h, f, action, freq = want
                assert outcome.feasible.per_candidate == buckets, trial
                assert (outcome.g, outcome.h, outcome.f) == (g, h, f), trial
                assert outcome.action is action, trial
                assert outcome.feasible.counts() == [len(b) for b in buckets]
                assert outcome.feasible.action_frequencies() == freq
                boundary_hits += any(t.estimated_cost == budget for b in buckets for t in b)
        assert boundary_hits > 50  # the inclusive edge was exercised

    def plan_and_rebuild(self, candidates, prior, profile, remaining, seed, uniform_h=False):
        """plan_step's outcome, checked value by value against the rational
        rebuild; returns the outcome and the rebuilt buckets."""
        k = len(candidates)
        outcome = plan_step(
            ScriptedPolicy([candidates]), [], plan_costs(profile, prior), remaining,
            seed=SeedStream(seed), k=k, uniform_h=uniform_h,
        )
        buckets, g, h, f, action, freq = self.reference(
            candidates, prior, profile, remaining, seed, DEFAULT_N_ROLLOUTS, DEFAULT_DEPTH_LIMIT
        )
        if uniform_h:
            buckets, h, freq = (), tuple(long_term_gain([0] * k)), {}
            f = tuple(gi + hi for gi, hi in zip(g, h))
            action, _ = select_action(candidates, g, h, profile)
        want = FeasibleSet(buckets)
        floor = max([Fraction(0), *(t.estimated_cost for b in buckets for t in b)])
        values = (*outcome.g, *outcome.h, *outcome.f, outcome.floor)
        assert all(type(v) is Fraction for v in values)
        assert (outcome.g, outcome.h, outcome.f, outcome.floor) == (g, h, f, floor)
        assert outcome.action is action
        assert outcome.feasible.per_candidate == buckets
        assert outcome.feasible.union() == want.union()
        assert outcome.feasible.action_frequencies() == freq == want.action_frequencies()
        assert render_carried(outcome.feasible) == render_carried(want)
        return outcome, buckets

    def test_a_budget_equal_to_a_rollout_keeps_it_and_a_micro_dollar_less_drops_it(self):
        rng = np.random.default_rng(77)
        prior, profile = random_prior(rng), random_profile(rng)
        candidates = (Action(AGENTS[0], "a"), Action(MODULES[1], "b"), Action(AGENTS[0], "c"))
        seed = [5, 8]
        probe = self.reference(candidates, prior, profile, Fraction(10**6), seed, 5, 6)[0]
        for cost in sorted({t.estimated_cost for b in probe for t in b})[::4]:
            at = Decimal(cost.numerator) / Decimal(cost.denominator)  # micro-dollar means: exact
            assert at == cost
            _, kept = self.plan_and_rebuild(candidates, prior, profile, at, seed)
            assert any(t.estimated_cost == cost for b in kept for t in b)
            _, below = self.plan_and_rebuild(candidates, prior, profile, at - Decimal("0.000001"), seed)
            assert not any(t.estimated_cost >= cost for b in below for t in b)

    def test_denominators_whose_lcm_exceeds_64_bits(self):
        primes = [1_000_003, 1_000_033, 1_000_037, 1_000_039, 1_000_081, 1_000_099, 1_000_117, 1_000_121]
        rng = np.random.default_rng(3)
        prior = random_prior(rng)
        entries = {
            aid: ProfileEntry(Fraction(int(rng.integers(1_000, 30_000)), primes[i % len(primes)]), 1)
            for i, aid in enumerate(prior.vocabulary)
        }
        profile = CostProfile(entries)
        assert plan_costs(profile, prior).denominator > 2**64
        candidates = (Action(AGENTS[1], "a"), Action(AGENTS[2], "b"), Action(MODULES[0], "c"), Action(AGENTS[1], "d"))
        seed = [2**40, 11]
        probe = self.reference(candidates, prior, profile, Fraction(10**6), seed, 5, 6)[0]
        costs = sorted({t.estimated_cost for b in probe for t in b})
        for cost in costs[:: max(1, len(costs) // 6)]:
            _, kept = self.plan_and_rebuild(candidates, prior, profile, cost, seed)
            assert any(t.estimated_cost == cost for b in kept for t in b)
            # less than one unit of the common denominator below the cost
            below = cost - Fraction(1, 2 * plan_costs(profile, prior).denominator)
            _, dropped = self.plan_and_rebuild(candidates, prior, profile, below, seed)
            assert not any(t.estimated_cost >= cost for b in dropped for t in b)

    def test_uniform_h_matches_the_rebuild(self):
        rng = np.random.default_rng(12)
        prior, profile = random_prior(rng), random_profile(rng)
        candidates = (Action(AGENTS[3], "a"), Action(MODULES[2], "b"), Action(AGENTS[3], "c"), Action(FINISH, "d"))
        for remaining in (Decimal("0.000001"), Decimal("0.05"), Decimal("5")):
            outcome, _ = self.plan_and_rebuild(candidates, prior, profile, remaining, [9], uniform_h=True)
            assert outcome.feasible == FeasibleSet()
            assert outcome.floor == 0

    def test_unpriced_vocabulary_action_raises_when_a_rollout_reaches_it(self):
        # The check runs once, when PlanCosts is built, so it fires before
        # any rollout can reach the unpriced action, even a rollout too
        # short to reach it.
        prior = TransitionPrior(VOCAB, {(AGENTS[0], AGENTS[2]): 10_000})
        means = {aid: Fraction(1, 1000) for aid in VOCAB + [FINISH] if aid != AGENTS[2]}
        profile = CostProfile({aid: ProfileEntry(m, 1) for aid, m in means.items()})
        with pytest.raises(MissingCostProfile, match="agent:reason"):
            plan_costs(profile, prior)
        means[AGENTS[2]] = Fraction(1, 7)
        profile = CostProfile({aid: ProfileEntry(m, 1) for aid, m in means.items()})
        costs = plan_costs(profile, prior)
        reached = speculate(AGENTS[0], costs, n_rollouts=3, depth_limit=4, seed=[1, 2, 3, 4])
        assert all(t.actions[1] == AGENTS[2] for t in reached)
        assert all(t.estimated_cost == cost_trajectory(t.actions, profile) for t in reached)
        assert speculate(AGENTS[0], costs, n_rollouts=2, depth_limit=1, seed=0) == [
            SpeculativeTrajectory((AGENTS[0],), Fraction(1, 1000))
        ] * 2

    def test_plan_costs_must_match_the_prior(self):
        # PlanCosts draws from the prior it was built with and prices over
        # that prior's vocabulary only.
        rng = np.random.default_rng(1)
        prior, profile = random_prior(rng), random_profile(rng)
        costs = plan_costs(profile, prior)
        assert costs.prior is prior
        rng = np.random.default_rng([4, 2])
        paths = [prior.sample_rollout(AGENTS[0], rng, 5) for _ in range(4)]
        assert speculate(AGENTS[0], costs, n_rollouts=4, depth_limit=5, seed=[4, 2]) == [
            SpeculativeTrajectory(p, cost_trajectory(p, profile)) for p in paths
        ]
        ghost = ActionId.agent("ghost")
        priced = CostProfile({**profile.entries, ghost: ProfileEntry(Fraction(1, 11), 1)})
        with pytest.raises(KeyError):
            speculate(ghost, plan_costs(priced, prior), seed=1)

    def test_plan_costs_name_every_unpriced_action(self):
        prior = TransitionPrior(VOCAB)
        entries = {aid: ProfileEntry(Fraction(1, 1000), 1) for aid in prior.vocabulary}
        del entries[AGENTS[2]], entries[MODULES[0]]
        with pytest.raises(MissingCostProfile, match="agent:reason, module:team_a"):
            plan_costs(CostProfile(entries), prior)
        with pytest.raises(MissingCostProfile, match=", ".join(map(str, prior.vocabulary))):
            plan_costs(CostProfile(), prior)
        entries[AGENTS[2]] = ProfileEntry(Fraction(1, 3), 1)
        entries[MODULES[0]] = ProfileEntry(Fraction(1, 7), 1)
        entries[ActionId.agent("ghost")] = ProfileEntry(Fraction(1, 11), 1)  # outside the vocabulary
        costs = plan_costs(CostProfile(entries), prior)
        assert costs.denominator == 21_000
        assert [costs.units_of(aid) for aid in (AGENTS[0], AGENTS[2], MODULES[0])] == [21, 7_000, 3_000]

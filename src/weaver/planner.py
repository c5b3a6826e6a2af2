"""Two-horizon action selection under a remaining budget.

Each step scores K sampled candidate actions with ``f(i) = g(i) + h(i)``:

* ``g(i)`` is short-horizon self-consistency: the fraction of the K samples
  whose action id matches candidate i (subtask wording is ignored).
* ``h(i)`` is long-horizon budget feasibility: from each candidate, symbolic
  rollouts are drawn from a first-order transition prior and costed with
  profile means; h is the candidate's share of budget-feasible rollouts,
  with a uniform 1/K fallback when nothing is feasible anywhere.

Rollouts are never executed; they spend no tokens and touch no backend.
All scores are exact rationals, so scaling every mean cost and the
remaining budget by the same factor provably cannot change the selection.
The plan path takes its costs in one form, ``PlanCosts``: the run's
``ActionCosts`` table (the one the policy's damping test reads) over the
prior's vocabulary, every action priced, checked once per run. Each mean
is an integer over the table's common denominator, so a rollout is priced
by an int sum. ``cost_trajectory`` and ``select_action`` are the rational
references its costs and pick equal; its filter is ``filter_feasible``
itself. Each outcome also carries its ``floor``: the largest threshold it
found within the remaining budget, from which up it plans the same.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import cached_property, partial
from typing import Mapping, Sequence

import numpy as np

from .core import Action, ActionCosts, ActionId, CostProfile, FINISH
from .streams import SeedStream, choice_cdf

DEFAULT_K = 3
DEFAULT_N_ROLLOUTS = 5
DEFAULT_DEPTH_LIMIT = 6


class PolicyFailure(RuntimeError):
    """The sampling policy produced no usable candidates."""


class MissingCostProfile(KeyError):
    """An action in the planning space has no cost estimate."""


def profile_mean(profile: CostProfile, action_id: ActionId) -> Fraction:
    try:
        return profile.mean(action_id)
    except KeyError:
        raise MissingCostProfile(str(action_id)) from None


class TransitionPrior:
    """First-order Markov prior over action ids; each transition's count is
    the observed count plus one.

    Finish is absorbing: rollouts stop there. With no observed transitions
    the prior is uniform over the vocabulary, which is exactly what adding
    one to an empty count table gives.

    The prior is immutable, so each vocabulary row is turned into a
    cumulative distribution once, on first use, and rollouts walk integer
    row indices. A draw is ``bisect_right(cdf, rng.random())``, which is
    ``cdf.searchsorted(rng.random(), side="right")``, over the row
    normalized exactly as ``Generator.choice(n, p=...)`` normalizes it, so
    sampling matches ``choice`` draw for draw.
    """

    def __init__(
        self,
        vocabulary: Sequence[ActionId],
        counts: Mapping[tuple[ActionId, ActionId], int] | None = None,
    ):
        vocab = list(dict.fromkeys(vocabulary))
        if FINISH not in vocab:
            vocab.append(FINISH)
        self.vocabulary: tuple[ActionId, ...] = tuple(vocab)
        self._counts: dict[tuple[ActionId, ActionId], int] = dict(counts or {})
        self._index = {aid: i for i, aid in enumerate(self.vocabulary)}

    @staticmethod
    def from_sequences(
        sequences: Sequence[Sequence[ActionId]],
        vocabulary: Sequence[ActionId],
    ) -> "TransitionPrior":
        counts: dict[tuple[ActionId, ActionId], int] = {}
        known = set(vocabulary) | {FINISH}
        for seq in sequences:
            for prev, nxt in zip(seq, seq[1:]):
                if prev in known and nxt in known:
                    counts[(prev, nxt)] = counts.get((prev, nxt), 0) + 1
        return TransitionPrior(vocabulary, counts)

    def _row(self, current: ActionId) -> list[int]:
        return [self._counts.get((current, nxt), 0) + 1 for nxt in self.vocabulary]

    def next_distribution(self, current: ActionId) -> dict[ActionId, Fraction]:
        """The exact distribution of the action after ``current``: the one
        ``index_paths`` samples each step from, through ``_row_cdf``."""
        row = self._row(current)
        total = sum(row)
        return {nxt: Fraction(c, total) for nxt, c in zip(self.vocabulary, row)}

    def _row_cdf(self, current: ActionId) -> list[float]:
        # c / total is the correctly rounded quotient, i.e. float(Fraction(c, total));
        # the rest is Generator.choice's own normalization and CDF.
        row = self._row(current)
        total = sum(row)
        return choice_cdf([c / total for c in row])

    @cached_property
    def _cdfs(self) -> tuple[list[float], ...]:
        # Every thread computes the same rows, so a racing first use is harmless.
        return tuple(self._row_cdf(aid) for aid in self.vocabulary)

    def index_paths(
        self,
        start: ActionId,
        rng: np.random.Generator,
        n_rollouts: int,
        depth_limit: int = DEFAULT_DEPTH_LIMIT,
    ) -> list[tuple[int, ...]]:
        """``n_rollouts`` continuations of ``start``, as vocabulary indices.

        Each step draws one uniform. A path stops at finish, or once it and
        ``start`` together reach ``depth_limit`` actions.
        """
        if start == FINISH or depth_limit <= 1:
            return [()] * n_rollouts
        cdfs = self._cdfs
        finish = self._index[FINISH]
        i = self._index.get(start)
        first = cdfs[i] if i is not None else self._row_cdf(start)
        longest = depth_limit - 1
        random = rng.random
        paths = []
        for _ in range(n_rollouts):
            cdf = first
            path: list[int] = []
            while True:
                i = bisect_right(cdf, random())
                path.append(i)
                if i == finish or len(path) >= longest:
                    break
                cdf = cdfs[i]
            paths.append(tuple(path))
        return paths

    def sample_rollout(
        self,
        start: ActionId,
        rng: np.random.Generator,
        depth_limit: int = DEFAULT_DEPTH_LIMIT,
    ) -> tuple[ActionId, ...]:
        (path,) = self.index_paths(start, rng, 1, depth_limit)
        vocab = self.vocabulary
        return (start, *(vocab[j] for j in path))


@dataclass(frozen=True)
class SpeculativeTrajectory:
    actions: tuple[ActionId, ...]
    estimated_cost: Fraction

    def __post_init__(self):
        if not self.actions:
            raise ValueError("trajectory must be non-empty")


@dataclass(frozen=True)
class FeasibleSet:
    """Per-candidate budget-feasible rollouts; carried into the next step."""

    per_candidate: tuple[tuple[SpeculativeTrajectory, ...], ...] = ()

    def counts(self) -> list[int]:
        return [len(bucket) for bucket in self.per_candidate]

    def union(self) -> tuple[SpeculativeTrajectory, ...]:
        seen: dict[SpeculativeTrajectory, None] = {}
        for bucket in self.per_candidate:
            for traj in bucket:
                seen.setdefault(traj)
        return tuple(seen)

    def action_frequencies(self) -> dict[ActionId, Fraction]:
        """Share of distinct feasible trajectories each action id appears in.

        One profile prices a set's rollouts, so a trajectory is told apart
        by its actions alone, and one pass counts each path once.
        """
        seen: set[tuple[ActionId, ...]] = set()
        counts: dict[ActionId, int] = {}
        for bucket in self.per_candidate:
            for traj in bucket:
                path = traj.actions
                if path not in seen:
                    seen.add(path)
                    for aid in set(path):
                        counts[aid] = counts.get(aid, 0) + 1
        return {aid: Fraction(c, len(seen)) for aid, c in counts.items()}


def render_carried(feasible: FeasibleSet) -> str:
    """Deterministic textual summary of carried trajectories, for audit.

    The public audit helper for a ``PlanOutcome.feasible`` set; nothing in
    the package calls it, so runs never pay for the rendering.
    """
    union = feasible.union()
    if not union:
        return "no feasible plans carried"
    lines = []
    for traj in sorted(union, key=lambda t: (t.estimated_cost, tuple(map(str, t.actions)))):
        path = " -> ".join(str(a) for a in traj.actions)
        lines.append(f"{path} (est ${float(traj.estimated_cost):.4f})")
    return "feasible plans:\n" + "\n".join(lines)


def cost_trajectory(actions: Sequence[ActionId], profile: CostProfile) -> Fraction:
    return sum((profile_mean(profile, a) for a in actions), Fraction(0))


class PlanCosts:
    """The planner's cost input: a run's ``ActionCosts`` over a prior's vocabulary.

    ``units[j]`` is the mean of vocabulary action j in the table's units of
    ``1 / denominator``, so a rollout's cost is one int sum over that
    denominator: the exact rational sum that ``cost_trajectory`` gives. The
    table must price every action of the vocabulary; building the object
    checks that once, and raises ``MissingCostProfile`` naming every
    unpriced id. Build one per run, from the table and prior that run
    plans with.
    """

    def __init__(self, costs: ActionCosts, prior: TransitionPrior):
        priced = costs.units
        missing = [str(aid) for aid in prior.vocabulary if aid not in priced]
        if missing:
            raise MissingCostProfile(", ".join(missing))
        self.prior = prior
        self.denominator = costs.denominator
        self.units = [priced[aid] for aid in prior.vocabulary]

    def units_of(self, action_id: ActionId) -> int:
        """The mean cost of a vocabulary action, in units."""
        return self.units[self.prior._index[action_id]]


def sample_candidates(
    policy,
    history,
    carried: FeasibleSet,
    k: int,
    remaining=None,
) -> tuple[Action, ...]:
    """Draw K candidate actions from the policy, conditioned on carried plans."""
    if k < 1:
        raise ValueError("K must be at least 1")
    freq = carried.action_frequencies()
    candidates = tuple(
        policy.sample(k, history, remaining=remaining, carried_freq=freq or None)
    )
    if len(candidates) != k:
        raise PolicyFailure(f"expected {k} candidates, got {len(candidates)}")
    return candidates


def speculate(
    candidate: Action | ActionId,
    costs: PlanCosts,
    n_rollouts: int = DEFAULT_N_ROLLOUTS,
    depth_limit: int = DEFAULT_DEPTH_LIMIT,
    seed: int | Sequence[int] | np.random.Generator = 0,
) -> list[SpeculativeTrajectory]:
    """Sample symbolic continuations of a candidate and price them.

    Each rollout is ``costs.prior.sample_rollout`` from
    ``np.random.default_rng(seed)``, priced as ``cost_trajectory`` prices it;
    ``seed`` may be a generator to draw from.
    """
    if n_rollouts < 1 or depth_limit < 1:
        raise ValueError("n_rollouts and depth_limit must be at least 1")
    start = candidate.id if isinstance(candidate, Action) else candidate
    start_units = costs.units_of(start)
    vocab, units, den = costs.prior.vocabulary, costs.units, costs.denominator
    return [
        SpeculativeTrajectory(
            (start, *[vocab[j] for j in path]),
            Fraction(start_units + sum([units[j] for j in path]), den),
        )
        for path in costs.prior.index_paths(start, np.random.default_rng(seed), n_rollouts, depth_limit)
    ]


def filter_feasible(
    trajectories: Sequence[SpeculativeTrajectory],
    remaining: Decimal | Fraction | int,
) -> list[SpeculativeTrajectory]:
    """Keep rollouts whose estimated cost fits the remaining budget.

    The boundary is inclusive: a rollout costing exactly the remaining
    budget survives.
    """
    bound = Fraction(remaining)
    return [t for t in trajectories if t.estimated_cost <= bound]


def short_term_gain(candidates: Sequence[Action]) -> list[Fraction]:
    k = len(candidates)
    ids = [a.id for a in candidates]
    return [Fraction(sum(1 for other in ids if other == mine), k) for mine in ids]


def long_term_gain(counts: Sequence[int]) -> list[Fraction]:
    """Each candidate's share of all feasible rollouts; 1/K each when there are none."""
    k = len(counts)
    total = sum(counts)
    if total == 0:
        return [Fraction(1, k)] * k
    return [Fraction(c, total) for c in counts]


def select_action(
    candidates: Sequence[Action],
    g: Sequence[Fraction],
    h: Sequence[Fraction],
    profile: CostProfile,
    feasible: FeasibleSet = FeasibleSet(),
) -> tuple[Action, FeasibleSet]:
    """Argmax of f = g + h; ties go to the cheaper mean, then lower index.

    Returns the winning action together with the feasible set to carry into
    the next step's sampling.
    """
    if not (len(candidates) == len(g) == len(h)):
        raise ValueError("g and h must score every candidate")
    f = [gi + hi for gi, hi in zip(g, h)]
    return candidates[_best(candidates, f, partial(profile_mean, profile))], feasible


def _best(actions: Sequence[Action], f: Sequence[Fraction], cost_of) -> int:
    """The index ``select_action`` picks for scores ``f``; ``cost_of(id)``
    must order the candidates as their mean costs do."""
    return max(range(len(actions)), key=lambda i: (f[i], -cost_of(actions[i].id), -i))


@dataclass(frozen=True)
class PlanOutcome:
    """One step's plan. ``floor`` is the largest cost threshold the step
    found at or below the remaining budget: a mean the policy's damping test
    compared (``policy.floor(remaining)``, read off the run's
    ``ActionCosts``) or a rollout's estimate the feasibility filter kept; 0
    if none. Planning again with the same policy
    ordinal, stream and carried set at any remaining budget from ``floor``
    up to this one gives the same outcome."""

    action: Action
    candidates: tuple[Action, ...]
    g: tuple[Fraction, ...]
    h: tuple[Fraction, ...]
    f: tuple[Fraction, ...]
    feasible: FeasibleSet
    floor: Fraction


def plan_step(
    policy,
    history,
    costs: PlanCosts,
    remaining: Decimal | Fraction,
    *,
    seed: SeedStream,
    carried: FeasibleSet = FeasibleSet(),
    k: int = DEFAULT_K,
    n_rollouts: int = DEFAULT_N_ROLLOUTS,
    depth_limit: int = DEFAULT_DEPTH_LIMIT,
    uniform_h: bool = False,
) -> PlanOutcome:
    """One full planning step: sample, score both horizons, select.

    The remaining budget conditions both stages: it is forwarded to the
    policy's sampling and bounds the feasibility filter. The policy gets no
    rendered prompt; one that wants budget text builds it from ``remaining``
    and its own cost table. ``policy.floor(remaining)`` is the largest
    threshold the policy compares with ``remaining`` and finds at or below
    it. Candidate i's rollouts are drawn from
    ``seed.rng(i)``, so the per-candidate speculation is order-independent
    and could run concurrently without changing the outcome. With
    ``uniform_h`` the speculative stage is skipped entirely (h = 1/K, empty
    carried set), which reduces K = 1 planning to plain policy sampling.
    """
    candidates = sample_candidates(policy, history, carried, k, remaining=remaining)
    floor = policy.floor(remaining)
    g = short_term_gain(candidates)
    if uniform_h:
        h = [Fraction(1, k)] * k
        feasible = FeasibleSet()
    else:
        buckets = []
        for i, cand in enumerate(candidates):
            rollouts = speculate(cand, costs, n_rollouts, depth_limit, seed=seed.rng(i))
            buckets.append(tuple(filter_feasible(rollouts, remaining)))
        feasible = FeasibleSet(tuple(buckets))
        h = long_term_gain(feasible.counts())
        floor = max([floor, *(t.estimated_cost for bucket in buckets for t in bucket)])
    # select_action's argmax, on the f built here once and the costs in units
    f = tuple(gi + hi for gi, hi in zip(g, h))
    return PlanOutcome(
        action=candidates[_best(candidates, f, costs.units_of)],
        candidates=candidates,
        g=tuple(g),
        h=tuple(h),
        f=f,
        feasible=feasible,
        floor=floor,
    )

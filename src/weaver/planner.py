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
On the plan path, rollouts are vocabulary index paths and their costs
integers over one common denominator (``PlanCosts``), which keeps every
comparison exact without rational arithmetic per rollout.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .core import Action, ActionId, CostProfile, FINISH
from .streams import SeedStream

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
    """First-order Markov prior over action ids with additive smoothing.

    Finish is absorbing: rollouts stop there. With no observed transitions
    the prior is uniform over the vocabulary, which is exactly what add-one
    smoothing of an empty count table gives.

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
        smoothing: int = 1,
    ):
        if smoothing < 1:
            raise ValueError("smoothing must be a positive count")
        vocab = list(dict.fromkeys(vocabulary))
        if FINISH not in vocab:
            vocab.append(FINISH)
        self.vocabulary: tuple[ActionId, ...] = tuple(vocab)
        self.smoothing = smoothing
        self._counts: dict[tuple[ActionId, ActionId], int] = dict(counts or {})
        self._index = {aid: i for i, aid in enumerate(self.vocabulary)}

    @staticmethod
    def from_sequences(
        sequences: Sequence[Sequence[ActionId]],
        vocabulary: Sequence[ActionId],
        smoothing: int = 1,
    ) -> "TransitionPrior":
        counts: dict[tuple[ActionId, ActionId], int] = {}
        known = set(vocabulary) | {FINISH}
        for seq in sequences:
            for prev, nxt in zip(seq, seq[1:]):
                if prev in known and nxt in known:
                    counts[(prev, nxt)] = counts.get((prev, nxt), 0) + 1
        return TransitionPrior(vocabulary, counts, smoothing)

    def _row(self, current: ActionId) -> list[int]:
        return [self._counts.get((current, nxt), 0) + self.smoothing for nxt in self.vocabulary]

    def next_distribution(self, current: ActionId) -> dict[ActionId, Fraction]:
        row = self._row(current)
        total = sum(row)
        return {nxt: Fraction(c, total) for nxt, c in zip(self.vocabulary, row)}

    def _row_cdf(self, current: ActionId) -> list[float]:
        # c / total is the correctly rounded quotient, i.e. float(Fraction(c, total));
        # the rest is Generator.choice's own normalization and CDF.
        row = self._row(current)
        total = sum(row)
        probs = np.array([c / total for c in row])
        probs = probs / probs.sum()
        cdf = probs.cumsum()
        cdf /= cdf[-1]
        return cdf.tolist()

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
class CandidateSet:
    step: int
    candidates: tuple[Action, ...]

    def __post_init__(self):
        if not self.candidates:
            raise ValueError("candidate set must be non-empty")

    @property
    def k(self) -> int:
        return len(self.candidates)

    def ids(self) -> tuple[ActionId, ...]:
        return tuple(c.id for c in self.candidates)


@dataclass(frozen=True)
class SpeculativeTrajectory:
    actions: tuple[ActionId, ...]
    estimated_cost: Fraction
    # Set on rollouts that PlanCosts draws: the cost of every action after
    # the first, in PlanCosts units. Not part of the trajectory's value.
    _path_units: int | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        if not self.actions:
            raise ValueError("trajectory must be non-empty")

    @classmethod
    def _drawn(
        cls, actions: tuple[ActionId, ...], estimated_cost: Fraction, path_units: int
    ) -> "SpeculativeTrajectory":
        traj = cls(actions, estimated_cost)
        object.__setattr__(traj, "_path_units", path_units)
        return traj


@dataclass(frozen=True)
class FeasibleSet:
    """Per-candidate budget-feasible rollouts; carried into the next step."""

    per_candidate: tuple[tuple[SpeculativeTrajectory, ...], ...] = ()

    @staticmethod
    def empty() -> "FeasibleSet":
        return FeasibleSet(())

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
    """A profile's mean costs over a prior's vocabulary, as integers.

    Each mean is a whole number of units of ``1 / denominator``, the least
    common denominator of the vocabulary's means. The steps a rollout draws
    after its start then cost an int sum, and its feasibility is the int
    comparison of that sum with ``floor((remaining - mean(start)) *
    denominator)``: as exact as the rational sums of ``cost_trajectory`` and
    ``filter_feasible``, which stay as their reference.

    The means are read once, when the object is built: build one per run,
    from the profile and prior that run plans with.
    """

    def __init__(self, profile: CostProfile, prior: TransitionPrior):
        self.profile = profile
        self.prior = prior
        entries = profile.entries
        means = [entries[aid].mean_dollars if aid in entries else None for aid in prior.vocabulary]
        self.denominator = math.lcm(*(m.denominator for m in means if m is not None))
        self.units = [
            0 if m is None else m.numerator * (self.denominator // m.denominator) for m in means
        ]
        self.missing = frozenset(i for i, m in enumerate(means) if m is None)

    def _start_units(self, start: ActionId) -> int | None:
        """The start's mean in units, or None if it has no integer form here."""
        i = self.prior._index.get(start)
        return None if i is None or i in self.missing else self.units[i]

    def rollouts(
        self,
        start: ActionId,
        rng: np.random.Generator,
        n_rollouts: int,
        depth_limit: int,
    ) -> list[SpeculativeTrajectory]:
        """``n_rollouts`` priced continuations of ``start``, drawn by
        ``TransitionPrior.index_paths``."""
        start_units = self._start_units(start)
        start_mean = profile_mean(self.profile, start) if start_units is None else None
        vocab, units, missing, den = self.prior.vocabulary, self.units, self.missing, self.denominator
        out = []
        for path in self.prior.index_paths(start, rng, n_rollouts, depth_limit):
            if missing and not missing.isdisjoint(path):
                raise MissingCostProfile(str(vocab[next(j for j in path if j in missing)]))
            path_units = sum([units[j] for j in path])
            if start_mean is None:
                cost = Fraction(start_units + path_units, den)
            else:
                cost = start_mean + Fraction(path_units, den)
            actions = (start, *[vocab[j] for j in path])
            out.append(SpeculativeTrajectory._drawn(actions, cost, path_units))
        return out

    def feasible(
        self,
        start: ActionId,
        rollouts: Sequence[SpeculativeTrajectory],
        remaining: Fraction,
    ) -> tuple[SpeculativeTrajectory, ...]:
        """``filter_feasible`` for rollouts of ``start`` drawn by ``rollouts``."""
        start_units = self._start_units(start)
        if start_units is None:
            limit = math.floor((remaining - profile_mean(self.profile, start)) * self.denominator)
        else:
            limit = remaining.numerator * self.denominator // remaining.denominator - start_units
        return tuple(t for t in rollouts if t._path_units <= limit)


def sample_candidates(
    policy,
    history,
    carried: FeasibleSet,
    k: int,
    step: int = 0,
    remaining=None,
) -> CandidateSet:
    """Draw K candidate actions from the policy, conditioned on carried plans."""
    if k < 1:
        raise ValueError("K must be at least 1")
    freq = carried.action_frequencies()
    candidates = tuple(
        policy.sample(k, history, remaining=remaining, carried_freq=freq or None)
    )
    if len(candidates) != k:
        raise PolicyFailure(f"expected {k} candidates, got {len(candidates)}")
    return CandidateSet(step=step, candidates=candidates)


def speculate(
    candidate: Action | ActionId,
    prior: TransitionPrior,
    profile: CostProfile | PlanCosts,
    n_rollouts: int = DEFAULT_N_ROLLOUTS,
    depth_limit: int = DEFAULT_DEPTH_LIMIT,
    seed: int | Sequence[int] | np.random.Generator = 0,
) -> list[SpeculativeTrajectory]:
    """Sample symbolic continuations of a candidate and price them.

    Each rollout is ``prior.sample_rollout`` from ``np.random.default_rng(seed)``
    priced by ``cost_trajectory``; ``profile`` may be the run's ``PlanCosts``
    for ``prior``, and ``seed`` a generator to draw from.
    """
    if n_rollouts < 1 or depth_limit < 1:
        raise ValueError("n_rollouts and depth_limit must be at least 1")
    start = candidate.id if isinstance(candidate, Action) else candidate
    costs = _plan_costs(profile, prior)
    return costs.rollouts(start, np.random.default_rng(seed), n_rollouts, depth_limit)


def _plan_costs(profile: CostProfile | PlanCosts, prior: TransitionPrior) -> PlanCosts:
    if not isinstance(profile, PlanCosts):
        return PlanCosts(profile, prior)
    if profile.prior is not prior:
        raise ValueError("PlanCosts were built for another prior")
    return profile


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


def short_term_gain(candidates: CandidateSet | Sequence[Action]) -> list[Fraction]:
    actions = candidates.candidates if isinstance(candidates, CandidateSet) else tuple(candidates)
    k = len(actions)
    ids = [a.id for a in actions]
    return [Fraction(sum(1 for other in ids if other == mine), k) for mine in ids]


def long_term_gain(feasible: FeasibleSet | Sequence[int], k: int | None = None) -> list[Fraction]:
    counts = feasible.counts() if isinstance(feasible, FeasibleSet) else list(feasible)
    if k is None:
        k = len(counts)
    if len(counts) != k:
        raise ValueError("one feasible count per candidate required")
    total = sum(counts)
    if total == 0:
        return [Fraction(1, k)] * k
    return [Fraction(c, total) for c in counts]


def select_action(
    candidates: CandidateSet | Sequence[Action],
    g: Sequence[Fraction],
    h: Sequence[Fraction],
    profile: CostProfile,
    feasible: FeasibleSet = FeasibleSet.empty(),
    g_weight: Fraction = Fraction(1),
    h_weight: Fraction = Fraction(1),
) -> tuple[Action, FeasibleSet]:
    """Argmax of f = g + h; ties go to the cheaper mean, then lower index.

    Returns the winning action together with the feasible set to carry into
    the next step's sampling.
    """
    actions = candidates.candidates if isinstance(candidates, CandidateSet) else tuple(candidates)
    if not (len(actions) == len(g) == len(h)):
        raise ValueError("g and h must score every candidate")
    f = [g_weight * gi + h_weight * hi for gi, hi in zip(g, h)]
    return actions[_best(actions, f, profile)], feasible


def _best(actions: Sequence[Action], f: Sequence[Fraction], profile: CostProfile) -> int:
    """``select_action``'s pick for scores ``f``: the index of the winner."""
    return max(
        range(len(actions)),
        key=lambda i: (f[i], -profile_mean(profile, actions[i].id), -i),
    )


@dataclass(frozen=True)
class PlanOutcome:
    action: Action
    candidates: CandidateSet
    g: tuple[Fraction, ...]
    h: tuple[Fraction, ...]
    f: tuple[Fraction, ...]
    feasible: FeasibleSet


def plan_step(
    policy,
    history,
    prior: TransitionPrior,
    profile: CostProfile | PlanCosts,
    remaining: Decimal | Fraction,
    carried: FeasibleSet = FeasibleSet.empty(),
    step: int = 0,
    seed: int | Sequence[int] | SeedStream = 0,
    k: int = DEFAULT_K,
    n_rollouts: int = DEFAULT_N_ROLLOUTS,
    depth_limit: int = DEFAULT_DEPTH_LIMIT,
    uniform_h: bool = False,
    g_weight: Fraction = Fraction(1),
    h_weight: Fraction = Fraction(1),
) -> PlanOutcome:
    """One full planning step: sample, score both horizons, select.

    The remaining budget conditions both stages: it is forwarded to the
    policy's sampling and bounds the feasibility filter. The policy gets no
    rendered prompt; one that wants budget text builds it from ``remaining``
    and its own cost profile. Candidate rollouts use streams keyed by (seed,
    candidate index), so the per-candidate speculation is order-independent
    and could run concurrently without changing the outcome; ``seed`` may
    be the ``SeedStream`` of that base, which spares hashing it again. With
    ``uniform_h`` the speculative stage is skipped entirely (h = 1/K, empty
    carried set), which reduces K = 1 planning to plain policy sampling.
    ``profile`` may be the run's ``PlanCosts`` for ``prior``; a plain
    profile is converted on each call.
    """
    costs = _plan_costs(profile, prior)
    candidates = sample_candidates(policy, history, carried, k, step=step, remaining=remaining)
    g = short_term_gain(candidates)
    if uniform_h:
        h = [Fraction(1, k)] * k
        feasible = FeasibleSet.empty()
    else:
        # speculate(seed=base + [i]), with the base's seed words hashed once
        if isinstance(seed, SeedStream):
            stream = seed
        else:
            stream = SeedStream(np.atleast_1d(np.asarray(seed, dtype=np.uint64)).tolist())
        bound = Fraction(remaining)
        buckets = []
        for i, cand in enumerate(candidates.candidates):
            rollouts = speculate(
                cand, prior, costs, n_rollouts, depth_limit, seed=stream.rng(i)
            )
            buckets.append(costs.feasible(cand.id, rollouts, bound))
        feasible = FeasibleSet(tuple(buckets))
        h = long_term_gain(feasible, k)
    # select_action's argmax, on the f built here once
    f = tuple(g_weight * gi + h_weight * hi for gi, hi in zip(g, h))
    return PlanOutcome(
        action=candidates.candidates[_best(candidates.candidates, f, costs.profile)],
        candidates=candidates,
        g=tuple(g),
        h=tuple(h),
        f=f,
        feasible=feasible,
    )

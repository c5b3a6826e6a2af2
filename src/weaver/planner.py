"""Two-horizon action selection under a remaining budget.

Each step scores K sampled candidate actions with ``f(i) = g(i) + h(i)``:

* ``g(i)`` is short-horizon self-consistency: the fraction of the K samples
  whose action id matches candidate i (subtask wording is ignored).
* ``h(i)`` is long-horizon budget feasibility: from each candidate, symbolic
  rollouts are drawn from a first-order transition prior and costed with
  profile means; h is the candidate's share of budget-feasible rollouts,
  with a uniform 1/K fallback when nothing is feasible anywhere.

Rollouts are never executed; they spend no tokens and touch no backend.
The plan path takes its costs in one form, ``PlanCosts``: the run's
``ActionCosts`` table (the one the policy's damping test reads) over the
prior's vocabulary, every action priced, checked once per run. Each mean
is an integer over the table's common denominator, so a step works in
integers over one denominator: a rollout is its vocabulary-index path and
an int sum of units, feasible when that sum is at most the remaining
budget in whole units (``ActionCosts.cap``), and f is compared as integer
numerators over K times the feasible count. ``Fraction``s and ``ActionId``
tuples are built only where an outcome exposes them (g, h, f, the floor,
a trajectory's actions and cost), so every public value is the exact
rational one. Scaling every mean and the remaining budget by the same
factor still cannot change the selection: each unit comparison is exactly
the rational comparison of the scaled values, which the factor cancels
from. ``cost_trajectory``, ``filter_feasible``, ``short_term_gain``,
``long_term_gain`` and ``select_action`` are the rational references its
costs, filter, g, h and pick equal. Each outcome also carries its
``floor``: the largest threshold it found within the remaining budget,
from which up it plans the same.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import cached_property, lru_cache, partial
from typing import Mapping, Sequence

from .core import Action, ActionCosts, ActionId, CostProfile, FINISH
from .streams import PCG64, SeedStream, choice_cdf, default_rng

DEFAULT_K = 3
DEFAULT_N_ROLLOUTS = 5
DEFAULT_DEPTH_LIMIT = 6

# Fraction(n, d) for the ratios of counts a step exposes (g, h, f and the
# carried frequencies), few and small: at most 2 * K * K * n_rollouts. A
# Fraction is immutable, so every caller may share one.
_ratio = lru_cache(maxsize=1 << 12)(Fraction)


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
        rng: PCG64,
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
        rng: PCG64,
        depth_limit: int = DEFAULT_DEPTH_LIMIT,
    ) -> tuple[ActionId, ...]:
        (path,) = self.index_paths(start, rng, 1, depth_limit)
        vocab = self.vocabulary
        return (start, *(vocab[j] for j in path))


class SpeculativeTrajectory:
    """A symbolic rollout: its ``actions`` and their summed mean cost.

    ``speculate`` makes each one from its ``path`` of vocabulary indices,
    the candidate's first, and its cost in ``units`` of its ``PlanCosts``;
    the ``actions`` tuple and the ``estimated_cost`` Fraction are built from
    those on first read. One made from actions and a cost directly has no
    path or units. Two trajectories are equal when their actions and costs
    are.
    """

    __slots__ = ("path", "units", "_costs", "_actions", "_estimated_cost")

    def __init__(self, actions: Sequence[ActionId], estimated_cost: Fraction):
        if not actions:
            raise ValueError("trajectory must be non-empty")
        self.path = self.units = self._costs = None
        self._actions = tuple(actions)
        self._estimated_cost = estimated_cost

    @classmethod
    def _priced(cls, costs: "PlanCosts", path: tuple[int, ...], units: int) -> "SpeculativeTrajectory":
        traj = cls.__new__(cls)
        traj.path, traj.units, traj._costs = path, units, costs
        traj._actions = traj._estimated_cost = None
        return traj

    @property
    def actions(self) -> tuple[ActionId, ...]:
        if self._actions is None:
            vocab = self._costs.prior.vocabulary
            self._actions = tuple([vocab[i] for i in self.path])
        return self._actions

    @property
    def estimated_cost(self) -> Fraction:
        if self._estimated_cost is None:
            self._estimated_cost = Fraction(self.units, self._costs.denominator)
        return self._estimated_cost

    def __eq__(self, other):
        if other.__class__ is not SpeculativeTrajectory:
            return NotImplemented
        return self.actions == other.actions and self.estimated_cost == other.estimated_cost

    def __hash__(self) -> int:
        return hash((self.actions, self.estimated_cost))

    def __repr__(self) -> str:
        return f"SpeculativeTrajectory(actions={self.actions!r}, estimated_cost={self.estimated_cost!r})"


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
        by its actions alone. When one ``PlanCosts`` priced every rollout
        (as in a plan step's set), they are told apart and counted by their
        index paths, and only the counted indices become ids.
        """
        trajs = [traj for bucket in self.per_candidate for traj in bucket]
        costs = trajs[0]._costs if trajs else None
        if costs is not None and all(traj._costs is costs for traj in trajs):
            paths = {traj.path for traj in trajs}
            vocab = costs.prior.vocabulary
            counts = {vocab[i]: c for i, c in Counter(i for path in paths for i in set(path)).items()}
        else:
            paths = {traj.actions for traj in trajs}
            counts = Counter(aid for path in paths for aid in set(path))
        return {aid: _ratio(c, len(paths)) for aid, c in counts.items()}


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
        self.table = costs
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
    seed: int | Sequence[int] | PCG64 = 0,
) -> list[SpeculativeTrajectory]:
    """Sample symbolic continuations of a candidate and price them.

    Each rollout is ``costs.prior.sample_rollout`` from
    ``streams.default_rng(seed)``, which draws as ``np.random.default_rng``
    does, priced as ``cost_trajectory`` prices it; ``seed`` may be a
    generator to draw from. A rollout keeps its index path and its cost in
    units; its actions and rational cost are built on first read.
    """
    if n_rollouts < 1 or depth_limit < 1:
        raise ValueError("n_rollouts and depth_limit must be at least 1")
    start = candidate.id if isinstance(candidate, Action) else candidate
    s = costs.prior._index[start]
    units = costs.units
    priced = SpeculativeTrajectory._priced
    return [
        priced(costs, (s, *path), units[s] + sum([units[j] for j in path]))
        for path in costs.prior.index_paths(start, default_rng(seed), n_rollouts, depth_limit)
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
    """The index ``select_action`` picks for scores ``f``; ``f`` and
    ``cost_of(id)`` must order the candidates as f and their mean costs do."""
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
    ids = [cand.id for cand in candidates]
    same = [ids.count(aid) for aid in ids]  # g's numerators over K
    if uniform_h:
        kept = [0] * k
        feasible = FeasibleSet()
    else:
        # filter_feasible's inclusive test, in units: a cost is at most the
        # remaining budget exactly when its units are at most the cap.
        cap = costs.table.cap(remaining)
        buckets = []
        for i, cand in enumerate(candidates):
            rollouts = speculate(cand, costs, n_rollouts, depth_limit, seed=seed.rng(i))
            buckets.append(tuple([t for t in rollouts if t.units <= cap]))
        feasible = FeasibleSet(tuple(buckets))
        kept = [len(bucket) for bucket in buckets]
        # The dearest kept rollout is the floor if it is above the policy's.
        top = max([t.units for bucket in buckets for t in bucket], default=None)
        if top is not None and top * floor.denominator > floor.numerator * costs.denominator:
            floor = Fraction(top, costs.denominator)
    # f = g + h over one denominator: c/K + n/T = (c*T + n*K) / (K*T), where
    # T is the feasible total; h is 1/K each when T is 0.
    total = sum(kept)
    if total:
        h = tuple([_ratio(n, total) for n in kept])
        f_num = [c * total + n * k for c, n in zip(same, kept)]
        f_den = k * total
    else:
        h = (_ratio(1, k),) * k
        f_num = [c + 1 for c in same]
        f_den = k
    # select_action's argmax: f's numerators order as f does, and the
    # costs in units as the means do.
    return PlanOutcome(
        action=candidates[_best(candidates, f_num, costs.units_of)],
        candidates=candidates,
        g=tuple([_ratio(c, k) for c in same]),
        h=h,
        f=tuple([_ratio(n, f_den) for n in f_num]),
        feasible=feasible,
        floor=floor,
    )

"""Seeded stochastic rule policy standing in for an orchestrator model.

The policy reads the execution history, infers a coarse stage (gathering
evidence, synthesizing, or done), and samples the next action from a
weighted distribution over the action space. Conditioning hooks:

* ``remaining`` — budget awareness: actions whose mean cost exceeds the
  remaining budget are damped hard, read off the run's ``ActionCosts``
  table: an action is damped when its units are over the table's cap for
  ``remaining``. ``floor(remaining)`` reads the same table: the largest
  mean at or below ``remaining`` (0 if none), from which up the same
  actions are damped. A policy built without a table ignores ``remaining``.
* ``carried_freq`` — planner carry-forward: ids that appear in feasible
  speculative trajectories get a multiplicative boost.

Draw streams are keyed by (seed, task, purpose, call ordinal) and never by
method, so two methods that issue the same calls under the same
conditioning sample identical actions. A policy given a ``StreamTable``
(a synthetic world's) takes its stream from there, shared with every other
run of its task in that world.

A draw searches the weights' cumulative distribution. A budget-blind
draw's weights depend only on the action space, the stage and whether the
latest search's head is unread, so ``_BLIND`` keeps its CDF under that key,
shared by every policy in the process, and finds it without computing the
weights at all. It holds a pure function of its key, so sharing it cannot
change a draw, and it grows with the distinct action spaces a process
sees. Any other draw, budget-aware or boosted by carried plans, weighs the
actions and builds the CDF afresh: such draws are a small share of all
draws, and caching the budget-aware ones by weight vector saved under 2 ms
a gaia_planner benchmark pass.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from fractions import Fraction
from typing import Mapping, Sequence

from .agents import DONE_MARK, FINAL_RE
from .core import Action, ActionCosts, ActionId, ActionKind, FINISH, HistoryEntry
from .streams import StreamTable, choice_cdf

TOKEN_RE = re.compile(r"conclusion token is '([^']+)'")

GATHER, SYNTH, DONE = "gather", "synth", "done"

DAMPING = 0.05
DEFAULT_BOOST = 1.5  # weight of the carried frequencies
UNKNOWN_ANSWER = "unknown"

# Action space -> {(stage, unread head?): CDF} for budget-blind draws. Only
# dict get/setdefault touch it, so threads may share it.
_BLIND: dict[tuple[ActionId, ...], dict[tuple[str, bool], list[float]]] = {}


def _unread_head(text: str) -> str | None:
    """Head of the latest search-results line, if no ``[doc ...]`` tag shows
    it was read.

    Search backends put the best hit first; once the head is read and turned
    out irrelevant, rereading the tail is pointless and a fresh search is
    the better move.
    """
    for line in reversed(text.splitlines()):
        if line.startswith("search results"):
            docs = re.findall(r"d\d+", line)
            if docs and f"[doc {docs[0]}]" not in text:
                return docs[0]
            return None
    return None


def _conclusion(history: Sequence[HistoryEntry]) -> str | None:
    """The answer of the latest step that states one: a conclusion token or
    a done-marked ``FINAL:``."""
    for entry in reversed(history):
        token = TOKEN_RE.search(entry.output)
        if token:
            return token.group(1)
        if entry.output.startswith(DONE_MARK):
            final = FINAL_RE.search(entry.output)
            if final:
                return final.group(1)
    return None


def best_effort_answer(history: Sequence[HistoryEntry]) -> str:
    """The answer a run gives when it stops without a finish action: its
    conclusion if it has one, else the latest ``FINAL:`` guess, else
    ``UNKNOWN_ANSWER``."""
    answer = _conclusion(history)
    if answer is not None:
        return answer
    for entry in reversed(history):
        final = FINAL_RE.search(entry.output)
        if final:
            return final.group(1)
    return UNKNOWN_ANSWER


class RulePolicy:
    def __init__(
        self,
        seed: int,
        task_id: str,
        action_space: Sequence[ActionId],
        costs: ActionCosts | None = None,
        purpose: str = "policy",
        streams: StreamTable | None = None,
    ):
        space = list(dict.fromkeys(action_space))
        if FINISH not in space:
            space.append(FINISH)
        self.seed = int(seed)
        self.task_id = task_id
        self.space: tuple[ActionId, ...] = tuple(space)
        self.purpose = purpose
        self._ordinal = 0
        self.costs = costs
        streams = streams if streams is not None else StreamTable()
        self._stream = streams.stream(self.seed, task_id, purpose)
        self._blind = _BLIND.setdefault(self.space, {})

    # -- history interpretation --------------------------------------------

    def _text(self, history: Sequence[HistoryEntry]) -> str:
        return "\n".join(entry.output for entry in history)

    def stage(self, history: Sequence[HistoryEntry]) -> tuple[str, str | None]:
        """Coarse progress stage plus the answer, once one is extractable."""
        return self._stage(history, self._text(history))

    def _stage(self, history: Sequence[HistoryEntry], text: str) -> tuple[str, str | None]:
        answer = _conclusion(history)
        if answer is not None:
            return DONE, answer
        if "record complete" in text:
            return SYNTH, None
        return GATHER, None

    # -- sampling ------------------------------------------------------------

    def _base_weight(self, aid: ActionId, stage: str, unread: str | None) -> float:
        if aid.kind is ActionKind.FINISH:
            return 25.0 if stage == DONE else 0.05
        name = aid.name
        reasonish = "reason" in name
        gatherish = "search" in name or "browse" in name or "read" in name
        if stage == DONE:
            return 0.1
        if stage == SYNTH:
            if reasonish:
                return 12.0 if aid.kind is ActionKind.AGENT else 8.0
            return 0.2
        # gathering
        if aid.kind is ActionKind.AGENT:
            if name == "browse":
                return 12.0 if unread else 0.3
            if name == "search":
                return 2.0 if unread else 10.0
            return 0.3
        if gatherish:
            return 7.0
        return 0.2

    def weights(
        self,
        history: Sequence[HistoryEntry],
        remaining=None,
        carried_freq: Mapping[ActionId, Fraction] | None = None,
    ) -> dict[ActionId, float]:
        text = self._text(history)
        stage, _ = self._stage(history, text)
        return self._weights(stage, _unread_head(text), remaining, carried_freq)

    def _weights(
        self,
        stage: str,
        unread: str | None,
        remaining,
        carried_freq: Mapping[ActionId, Fraction] | None,
    ) -> dict[ActionId, float]:
        if remaining is None or self.costs is None:
            units, cap = {}, 0
        else:
            units, cap = self.costs.units, self.costs.cap(remaining)
        out: dict[ActionId, float] = {}
        for aid in self.space:
            w = self._base_weight(aid, stage, unread)
            if units.get(aid, cap) > cap:  # an unpriced action is never damped
                w *= DAMPING
            if carried_freq:
                w *= 1.0 + DEFAULT_BOOST * float(carried_freq.get(aid, 0))
            out[aid] = w
        return out

    def floor(self, remaining) -> Fraction:
        """The largest mean the damping test finds at or below ``remaining``
        (``ActionCosts.floor``); 0 without a table or a budget."""
        if remaining is None or self.costs is None:
            return Fraction(0)
        return self.costs.floor(remaining)

    def sample(
        self,
        k: int,
        history: Sequence[HistoryEntry],
        remaining=None,
        carried_freq: Mapping[ActionId, Fraction] | None = None,
    ) -> list[Action]:
        """Draw k candidate actions, conditioned on ``remaining`` and the
        cost table directly (see ``weights``).

        The draws are ``Generator.choice(n, size=k, p=weights)``'s: the same
        normalized CDF, searched with k uniforms from the call's stream, one
        ``bisect_right`` each (``searchsorted(side="right")``).
        """
        ordinal = self._ordinal
        self._ordinal += 1
        text = self._text(history)
        stage, answer = self._stage(history, text)
        unread = _unread_head(text)
        if carried_freq or (remaining is not None and self.costs is not None):
            cdf = choice_cdf(list(self._weights(stage, unread, remaining, carried_freq).values()))
        else:
            key = (stage, unread is not None)
            cdf = self._blind.get(key)
            if cdf is None:
                weights = self._weights(stage, unread, None, None)
                cdf = self._blind.setdefault(key, choice_cdf(list(weights.values())))
        random = self._stream.rng(ordinal).random
        picks = [bisect_right(cdf, random()) for _ in range(int(k))]
        return [self._action(self.space[i], stage, answer, history) for i in picks]

    def _action(
        self,
        aid: ActionId,
        stage: str,
        answer: str | None,
        history: Sequence[HistoryEntry],
    ) -> Action:
        if aid.kind is ActionKind.FINISH:
            payload = answer if answer is not None else best_effort_answer(history)
            return Action(aid, payload)
        if aid.kind is ActionKind.MODULE:
            return Action(aid, f"work the open parts of case {self.task_id}")
        name = aid.name
        if name == "search":
            return Action(aid, f"find the next archive item for case {self.task_id}")
        if name == "browse":
            return Action(aid, "read the most relevant unread result")
        if name == "reason":
            return Action(aid, f"derive the conclusion for case {self.task_id} from the evidence")
        if name == "critic":
            return Action(aid, f"check evidence coverage for case {self.task_id}")
        return Action(aid, f"advance case {self.task_id}")

"""Worker agents and their two backends.

The synthetic backend is a seeded document-chain world used for desk-scale
verification: every random draw comes from a stream keyed by
(world seed, task, agent, execution lane, invocation ordinal), so full runs
replay byte-identically no matter how module branches are scheduled. A
reply is a function of that key and of the evidence the worker's role
reads, so a world memoizes every reply by both for as long as it lives
(one sweep seed); a repeated call is still counted and still takes its
ordinal. The wire backend is a generic chat-completion client for real
models, and has no memo: a model's reply is not a function of its inputs.

Only a backend that blocks on I/O is worth fanning out on threads: the
synthetic world is pure Python, so under the GIL threads only add lock
handoffs. ``blocks_on_io`` is the one place callers ask.
"""

from __future__ import annotations

import hashlib
import math
import re
import threading
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Mapping, Sequence

from .core import ActionId, ActionKind, HistoryEntry, TokenUsage
from .streams import PCG64, StreamTable
from .tasks import Task

DONE_MARK = "[[done]]"
FINAL_RE = re.compile(r"FINAL:\s*(\S+)")
DOC_RE = re.compile(r"d(\d{2,})")
DOC_TAG = "[doc d{:04d}]"
# The wire backend's reply cap in tokens, and how many recent history steps
# it sends a worker.
MAX_OUTPUT_TOKENS = 1024
CONTEXT_WINDOW = 6


class BackendUnavailable(RuntimeError):
    """Transport failure that survived the retry budget."""


class UnknownDocument(KeyError):
    """Reader was pointed at a document outside the world."""


class MalformedUsage(ValueError):
    """Provider response was not JSON or omitted token counts."""


class Role(Enum):
    SEARCHER = "searcher"
    READER = "reader"
    REASONER = "reasoner"
    CRITIC = "critic"


@dataclass(frozen=True)
class WorkerAgent:
    id: ActionId
    role: Role
    model: str

    def __post_init__(self):
        if self.id.kind is not ActionKind.AGENT:
            raise ValueError("worker agents need an agent-kind id")


@dataclass(frozen=True)
class InvocationResult:
    output: str
    usage: TokenUsage


@dataclass(frozen=True)
class TokenProfile:
    """Lognormal parameters (of the underlying normal) for token draws."""

    mu_in: float
    sigma_in: float
    mu_out: float
    sigma_out: float

    def draw(self, rng: PCG64) -> TokenUsage:
        tin = max(1, round(rng.lognormal(self.mu_in, self.sigma_in)))
        tout = max(1, round(rng.lognormal(self.mu_out, self.sigma_out)))
        return TokenUsage(tin, tout)


DEFAULT_TOKEN_PROFILES: dict[str, TokenProfile] = {
    Role.SEARCHER.value: TokenProfile(math.log(900), 0.25, math.log(280), 0.25),
    Role.READER.value: TokenProfile(math.log(1400), 0.25, math.log(420), 0.25),
    Role.REASONER.value: TokenProfile(math.log(1600), 0.25, math.log(650), 0.25),
    Role.CRITIC.value: TokenProfile(math.log(1200), 0.25, math.log(300), 0.25),
    "orchestrator": TokenProfile(math.log(1000), 0.2, math.log(120), 0.2),
}


@dataclass(frozen=True)
class WorldParams:
    """Behavioural knobs of the synthetic world."""

    p_hit: float = 0.55        # single search surfaces the correct next doc
    p_reason: float = 0.65     # reasoner is right given complete evidence
    p_agg: float = 0.85        # aggregator keeps a correct branch answer
    num_docs: int = 400
    results_per_search: int = 5
    orchestrator_model: str = "claude-3-7-sonnet-latest"
    token_profiles: Mapping[str, TokenProfile] = field(
        default_factory=lambda: dict(DEFAULT_TOKEN_PROFILES)
    )

    def profile_for(self, key: str) -> TokenProfile:
        return self.token_profiles.get(key, DEFAULT_TOKEN_PROFILES[key])

    def check(self, tasks: Iterable[Task]) -> None:
        """Refuse params under which a search over ``tasks`` never returns.

        A search lists ``results_per_search`` distinct docs, drawing decoys
        until it has them; once a task's chain is read, every one of them
        lies outside the chain. So each chain must lie in ``[0, num_docs)``
        and leave at least ``results_per_search`` docs outside it.
        """
        n = self.results_per_search
        if n < 1:
            raise ValueError(f"results_per_search must be at least 1, got {n}")
        for task in tasks:
            chain = task.chain
            if not all(0 <= doc < self.num_docs for doc in chain):
                raise ValueError(
                    f"task {task.id} cites a doc outside num_docs {self.num_docs}: {list(chain)}"
                )
            if self.num_docs - len(set(chain)) < n:
                raise ValueError(
                    f"num_docs {self.num_docs} leaves task {task.id} fewer than"
                    f" results_per_search {n} docs outside its chain"
                )


def blocks_on_io(backend) -> bool:
    """Whether calls on ``backend`` (a world or a session) wait on I/O.

    A backend opts in with a true ``blocks_on_io`` class attribute; one that
    declares nothing runs inline.
    """
    return bool(getattr(backend, "blocks_on_io", False))


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class SyntheticWorld:
    """Deterministic multi-hop document world shared by all tasks of a run.

    Documents are virtual: their payloads are computed from the bound task's
    evidence chain. A world is refused (``ValueError``) for params under
    which a search over its tasks never returns (``WorldParams.check``).
    ``invocation_counter`` tallies real worker executions and
    is the hook used to verify that planning never touches the world.
    ``streams`` holds every seed stream drawn in this world, by the sessions
    and by the runs' policies and planners, so each is built once however
    many runs (methods, budgets) revisit a task. It is the world's only
    stream cache: a stream derives its state afresh for each ordinal, and a
    session asks for one only when the reply memo misses.

    ``_memo`` holds every reply the world has given, for as long as the
    world lives, by task id: one dict from each invocation's key (see
    ``SyntheticSession.invoke``) to its ``(output, input_tokens,
    output_tokens)``, which also holds each policy usage under
    ``("__policy__", ordinal)`` as ``(None, input_tokens, output_tokens)``.
    A worker's key has four parts or more, so the two kinds never collide.
    Keys and values are flat tuples of str, int and None, which the cyclic
    GC stops tracking after its first pass over them; a ``Role`` or a
    dataclass in an entry would keep it scanned for as long as the world
    lives.
    """

    def __init__(self, tasks: Sequence[Task], seed: int, params: WorldParams | None = None):
        self.seed = int(seed)
        self.params = params or WorldParams()
        self.tasks = {t.id: t for t in tasks}
        self.params.check(self.tasks.values())
        self.invocation_counter: dict[str, int] = {}
        self.streams = StreamTable()
        self._memo: dict[str, dict[tuple, tuple[str | None, int, int]]] = {}
        self._lock = threading.Lock()

    def count_invocations(self) -> int:
        with self._lock:
            return sum(self.invocation_counter.values())

    def _tally(self, agent_name: str) -> None:
        with self._lock:
            self.invocation_counter[agent_name] = self.invocation_counter.get(agent_name, 0) + 1

    def session(self, task_id: str) -> "SyntheticSession":
        return SyntheticSession(self, self.tasks[task_id])


class SyntheticSession:
    """World backend bound to a single task (one per run).

    The session draws from the world's stream table, from ``__policy__``
    and from one stream per (agent, lane), and keeps no stream of its own.
    It formats its chain's ``[doc dNNNN]`` tags once, and an invocation
    finds which of them its visible text holds (its read positions) at most
    once.

    It also takes its task's dict of the world's reply memo when it is
    built, so a worker call or policy usage that asks what an earlier one
    of any run on this task in this world asked (see ``invoke`` and
    ``policy_usage``) is answered from the memo.
    """

    def __init__(self, world: SyntheticWorld, task: Task):
        self.world = world
        self.task = task
        self.chain = task.chain
        self._tags = [DOC_TAG.format(doc) for doc in self.chain]
        self._lane_counts: dict[tuple[str, str], int] = {}
        self._policy_calls = 0
        self._replies = world._memo.setdefault(task.id, {})
        self._lock = threading.Lock()

    # -- RNG streams ------------------------------------------------------

    def _rng(self, *key: str, ordinal: int) -> PCG64:
        """``default_rng([world seed, task, *key, ordinal])``, keys hashed to 64 bits.

        The stream comes from the world's table; the generator is new, the
        caller's own.
        """
        return self.world.streams.stream(self.world.seed, self.task.id, *key).rng(ordinal)

    def _next_ordinal(self, agent_name: str, lane: str) -> int:
        with self._lock:
            ordinal = self._lane_counts.get((agent_name, lane), 0)
            self._lane_counts[(agent_name, lane)] = ordinal + 1
        return ordinal

    def policy_usage(self) -> TokenUsage:
        """Simulated orchestrator-model token usage for one policy call.

        It reads nothing but its ordinal, so the task's memo keeps it under
        ``("__policy__", ordinal)``; a session that misses draws it.
        """
        with self._lock:
            ordinal = self._policy_calls
            self._policy_calls += 1
        key = ("__policy__", ordinal)
        reply = self._replies.get(key)
        if reply is not None:
            return TokenUsage(reply[1], reply[2])
        rng = self._rng("__policy__", ordinal=ordinal)
        usage = self.world.params.profile_for("orchestrator").draw(rng)
        self._replies.setdefault(key, (None, usage.input_tokens, usage.output_tokens))
        return usage

    # -- world inspection --------------------------------------------------

    def _visible_text(self, context: Sequence[HistoryEntry], scratch: Sequence[str]) -> str:
        parts = [entry.output for entry in context]
        parts.extend(scratch)
        return "\n".join(parts)

    def _read_positions(self, text: str) -> list[int]:
        """The chain positions whose document tag ``text`` holds, ascending."""
        return [i for i, tag in enumerate(self._tags) if tag in text]

    def _next_target(self, read: Sequence[int]) -> int | None:
        """First chain doc whose payload has not yet been surfaced."""
        i = self._first_unread(read)
        return None if i is None else self.chain[i]

    def _first_unread(self, read: Sequence[int]) -> int | None:
        """The first chain position missing from the ascending ``read``."""
        for i, pos in enumerate(read):
            if i != pos:
                return i
        return len(read) if len(read) < len(self.chain) else None

    def evidence_complete(self, read: Sequence[int]) -> bool:
        return len(read) == len(self.chain)

    # -- invocation --------------------------------------------------------

    def invoke(
        self,
        agent: WorkerAgent,
        subtask: str,
        context: Sequence[HistoryEntry],
        lane: str = "main",
        scratch: Sequence[str] = (),
    ) -> InvocationResult:
        """One worker call, answered from the task's memo when it can be.

        Hit or miss, the call is tallied and advances its lane's ordinal. Its
        reply is a function of ``(agent name, role, lane, ordinal)`` and of
        the evidence its role reads, which completes the memo key: the read
        positions for a searcher, reasoner or critic, the picked doc for a
        reader, and the subtask with the read positions for an
        ``aggregate:`` call. Only a miss loads the stream, computes the
        output and draws the usage; a call that raises stores nothing.
        """
        name = agent.id.name
        role = agent.role
        role_name = role.value
        self.world._tally(name)
        ordinal = self._next_ordinal(name, lane)
        text = self._visible_text(context, scratch)
        # One flat tuple, so an entry adds one object for the GC to count.
        # After the ordinal come a reader's doc (int or None), an aggregate's
        # subtask (str) then read positions, or another role's read positions.
        aggregate = subtask.startswith("aggregate:")
        if aggregate:
            read = self._read_positions(text)
            key = (name, role_name, lane, ordinal, subtask, *read)
        elif role is Role.READER:
            doc = self._pick_doc(subtask, text)
            key = (name, role_name, lane, ordinal, doc)
        else:
            read = self._read_positions(text)
            key = (name, role_name, lane, ordinal, *read)
        reply = self._replies.get(key)
        if reply is not None:
            output, input_tokens, output_tokens = reply
            return InvocationResult(output=output, usage=TokenUsage(input_tokens, output_tokens))

        rng = self._rng(name, lane, ordinal=ordinal)
        if aggregate:
            output = self._aggregate(subtask, read, rng)
        elif role is Role.SEARCHER:
            output = self._search(read, rng)
        elif role is Role.READER:
            output = self._read(doc)
        elif role is Role.REASONER:
            output = self._reason(read, rng)
        elif role is Role.CRITIC:
            output = self._critique(read)
        else:  # pragma: no cover - enum is closed
            raise ValueError(f"unhandled role {role}")

        usage = self.world.params.profile_for(role_name).draw(rng)
        self._replies[key] = (output, usage.input_tokens, usage.output_tokens)
        return InvocationResult(output=output, usage=usage)

    def _decoys(self, rng: PCG64, n: int, exclude: set[int]) -> list[int]:
        """n distinct docs outside ``exclude``, each drawn as ``rng.integers(0, num_docs)``."""
        out: list[int] = []
        num_docs = self.world.params.num_docs
        while len(out) < n:
            cand = rng.integers(0, num_docs)
            if cand not in exclude and cand not in out:
                out.append(cand)
        return out

    def _search(self, read: Sequence[int], rng: PCG64) -> str:
        target = self._next_target(read)
        n = self.world.params.results_per_search
        if target is None:
            docs = self._decoys(rng, n, set(self.chain))
            return "search results (nothing new): " + ", ".join(f"d{d:04d}" for d in docs)
        hit = bool(rng.random() < self.world.params.p_hit)
        if hit:
            docs = [target] + self._decoys(rng, n - 1, {target})
        else:
            docs = self._decoys(rng, n, {target})
        return "search results: " + ", ".join(f"d{d:04d}" for d in docs)

    def _pick_doc(self, subtask: str, text: str) -> int | None:
        explicit = DOC_RE.search(subtask)
        if explicit:
            return int(explicit.group(1))
        # No explicit id: read the first unread candidate of the latest search.
        for line in reversed(text.splitlines()):
            if line.startswith("search results"):
                for m in DOC_RE.finditer(line):
                    doc = int(m.group(1))
                    if DOC_TAG.format(doc) not in text:
                        return doc
        return None

    def _read(self, doc: int | None) -> str:
        if doc is None:
            return "[reader] no document reference available."
        if not 0 <= doc < self.world.params.num_docs:
            raise UnknownDocument(f"d{doc:04d}")
        tag = DOC_TAG.format(doc)
        chain = self.chain
        if doc in chain:
            pos = chain.index(doc)
            if pos == len(chain) - 1:
                if self.task.meta.get("kind") == "synthesis":
                    cipher = "".join(reversed(self.task.answer))
                    return (
                        f"{DONE_MARK} {tag} record complete: the conclusion is"
                        f" encoded as cipher '{cipher}'."
                    )
                return (
                    f"{DONE_MARK} {tag} record complete: the conclusion token is"
                    f" '{self.task.answer}'."
                )
            return (
                f"{tag} reference log: proceed to archive item #{pos + 2}"
                f" for case {self.task.id}."
            )
        return f"{tag} routine filing, nothing relevant to case {self.task.id}."

    def _reason(self, read: Sequence[int], rng: PCG64) -> str:
        if self.evidence_complete(read):
            if rng.random() < self.world.params.p_reason:
                return f"{DONE_MARK} FINAL: {self.task.answer}"
            return f"{DONE_MARK} FINAL: guess-{rng.integers(1000, 10000)}"
        return (
            "evidence incomplete; best guess only."
            f" FINAL: guess-{rng.integers(1000, 10000)}"
        )

    def _critique(self, read: Sequence[int]) -> str:
        i = self._first_unread(read)
        if i is not None:
            return (
                f"critique: evidence for hop {i + 1} of case {self.task.id}"
                " is missing; search for the cited reference."
            )
        return f"{DONE_MARK} critique: evidence complete, ready to conclude."

    def _aggregate(self, subtask: str, read: Sequence[int], rng: PCG64) -> str:
        branches = [b.strip() for b in subtask[len("aggregate:"):].split("\n---\n") if b.strip()]
        finals = [m.group(1) for b in branches for m in [FINAL_RE.search(b)] if m]
        if finals:
            if self.task.answer in finals:
                if rng.random() < self.world.params.p_agg:
                    return f"{DONE_MARK} FINAL: {self.task.answer}"
                return f"{DONE_MARK} FINAL: guess-{rng.integers(1000, 10000)}"
            counts: dict[str, int] = {}
            for ans in finals:
                counts[ans] = counts.get(ans, 0) + 1
            best = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[0][0]
            return f"{DONE_MARK} FINAL: {best}"
        if any(b.startswith("search results") for b in branches):
            return self._merge_search(branches, read)
        # Mixed outputs: keep the branch with the deepest chain progress.
        def depth(branch: str) -> int:
            return len(self._read_positions(branch))
        best = sorted(branches, key=lambda b: (-depth(b), b))[0]
        return best

    def _merge_search(self, branches: list[str], read: Sequence[int]) -> str:
        target = self._next_target(read)
        listed: list[int] = []
        for branch in sorted(branches):
            for m in DOC_RE.finditer(branch):
                doc = int(m.group(1))
                if doc not in listed:
                    listed.append(doc)
        n = self.world.params.results_per_search
        if target is not None and target in listed:
            docs = [target] + [d for d in listed if d != target][: n - 1]
        else:
            docs = listed[:n]
        return "search results: " + ", ".join(f"d{d:04d}" for d in docs)


def parse_final(text: str) -> str | None:
    m = FINAL_RE.search(text)
    return m.group(1) if m else None


# -- wire backend -----------------------------------------------------------


class ChatClient:
    """Minimal chat-completion wire client.

    Request body: ``{"model": str, "messages": [{"role", "content"}],
    "max_tokens": int}``; response body: ``{"text": str, "usage":
    {"input_tokens": int, "output_tokens": int}}``. Transient failures are
    retried up to ``max_retries`` times with exponential backoff; usage from
    failed attempts is never reported.
    """

    def __init__(
        self,
        endpoint: str,
        token: str | None = None,
        transport=None,
        max_retries: int = 3,
        backoff: float = 0.25,
        sleeper=time.sleep,
    ):
        if transport is None:
            import requests

            transport = requests.Session()
        self.endpoint = endpoint
        self.token = token
        self.transport = transport
        self.max_retries = max_retries
        self.backoff = backoff
        self.sleeper = sleeper

    @staticmethod
    def from_env() -> "ChatClient":
        import os

        endpoint = os.environ.get("WEAVER_CHAT_ENDPOINT")
        if not endpoint:
            raise BackendUnavailable("WEAVER_CHAT_ENDPOINT is not set")
        return ChatClient(endpoint, os.environ.get("WEAVER_CHAT_TOKEN"))

    def chat_complete(self, request: Mapping) -> tuple[str, TokenUsage]:
        messages = request.get("messages") or []
        if not messages:
            raise ValueError("message list must be non-empty")
        headers = {}
        if self.token:
            headers["Authorization"] = f"Bearer {self.token}"
        body = {
            "model": request["model"],
            "messages": list(messages),
            "max_tokens": int(request.get("max_tokens", MAX_OUTPUT_TOKENS)),
        }
        last_error: Exception | None = None
        for attempt in range(self.max_retries):
            if attempt:
                self.sleeper(self.backoff * (2 ** (attempt - 1)))
            try:
                resp = self.transport.post(self.endpoint, json=body, headers=headers)
            except Exception as exc:  # transport-level failure
                last_error = exc
                continue
            if resp.status_code >= 500:
                last_error = BackendUnavailable(f"HTTP {resp.status_code}")
                continue
            if resp.status_code >= 400:
                raise BackendUnavailable(f"HTTP {resp.status_code}: {resp.text}")
            try:
                payload = resp.json()
            except ValueError as exc:
                raise MalformedUsage(f"provider response is not JSON: {exc}") from None
            if not isinstance(payload, dict):
                raise MalformedUsage("provider response is not a JSON object")
            usage = payload.get("usage") or {}
            if "input_tokens" not in usage or "output_tokens" not in usage:
                raise MalformedUsage("provider response omitted token counts")
            return str(payload.get("text", "")), TokenUsage(
                int(usage["input_tokens"]), int(usage["output_tokens"])
            )
        raise BackendUnavailable(f"{self.max_retries} attempts failed: {last_error}")


DEFAULT_ROLE_PROMPTS = {
    Role.SEARCHER.value: "You are a search agent. Return the most relevant document ids for the query.",
    Role.READER.value: "You are a document reader. Fetch and summarize the referenced document.",
    Role.REASONER.value: "You are a reasoning agent. Derive the answer from the gathered evidence and reply with 'FINAL: <answer>'.",
    Role.CRITIC.value: "You are a critic. Identify what evidence is still missing and what to search next.",
}


class ChatBackend:
    """Adapts the wire client to the worker-invocation contract.

    A worker is sent its role's prompt, the last ``CONTEXT_WINDOW`` history
    steps as user/assistant pairs, any scratch outputs and then the subtask,
    with a cap of ``MAX_OUTPUT_TOKENS`` on the reply. The backend is its own
    per-task session. Wire runs have no simulated orchestrator; policy draws
    report zero usage, so metering charges nothing extra on this backend.
    """

    blocks_on_io = True

    def __init__(self, client: ChatClient, role_prompts: Mapping[str, str] | None = None):
        self.client = client
        self.role_prompts = dict(role_prompts or DEFAULT_ROLE_PROMPTS)

    def invoke(
        self,
        agent: WorkerAgent,
        subtask: str,
        context: Sequence[HistoryEntry],
        lane: str = "main",
        scratch: Sequence[str] = (),
    ) -> InvocationResult:
        messages = [{"role": "system", "content": self.role_prompts[agent.role.value]}]
        recent = list(context)[-CONTEXT_WINDOW:]
        for entry in recent:
            messages.append(
                {"role": "user", "content": f"[step {entry.step}] {entry.action.subtask}"}
            )
            messages.append({"role": "assistant", "content": entry.output})
        for extra in scratch:
            messages.append({"role": "assistant", "content": extra})
        messages.append({"role": "user", "content": subtask})
        text, usage = self.client.chat_complete(
            {"model": agent.model, "messages": messages, "max_tokens": MAX_OUTPUT_TOKENS}
        )
        return InvocationResult(output=text, usage=usage)

    def session(self, task_id: str) -> "ChatBackend":
        return self

    def policy_usage(self) -> TokenUsage:
        return TokenUsage(0, 0)

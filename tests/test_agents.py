"""Synthetic world behavior, its probability knobs, and the wire client."""

import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from decimal import Decimal
from fractions import Fraction

import pytest

from weaver.agents import (
    BackendUnavailable,
    ChatBackend,
    ChatClient,
    DEFAULT_ROLE_PROMPTS,
    DOC_TAG,
    DONE_MARK,
    MalformedUsage,
    SyntheticWorld,
    UnknownDocument,
    WorldParams,
    blocks_on_io,
    parse_final,
)
from weaver.collab import ModuleRegistry, builtin_catalog
from weaver.core import (
    DEFAULT_PRICES,
    Action,
    ActionId,
    CostProfile,
    HistoryEntry,
    ProfileEntry,
    TokenUsage,
    price_cost,
    sum_records,
)
from weaver.orchestrator import Method, RunConfig, action_space, default_roster, run_task
from weaver.streams import SeedStream
from weaver.tasks import Task, synthetic_tasks


def make_world(seed=0, num_tasks=10, **params):
    tasks = synthetic_tasks(seed=seed, num_tasks=num_tasks)
    return SyntheticWorld(tasks, seed=seed, params=WorldParams(**params)), tasks


@contextmanager
def no_stream_loads():
    """Inside, loading any seed stream's state fails the test."""

    def refuse(self, *tail):
        raise AssertionError(f"stream loaded for tail {tail}")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SeedStream, "rng", refuse)
        yield


def entry(step, name, output):
    return HistoryEntry(
        step=step, action=Action(ActionId.agent(name), "x"), output=output, cost=sum_records([])
    )


def gather_chain(session, task, roster, lane="main"):
    """Search+read every hop with p_hit=1 so the evidence set is complete."""
    history = []
    for _ in task.chain:
        out = session.invoke(roster["search"], "find the next archive item", history, lane)
        history.append(entry(len(history), "search", out.output))
        out = session.invoke(roster["browse"], "read the most relevant unread result", history, lane)
        history.append(entry(len(history), "browse", out.output))
    return history


class TestWorldDeterminism:
    def test_identical_streams_replay(self):
        roster = default_roster()
        world_a, tasks = make_world(seed=3)
        world_b, _ = make_world(seed=3)
        outs = []
        for world in (world_a, world_b):
            session = world.session(tasks[0].id)
            history = []
            first = session.invoke(roster["search"], "find", history)
            history.append(entry(0, "search", first.output))
            second = session.invoke(roster["browse"], "read", history)
            outs.append((first.output, first.usage, second.output, second.usage))
        assert outs[0] == outs[1]

    def test_lanes_are_independent_of_call_order(self):
        roster = default_roster()
        world_a, tasks = make_world(seed=5)
        world_b, _ = make_world(seed=5)
        sess_a = world_a.session(tasks[0].id)
        sess_b = world_b.session(tasks[0].id)
        a0 = sess_a.invoke(roster["search"], "find", [], lane="e0").output
        a1 = sess_a.invoke(roster["search"], "find", [], lane="e1").output
        b1 = sess_b.invoke(roster["search"], "find", [], lane="e1").output
        b0 = sess_b.invoke(roster["search"], "find", [], lane="e0").output
        assert (a0, a1) == (b0, b1)

    def test_usage_counts_positive(self):
        roster = default_roster()
        world, tasks = make_world(seed=1)
        session = world.session(tasks[0].id)
        result = session.invoke(roster["search"], "find", [])
        assert result.usage.input_tokens >= 1
        assert result.usage.output_tokens >= 1


class TestWorldStreams:
    def test_sessions_of_a_task_share_one_stream_per_prefix(self):
        roster = default_roster()
        world, tasks = make_world(seed=3)
        task = tasks[0].id
        first = world.session(task)
        out = first.invoke(roster["search"], "find", [])
        usage = first.policy_usage()
        streams = dict(world.streams._streams)
        assert {(3, task, "search", "main"), (3, task, "__policy__")} <= set(streams)
        second = world.session(task)
        assert second.invoke(roster["search"], "find", []) == out
        assert second.policy_usage() == usage
        # Ordinal 1 of each misses the memo and draws from the first
        # session's streams: the table builds none.
        second.invoke(roster["search"], "find", [])
        second.policy_usage()
        assert world.streams._streams == streams
        assert all(world.streams._streams[key] is stream for key, stream in streams.items())
        other = world.session(tasks[1].id)
        other.invoke(roster["search"], "find", [])
        added = world.streams._streams.keys() - streams.keys()
        assert (3, tasks[1].id, "search", "main") in added
        assert all(key[1] == tasks[1].id for key in added)
        fresh, _ = make_world(seed=3)
        assert fresh.streams._streams == {}

    def test_a_run_does_not_depend_on_the_runs_before_it(self):
        tasks = synthetic_tasks(seed=13, num_tasks=6)
        roster = default_roster()
        registry = ModuleRegistry(roster=list(roster))
        for module in builtin_catalog("gaia"):
            registry.register(module)
        space = action_space(roster, registry.modules())
        profile = CostProfile({aid: ProfileEntry(Fraction(2, 100), 2) for aid in space})

        def run(world, task, method, budget):
            config = RunConfig(method=method, budget=Decimal(budget))
            return run_task(
                task, config, registry=registry, cost_profile=profile, backend=world, seed=13
            )

        target = (tasks[0], Method.WEAVER, "0.40")
        alone = run(SyntheticWorld(tasks, seed=13), *target)
        world = SyntheticWorld(tasks, seed=13)
        first = run(world, *target)
        for task in tasks[:3]:
            for method in (Method.REACT, Method.BEST_OF_N, Method.WEAVER):
                for budget in ("0.10", "0.40"):
                    run(world, task, method, budget)
        assert run(world, *target) == first == alone
        assert len(alone.trajectory) > 1


class TestWorldMechanics:
    def test_perfect_world_solves_lookup_without_reasoner(self):
        world, tasks = make_world(seed=2, num_tasks=30, p_hit=1.0)
        lookup = next(t for t in tasks if t.meta["kind"] == "lookup")
        roster = default_roster()
        session = world.session(lookup.id)
        history = gather_chain(session, lookup, roster)
        final = history[-1].output
        assert final.startswith(DONE_MARK)
        assert f"'{lookup.answer}'" in final

    def test_synthesis_final_doc_hides_answer_behind_cipher(self):
        world, tasks = make_world(seed=2, num_tasks=30, p_hit=1.0)
        synth = next(t for t in tasks if t.meta["kind"] == "synthesis")
        roster = default_roster()
        session = world.session(synth.id)
        history = gather_chain(session, synth, roster)
        final = history[-1].output
        assert "cipher" in final
        assert synth.answer[::-1] in final
        assert f"'{synth.answer}'" not in final

    def test_reasoner_decodes_cipher_when_certain(self):
        world, tasks = make_world(seed=2, num_tasks=30, p_hit=1.0, p_reason=1.0)
        synth = next(t for t in tasks if t.meta["kind"] == "synthesis")
        roster = default_roster()
        session = world.session(synth.id)
        history = gather_chain(session, synth, roster)
        result = session.invoke(roster["reason"], "derive the conclusion", history)
        assert parse_final(result.output) == synth.answer
        assert result.output.startswith(DONE_MARK)

    def test_premature_reasoning_reports_incomplete_evidence(self):
        world, tasks = make_world(seed=2, num_tasks=10, p_reason=1.0)
        task = next(t for t in tasks if len(t.chain) >= 2)
        roster = default_roster()
        session = world.session(task.id)
        result = session.invoke(roster["reason"], "derive the conclusion", [])
        assert "evidence incomplete" in result.output
        assert not result.output.startswith(DONE_MARK)

    def test_critic_names_first_missing_hop(self):
        world, tasks = make_world(seed=2, num_tasks=10, p_hit=1.0)
        task = next(t for t in tasks if len(t.chain) >= 2)
        roster = default_roster()
        session = world.session(task.id)
        result = session.invoke(roster["critic"], "check evidence coverage", [])
        assert "hop 1" in result.output
        assert "missing" in result.output
        history = gather_chain(session, task, roster)
        complete = session.invoke(roster["critic"], "check evidence coverage", history)
        assert "missing" not in complete.output

    def test_unknown_document_raises(self):
        # On every call, in every session: a call that raises stores nothing
        # in the world's reply memo, though it still counts.
        world, tasks = make_world(seed=2)
        roster = default_roster()
        history = [entry(0, "search", "search results: d9999")]
        for session in (world.session(tasks[0].id), world.session(tasks[0].id)):
            for _ in range(2):
                with pytest.raises(UnknownDocument):
                    session.invoke(roster["browse"], "read document d9999", history)
        assert world._memo[tasks[0].id] == {}
        assert world.count_invocations() == 4

    def test_params_under_which_a_search_never_returns_are_refused(self):
        # A search lists results_per_search distinct docs, all outside the
        # chain once it is read; five docs leave a chain of three only two.
        tasks = synthetic_tasks(seed=1, num_tasks=12, num_docs=5, chain_min=3, chain_max=3)
        with pytest.raises(ValueError, match="num_docs 5 leaves task t0000 fewer than results_per_search 5"):
            SyntheticWorld(tasks, seed=0, params=WorldParams(num_docs=5))
        with pytest.raises(ValueError, match="results_per_search must be at least 1"):
            SyntheticWorld(tasks, seed=0, params=WorldParams(results_per_search=0))
        stray = Task("t9", "q", "a", {"chain": [3, 400]})
        with pytest.raises(ValueError, match="task t9 cites a doc outside num_docs 400"):
            SyntheticWorld([stray], seed=0)
        # Exactly enough docs: every search returns, before and after the chain is read.
        world = SyntheticWorld(tasks, seed=0, params=WorldParams(num_docs=5, results_per_search=2, p_hit=1.0))
        session = world.session(tasks[0].id)
        roster = default_roster()
        history = gather_chain(session, tasks[0], roster)
        last = session.invoke(roster["search"], "find the next archive item", history)
        assert last.output.startswith("search results (nothing new): ")
        assert len(last.output.split(", ")) == 2

    def test_invocation_counter_tracks_calls(self):
        world, tasks = make_world(seed=2)
        roster = default_roster()
        session = world.session(tasks[0].id)
        before = world.count_invocations()
        session.invoke(roster["search"], "find", [])
        session.invoke(roster["search"], "find", [])
        assert world.count_invocations() == before + 2


def memo_calls(task, roster):
    """(agent, subtask, history) of a call of each reply kind on ``task``."""
    read_first = [entry(0, "browse", f"{DOC_TAG.format(task.chain[0])} reference log")]
    searched = [entry(0, "search", "search results: d0003, d0007")]
    return {
        "search": (roster["search"], "find the next archive item", read_first),
        "read": (roster["browse"], "read the most relevant unread result", searched),
        "read_explicit": (roster["browse"], "read document d0011", read_first),
        "reason": (roster["reason"], "derive the conclusion", read_first),
        "critique": (roster["critic"], "check evidence coverage", read_first),
        "aggregate_finals": (roster["reason"], "aggregate:\nFINAL: a1\n---\nFINAL: b2", read_first),
        "aggregate_search": (
            roster["reason"],
            "aggregate:\nsearch results: d0001, d0002\n---\nsearch results: d0003",
            read_first,
        ),
    }


class TestReplyMemo:
    """A world answers a call that asks what an earlier call of the same task
    asked (agent, role, lane, ordinal and the evidence the role reads) from
    its memo; the call still counts and still takes its lane's ordinal."""

    @pytest.mark.parametrize(
        "kind",
        ["search", "read", "read_explicit", "reason", "critique", "aggregate_finals", "aggregate_search"],
    )
    def test_a_hit_equals_the_call_in_a_fresh_world(self, kind):
        world, tasks = make_world(seed=4)
        task = tasks[0]
        agent, subtask, history = memo_calls(task, default_roster())[kind]
        world.session(task.id).invoke(agent, subtask, history, lane="e0")
        replies = world._memo[task.id]
        stored = dict(replies)
        assert len(stored) == 1

        session = world.session(task.id)
        before = world.count_invocations()
        with no_stream_loads():  # answered from the memo
            hit = session.invoke(agent, subtask, history, lane="e0")
        assert replies == stored
        assert world.count_invocations() == before + 1
        # The hit took ordinal 0, so this call is a miss at ordinal 1.
        after = session.invoke(agent, subtask, history, lane="e0")
        assert len(replies) == 2 and world.count_invocations() == before + 2

        fresh_world, _ = make_world(seed=4)
        fresh = fresh_world.session(task.id)
        assert [hit, after] == [fresh.invoke(agent, subtask, history, lane="e0") for _ in range(2)]
        assert hit.usage != after.usage
        # Flat tuples of atoms, which the cyclic GC stops tracking.
        assert all(type(x) in (str, int, type(None)) for key, reply in replies.items() for x in key + reply)

    @pytest.mark.parametrize(
        "name, first, second",
        [
            ("search", ("find", 0), ("find", 1)),
            ("search", ("find", 1), ("find", 2)),
            ("browse", ("read document d0011", 1), ("read document d0012", 1)),
            ("critic", ("check evidence coverage", 1), ("check evidence coverage", 2)),
            ("reason", ("aggregate:\nFINAL: a1", 1), ("aggregate:\nFINAL: b2", 1)),
        ],
    )
    def test_other_evidence_is_a_miss(self, name, first, second):
        """Same agent, lane and ordinal; (subtask, how many hops were read)."""
        world, tasks = make_world(seed=4)
        task = tasks[0]
        assert len(task.chain) == 3
        agent = default_roster()[name]

        def call(session, subtask, hops):
            history = [
                entry(i, "browse", f"{DOC_TAG.format(doc)} reference log")
                for i, doc in enumerate(task.chain[:hops])
            ]
            return session.invoke(agent, subtask, history)

        earlier = call(world.session(task.id), *first)
        got = call(world.session(task.id), *second)
        assert len(world._memo[task.id]) == 2
        fresh_world, _ = make_world(seed=4)
        assert got == call(fresh_world.session(task.id), *second)
        assert got.output != earlier.output

    def test_policy_usage_hits_equal_a_fresh_world(self):
        world, tasks = make_world(seed=4)
        task = tasks[0]
        first = world.session(task.id)
        drawn = [first.policy_usage() for _ in range(3)]
        session = world.session(task.id)
        with no_stream_loads():
            hits = [session.policy_usage() for _ in range(3)]
        assert session._policy_calls == 3
        memo = world._memo[task.id]
        assert memo == {("__policy__", i): (None, u.input_tokens, u.output_tokens) for i, u in enumerate(drawn)}
        beyond = session.policy_usage()  # ordinal 3: a miss
        assert len(memo) == 4
        fresh_world, _ = make_world(seed=4)
        fresh = fresh_world.session(task.id)
        assert hits + [beyond] == [fresh.policy_usage() for _ in range(4)]
        assert len(set(hits + [beyond])) == 4

    def test_a_worker_call_and_a_policy_usage_at_one_ordinal_share_the_dict(self):
        # Both take ordinal 0 of the task's one dict; neither answers for the other.
        world, tasks = make_world(seed=4)
        task = tasks[0]
        agent, subtask, history = memo_calls(task, default_roster())["search"]
        first = world.session(task.id)
        first.invoke(agent, subtask, history)
        first.policy_usage()
        assert len(world._memo[task.id]) == 2
        session = world.session(task.id)
        with no_stream_loads():
            reply = session.invoke(agent, subtask, history)
            usage = session.policy_usage()
        assert reply == make_world(seed=4)[0].session(task.id).invoke(agent, subtask, history)
        assert usage == make_world(seed=4)[0].session(task.id).policy_usage()
        assert usage != reply.usage

    def test_sessions_of_a_task_on_threads_share_one_memo(self):
        # Sessions of one task fill its memo from several threads at once. A
        # policy usage stored at the wrong ordinal, or a reply stored under
        # the wrong key, would hand some session another call's reply.
        world, tasks = make_world(seed=4)
        task = tasks[0]
        roster = default_roster()
        calls = list(memo_calls(task, roster).values())

        def run(session):
            out = []
            for i in range(40):
                out.append(session.policy_usage())
                agent, subtask, history = calls[i % len(calls)]
                out.append(session.invoke(agent, subtask, history, lane=f"e{i % 3}"))
            return out

        fresh_world, _ = make_world(seed=4)
        expected = run(fresh_world.session(task.id))
        workers = 6
        barrier = threading.Barrier(workers)

        def work(_):
            session = world.session(task.id)
            barrier.wait(timeout=10)
            return run(session)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                futures = [pool.submit(work, w) for w in range(workers)]
                got = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        assert got == [expected] * workers
        assert world._memo[task.id] == fresh_world._memo[task.id]
        assert world.count_invocations() == 40 * workers


class TestWorldStatistics:
    def test_search_hit_rate_matches_p_hit(self):
        p_hit = 0.55
        world, tasks = make_world(seed=11, num_tasks=40, p_hit=p_hit)
        roster = default_roster()
        hits = trials = 0
        for task in tasks:
            session = world.session(task.id)
            target = f"d{task.chain[0]:04d}"
            for rep in range(25):
                out = session.invoke(roster["search"], "find", [], lane=f"mc{rep}").output
                docs = out.split(": ")[1].split(", ")
                trials += 1
                hits += docs[0] == target
        rate = hits / trials
        assert abs(rate - p_hit) < 0.05, rate

    def test_reason_success_rate_matches_p_reason(self):
        p_reason = 0.65
        world, tasks = make_world(seed=13, num_tasks=40, p_hit=1.0, p_reason=p_reason)
        roster = default_roster()
        wins = trials = 0
        for task in tasks:
            session = world.session(task.id)
            history = gather_chain(session, task, roster)
            for rep in range(25):
                out = session.invoke(
                    roster["reason"], "derive", history, lane=f"mc{rep}"
                ).output
                trials += 1
                wins += parse_final(out) == task.answer
        rate = wins / trials
        assert abs(rate - p_reason) < 0.05, rate


class FakeResponse:
    def __init__(self, status_code=200, payload=None, text=""):
        self.status_code = status_code
        self._payload = payload or {}
        self.text = text

    def json(self):
        return self._payload


class NotJsonResponse(FakeResponse):
    """A 2xx reply whose body does not parse, as from a proxy error page."""

    def json(self):
        raise ValueError("Expecting value: line 1 column 1 (char 0)")


class FakeTransport:
    def __init__(self, responses):
        self.responses = list(responses)
        self.calls = []

    def post(self, url, json=None, headers=None):
        self.calls.append({"url": url, "json": json, "headers": headers})
        item = self.responses.pop(0)
        if isinstance(item, Exception):
            raise item
        return item


def ok_response(text="FINAL: 42"):
    return FakeResponse(
        payload={"text": text, "usage": {"input_tokens": 10, "output_tokens": 5}}
    )


class TestChatClient:
    def test_success_returns_text_and_usage(self):
        transport = FakeTransport([ok_response()])
        client = ChatClient("http://x", token="tok", transport=transport, sleeper=lambda s: None)
        text, usage = client.chat_complete(
            {"model": "m", "messages": [{"role": "user", "content": "hi"}]}
        )
        assert text == "FINAL: 42"
        assert usage == TokenUsage(10, 5)
        assert transport.calls[0]["headers"]["Authorization"] == "Bearer tok"

    def test_retries_5xx_with_backoff_then_succeeds(self):
        sleeps = []
        transport = FakeTransport([FakeResponse(503), FakeResponse(502), ok_response()])
        client = ChatClient(
            "http://x", transport=transport, max_retries=3, backoff=0.25, sleeper=sleeps.append
        )
        text, _ = client.chat_complete(
            {"model": "m", "messages": [{"role": "user", "content": "hi"}]}
        )
        assert text == "FINAL: 42"
        assert sleeps == [0.25, 0.5]

    def test_exhausted_retries_raise(self):
        transport = FakeTransport([FakeResponse(500)] * 3)
        client = ChatClient("http://x", transport=transport, max_retries=3, sleeper=lambda s: None)
        with pytest.raises(BackendUnavailable, match="3 attempts"):
            client.chat_complete({"model": "m", "messages": [{"role": "user", "content": "x"}]})

    def test_transport_errors_count_as_retries(self):
        transport = FakeTransport([ConnectionError("boom"), ok_response()])
        client = ChatClient("http://x", transport=transport, sleeper=lambda s: None)
        text, _ = client.chat_complete(
            {"model": "m", "messages": [{"role": "user", "content": "x"}]}
        )
        assert text == "FINAL: 42"

    def test_4xx_fails_fast_without_retry(self):
        transport = FakeTransport([FakeResponse(401, text="denied")])
        client = ChatClient("http://x", transport=transport, sleeper=lambda s: None)
        with pytest.raises(BackendUnavailable, match="401"):
            client.chat_complete({"model": "m", "messages": [{"role": "user", "content": "x"}]})
        assert len(transport.calls) == 1

    def test_missing_usage_is_malformed(self):
        transport = FakeTransport([FakeResponse(payload={"text": "hi"})])
        client = ChatClient("http://x", transport=transport, sleeper=lambda s: None)
        with pytest.raises(MalformedUsage):
            client.chat_complete({"model": "m", "messages": [{"role": "user", "content": "x"}]})

    def test_non_json_body_is_malformed(self):
        transport = FakeTransport([NotJsonResponse(text="<html>bad gateway</html>")])
        client = ChatClient("http://x", transport=transport, sleeper=lambda s: None)
        with pytest.raises(MalformedUsage, match="not JSON"):
            client.chat_complete({"model": "m", "messages": [{"role": "user", "content": "x"}]})
        assert len(transport.calls) == 1

    def test_non_object_body_is_malformed(self):
        transport = FakeTransport([FakeResponse(payload=["FINAL: 42"])])
        client = ChatClient("http://x", transport=transport, sleeper=lambda s: None)
        with pytest.raises(MalformedUsage, match="not a JSON object"):
            client.chat_complete({"model": "m", "messages": [{"role": "user", "content": "x"}]})

    def test_empty_messages_rejected_before_any_request(self):
        transport = FakeTransport([])
        client = ChatClient("http://x", transport=transport, sleeper=lambda s: None)
        with pytest.raises(ValueError):
            client.chat_complete({"model": "m", "messages": []})
        assert transport.calls == []

    def test_from_env_requires_endpoint(self, monkeypatch):
        monkeypatch.delenv("WEAVER_CHAT_ENDPOINT", raising=False)
        with pytest.raises(BackendUnavailable):
            ChatClient.from_env()


class TestChatBackend:
    def test_invoke_builds_role_prompted_messages(self):
        transport = FakeTransport([ok_response("found d0001")])
        client = ChatClient("http://x", transport=transport, sleeper=lambda s: None)
        backend = ChatBackend(client)
        roster = default_roster()
        history = [entry(0, "search", "search results: d0001")]
        result = backend.invoke(roster["browse"], "read d0001", history)
        assert result.output == "found d0001"
        sent = transport.calls[0]["json"]["messages"]
        assert sent[0]["role"] == "system"
        assert sent[-1] == {"role": "user", "content": "read d0001"}

    def test_invoke_sends_the_last_steps_and_caps_the_reply(self):
        transport = FakeTransport([ok_response("ok")])
        client = ChatClient("http://x", transport=transport, sleeper=lambda s: None)
        roster = default_roster()
        history = [
            HistoryEntry(
                step=i, action=Action(ActionId.agent("search"), f"query {i}"), output=f"out {i}", cost=sum_records([])
            )
            for i in range(8)
        ]
        ChatBackend(client).invoke(roster["reason"], "answer now", history)
        body = transport.calls[0]["json"]
        assert body["max_tokens"] == 1024
        pairs = [
            message
            for i in range(2, 8)
            for message in (
                {"role": "user", "content": f"[step {i}] query {i}"},
                {"role": "assistant", "content": f"out {i}"},
            )
        ]
        assert body["messages"] == [
            {"role": "system", "content": DEFAULT_ROLE_PROMPTS["reasoner"]},
            *pairs,
            {"role": "user", "content": "answer now"},
        ]

    def test_identical_calls_each_reach_the_client(self):
        transport = FakeTransport([ok_response("first"), ok_response("second")])
        client = ChatClient("http://x", transport=transport, sleeper=lambda s: None)
        backend = ChatBackend(client)
        roster = default_roster()
        history = [entry(0, "search", "search results: d0001")]
        outputs = [backend.invoke(roster["browse"], "read d0001", history).output for _ in range(2)]
        assert outputs == ["first", "second"]
        assert len(transport.calls) == 2
        assert transport.calls[0]["json"] == transport.calls[1]["json"]

    def test_session_adapter_reports_zero_policy_usage(self):
        transport = FakeTransport([])
        client = ChatClient("http://x", transport=transport, sleeper=lambda s: None)
        session = ChatBackend(client).session("t1")
        assert session.policy_usage() == TokenUsage(0, 0)


class TestBlocksOnIo:
    def test_wire_backend_and_session_block_on_io(self):
        backend = ChatBackend(ChatClient("http://x", transport=FakeTransport([])))
        assert blocks_on_io(backend)
        assert blocks_on_io(backend.session("t1"))

    def test_synthetic_world_and_undeclared_backends_run_inline(self):
        world, tasks = make_world()
        assert not blocks_on_io(world)
        assert not blocks_on_io(world.session(tasks[0].id))
        assert not blocks_on_io(object())


# -- I/O-bound stand-ins over the synthetic world ------------------------------


class Overlap:
    """Counts calls in flight across threads and records the peak.

    The first call is held until a second one is in flight, so a backend that
    really fans out reaches a peak of at least 2 whatever the scheduling; the
    timeout only keeps a serial caller from hanging.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._now = 0
        self.peak = 0
        self._overlapped = threading.Event()

    @contextmanager
    def call(self):
        with self._lock:
            self._now += 1
            self.peak = max(self.peak, self._now)
            if self._now >= 2:
                self._overlapped.set()
        try:
            self._overlapped.wait(timeout=10)
            yield
        finally:
            with self._lock:
                self._now -= 1


class WireLikeSession:
    """A synthetic session that declares it blocks on I/O, like a wire session."""

    blocks_on_io = True

    def __init__(self, inner, overlap=None):
        self.inner = inner
        self.overlap = overlap or Overlap()

    def invoke(self, agent, subtask, context, lane="main", scratch=()):
        with self.overlap.call():
            return self.inner.invoke(agent, subtask, context, lane=lane, scratch=scratch)

    def policy_usage(self):
        return self.inner.policy_usage()


class FaultySession:
    """A synthetic session whose provider faults on the calls ``fails`` picks.

    ``billed`` holds the cost of every call that returned a reply.
    """

    def __init__(self, inner, fails, fault=BackendUnavailable):
        self.inner = inner
        self.fails = fails
        self.fault = fault
        self.billed = []

    def invoke(self, agent, subtask, context, lane="main", scratch=()):
        if self.fails(agent.id.name, lane):
            raise self.fault(f"provider fault on {lane}")
        result = self.inner.invoke(agent, subtask, context, lane=lane, scratch=scratch)
        self.billed.append(price_cost(result.usage, agent.model, DEFAULT_PRICES))
        return result

    def policy_usage(self):
        return self.inner.policy_usage()

"""The async sweep service: dedup, streaming, budgets, and the TCP front.

``SweepService.run`` must be functionally interchangeable with
``run_sweep`` (same records, same order); everything the service adds —
in-flight deduplication, streamed partial batches, cell budgets, the JSON
protocol — is behaviour on top, pinned here.
"""

from __future__ import annotations

import asyncio
import base64
import contextlib
import dataclasses
import gc
import json
import logging
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.service.service as service_module
from repro.api import JobSpec, Sweep, TimingSimBackend, run_sweep
from repro.api.backends import get_backend
from repro.cluster.spec import ClusterSpec
from repro.exceptions import BudgetExceededError, ConfigurationError
from repro.scheduling.core import build_sweep_plan
from repro.service import CacheStats, ResultCache, SweepService
from repro.service.server import (
    LINE_LIMIT,
    _canonical_request,
    _connection,
    _self_test,
    self_test,
    sweep_from_request,
)
from repro.stragglers.models import ShiftedExponentialDelay

#: Requests whose fields have the wrong JSON type.
MALFORMED_REQUESTS = [
    {"loads": 5},
    {"workers": None},
    {"seed": [1]},
    {"schemes": "bcc"},
    {"schemes": ["bcc", 3]},
    {"loads": ["5"]},
    {"trials": True},
    {"engine": None},
    {"backend": 3},
    {"record": ["summary"]},
    {"trial_batching": {"mode": "auto"}},
]


#: A small sweep request the server answers with two records.
VALID_REQUEST = {"schemes": ["bcc"], "loads": [4], "workers": 10, "units": 10,
                 "iterations": 3, "trials": 2}

#: Calls made by unpickling a :class:`_Payload`; the server must make none.
UNPICKLED_CALLS = []


def _record_call(tag):
    UNPICKLED_CALLS.append(tag)


class _Payload:
    """Pickles to a call of :func:`_record_call` when it is loaded."""

    def __reduce__(self):
        return _record_call, ("unpickled",)


@contextlib.asynccontextmanager
async def connection(service=None):
    """A client connection to an in-process server: ``(reader, writer)``."""
    if service is None:
        service = SweepService()
    server = await asyncio.start_server(
        lambda reader, writer: _connection(service, reader, writer),
        "127.0.0.1",
        0,
    )
    port = server.sockets[0].getsockname()[1]
    async with server:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        try:
            yield reader, writer
        finally:
            writer.close()


async def reply(reader):
    """The events of one reply, up to its ``done`` or ``error`` event."""
    events = []
    while not events or events[-1]["event"] not in ("done", "error"):
        line = await reader.readline()
        assert line, "the server closed the connection"
        events.append(json.loads(line))
    return events


def converse_lines(lines, service=None):
    """Send each request line over one connection; one event list per line."""

    async def scenario():
        async with connection(service) as (reader, writer):
            replies = []
            for line in lines:
                writer.write(line + b"\n")
                await writer.drain()
                replies.append(await reply(reader))
            return replies

    return asyncio.run(scenario())


def converse(payloads, service=None):
    """Send each request over one connection to an in-process server.

    Returns one event list per request, each ending at its ``done`` or
    ``error`` event.
    """
    return converse_lines(
        [json.dumps(payload).encode("utf-8") for payload in payloads], service
    )


def make_sweep(trials=2, seed=0):
    cluster = ClusterSpec.homogeneous(8, ShiftedExponentialDelay(1.0, 0.5))
    base = JobSpec(
        scheme={"name": "bcc", "load": 4},
        cluster=cluster,
        num_units=16,
        num_iterations=3,
        seed=seed,
    )
    return Sweep(
        base,
        parameters={"scheme.load": [4, 8]},
        trials=trials,
        backend=TimingSimBackend(engine="auto"),
    )


def records_of(result):
    return [(r.cell, r.trial, r.result) for r in result]


class TestSweepService:
    def test_run_matches_run_sweep(self):
        sweep = make_sweep()
        service = SweepService(max_workers=4)
        result = service.submit(sweep, record="full")
        assert records_of(result) == records_of(run_sweep(sweep))

    def test_resubmission_is_served_from_cache(self):
        sweep = make_sweep()
        service = SweepService()
        first = service.submit(sweep)
        executed = service.stats.tasks_executed
        second = service.submit(sweep)
        assert service.stats.tasks_executed == executed
        assert service.cache.stats.hits == executed
        assert records_of(second) == records_of(first)

    def test_stream_yields_every_record(self):
        sweep = make_sweep()
        service = SweepService(max_workers=2)

        async def collect():
            batches = []
            async for batch in service.stream(sweep, record="full"):
                batches.append(batch)
            return batches

        batches = asyncio.run(collect())
        streamed = sorted(
            ((r.cell, r.trial, r.result) for batch in batches for r in batch),
        )
        assert streamed == sorted(records_of(run_sweep(sweep)))
        # streamed batches arrive one per scheduled task
        assert all(batch for batch in batches)

    def test_concurrent_identical_submissions_deduplicate(self):
        sweep = make_sweep()
        service = SweepService(max_workers=2)

        async def both():
            return await asyncio.gather(
                service.run(sweep, record="full"),
                service.run(sweep, record="full"),
            )

        first, second = asyncio.run(both())
        assert records_of(first) == records_of(second)
        deduped = service.stats.tasks_deduplicated
        hits = service.cache.stats.hits
        # Every task of the second submission was either deduplicated
        # in-flight or served from the cache; none executed twice.
        assert deduped + hits == service.stats.tasks_executed
        assert service.cache.stats.stores == service.stats.tasks_executed

    def test_cell_budget_rejects_before_execution(self):
        service = SweepService(cell_budget=1)
        with pytest.raises(BudgetExceededError, match="at most 1"):
            service.submit(make_sweep())
        assert service.stats.tasks_executed == 0
        assert service.stats.budget_rejections == 1

    def test_budget_admits_small_submissions(self):
        service = SweepService(cell_budget=2)
        result = service.submit(make_sweep())
        assert len(records_of(result)) == 4

    def test_seed_sequence_sweep_runs_concurrently_and_caches(self):
        # A caller-owned SeedSequence seeds the same tasks on every
        # submission, so a multi-worker service caches all of them and
        # serves the resubmission without executing anything.
        sweep = make_sweep(seed=np.random.SeedSequence(3))
        service = SweepService(max_workers=4)
        first = service.submit(sweep, record="full")
        executed = service.stats.tasks_executed
        assert records_of(first) == records_of(run_sweep(sweep))
        assert service.cache.stats.stores == executed >= 1
        second = service.submit(sweep, record="full")
        assert records_of(second) == records_of(first)
        assert service.stats.tasks_executed == executed
        assert service.cache.stats.hits == executed

    def test_service_shares_a_cache_with_run_sweep(self):
        sweep = make_sweep()
        cache = ResultCache()
        run_sweep(sweep, record="summary", cache=cache)
        service = SweepService(cache=cache)
        service.submit(sweep, record="summary")
        assert service.stats.tasks_executed == 0

    def test_invalid_record_rejected(self):
        service = SweepService()
        with pytest.raises(ConfigurationError, match="record"):
            service.submit(make_sweep(), record="everything")

    def test_invalid_trial_batching_rejected(self):
        service = SweepService()
        with pytest.raises(ConfigurationError, match="trial_batching"):
            service.submit(make_sweep(), trial_batching="sometimes")

    def test_failing_request_leaves_no_sibling_failure_unretrieved(self, caplog):
        # Every cell of this request fails (more BCC batches than workers).
        # The caller gets the typed error; the siblings' failures must be
        # retrieved, or asyncio logs "Task exception was never retrieved"
        # for each when it collects them.
        sweep, record, trial_batching = sweep_from_request(
            {"workers": 1, "iterations": 2}
        )
        assert len(sweep.cells()) > 1

        async def consume():
            async for _ in SweepService().stream(
                sweep, record=record, trial_batching=trial_batching
            ):
                pass

        with caplog.at_level(logging.ERROR, logger="asyncio"):
            with pytest.raises(ConfigurationError, match="workers"):
                asyncio.run(consume())
            gc.collect()
        assert [r.getMessage() for r in caplog.records if r.name == "asyncio"] == []

    def test_worker_limited_service_survives_repeat_submissions(self):
        # Each submit() drives a fresh asyncio.run loop; the executor's
        # concurrency semaphore must not stay bound to the first loop.
        service = SweepService(max_workers=2)
        service.submit(make_sweep(seed=0))
        result = service.submit(make_sweep(seed=1))  # distinct: forces execution
        assert len(records_of(result)) == 4

    def test_cancelled_waiter_keeps_inflight_dedup(self):
        # A cancelled caller must not evict the in-flight entry while the
        # shielded execution is still running — a concurrent identical
        # submission has to deduplicate against it, not recompute.
        from repro.api.backends import get_backend
        from repro.scheduling.core import build_sweep_plan

        sweep = make_sweep()
        plan = build_sweep_plan(
            sweep, backend=get_backend(sweep.backend), record="summary"
        )
        task = plan.tasks[0]

        async def scenario():
            service = SweepService(max_workers=2)
            key = service.cache.task_key(task)
            assert key is not None
            started = asyncio.Event()
            release = asyncio.Event()

            async def slow_run_task(_task):
                started.set()
                await release.wait()
                return ["sentinel"]

            service.executor.run_task = slow_run_task
            waiter = asyncio.ensure_future(service._cached_task(task, key))
            await started.wait()
            waiter.cancel()
            with pytest.raises(asyncio.CancelledError):
                await waiter
            assert key in service._inflight
            second = asyncio.ensure_future(service._cached_task(task, key))
            await asyncio.sleep(0)
            release.set()
            assert await second == ["sentinel"]
            assert service.stats.tasks_deduplicated == 1
            assert service.stats.tasks_executed == 1
            await asyncio.sleep(0)  # let the done-callback clear the key
            assert key not in service._inflight

        asyncio.run(scenario())


#: A request of two cells (bcc and uncoded) whose plan has several tasks.
MEMO_REQUEST = {"schemes": ["bcc", "uncoded"], "loads": [4], "workers": 8,
                "units": 8, "iterations": 2, "trials": 2}


def plan_of(payload):
    """The tasks of the plan the server builds for ``payload``."""
    sweep, record, trial_batching = sweep_from_request(payload)
    return build_sweep_plan(
        sweep,
        backend=get_backend(sweep.backend),
        record=record,
        trial_batching=trial_batching,
    ).tasks


def keyed(service, payload):
    """``payload``'s task keys, through the service's memo as the server asks."""
    return list(service._plan_keys(plan_of(payload), _canonical_request(payload)))


@st.composite
def valid_payloads(draw):
    """Sweep requests the server accepts, some fields left at their defaults."""
    workers = draw(st.integers(min_value=4, max_value=10))
    payload = {
        "schemes": draw(
            st.lists(
                st.sampled_from(["bcc", "uncoded", "cyclic-repetition", "randomized"]),
                min_size=1,
                max_size=3,
                unique=True,
            )
        ),
        "loads": draw(
            st.lists(st.integers(1, workers), min_size=1, max_size=2, unique=True)
        ),
        "workers": workers,
        "units": workers,
        "iterations": draw(st.integers(1, 3)),
        "trials": draw(st.integers(1, 3)),
        "seed": draw(st.integers(0, 2**32)),
        "engine": draw(st.sampled_from(["auto", "vectorized", "loop"])),
        "record": draw(st.sampled_from(["summary", "full"])),
        "trial_batching": draw(st.sampled_from(["auto", "never"])),
    }
    for key in draw(st.sets(st.sampled_from(["iterations", "trials", "seed", "engine"]))):
        del payload[key]
    return payload


class TestRequestMemo:
    """The service keys a request's plan once and replays take the keys."""

    @settings(max_examples=25, deadline=None)
    @given(payload=valid_payloads())
    def test_memoized_keys_equal_a_fresh_pass(self, payload):
        service = SweepService()
        first = keyed(service, payload)
        again = keyed(service, payload)
        assert service.stats.key_memo_hits == 1
        assert again == first == ResultCache().task_keys(plan_of(payload))

    def test_reordered_json_keys_share_an_entry(self):
        reordered = dict(reversed(list(MEMO_REQUEST.items())))
        assert json.dumps(reordered) != json.dumps(MEMO_REQUEST)
        service = SweepService()
        first, second = converse([MEMO_REQUEST, reordered], service)
        assert first[-1]["event"] == second[-1]["event"] == "done"
        assert service.stats.key_memo_hits == 1
        assert len(service._request_keys) == 1
        assert second[-1]["cache_hits"] == second[-1]["cache_lookups"] > 0

    def test_a_different_seed_misses(self):
        service = SweepService()
        converse([{**MEMO_REQUEST, "seed": 0}, {**MEMO_REQUEST, "seed": 1}], service)
        assert service.stats.key_memo_hits == 0
        assert len(service._request_keys) == 2

    def test_a_spelled_out_default_misses_but_keys_alike(self):
        service = SweepService()
        omitted = keyed(service, MEMO_REQUEST)
        spelled = keyed(service, {**MEMO_REQUEST, "seed": 0})
        assert service.stats.key_memo_hits == 0
        assert spelled == omitted

    def test_a_rejected_request_leaves_no_entry(self):
        service = SweepService(cell_budget=1)
        replies = converse(
            [
                {**MEMO_REQUEST, "schemes": ["no-such-scheme"]},
                {**MEMO_REQUEST, "workers": "8"},
                MEMO_REQUEST,  # two cells, over the budget
            ],
            service,
        )
        assert [events[-1]["event"] for events in replies] == ["error"] * 3
        assert service.stats.budget_rejections == 1
        assert not service._request_keys and service._request_key_count == 0

    def test_the_bound_evicts_the_least_recently_used_request(self, monkeypatch):
        first, second, third = ({**MEMO_REQUEST, "seed": seed} for seed in range(3))
        size = len(plan_of(first))
        assert size > 1
        monkeypatch.setattr(service_module, "REQUEST_MEMO_KEYS", 2 * size)
        service = SweepService()
        keyed(service, first)
        keyed(service, second)
        keyed(service, first)  # a hit: the first is now the most recent
        keyed(service, third)  # evicts the second
        assert service.stats.key_memo_hits == 1
        assert service._request_key_count == 2 * size
        keyed(service, first)
        keyed(service, third)
        assert service.stats.key_memo_hits == 3
        keyed(service, second)
        assert service.stats.key_memo_hits == 3

    def test_a_request_over_the_bound_is_not_memoized(self, monkeypatch):
        small = {**MEMO_REQUEST, "schemes": ["uncoded"]}
        assert len(plan_of(small)) < len(plan_of(MEMO_REQUEST)) - 1
        monkeypatch.setattr(
            service_module, "REQUEST_MEMO_KEYS", len(plan_of(MEMO_REQUEST)) - 1
        )
        service = SweepService()
        keyed(service, small)
        assert keyed(service, MEMO_REQUEST) == keyed(service, MEMO_REQUEST)
        assert service.stats.key_memo_hits == 0
        # The oversized request evicted nothing.
        assert service._request_key_count == len(plan_of(small))
        keyed(service, small)
        assert service.stats.key_memo_hits == 1

    def test_a_hit_leaves_cache_stats_as_a_fresh_keying_would(self):
        service = SweepService()
        keyed(service, MEMO_REQUEST)
        before = dataclasses.replace(service.cache.stats)
        fresh = ResultCache()
        fresh.task_keys(plan_of(MEMO_REQUEST))
        keyed(service, MEMO_REQUEST)
        assert service.stats.key_memo_hits == 1
        assert service.cache.stats == before
        assert fresh.stats == CacheStats()

    def test_a_plan_with_an_uncacheable_task_is_keyed_afresh(self):
        model = ShiftedExponentialDelay(1.0, 0.5)
        model.hook = lambda: None  # code, not configuration
        base = JobSpec(
            scheme={"name": "bcc", "load": 4},
            cluster=ClusterSpec.homogeneous(8, model),
            num_units=16,
            num_iterations=3,
        )
        sweep = Sweep(base, trials=2, backend=TimingSimBackend(engine="auto"))
        tasks = build_sweep_plan(sweep, backend=sweep.backend).tasks
        service = SweepService()
        for _ in range(2):
            assert list(service._plan_keys(tasks, b"request")) == [None] * len(tasks)
        assert service.stats.key_memo_hits == 0
        assert service.cache.stats.uncacheable == 2 * len(tasks)
        assert not service._request_keys

    def test_submissions_without_a_request_are_keyed_afresh(self):
        service = SweepService()
        service.submit(make_sweep())
        service.submit(make_sweep())
        assert service.stats.key_memo_hits == 0
        assert not service._request_keys


class TestServer:
    def test_sweep_from_request_builds_cli_equivalent_grid(self):
        sweep, record, trial_batching = sweep_from_request(
            {"schemes": ["bcc", "uncoded"], "loads": [5, 10], "workers": 20,
             "units": 20, "iterations": 5, "trials": 2}
        )
        assert len(sweep.cells()) == 3  # bcc x 2 loads + uncoded
        assert sweep.trials == 2
        assert record == "summary"
        assert trial_batching == "auto"

    def test_unknown_request_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown request key"):
            sweep_from_request({"schemes": ["bcc"], "palette": "dark"})

    def test_empty_scheme_list_rejected(self):
        # An IndexError here would kill the connection task with no error
        # event; the handler only translates ReproError/ValueError.
        with pytest.raises(ConfigurationError, match="at least one scheme"):
            sweep_from_request({"schemes": []})

    def test_empty_load_list_rejected_when_schemes_sweep_load(self):
        with pytest.raises(ConfigurationError, match="zero sweep cells"):
            sweep_from_request({"schemes": ["bcc"], "loads": []})

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown scheme"):
            sweep_from_request({"schemes": ["quantum"]})

    def test_unsupported_backend_rejected(self):
        with pytest.raises(ConfigurationError, match="backend"):
            sweep_from_request({"backend": "multiprocess"})

    @pytest.mark.parametrize("payload", MALFORMED_REQUESTS)
    def test_wrong_field_types_rejected(self, payload):
        with pytest.raises(ConfigurationError, match="request field"):
            sweep_from_request(payload)

    @pytest.mark.parametrize("key", ["backend", "engine", "record", "trial_batching"])
    @pytest.mark.parametrize(
        "value", [None, 1, 2.5, ["auto"], {"mode": "auto"}], ids=repr
    )
    def test_string_fields_reject_other_json_types(self, key, value):
        # A wrongly typed string field is named as such, not reported as an
        # unknown backend, engine or mode spelled from its str().
        message = f"request field {key!r} must be a string, got {value!r}"
        with pytest.raises(ConfigurationError) as raised:
            sweep_from_request({key: value})
        assert str(raised.value) == message

    def test_malformed_requests_get_error_events_and_keep_the_connection(self):
        replies = converse([*MALFORMED_REQUESTS, VALID_REQUEST])
        for payload, events in zip(MALFORMED_REQUESTS, replies):
            assert [event["event"] for event in events] == ["error"], payload
            assert "request field" in events[0]["error"]
        assert replies[-1][-1]["event"] == "done"
        assert replies[-1][-1]["records"] == 2

    def test_removed_trial_batching_mode_gets_one_error_and_keeps_the_connection(self):
        rejected, answered = converse(
            [{**VALID_REQUEST, "trial_batching": "always"}, VALID_REQUEST]
        )
        assert [event["event"] for event in rejected] == ["error"]
        assert "'auto'" in rejected[0]["error"]
        assert "'never'" in rejected[0]["error"]
        assert answered[-1]["event"] == "done"
        assert answered[-1]["records"] == 2

    def test_cells_request_is_never_unpickled(self):
        # The server speaks JSON only: a pickle smuggled into a request is
        # rejected as an unknown request type without being loaded, and the
        # connection still answers a sweep.
        blob = base64.b64encode(pickle.dumps(_Payload())).decode("ascii")
        UNPICKLED_CALLS.clear()
        rejected, answered = converse(
            [{"request": "cells", "tasks": [blob]}, VALID_REQUEST]
        )
        assert UNPICKLED_CALLS == []
        assert [event["event"] for event in rejected] == ["error"]
        assert "unknown request type 'cells'" in rejected[0]["error"]
        assert answered[-1]["event"] == "done"
        assert answered[-1]["records"] == 2

    @pytest.mark.parametrize("kind", ("join", "lease", None))
    def test_unknown_request_types_keep_the_connection(self, kind):
        # The error names the rejected type and only what the server does
        # understand; the next request on the connection is still answered.
        rejected, answered = converse([{"request": kind}, VALID_REQUEST])
        assert [event["event"] for event in rejected] == ["error"]
        message = rejected[0]["error"]
        assert f"unknown request type {kind!r}" in message
        assert "'recommend'" in message
        assert "cells" not in message
        assert answered[-1]["event"] == "done"
        assert answered[-1]["records"] == 2

    def test_over_long_line_gets_one_error_and_keeps_the_connection(self):
        # The whole line arrives with its newline: asyncio's readline would
        # raise ValueError and the connection would die with no event.
        long_line = json.dumps({"schemes": ["bcc"] * LINE_LIMIT}).encode("utf-8")
        rejected, answered = converse_lines(
            [long_line, json.dumps(VALID_REQUEST).encode("utf-8")]
        )
        assert [event["event"] for event in rejected] == ["error"]
        assert str(LINE_LIMIT) in rejected[0]["error"]
        assert answered[-1]["event"] == "done"
        assert answered[-1]["records"] == 2

    def test_over_long_line_is_skipped_through_its_late_newline(self):
        # The error is sent before the line's newline arrives; the rest of
        # the line must be skipped, not read as the next request.
        async def scenario():
            async with connection() as (reader, writer):
                writer.write(b"[" * (2 * LINE_LIMIT))
                await writer.drain()
                rejected = await reply(reader)
                writer.write(b"[" * LINE_LIMIT + b"]\n")
                writer.write(json.dumps(VALID_REQUEST).encode("utf-8") + b"\n")
                await writer.drain()
                return rejected, await reply(reader)

        rejected, answered = asyncio.run(scenario())
        assert [event["event"] for event in rejected] == ["error"]
        assert str(LINE_LIMIT) in rejected[0]["error"]
        assert answered[-1]["event"] == "done"
        assert answered[-1]["records"] == 2

    def test_deeply_nested_json_gets_one_error_and_keeps_the_connection(self):
        # json.loads raises RecursionError here, which is no ValueError.
        rejected, answered = converse_lines(
            [b"[" * 30_000, json.dumps(VALID_REQUEST).encode("utf-8")]
        )
        assert [event["event"] for event in rejected] == ["error"]
        assert "nests too deeply" in rejected[0]["error"]
        assert answered[-1]["event"] == "done"
        assert answered[-1]["records"] == 2

    def test_self_test_round_trip(self):
        # The full TCP story: serve on an ephemeral port, submit the same
        # sweep twice, require the resubmission to be served from cache.
        request = {
            "schemes": ["bcc"],
            "loads": [4],
            "workers": 10,
            "units": 10,
            "iterations": 3,
            "trials": 2,
        }
        assert asyncio.run(_self_test("127.0.0.1", request)) == 0

    def test_packaged_self_test_passes(self):
        assert self_test() == 0

    def test_self_test_fails_without_a_memo_hit(self, monkeypatch, capsys):
        monkeypatch.setattr(
            SweepService, "_plan_keys", lambda self, tasks, request: self.cache.task_keys(tasks)
        )
        assert asyncio.run(_self_test("127.0.0.1", VALID_REQUEST)) == 1
        assert "not keyed from the request memo" in capsys.readouterr().out

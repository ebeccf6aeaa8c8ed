"""The async sweep service: dedup, streaming, budgets, and the TCP front.

``SweepService.run`` must be functionally interchangeable with
``run_sweep`` (same records, same order); everything the service adds —
in-flight deduplication, streamed partial batches, cell budgets, the JSON
protocol — is behaviour on top, pinned here.
"""

from __future__ import annotations

import asyncio
import base64
import json
import pickle

import numpy as np
import pytest

from repro.api import JobSpec, Sweep, TimingSimBackend, run_sweep
from repro.cluster.spec import ClusterSpec
from repro.exceptions import BudgetExceededError, ConfigurationError
from repro.service import ResultCache, SweepService
from repro.service.server import (
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


def converse(payloads):
    """Send each request over one connection to an in-process server.

    Returns one event list per request, each ending at its ``done`` or
    ``error`` event.
    """

    async def scenario():
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
                replies = []
                for payload in payloads:
                    writer.write(json.dumps(payload).encode("utf-8") + b"\n")
                    await writer.drain()
                    events = []
                    while not events or events[-1]["event"] not in ("done", "error"):
                        line = await reader.readline()
                        assert line, f"connection closed after {payload!r}"
                        events.append(json.loads(line))
                    replies.append(events)
            finally:
                writer.close()
        return replies

    return asyncio.run(scenario())


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
            waiter = asyncio.ensure_future(service._cached_task(task))
            await started.wait()
            waiter.cancel()
            with pytest.raises(asyncio.CancelledError):
                await waiter
            assert key in service._inflight
            second = asyncio.ensure_future(service._cached_task(task))
            await asyncio.sleep(0)
            release.set()
            assert await second == ["sentinel"]
            assert service.stats.tasks_deduplicated == 1
            assert service.stats.tasks_executed == 1
            await asyncio.sleep(0)  # let the done-callback clear the key
            assert key not in service._inflight

        asyncio.run(scenario())


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

    def test_malformed_requests_get_error_events_and_keep_the_connection(self):
        replies = converse([*MALFORMED_REQUESTS, VALID_REQUEST])
        for payload, events in zip(MALFORMED_REQUESTS, replies):
            assert [event["event"] for event in events] == ["error"], payload
            assert "request field" in events[0]["error"]
        assert replies[-1][-1]["event"] == "done"
        assert replies[-1][-1]["records"] == 2

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

"""A line-delimited JSON TCP front end for :class:`SweepService`.

The ``repro serve`` sub-command listens on a host/port; each connection
sends one JSON request per line and receives a stream of JSON events back:

``{"event": "record", ...}``
    One per completed sweep record, in completion order (cache hits
    complete immediately) — the streamed partial results.
``{"event": "done", ...}``
    Submission complete: row/cell counts plus the service's cache and
    deduplication statistics.
``{"event": "error", ...}``
    The request was rejected (bad configuration, budget exceeded); the
    connection stays usable for the next request.

Requests mirror the ``repro sweep`` CLI flags::

    {"schemes": ["bcc", "uncoded"], "loads": [5, 10], "workers": 50,
     "units": 50, "unit_size": 100, "iterations": 20, "trials": 3,
     "seed": 0, "backend": "timing", "engine": "auto",
     "record": "summary", "trial_batching": "auto"}

A request carrying ``"request": "recommend"`` invokes the scheme
auto-tuner (:mod:`repro.tuning`) instead of a sweep: its remaining keys
follow the ``repro tune`` grammar
(:data:`repro.tuning.tuner.RECOMMEND_KEYS`) and the response is one
``{"event": "recommendation", "report": {...}}`` — the full ranked
:meth:`~repro.tuning.tuner.TuneReport.to_record` — followed by the usual
``done`` event. Tune confirmations run through the same service cache, so
recommending and then sweeping the winners re-simulates nothing.

The protocol is deliberately minimal — a laboratory-scale result server,
not an internet-facing one: bind it to localhost. Requests are plain JSON
and the server never unpickles client bytes; any other ``"request"`` type
is answered with an error event.
"""

from __future__ import annotations

import asyncio
import json
from typing import List, Mapping, Optional, Tuple

from repro.api import JobSpec, Sweep
from repro.api.backends import TimingSimBackend
from repro.exceptions import ConfigurationError, ReproError
from repro.experiments.ec2 import ec2_like_cluster
from repro.schemes.registry import available_schemes, scheme_accepts
from repro.service.service import SweepService

__all__ = [
    "sweep_from_request",
    "serve",
    "run_server",
    "self_test",
]

#: Request keys the server understands (anything else is a loud error).
_REQUEST_KEYS = {
    "schemes",
    "loads",
    "workers",
    "units",
    "unit_size",
    "iterations",
    "trials",
    "seed",
    "backend",
    "engine",
    "record",
    "trial_batching",
}


def _is_a(value: object, kind: type) -> bool:
    """``isinstance``, except that JSON booleans are not integers."""
    return isinstance(value, kind) and not isinstance(value, bool)


def _int_field(payload: Mapping[str, object], key: str, default: int) -> int:
    """An integer request field; any other JSON type is a configuration error."""
    value = payload.get(key, default)
    if not _is_a(value, int):
        raise ConfigurationError(
            f"request field {key!r} must be an integer, got {value!r}"
        )
    return value  # type: ignore[return-value]


def _list_field(
    payload: Mapping[str, object], key: str, default: list, kind: type
) -> list:
    """A list request field whose items are all of type ``kind``."""
    value = payload.get(key, default)
    if not isinstance(value, list) or not all(_is_a(item, kind) for item in value):
        raise ConfigurationError(
            f"request field {key!r} must be a list of {kind.__name__} values, "
            f"got {value!r}"
        )
    return list(value)


def sweep_from_request(payload: Mapping[str, object]) -> Tuple[Sweep, str, str]:
    """Build the sweep (and run options) described by one JSON request.

    Returns ``(sweep, record, trial_batching)``. The request grammar
    mirrors :func:`repro.experiments.cli.run_cli_sweep`: a scheme list and
    a load list expand into one scheme-config cell per (scheme, load)
    combination on an EC2-like cluster.
    """
    unknown = set(payload) - _REQUEST_KEYS
    if unknown:
        raise ConfigurationError(
            f"unknown request key(s) {sorted(unknown)}; expected a subset "
            f"of {sorted(_REQUEST_KEYS)}"
        )
    scheme_names = _list_field(payload, "schemes", ["bcc", "uncoded"], str)
    loads = _list_field(payload, "loads", [5, 10, 25], int)
    if not scheme_names:
        raise ConfigurationError("the request must name at least one scheme")
    for name in scheme_names:
        if name not in available_schemes():
            raise ConfigurationError(
                f"unknown scheme {name!r}; available: "
                f"{', '.join(available_schemes())}"
            )
    scheme_configs: List[dict] = []
    for name in scheme_names:
        if scheme_accepts(name, "load"):
            scheme_configs.extend({"name": name, "load": load} for load in loads)
        else:
            scheme_configs.append({"name": name})
    if not scheme_configs:
        # Every requested scheme sweeps the load axis and "loads" was empty.
        raise ConfigurationError(
            "the request expands to zero sweep cells; give a non-empty "
            "'loads' list for the requested scheme(s)"
        )

    base = JobSpec(
        scheme=scheme_configs[0],
        cluster=ec2_like_cluster(_int_field(payload, "workers", 50)),
        num_units=_int_field(payload, "units", 50),
        num_iterations=_int_field(payload, "iterations", 20),
        unit_size=_int_field(payload, "unit_size", 100),
        serialize_master_link=False,
        seed=_int_field(payload, "seed", 0),
    )
    backend_name = str(payload.get("backend", "timing"))
    if backend_name == "timing":
        backend: object = TimingSimBackend(engine=str(payload.get("engine", "auto")))
    elif backend_name == "analytic":
        backend = "analytic"
    else:
        raise ConfigurationError(
            f"the sweep service runs 'timing' or 'analytic' backends, "
            f"got {backend_name!r}"
        )
    sweep = Sweep(
        base,
        parameters={"scheme": scheme_configs},
        trials=_int_field(payload, "trials", 1),
        backend=backend,  # type: ignore[arg-type]
    )
    record = str(payload.get("record", "summary"))
    trial_batching = str(payload.get("trial_batching", "auto"))
    return sweep, record, trial_batching


async def _handle_request(
    service: SweepService, writer: asyncio.StreamWriter, line: bytes
) -> None:
    """Process one request line: stream record events, then a done event."""

    def send(event: Mapping[str, object]) -> None:
        writer.write(json.dumps(event).encode("utf-8") + b"\n")

    try:
        payload = json.loads(line.decode("utf-8"))
        if not isinstance(payload, dict):
            raise ConfigurationError("a request must be a JSON object")
        if payload.get("request") == "recommend":
            await _handle_recommend(service, send, payload)
            await writer.drain()
            return
        if "request" in payload:
            raise ConfigurationError(
                f"unknown request type {payload['request']!r}; the server "
                "understands sweep submissions (no 'request' key) and "
                "'recommend'"
            )
        sweep, record, trial_batching = sweep_from_request(payload)
        hits_before = service.cache.stats.hits
        misses_before = service.cache.stats.misses
        rows = 0
        async for batch in service.stream(
            sweep, record=record, trial_batching=trial_batching
        ):
            for sweep_record in batch:
                rows += 1
                send(
                    {
                        "event": "record",
                        "cell": sweep_record.cell,
                        "trial": sweep_record.trial,
                        "params": {
                            key: value
                            for key, value in sweep_record.params.items()
                        },
                        "summary": sweep_record.result.summary(),
                    }
                )
            await writer.drain()
        hits = service.cache.stats.hits - hits_before
        lookups = hits + service.cache.stats.misses - misses_before
        send(
            {
                "event": "done",
                "records": rows,
                "cache_hits": hits,
                "cache_lookups": lookups,
                "cache_hit_rate": hits / lookups if lookups else 0.0,
                "deduplicated": service.stats.tasks_deduplicated,
            }
        )
    except (ReproError, ValueError) as error:
        send({"event": "error", "error": str(error)})
    await writer.drain()


async def _handle_recommend(service, send, payload: Mapping[str, object]) -> None:
    """One ``recommend`` request: run the tuner, send its report + done."""
    from repro.tuning import tune_from_request

    spec = tune_from_request(
        {key: value for key, value in payload.items() if key != "request"}
    )
    hits_before = service.cache.stats.hits
    misses_before = service.cache.stats.misses
    report = await service.recommend(spec)
    send({"event": "recommendation", "report": report.to_record()})
    hits = service.cache.stats.hits - hits_before
    lookups = hits + service.cache.stats.misses - misses_before
    send(
        {
            "event": "done",
            "records": len(report.ranking),
            "cache_hits": hits,
            "cache_lookups": lookups,
            "cache_hit_rate": hits / lookups if lookups else 0.0,
            "deduplicated": service.stats.tasks_deduplicated,
        }
    )


async def serve(
    service: SweepService,
    *,
    host: str = "127.0.0.1",
    port: int = 8123,
    once: bool = False,
    announce: bool = False,
) -> None:
    """Serve sweep submissions over TCP until cancelled.

    ``once=True`` exits after the first connection closes — the CI smoke
    mode, so a scripted client can submit, verify, and let the server
    fall out cleanly. ``announce=True`` prints the bound address once
    listening — the way scripted callers (benchmarks, tests) learn which
    ephemeral port a ``--port 0`` server actually got.
    """
    finished = asyncio.Event()

    async def handle(
        reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            await _connection(service, reader, writer)
        finally:
            if once:
                finished.set()

    server = await asyncio.start_server(handle, host, port)
    if announce:
        bound = server.sockets[0].getsockname()[1]
        print(f"repro serve: listening on {host}:{bound}", flush=True)
    async with server:
        if once:
            await finished.wait()
        else:  # pragma: no cover - interactive mode; exercised manually
            await server.serve_forever()


async def submit_request(
    host: str, port: int, request: Mapping[str, object]
) -> List[dict]:
    """Client side of the protocol: send one request, collect the events."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        writer.write(json.dumps(request).encode("utf-8") + b"\n")
        await writer.drain()
        events: List[dict] = []
        while True:
            line = await reader.readline()
            if not line:
                break
            event = json.loads(line.decode("utf-8"))
            events.append(event)
            if event.get("event") in ("done", "error"):
                break
        return events
    finally:
        writer.close()


async def _self_test(host: str, request: Mapping[str, object]) -> int:
    """Serve on an ephemeral port and submit ``request`` twice over TCP.

    The smoke contract: the second, identical submission must be served
    (almost) entirely from the cache — at least 95% of its records.
    """
    service = SweepService()
    server = await asyncio.start_server(
        lambda reader, writer: _connection(service, reader, writer), host, 0
    )
    port = server.sockets[0].getsockname()[1]
    async with server:
        first = await submit_request(host, port, request)
        second = await submit_request(host, port, request)
    for label, events in (("first", first), ("second", second)):
        done = events[-1]
        if done.get("event") != "done":
            print(f"service smoke FAILED: {label} submission -> {done}")
            return 1
        print(
            f"{label} submission: {done['records']} records, "
            f"{done['cache_hits']}/{done['cache_lookups']} cache hits"
        )
    done = second[-1]
    if done["cache_lookups"] == 0 or done["cache_hit_rate"] < 0.95:
        print(
            "service smoke FAILED: resubmission hit "
            f"{done['cache_hits']}/{done['cache_lookups']} tasks in cache "
            "(need >= 95%)"
        )
        return 1
    print("service smoke OK: resubmission served from cache")
    return 0


async def _connection(
    service: SweepService,
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
) -> None:
    """One client connection: requests until EOF/blank line, then close."""
    try:
        while True:
            line = await reader.readline()
            if not line or not line.strip():
                break
            await _handle_request(service, writer, line)
    except asyncio.CancelledError:
        # Server shutdown while this connection idled between requests —
        # an orderly end of service, not an error to propagate.
        pass
    finally:
        writer.close()


def self_test(host: str = "127.0.0.1") -> int:
    """Run the end-to-end smoke: serve, submit twice, require ~all hits."""
    request = {
        "schemes": ["bcc", "uncoded"],
        "loads": [5, 10],
        "workers": 20,
        "units": 20,
        "iterations": 5,
        "trials": 4,
        "engine": "vectorized",
    }
    return asyncio.run(_self_test(host, request))


def run_server(
    *,
    host: str = "127.0.0.1",
    port: int = 8123,
    cache_dir: Optional[str] = None,
    max_workers: Optional[int] = None,
    cell_budget: Optional[int] = None,
    once: bool = False,
) -> int:
    """Blocking entry point for the ``repro serve`` sub-command."""
    service = SweepService(
        cache=cache_dir, max_workers=max_workers, cell_budget=cell_budget
    )
    # Announce when the OS picks the port — otherwise scripted callers
    # (benchmarks spawning servers on ephemeral ports) cannot find them.
    asyncio.run(
        serve(service, host=host, port=port, once=once, announce=port == 0)
    )
    return 0

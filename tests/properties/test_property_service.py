"""Property-based tests of the ``repro serve`` line protocol over TCP.

Hypothesis draws malformed request lines and sends each to an in-process
server, followed on the same connection by a small valid request. Every
malformed line must get exactly one event, a terminal ``error``, and the
valid request after it must still get its ``done``. Malformed lines are:

* newline-free bytes that do not parse as a JSON object;
* JSON values that are not objects;
* objects with an unknown key;
* objects with one known field of the wrong JSON type.

Whitespace-only lines are left out: by protocol, a blank line ends the
connection. The two lines that once killed a connection (one over the
server's line limit, one nested past the JSON decoder's recursion limit)
are pinned as explicit examples.

The CI job runs this suite under the ``ci`` Hypothesis profile (registered
in ``tests/conftest.py``) with derandomized, reproducible example
generation.
"""

from __future__ import annotations

import asyncio
import json

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.service import SweepService
from repro.service.server import LINE_LIMIT, _connection

#: A request the server answers quickly, with one record.
VALID_REQUEST = json.dumps(
    {"schemes": ["uncoded"], "workers": 2, "units": 2, "iterations": 1, "trials": 1}
).encode("utf-8")

#: Known request fields by the JSON type they take; ``loads`` and
#: ``schemes`` take lists of ints and strings.
INT_FIELDS = ("workers", "units", "unit_size", "iterations", "trials", "seed")
STR_FIELDS = ("backend", "engine", "record", "trial_batching", "request")
KNOWN_KEYS = set(INT_FIELDS) | set(STR_FIELDS) | {"loads", "schemes"}

json_scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**63), max_value=2**63)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8)
)
json_values = st.recursive(
    json_scalars,
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=8,
)


def is_int(value):
    return isinstance(value, int) and not isinstance(value, bool)


def wrong_for(key):
    """JSON values of the wrong type for the known field ``key``."""
    if key in INT_FIELDS:
        return json_values.filter(lambda value: not is_int(value))
    if key in STR_FIELDS:
        return json_values.filter(lambda value: not isinstance(value, str))
    element = is_int if key == "loads" else (lambda item: isinstance(item, str))
    return json_values.filter(
        lambda value: not isinstance(value, list) or not all(map(element, value))
    )


def parses_as_object(line):
    try:
        return isinstance(json.loads(line.decode("utf-8")), dict)
    except (ValueError, RecursionError):
        return False


def encode(value):
    return json.dumps(value).encode("utf-8")


raw_lines = st.binary(min_size=1, max_size=64).filter(
    lambda line: b"\n" not in line and not parses_as_object(line)
)
non_objects = json_values.filter(lambda value: not isinstance(value, dict)).map(encode)
unknown_keys = st.dictionaries(
    st.text(max_size=8).filter(lambda key: key not in KNOWN_KEYS),
    json_values,
    min_size=1,
    max_size=3,
).map(encode)
wrong_types = (
    st.sampled_from(sorted(KNOWN_KEYS))
    .flatmap(lambda key: wrong_for(key).map(lambda value: {key: value}))
    .map(encode)
)


def converse(line):
    """Send ``line`` then the valid request; the two replies' events."""

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
                writer.write(line + b"\n" + VALID_REQUEST + b"\n")
                await writer.drain()
                replies = []
                for _ in range(2):
                    events = []
                    while not events or events[-1]["event"] not in ("done", "error"):
                        reply = await reader.readline()
                        assert reply, f"connection closed after {line[:80]!r}"
                        events.append(json.loads(reply))
                    replies.append(events)
                return replies
            finally:
                writer.close()

    return asyncio.run(scenario())


@settings(max_examples=60)
@given(line=st.one_of(raw_lines, non_objects, unknown_keys, wrong_types))
@example(line=b"x" * (LINE_LIMIT + 1))
@example(line=b"[" * 30_000)
@example(line=b'{"engine": null}')
def test_malformed_line_gets_one_error_and_keeps_the_connection(line):
    assume(line.strip())
    rejected, answered = converse(line)
    assert [event["event"] for event in rejected] == ["error"]
    assert answered[-1]["event"] == "done"
    assert answered[-1]["records"] == 1

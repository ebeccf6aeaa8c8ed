"""Multi-node sharded sweep execution over the service TCP protocol.

:class:`DistributedExecutor` implements the :class:`~repro.scheduling.executors.Executor`
protocol by sharding a plan's :class:`~repro.scheduling.core.CellTask`
items across N ``repro serve`` nodes, speaking the line-delimited JSON
protocol of :mod:`repro.service.server` (the ``"cells"`` request added for
this executor). Scheduling is **pull-based work stealing**: every node
repeatedly *leases* a small batch of task indices from one shared queue,
executes them remotely, and comes back for more — fast nodes automatically
drain the queue while slow ones hold only their current lease.

Fault tolerance is **retry-with-reassignment**: when a node dies mid-lease
(connection reset, EOF, malformed frame) its unfinished indices go back on
the queue for the surviving nodes, up to ``max_attempts`` assignments per
task. Because every node executes tasks through its service's
content-addressed result cache
(:meth:`repro.service.service.SweepService.execute_cell`), a task re-sent
after an ambiguous failure either finds the already-computed result or
recomputes the same deterministic value — at-most-once *per result* even
when the transport delivers the work twice.

Two topologies compose freely:

* **Dial-out** — ``DistributedExecutor(["host:1234", "host:1235"])``
  connects to nodes started with ``repro serve``.
* **Join** — ``DistributedExecutor(listen="127.0.0.1:0")`` binds a
  coordinator socket; workers started with ``repro serve --join HOST:PORT``
  dial in, announce themselves, and start leasing. Workers may join while
  a sweep is already running and stay connected across ``execute`` calls.

The wire format carries pickled tasks and results (base64 inside JSON), so
— like the sweep service itself — this is a trusted-network, laboratory
protocol: bind coordinators and nodes to localhost or a private fabric.
"""

from __future__ import annotations

import base64
import json
import pickle
import socket
import threading
from collections import deque
from typing import BinaryIO, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro import exceptions
from repro.api.result import RunResult
from repro.exceptions import ConfigurationError, ReproError, ServiceError
from repro.scheduling.core import CellTask, describe_task
from repro.utils.timing import WallClock

__all__ = ["DistributedExecutor", "parse_endpoint", "parse_nodes"]


def parse_endpoint(text: str) -> Tuple[str, int]:
    """``"host:port"`` as a ``(host, port)`` pair, validated."""
    host, separator, port_text = str(text).strip().rpartition(":")
    if not separator or not host:
        raise ConfigurationError(
            f"node address {text!r} is not of the form HOST:PORT"
        )
    try:
        port = int(port_text)
    except ValueError:
        raise ConfigurationError(
            f"node address {text!r} has a non-integer port {port_text!r}"
        ) from None
    if not 0 <= port <= 65535:
        raise ConfigurationError(
            f"node address {text!r} has an out-of-range port {port}"
        )
    return host, port


def parse_nodes(
    nodes: Union[str, Sequence[Union[str, Tuple[str, int]]]],
) -> Tuple[Tuple[str, int], ...]:
    """Normalise a node list: a comma-separated string or a sequence.

    Accepts ``"a:1,b:2"``, ``["a:1", "b:2"]``, or ``[("a", 1)]`` and
    returns ``(host, port)`` tuples (duplicates allowed — two entries for
    one node mean two concurrent lease streams to it).
    """
    if isinstance(nodes, str):
        entries: Sequence[Union[str, Tuple[str, int]]] = [
            part for part in nodes.split(",") if part.strip()
        ]
    else:
        entries = nodes
    parsed: List[Tuple[str, int]] = []
    for entry in entries:
        if isinstance(entry, str):
            parsed.append(parse_endpoint(entry))
        else:
            host, port = entry
            parsed.append(parse_endpoint(f"{host}:{port}"))
    return tuple(parsed)


def _node_error(kind: str, message: str) -> ReproError:
    """Rehydrate a node-reported failure into the library hierarchy.

    The wire carries ``(type name, message)``; known
    :mod:`repro.exceptions` types come back as themselves so callers'
    ``except SimulationError`` clauses behave identically to local
    execution, anything else degrades to :class:`ServiceError`.
    """
    candidate = getattr(exceptions, kind, None)
    if isinstance(candidate, type) and issubclass(candidate, ReproError):
        try:
            return candidate(message)
        except TypeError:
            # An exception subclass with a non-(message) constructor; fall
            # through to the generic wrapper rather than failing the report.
            pass
    return ServiceError(f"a node reported {kind}: {message}")


#: Transport faults that mean "this node is gone", not "this sweep failed":
#: connection errors, truncated streams, and undecodable frames
#: (``json.JSONDecodeError`` and ``binascii.Error`` are ``ValueError``s).
_NODE_FAULTS = (OSError, EOFError, ValueError, pickle.UnpicklingError)


def _hang_up(conn: socket.socket, stream: Optional[BinaryIO]) -> None:
    """Close a worker connection so the peer actually sees EOF.

    The ``makefile`` stream holds its own reference to the socket, so
    closing ``conn`` alone never sends FIN — the transport must be shut
    down explicitly and both handles closed.
    """
    try:
        conn.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass  # already disconnected
    if stream is not None:
        try:
            stream.close()
        except OSError:
            pass  # flushing a broken pipe on close is not an event
    conn.close()


class _SweepState:
    """Shared bookkeeping of one distributed ``execute`` call.

    One instance is shared by every node thread; all mutation happens under
    ``condition``. ``slots`` is positionally aligned with ``tasks`` and
    first-result-wins: a slot filled by one node is never overwritten when
    a reassigned duplicate of the same task also reports.
    """

    def __init__(self, tasks: Sequence[CellTask], max_attempts: int) -> None:
        self.tasks = list(tasks)
        self.max_attempts = max_attempts
        self.condition = threading.Condition()
        self.queue: "deque[int]" = deque(range(len(self.tasks)))
        self.slots: List[Optional[List[RunResult]]] = [None] * len(self.tasks)
        self.filled = 0
        self.attempts = [0] * len(self.tasks)
        self.error: Optional[ReproError] = None
        self.node_failures: List[str] = []

    def lease(self, size: int) -> List[int]:
        """Pull up to ``size`` open task indices; empty once done/failed."""
        with self.condition:
            if self.error is not None:
                return []
            lease: List[int] = []
            while self.queue and len(lease) < size:
                index = self.queue.popleft()
                if self.slots[index] is None:
                    lease.append(index)
            return lease

    def complete(self, index: int, results: List[RunResult]) -> None:
        """Record one task's results (first report wins)."""
        with self.condition:
            if self.slots[index] is None:
                self.slots[index] = results
                self.filled += 1
            self.condition.notify_all()

    def fail(self, error: ReproError) -> None:
        """Record a sweep-fatal error (first error wins) and stop leasing."""
        with self.condition:
            if self.error is None:
                self.error = error
            self.condition.notify_all()

    def release(self, node: str, indices: Sequence[int], failure: object) -> None:
        """Return a dead node's unfinished lease to the queue.

        Each returned task charges one attempt; a task that has burned
        ``max_attempts`` assignments turns the node fault into a sweep
        error instead of cycling forever.
        """
        with self.condition:
            self.node_failures.append(f"{node}: {failure}")
            for index in indices:
                if self.slots[index] is not None:
                    continue
                self.attempts[index] += 1
                if self.attempts[index] >= self.max_attempts:
                    if self.error is None:
                        self.error = ServiceError(
                            f"{describe_task(self.tasks[index])} was "
                            f"reassigned {self.attempts[index]} times without "
                            f"completing; last node failure — {node}: {failure}"
                        )
                else:
                    # Front of the queue: a task that already waited through
                    # a failed lease should not also wait behind the backlog.
                    self.queue.appendleft(index)
            self.condition.notify_all()

    def finished(self) -> bool:
        """Whether the sweep is over (every slot filled, or a fatal error)."""
        with self.condition:
            return self.error is not None or self.filled == len(self.tasks)

    def has_queued_work(self) -> bool:
        """Whether an idle node could lease something right now."""
        with self.condition:
            return self.error is None and bool(self.queue)

    def outcome(self) -> List[List[RunResult]]:
        """The ordered results — or raise what stopped the sweep."""
        with self.condition:
            if self.error is not None:
                raise self.error
            missing = sum(1 for slot in self.slots if slot is None)
            if missing:
                detail = "; ".join(self.node_failures) or "no node ever served a lease"
                raise ServiceError(
                    f"{missing} of {len(self.tasks)} distributed tasks never "
                    f"completed — every node failed or disconnected ({detail})"
                )
            return [slot for slot in self.slots if slot is not None]


class DistributedExecutor:
    """Shard cell tasks across ``repro serve`` nodes with work stealing.

    Parameters
    ----------
    nodes:
        Dial-out node addresses — a comma-separated ``"host:port,..."``
        string or a sequence of addresses (see :func:`parse_nodes`).
    listen:
        A ``"host:port"`` endpoint to bind for ``repro serve --join``
        workers (``:0`` picks an ephemeral port; read it back from
        :attr:`listen_address`). At least one of ``nodes``/``listen`` is
        required.
    lease_size:
        Tasks per lease. Small leases steal well (a fast node grabs work
        the moment it is free); large leases amortise round-trips. The
        per-node drain pipeline keeps nodes busy either way.
    max_attempts:
        Node assignments allowed per task before a persistent transport
        fault becomes a sweep error.
    connect_timeout:
        Seconds to wait for each dial-out connection.
    timeout:
        Per-read socket timeout while draining a lease; ``None`` (default)
        waits as long as the node computes. Set it when a hung node must
        not stall the sweep — the timed-out lease is reassigned.
    join_timeout:
        In join topology, seconds to wait for a (first or replacement)
        worker while tasks remain before giving up.
    """

    name = "distributed"
    #: Tasks cross a pickle boundary on their way to the nodes, so plans
    #: destined for this executor must stay pickle-clean (no hoisted
    #: scheme closures) — exactly the process-pool contract.
    pickle_safe = True

    def __init__(
        self,
        nodes: Union[str, Sequence[Union[str, Tuple[str, int]]]] = (),
        *,
        listen: Optional[str] = None,
        lease_size: int = 4,
        max_attempts: int = 3,
        connect_timeout: float = 10.0,
        timeout: Optional[float] = None,
        join_timeout: float = 60.0,
    ) -> None:
        self.nodes = parse_nodes(nodes)
        if lease_size < 1:
            raise ConfigurationError(f"lease_size must be >= 1, got {lease_size}")
        if max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {max_attempts}"
            )
        self.lease_size = lease_size
        self.max_attempts = max_attempts
        self.connect_timeout = connect_timeout
        self.timeout = timeout
        self.join_timeout = join_timeout
        self._lock = threading.Lock()
        self._closed = False
        self._joined: "deque[Tuple[socket.socket, BinaryIO, str]]" = deque()
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        if listen is not None:
            host, port = parse_endpoint(listen)
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            try:
                listener.bind((host, port))
                listener.listen()
            except OSError as error:
                listener.close()
                raise ConfigurationError(
                    f"cannot listen for joining workers on {listen!r}: {error}"
                ) from error
            self._listener = listener
            self._accept_thread = threading.Thread(
                target=self._accept_loop, name="repro-dist-accept", daemon=True
            )
            self._accept_thread.start()
        if not self.nodes and self._listener is None:
            raise ConfigurationError(
                "a DistributedExecutor needs node addresses to dial "
                "(nodes='host:port,...') or a listen endpoint for "
                "'repro serve --join' workers (listen='host:port')"
            )

    # ------------------------------------------------------------------ #
    @property
    def listen_address(self) -> Optional[Tuple[str, int]]:
        """The bound ``(host, port)`` workers join, or ``None`` when not listening."""
        if self._listener is None:
            return None
        host, port = self._listener.getsockname()[:2]
        return str(host), int(port)

    def _accept_loop(self) -> None:
        """Park joining workers (after their hello line) for the drain loops."""
        assert self._listener is not None
        while True:
            try:
                conn, address = self._listener.accept()
            except OSError:
                # Listener closed — executor shutdown.
                return
            name = f"{address[0]}:{address[1]}"
            try:
                conn.settimeout(self.connect_timeout)
                stream = conn.makefile("rwb")
                hello = json.loads(stream.readline().decode("utf-8"))
                worker = hello.get("worker") if isinstance(hello, dict) else None
                if worker:
                    name = f"{worker} ({name})"
                conn.settimeout(self.timeout)
            except _NODE_FAULTS:
                conn.close()
                continue
            with self._lock:
                if self._closed:
                    conn.close()
                    return
                self._joined.append((conn, stream, name))

    # ------------------------------------------------------------------ #
    def execute(self, tasks: Sequence[CellTask]) -> List[List[RunResult]]:
        """Shard the tasks over the nodes; results come back in task order."""
        if self._closed:
            raise ConfigurationError(
                "this DistributedExecutor is closed; build a fresh one"
            )
        ordered = list(tasks)
        if not ordered:
            return []
        state = _SweepState(ordered, self.max_attempts)
        threads: List[threading.Thread] = []
        for host, port in self.nodes:
            thread = threading.Thread(
                target=self._run_dialed,
                args=(host, port, state),
                name=f"repro-dist-{host}:{port}",
                daemon=True,
            )
            thread.start()
            threads.append(thread)
        if self._listener is None:
            for thread in threads:
                thread.join()
            return state.outcome()
        return self._execute_with_joiners(state, threads)

    def _execute_with_joiners(
        self, state: _SweepState, threads: List[threading.Thread]
    ) -> List[List[RunResult]]:
        """Join-topology wait loop: feed parked workers, bound idle time."""
        clock = WallClock()
        idle_since: Optional[float] = None
        while not state.finished():
            spawned = False
            # Feed parked workers only while the queue holds work — a worker
            # whose drain ended (and re-parked itself) must not be respawned
            # into an empty lease, or the pair would cycle forever.
            while state.has_queued_work():
                with self._lock:
                    if not self._joined:
                        break
                    conn, stream, name = self._joined.popleft()
                thread = threading.Thread(
                    target=self._run_joined,
                    args=(conn, stream, name, state),
                    name=f"repro-dist-{name}",
                    daemon=True,
                )
                thread.start()
                threads.append(thread)
                spawned = True
            alive = any(thread.is_alive() for thread in threads)
            if not alive and not spawned:
                # Work remains and nobody is serving it: give replacement
                # workers a bounded window to join, then fail loudly.
                if idle_since is None:
                    idle_since = clock.now()
                elif clock.now() - idle_since >= self.join_timeout:
                    break
            else:
                idle_since = None
            with state.condition:
                state.condition.wait(0.05)
        for thread in threads:
            thread.join()
        return state.outcome()

    # ------------------------------------------------------------------ #
    def _run_dialed(self, host: str, port: int, state: _SweepState) -> None:
        """One dial-out node: connect, drain leases, close."""
        node = f"{host}:{port}"
        try:
            sock = socket.create_connection(
                (host, port), timeout=self.connect_timeout
            )
        except OSError as failure:
            state.release(node, [], failure)
            return
        sock.settimeout(self.timeout)
        stream = sock.makefile("rwb")
        try:
            self._drain(stream, node, state)
        finally:
            sock.close()

    def _run_joined(
        self,
        conn: socket.socket,
        stream: BinaryIO,
        name: str,
        state: _SweepState,
    ) -> None:
        """One joined worker: drain leases, then park it for the next sweep."""
        healthy = self._drain(stream, name, state)
        with self._lock:
            if healthy and not self._closed:
                self._joined.append((conn, stream, name))
                return
        _hang_up(conn, stream)

    def _drain(self, stream: BinaryIO, node: str, state: _SweepState) -> bool:
        """Lease → submit → collect, until the queue runs dry.

        Returns ``True`` when the connection is still healthy (the lease
        loop ended because no work remained), ``False`` after a transport
        fault — whose unfinished lease has been released back to the queue.
        """
        held: List[int] = []
        try:
            while True:
                held = state.lease(self.lease_size)
                if not held:
                    return True
                request = {
                    "request": "cells",
                    "tasks": [
                        base64.b64encode(pickle.dumps(state.tasks[index])).decode(
                            "ascii"
                        )
                        for index in held
                    ],
                }
                stream.write(json.dumps(request).encode("utf-8") + b"\n")
                stream.flush()
                remaining: Set[int] = set(range(len(held)))
                # Read through the "done" frame even once every cell has
                # reported — leaving it unread would desynchronise the next
                # lease on this connection.
                while True:
                    line = stream.readline()
                    if not line:
                        raise EOFError("node closed the connection mid-lease")
                    event = json.loads(line.decode("utf-8"))
                    kind = event.get("event")
                    if kind == "cell_result":
                        local = int(event["index"])
                        results = pickle.loads(
                            base64.b64decode(event["payload"])
                        )
                        state.complete(held[local], results)
                        remaining.discard(local)
                    elif kind == "cell_error":
                        # The task itself failed (infeasible cell, simulation
                        # error) — deterministic, so reassignment cannot help:
                        # surface it exactly like local execution would.
                        remaining.discard(int(event["index"]))
                        state.fail(
                            _node_error(
                                str(event.get("kind", "ReproError")),
                                str(event.get("error", "")),
                            )
                        )
                    elif kind == "done":
                        if remaining:
                            raise EOFError(
                                f"lease finished with {len(remaining)} "
                                "unreported cell(s)"
                            )
                        break
                    elif kind == "error":
                        # Request-level rejection: the node is alive but does
                        # not understand the lease (version skew, bad frame).
                        # Retrying elsewhere would loop, so fail the sweep.
                        state.fail(
                            ServiceError(
                                f"node {node} rejected a lease: "
                                f"{event.get('error', 'unknown error')}"
                            )
                        )
                        return False
                    # Unknown events are ignored — forward-compatible with
                    # chattier future servers.
                held = []
        except _NODE_FAULTS as failure:
            state.release(node, held, failure)
            return False

    # ------------------------------------------------------------------ #
    def close(self) -> None:
        """Stop accepting joiners and drop parked worker connections."""
        with self._lock:
            self._closed = True
            listener, self._listener = self._listener, None
            parked = list(self._joined)
            self._joined.clear()
        if listener is not None:
            listener.close()
        for conn, stream, _name in parked:
            _hang_up(conn, stream)

    def __enter__(self) -> "DistributedExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

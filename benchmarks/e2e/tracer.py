"""Outside-in layer tracer for the end-to-end benchmark.

The tracer times calls *into* each layer's public entry points from the
benchmark's own code: entering a :class:`Tracer` (``with Tracer() as
tracer:``) replaces those functions and methods with timing wrappers, and
leaving it puts every original back. Nothing inside ``src/`` is edited, so
the untraced benchmark runs the library exactly as users do.

Each call records one :class:`Span` (name, layer, wall and thread-CPU start
and end, parent span, thread id and the operation id the harness set). The
parent is tracked in a :class:`contextvars.ContextVar`, so it follows
``asyncio`` tasks and ``asyncio.to_thread`` hops: a task the sweep service
runs on an executor thread is still the child of the service span that
scheduled it. A span opened with no parent adopts :attr:`Tracer.root` — how
the server-side spans of an in-process service attach to the client's
request span.

Self time is measured on the thread-CPU clock: a span's CPU time minus the
part covered by its children on the same thread. CPU time, not wall time,
because the service overlaps tasks on several threads of one pinned core;
wall-clock self times would count the same core second once per thread. A
*residual* span (the client's request round trip) instead takes its wall
duration minus the self time of everything beneath it, which is how the
``transport`` layer is defined.
"""

from __future__ import annotations

import contextvars
import dataclasses
import itertools
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

#: Span names of the completion kernels in a ``KernelSuite``.
COMPLETION_KERNELS = (
    "count_completion",
    "partial_sum_completion",
    "coverage_completion",
    "group_completion",
)

#: Delay/communication-model methods that draw random values.
DRAW_METHODS = ("sample_batch", "sample_grid", "sample_trials", "sample_timeline")


class Span(NamedTuple):
    """One traced call. Times are ``time.perf_counter`` / ``time.thread_time``."""

    id: int
    parent: Optional[int]
    layer: str
    name: str
    thread: int
    op: object
    wall0: float
    cpu0: float
    wall1: float
    cpu1: float
    info: object = None
    residual: bool = False

    def to_row(self, origin: float, self_time: float) -> list:
        """Compact JSON form: wall times in microseconds from ``origin``."""
        return [
            self.id,
            self.parent,
            self.layer,
            self.name,
            self.thread,
            self.op,
            round((self.wall0 - origin) * 1e6, 1),
            round((self.wall1 - origin) * 1e6, 1),
            round((self.cpu1 - self.cpu0) * 1e6, 1),
            round(self_time * 1e6, 1),
            self.info,
        ]


#: Column names of :meth:`Span.to_row`, written into the trace file.
SPAN_COLUMNS = [
    "id", "parent", "layer", "name", "thread", "op",
    "wall_start_us", "wall_end_us", "cpu_us", "self_us", "info",
]


class Tracer:
    """Wraps layer entry points, records spans, restores everything on exit.

    Spans are recorded as plain tuples (cheap to build, and ignored by the
    cyclic garbage collector once it has seen them) and handed out as
    :class:`Span` by :meth:`take`. ``list.append`` is atomic, so threads
    record without a lock; :meth:`take` is meant for quiet moments between
    operations, when no traced call is in flight.
    """

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        #: Operation id stamped on new spans (a rep index or request label).
        self.op: object = None
        #: Span id adopted as the parent of spans opened with no parent.
        self.root: Optional[int] = None
        self._current: contextvars.ContextVar[Optional[int]] = contextvars.ContextVar(
            "e2e_span", default=None
        )
        self._ids = itertools.count()
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    @contextmanager
    def span(self, layer: str, name: str, *, residual: bool = False) -> Iterator[dict]:
        """Record a span around a block of the harness's own code.

        Yields a dict whose ``"id"`` is the span id; an ``"info"`` the
        block stores there annotates the span.
        """
        parent = self._current.get()
        if parent is None:
            parent = self.root
        handle = {"id": next(self._ids), "info": None}
        token = self._current.set(handle["id"])
        wall0, cpu0 = time.perf_counter(), time.thread_time()
        try:
            yield handle
        finally:
            cpu1, wall1 = time.thread_time(), time.perf_counter()
            self._current.reset(token)
            self.spans.append(
                (handle["id"], parent, layer, name, threading.get_ident(), self.op,
                 wall0, cpu0, wall1, cpu1, handle["info"], residual)
            )

    def wrap(
        self,
        function: Callable,
        layer: str,
        name: str,
        info: Optional[Callable[[tuple, dict, object], object]] = None,
    ) -> Callable:
        """A timing wrapper around ``function``; ``info`` annotates the span."""
        tracer = self
        current = self._current
        ids = self._ids
        perf_counter, thread_time, get_ident = time.perf_counter, time.thread_time, threading.get_ident

        def wrapper(*args, **kwargs):
            span_id = next(ids)
            parent = current.get()
            if parent is None:
                parent = tracer.root
            token = current.set(span_id)
            result = None
            wall0, cpu0 = perf_counter(), thread_time()
            try:
                result = function(*args, **kwargs)
            finally:
                cpu1, wall1 = thread_time(), perf_counter()
                current.reset(token)
                tracer.spans.append(
                    (span_id, parent, layer, name, get_ident(), tracer.op, wall0, cpu0,
                     wall1, cpu1, None if info is None else info(args, kwargs, result), False)
                )
            return result

        wrapper.__wrapped__ = function  # type: ignore[attr-defined]
        return wrapper

    def wrap_async_generator(self, function: Callable, layer: str, name: str) -> Callable:
        """A timing wrapper around an async generator function.

        The span stays current while the generator is suspended, so tasks
        the generator schedules (``asyncio.ensure_future`` copies the
        context) become its children.
        """
        tracer = self

        async def wrapper(*args, **kwargs):
            span_id = next(tracer._ids)
            previous = tracer._current.get()
            parent = tracer.root if previous is None else previous
            tracer._current.set(span_id)
            wall0, cpu0 = time.perf_counter(), time.thread_time()
            try:
                async for item in function(*args, **kwargs):
                    yield item
            finally:
                cpu1, wall1 = time.thread_time(), time.perf_counter()
                # set(), not reset(): an abandoned generator may be closed
                # from another context than the one that opened the span.
                tracer._current.set(previous)
                tracer.spans.append(
                    (span_id, parent, layer, name, threading.get_ident(), tracer.op,
                     wall0, cpu0, wall1, cpu1, None, False)
                )

        wrapper.__wrapped__ = function  # type: ignore[attr-defined]
        return wrapper

    # ------------------------------------------------------------------ #
    # Patching
    # ------------------------------------------------------------------ #
    def _set(self, owner: object, attribute: str, value: object) -> None:
        original = vars(owner)[attribute]
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, value)

    def patch_method(
        self,
        cls: type,
        attribute: str,
        layer: str,
        info: Optional[Callable] = None,
        *,
        asynchronous: bool = False,
    ) -> None:
        """Wrap a method defined on ``cls`` itself (class/static methods too)."""
        raw = vars(cls)[attribute]
        name = f"{cls.__name__}.{attribute}"
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self.wrap(raw.__func__, layer, name, info))
        elif asynchronous:
            wrapped = self.wrap_async_generator(raw, layer, name)
        else:
            wrapped = self.wrap(raw, layer, name, info)
        self._set(cls, attribute, wrapped)

    def patch_function(
        self,
        function: Callable,
        layer: str,
        info: Optional[Callable] = None,
        *,
        modules: Optional[Sequence[object]] = None,
        wrapper: Optional[Callable] = None,
    ) -> None:
        """Replace ``function`` wherever a ``repro`` module holds a reference.

        Modules import entry points by name (``from repro.scheduling.core
        import execute_task``), so every binding is replaced, not only the
        defining one. ``modules`` restricts the replacement to the given
        modules; ``wrapper`` supplies a ready-made replacement.
        """
        replacement = wrapper or self.wrap(function, layer, function.__name__, info)
        if modules is None:
            modules = [
                module
                for name, module in sorted(sys.modules.items())
                if (name == "repro" or name.startswith("repro.")) and module is not None
            ]
        for module in modules:
            for attribute, value in list(vars(module).items()):
                if value is function:
                    self._set(module, attribute, replacement)

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def __enter__(self) -> "Tracer":
        """Wrap the entry points of every layer (see :func:`install_layers`)."""
        try:
            install_layers(self)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.restore()

    def take(self) -> List[Span]:
        """Remove and return the spans recorded so far."""
        spans, self.spans = self.spans, []
        return [Span._make(row) for row in spans]


# ---------------------------------------------------------------------- #
# The layer map: which public entry points belong to which layer
# ---------------------------------------------------------------------- #
def _nbytes(args: tuple, kwargs: dict, result: object) -> int:
    values = list(args) + list(kwargs.values()) + [result]
    return int(sum(getattr(value, "nbytes", 0) for value in values))


def _size(args: tuple, kwargs: dict, result: object) -> int:
    return int(getattr(result, "size", 0))


def _task_kind(args: tuple, kwargs: dict, result: object) -> str:
    return args[0].kind


def _job_rows(args: tuple, kwargs: dict, result: object) -> int:
    """Trials x iterations of an engine entry (the backend passes keywords)."""
    return int(kwargs["num_iterations"]) * len(kwargs.get("seeds", [None]))


def _hit(args: tuple, kwargs: dict, result: object) -> bool:
    return result is not None


def _subclasses(cls: type) -> Iterable[type]:
    seen = {cls}
    stack = [cls]
    while stack:
        current = stack.pop()
        yield current
        for sub in current.__subclasses__():
            if sub not in seen:
                seen.add(sub)
                stack.append(sub)


def install_layers(tracer: Tracer) -> None:
    """Wrap every layer's public entry points on ``tracer``.

    Imports the modules that define the entry points first, so the
    reference scan of :meth:`Tracer.patch_function` sees every binding.
    """
    import repro.api.backends as backends
    import repro.api.result as result
    import repro.api.sweep as sweep
    import repro.cluster.dynamic as dynamic
    import repro.coding.fractional as fractional
    import repro.coding.linear_code as linear_code
    import repro.scheduling.core as core
    import repro.schemes.base as schemes
    import repro.service.cache as cache
    import repro.service.server as server
    import repro.service.service as service
    import repro.simulation.kernels as kernels
    import repro.stragglers.base as delay_base
    import repro.stragglers.communication as communication
    import repro.stragglers.dynamics  # noqa: F401 - delay-model subclasses
    import repro.stragglers.models  # noqa: F401 - delay-model subclasses

    # api
    tracer.patch_function(sweep.run_sweep, "api")
    tracer.patch_method(backends.TimingSimBackend, "run", "api")
    tracer.patch_method(backends.TimingSimBackend, "run_batch", "api")
    tracer.patch_method(result.RunResult, "from_job", "api")
    tracer.patch_method(result.RunResult, "compact", "api")
    tracer.patch_method(sweep.SweepResult, "aggregate", "api")
    # scheduling
    tracer.patch_function(core.build_sweep_plan, "scheduling")
    tracer.patch_function(core.execute_task, "scheduling", _task_kind)
    # schemes
    tracer.patch_method(schemes.Scheme, "build_feasible_plan", "schemes")
    # coding
    tracer.patch_method(linear_code.LinearGradientCode, "is_decodable", "coding")
    tracer.patch_method(fractional.FractionalRepetitionCode, "is_decodable", "coding")
    # stragglers
    for base in (delay_base.DelayModel, communication.CommunicationModel):
        for cls in _subclasses(base):
            for method in DRAW_METHODS:
                if method in vars(cls):
                    tracer.patch_method(cls, method, "stragglers", _size)
    # cluster
    tracer.patch_method(dynamic.DynamicClusterSpec, "materialize", "cluster")
    # simulation: the engine entries as the backend calls them
    for entry in (backends.simulate_job, backends.simulate_job_batch):
        tracer.patch_function(entry, "simulation", _job_rows, modules=[backends])
    # simulation.kernels: the suite the engine receives gets wrapped callables
    get_suite = kernels.get_suite
    wrapped_suites: Dict[str, object] = {}

    def traced_get_suite(name: str):
        suite = get_suite(name)
        if suite.name not in wrapped_suites:
            fields = {
                field.name: tracer.wrap(
                    getattr(suite, field.name), "simulation.kernels", field.name, _nbytes
                )
                for field in dataclasses.fields(suite)
                if field.name != "name"
            }
            wrapped_suites[suite.name] = dataclasses.replace(suite, **fields)
        return wrapped_suites[suite.name]

    tracer.patch_function(get_suite, "simulation.kernels", wrapper=traced_get_suite)
    # service
    tracer.patch_function(server.sweep_from_request, "service")
    tracer.patch_method(service.SweepService, "stream", "service", asynchronous=True)
    tracer.patch_method(cache.ResultCache, "task_key", "service")
    tracer.patch_method(cache.ResultCache, "lookup", "service", _hit)
    tracer.patch_method(cache.ResultCache, "store", "service")


# ---------------------------------------------------------------------- #
# From spans to per-layer metrics
# ---------------------------------------------------------------------- #
def union_length(intervals: Iterable[Tuple[float, float]], low: float, high: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[low, high]``."""
    clipped = sorted(
        (max(start, low), min(end, high)) for start, end in intervals if end > low and start < high
    )
    total = 0.0
    cursor = low
    for start, end in clipped:
        start = max(start, cursor)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Each span's self time, in seconds (see the module docstring)."""
    children: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    result: Dict[int, float] = {}
    residual: List[Span] = []
    for span in spans:
        if span.residual:
            residual.append(span)
            continue
        same_thread = [
            (child.cpu0, child.cpu1)
            for child in children[span.id]
            if child.thread == span.thread
        ]
        covered = union_length(same_thread, span.cpu0, span.cpu1)
        result[span.id] = max(span.cpu1 - span.cpu0 - covered, 0.0)
    for span in residual:
        below = 0.0
        stack = list(children[span.id])
        while stack:
            child = stack.pop()
            below += result.get(child.id, 0.0)
            stack.extend(children[child.id])
        result[span.id] = max(span.wall1 - span.wall0 - below, 0.0)
    return result


#: Time metrics: (metric, layer, span names or None for the whole layer).
TIME_METRICS = (
    ("api.self_s", "api", None),
    ("scheduling.plan_s", "scheduling", {"build_sweep_plan"}),
    ("scheduling.self_s", "scheduling", None),
    ("schemes.plan_s", "schemes", None),
    ("coding.decode_s", "coding", None),
    ("stragglers.draw_s", "stragglers", None),
    ("cluster.materialize_s", "cluster", None),
    ("simulation.self_s", "simulation", None),
    ("kernels.link_s", "simulation.kernels", {"link_recurrence"}),
    ("kernels.completion_s", "simulation.kernels", set(COMPLETION_KERNELS)),
    ("service.key_s", "service", {"ResultCache.task_key"}),
    ("service.lookup_s", "service", {"ResultCache.lookup"}),
    ("service.store_s", "service", {"ResultCache.store"}),
    ("service.stream_s", "service", {"sweep_from_request", "SweepService.stream"}),
    ("transport.self_s", "transport", None),
)

#: Count metrics: (metric, layer, span names or None, value of one span).
#: Named metrics count every span of those names; whole-layer metrics count
#: only *entry* spans (whose parent is in another layer), so a draw method
#: delegating to another draw method counts once.
COUNT_METRICS = (
    ("api.results", "api", {"RunResult.from_job"}, lambda span: 1),
    ("scheduling.tasks", "scheduling", {"execute_task"}, lambda span: 1),
    ("scheduling.batched_tasks", "scheduling", {"execute_task"}, lambda span: span.info == "cell"),
    ("schemes.plans", "schemes", None, lambda span: 1),
    ("coding.decode_checks", "coding", None, lambda span: 1),
    ("stragglers.draw_calls", "stragglers", None, lambda span: 1),
    ("stragglers.values_drawn", "stragglers", None, lambda span: span.info or 0),
    ("cluster.materializations", "cluster", None, lambda span: 1),
    ("simulation.entries", "simulation", None, lambda span: 1),
    ("simulation.rows", "simulation", None, lambda span: span.info or 0),
    ("kernels.calls", "simulation.kernels", None, lambda span: 1),
    ("kernels.bytes_computed", "simulation.kernels", None, lambda span: span.info or 0),
    ("service.hits", "service", {"ResultCache.lookup"}, lambda span: span.info is True),
    ("service.misses", "service", {"ResultCache.lookup"}, lambda span: span.info is False),
    ("transport.bytes", "transport", None, lambda span: span.info or 0),
)


def layer_metrics(spans: Sequence[Span]) -> Dict[str, float]:
    """Per-layer times and counts of one set of spans (usually one operation).

    Also returns ``tracing.self_sum_s``: the self times of every span added
    up, which the harness compares with the operation's wall time.
    """
    own = self_times(spans)
    by_id = {span.id: span for span in spans}
    metrics: Dict[str, float] = {}
    for metric, layer, names in TIME_METRICS:
        metrics[metric] = sum(
            own[span.id]
            for span in spans
            if span.layer == layer and (names is None or span.name in names)
        )
    for metric, layer, names, value in COUNT_METRICS:
        total = 0
        for span in spans:
            if span.layer != layer or (names is not None and span.name not in names):
                continue
            parent = by_id.get(span.parent)
            if names is not None or parent is None or parent.layer != layer:
                total += int(value(span))
        metrics[metric] = total
    lookups = metrics["service.hits"] + metrics["service.misses"]
    metrics["service.hit_ratio"] = metrics["service.hits"] / lookups if lookups else 0.0
    metrics["tracing.self_sum_s"] = sum(own.values())
    return metrics

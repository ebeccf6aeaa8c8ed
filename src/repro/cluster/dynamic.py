"""Dynamic (non-stationary) cluster specifications.

A :class:`DynamicClusterSpec` wraps a stationary
:class:`~repro.cluster.spec.ClusterSpec` with two kinds of time variation:

* **worker processes** (:mod:`repro.stragglers.dynamics`) — per-worker
  delay-model evolution over iterations (Markov regime switching, drift,
  random spot preemption), and
* a **churn schedule** of explicit :class:`ChurnEvent`\\ s — scripted
  join/leave/preempt events that toggle worker slots on and off at known
  iterations (elastic scale-out, planned decommissions, injected failures).

Calling :meth:`DynamicClusterSpec.materialize` realises both into a
:class:`ClusterTimeline`: one delay factor per (iteration, worker) cell of
the base cluster (``c`` stands for
:func:`~repro.stragglers.dynamics.scale_delay` ``(base, c)``, ``inf`` for a
vacant slot's :class:`~repro.stragglers.dynamics.UnavailableDelay`). Both
timing engines consume the timeline — the loop engine through
per-iteration :meth:`ClusterTimeline.cluster_at` snapshots, the vectorized
engine through the factors directly — so their bit-identity guarantee
extends to dynamic clusters.

RNG contract
------------
Placement is planned first (against the *base* cluster), then
``materialize`` derives the dynamics generator, then the per-iteration
completion-time draws follow. With the default ``seed=None`` the dynamics
generator is seeded by **exactly one** ``integers`` draw from the job's
generator — the whole timeline is deterministic under the job seed, and both
engines consume that single draw at the same point of the stream. Passing an
explicit ``seed`` pins the churn/regime realisation independently of the job
seed (so Monte-Carlo trials vary the completion-time draws *within* one
fixed scenario) and consumes nothing from the job stream.

The closed-form :class:`~repro.api.backends.AnalyticBackend` covers only
stationary clusters; every analytic entry point raises
:class:`~repro.exceptions.AnalyticIntractableError` for a dynamic spec.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.cluster.spec import ClusterSpec, WorkerSpec
from repro.exceptions import AnalyticIntractableError, ConfigurationError
from repro.stragglers.base import DelayModel
from repro.stragglers.communication import CommunicationModel
from repro.stragglers.dynamics import (
    UNAVAILABLE,
    ProcessLike,
    WorkerProcess,
    process_from_config,
    scale_delay,
)
from repro.utils.rng import RandomState, as_generator
from repro.utils.validation import check_positive_int

__all__ = ["ChurnEvent", "ClusterTimeline", "DynamicClusterSpec"]

_EVENT_KINDS = ("join", "leave", "preempt")


@dataclass(frozen=True)
class ChurnEvent:
    """One scripted membership change of a worker slot.

    Attributes
    ----------
    kind:
        ``"leave"`` — the slot is vacant from ``iteration`` on (until a later
        ``"join"``); ``"join"`` — the slot is (back) up from ``iteration``
        on; ``"preempt"`` — the slot is vacant for ``recovery`` iterations
        starting at ``iteration``, then the replacement automatically
        rejoins (spot kill + reload lag).
    worker:
        Index of the affected worker slot.
    iteration:
        0-based iteration at which the event takes effect.
    recovery:
        For ``"preempt"`` only: number of vacant iterations (``>= 1``).
    """

    kind: str
    worker: int
    iteration: int
    recovery: int = 0

    def __post_init__(self) -> None:
        if self.kind not in _EVENT_KINDS:
            raise ConfigurationError(
                f"event kind must be one of {list(_EVENT_KINDS)}, got "
                f"{self.kind!r}"
            )
        if self.worker < 0:
            raise ConfigurationError(
                f"event worker index must be >= 0, got {self.worker}"
            )
        if self.iteration < 0:
            raise ConfigurationError(
                f"event iteration must be >= 0, got {self.iteration}"
            )
        if self.kind == "preempt":
            check_positive_int(self.recovery, "recovery")
        elif self.recovery != 0:
            raise ConfigurationError(
                f"recovery applies to 'preempt' events only, got "
                f"kind={self.kind!r} with recovery={self.recovery}"
            )

    @classmethod
    def from_config(cls, config: Mapping[str, object]) -> "ChurnEvent":
        """Build an event from a ``{"kind": ..., "worker": ..., ...}`` mapping."""
        options = dict(config)
        unknown = sorted(set(options) - {"kind", "worker", "iteration", "recovery"})
        if unknown:
            raise ConfigurationError(
                f"churn event does not accept the key(s) {unknown}"
            )
        try:
            return cls(
                kind=str(options["kind"]),
                worker=int(options["worker"]),
                iteration=int(options["iteration"]),
                recovery=int(options.get("recovery", 0)),
            )
        except KeyError as error:
            raise ConfigurationError(
                f"churn event config is missing the {error.args[0]!r} key"
            ) from None


class ClusterTimeline:
    """A materialised dynamic cluster: one delay factor per (iteration, worker).

    Produced by :meth:`DynamicClusterSpec.materialize`; consumed by both
    timing engines. ``factors[t, w]`` scales worker ``w``'s base delay model
    at iteration ``t`` (``1.0`` is the base model itself, ``inf`` a vacant
    slot), and ``availability`` is ``factors``' finite mask. Per-cell model
    objects are built on first read (:attr:`models`, :meth:`cluster_at`)
    and cached by (worker, factor).
    """

    def __init__(self, base: ClusterSpec, factors: np.ndarray) -> None:
        self.base = base
        self.factors = np.asarray(factors, dtype=float)
        if self.factors.ndim != 2 or self.factors.shape[1] != base.num_workers:
            raise ConfigurationError(
                f"factors must be an (iterations, {base.num_workers}) matrix, "
                f"got shape {self.factors.shape}"
            )
        if not np.all(self.factors > 0):
            raise ConfigurationError("delay factors must be positive (inf: vacant)")
        self.availability = np.isfinite(self.factors)
        self._workers: Dict[Tuple[int, float], WorkerSpec] = {}

    @property
    def num_iterations(self) -> int:
        return self.factors.shape[0]

    @property
    def num_workers(self) -> int:
        return self.base.num_workers

    @property
    def models(self) -> List[List[DelayModel]]:
        """``models[t][w]``: worker ``w``'s effective delay model at iteration ``t``."""
        return [
            [self._worker(w, factor).compute for w, factor in enumerate(row)]
            for row in self.factors.tolist()
        ]

    def cluster_at(self, iteration: int) -> ClusterSpec:
        """The effective stationary cluster snapshot of one iteration."""
        workers = tuple(
            self._worker(w, factor)
            for w, factor in enumerate(self.factors[iteration].tolist())
        )
        return ClusterSpec(workers=workers, communication=self.base.communication)

    def _worker(self, index: int, factor: float) -> WorkerSpec:
        # A worker's cells repeat a few factors (a Markov worker alternates
        # between two), so each (slot, factor) builds its model once.
        spec = self._workers.get((index, factor))
        if spec is None:
            worker = self.base.workers[index]
            model = UNAVAILABLE if factor == np.inf else scale_delay(worker.compute, factor)
            spec = self._workers[index, factor] = WorkerSpec(model, worker.name)
        return spec


@dataclass(frozen=True)
class DynamicClusterSpec:
    """A stationary base cluster plus time variation.

    Attributes
    ----------
    base:
        The nominal :class:`~repro.cluster.spec.ClusterSpec`. Placement (and
        heterogeneous load allocation) is planned against it — data is loaded
        onto the workers before the iterations start, as in the paper — and
        the dynamics then perturb execution.
    dynamics:
        ``None``, one process applied to every worker, or a mapping from
        worker index to a per-worker process. Each entry may be a
        :class:`~repro.stragglers.dynamics.WorkerProcess` instance, a
        registered process name (``"markov"``), or a registry-style config
        mapping (``{"name": "markov", "slowdown": 8.0}``).
    events:
        Scripted :class:`ChurnEvent` membership changes (instances or config
        mappings), applied in iteration order on top of ``initially_absent``.
    initially_absent:
        Worker slots that start the job vacant (elastic scale-out: a later
        ``"join"`` event brings them up).
    seed:
        ``None`` (default) derives the dynamics generator from the job's
        generator with exactly one draw; an integer pins the scenario
        independently of the job seed (see the module docstring).
    """

    base: ClusterSpec
    dynamics: Union[
        None, ProcessLike, Mapping[int, ProcessLike]
    ] = None
    events: Sequence[Union[ChurnEvent, Mapping[str, object]]] = ()
    initially_absent: Sequence[int] = ()
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        if not isinstance(self.base, ClusterSpec):
            raise ConfigurationError(
                f"base must be a ClusterSpec, got {type(self.base).__name__}"
            )
        object.__setattr__(self, "_processes", self._resolve_dynamics())
        events = tuple(
            event
            if isinstance(event, ChurnEvent)
            else ChurnEvent.from_config(event)
            for event in self.events
        )
        for event in events:
            if event.worker >= self.base.num_workers:
                raise ConfigurationError(
                    f"event targets worker {event.worker} but the cluster has "
                    f"{self.base.num_workers} workers"
                )
        object.__setattr__(self, "events", events)
        absent = tuple(sorted({int(index) for index in self.initially_absent}))
        for index in absent:
            if not 0 <= index < self.base.num_workers:
                raise ConfigurationError(
                    f"initially_absent index {index} is out of range for a "
                    f"{self.base.num_workers}-worker cluster"
                )
        object.__setattr__(self, "initially_absent", absent)
        if self.seed is not None:
            object.__setattr__(self, "seed", int(self.seed))
        if (
            self._processes is None
            and not events
            and not absent
        ):
            raise ConfigurationError(
                "a DynamicClusterSpec needs at least one source of time "
                "variation (dynamics, events, or initially_absent); use the "
                "base ClusterSpec directly for a stationary cluster"
            )

    def _resolve_dynamics(self) -> Optional[Tuple[Optional[WorkerProcess], ...]]:
        """Per-worker process tuple (or ``None`` when fully stationary)."""
        dynamics = self.dynamics
        if dynamics is None:
            return None
        num_workers = self.base.num_workers
        if isinstance(dynamics, Mapping) and "name" not in dynamics:
            processes: List[Optional[WorkerProcess]] = [None] * num_workers
            for key, value in dynamics.items():
                try:
                    index = int(key)
                except (TypeError, ValueError):
                    raise ConfigurationError(
                        "a per-worker dynamics mapping must be keyed by "
                        f"worker index (or be a config with a 'name' key), "
                        f"got key {key!r}"
                    ) from None
                if not 0 <= index < num_workers:
                    raise ConfigurationError(
                        f"dynamics target worker {index} but the cluster has "
                        f"{num_workers} workers"
                    )
                processes[index] = process_from_config(value)
            return tuple(processes)
        process = process_from_config(dynamics)
        return tuple([process] * num_workers)

    # ------------------------------------------------------------------ #
    @property
    def num_workers(self) -> int:
        """Number of worker slots (vacant slots included)."""
        return self.base.num_workers

    @property
    def processes(self) -> Optional[Tuple[Optional[WorkerProcess], ...]]:
        """The resolved per-worker processes (``None`` when fully scripted).

        Entries are ``None`` for workers without dynamics. The tuple is the
        same object :meth:`materialize` consumes, so callers (e.g. the
        fault-injection layer's injectability check) classify exactly the
        processes that will drive the timeline.
        """
        return self._processes  # type: ignore[attr-defined]

    @property
    def communication(self) -> CommunicationModel:
        """The master's communication model (shared with the base cluster)."""
        return self.base.communication

    # -- analytic entry points: fail with the typed intractability error -- #
    def delay_models(self):
        raise AnalyticIntractableError(
            "the cluster is non-stationary (DynamicClusterSpec): per-worker "
            "delay models vary across iterations, so no single stationary "
            "model list exists; run the job on a simulation backend instead"
        )

    def straggling_parameters(self):
        self.delay_models()

    def shift_parameters(self):
        self.delay_models()

    # ------------------------------------------------------------------ #
    def availability(self, num_iterations: int) -> np.ndarray:
        """The ``(num_iterations, num_workers)`` boolean membership matrix.

        Only the scripted schedule (``initially_absent`` + ``events``) is
        reflected here; random preemptions from a
        :class:`~repro.stragglers.dynamics.PreemptionModel` are part of
        :meth:`materialize`'s realised timeline.
        """
        check_positive_int(num_iterations, "num_iterations")
        up = np.ones((num_iterations, self.base.num_workers), dtype=bool)
        up[:, list(self.initially_absent)] = False
        for event in sorted(self.events, key=lambda event: event.iteration):
            if event.iteration >= num_iterations:
                continue
            if event.kind == "leave":
                up[event.iteration :, event.worker] = False
            elif event.kind == "join":
                up[event.iteration :, event.worker] = True
            else:  # preempt: vacant window, then the replacement rejoins
                stop = min(event.iteration + event.recovery, num_iterations)
                up[event.iteration : stop, event.worker] = False
        return up

    def materialize(
        self, num_iterations: int, rng: RandomState = None
    ) -> ClusterTimeline:
        """Realise the per-(iteration, worker) delay-factor timeline.

        Consumes exactly one ``integers`` draw from ``rng`` when the spec has
        no explicit ``seed`` (and nothing otherwise) — the contract both
        timing engines rely on to stay bit-identical.
        """
        check_positive_int(num_iterations, "num_iterations")
        if self.seed is None:
            generator = as_generator(rng)
            dynamics_seed = int(generator.integers(0, 2**63))
        else:
            dynamics_seed = self.seed
        dynamics_rng = np.random.default_rng(dynamics_seed)

        factors = np.ones((num_iterations, self.base.num_workers))
        processes = self._processes or ()
        start = 0
        while start < len(processes):
            # One call per run of consecutive workers sharing a process; the
            # process draws from the dynamics generator regardless of the
            # scripted schedule, so consumption is schedule-free.
            process, stop = processes[start], start + 1
            while stop < len(processes) and processes[stop] is process:
                stop += 1
            if process is not None:
                shape = (num_iterations, stop - start)
                block = np.asarray(
                    process.timeline(num_iterations, stop - start, dynamics_rng),
                    dtype=float,
                )
                if block.shape != shape:
                    raise ConfigurationError(
                        f"process {process!r} returned a {block.shape} factor "
                        f"block for {shape[0]} iterations x {shape[1]} workers"
                    )
                factors[:, start:stop] = block
            start = stop
        factors[~self.availability(num_iterations)] = np.inf
        return ClusterTimeline(self.base, factors)

"""Fault injection: replaying simulated straggler scenarios on real workers.

The simulators model stragglers as *delay models* and time variation as
*worker processes* (:mod:`repro.stragglers.dynamics`) realised into a
per-(iteration, worker) timeline by
:meth:`repro.cluster.dynamic.DynamicClusterSpec.materialize`. This module
maps that same realisation onto the multiprocessing runtime: a
:class:`FaultSchedule` is a seed-deterministic ``(iterations, workers)``
matrix of **injected sleeps** — one pre-drawn delay per task — with
``inf`` marking the cells where the worker slot is vacant (preempted,
churned out, or not yet joined). Worker processes sleep their cell's value
before computing each iteration; vacant cells make the worker either stay
silent (``fault_mode="mute"``) or exit so the master kills-and-respawns it
when the slot comes back (``fault_mode="respawn"``) — see
:func:`repro.runtime.job.run_distributed_job`.

Sim-to-real mapping
-------------------
Each active cell's sleep is drawn as::

    compute_model.sample(worker_examples) [+ communication.sample(message_size)]

which is exactly the arrival-time composition the timing engines use for a
non-serialised master link: a worker's message becomes available at
``compute_time + transfer_time``. Injecting the transfer draw as extra
sleep (the default) emulates the calibrated network on a loopback queue
whose real transfer cost is negligible; pass
``include_communication=False`` to inject pure computation straggling.
Master-side link serialisation is **not** injectable — queueing at the
master cannot be emulated by per-worker sleeps — so cross-validation
scenarios run with ``serialize_master_link=False`` (the regime of the
paper's EC2 experiments).

Determinism contract
--------------------
:func:`build_fault_schedule` consumes the generator exactly like the
simulation engines' scenario path: materialising a
:class:`~repro.cluster.dynamic.DynamicClusterSpec` draws the spec's single
dynamics-seed ``integers`` draw (or nothing when the spec pins a scenario
``seed``), after which the sleep matrix is filled row-major —
iteration-major, worker-minor — with vacant cells consuming **no** draws
(the :class:`~repro.stragglers.dynamics.UnavailableDelay` contract). The
schedule is therefore bit-reproducible from ``(spec, num_iterations, rng
state)``, which is what lets the cross-validation layer replay the
*identical* scenario (same regimes, same kills) through the simulators and
compare only the realised completion times.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.cluster.dynamic import DynamicClusterSpec
from repro.cluster.spec import ClusterSpec
from repro.datasets.batching import BatchSpec
from repro.exceptions import ConfigurationError
from repro.schemes.base import ExecutionPlan
from repro.stragglers.dynamics import UnavailableDelay, registered_process_name
from repro.utils.rng import RandomState, as_generator
from repro.utils.validation import check_positive_int

__all__ = [
    "FAULT_MODES",
    "FaultSchedule",
    "build_fault_schedule",
    "ensure_injectable",
    "is_injectable",
    "plan_example_loads",
    "validate_fault_mode",
]

#: How a real worker realises a vacant schedule cell. ``"mute"`` keeps the
#: process alive but silent for the vacancy (cheapest, no spawn cost inside
#: the measured iterations); ``"respawn"`` makes the process exit at its
#: first vacant cell and the master spawn a fresh replacement — which
#: reloads the worker's data partition, the real analogue of the
#: simulator's recovery lag — when the slot is scheduled up again.
FAULT_MODES = ("mute", "respawn")


def validate_fault_mode(fault_mode: str) -> str:
    """Validate a ``fault_mode`` knob value, returning it unchanged."""
    if fault_mode not in FAULT_MODES:
        raise ConfigurationError(
            f"unknown fault mode {fault_mode!r}; expected one of {list(FAULT_MODES)}"
        )
    return fault_mode


@dataclass(frozen=True)
class FaultSchedule:
    """A realised fault-injection scenario for one distributed run.

    Attributes
    ----------
    delays:
        ``(iterations, workers)`` float matrix of injected sleeps in
        seconds; ``inf`` marks vacant cells (the worker does not answer that
        iteration). Finite entries must be non-negative.
    """

    delays: np.ndarray

    def __post_init__(self) -> None:
        delays = np.asarray(self.delays, dtype=float)
        if delays.ndim != 2:
            raise ConfigurationError(
                f"delays must be an (iterations, workers) matrix, got "
                f"{delays.ndim} dimension(s)"
            )
        if delays.shape[0] < 1 or delays.shape[1] < 1:
            raise ConfigurationError(
                f"delays must cover at least one iteration and one worker, "
                f"got shape {delays.shape}"
            )
        finite = delays[np.isfinite(delays)]
        if np.any(np.isnan(delays)) or np.any(finite < 0.0):
            raise ConfigurationError(
                "injected delays must be non-negative seconds (inf marks a "
                "vacant cell); got NaN or negative entries"
            )
        delays.setflags(write=False)
        object.__setattr__(self, "delays", delays)

    # ------------------------------------------------------------------ #
    @property
    def num_iterations(self) -> int:
        """Number of scheduled iterations."""
        return int(self.delays.shape[0])

    @property
    def num_workers(self) -> int:
        """Number of worker slots."""
        return int(self.delays.shape[1])

    @property
    def availability(self) -> np.ndarray:
        """Boolean ``(iterations, workers)`` matrix of non-vacant cells."""
        return np.isfinite(self.delays)

    @property
    def active_counts(self) -> np.ndarray:
        """Scheduled-active worker count per iteration."""
        return self.availability.sum(axis=1)

    def worker_delays(self, worker: int) -> np.ndarray:
        """Worker ``worker``'s per-iteration injected-sleep column."""
        if not 0 <= worker < self.num_workers:
            raise ConfigurationError(
                f"worker index must lie in [0, {self.num_workers}), got {worker}"
            )
        return self.delays[:, worker]

    def is_absent(self, iteration: int, worker: int) -> bool:
        """Whether the cell ``(iteration, worker)`` is vacant."""
        return not bool(np.isfinite(self.delays[iteration, worker]))

    def fingerprint(self) -> str:
        """SHA-256 digest of the schedule's exact bits.

        Golden-trace fixtures pin this digest: any drift of the injection
        RNG contract (draw order, materialisation semantics, model
        re-parameterisation) changes the digest even when summary statistics
        stay close.
        """
        digest = hashlib.sha256()
        digest.update(str(self.delays.shape).encode("ascii"))
        digest.update(np.ascontiguousarray(self.delays).tobytes())
        return digest.hexdigest()


# --------------------------------------------------------------------------- #
def is_injectable(spec: Union[ClusterSpec, DynamicClusterSpec]) -> bool:
    """Whether :func:`build_fault_schedule` can realise ``spec``."""
    try:
        ensure_injectable(spec)
    except ConfigurationError:
        return False
    return True


def ensure_injectable(spec: Union[ClusterSpec, DynamicClusterSpec]) -> None:
    """Raise a typed error when ``spec``'s dynamics cannot be injected.

    Stationary :class:`~repro.cluster.spec.ClusterSpec`\\ s are always
    injectable (each worker sleeps draws from its own delay model). A
    :class:`~repro.cluster.dynamic.DynamicClusterSpec` is injectable when
    every worker process is an instance of a **registered** process class —
    the same registry that ``process_from_config`` resolves for the
    simulators — because only then does the real run replay the scenario
    with semantics the simulators can reproduce. Scripted churn events and
    ``initially_absent`` slots are always injectable.

    Raises
    ------
    ConfigurationError
        Naming the first unsupported process kind.
    """
    if isinstance(spec, ClusterSpec):
        return
    if not isinstance(spec, DynamicClusterSpec):
        raise ConfigurationError(
            "fault injection needs a ClusterSpec or DynamicClusterSpec, got "
            f"{type(spec).__name__}"
        )
    processes = spec.processes
    if processes is None:
        return
    for worker, process in enumerate(processes):
        if process is None:
            continue
        if registered_process_name(process) is None:
            raise ConfigurationError(
                f"worker {worker}'s process kind {type(process).__name__!r} "
                "is not a registered worker process, so the multiprocess "
                "runtime cannot inject it; register it with "
                "@register_process (simulation resolves the same registry "
                "via process_from_config) or run the spec on a simulation "
                "backend"
            )


def plan_example_loads(
    plan: ExecutionPlan, unit_spec: Optional[BatchSpec] = None
) -> np.ndarray:
    """Per-worker training-example counts implied by a frozen plan.

    The injected compute-delay draws use these loads, mirroring the
    simulators (a worker's completion-time distribution is parameterised by
    the number of examples it processes per iteration). ``unit_spec`` maps
    units to example batches; ``None`` means one example per unit.
    """
    loads = np.zeros(plan.num_workers, dtype=int)
    for worker in range(plan.num_workers):
        units = plan.worker_units(worker)
        if unit_spec is None:
            loads[worker] = len(units)
        else:
            # reprolint: allow[SUM001] reason=integer batch sizes; an int sum is exact in any order
            loads[worker] = sum(
                int(unit_spec.batch_indices(int(unit)).size) for unit in units
            )
    return loads


def _timeline_models(
    spec: Union[ClusterSpec, DynamicClusterSpec],
    num_iterations: int,
    rng: RandomState,
) -> List[List[object]]:
    """The per-(iteration, worker) effective delay models of the scenario."""
    if isinstance(spec, DynamicClusterSpec):
        return spec.materialize(num_iterations, rng=rng).models
    row = [worker.compute for worker in spec.workers]
    return [list(row) for _ in range(num_iterations)]


def build_fault_schedule(
    spec: Union[ClusterSpec, DynamicClusterSpec],
    num_iterations: int,
    *,
    loads: Sequence[int],
    message_sizes: Optional[Sequence[float]] = None,
    include_communication: bool = True,
    rng: RandomState = None,
) -> FaultSchedule:
    """Realise ``spec`` into an injected-sleep schedule for real workers.

    Parameters
    ----------
    spec:
        The scenario: a stationary cluster (every iteration draws from the
        workers' own delay models) or a dynamic one (the materialised
        timeline decides each cell's effective model; vacant cells become
        ``inf``).
    num_iterations:
        Job horizon; one schedule row per iteration.
    loads:
        Per-worker example counts (see :func:`plan_example_loads`); workers
        with zero examples draw no compute delay.
    message_sizes:
        Per-worker message sizes in gradient-units, enabling the
        communication component of each sleep; ``None`` (or
        ``include_communication=False``) injects pure compute delay.
    include_communication:
        Whether to add a transfer-time draw from the cluster's
        communication model to every active cell (the default — see the
        module docstring's sim-to-real mapping).
    rng:
        Seed-like value or generator; consumed exactly as documented in the
        module's determinism contract.
    """
    check_positive_int(num_iterations, "num_iterations")
    if len(loads) != spec.num_workers:
        raise ConfigurationError(
            f"loads must have one entry per worker "
            f"({len(loads)} != {spec.num_workers})"
        )
    if message_sizes is not None and len(message_sizes) != spec.num_workers:
        raise ConfigurationError(
            f"message_sizes must have one entry per worker "
            f"({len(message_sizes)} != {spec.num_workers})"
        )
    ensure_injectable(spec)
    generator = as_generator(rng)
    models = _timeline_models(spec, num_iterations, generator)
    communication = spec.communication if include_communication else None
    if communication is not None and message_sizes is None:
        raise ConfigurationError(
            "include_communication=True needs per-worker message_sizes "
            "(pass the plan's message_sizes, or disable the communication "
            "component)"
        )

    delays = np.zeros((num_iterations, spec.num_workers), dtype=float)
    for t in range(num_iterations):
        row = models[t]
        for worker in range(spec.num_workers):
            model = row[worker]
            if isinstance(model, UnavailableDelay):
                # Vacant slot: no draw on any path (the UnavailableDelay
                # contract), exactly like the simulation engines.
                delays[t, worker] = np.inf
                continue
            value = 0.0
            load = int(loads[worker])
            if load > 0:
                value += float(model.sample(load, rng=generator))
            if communication is not None:
                assert message_sizes is not None
                value += float(
                    communication.sample(float(message_sizes[worker]), rng=generator)
                )
            delays[t, worker] = value
    return FaultSchedule(delays=delays)

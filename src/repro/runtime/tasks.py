"""Picklable per-worker task descriptions.

A worker process needs only its part of an
:class:`~repro.schemes.base.ExecutionPlan`, so the runtime flattens a plan
into :class:`WorkerTask` objects that carry only plain data: the worker's
slice of the dataset (grouped by unit), the encoding its plan's completion
rule names and, for a linear code, its coefficients, the model, and an
optional straggler-injection delay model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

import numpy as np

from repro.datasets.base import Dataset
from repro.datasets.batching import BatchSpec
from repro.exceptions import RuntimeBackendError
from repro.gradients.base import GradientModel
from repro.schemes.base import ENCODINGS, CodedRule, ExecutionPlan
from repro.stragglers.base import DelayModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.faults import FaultSchedule

__all__ = ["WorkerTask", "build_worker_tasks"]


@dataclass
class WorkerTask:
    """Everything one worker process needs, in picklable form.

    Attributes
    ----------
    worker_id:
        The worker's index in the plan.
    model:
        The gradient model (a plain, picklable object).
    unit_features, unit_labels:
        Per-unit data slices, in the order of the worker's unit assignment.
    encoding_mode:
        ``"sum"`` (BCC / uncoded), ``"identity"`` (per-unit messages), or
        ``"linear"`` (coded schemes).
    coefficients:
        Linear-combination coefficients for ``"linear"`` mode, aligned with
        the unit order; ``None`` otherwise.
    straggle_delay:
        Optional delay model used to inject an artificial sleep before
        answering each iteration (the per-iteration load passed to it is the
        worker's total number of examples).
    seed:
        Seed for the worker's private RNG (straggler draws).
    fault_delays:
        Optional pre-drawn per-iteration injected sleeps (one column of a
        :class:`~repro.runtime.faults.FaultSchedule`); ``inf`` entries mark
        iterations where this worker slot is vacant. Mutually exclusive
        with ``straggle_delay`` (the schedule already realised every draw).
    exit_when_absent:
        With ``fault_delays``: whether the worker process exits at its
        first vacant iteration (``fault_mode="respawn"`` — the master
        spawns a replacement when the slot returns) instead of staying
        alive but silent (``fault_mode="mute"``).
    """

    worker_id: int
    model: GradientModel
    unit_features: List[np.ndarray]
    unit_labels: List[np.ndarray]
    encoding_mode: str
    coefficients: Optional[np.ndarray] = None
    straggle_delay: Optional[DelayModel] = None
    seed: Optional[int] = None
    fault_delays: Optional[np.ndarray] = None
    exit_when_absent: bool = False

    def __post_init__(self) -> None:
        if self.encoding_mode not in ENCODINGS:
            raise RuntimeBackendError(
                f"unknown encoding mode {self.encoding_mode!r}; "
                f"expected one of {ENCODINGS}"
            )
        if self.encoding_mode == "linear" and self.coefficients is None:
            raise RuntimeBackendError("linear encoding requires coefficients")
        if len(self.unit_features) != len(self.unit_labels):
            raise RuntimeBackendError(
                "unit_features and unit_labels must have the same length"
            )
        if self.fault_delays is not None:
            if self.straggle_delay is not None:
                raise RuntimeBackendError(
                    "fault_delays and straggle_delay are mutually exclusive: "
                    "a fault schedule already realises every injected sleep"
                )
            delays = np.asarray(self.fault_delays, dtype=float)
            if delays.ndim != 1:
                raise RuntimeBackendError(
                    "fault_delays must be a 1-D per-iteration array, got "
                    f"{delays.ndim} dimension(s)"
                )
            self.fault_delays = delays

    @property
    def num_units(self) -> int:
        """Number of data units this worker processes."""
        return len(self.unit_features)

    @property
    def num_examples(self) -> int:
        """Total number of examples across the worker's units."""
        # reprolint: allow[SUM001] reason=integer row counts; an int sum is exact in any order
        return int(sum(features.shape[0] for features in self.unit_features))

    # ------------------------------------------------------------------ #
    def compute_message(self, weights: np.ndarray) -> np.ndarray:
        """Compute this worker's message for the given query point."""
        weights = np.asarray(weights, dtype=float)
        if self.num_units == 0:
            return np.zeros(0, dtype=float)
        unit_gradients = np.vstack(
            [
                self.model.gradient_sum(weights, features, labels)[None, :]
                for features, labels in zip(self.unit_features, self.unit_labels)
            ]
        )
        if self.encoding_mode == "sum":
            return unit_gradients.sum(axis=0)
        if self.encoding_mode == "identity":
            return unit_gradients
        assert self.coefficients is not None
        return np.asarray(self.coefficients, dtype=float) @ unit_gradients


def build_worker_tasks(
    plan: ExecutionPlan,
    model: GradientModel,
    dataset: Dataset,
    *,
    unit_spec: Optional[BatchSpec] = None,
    straggle_delays: Optional[List[Optional[DelayModel]]] = None,
    seed: Optional[int] = None,
    fault_schedule: Optional["FaultSchedule"] = None,
    fault_mode: str = "mute",
) -> List[WorkerTask]:
    """Flatten an execution plan into one :class:`WorkerTask` per worker.

    Parameters
    ----------
    unit_spec:
        Unit-to-example mapping (``None`` = one example per unit).
    straggle_delays:
        Optional per-worker delay models for artificial straggling; ``None``
        entries (or ``None`` overall) disable injection for those workers.
    seed:
        Base seed from which per-worker seeds are derived.
    fault_schedule:
        Optional realised :class:`~repro.runtime.faults.FaultSchedule`;
        each worker receives its pre-drawn injected-sleep column. Mutually
        exclusive with ``straggle_delays``.
    fault_mode:
        ``"mute"`` or ``"respawn"`` — how workers realise vacant cells (see
        :data:`~repro.runtime.faults.FAULT_MODES`).
    """
    from repro.runtime.faults import validate_fault_mode

    validate_fault_mode(fault_mode)
    if straggle_delays is not None and len(straggle_delays) != plan.num_workers:
        raise RuntimeBackendError(
            "straggle_delays must have one entry per worker "
            f"({len(straggle_delays)} != {plan.num_workers})"
        )
    if fault_schedule is not None:
        if straggle_delays is not None:
            raise RuntimeBackendError(
                "fault_schedule and straggle_delays are mutually exclusive: "
                "the schedule already realises every injected sleep"
            )
        if fault_schedule.num_workers != plan.num_workers:
            raise RuntimeBackendError(
                "the fault schedule covers "
                f"{fault_schedule.num_workers} workers but the plan has "
                f"{plan.num_workers}"
            )
    rule = plan.completion
    mode = rule.encoding
    tasks: List[WorkerTask] = []
    for worker in range(plan.num_workers):
        units = plan.worker_units(worker)
        unit_features: List[np.ndarray] = []
        unit_labels: List[np.ndarray] = []
        for unit in units:
            if unit_spec is None:
                example_indices = np.array([unit], dtype=int)
            else:
                example_indices = unit_spec.batch_indices(int(unit))
            features, labels = dataset.rows(example_indices)
            unit_features.append(features)
            unit_labels.append(labels)
        coefficients = None
        if mode == "linear":
            assert isinstance(rule, CodedRule)
            # Aligned with the worker's unit order.
            coefficients = rule.code.encoding_matrix[worker, units].astype(float)
        tasks.append(
            WorkerTask(
                worker_id=worker,
                model=model,
                unit_features=unit_features,
                unit_labels=unit_labels,
                encoding_mode=mode,
                coefficients=coefficients,
                straggle_delay=None
                if straggle_delays is None
                else straggle_delays[worker],
                seed=None if seed is None else seed + worker,
                fault_delays=None
                if fault_schedule is None
                else fault_schedule.worker_delays(worker),
                exit_when_absent=fault_mode == "respawn",
            )
        )
    return tasks

"""The unified result type every backend returns.

:class:`RunResult` is a superset of the historical
:class:`~repro.simulation.job.JobResult` (simulated timing metrics plus an
optional training trace) and
:class:`~repro.runtime.job.DistributedRunResult` (wall-clock measurements of
the multiprocessing runtime), so callers can hold results from any backend in
one table without caring where they came from. ``summary()`` is preserved
from ``JobResult`` and ``to_table()`` renders the headline metrics.

Record modes
------------
A result normally carries its **full** per-iteration log. From the
vectorized engine that log is a
:class:`~repro.simulation.job.ColumnarOutcomeLog`: it pickles as a few
arrays (one per :class:`~repro.simulation.iteration.IterationOutcome`
field, the heard workers as one flat index) instead of one object per
iteration, but its size still grows with the iteration count. For
Monte-Carlo sweeps only the aggregates usually matter. ``compact()``
converts a result to **summary** form: the headline aggregates are frozen
into ``summary_data`` (a read-only mapping), the iteration log (and
training trace) is dropped, and every aggregate property keeps answering
from the frozen summary.
:func:`~repro.api.sweep.run_sweep` exposes this as ``record="summary"``;
:func:`validate_record` is the single source of the mode names.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional

import numpy as np

from repro.exceptions import ConfigurationError, SimulationError
from repro.runtime.job import DistributedRunResult
from repro.simulation.job import JobResult
from repro.utils.tables import TextTable

__all__ = ["RECORD_MODES", "RunResult", "validate_record"]

#: Recognised ``record`` knob values across the sweep stack.
RECORD_MODES = ("full", "summary")


def validate_record(record: str) -> str:
    """Validate a ``record`` knob value, returning it unchanged."""
    if record not in RECORD_MODES:
        raise ConfigurationError(
            f"unknown record mode {record!r}; expected one of {list(RECORD_MODES)}"
        )
    return record


@dataclass(frozen=True)
class RunResult(JobResult):
    """Unified outcome of one job run, whatever backend executed it.

    In addition to the inherited :class:`~repro.simulation.job.JobResult`
    fields (``scheme_name``, simulated ``iterations``, optional
    ``training``), a run result carries:

    Attributes
    ----------
    backend:
        Name of the backend that produced the result.
    iteration_times:
        Wall-clock seconds per iteration (multiprocessing backend only).
    workers_heard:
        Realised per-iteration recovery thresholds measured by the
        multiprocessing master (the simulation backends record the same
        information inside ``iterations``).
    total_seconds:
        Total wall-clock time of a real run (0.0 for simulated runs).
    extras:
        Free-form metrics attached by custom sweep runners.
    summary_data:
        Frozen headline metrics of a compacted (``record="summary"``)
        result, as a read-only copy of the mapping passed in; ``None``
        while the full iteration log is carried.
    """

    backend: str = ""
    iteration_times: List[float] = field(default_factory=list)
    workers_heard: List[int] = field(default_factory=list)
    total_seconds: float = 0.0
    extras: Dict[str, object] = field(default_factory=dict)
    summary_data: Optional[Mapping[str, object]] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.summary_data is not None:
            # A result cache's memory tier hands this very object to every
            # later hit, so the summary must not be editable in place.
            object.__setattr__(
                self, "summary_data", MappingProxyType(dict(self.summary_data))
            )

    def __getstate__(self) -> Dict[str, object]:
        # A mappingproxy does not pickle, and compacted results cross a
        # process pool by pickle: the summary travels as a plain dict.
        state = dict(self.__dict__)
        if self.summary_data is not None:
            state["summary_data"] = dict(self.summary_data)
        return state

    def __setstate__(self, state: Dict[str, object]) -> None:
        self.__dict__.update(state)
        self.__post_init__()

    # ------------------------------------------------------------------ #
    @classmethod
    def from_job(cls, job: JobResult, *, backend: str) -> "RunResult":
        """Wrap a simulated :class:`JobResult` (shares its read-only iteration log)."""
        return cls(
            scheme_name=job.scheme_name,
            iterations=job.iterations,
            training=job.training,
            backend=backend,
        )

    @classmethod
    def from_distributed(
        cls,
        result: DistributedRunResult,
        *,
        backend: str,
        extras: Dict[str, object],
    ) -> "RunResult":
        """Wrap a multiprocessing :class:`DistributedRunResult`.

        ``extras`` are added after the run's own (its scheduled workers).
        """
        merged: Dict[str, object] = {}
        if result.scheduled_workers:
            # Fault-injected run: keep the realised availability trace so
            # the cross-validation layer can line it up against the
            # simulators' replay of the same scenario.
            merged["scheduled_workers"] = list(result.scheduled_workers)
        merged.update(extras)
        return cls(
            scheme_name=result.scheme_name,
            training=result.training,
            backend=backend,
            iteration_times=list(result.iteration_times),
            workers_heard=list(result.workers_heard),
            total_seconds=result.total_seconds,
            extras=merged,
        )

    # ------------------------------------------------------------------ #
    def compact(self) -> "RunResult":
        """This result in summary form (see "Record modes" above).

        Freezes :meth:`summary` into ``summary_data`` and drops the
        per-iteration log and training trace, so the result pickles in a few
        hundred bytes however many iterations it simulated. Aggregate
        properties (``total_time``, ``average_recovery_threshold``, ...) and
        :meth:`summary` keep answering from the frozen values; per-iteration
        access (``iterations``, ``training``) is gone. Already-compact
        results are returned unchanged.
        """
        if self.summary_data is not None and not self.iterations:
            return self
        return RunResult(
            scheme_name=self.scheme_name,
            backend=self.backend,
            total_seconds=self.total_seconds,
            extras=dict(self.extras),
            summary_data=self.summary(),
        )

    def _frozen(self, key: str) -> Optional[object]:
        """A compacted result's frozen summary value, or ``None``."""
        if self.summary_data is not None and not self.iterations:
            return self.summary_data.get(key)
        return None

    # ------------------------------------------------------------------ #
    @property
    def num_iterations(self) -> int:
        """Number of executed iterations (simulated or wall-clock)."""
        if self.iterations:
            return len(self.iterations)
        frozen = self._frozen("iterations")
        if frozen is not None:
            return int(frozen)
        return len(self.iteration_times)

    @property
    def average_recovery_threshold(self) -> float:
        """Mean workers waited for per iteration, from whichever record exists."""
        if self.iterations:
            return JobResult.average_recovery_threshold.fget(self)
        frozen = self._frozen("recovery_threshold")
        if frozen is not None:
            return float(frozen)
        if self.workers_heard:
            return float(np.mean(self.workers_heard))
        raise SimulationError("the run recorded no iterations")

    @property
    def average_communication_load(self) -> float:
        """Mean per-iteration communication load, surviving compaction."""
        frozen = self._frozen("communication_load")
        if frozen is not None:
            return float(frozen)
        return JobResult.average_communication_load.fget(self)

    @property
    def total_time(self) -> float:
        """Total running time: simulated when available, else wall-clock."""
        if self.iterations:
            return JobResult.total_time.fget(self)
        frozen = self._frozen("total_time")
        if frozen is not None:
            return float(frozen)
        return self.total_seconds

    @property
    def total_computation_time(self) -> float:
        """Total computation time, surviving compaction."""
        frozen = self._frozen("computation_time")
        if frozen is not None:
            return float(frozen)
        return JobResult.total_computation_time.fget(self)

    @property
    def total_communication_time(self) -> float:
        """Total communication time, surviving compaction."""
        frozen = self._frozen("communication_time")
        if frozen is not None:
            return float(frozen)
        return JobResult.total_communication_time.fget(self)

    # ------------------------------------------------------------------ #
    def summary(self) -> dict:
        """Headline metrics; the ``JobResult`` keys are preserved verbatim."""
        if self.summary_data is not None and not self.iterations:
            return dict(self.summary_data)
        if self.iterations:
            data = JobResult.summary(self)
        else:
            data = {
                "scheme": self.scheme_name,
                "iterations": self.num_iterations,
                "total_time": self.total_time,
            }
            if self.workers_heard:
                data["recovery_threshold"] = self.average_recovery_threshold
        if self.backend:
            data["backend"] = self.backend
        if self.total_seconds:
            data["wall_seconds"] = self.total_seconds
        if self.training is not None and self.training.history:
            data["final_loss"] = self.training.losses[-1]
        return data

    def to_table(self, *, title: str = "") -> TextTable:
        """One-row-per-metric monospace table of :meth:`summary`."""
        table = TextTable(
            ["metric", "value"],
            title=title or f"{self.scheme_name} ({self.backend or 'run'})",
        )
        for key, value in self.summary().items():
            table.add_row([key, value])
        for key, value in self.extras.items():
            table.add_row(
                [key, value if isinstance(value, (str, int, float)) else repr(value)]
            )
        return table

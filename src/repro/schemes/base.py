"""Scheme, ExecutionPlan and master-side aggregators.

Terminology
-----------
*Unit*
    The granularity at which data is placed and accounted. In the paper's
    EC2 experiments a unit is a batch of 100 examples treated as one "super
    example"; in the purely analytical results a unit is a single example.
    Message sizes are measured in units of one gradient vector regardless.

*Execution plan*
    A frozen placement plus a :class:`CompletionRule`: the master's stopping
    rule as a frozen value, which builds the aggregators and names the
    worker-side encoding. One plan is built per training job (the paper
    loads data onto the workers once, before the iterations start); a fresh
    aggregator is created for every iteration.

*Aggregator*
    The master-side state machine for one iteration: it is fed
    ``(worker, message)`` pairs in arrival order, reports when enough
    messages have been received (the scheme's stopping rule) and finally
    decodes the sum of all units' gradients.

Timing-only mode
----------------
The discrete-event simulator often only needs the *stopping rule*, not the
numerical gradient. Aggregators therefore accept ``message=None``; they then
track completion exactly as they would with real messages but skip storage,
and :meth:`MasterAggregator.decode` is unavailable.
"""

from __future__ import annotations

import abc
import inspect
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.spec import ClusterSpec
from repro.analysis.analytic import AnalyticIteration, DEFAULT_QUANTILES
from repro.coding.assignment import DataAssignment
from repro.coding.linear_code import LinearGradientCode
from repro.exceptions import (
    AnalyticIntractableError,
    ConfigurationError,
    CoverageError,
    DecodingError,
)
from repro.utils.rng import RandomState

__all__ = [
    "MasterAggregator",
    "CountAggregator",
    "BatchCoverageAggregator",
    "UnitCoverageAggregator",
    "CodedAggregator",
    "CompletionRule",
    "CountRule",
    "CoverageRule",
    "CodedRule",
    "CustomRule",
    "ExecutionPlan",
    "Scheme",
]


# --------------------------------------------------------------------------- #
# Aggregators
# --------------------------------------------------------------------------- #
class MasterAggregator(abc.ABC):
    """Master-side per-iteration state: stopping rule plus decoding."""

    def __init__(self) -> None:
        self._received_workers: List[int] = []
        self._messages_kept = 0

    # -- stopping rule -------------------------------------------------- #
    @abc.abstractmethod
    def _accept(self, worker: int, message: Optional[np.ndarray]) -> bool:
        """Process one arrival; return True if the message was *kept*."""

    @abc.abstractmethod
    def is_complete(self) -> bool:
        """True once the master can recover the full gradient."""

    @abc.abstractmethod
    def decode(self) -> np.ndarray:
        """Return the *sum* of every unit's gradient (caller divides by ``m``)."""

    # -- shared bookkeeping --------------------------------------------- #
    def receive(self, worker: int, message: Optional[np.ndarray] = None) -> bool:
        """Feed one arrival to the aggregator.

        Parameters
        ----------
        worker:
            Index of the worker whose message arrived.
        message:
            The worker's message, or ``None`` in timing-only mode.

        Returns
        -------
        bool
            ``True`` once the aggregator is complete (this arrival may or may
            not have been the deciding one).
        """
        if self.is_complete():
            # Late arrivals after completion are ignored entirely; the paper's
            # master simply stops listening.
            return True
        self._received_workers.append(int(worker))
        if self._accept(int(worker), message):
            self._messages_kept += 1
        return self.is_complete()

    @property
    def workers_heard(self) -> int:
        """Number of worker messages received before (and including) completion."""
        return len(self._received_workers)

    @property
    def received_workers(self) -> List[int]:
        """Worker indices in arrival order."""
        return list(self._received_workers)

    @property
    def messages_kept(self) -> int:
        """Number of messages the master stored (i.e. did not discard)."""
        return self._messages_kept


class CountAggregator(MasterAggregator):
    """Wait for a fixed set of workers (the uncoded / load-balanced rule).

    The master keeps every message from a worker in ``required_workers`` and
    is complete when all of them have reported. Decoding is a plain sum.
    """

    def __init__(self, required_workers: Sequence[int]) -> None:
        super().__init__()
        self._required = set(int(w) for w in required_workers)
        if not self._required:
            raise CoverageError("CountAggregator needs at least one required worker")
        self._pending = set(self._required)
        self._sum: Optional[np.ndarray] = None

    def _accept(self, worker: int, message: Optional[np.ndarray]) -> bool:
        if worker not in self._pending:
            return False
        self._pending.discard(worker)
        if message is not None:
            message = np.asarray(message, dtype=float)
            self._sum = message.copy() if self._sum is None else self._sum + message
        return True

    def is_complete(self) -> bool:
        return not self._pending

    def decode(self) -> np.ndarray:
        if not self.is_complete():
            raise DecodingError("cannot decode before all required workers reported")
        if self._sum is None:
            raise DecodingError("decode() is unavailable in timing-only mode")
        return self._sum


class BatchCoverageAggregator(MasterAggregator):
    """The BCC master rule (Section III-A, "Data Aggregation at the Master").

    Each arriving message is the summed gradient of one batch; the master
    keeps the first message per batch, discards repeats, and is complete when
    every batch has been seen. Decoding sums the kept messages.
    """

    def __init__(self, num_batches: int, worker_batches: Sequence[int]) -> None:
        super().__init__()
        if num_batches < 1:
            raise CoverageError("num_batches must be positive")
        self._worker_batches = np.asarray(worker_batches, dtype=int)
        self._seen = np.zeros(int(num_batches), dtype=bool)
        self._sum: Optional[np.ndarray] = None

    def _accept(self, worker: int, message: Optional[np.ndarray]) -> bool:
        batch = self._worker_batches[worker]
        if self._seen[batch]:
            return False
        self._seen[batch] = True
        if message is not None:
            message = np.asarray(message, dtype=float)
            self._sum = message.copy() if self._sum is None else self._sum + message
        return True

    def is_complete(self) -> bool:
        return bool(self._seen.all())

    def decode(self) -> np.ndarray:
        if not self.is_complete():
            raise DecodingError("cannot decode before all batches are covered")
        if self._sum is None:
            raise DecodingError("decode() is unavailable in timing-only mode")
        return self._sum

    @property
    def batches_covered(self) -> int:
        """Number of distinct batches received so far."""
        return int(self._seen.sum())


class UnitCoverageAggregator(MasterAggregator):
    """Coverage at unit granularity with per-unit messages.

    Used by the simple randomized scheme and the generalized BCC scheme:
    worker ``i``'s message is the stacked matrix of its units' gradients (one
    row per unit, in the order of its assignment). The master keeps the first
    gradient it sees for each unit and is complete once every unit is
    covered. Decoding sums one kept gradient per unit.
    """

    def __init__(self, num_units: int, assignment: DataAssignment) -> None:
        super().__init__()
        self._num_units = int(num_units)
        self._assignment = assignment
        self._covered = np.zeros(self._num_units, dtype=bool)
        self._unit_gradients: Dict[int, np.ndarray] = {}

    def _accept(self, worker: int, message: Optional[np.ndarray]) -> bool:
        units = self._assignment.worker_indices(worker)
        if units.size == 0:
            return False
        new_units = units[~self._covered[units]]
        if new_units.size == 0:
            return False
        if message is not None:
            message = np.asarray(message, dtype=float)
            if message.ndim != 2 or message.shape[0] != units.size:
                raise DecodingError(
                    f"worker {worker} sent a message of shape {message.shape}; "
                    f"expected ({units.size}, p)"
                )
            position = {int(unit): row for row, unit in enumerate(units)}
            for unit in new_units:
                self._unit_gradients[int(unit)] = message[position[int(unit)]]
        self._covered[new_units] = True
        return True

    def is_complete(self) -> bool:
        return bool(self._covered.all())

    def decode(self) -> np.ndarray:
        if not self.is_complete():
            raise DecodingError("cannot decode before every unit is covered")
        if len(self._unit_gradients) != self._num_units:
            raise DecodingError("decode() is unavailable in timing-only mode")
        return np.sum(
            [self._unit_gradients[unit] for unit in range(self._num_units)], axis=0
        )

    @property
    def units_covered(self) -> int:
        """Number of distinct units received so far."""
        return int(self._covered.sum())


class CodedAggregator(MasterAggregator):
    """Aggregator for linear gradient codes (cyclic repetition, RS, fractional).

    The master stores every received coded message and is complete once the
    received worker set is decodable. For the worst-case designs this happens
    exactly when ``n - s`` workers have reported; the fractional-repetition
    code's overridden ``is_decodable`` completes earlier when a whole
    replication group has reported. The decodability test runs only at the
    checkpoints of :meth:`CodedRule.is_checkpoint`.
    """

    def __init__(self, code: LinearGradientCode, *, check_every: int = 1) -> None:
        super().__init__()
        self._rule = CodedRule(code, check_every)
        self._messages: Dict[int, np.ndarray] = {}
        self._workers: List[int] = []
        self._complete = False
        self._decodability_checks = 0

    def _accept(self, worker: int, message: Optional[np.ndarray]) -> bool:
        self._workers.append(worker)
        if message is not None:
            self._messages[worker] = np.asarray(message, dtype=float)
        if not self._complete and self._rule.is_checkpoint(len(self._workers)):
            self._decodability_checks += 1
            self._complete = self._rule.code.is_decodable(self._workers)
        return True

    @property
    def decodability_checks(self) -> int:
        """Number of times the (expensive) decodability test actually ran."""
        return self._decodability_checks

    def is_complete(self) -> bool:
        return self._complete

    def decode(self) -> np.ndarray:
        if not self._complete:
            raise DecodingError("the received worker set is not decodable yet")
        if len(self._messages) != len(self._workers):
            raise DecodingError("decode() is unavailable in timing-only mode")
        stacked = np.vstack([self._messages[w] for w in self._workers])
        return self._rule.code.decode(self._workers, stacked)


# --------------------------------------------------------------------------- #
# Completion rules
# --------------------------------------------------------------------------- #
#: Worker messages: the sum of the unit gradients (Eq. 12), one row per
#: unit, or the combination the worker's row of a linear code gives.
ENCODINGS = ("sum", "identity", "linear")


class CompletionRule(abc.ABC):
    """A plan's stopping rule, as a frozen value that pickles.

    It builds the per-iteration aggregator, says whether the plan can ever
    complete, and names the :data:`ENCODINGS` entry its aggregator decodes.
    The vectorized engine picks a kernel by the rule's exact type; others,
    subclasses included, run the aggregator in a scalar scan. A rule holds
    no array that the plan's assignment already stores.
    """

    encoding: str

    @abc.abstractmethod
    def new_aggregator(self, plan: "ExecutionPlan") -> MasterAggregator:
        """A fresh aggregator for one iteration of ``plan``."""

    def can_ever_complete(self, plan: "ExecutionPlan") -> bool:
        """Whether the aggregator completes once every worker has reported."""
        aggregator = self.new_aggregator(plan)
        for worker in range(plan.num_workers):
            if aggregator.receive(worker, None):
                return True
        return aggregator.is_complete()


@dataclass(frozen=True, eq=False)
class CountRule(CompletionRule):
    """Wait for a fixed set of workers (uncoded, load-balanced)."""

    required_workers: Sequence[int]
    encoding = "sum"

    def __post_init__(self) -> None:
        workers = tuple(int(w) for w in self.required_workers)
        if not workers:
            raise CoverageError("CountRule needs at least one required worker")
        object.__setattr__(self, "required_workers", workers)

    def new_aggregator(self, plan: "ExecutionPlan") -> MasterAggregator:
        return CountAggregator(self.required_workers)

    def can_ever_complete(self, plan: "ExecutionPlan") -> bool:
        workers = self.required_workers
        return 0 <= min(workers) and max(workers) < plan.num_workers


@dataclass(frozen=True, eq=False)
class CoverageRule(CompletionRule):
    """Complete once items ``0 .. num_items - 1`` are all covered.

    Worker ``i``'s summed message covers item ``worker_items[i]`` (BCC's
    batch choices); without ``worker_items``, its per-unit message covers
    each unit the plan assigns it (randomized, generalized BCC).
    """

    num_items: int
    worker_items: Optional[np.ndarray] = None
    encoding: str = field(init=False, repr=False)

    def __post_init__(self) -> None:
        encoding = "identity" if self.worker_items is None else "sum"
        object.__setattr__(self, "encoding", encoding)

    def pairs(self, plan: "ExecutionPlan") -> Tuple[np.ndarray, np.ndarray]:
        """``(items, workers)``: worker ``workers[p]``'s message covers ``items[p]``."""
        if self.worker_items is None:
            return plan.unit_assignment.pairs()
        items = np.asarray(self.worker_items, dtype=int)
        return items, np.arange(items.size)

    def new_aggregator(self, plan: "ExecutionPlan") -> MasterAggregator:
        if self.worker_items is None:
            return UnitCoverageAggregator(self.num_items, plan.unit_assignment)
        return BatchCoverageAggregator(self.num_items, self.worker_items)

    def can_ever_complete(self, plan: "ExecutionPlan") -> bool:
        items, _ = self.pairs(plan)
        return bool(np.bincount(items, minlength=self.num_items)[: self.num_items].all())


@dataclass(frozen=True, eq=False)
class CodedRule(CompletionRule):
    """Complete at the first decodable set of arrivals of a linear code.

    Decodability is tested at the worst-case threshold ``n - s``, then every
    ``check_every`` arrivals and at the last worker; a code that overrides
    ``is_decodable`` with a cheap test (fractional repetition) at every one.
    """

    code: LinearGradientCode
    check_every: int = 1
    encoding = "linear"

    def __post_init__(self) -> None:
        object.__setattr__(self, "check_every", max(int(self.check_every), 1))

    @cached_property
    def minimum_needed(self) -> int:
        """Arrival count at which the first decodability check is due."""
        return max(1, self.code.num_workers - getattr(self.code, "num_stragglers", 0))

    @cached_property
    def opportunistic(self) -> bool:
        """Whether the code's cheap decodability test runs on every arrival."""
        return type(self.code).is_decodable is not LinearGradientCode.is_decodable

    def is_checkpoint(self, count: int) -> bool:
        """Whether the test is due once ``count`` workers have arrived."""
        if self.opportunistic:
            return True
        if count < self.minimum_needed:
            return False
        due = (count - self.minimum_needed) % self.check_every == 0
        return due or count >= self.code.num_workers

    def new_aggregator(self, plan: "ExecutionPlan") -> MasterAggregator:
        return CodedAggregator(self.code, check_every=self.check_every)

    def can_ever_complete(self, plan: "ExecutionPlan") -> bool:
        # The aggregator's own calls: the same prefixes, at its checkpoints.
        return any(
            self.is_checkpoint(count) and self.code.is_decodable(list(range(count)))
            for count in range(1, plan.num_workers + 1)
        )


@dataclass(frozen=True, eq=False)
class CustomRule(CompletionRule):
    """A third-party aggregator, one ``factory()`` per iteration, decoding
    ``"sum"`` or ``"identity"`` messages (over a linear code, subclass
    :class:`CodedRule`). The plan pickles when ``factory`` does."""

    factory: Callable[[], MasterAggregator]
    encoding: str

    def __post_init__(self) -> None:
        if self.encoding not in ("sum", "identity"):
            raise ConfigurationError(f"encoding must be 'sum' or 'identity', got {self.encoding!r}")

    def new_aggregator(self, plan: "ExecutionPlan") -> MasterAggregator:
        return self.factory()


# --------------------------------------------------------------------------- #
# Execution plan
# --------------------------------------------------------------------------- #
@dataclass(eq=False)
class ExecutionPlan:
    """A frozen placement plus the completion rule for one training job.

    Plans compare (and hash) by identity.

    Attributes
    ----------
    scheme_name:
        Name of the scheme that produced the plan.
    num_units:
        Number of data units being distributed.
    unit_assignment:
        Placement at unit granularity (worker -> unit indices).
    message_sizes:
        Per-worker message size in gradient units (1.0 for summed/coded
        messages, the worker's load for per-unit messages).
    completion:
        The master's stopping rule and the worker encoding it decodes; see
        :class:`CompletionRule`.
    metadata:
        Scheme-specific extras (e.g. the BCC batch choices, coded scheme's
        encoding matrix) surfaced for inspection and tests.
    """

    scheme_name: str
    num_units: int
    unit_assignment: DataAssignment
    message_sizes: np.ndarray
    completion: CompletionRule
    metadata: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        sizes = np.asarray(self.message_sizes, dtype=float)
        if sizes.shape[0] != self.unit_assignment.num_workers:
            raise CoverageError(
                "message_sizes must have one entry per worker "
                f"({sizes.shape[0]} != {self.unit_assignment.num_workers})"
            )
        if np.any(sizes < 0):
            raise CoverageError("message sizes must be non-negative")
        self.message_sizes = sizes

    @property
    def num_workers(self) -> int:
        """Number of workers in the plan."""
        return self.unit_assignment.num_workers

    @property
    def computational_load_units(self) -> int:
        """The computational load ``r`` in units (paper Definition 1)."""
        return self.unit_assignment.computational_load

    def worker_units(self, worker: int) -> np.ndarray:
        """Unit indices assigned to ``worker``."""
        return self.unit_assignment.worker_indices(worker)

    def encode(self, worker: int, unit_gradients: np.ndarray) -> np.ndarray:
        """``worker``'s message from its unit gradients (one row per unit, in
        assignment order), in the rule's encoding."""
        gradients = np.asarray(unit_gradients, dtype=float)
        rule = self.completion
        if rule.encoding == "sum":
            return gradients.sum(axis=0)
        if rule.encoding == "identity":
            return gradients
        assert isinstance(rule, CodedRule)
        return rule.code.encoding_matrix[worker, self.worker_units(worker)] @ gradients

    def new_aggregator(self) -> MasterAggregator:
        """Create a fresh master aggregator for one iteration."""
        return self.completion.new_aggregator(self)

    def can_ever_complete(self) -> bool:
        """Whether coverage/decodability is achievable with *all* workers reporting.

        A BCC plan whose random batch choices happen to miss a batch cannot
        complete no matter how long the master waits; callers use this to
        re-draw the placement (or fail loudly) before running a job. The
        rule answers from its own fields (a coverage rule with one
        ``bincount``); a custom rule feeds every worker to a fresh aggregator.
        """
        return self.completion.can_ever_complete(self)


# --------------------------------------------------------------------------- #
# Scheme interface
# --------------------------------------------------------------------------- #
class Scheme(abc.ABC):
    """A distributed-GD scheme: placement + encoding + aggregation rules."""

    #: Human-readable scheme name (class attribute overridden by subclasses).
    name: str = "scheme"

    #: Constructor parameters that pin the per-worker placement. The ambient
    #: cluster :meth:`from_config` receives is only injected when the config
    #: sets none of these, so an explicit placement (e.g. ``loads``) is never
    #: combined with — or silently shadowed by — the job's cluster.
    #: Subclasses with other placement inputs extend this tuple.
    placement_parameters: Sequence[str] = ("cluster", "loads")

    @abc.abstractmethod
    def build_plan(
        self, num_units: int, num_workers: int, rng: RandomState = None
    ) -> ExecutionPlan:
        """Freeze a placement for ``num_units`` data units over ``num_workers`` workers."""

    # ------------------------------------------------------------------ #
    @classmethod
    def constructor_parameters(cls) -> List[str]:
        """Names of the keyword parameters the scheme's constructor accepts."""
        if cls.__init__ is object.__init__:
            return []
        signature = inspect.signature(cls.__init__)
        return [
            name
            for name, parameter in signature.parameters.items()
            if name != "self"
            and parameter.kind
            not in (inspect.Parameter.VAR_POSITIONAL, inspect.Parameter.VAR_KEYWORD)
        ]

    @classmethod
    def from_config(
        cls,
        config: Optional[Mapping[str, object]] = None,
        *,
        cluster: Optional[object] = None,
        **kwargs: object,
    ) -> "Scheme":
        """Construct the scheme from a plain configuration mapping.

        This is the config-driven entry point the registry and the
        :class:`~repro.api.JobSpec` machinery use: every key must name a
        constructor parameter (a ``name`` key identifying the scheme itself
        is tolerated and dropped), and inapplicable keys raise
        :class:`~repro.exceptions.ConfigurationError` instead of being
        silently ignored.

        Parameters
        ----------
        config:
            Mapping of constructor keyword arguments (merged with ``kwargs``).
        cluster:
            Ambient :class:`~repro.cluster.ClusterSpec`. Schemes whose
            constructor accepts a ``cluster`` parameter (the heterogeneous
            ones) receive it automatically unless the config already pins the
            placement via explicit ``cluster``/``loads`` entries; every other
            scheme ignores it, so callers can always pass the job's cluster.
        """
        options: Dict[str, object] = {**(dict(config) if config else {}), **kwargs}
        declared_name = options.pop("name", None)
        if declared_name is not None and declared_name != cls.name:
            raise ConfigurationError(
                f"config names scheme {declared_name!r} but was routed to "
                f"{cls.name!r}"
            )
        accepted = cls.constructor_parameters()
        accepts_var_kwargs = cls.__init__ is not object.__init__ and any(
            parameter.kind is inspect.Parameter.VAR_KEYWORD
            for parameter in inspect.signature(cls.__init__).parameters.values()
        )
        if not accepts_var_kwargs:
            unknown = sorted(set(options) - set(accepted))
            if unknown:
                raise ConfigurationError(
                    f"scheme {cls.name!r} does not accept the parameter(s) "
                    f"{unknown}; accepted parameters: {sorted(accepted)}"
                )
        if (
            cluster is not None
            and "cluster" in accepted
            and not any(parameter in options for parameter in cls.placement_parameters)
        ):
            options["cluster"] = cluster
        return cls(**options)

    # ------------------------------------------------------------------ #
    def analytic_runtime(
        self,
        cluster: ClusterSpec,
        num_units: int,
        *,
        unit_size: int = 1,
        serialize_master_link: bool = True,
        quantiles: Sequence[float] = DEFAULT_QUANTILES,
    ) -> AnalyticIteration:
        """Closed-form expected per-iteration runtime of this scheme.

        This is the hook behind :class:`~repro.api.backends.AnalyticBackend`:
        given the cluster (whose :class:`~repro.stragglers.base.DelayModel`
        and :class:`~repro.stragglers.communication.CommunicationModel`
        supply the arrival-time distributions), return an
        :class:`~repro.analysis.analytic.AnalyticIteration` describing the
        expected iteration time, its order-statistic quantiles, and the
        expected recovery threshold / communication load — without simulating
        a single iteration.

        Subclasses implement it for the regimes their stopping rule admits in
        closed form; the base implementation (and any implementation asked
        for an uncovered configuration, e.g. Pareto workers or a serialised
        link on a heterogeneous cluster) raises
        :class:`~repro.exceptions.AnalyticIntractableError` so callers can
        fall back to a simulation backend.

        Parameters
        ----------
        cluster:
            The :class:`~repro.cluster.ClusterSpec` whose delay and
            communication models parameterise the closed forms.
        num_units:
            Number of data units ``m``.
        unit_size:
            Examples per unit (scales the computation-time parameters).
        serialize_master_link:
            Whether master-side receptions are serialised over one link.
        quantiles:
            Quantile levels to evaluate alongside the mean.
        """
        raise AnalyticIntractableError(
            f"scheme {self.name!r} has no closed-form runtime model; run it "
            "on a simulation backend instead"
        )

    def expected_recovery_threshold(
        self, num_units: int, num_workers: int
    ) -> Optional[float]:
        """The scheme's analytical recovery threshold, if known (else ``None``)."""
        return None

    def expected_communication_load(
        self, num_units: int, num_workers: int
    ) -> Optional[float]:
        """The scheme's analytical communication load, if known (else ``None``)."""
        return None

    def build_feasible_plan(
        self,
        num_units: int,
        num_workers: int,
        rng: RandomState = None,
        *,
        max_attempts: int = 100,
    ) -> ExecutionPlan:
        """Build a plan, re-drawing a random placement until it can complete.

        Deterministic schemes succeed on the first attempt; the BCC scheme
        re-draws its batch choices in the (rare, for ``n`` comfortably above
        ``(m/r) log(m/r)``) event that some batch was never selected.
        """
        from repro.utils.rng import as_generator

        generator = as_generator(rng)
        last_plan: Optional[ExecutionPlan] = None
        for _attempt in range(max(int(max_attempts), 1)):
            plan = self.build_plan(num_units, num_workers, generator)
            if plan.can_ever_complete():
                return plan
            last_plan = plan
        raise CoverageError(
            f"scheme {self.name!r} failed to produce a feasible placement in "
            f"{max_attempts} attempts (num_units={num_units}, "
            f"num_workers={num_workers})"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


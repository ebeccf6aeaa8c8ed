"""Approximate-gradient baseline: ignore the stragglers.

Every scheme in the paper recovers the *exact* gradient. A natural cheaper
alternative — common practice in large-scale SGD systems and the implicit
comparison point of the gradient-coding literature — is to simply proceed
with whatever partial gradients have arrived once a fixed fraction of the
workers has reported, rescaling by the number of examples actually covered.
The update direction is then a biased-but-close estimate of the true
gradient, and the iteration finishes as early as the chosen fraction allows.

The scheme is included as an extension (it is not evaluated in the paper) so
that the cost of exactness can be quantified: the convergence ablation runs
BCC and the ignore-stragglers scheme under the same simulated time budget and
compares the loss reached.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.coding.placement import uncoded_placement
from repro.cluster.spec import ClusterSpec
from repro.analysis.analytic import (
    AnalyticIteration,
    DEFAULT_QUANTILES,
    homogeneous_compute_parameters,
    order_statistic_runtime,
    transfer_parameters,
)
from repro.exceptions import AnalyticIntractableError, ConfigurationError, DecodingError
from repro.schemes.base import CompletionRule, ExecutionPlan, MasterAggregator, Scheme
from repro.schemes.registry import register_scheme
from repro.utils.rng import RandomState
from repro.utils.validation import check_in_range, check_positive_int

__all__ = ["IgnoreStragglersScheme", "PartialSumAggregator", "PartialSumRule"]


class PartialSumAggregator(MasterAggregator):
    """Completes after a fixed number of workers; decodes a rescaled partial sum.

    Parameters
    ----------
    required_count:
        Number of worker messages to wait for.
    worker_example_counts:
        Number of training examples behind each worker's message, used to
        rescale the partial sum to an estimate of the full-dataset sum:
        ``decode() = (total_examples / covered_examples) * sum(received)``.
    total_examples:
        Total number of examples in the dataset.
    """

    def __init__(
        self,
        required_count: int,
        worker_example_counts: np.ndarray,
        total_examples: int,
    ) -> None:
        super().__init__()
        self._required_count = check_positive_int(required_count, "required_count")
        self._example_counts = np.asarray(worker_example_counts, dtype=int)
        self._total_examples = check_positive_int(total_examples, "total_examples")
        self._covered_examples = 0
        self._sum: Optional[np.ndarray] = None
        self._kept = 0

    def _accept(self, worker: int, message: Optional[np.ndarray]) -> bool:
        if self._example_counts[worker] == 0:
            return False
        self._kept += 1
        self._covered_examples += int(self._example_counts[worker])
        if message is not None:
            message = np.asarray(message, dtype=float)
            self._sum = message.copy() if self._sum is None else self._sum + message
        return True

    def is_complete(self) -> bool:
        return self._kept >= self._required_count

    def decode(self) -> np.ndarray:
        if not self.is_complete():
            raise DecodingError(
                f"only {self._kept} of the required {self._required_count} "
                "messages have arrived"
            )
        if self._sum is None:
            raise DecodingError("decode() is unavailable in timing-only mode")
        scale = self._total_examples / float(self._covered_examples)
        return scale * self._sum

    @property
    def covered_examples(self) -> int:
        """Number of examples represented in the kept messages."""
        return self._covered_examples


@dataclass(frozen=True, eq=False)
class PartialSumRule(CompletionRule):
    """Complete once ``required_count`` workers holding data have reported."""

    required_count: int
    encoding = "sum"

    def __post_init__(self) -> None:
        check_positive_int(self.required_count, "required_count")

    def new_aggregator(self, plan: ExecutionPlan) -> MasterAggregator:
        return PartialSumAggregator(
            required_count=self.required_count,
            worker_example_counts=plan.unit_assignment.loads,
            total_examples=plan.num_units,
        )

    def can_ever_complete(self, plan: ExecutionPlan) -> bool:
        return int(np.count_nonzero(plan.unit_assignment.loads)) >= self.required_count


@register_scheme("ignore-stragglers")
class IgnoreStragglersScheme(Scheme):
    """Disjoint placement, but the master only waits for a fraction of workers.

    Parameters
    ----------
    wait_fraction:
        Fraction of the workers the master waits for each iteration, in
        ``(0, 1]``. ``1.0`` degenerates to the exact uncoded scheme.

    Notes
    -----
    * The decoded vector is an *estimate*: the sum of the received workers'
      partial gradients rescaled by the inverse of the covered fraction. With
      a disjoint placement and exchangeable workers this estimate is unbiased
      over the randomness of which workers respond first only when response
      order is independent of the data — which holds in the simulator — but
      individual iterations use a strict subset of the data, like mini-batch
      SGD.
    * ``expected_recovery_threshold`` is ``ceil(wait_fraction * n)`` and the
      communication load equals it (unit-size summed messages).
    """

    name = "ignore-stragglers"

    def __init__(self, wait_fraction: float = 0.9) -> None:
        self.wait_fraction = check_in_range(
            wait_fraction, "wait_fraction", low=0.0, high=1.0, inclusive=True
        )
        if self.wait_fraction <= 0.0:
            raise ConfigurationError("wait_fraction must be strictly positive")

    def _required_workers(self, num_workers: int) -> int:
        return max(1, int(np.ceil(self.wait_fraction * num_workers)))

    def build_plan(
        self, num_units: int, num_workers: int, rng: RandomState = None
    ) -> ExecutionPlan:
        m = check_positive_int(num_units, "num_units")
        n = check_positive_int(num_workers, "num_workers")
        required = self._required_workers(n)
        return ExecutionPlan(
            scheme_name=self.name,
            num_units=m,
            unit_assignment=uncoded_placement(m, n),
            message_sizes=np.ones(n),
            completion=PartialSumRule(required),
            metadata={"wait_fraction": self.wait_fraction, "required_workers": required},
        )

    def analytic_runtime(
        self,
        cluster: ClusterSpec,
        num_units: int,
        *,
        unit_size: int = 1,
        serialize_master_link: bool = True,
        quantiles: Sequence[float] = DEFAULT_QUANTILES,
    ) -> AnalyticIteration:
        """Closed form: the ``ceil(wait_fraction * n)``-th arrival.

        The stopping index is fixed by construction; only the first
        ``K`` (exchangeable) workers matter, so the balanced split's ±1 unit
        imbalance is folded into the average per-worker load.
        """
        m = check_positive_int(num_units, "num_units")
        n = cluster.num_workers
        if m < n:
            raise AnalyticIntractableError(
                f"the ignore-stragglers closed form needs every worker to "
                f"hold data; m={m} units cannot cover n={n} workers"
            )
        det_e, tail_e = homogeneous_compute_parameters(cluster)
        fixed, jitter = transfer_parameters(cluster.communication, 1.0)
        examples = (m / n) * unit_size
        required = self._required_workers(n)
        return order_statistic_runtime(
            scheme=self.name,
            num_workers=n,
            threshold=float(required),
            compute_deterministic=det_e * examples,
            compute_tail_mean=tail_e * examples,
            transfer_fixed=fixed,
            transfer_jitter_mean=jitter,
            message_size=1.0,
            serialize_master_link=serialize_master_link,
            quantiles=quantiles,
            details={"wait_fraction": self.wait_fraction},
        )

    def expected_recovery_threshold(
        self, num_units: int, num_workers: int
    ) -> Optional[float]:
        return float(self._required_workers(num_workers))

    def expected_communication_load(
        self, num_units: int, num_workers: int
    ) -> Optional[float]:
        return float(self._required_workers(num_workers))

    def __repr__(self) -> str:
        return f"IgnoreStragglersScheme(wait_fraction={self.wait_fraction!r})"

"""The uncoded baseline: disjoint split, wait for every worker."""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.analysis.thresholds import (
    uncoded_communication_load,
    uncoded_recovery_threshold,
)
from repro.coding.placement import uncoded_placement
from repro.cluster.spec import ClusterSpec
from repro.analysis.analytic import (
    AnalyticIteration,
    DEFAULT_QUANTILES,
    homogeneous_compute_parameters,
    maximum_runtime,
    order_statistic_runtime,
    transfer_parameters,
)
from repro.exceptions import AnalyticIntractableError
from repro.schemes.base import CountRule, ExecutionPlan, Scheme
from repro.schemes.registry import register_scheme
from repro.utils.rng import RandomState
from repro.utils.validation import check_positive_int

__all__ = ["UncodedScheme"]


@register_scheme("uncoded")
class UncodedScheme(Scheme):
    """No redundancy: the units are split evenly and every worker must report.

    Worker ``i`` receives the ``i``-th contiguous block of units, sends the
    sum of its partial gradients, and the master waits for all ``n`` workers
    (``K = L = n``). This is the first baseline in the paper's experiments.
    """

    name = "uncoded"

    def build_plan(
        self, num_units: int, num_workers: int, rng: RandomState = None
    ) -> ExecutionPlan:
        m = check_positive_int(num_units, "num_units")
        n = check_positive_int(num_workers, "num_workers")
        return ExecutionPlan(
            scheme_name=self.name,
            num_units=m,
            unit_assignment=uncoded_placement(m, n),
            message_sizes=np.ones(n),
            completion=CountRule(range(n)),
            metadata={},
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
        """Closed form: the iteration ends at the *maximum* of ``n`` arrivals.

        With ``n | m`` the workers are exchangeable and the ``n``-th order
        statistic applies directly; an uneven split makes the heavier workers
        a separate group, handled exactly (parallel link) by the group-wise
        product-of-CDFs maximum, and approximately (serialised link) by
        charging every worker the heavier load.
        """
        m = check_positive_int(num_units, "num_units")
        n = cluster.num_workers
        if m < n:
            raise AnalyticIntractableError(
                f"the uncoded scheme needs every worker to hold data; "
                f"m={m} units cannot cover n={n} workers"
            )
        det_e, tail_e = homogeneous_compute_parameters(cluster)
        fixed, jitter = transfer_parameters(cluster.communication, 1.0)
        base, remainder = divmod(m, n)
        if remainder == 0 or serialize_master_link:
            # Serialised + uneven: the heavier workers dominate the queue.
            units = base + (1 if remainder else 0)
            examples = units * unit_size
            return order_statistic_runtime(
                scheme=self.name,
                num_workers=n,
                threshold=float(n),
                compute_deterministic=det_e * examples,
                compute_tail_mean=tail_e * examples,
                transfer_fixed=fixed,
                transfer_jitter_mean=jitter,
                message_size=1.0,
                serialize_master_link=serialize_master_link,
                quantiles=quantiles,
            )
        arrival = []
        compute = []
        for worker in range(n):
            units = base + (1 if worker < remainder else 0)
            examples = units * unit_size
            compute.append((det_e * examples, tail_e * examples))
            arrival.append((det_e * examples + fixed, tail_e * examples + jitter))
        return maximum_runtime(
            scheme=self.name,
            arrival_parameters=arrival,
            compute_parameters=compute,
            communication_load=float(n),
            quantiles=quantiles,
        )

    def expected_recovery_threshold(
        self, num_units: int, num_workers: int
    ) -> Optional[float]:
        return uncoded_recovery_threshold(num_units, num_workers)

    def expected_communication_load(
        self, num_units: int, num_workers: int
    ) -> Optional[float]:
        return uncoded_communication_load(num_units, num_workers)

"""The simple randomized baseline (paper "Prior Art", Eq. 5–6)."""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.analysis.thresholds import (
    randomized_communication_load,
    randomized_recovery_threshold,
)
from repro.coding.placement import random_subset_placement
from repro.cluster.spec import ClusterSpec
from repro.analysis.analytic import (
    AnalyticIteration,
    DEFAULT_QUANTILES,
    homogeneous_compute_parameters,
    order_statistic_runtime,
    randomized_threshold_pmf,
    transfer_parameters,
)
from repro.exceptions import ConfigurationError
from repro.schemes.base import CoverageRule, ExecutionPlan, Scheme
from repro.schemes.registry import register_scheme
from repro.utils.rng import RandomState
from repro.utils.validation import check_positive_int

__all__ = ["SimpleRandomizedScheme"]


@register_scheme("randomized")
class SimpleRandomizedScheme(Scheme):
    """Random subsets without batching, per-unit messages.

    Each worker selects ``load`` units uniformly at random (without
    replacement) and communicates *each* computed partial gradient
    individually, so its message size is ``load`` gradient units. The master
    keeps the first copy of every unit's gradient and stops at coverage.
    Compared with BCC this achieves a similar recovery threshold
    (``~ (m/r) log m``) but an ``r`` times larger communication load
    (``~ m log m``), which is the comparison the paper draws in Eq. (5)–(6).
    """

    name = "randomized"

    def __init__(self, load: int) -> None:
        self.load = check_positive_int(load, "load")

    def build_plan(
        self, num_units: int, num_workers: int, rng: RandomState = None
    ) -> ExecutionPlan:
        m = check_positive_int(num_units, "num_units")
        n = check_positive_int(num_workers, "num_workers")
        if self.load > m:
            raise ConfigurationError(
                f"load {self.load} exceeds the number of data units {m}"
            )
        return ExecutionPlan(
            scheme_name=self.name,
            num_units=m,
            unit_assignment=random_subset_placement(m, n, self.load, rng),
            message_sizes=np.full(n, float(self.load)),
            completion=CoverageRule(m),
            metadata={"load": self.load},
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
        """Closed form: exact expected coverage index over i.i.d. arrivals.

        The stopping index — workers until the random ``r``-subsets cover
        all ``m`` units — is evaluated as its exact distribution conditioned
        on feasibility (``K <= n``) via the covered-units Markov chain
        (:func:`~repro.analysis.analytic.randomized_threshold_pmf`); when the
        problem is too large for the exact program the unconditional
        expectation (:func:`~repro.analysis.thresholds.randomized_recovery_threshold`)
        capped at ``n`` stands in. The iteration time is the corresponding
        mixture of arrival order statistics with ``r``-unit messages.
        """
        m = check_positive_int(num_units, "num_units")
        n = cluster.num_workers
        if self.load > m:
            raise ConfigurationError(
                f"load {self.load} exceeds the number of data units {m}"
            )
        det_e, tail_e = homogeneous_compute_parameters(cluster)
        fixed, jitter = transfer_parameters(cluster.communication, float(self.load))
        examples = self.load * unit_size
        threshold = randomized_threshold_pmf(m, self.load, n)
        if threshold is None:
            # Past the exact program's size cap the paper's asymptotic
            # (exact inclusion–exclusion is itself rational arithmetic over
            # C(m, .), so switch forms around a few hundred units).
            expected_k = randomized_recovery_threshold(m, self.load, exact=m <= 400)
            threshold = min(expected_k, float(n))
        return order_statistic_runtime(
            scheme=self.name,
            num_workers=n,
            threshold=threshold,
            compute_deterministic=det_e * examples,
            compute_tail_mean=tail_e * examples,
            transfer_fixed=fixed,
            transfer_jitter_mean=jitter,
            message_size=float(self.load),
            serialize_master_link=serialize_master_link,
            quantiles=quantiles,
        )

    def expected_recovery_threshold(
        self, num_units: int, num_workers: int
    ) -> Optional[float]:
        return randomized_recovery_threshold(num_units, self.load)

    def expected_communication_load(
        self, num_units: int, num_workers: int
    ) -> Optional[float]:
        return randomized_communication_load(num_units, self.load)

    def __repr__(self) -> str:
        return f"SimpleRandomizedScheme(load={self.load})"

"""The Batched Coupon's Collector scheme (paper Section III)."""

from __future__ import annotations

import functools
from typing import Optional, Sequence

import numpy as np

from repro.analysis.thresholds import bcc_communication_load, bcc_recovery_threshold
from repro.coding.placement import bcc_placement
from repro.datasets.batching import BatchSpec, contiguous_partition
from repro.cluster.spec import ClusterSpec
from repro.analysis.analytic import (
    AnalyticIteration,
    DEFAULT_QUANTILES,
    coupon_threshold_pmf,
    homogeneous_compute_parameters,
    order_statistic_runtime,
    transfer_parameters,
)
from repro.analysis.coupon import harmonic_number
from repro.exceptions import ConfigurationError
from repro.schemes.registry import register_scheme
from repro.schemes.base import CoverageRule, ExecutionPlan, Scheme
from repro.utils.rng import RandomState
from repro.utils.validation import check_positive_int

__all__ = ["BCCScheme"]


@functools.lru_cache(maxsize=64)
def _balanced_partition(num_units: int, num_batches: int) -> BatchSpec:
    """The ``num_batches`` balanced contiguous batches of ``num_units`` units.

    Built once per ``(m, batches)`` and shared by every plan drawn over it,
    so its index arrays are read-only.
    """
    partition = contiguous_partition(num_units, num_batches)
    for batch in partition.batches:
        batch.flags.writeable = False
    return partition


@register_scheme("bcc")
class BCCScheme(Scheme):
    """Batched Coupon's Collector distributed gradient descent.

    Parameters
    ----------
    load:
        The computational load ``r``: the number of data units in each batch,
        i.e. the number of units every worker processes. The units are
        partitioned into ``ceil(m/r)`` batches; each worker independently
        selects one batch uniformly at random, computes the sum of its
        partial gradients and sends that single vector to the master. The
        master keeps the first message per batch and stops as soon as every
        batch is covered.

    Notes
    -----
    * The placement is decentralised: worker choices are i.i.d. uniform, so a
      fresh plan can be drawn without any coordination (the paper's
      "scalability" property). :meth:`Scheme.build_feasible_plan` re-draws in
      the rare event that some batch was selected by nobody.
    * The analytical recovery threshold is
      ``K_BCC(r) = ceil(m/r) * H_{ceil(m/r)}`` and the communication load
      equals it, since every message has unit size (Theorem 1).
    * When ``load`` does not divide the number of units, the paper zero-pads
      the last batch so every worker processes exactly ``r`` units. Padding
      with fake data is pointless in an implementation, so the units are
      instead split into ``ceil(m/r)`` *balanced* batches (sizes differing by
      at most one, all ``<= load``), which keeps the workers statistically
      exchangeable — the property the zero-padding exists to provide.
    """

    name = "bcc"

    def __init__(self, load: int) -> None:
        self.load = check_positive_int(load, "load")

    # ------------------------------------------------------------------ #
    def build_plan(
        self, num_units: int, num_workers: int, rng: RandomState = None
    ) -> ExecutionPlan:
        m = check_positive_int(num_units, "num_units")
        n = check_positive_int(num_workers, "num_workers")
        if self.load > m:
            raise ConfigurationError(
                f"load {self.load} exceeds the number of data units {m}"
            )
        num_batches = -(-m // self.load)
        if num_batches > n:
            raise ConfigurationError(
                f"BCC needs at least as many workers as batches; got "
                f"{num_batches} batches for {n} workers (increase the load)"
            )
        batch_spec = _balanced_partition(m, num_batches)
        assignment, batch_choices = bcc_placement(batch_spec, n, rng)
        return ExecutionPlan(
            scheme_name=self.name,
            num_units=m,
            unit_assignment=assignment,
            message_sizes=np.ones(n),
            completion=CoverageRule(num_batches, worker_items=batch_choices),
            metadata={
                "batch_spec": batch_spec,
                "batch_choices": batch_choices,
                "load": self.load,
            },
        )

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
        """Closed form: coupon-collector stopping index over i.i.d. arrivals.

        The batch ids arriving at the master are i.i.d. uniform over the
        ``N = ceil(m/r)`` batches, so the recovery threshold is the classic
        coupon-collector stopping time — evaluated as its exact distribution
        conditioned on feasibility (``K <= n``) via the collected-types
        Markov chain (:func:`~repro.analysis.analytic.coupon_threshold_pmf`),
        else as the ``N H_N`` mean capped at ``n``. The iteration time is the
        corresponding mixture of arrival order statistics.
        """
        m = check_positive_int(num_units, "num_units")
        n = cluster.num_workers
        if self.load > m:
            raise ConfigurationError(
                f"load {self.load} exceeds the number of data units {m}"
            )
        num_batches = -(-m // self.load)
        if num_batches > n:
            raise ConfigurationError(
                f"BCC needs at least as many workers as batches; got "
                f"{num_batches} batches for {n} workers (increase the load)"
            )
        det_e, tail_e = homogeneous_compute_parameters(cluster)
        fixed, jitter = transfer_parameters(cluster.communication, 1.0)
        # Balanced batches hold m/N units on average (exactly r when r | m).
        examples = (m / num_batches) * unit_size
        pmf = coupon_threshold_pmf(num_batches, n)
        threshold = (
            pmf
            if pmf is not None
            else min(num_batches * harmonic_number(num_batches), float(n))
        )
        return order_statistic_runtime(
            scheme=self.name,
            num_workers=n,
            threshold=threshold,
            compute_deterministic=det_e * examples,
            compute_tail_mean=tail_e * examples,
            transfer_fixed=fixed,
            transfer_jitter_mean=jitter,
            message_size=1.0,
            serialize_master_link=serialize_master_link,
            quantiles=quantiles,
            details={"num_batches": float(num_batches)},
        )

    def expected_recovery_threshold(
        self, num_units: int, num_workers: int
    ) -> Optional[float]:
        return bcc_recovery_threshold(num_units, self.load)

    def expected_communication_load(
        self, num_units: int, num_workers: int
    ) -> Optional[float]:
        return bcc_communication_load(num_units, self.load)

    def __repr__(self) -> str:
        return f"BCCScheme(load={self.load})"

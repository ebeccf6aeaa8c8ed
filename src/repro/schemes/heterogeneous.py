"""Heterogeneous-cluster schemes (paper Section IV)."""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from repro.cluster.allocation import (
    load_balanced_allocation,
    solve_p2_allocation,
)
from repro.cluster.spec import ClusterSpec
from repro.coding.placement import heterogeneous_random_placement
from repro.coding.assignment import DataAssignment
from repro.analysis.analytic import (
    AnalyticIteration,
    DEFAULT_QUANTILES,
    coverage_runtime,
    maximum_runtime,
    transfer_parameters,
    worker_compute_parameters,
)
from repro.exceptions import AnalyticIntractableError, ConfigurationError
from repro.schemes.base import CountRule, CoverageRule, ExecutionPlan, Scheme
from repro.schemes.registry import register_scheme
from repro.utils.rng import RandomState, as_generator
from repro.utils.validation import check_positive_int

__all__ = ["GeneralizedBCCScheme", "LoadBalancedScheme"]


def _integer_loads(loads: Optional[Sequence[int]]) -> Optional[np.ndarray]:
    """Explicit per-worker loads as an int array (``None`` passes through).

    Casting would truncate fractional loads and read booleans as 0/1, so
    anything but a 1-D integer sequence is refused.
    """
    if loads is None:
        return None
    array = np.asarray(loads)
    if array.ndim != 1 or array.dtype.kind not in "iu":
        raise ConfigurationError(
            f"loads must be a 1-D integer sequence, got dtype {array.dtype} "
            f"with shape {array.shape}"
        )
    return array.astype(int)


@register_scheme("generalized-bcc")
class GeneralizedBCCScheme(Scheme):
    """The generalized BCC scheme for heterogeneous clusters.

    Worker ``i`` independently selects ``loads[i]`` units uniformly at random
    (without replacement, the placement ``G0`` of the Theorem 2 proof) and —
    following the paper's Section IV system model — communicates each of its
    computed partial gradients separately. The master stops as soon as it has
    received at least one copy of every unit's gradient ("coverage").

    The per-worker loads can be given explicitly, or derived from a
    :class:`~repro.cluster.ClusterSpec` by solving the load-allocation
    problem P2 with the inflated target ``floor(c m log m)`` from Theorem 2
    (``target_scale`` overrides the multiplier ``c log m`` if desired).

    Parameters
    ----------
    loads:
        Explicit per-worker loads; mutually exclusive with ``cluster``.
    cluster:
        Cluster description used to compute P2-optimal loads.
    target_scale:
        When deriving loads from a cluster, the target is
        ``ceil(target_scale * m)``; defaults to ``log m`` (i.e. the paper's
        ``m log m`` target with ``c`` folded into the bound evaluation).
    """

    name = "generalized-bcc"

    def __init__(
        self,
        loads: Optional[Sequence[int]] = None,
        cluster: Optional[ClusterSpec] = None,
        target_scale: Optional[float] = None,
    ) -> None:
        if (loads is None) == (cluster is None):
            raise ConfigurationError(
                "provide exactly one of `loads` or `cluster` to GeneralizedBCCScheme"
            )
        self._explicit_loads = _integer_loads(loads)
        if self._explicit_loads is not None and np.any(self._explicit_loads < 0):
            raise ConfigurationError("loads must be non-negative")
        self.cluster = cluster
        self.target_scale = target_scale

    # ------------------------------------------------------------------ #
    def resolve_loads(self, num_units: int, num_workers: int) -> np.ndarray:
        """Return the per-worker loads the plan will use."""
        m = check_positive_int(num_units, "num_units")
        n = check_positive_int(num_workers, "num_workers")
        if self._explicit_loads is not None:
            if self._explicit_loads.shape[0] != n:
                raise ConfigurationError(
                    f"explicit loads have length {self._explicit_loads.shape[0]} "
                    f"but the plan has {n} workers"
                )
            return np.minimum(self._explicit_loads, m)
        assert self.cluster is not None
        if self.cluster.num_workers != n:
            raise ConfigurationError(
                f"the cluster has {self.cluster.num_workers} workers but the "
                f"plan needs {n}"
            )
        scale = self.target_scale if self.target_scale is not None else math.log(max(m, 2))
        target = max(int(math.ceil(scale * m)), m)
        allocation = solve_p2_allocation(self.cluster, target=target, max_load=m)
        return allocation.loads

    def build_plan(
        self, num_units: int, num_workers: int, rng: RandomState = None
    ) -> ExecutionPlan:
        m = check_positive_int(num_units, "num_units")
        n = check_positive_int(num_workers, "num_workers")
        loads = self.resolve_loads(m, n)
        generator = as_generator(rng)
        assignment = heterogeneous_random_placement(m, loads, generator)
        return ExecutionPlan(
            scheme_name=self.name,
            num_units=m,
            unit_assignment=assignment,
            message_sizes=assignment.loads.astype(float),
            completion=CoverageRule(m),
            metadata={"loads": loads},
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
        """Coverage closed form for heterogeneous random placements.

        A unit is uncovered at time ``t`` with probability
        ``prod_i (1 - (l_i/m) F_i(t))`` over the workers' arrival CDFs; the
        Poissonised completion CDF ``(1 - rho)^m`` is integrated by
        deterministic quadrature (see
        :func:`~repro.analysis.analytic.coverage_runtime`). Only the parallel
        master link is covered — serialising heterogeneous per-unit messages
        has no tractable form.
        """
        if serialize_master_link:
            raise AnalyticIntractableError(
                "the generalized BCC coverage rule has no closed form under a "
                "serialised master link; use serialize_master_link=False or a "
                "simulation backend"
            )
        m = check_positive_int(num_units, "num_units")
        n = cluster.num_workers
        loads = self.resolve_loads(m, n)
        arrival = []
        compute = []
        for worker in range(n):
            det_e, tail_e = worker_compute_parameters(cluster.workers[worker].compute)
            examples = int(loads[worker]) * unit_size
            fixed, jitter = transfer_parameters(
                cluster.communication, float(loads[worker])
            )
            compute.append((det_e * examples, tail_e * examples))
            arrival.append((det_e * examples + fixed, tail_e * examples + jitter))
        return coverage_runtime(
            scheme=self.name,
            num_units=m,
            worker_loads=loads,
            arrival_parameters=arrival,
            compute_parameters=compute,
            quantiles=quantiles,
            details={"total_load": float(np.sum(loads))},
        )

    def __repr__(self) -> str:
        source = "explicit" if self._explicit_loads is not None else "cluster-p2"
        return f"GeneralizedBCCScheme(loads={source})"


@register_scheme("load-balanced")
class LoadBalancedScheme(Scheme):
    """The "LB" baseline of the paper's Fig. 5.

    The units are split *without repetition* across the workers, with worker
    ``i`` receiving a share proportional to its speed (straggling parameter).
    Because there is no redundancy, the master must wait for every worker
    that holds at least one unit. Workers send the per-unit gradients
    (matching the Section IV uncoded communication model), though with a
    disjoint placement a summed message would be equivalent for recovery.
    """

    name = "load-balanced"

    def __init__(
        self,
        cluster: Optional[ClusterSpec] = None,
        loads: Optional[Sequence[int]] = None,
    ) -> None:
        if (loads is None) == (cluster is None):
            raise ConfigurationError(
                "provide exactly one of `loads` or `cluster` to LoadBalancedScheme"
            )
        self.cluster = cluster
        self._explicit_loads = _integer_loads(loads)

    def resolve_loads(self, num_units: int, num_workers: int) -> np.ndarray:
        """Per-worker share sizes (they sum to ``num_units``)."""
        m = check_positive_int(num_units, "num_units")
        n = check_positive_int(num_workers, "num_workers")
        if self._explicit_loads is not None:
            loads = self._explicit_loads
            if loads.shape[0] != n:
                raise ConfigurationError(
                    f"explicit loads have length {loads.shape[0]} but the plan "
                    f"has {n} workers"
                )
            if int(loads.sum()) != m:
                raise ConfigurationError(
                    "load-balanced loads must sum to the number of units "
                    f"({int(loads.sum())} != {m})"
                )
            return loads
        assert self.cluster is not None
        if self.cluster.num_workers != n:
            raise ConfigurationError(
                f"the cluster has {self.cluster.num_workers} workers but the "
                f"plan needs {n}"
            )
        return load_balanced_allocation(self.cluster, m).loads

    def build_plan(
        self, num_units: int, num_workers: int, rng: RandomState = None
    ) -> ExecutionPlan:
        m = check_positive_int(num_units, "num_units")
        n = check_positive_int(num_workers, "num_workers")
        loads = self.resolve_loads(m, n)
        boundaries = np.concatenate([[0], np.cumsum(loads)])
        assignments = tuple(
            np.arange(boundaries[i], boundaries[i + 1]) for i in range(n)
        )
        assignment = DataAssignment(num_examples=m, assignments=assignments)
        # With a disjoint placement the master can aggregate summed messages,
        # mirroring the uncoded scheme's communication (one unit per worker).
        return ExecutionPlan(
            scheme_name=self.name,
            num_units=m,
            unit_assignment=assignment,
            message_sizes=(loads > 0).astype(float),
            completion=CountRule(np.flatnonzero(loads > 0)),
            metadata={"loads": loads},
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
        """Group-wise maximum over every worker that holds at least one unit.

        The disjoint placement makes the iteration end at the maximum of the
        active workers' independent arrivals; the product-of-CDFs survival
        function is integrated exactly (workers with identical speed and
        load collapse into groups contributing a power of their shared CDF).
        Parallel master link only.
        """
        if serialize_master_link:
            raise AnalyticIntractableError(
                "the load-balanced closed form covers the parallel master "
                "link only; use serialize_master_link=False or a simulation "
                "backend"
            )
        m = check_positive_int(num_units, "num_units")
        n = cluster.num_workers
        loads = self.resolve_loads(m, n)
        fixed, jitter = transfer_parameters(cluster.communication, 1.0)
        arrival = []
        compute = []
        for worker in range(n):
            if loads[worker] <= 0:
                continue
            det_e, tail_e = worker_compute_parameters(cluster.workers[worker].compute)
            examples = int(loads[worker]) * unit_size
            compute.append((det_e * examples, tail_e * examples))
            arrival.append((det_e * examples + fixed, tail_e * examples + jitter))
        return maximum_runtime(
            scheme=self.name,
            arrival_parameters=arrival,
            compute_parameters=compute,
            communication_load=float(len(arrival)),
            quantiles=quantiles,
            details={"active_workers": float(len(arrival))},
        )

    def __repr__(self) -> str:
        source = "explicit" if self._explicit_loads is not None else "cluster-proportional"
        return f"LoadBalancedScheme(loads={source})"

"""Heterogeneous load allocation (problem P2 of the paper).

The paper's Theorem 2 bounds the minimum coverage time using the solution of

.. math::

    \\text{P2}: \\quad \\min_{r_1, \\ldots, r_n} E[\\hat T(s)],

the minimum expected time for the master to receive ``s`` partial gradients
(with repetitions) when worker ``i`` processes ``r_i`` examples and its
completion time is shift-exponential with parameters ``(mu_i, a_i)``.

The solver follows the HCMM approach of Reisizadeh et al. (reference [16] of
the paper): for a shift-exponential worker the *expected return rate* —
examples delivered per unit time when the worker is given ``t / s_i`` examples
and a deadline ``t`` — is maximised by a per-example time ``s_i*`` that solves

.. math::

    e^{-u}(1 + \\mu_i a_i + u) = 1, \\qquad u = \\mu_i (s_i^* - a_i),

whose solution is expressed with the Lambert-W function (branch ``-1``).
With every worker operating at its optimal per-example time, the expected
aggregate return grows linearly in the deadline ``t``, so the deadline that
delivers ``s`` expected results in closed form, and the per-worker loads are
``r_i = lambda_i t*`` with ``lambda_i = 1 / s_i*``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.cluster.spec import ClusterSpec
from repro.exceptions import AllocationError
from repro.utils.validation import check_positive_int

__all__ = [
    "AllocationResult",
    "optimal_rate_per_load",
    "solve_p2_allocation",
    "load_balanced_allocation",
    "uniform_allocation",
    "expected_aggregate_return",
]


@dataclass(frozen=True)
class AllocationResult:
    """Loads produced by an allocation strategy.

    Attributes
    ----------
    loads:
        Integer array ``r_i`` of examples assigned to each worker.
    deadline:
        The deadline ``t*`` the allocation targets (``nan`` for strategies
        that are not deadline-based).
    target:
        The number of partial gradients ``s`` the allocation aims to deliver.
    strategy:
        Human-readable name of the strategy.
    """

    loads: np.ndarray
    deadline: float
    target: int
    strategy: str

    def __post_init__(self) -> None:
        loads = np.asarray(self.loads, dtype=int)
        if loads.ndim != 1:
            raise AllocationError("loads must be a 1-D integer array")
        if np.any(loads < 0):
            raise AllocationError("loads must be non-negative")
        object.__setattr__(self, "loads", loads)

    @property
    def total_load(self) -> int:
        """Total number of (possibly repeated) examples assigned."""
        return int(self.loads.sum())

    @property
    def max_load(self) -> int:
        """The computational load ``r`` (largest per-worker assignment)."""
        return int(self.loads.max()) if self.loads.size else 0


def _per_worker_optimum(straggling: float, shift: float) -> tuple[float, float]:
    """Return ``(s_star, success_probability)`` for one shift-exponential worker.

    ``s_star`` is the optimal expected per-example time (load ``t / s_star``
    for deadline ``t``) and ``success_probability`` is the probability the
    worker meets the deadline under that load, which is deadline-independent.
    """
    if straggling <= 0:
        raise AllocationError(f"straggling parameter must be positive, got {straggling}")
    if shift < 0:
        raise AllocationError(f"shift parameter must be non-negative, got {shift}")
    if shift == 0.0:
        # Degenerate case: the optimal per-example time tends to zero and the
        # return rate tends to the straggling parameter. Use the exponential
        # mean 1/mu as the per-example time (load = mu * t), whose success
        # probability is 1 - 1/e.
        s_star = 1.0 / straggling
        return s_star, 1.0 - float(np.exp(-1.0))
    # Imported here, not at module level: scipy.special costs every launch
    # ~0.26 s and ~17 MB, and this helper is its only user.
    from scipy.special import lambertw

    exponent = -(1.0 + straggling * shift)
    # v solves v * exp(-v) = exp(exponent) with v > 1, i.e. v = -W_{-1}(-e^{exponent}).
    v = -lambertw(-np.exp(exponent), k=-1).real
    u_star = v - 1.0 - straggling * shift
    if u_star < 0:
        raise AllocationError(
            "internal error: negative optimal tail parameter "
            f"(straggling={straggling}, shift={shift})"
        )
    s_star = shift + u_star / straggling
    success = 1.0 - float(np.exp(-u_star))
    return float(s_star), success


def optimal_rate_per_load(cluster: ClusterSpec) -> tuple[np.ndarray, np.ndarray]:
    """Per-worker optimal return rates and success probabilities.

    Returns
    -------
    (rates, successes):
        ``rates[i] = 1 / s_i*`` is the number of examples worker ``i`` should
        be assigned per unit of deadline; ``successes[i]`` is the probability
        it finishes by the deadline under that load.
    """
    stragglings = cluster.straggling_parameters()
    shifts = cluster.shift_parameters()
    rates = np.empty(cluster.num_workers)
    successes = np.empty(cluster.num_workers)
    for i, (mu, a) in enumerate(zip(stragglings, shifts)):
        s_star, success = _per_worker_optimum(float(mu), float(a))
        rates[i] = 1.0 / s_star
        successes[i] = success
    return rates, successes


def expected_aggregate_return(
    cluster: ClusterSpec, loads: np.ndarray, deadline: float
) -> float:
    """Expected number of partial gradients received by ``deadline``.

    ``sum_i r_i * P(T_i <= deadline)`` where ``T_i`` is the completion time of
    worker ``i`` processing ``loads[i]`` examples. Workers with zero load
    contribute nothing.
    """
    loads = np.asarray(loads, dtype=int)
    if loads.shape[0] != cluster.num_workers:
        raise AllocationError(
            f"loads has length {loads.shape[0]} but the cluster has "
            f"{cluster.num_workers} workers"
        )
    total = 0.0
    for i, model in enumerate(cluster.delay_models()):
        if loads[i] > 0:
            total += float(loads[i]) * float(model.cdf(int(loads[i]), deadline))
    return total


def solve_p2_allocation(
    cluster: ClusterSpec,
    target: int,
    *,
    max_load: Optional[int] = None,
) -> AllocationResult:
    """Solve P2 approximately: loads minimising the expected time to ``target`` results.

    Parameters
    ----------
    cluster:
        Heterogeneous cluster of shift-exponential workers.
    target:
        The number of partial gradients ``s`` the master must receive
        (``m`` for the Theorem 2 lower bound, ``floor(c m log m)`` for the
        generalized BCC upper bound).
    max_load:
        Optional cap on any single worker's load (e.g. the dataset size
        ``m``); loads are clipped and the deadline re-solved if the cap binds.

    Returns
    -------
    AllocationResult
        Integer loads (ceil-rounded so the expected return still covers the
        target) and the associated deadline ``t*``.
    """
    check_positive_int(target, "target")
    rates, successes = optimal_rate_per_load(cluster)
    effective_rate = float(np.sum(rates * successes))
    if effective_rate <= 0:
        raise AllocationError("the cluster has zero aggregate return rate")
    deadline = target / effective_rate
    loads = np.ceil(rates * deadline).astype(int)

    if max_load is not None:
        check_positive_int(max_load, "max_load")
        if np.any(loads > max_load):
            capped = np.minimum(loads, max_load)
            # Re-solve the deadline for the uncapped workers so the expected
            # return still reaches the target with the capped contribution.
            capped_mask = loads > max_load
            capped_return = float(np.sum(capped[capped_mask] * successes[capped_mask]))
            remaining_rate = float(
                np.sum(rates[~capped_mask] * successes[~capped_mask])
            )
            remaining_target = max(target - capped_return, 0.0)
            if remaining_rate > 0 and remaining_target > 0:
                deadline = remaining_target / remaining_rate
                uncapped_loads = np.ceil(rates * deadline).astype(int)
                loads = np.where(capped_mask, max_load, np.minimum(uncapped_loads, max_load))
            else:
                loads = capped
    return AllocationResult(
        loads=loads, deadline=float(deadline), target=int(target), strategy="p2-hcmm"
    )


def load_balanced_allocation(cluster: ClusterSpec, num_examples: int) -> AllocationResult:
    """The paper's "LB" baseline: loads proportional to worker speed, no repetition.

    ``r_i = round(mu_i / sum(mu) * m)`` with leftover examples assigned to the
    fastest workers so the loads sum exactly to ``num_examples``.
    """
    check_positive_int(num_examples, "num_examples")
    stragglings = cluster.straggling_parameters()
    raw = stragglings / stragglings.sum() * num_examples
    loads = np.floor(raw).astype(int)
    deficit = num_examples - int(loads.sum())
    if deficit > 0:
        # Give the remaining examples to the workers with the largest
        # fractional parts (ties broken toward faster workers).
        order = np.argsort(-(raw - loads) - 1e-9 * np.arange(len(raw)))
        loads[order[:deficit]] += 1
    if int(loads.sum()) != num_examples:
        raise AllocationError("load-balanced allocation failed to cover the dataset")
    return AllocationResult(
        loads=loads, deadline=float("nan"), target=int(num_examples), strategy="load-balanced"
    )


def uniform_allocation(cluster: ClusterSpec, num_examples: int) -> AllocationResult:
    """Equal split of ``num_examples`` across all workers (uncoded homogeneous baseline)."""
    check_positive_int(num_examples, "num_examples")
    n = cluster.num_workers
    base = num_examples // n
    loads = np.full(n, base, dtype=int)
    loads[: num_examples - base * n] += 1
    return AllocationResult(
        loads=loads, deadline=float("nan"), target=int(num_examples), strategy="uniform"
    )

"""Numerical validation of Theorem 1 and Theorem 2.

These drivers check the paper's analytical claims against simulation:

* **Theorem 1** — the Monte-Carlo estimate of the BCC scheme's recovery
  threshold matches the closed form ``ceil(m/r) H_{ceil(m/r)}`` and sits
  inside the ``[m/r, ceil(m/r) H]`` sandwich.
* **Theorem 2** — the generalized BCC scheme's measured average coverage time
  lies between the theorem's lower bound (``min E[T-hat(m)]``) and upper
  bound (``min E[T-hat(floor(c m log m))] + 1``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.analysis.bounds import Theorem2Bounds, theorem1_bounds, theorem2_bounds
from repro.analysis.coupon import simulate_coupon_draws
from repro.api import JobSpec, RunResult, Sweep, run_sweep
from repro.cluster.spec import ClusterSpec
from repro.cluster.waiting_time import estimate_coverage_time
from repro.coding.placement import heterogeneous_random_placement
from repro.cluster.allocation import solve_p2_allocation
from repro.exceptions import ConfigurationError
from repro.stragglers.communication import ZeroCommunicationModel
from repro.stragglers.models import ExponentialDelay
from repro.utils.rng import RandomState, as_generator
from repro.utils.tables import TextTable
from repro.utils.validation import check_positive_int

__all__ = [
    "Theorem1Validation",
    "run_theorem1_validation",
    "Theorem2Validation",
    "run_theorem2_validation",
]


@dataclass
class Theorem1Validation:
    """Per-(m, r) comparison of the BCC closed form against an estimate.

    ``simulated`` holds the Monte-Carlo coupon-collector estimate by default,
    or the analytic backend's conditional expectation when the validation was
    run with ``estimator="analytic"`` (see :func:`run_theorem1_validation`).
    """

    num_examples: int
    loads: List[int]
    lower_bounds: List[float] = field(default_factory=list)
    closed_forms: List[float] = field(default_factory=list)
    simulated: List[float] = field(default_factory=list)
    estimator: str = "monte-carlo"

    def render(self) -> str:
        table = TextTable(
            ["r", "lower bound m/r", "K_BCC closed form", f"K_BCC {self.estimator}"],
            title=f"Theorem 1 validation (m={self.num_examples})",
        )
        for i, load in enumerate(self.loads):
            table.add_row(
                [load, self.lower_bounds[i], self.closed_forms[i], self.simulated[i]]
            )
        return table.render()

    def max_relative_error(self) -> float:
        """Largest |simulated - closed form| / closed form across loads."""
        errors = [
            abs(sim - closed) / closed
            for sim, closed in zip(self.simulated, self.closed_forms)
        ]
        return float(max(errors))


def run_theorem1_validation(
    num_examples: int = 100,
    loads: Optional[Sequence[int]] = None,
    *,
    num_trials: int = 500,
    rng: RandomState = 0,
    estimator: str = "monte-carlo",
) -> Theorem1Validation:
    """Check the BCC stopping time against the closed form ``ceil(m/r) H``.

    Parameters
    ----------
    estimator:
        ``"monte-carlo"`` (default) samples the coupon-collector stopping
        time; ``"analytic"`` evaluates the
        :class:`~repro.api.backends.AnalyticBackend`'s conditional
        expectation of the recovery threshold on a large unit-rate cluster
        instead — no draws at all, so the ``ceil(m/r) H`` column is
        cross-validated by an independent closed-form path.
    """
    m = check_positive_int(num_examples, "num_examples")
    check_positive_int(num_trials, "num_trials")
    if loads is None:
        loads = [load for load in (5, 10, 20, 25, 50) if load <= m] or [max(m // 2, 1)]
    generator = as_generator(rng)
    result = Theorem1Validation(
        num_examples=m, loads=[int(r) for r in loads], estimator=estimator
    )

    def coupon_runner(spec: JobSpec) -> RunResult:
        """Monte-Carlo one load's coupon-collector stopping time."""
        load = int(spec.scheme["load"])
        num_batches = -(-m // load)
        draws = simulate_coupon_draws(
            num_batches, rng=spec.rng(), num_trials=num_trials
        )
        return RunResult(
            scheme_name="bcc",
            backend="coupon-monte-carlo",
            extras={"mean_draws": float(np.mean(draws))},
        )

    if estimator == "monte-carlo":
        base = JobSpec(scheme={"name": "bcc"}, num_units=m, seed=generator)
        backend = coupon_runner
    elif estimator == "analytic":
        # A worker cap large enough that conditioning on K <= n is
        # negligible; the backend needs a cluster to size the arrival pool.
        cap = min(max(8 * m, 200), 2000)
        cluster = ClusterSpec.homogeneous(cap, ExponentialDelay(straggling=1.0))
        base = JobSpec(
            scheme={"name": "bcc"},
            cluster=cluster,
            num_units=m,
            serialize_master_link=False,
            seed=generator,
        )
        backend = "analytic"
    else:
        raise ConfigurationError(
            f"estimator must be 'monte-carlo' or 'analytic', got {estimator!r}"
        )

    sweep = Sweep(
        base,
        parameters={"scheme.load": result.loads},
        backend=backend,
    )
    records = run_sweep(sweep).records
    for load, record in zip(result.loads, records):
        bounds = theorem1_bounds(m, load)
        result.lower_bounds.append(bounds.lower)
        result.closed_forms.append(bounds.upper)
        if estimator == "monte-carlo":
            result.simulated.append(record.result.extras["mean_draws"])
        else:
            result.simulated.append(record.result.average_recovery_threshold)
    return result


@dataclass
class Theorem2Validation:
    """Measured generalized-BCC coverage time against the Theorem 2 bounds."""

    num_examples: int
    bounds: Theorem2Bounds
    measured_coverage_time: float
    analytic_coverage_time: Optional[float] = None

    @property
    def within_bounds(self) -> bool:
        """Whether the measured time falls inside ``[lower, upper]`` (with slack).

        A 5 % tolerance absorbs Monte-Carlo noise on both sides.
        """
        slack_low = 0.95 * self.bounds.lower
        slack_high = 1.05 * self.bounds.upper
        return slack_low <= self.measured_coverage_time <= slack_high

    def render(self) -> str:
        table = TextTable(
            ["quantity", "value"],
            title=f"Theorem 2 validation (m={self.num_examples})",
        )
        table.add_row(["lower bound  min E[T-hat(m)]", self.bounds.lower])
        table.add_row(["measured generalized-BCC coverage time", self.measured_coverage_time])
        if self.analytic_coverage_time is not None:
            table.add_row(
                ["analytic generalized-BCC coverage time", self.analytic_coverage_time]
            )
        table.add_row(["upper bound  min E[T-hat(c m log m)] + 1", self.bounds.upper])
        table.add_row(["constant c", self.bounds.constant])
        return table.render()


def run_theorem2_validation(
    num_examples: int = 100,
    cluster: Optional[ClusterSpec] = None,
    *,
    num_trials: int = 200,
    rng: RandomState = 0,
    analytic: bool = False,
) -> Theorem2Validation:
    """Check the Theorem 2 sandwich on a (default: paper Fig. 5 style) cluster.

    With ``analytic=True`` the table additionally carries the closed-form
    coverage-time estimate of the generalized BCC scheme (the
    :meth:`~repro.schemes.base.Scheme.analytic_runtime` hook evaluated on a
    communication-free view of the cluster, matching the compute-only
    coverage time the Monte-Carlo estimator measures).
    """
    m = check_positive_int(num_examples, "num_examples")
    cluster = cluster or ClusterSpec.paper_fig5_cluster(
        num_workers=50, num_fast=3, shift=5.0
    )
    generator = as_generator(rng)
    bounds = theorem2_bounds(cluster, m, rng=generator, num_trials=num_trials)
    # The scheme under test, shared by the Monte-Carlo estimator and the
    # analytic path: P2-optimal loads for the c*m*log(m) target.
    target = max(int(math.floor(bounds.constant * m * math.log(m))), m)
    allocation = solve_p2_allocation(cluster, target=target, max_load=m)

    def coverage_runner(spec: JobSpec) -> RunResult:
        # Measure the generalized BCC scheme itself: random per-worker
        # example selection under the shared allocation, coverage stop.

        def assignment_sampler(gen: np.random.Generator):
            return heterogeneous_random_placement(m, allocation.loads, gen).assignments

        measured = estimate_coverage_time(
            spec.cluster,
            m,
            assignment_sampler,
            rng=spec.rng(),
            num_trials=num_trials,
            allow_incomplete=True,
        )
        return RunResult(
            scheme_name="generalized-bcc",
            backend="coverage-monte-carlo",
            extras={"coverage_time": measured},
        )

    sweep = Sweep(
        JobSpec(scheme="generalized-bcc", cluster=cluster, num_units=m, seed=generator),
        backend=coverage_runner,
    )
    (record,) = run_sweep(sweep).records

    analytic_time: Optional[float] = None
    if analytic:
        from repro.schemes.heterogeneous import GeneralizedBCCScheme

        compute_only = ClusterSpec(
            workers=cluster.workers, communication=ZeroCommunicationModel()
        )
        estimate = GeneralizedBCCScheme(loads=allocation.loads).analytic_runtime(
            compute_only, m, serialize_master_link=False
        )
        analytic_time = estimate.total_time

    return Theorem2Validation(
        num_examples=m,
        bounds=bounds,
        measured_coverage_time=record.result.extras["coverage_time"],
        analytic_coverage_time=analytic_time,
    )

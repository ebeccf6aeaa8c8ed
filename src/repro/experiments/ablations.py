"""Ablation studies for the design choices called out in DESIGN.md.

Each function sweeps one design dimension on the simulator and returns a list
of plain dictionaries (one per configuration) so the benchmark harness can
print them as tables and tests can assert on the qualitative shapes:

1. :func:`load_sweep` — the computational load ``r`` drives the whole
   recovery-threshold / run-time tradeoff.
2. :func:`straggler_intensity_sweep` — BCC's advantage grows as network
   (communication) straggling intensifies.
3. :func:`delay_model_comparison` — BCC needs no knowledge of the delay
   distribution (universality): it wins under exponential, Pareto and
   bimodal stragglers alike.
4. :func:`communication_ratio_sweep` — in-worker compression (summing)
   matters more as communication gets more expensive: BCC vs the simple
   randomized scheme.
5. :func:`allocation_strategy_comparison` — P2-optimal loads vs proportional
   (LB) vs uniform loads on a heterogeneous cluster.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.api import JobSpec, RunResult, Sweep, run_sweep
from repro.cluster.allocation import (
    load_balanced_allocation,
    solve_p2_allocation,
    uniform_allocation,
)
from repro.cluster.spec import ClusterSpec
from repro.cluster.waiting_time import sample_completion_times, sample_coverage_time
from repro.coding.placement import heterogeneous_random_placement
from repro.experiments.ec2 import EC2LikeConfig, ec2_like_cluster
from repro.stragglers.communication import LinearCommunicationModel
from repro.stragglers.models import (
    BimodalStragglerDelay,
    ExponentialDelay,
    ParetoDelay,
    ShiftedExponentialDelay,
)
from repro.utils.rng import RandomState, as_generator, random_seed_sequence
from repro.utils.validation import check_positive_int

__all__ = [
    "load_sweep",
    "straggler_intensity_sweep",
    "delay_model_comparison",
    "communication_ratio_sweep",
    "allocation_strategy_comparison",
    "exactness_under_time_budget",
]


def load_sweep(
    loads: Sequence[int] = (5, 10, 25),
    *,
    num_batches: int = 50,
    num_workers: int = 50,
    num_iterations: int = 20,
    rng: RandomState = 0,
) -> List[Dict[str, float]]:
    """Sweep the computational load ``r`` for the BCC scheme on the EC2-like cluster."""
    for load in loads:
        check_positive_int(load, "load")
    sweep = Sweep(
        JobSpec(
            scheme={"name": "bcc"},
            cluster=ec2_like_cluster(num_workers),
            num_units=num_batches,
            num_iterations=num_iterations,
            unit_size=100,
            serialize_master_link=False,
            seed=as_generator(rng),
        ),
        parameters={"scheme.load": [int(load) for load in loads]},
    )
    rows: List[Dict[str, float]] = []
    for record in run_sweep(sweep).records:
        job = record.result
        rows.append(
            {
                "load": float(record.params["scheme.load"]),
                "recovery_threshold": job.average_recovery_threshold,
                "total_time": job.total_time,
                "computation_time": job.total_computation_time,
                "communication_time": job.total_communication_time,
            }
        )
    return rows


def straggler_intensity_sweep(
    jitters: Sequence[float] = (0.01, 0.06, 0.2),
    *,
    num_batches: int = 50,
    num_workers: int = 50,
    load: int = 10,
    num_iterations: int = 20,
    rng: RandomState = 0,
) -> List[Dict[str, float]]:
    """Compare BCC and uncoded total times as network straggling intensifies.

    On the paper's EC2 cluster the dominant source of straggling is the
    per-message transfer-time variability, modelled here as the exponential
    communication jitter. The uncoded scheme waits for the slowest of all
    ``n`` transfers while BCC only needs the fastest ~``(m/r) log(m/r)``, so
    the BCC speed-up should grow with the jitter.
    """
    clusters = [
        ec2_like_cluster(num_workers, EC2LikeConfig(comm_jitter=float(jitter)))
        for jitter in jitters
    ]
    sweep = Sweep(
        JobSpec(
            scheme={"name": "bcc", "load": load},
            cluster=clusters[0],
            num_units=num_batches,
            num_iterations=num_iterations,
            unit_size=100,
            serialize_master_link=False,
            seed=as_generator(rng),
        ),
        parameters={
            "cluster": clusters,
            "scheme": [{"name": "bcc", "load": load}, {"name": "uncoded"}],
        },
    )
    records = run_sweep(sweep).records
    rows: List[Dict[str, float]] = []
    for index, jitter in enumerate(jitters):
        bcc_job = records[2 * index].result
        uncoded_job = records[2 * index + 1].result
        rows.append(
            {
                "comm_jitter": float(jitter),
                "bcc_total_time": bcc_job.total_time,
                "uncoded_total_time": uncoded_job.total_time,
                "speedup": 1.0 - bcc_job.total_time / uncoded_job.total_time,
            }
        )
    return rows


def delay_model_comparison(
    *,
    num_batches: int = 50,
    num_workers: int = 50,
    load: int = 10,
    num_iterations: int = 20,
    rng: RandomState = 0,
) -> List[Dict[str, float]]:
    """BCC vs cyclic repetition vs uncoded under three different delay families.

    BCC requires no knowledge of the delay distribution; this ablation checks
    its advantage is not an artefact of the shift-exponential assumption.
    """
    communication = LinearCommunicationModel(latency=1e-3, seconds_per_unit=2e-3, jitter=6e-2)
    delay_families = {
        "shift-exponential": ShiftedExponentialDelay(straggling=1e5, shift=1e-5),
        "pareto": ParetoDelay(alpha=2.0, scale=1.5e-5),
        "bimodal": BimodalStragglerDelay(
            seconds_per_example=1e-5, straggle_probability=0.1, slowdown=20.0
        ),
    }
    clusters = [
        ClusterSpec.homogeneous(num_workers, delay, communication)
        for delay in delay_families.values()
    ]
    scheme_configs = [
        {"name": "bcc", "load": load},
        {"name": "cyclic-repetition", "load": load},
        {"name": "uncoded"},
    ]
    sweep = Sweep(
        JobSpec(
            scheme=scheme_configs[0],
            cluster=clusters[0],
            num_units=num_batches,
            num_iterations=num_iterations,
            unit_size=100,
            serialize_master_link=False,
            seed=as_generator(rng),
        ),
        parameters={"cluster": clusters, "scheme": scheme_configs},
    )
    records = run_sweep(sweep).records
    rows: List[Dict[str, float]] = []
    for index, family_name in enumerate(delay_families):
        times = [records[3 * index + offset].result.total_time for offset in range(3)]
        rows.append(
            {
                "delay_model": family_name,
                "bcc_total_time": times[0],
                "cyclic_total_time": times[1],
                "uncoded_total_time": times[2],
            }
        )
    return rows


def communication_ratio_sweep(
    comm_costs: Sequence[float] = (1e-3, 1e-2, 1e-1),
    *,
    num_units: int = 50,
    num_workers: int = 50,
    load: int = 10,
    num_iterations: int = 20,
    rng: RandomState = 0,
) -> List[Dict[str, float]]:
    """BCC (summed messages) vs simple randomized (per-unit messages) as
    communication becomes more expensive relative to computation.

    The randomized scheme's communication load is ``load`` times larger, so
    its disadvantage should widen with the per-unit communication cost.

    Each cost runs as its own sweep at the same base seed, so every cost
    sees the same placements and compute draws (common random numbers):
    the rows differ by the communication cost, not by placement luck.
    """
    compute = ShiftedExponentialDelay(straggling=1e4, shift=1e-4)
    seed = random_seed_sequence(rng)
    schemes = [{"name": "bcc", "load": load}, {"name": "randomized", "load": load}]
    rows: List[Dict[str, float]] = []
    for cost in comm_costs:
        cluster = ClusterSpec.homogeneous(
            num_workers,
            compute,
            LinearCommunicationModel(
                latency=1e-4, seconds_per_unit=float(cost), jitter=float(cost) / 2.0
            ),
        )
        sweep = Sweep(
            JobSpec(
                scheme=schemes[0],
                cluster=cluster,
                num_units=num_units,
                num_iterations=num_iterations,
                serialize_master_link=True,
                seed=seed,
            ),
            parameters={"scheme": schemes},
        )
        bcc_job, randomized_job = (record.result for record in run_sweep(sweep))
        rows.append(
            {
                "comm_seconds_per_unit": float(cost),
                "bcc_total_time": bcc_job.total_time,
                "randomized_total_time": randomized_job.total_time,
                "bcc_communication_load": bcc_job.average_communication_load,
                "randomized_communication_load": randomized_job.average_communication_load,
            }
        )
    return rows


def allocation_strategy_comparison(
    num_examples: int = 200,
    cluster: Optional[ClusterSpec] = None,
    *,
    num_trials: int = 100,
    rng: RandomState = 0,
) -> List[Dict[str, float]]:
    """Average completion time of three heterogeneous load-allocation strategies.

    * ``p2-random`` — P2-optimal loads with random (generalized BCC) placement
      and coverage-based stopping;
    * ``load-balanced`` — proportional loads, disjoint placement, wait for all;
    * ``uniform`` — equal loads, disjoint placement, wait for all.

    The paper's claim (Fig. 5) is that ``p2-random`` beats ``load-balanced``.
    The ``uniform`` row is included as an additional reference point: when the
    deterministic per-example cost dominates (large shift parameters) the
    redundancy the coverage target demands is expensive, and a plain even
    split can be competitive — the ablation makes that trade-off visible.
    """
    check_positive_int(num_examples, "num_examples")
    cluster = cluster or ClusterSpec.paper_fig5_cluster(num_workers=50, num_fast=3)

    def allocation_runner(spec: JobSpec) -> RunResult:
        """Monte-Carlo one allocation strategy's average completion time."""
        gen = spec.rng()
        strategy = str(spec.scheme)
        if strategy in ("load-balanced", "uniform"):
            # Wait-for-all strategies.
            allocate = (
                load_balanced_allocation if strategy == "load-balanced" else uniform_allocation
            )
            allocation = allocate(spec.cluster, num_examples)
            times = sample_completion_times(
                spec.cluster, allocation.loads, rng=gen, num_trials=num_trials
            )
            per_trial = np.nanmax(np.where(np.isfinite(times), times, np.nan), axis=1)
            average = float(np.mean(per_trial))
            total_load = float(allocation.total_load)
        else:
            # Generalized BCC with P2-optimal loads, coverage-based stopping.
            target = max(
                int(math.floor(num_examples * math.log(num_examples))), num_examples
            )
            p2 = solve_p2_allocation(spec.cluster, target=target, max_load=num_examples)

            def assignment_sampler(g: np.random.Generator):
                return heterogeneous_random_placement(
                    num_examples, p2.loads, g
                ).assignments

            coverage_times = sample_coverage_time(
                spec.cluster,
                num_examples,
                assignment_sampler,
                rng=gen,
                num_trials=num_trials,
            )
            average = float(np.mean(coverage_times[np.isfinite(coverage_times)]))
            total_load = float(p2.total_load)
        return RunResult(
            scheme_name=strategy,
            backend="allocation-monte-carlo",
            extras={"average_time": average, "total_load": total_load},
        )

    sweep = Sweep(
        JobSpec(
            scheme="load-balanced",
            cluster=cluster,
            num_units=num_examples,
            seed=as_generator(rng),
        ),
        parameters={"scheme": ["load-balanced", "uniform", "p2-random"]},
        backend=allocation_runner,
    )
    return [
        {
            "strategy": record.result.scheme_name,
            "average_time": record.result.extras["average_time"],
            "total_load": record.result.extras["total_load"],
        }
        for record in run_sweep(sweep).records
    ]


def exactness_under_time_budget(
    time_budgets: Sequence[float] = (0.5, 1.5, 4.0),
    *,
    num_workers: int = 20,
    num_batches: int = 20,
    points_per_batch: int = 25,
    num_features: int = 200,
    load: int = 5,
    wait_fraction: float = 0.6,
    max_iterations: int = 120,
    rng: RandomState = 0,
) -> List[Dict[str, float]]:
    """Exact BCC vs the approximate ignore-stragglers baseline per time budget.

    Both schemes train the paper's synthetic logistic model under simulated
    EC2-like time; for each wall-clock budget the row reports the training
    loss each scheme has reached by that time. The ignore-stragglers scheme
    finishes iterations sooner but its update is computed from a subset of
    the data, so exact BCC should reach lower loss for equal time once the
    budget is large enough for a handful of BCC iterations.
    """
    from repro.api import Workload
    from repro.datasets.batching import make_batches
    from repro.datasets.synthetic import LogisticDataConfig, make_paper_logistic_data
    from repro.gradients.logistic import LogisticLoss
    from repro.optim.nesterov import NesterovAcceleratedGradient

    generator = as_generator(rng)
    cluster = ec2_like_cluster(num_workers)
    config = LogisticDataConfig(
        num_examples=num_batches * points_per_batch, num_features=num_features
    )
    dataset, _ = make_paper_logistic_data(config, seed=generator)
    unit_spec = make_batches(dataset.num_examples, points_per_batch)

    scheme_configs = {
        "uncoded": {"name": "uncoded"},
        "ignore-stragglers": {
            "name": "ignore-stragglers",
            "wait_fraction": wait_fraction,
        },
        "bcc": {"name": "bcc", "load": load},
    }
    sweep = Sweep(
        JobSpec(
            scheme=scheme_configs["uncoded"],
            cluster=cluster,
            num_iterations=max_iterations,
            serialize_master_link=False,
            seed=generator,
            workload=Workload(
                model=LogisticLoss(),
                dataset=dataset,
                optimizer=NesterovAcceleratedGradient(0.3),
                unit_spec=unit_spec,
            ),
        ),
        parameters={"scheme": list(scheme_configs.values())},
        backend="semantic",
    )
    runs = {
        name: record.result
        for name, record in zip(scheme_configs, run_sweep(sweep).records)
    }

    def loss_at_budget(run, budget: float) -> float:
        elapsed = 0.0
        reached = run.training.losses[0]
        for outcome, record in zip(run.iterations, run.training.history):
            elapsed += outcome.total_time
            if elapsed > budget:
                break
            reached = record.loss
        return float(reached)

    rows: List[Dict[str, float]] = []
    for budget in time_budgets:
        rows.append(
            {
                "time_budget": float(budget),
                "uncoded_loss": loss_at_budget(runs["uncoded"], float(budget)),
                "ignore_stragglers_loss": loss_at_budget(
                    runs["ignore-stragglers"], float(budget)
                ),
                "bcc_loss": loss_at_budget(runs["bcc"], float(budget)),
            }
        )
    return rows

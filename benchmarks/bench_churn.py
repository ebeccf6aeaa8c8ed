"""Benchmark of the timing engines on a *dynamic* cluster.

Runs the same 1000-worker job through both engines on a cluster with
Markov-modulated slow/fast regimes plus a scripted churn schedule (periodic
spot preemptions), asserts the two engines produce *identical* summaries —
the dynamic extension of the RNG draw-order contract — and asserts the
vectorized engine is at least 5x faster, the acceptance bar of the
dynamic-cluster subsystem. Both engines materialise the same columnar
timeline (one delay factor per iteration and worker); only the loop engine
then builds timeline objects from it, a scaled model per distinct (worker,
factor) for its per-iteration cluster snapshots. The vectorized engine reads
the block form straight from the base parameters and the factors. The bar
stays below the stationary engine benchmark's 10x.
"""

import time

from repro.cluster.dynamic import ChurnEvent, DynamicClusterSpec
from repro.cluster.spec import ClusterSpec
from repro.schemes.registry import scheme_from_config
from repro.simulation.job import simulate_job
from repro.simulation.vectorized import simulate_job_vectorized
from repro.stragglers.communication import LinearCommunicationModel
from repro.stragglers.models import ShiftedExponentialDelay
from repro.utils.tables import TextTable

NUM_WORKERS = 1000
NUM_ITERATIONS = 300
MINIMUM_SPEEDUP = 5.0

#: (scheme config, with churn events?). Uncoded has zero redundancy, so it
#: runs the absence-free Markov scenario; BCC additionally survives the
#: scripted preemption schedule.
SCHEMES = (
    ({"name": "uncoded"}, False),
    ({"name": "bcc", "load": 100}, True),
)


def _dynamic_cluster(with_churn: bool) -> DynamicClusterSpec:
    base = ClusterSpec.homogeneous(
        NUM_WORKERS,
        ShiftedExponentialDelay(straggling=1.0, shift=0.001),
        LinearCommunicationModel(latency=0.01, seconds_per_unit=0.001),
    )
    # Periodic spot preemptions walking across the fleet.
    events = (
        tuple(
            ChurnEvent(
                kind="preempt",
                worker=(7 * index) % NUM_WORKERS,
                iteration=10 * index,
                recovery=5,
            )
            for index in range(1, NUM_ITERATIONS // 10)
        )
        if with_churn
        else ()
    )
    return DynamicClusterSpec(
        base,
        dynamics={"name": "markov", "slowdown": 8.0, "p_slow": 0.05},
        events=events,
    )


def test_vectorized_engine_at_least_5x_faster_under_dynamics(benchmark, report):
    rows = []

    for config, with_churn in SCHEMES:
        name = config["name"]
        cluster = _dynamic_cluster(with_churn)
        started = time.perf_counter()
        loop_result = simulate_job(
            scheme_from_config(config),
            cluster,
            NUM_WORKERS,
            NUM_ITERATIONS,
            rng=0,
        )
        loop_seconds = time.perf_counter() - started

        # Best of three: the minimum is the noise-robust statistic, so the
        # floor does not flake on a loaded CI runner.
        vectorized_seconds = float("inf")
        for _attempt in range(3):
            started = time.perf_counter()
            vectorized_result = simulate_job_vectorized(
                scheme_from_config(config),
                cluster,
                NUM_WORKERS,
                NUM_ITERATIONS,
                rng=0,
            )
            vectorized_seconds = min(
                vectorized_seconds, time.perf_counter() - started
            )

        assert vectorized_result.summary() == loop_result.summary(), (
            f"{name}: the engines must agree bit for bit on dynamic clusters"
        )
        speedup = loop_seconds / vectorized_seconds
        assert speedup >= MINIMUM_SPEEDUP, (
            f"{name}: vectorized engine is only {speedup:.1f}x faster under "
            f"dynamics (bar: {MINIMUM_SPEEDUP:.0f}x)"
        )
        rows.append(
            [name, "yes" if with_churn else "no", f"{loop_seconds:.2f}",
             f"{vectorized_seconds:.2f}", f"{speedup:.1f}x"]
        )

    churn_cluster = _dynamic_cluster(True)

    def run_once():
        simulate_job_vectorized(
            scheme_from_config(SCHEMES[-1][0]),
            churn_cluster,
            NUM_WORKERS,
            NUM_ITERATIONS,
            rng=0,
        )

    benchmark(run_once)
    table = TextTable(
        ["scheme", "churn", "loop (s)", "vectorized (s)", "speedup"],
        title=(
            f"Dynamic-cluster engines — n={NUM_WORKERS}, "
            f"{NUM_ITERATIONS} iterations, Markov regimes + churn schedule"
        ),
    )
    for row in rows:
        table.add_row(row)
    report("bench_churn", table.render(), minimum_speedup=MINIMUM_SPEEDUP)

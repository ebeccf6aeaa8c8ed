"""Loop vs vectorized engine equivalence on dynamic clusters.

The acceptance bar mirrors the stationary equivalence suite: *bit-identical*
results at a fixed seed for every registered scheme on a
:class:`~repro.cluster.dynamic.DynamicClusterSpec` scenario combining churn
events with Markov-modulated delays, in both master-link modes, with
deterministic and stochastic communication — and identical *raises* when
churn removes the last holders of a data unit.
"""

import numpy as np
import pytest

from repro.cluster.dynamic import ChurnEvent, DynamicClusterSpec
from repro.cluster.spec import ClusterSpec, WorkerSpec
from repro.exceptions import SimulationError
from repro.schemes.registry import available_schemes, scheme_from_config
from repro.simulation.job import simulate_job, simulate_training_run
from repro.simulation.vectorized import simulate_job_vectorized
from repro.stragglers.communication import LinearCommunicationModel
from repro.stragglers.models import (
    BimodalStragglerDelay,
    ParetoDelay,
    ShiftedExponentialDelay,
)

# One representative configuration per registered scheme, with enough
# redundancy that the churn scenario below keeps every unit covered.
SCHEME_MATRIX = {
    "uncoded": ({"name": "uncoded"}, 24),
    "bcc": ({"name": "bcc", "load": 6}, 24),
    "randomized": ({"name": "randomized", "load": 8}, 24),
    "ignore-stragglers": ({"name": "ignore-stragglers", "wait_fraction": 0.6}, 24),
    "cyclic-repetition": ({"name": "cyclic-repetition", "load": 6}, 12),
    "reed-solomon": ({"name": "reed-solomon", "load": 6}, 12),
    "fractional-repetition": ({"name": "fractional-repetition", "load": 4}, 12),
    "generalized-bcc": ({"name": "generalized-bcc"}, 24),
    "load-balanced": ({"name": "load-balanced"}, 24),
}

HETEROGENEOUS = {"generalized-bcc", "load-balanced"}

#: Schemes with zero redundancy: every worker is required every iteration, so
#: an absence scenario cannot complete — the equivalence bar for them is that
#: both engines *raise* identically (and complete identically under the
#: absence-free Markov scenario below).
REQUIRES_ALL_WORKERS = {"uncoded", "load-balanced"}

#: The acceptance scenario: a preemption window, a permanent leave with a
#: later elastic rejoin, plus Markov-modulated slow/fast regimes everywhere.
CHURN_EVENTS = (
    ChurnEvent("preempt", 3, 2, 3),
    ChurnEvent("leave", 7, 5),
    ChurnEvent("join", 7, 8),
)


def make_base(name: str, *, jitter: float = 0.0) -> ClusterSpec:
    communication = LinearCommunicationModel(
        latency=0.05, seconds_per_unit=0.02, jitter=jitter
    )
    if name in HETEROGENEOUS:
        return ClusterSpec.paper_fig5_cluster(
            num_workers=12, num_fast=2, communication=communication
        )
    return ClusterSpec.homogeneous(
        12, ShiftedExponentialDelay(straggling=1.0, shift=0.01), communication
    )


def make_dynamic(base: ClusterSpec) -> DynamicClusterSpec:
    return DynamicClusterSpec(
        base,
        dynamics={"name": "markov", "slowdown": 6.0, "p_slow": 0.2},
        events=CHURN_EVENTS,
    )


def run_both(config, cluster, base, num_units, *, seed=123, num_iterations=9, **kwargs):
    results, states = [], []
    for engine in (simulate_job, simulate_job_vectorized):
        generator = np.random.default_rng(seed)
        try:
            job = engine(
                scheme_from_config(config, cluster=base),
                cluster,
                num_units,
                num_iterations,
                rng=generator,
                **kwargs,
            )
            results.append(("completed", job))
        except SimulationError:
            results.append(("raised", None))
        states.append(generator.bit_generator.state)
    if results[0][0] == results[1][0] == "completed":
        # The "shared" seed strategy threads the job generator onwards.
        assert states[0] == states[1]
    return results


def assert_identical(results):
    (loop_status, loop), (vec_status, vectorized) = results
    assert loop_status == vec_status == "completed"
    assert loop.summary() == vectorized.summary()  # exact float equality
    assert list(loop.iterations) == list(vectorized.iterations)


def assert_equivalent_under_absence(name, results):
    """Bit-identity for redundant schemes; identical raises for the rest."""
    if name in REQUIRES_ALL_WORKERS:
        assert [status for status, _ in results] == ["raised", "raised"]
    else:
        assert_identical(results)


class TestDynamicSchemeEquivalence:
    def test_matrix_covers_every_registered_scheme(self):
        assert sorted(SCHEME_MATRIX) == available_schemes()

    @pytest.mark.parametrize("name", sorted(SCHEME_MATRIX))
    def test_markov_modulated_identical(self, name):
        # The absence-free dynamic scenario every scheme can complete.
        config, num_units = SCHEME_MATRIX[name]
        base = make_base(name)
        cluster = DynamicClusterSpec(
            base, dynamics={"name": "markov", "slowdown": 6.0, "p_slow": 0.2}
        )
        for serialize in (True, False):
            assert_identical(
                run_both(config, cluster, base, num_units,
                         serialize_master_link=serialize)
            )

    @pytest.mark.parametrize("name", sorted(SCHEME_MATRIX))
    def test_serialized_link_identical_under_churn(self, name):
        config, num_units = SCHEME_MATRIX[name]
        base = make_base(name)
        assert_equivalent_under_absence(
            name,
            run_both(config, make_dynamic(base), base, num_units,
                     serialize_master_link=True),
        )

    @pytest.mark.parametrize("name", sorted(SCHEME_MATRIX))
    def test_parallel_link_identical_under_churn(self, name):
        config, num_units = SCHEME_MATRIX[name]
        base = make_base(name)
        assert_equivalent_under_absence(
            name,
            run_both(config, make_dynamic(base), base, num_units,
                     serialize_master_link=False),
        )

    @pytest.mark.parametrize("name", sorted(SCHEME_MATRIX))
    def test_stochastic_communication_identical_under_churn(self, name, block_draws):
        config, num_units = SCHEME_MATRIX[name]
        base = make_base(name, jitter=0.01)
        assert_equivalent_under_absence(
            name,
            run_both(config, make_dynamic(base), base, num_units,
                     serialize_master_link=True),
        )
        # Shift-exponential workers with jitter: the block draw, vacant
        # slots included.
        assert block_draws and set(block_draws) == {True}


class TestDynamicRegimes:
    def test_drifting_delays_identical(self):
        base = make_base("bcc")
        cluster = DynamicClusterSpec(base, dynamics={"name": "drift", "final_factor": 4.0})
        assert_identical(run_both({"name": "bcc", "load": 4}, cluster, base, 24))

    def test_random_preemption_identical_or_raises_identically(
        self, stochastic_case, block_draws
    ):
        base = stochastic_case.build(12)
        cluster = DynamicClusterSpec(
            base,
            dynamics={"name": "preempt", "preempt_probability": 0.15,
                      "recovery_iterations": 2},
        )
        completed = 0
        for seed in (0, 1, 2, 3):
            results = run_both({"name": "bcc", "load": 6}, cluster, base, 24,
                               seed=seed)
            assert results[0][0] == results[1][0]
            if results[0][0] == "completed":
                assert_identical(results)
                completed += 1
        assert completed
        assert block_draws and set(block_draws) == {stochastic_case.block}

    def test_initially_absent_scale_out_identical(self):
        base = make_base("bcc")
        cluster = DynamicClusterSpec(
            base,
            initially_absent=[10, 11],
            events=[ChurnEvent("join", 10, 3), ChurnEvent("join", 11, 6)],
        )
        assert_identical(run_both({"name": "bcc", "load": 6}, cluster, base, 24))

    def test_mixed_base_models_take_scalar_fallback_identically(self):
        communication = LinearCommunicationModel(latency=0.05, seconds_per_unit=0.02)
        workers = [
            ShiftedExponentialDelay(1.0, 0.01),
            ParetoDelay(alpha=2.0, scale=0.05),
            BimodalStragglerDelay(seconds_per_example=0.05),
        ] * 4
        base = ClusterSpec(
            workers=tuple(
                WorkerSpec(compute=model, name=f"worker-{i}")
                for i, model in enumerate(workers)
            ),
            communication=communication,
        )
        cluster = DynamicClusterSpec(
            base,
            dynamics={"name": "markov", "slowdown": 3.0, "p_slow": 0.3},
            events=[ChurnEvent("preempt", 0, 2, 2)],
        )
        assert_identical(run_both({"name": "bcc", "load": 6}, cluster, base, 24))

    def test_lost_coverage_raises_in_both_engines(self):
        base = make_base("uncoded")
        cluster = DynamicClusterSpec(base, events=[ChurnEvent("leave", 0, 2)])
        messages = []
        for engine in (simulate_job, simulate_job_vectorized):
            with pytest.raises(SimulationError) as excinfo:
                engine(
                    scheme_from_config({"name": "uncoded"}),
                    cluster,
                    24,
                    9,
                    rng=123,
                )
            messages.append(str(excinfo.value))
        # Identical, and naming the actual cause (vacancy), not a placement
        # problem — "all workers reported" would be wrong here.
        assert messages[0] == messages[1]
        assert "coverage lost to churn/preemption" in messages[0]
        assert "infeasible placement" not in messages[0]

    def test_worker_count_mismatch_raises(self):
        base = make_base("bcc")
        other = make_base("bcc")
        cluster = DynamicClusterSpec(base, dynamics="drift")
        plan = scheme_from_config({"name": "bcc", "load": 4}).build_feasible_plan(
            24, 10, np.random.default_rng(0)
        )
        with pytest.raises(SimulationError, match="10 workers"):
            simulate_job_vectorized(plan, cluster, 24, 3, rng=0)
        assert other.num_workers == cluster.num_workers


class TestDynamicDispatchAndTraining:
    def test_engine_knob_dispatches_identically(self):
        base = make_base("bcc")
        cluster = make_dynamic(base)
        results = [
            simulate_job(
                scheme_from_config({"name": "bcc", "load": 6}, cluster=base),
                cluster,
                24,
                9,
                rng=77,
                engine=engine,
            )
            for engine in ("loop", "vectorized", "auto")
        ]
        assert results[0].summary() == results[1].summary() == results[2].summary()

    def test_training_run_timing_matches_timing_only(self, small_logistic_dataset):
        from repro.gradients.logistic import LogisticLoss
        from repro.optim.gradient_descent import GradientDescent

        dataset, _ = small_logistic_dataset
        base = make_base("bcc")
        cluster = DynamicClusterSpec(
            base, dynamics={"name": "markov", "slowdown": 4.0, "p_slow": 0.25}
        )
        timing = simulate_job(
            scheme_from_config({"name": "bcc", "load": 15}),
            cluster,
            dataset.num_examples,
            5,
            rng=42,
        )
        training = simulate_training_run(
            scheme_from_config({"name": "bcc", "load": 15}),
            cluster,
            LogisticLoss(),
            dataset,
            GradientDescent(0.1),
            num_iterations=5,
            rng=42,
        )
        assert list(timing.iterations) == list(training.iterations)
        assert training.training is not None
        assert len(training.training.history) == 5

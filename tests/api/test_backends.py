"""Tests for the execution backends and the unified RunResult."""

import pickle
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from repro.api import (
    JobSpec,
    MultiprocessBackend,
    RunResult,
    SemanticSimBackend,
    TimingSimBackend,
    Workload,
    available_backends,
    get_backend,
    run,
)
from repro.cluster.dynamic import DynamicClusterSpec
from repro.cluster.spec import ClusterSpec
from repro.datasets.batching import make_batches
from repro.datasets.synthetic import LogisticDataConfig, make_paper_logistic_data
from repro.exceptions import ConfigurationError, SimulationError
from repro.optim.nesterov import NesterovAcceleratedGradient
from repro.stragglers.dynamics import WorkerProcess
from repro.stragglers.models import DeterministicDelay, ExponentialDelay


@pytest.fixture
def cluster() -> ClusterSpec:
    return ClusterSpec.homogeneous(10, ExponentialDelay(straggling=1.0))


@pytest.fixture
def workload(small_logistic_dataset, logistic_model) -> Workload:
    dataset, _ = small_logistic_dataset
    # 60 examples in batches of 5 -> 12 units, enough for the 10-worker
    # cluster's disjoint placements.
    return Workload(
        model=logistic_model,
        dataset=dataset,
        optimizer=NesterovAcceleratedGradient(0.3),
        unit_spec=make_batches(dataset.num_examples, 5),
    )


class TestDispatch:
    def test_names(self):
        assert available_backends() == ["analytic", "multiprocess", "semantic", "timing"]

    def test_get_backend_by_name_instance_and_callable(self):
        assert isinstance(get_backend("timing"), TimingSimBackend)
        backend = SemanticSimBackend()
        assert get_backend(backend) is backend

        def runner(spec):
            return RunResult(scheme_name="stub", backend="stub")

        adapted = get_backend(runner)
        assert adapted.run(None).scheme_name == "stub"

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigurationError, match="unknown backend"):
            get_backend("quantum")


class TestTimingBackend:
    def test_runs_and_tags_result(self, cluster):
        spec = JobSpec(
            scheme={"name": "bcc", "load": 4},
            cluster=cluster,
            num_units=20,
            num_iterations=5,
            seed=0,
        )
        result = run(spec)
        assert isinstance(result, RunResult)
        assert result.backend == "timing"
        assert result.num_iterations == 5
        assert result.total_time > 0
        assert result.summary()["scheme"] == "bcc"

    def test_engine_knob_results_are_identical(self, cluster):
        spec = JobSpec(
            scheme={"name": "bcc", "load": 4},
            cluster=cluster,
            num_units=20,
            num_iterations=6,
            seed=11,
        )
        loop = TimingSimBackend(engine="loop").run(spec)
        vectorized = TimingSimBackend(engine="vectorized").run(spec)
        auto = TimingSimBackend().run(spec)
        assert loop.summary() == vectorized.summary() == auto.summary()

    def test_engine_via_backend_options_overrides_instance(self, cluster):
        base = JobSpec(
            scheme="uncoded",
            cluster=cluster,
            num_units=20,
            num_iterations=4,
            seed=2,
        )
        loop_backend = TimingSimBackend(engine="loop")
        plain = loop_backend.run(base)
        overridden = loop_backend.run(
            base.replace(backend_options={"engine": "vectorized"})
        )
        assert plain.summary() == overridden.summary()

    def test_unknown_engine_rejected(self, cluster):
        with pytest.raises(ConfigurationError, match="unknown engine"):
            TimingSimBackend(engine="warp")
        spec = JobSpec(
            scheme="uncoded",
            cluster=cluster,
            num_units=10,
            num_iterations=2,
            backend_options={"engine": "warp"},
        )
        with pytest.raises(ConfigurationError, match="unknown engine"):
            TimingSimBackend().run(spec)

    def test_unknown_backend_option_rejected(self, cluster):
        spec = JobSpec(
            scheme="uncoded",
            cluster=cluster,
            num_units=10,
            num_iterations=2,
            backend_options={"warp_speed": True},
        )
        with pytest.raises(ConfigurationError, match="warp_speed"):
            TimingSimBackend().run(spec)

    def test_requires_cluster(self):
        spec = JobSpec(scheme="uncoded", num_units=10)
        with pytest.raises(ConfigurationError, match="cluster"):
            run(spec)

    def test_same_seed_same_result(self, cluster):
        spec = JobSpec(
            scheme={"name": "bcc", "load": 4},
            cluster=cluster,
            num_units=20,
            num_iterations=5,
            seed=42,
        )
        assert run(spec).summary() == run(spec).summary()


class TestBackendEquivalence:
    def test_timing_and_semantic_agree_on_timing_metrics(self, cluster, workload):
        """Same JobSpec + seed => identical timing on both simulation backends."""
        spec = JobSpec(
            scheme={"name": "bcc", "load": 2},
            cluster=cluster,
            num_iterations=6,
            seed=7,
            workload=workload,
        )
        timing = TimingSimBackend().run(spec)
        semantic = SemanticSimBackend().run(spec)

        assert timing.num_iterations == semantic.num_iterations
        for timed, trained in zip(timing.iterations, semantic.iterations):
            assert timed.total_time == trained.total_time
            assert timed.computation_time == trained.computation_time
            assert timed.workers_heard == trained.workers_heard
            assert timed.communication_load == trained.communication_load
        assert timing.summary()["total_time"] == semantic.summary()["total_time"]
        # Only the semantic run trains a model.
        assert timing.training is None
        assert semantic.training is not None
        losses = semantic.training.losses
        assert losses[-1] < losses[0]

    @pytest.mark.parametrize("name", ["uncoded", "ignore-stragglers"])
    def test_equivalence_for_parameterless_schemes(self, cluster, workload, name):
        spec = JobSpec(
            scheme=name, cluster=cluster, num_iterations=3, seed=3, workload=workload
        )
        timing = TimingSimBackend().run(spec)
        semantic = SemanticSimBackend().run(spec)
        assert timing.total_time == semantic.total_time

    def test_semantic_requires_workload(self, cluster):
        spec = JobSpec(scheme="uncoded", cluster=cluster, num_units=10)
        with pytest.raises(ConfigurationError, match="workload"):
            SemanticSimBackend().run(spec)


@pytest.mark.runtime
class TestMultiprocessBackend:
    def test_real_run_produces_unified_result(self, workload):
        spec = JobSpec(
            scheme={"name": "bcc", "load": 6},  # 12 units -> 2 batches, 3 workers
            num_iterations=3,
            seed=1,
            workload=workload,
            backend_options={"num_workers": 3},
        )
        result = run(spec, backend="multiprocess")
        assert result.backend == "multiprocess"
        assert result.num_iterations == 3
        assert len(result.iteration_times) == 3
        assert len(result.workers_heard) == 3
        assert result.total_seconds > 0
        # RunResult falls back to wall-clock aggregates when there are no
        # simulated iterations.
        assert result.total_time == result.total_seconds
        assert result.average_recovery_threshold == np.mean(result.workers_heard)
        summary = result.summary()
        assert summary["backend"] == "multiprocess"
        assert "final_loss" in summary

    def test_single_unit_workers_of_a_per_unit_scheme(self, logistic_model):
        # Each of 12 workers holds one of 4 units and sends its one unit's
        # gradient as a row: the plan's rule names the encoding, which no
        # message size can tell apart from a summed vector.
        dataset, _ = make_paper_logistic_data(
            LogisticDataConfig(num_examples=4, num_features=3), seed=0
        )
        spec = JobSpec(
            scheme={"name": "randomized", "load": 1},
            num_iterations=2,
            seed=0,
            workload=Workload(
                model=logistic_model,
                dataset=dataset,
                optimizer=NesterovAcceleratedGradient(0.3),
            ),
            backend_options={"num_workers": 12},
        )
        result = run(spec, backend="multiprocess")
        assert result.num_iterations == 2
        assert all(4 <= heard <= 12 for heard in result.workers_heard)

    def test_needs_workers_source(self, workload):
        spec = JobSpec(scheme="uncoded", num_iterations=1, workload=workload)
        with pytest.raises(ConfigurationError, match="num_workers"):
            MultiprocessBackend().run(spec)

    def test_rejects_unknown_option(self, workload):
        spec = JobSpec(
            scheme="uncoded",
            num_iterations=1,
            workload=workload,
            backend_options={"num_workers": 2, "warp_speed": True},
        )
        with pytest.raises(ConfigurationError, match="warp_speed"):
            MultiprocessBackend().run(spec)

    def test_accepts_injectable_dynamic_cluster(self, workload):
        """A registered-dynamics DynamicClusterSpec runs on real workers.

        The Markov process modulates computation speed but never vacates a
        slot, so even the uncoded scheme completes; the result carries the
        fault-injection evidence (fingerprint and scheduled-worker trace).
        """
        cluster = DynamicClusterSpec(
            ClusterSpec.homogeneous(3, DeterministicDelay(0.001)),
            dynamics={"name": "markov", "slowdown": 3.0, "p_slow": 0.3},
            seed=4,
        )
        spec = JobSpec(
            scheme="uncoded",
            cluster=cluster,
            num_iterations=2,
            seed=4,
            workload=workload,
        )
        result = run(spec, backend="multiprocess")
        assert result.num_iterations == 2
        assert len(str(result.extras["fault_fingerprint"])) == 64
        assert result.extras["fault_mode"] == "mute"
        assert result.extras["scheduled_workers"] == [3, 3]
        assert list(result.extras) == [
            "scheduled_workers", "fault_fingerprint", "fault_mode"
        ]

    def test_rejects_unregistered_dynamics_by_name(self, workload):
        """The typed rejection names the offending process class."""

        class HomebrewProcess(WorkerProcess):
            def timeline(self, num_iterations, num_workers, rng=None):
                return np.ones((num_iterations, num_workers))

        cluster = DynamicClusterSpec(
            ClusterSpec.homogeneous(3, DeterministicDelay(0.001)),
            dynamics=HomebrewProcess(),
            seed=0,
        )
        spec = JobSpec(
            scheme="uncoded", cluster=cluster, num_iterations=1, workload=workload
        )
        with pytest.raises(ConfigurationError, match="HomebrewProcess"):
            MultiprocessBackend().run(spec)

    def test_rejects_unknown_fault_mode(self, workload):
        spec = JobSpec(
            scheme="uncoded",
            num_iterations=1,
            workload=workload,
            backend_options={"num_workers": 2, "fault_mode": "zombie"},
        )
        with pytest.raises(ConfigurationError, match="zombie"):
            MultiprocessBackend().run(spec)

    def test_straggle_delays_exclusive_with_dynamic_cluster(self, workload):
        cluster = DynamicClusterSpec(
            ClusterSpec.homogeneous(3, DeterministicDelay(0.001)),
            dynamics="markov",
            seed=0,
        )
        spec = JobSpec(
            scheme="uncoded",
            cluster=cluster,
            num_iterations=1,
            workload=workload,
            backend_options={"straggle_delays": [DeterministicDelay(0.0)] * 3},
        )
        with pytest.raises(ConfigurationError, match="cannot be combined"):
            MultiprocessBackend().run(spec)


class TestRunResult:
    def test_empty_result_raises_on_threshold(self):
        with pytest.raises(SimulationError):
            RunResult(scheme_name="x").average_recovery_threshold

    def test_fields_cannot_be_rebound(self, cluster):
        spec = JobSpec(
            scheme="uncoded", cluster=cluster, num_units=10, num_iterations=2, seed=0
        )
        result = run(spec)
        for name in ("iterations", "backend", "extras", "summary_data"):
            with pytest.raises(FrozenInstanceError):
                setattr(result, name, None)
        assert result.num_iterations == 2 and result.backend == "timing"

    def test_a_compacted_summary_is_read_only(self, cluster):
        spec = JobSpec(
            scheme="uncoded", cluster=cluster, num_units=10, num_iterations=2, seed=0
        )
        compact = run(spec).compact()
        with pytest.raises(TypeError):
            compact.summary_data["total_time"] = -1.0
        summary = {"total_time": 1.0}
        given = RunResult(scheme_name="x", summary_data=summary)
        summary["total_time"] = -1.0
        assert given.total_time == 1.0
        clone = pickle.loads(pickle.dumps(compact))
        assert clone == compact and clone.summary() == compact.summary()
        with pytest.raises(TypeError):
            clone.summary_data["total_time"] = -1.0

    def test_to_table_renders_summary_and_extras(self, cluster):
        spec = JobSpec(
            scheme="uncoded", cluster=cluster, num_units=10, num_iterations=2, seed=0
        )
        result = run(spec)
        result.extras["note"] = "hello"
        rendered = result.to_table().render()
        assert "total_time" in rendered
        assert "hello" in rendered

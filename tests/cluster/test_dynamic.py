"""Tests for DynamicClusterSpec, ChurnEvent, and timeline materialisation."""

import numpy as np
import pytest

from repro.cluster.dynamic import ChurnEvent, ClusterTimeline, DynamicClusterSpec
from repro.cluster.spec import ClusterSpec
from repro.exceptions import AnalyticIntractableError, ConfigurationError
from repro.experiments.churn import dynamics_from_spec
from repro.stragglers.dynamics import (
    UNAVAILABLE,
    DriftingDelay,
    MarkovModulatedDelay,
    PreemptionModel,
    UnavailableDelay,
    scale_delay,
)
from repro.stragglers.models import DeterministicDelay, ShiftedExponentialDelay


@pytest.fixture
def base() -> ClusterSpec:
    return ClusterSpec.homogeneous(6, ShiftedExponentialDelay(1.0, 0.1))


class TestChurnEvent:
    def test_validation(self):
        with pytest.raises(ConfigurationError, match="kind"):
            ChurnEvent("explode", 0, 0)
        with pytest.raises(ConfigurationError, match="worker"):
            ChurnEvent("leave", -1, 0)
        with pytest.raises(ConfigurationError, match="iteration"):
            ChurnEvent("leave", 0, -1)
        with pytest.raises(ValueError):
            ChurnEvent("preempt", 0, 0, recovery=0)
        with pytest.raises(ConfigurationError, match="preempt"):
            ChurnEvent("leave", 0, 0, recovery=2)

    def test_from_config(self):
        event = ChurnEvent.from_config(
            {"kind": "preempt", "worker": 2, "iteration": 5, "recovery": 3}
        )
        assert event == ChurnEvent("preempt", 2, 5, 3)
        with pytest.raises(ConfigurationError, match="missing"):
            ChurnEvent.from_config({"kind": "leave", "worker": 1})
        with pytest.raises(ConfigurationError, match="does not accept"):
            ChurnEvent.from_config(
                {"kind": "leave", "worker": 1, "iteration": 0, "extra": 1}
            )


class TestDynamicClusterSpec:
    def test_requires_some_time_variation(self, base):
        with pytest.raises(ConfigurationError, match="time .*variation|variation"):
            DynamicClusterSpec(base)

    def test_requires_a_cluster_base(self):
        with pytest.raises(ConfigurationError, match="ClusterSpec"):
            DynamicClusterSpec("not-a-cluster", dynamics="drift")

    def test_event_worker_out_of_range(self, base):
        with pytest.raises(ConfigurationError, match="targets worker"):
            DynamicClusterSpec(base, events=[ChurnEvent("leave", 99, 0)])

    def test_initially_absent_out_of_range(self, base):
        with pytest.raises(ConfigurationError, match="out of range"):
            DynamicClusterSpec(base, initially_absent=[6])

    def test_events_accept_config_mappings(self, base):
        spec = DynamicClusterSpec(
            base,
            events=[{"kind": "leave", "worker": 1, "iteration": 2}],
        )
        assert spec.events == (ChurnEvent("leave", 1, 2),)

    def test_per_worker_dynamics_mapping(self, base):
        spec = DynamicClusterSpec(
            base,
            dynamics={0: "drift", 3: {"name": "markov", "slowdown": 2.0}},
        )
        processes = spec._processes
        assert isinstance(processes[0], DriftingDelay)
        assert isinstance(processes[3], MarkovModulatedDelay)
        assert processes[1] is None

    def test_per_worker_mapping_rejects_bad_keys(self, base):
        with pytest.raises(ConfigurationError, match="worker index"):
            DynamicClusterSpec(base, dynamics={"zero": "drift"})
        with pytest.raises(ConfigurationError, match="target worker"):
            DynamicClusterSpec(base, dynamics={42: "drift"})

    def test_availability_schedule(self, base):
        spec = DynamicClusterSpec(
            base,
            initially_absent=[4],
            events=[
                ChurnEvent("preempt", 2, 3, 2),
                ChurnEvent("leave", 5, 6),
                ChurnEvent("join", 5, 8),
                ChurnEvent("join", 4, 5),
            ],
        )
        up = spec.availability(10)
        assert not up[:, 4][:5].any() and up[5:, 4].all()  # scale-out join
        assert not up[3:5, 2].any() and up[5:, 2].all()  # preempt + rejoin
        assert up[:6, 5].all() and not up[6:8, 5].any() and up[8:, 5].all()

    def test_events_beyond_the_horizon_are_ignored(self, base):
        spec = DynamicClusterSpec(base, events=[ChurnEvent("leave", 0, 50)])
        assert spec.availability(10).all()

    def test_analytic_entry_points_raise_typed_error(self, base):
        spec = DynamicClusterSpec(base, dynamics="drift")
        for method in ("delay_models", "straggling_parameters", "shift_parameters"):
            with pytest.raises(AnalyticIntractableError, match="non-stationary"):
                getattr(spec, method)()


class TestMaterialize:
    def test_consumes_exactly_one_draw_without_a_pinned_seed(self, base):
        spec = DynamicClusterSpec(base, dynamics="drift")
        probe = np.random.default_rng(0)
        spec.materialize(5, probe)
        reference = np.random.default_rng(0)
        reference.integers(0, 2**63)
        assert probe.bit_generator.state == reference.bit_generator.state

    def test_pinned_seed_consumes_nothing_and_fixes_the_scenario(self, base):
        spec = DynamicClusterSpec(
            base, dynamics={"name": "preempt", "preempt_probability": 0.3}, seed=7
        )
        probe = np.random.default_rng(0)
        state = probe.bit_generator.state
        timeline_a = spec.materialize(20, probe)
        assert probe.bit_generator.state == state
        timeline_b = spec.materialize(20, np.random.default_rng(999))
        np.testing.assert_array_equal(
            timeline_a.availability, timeline_b.availability
        )

    def test_timeline_is_deterministic_under_the_job_seed(self, base):
        spec = DynamicClusterSpec(
            base, dynamics={"name": "markov", "p_slow": 0.4}
        )
        timelines = [
            spec.materialize(8, np.random.default_rng(3)) for _ in range(2)
        ]
        for row_a, row_b in zip(timelines[0].models, timelines[1].models):
            assert [repr(m) for m in row_a] == [repr(m) for m in row_b]

    def test_vacant_slots_hold_unavailable_models(self, base):
        spec = DynamicClusterSpec(base, events=[ChurnEvent("leave", 2, 1)])
        timeline = spec.materialize(3, np.random.default_rng(0))
        assert not isinstance(timeline.models[0][2], UnavailableDelay)
        assert isinstance(timeline.models[1][2], UnavailableDelay)
        assert isinstance(timeline.models[2][2], UnavailableDelay)
        assert timeline.availability[1:, 2].sum() == 0

    def test_cluster_at_snapshots_share_communication_and_names(self, base):
        spec = DynamicClusterSpec(base, dynamics="drift")
        timeline = spec.materialize(4, np.random.default_rng(0))
        snapshot = timeline.cluster_at(2)
        assert snapshot.num_workers == base.num_workers
        assert snapshot.communication is base.communication
        assert [w.name for w in snapshot.workers] == [w.name for w in base.workers]

    def test_worker_spec_cache_reuses_frozen_specs(self, base):
        spec = DynamicClusterSpec(
            base, dynamics={"name": "markov", "p_slow": 0.0}
        )
        timeline = spec.materialize(3, np.random.default_rng(0))
        first = timeline.cluster_at(0).workers[0]
        again = timeline.cluster_at(1).workers[0]
        assert first is again

    def test_process_returning_wrong_length_raises(self, base):
        class Broken(DriftingDelay):
            def timeline(self, num_iterations, num_workers, rng=None):
                return np.ones((1, num_workers))

        spec = DynamicClusterSpec(base, dynamics=Broken())
        with pytest.raises(ConfigurationError, match=r"returned a \(1, 6\) factor block"):
            spec.materialize(5, np.random.default_rng(0))

    def test_timeline_shape_validation(self, base):
        with pytest.raises(ConfigurationError, match="matrix"):
            ClusterTimeline(base, np.ones((2, base.num_workers - 1)))
        with pytest.raises(ConfigurationError, match="matrix"):
            ClusterTimeline(base, np.ones(base.num_workers))

    def test_factors_must_be_positive_or_vacant(self, base):
        for bad in (0.0, -1.0, np.nan):
            factors = np.ones((2, base.num_workers))
            factors[1, 3] = bad
            with pytest.raises(ConfigurationError, match="positive"):
                ClusterTimeline(base, factors)
        factors = np.ones((2, base.num_workers))
        factors[1, 3] = np.inf
        assert ClusterTimeline(base, factors).availability.sum() == 2 * 6 - 1


#: Dynamics of the columnar-exactness matrix; ``churn`` is the scripted
#: event scenario of ``--dynamics churn``.
COLUMNAR_SCENARIOS = {
    "markov": {"name": "markov", "slowdown": 8.0, "p_slow": 0.2},
    "markov-slowdown-1": {"name": "markov", "slowdown": 1.0, "p_slow": 0.5},
    "drift": {"name": "drift", "final_factor": 3.0, "initial_factor": 0.7},
    "preempt": {"name": "preempt", "preempt_probability": 0.1},
    "churn": None,
}

COLUMNAR_BASES = {
    "homogeneous": lambda: ClusterSpec.homogeneous(
        6, ShiftedExponentialDelay(1.3, 0.07)
    ),
    "paper-fig5": lambda: ClusterSpec.paper_fig5_cluster(num_workers=10, num_fast=3),
}


class TestColumnarTimeline:
    @pytest.mark.parametrize("base_name", sorted(COLUMNAR_BASES))
    @pytest.mark.parametrize("scenario", sorted(COLUMNAR_SCENARIOS))
    def test_factor_form_equals_the_per_cell_models_form(self, scenario, base_name):
        base = COLUMNAR_BASES[base_name]()
        dynamics = COLUMNAR_SCENARIOS[scenario]
        spec = (
            dynamics_from_spec("churn:period=3,recovery=2", base, num_iterations=30)
            if dynamics is None
            else DynamicClusterSpec(base, dynamics=dynamics)
        )
        timeline = spec.materialize(30, np.random.default_rng(5))
        up = timeline.availability
        loads = 7 * np.arange(1, base.num_workers + 1)
        models = [worker.compute for worker in base.workers]
        offset, scale = ShiftedExponentialDelay.exponential_form(
            models, loads, np.where(up, timeline.factors, 1.0)
        )
        cells = [
            scale_delay(models[w], timeline.factors[t, w]) for t, w in np.argwhere(up)
        ]
        expected = ShiftedExponentialDelay.exponential_form(
            cells, np.broadcast_to(loads, up.shape)[up]
        )
        assert np.array_equal(offset[up], expected[0])
        assert np.array_equal(scale[up], expected[1])

    def test_scaled_parameters_are_checked_like_the_constructor(self):
        models = [ShiftedExponentialDelay(1e-300, 0.0), ShiftedExponentialDelay(1.0, 1e300)]
        with pytest.raises(ConfigurationError, match="straggling"):
            ShiftedExponentialDelay.exponential_form(models, [1, 1], np.array([[1e30, 1.0]]))
        with np.errstate(over="ignore"), pytest.raises(ConfigurationError, match="shift"):
            ShiftedExponentialDelay.exponential_form(models, [1, 1], np.array([[1.0, 1e10]]))
        with pytest.raises(ConfigurationError, match="positive"):
            ShiftedExponentialDelay.exponential_form(models, [1, 1], np.array([[np.nan, 1.0]]))

    def test_shared_instances_draw_like_one_worker_calls(self, base):
        sizes = []

        class Recording(MarkovModulatedDelay):
            def timeline(self, num_iterations, num_workers, rng=None):
                sizes.append(num_workers)
                self.generator = rng
                return super().timeline(num_iterations, num_workers, rng)

        shared = Recording(slowdown=4.0, p_slow=0.3)
        other = PreemptionModel(preempt_probability=0.3, recovery_iterations=2)
        # One instance on workers 0, 1 and 4, a second on 3 and 5, none on 2.
        mapping = {0: shared, 1: shared, 3: other, 4: shared, 5: other}
        spec = DynamicClusterSpec(base, dynamics=mapping, seed=11)
        timeline = spec.materialize(20)
        assert sizes == [2, 1]

        reference = np.random.default_rng(11)
        expected = np.ones((20, base.num_workers))
        for worker, process in sorted(mapping.items()):
            plain = MarkovModulatedDelay(4.0, 0.3) if process is shared else process
            expected[:, worker] = plain.timeline(20, 1, reference)[:, 0]
        assert np.array_equal(timeline.factors, expected)
        assert shared.generator.bit_generator.state == reference.bit_generator.state

    def test_models_and_snapshots_are_built_from_the_factors(self):
        base = ClusterSpec.paper_fig5_cluster(num_workers=8, num_fast=3)
        spec = DynamicClusterSpec(
            base,
            dynamics={"name": "markov", "slowdown": 3.0, "p_slow": 0.4},
            events=[ChurnEvent("preempt", 2, 1, 2), ChurnEvent("leave", 5, 4)],
        )
        timeline = spec.materialize(8, np.random.default_rng(1))
        assert np.isinf(timeline.factors).any() and (timeline.factors == 3.0).any()
        models = timeline.models
        for t in range(8):
            snapshot = timeline.cluster_at(t)
            for w, worker in enumerate(base.workers):
                model, factor = models[t][w], timeline.factors[t, w]
                assert snapshot.workers[w].compute is model
                if np.isinf(factor):
                    assert model is UNAVAILABLE
                else:
                    expected = scale_delay(worker.compute, factor)
                    assert type(model) is type(expected)
                    assert vars(model) == vars(expected)

"""Unit tests for the fault-injection subsystem (``repro.runtime.faults``)."""

import numpy as np
import pytest

from repro.cluster.dynamic import ChurnEvent, DynamicClusterSpec
from repro.cluster.spec import ClusterSpec
from repro.datasets.batching import make_batches
from repro.exceptions import ConfigurationError
from repro.runtime.faults import (
    FAULT_MODES,
    FaultSchedule,
    build_fault_schedule,
    ensure_injectable,
    is_injectable,
    plan_example_loads,
    validate_fault_mode,
)
from repro.schemes.bcc import BCCScheme
from repro.schemes.uncoded import UncodedScheme
from repro.stragglers.dynamics import WorkerProcess
from repro.stragglers.models import DeterministicDelay, ShiftedExponentialDelay


def small_cluster(num_workers: int = 4) -> ClusterSpec:
    return ClusterSpec.homogeneous(
        num_workers, ShiftedExponentialDelay(straggling=500.0, shift=0.001)
    )


class _UnregisteredProcess(WorkerProcess):
    """A process class deliberately absent from the registry."""

    def timeline(self, num_iterations, num_workers, rng=None):
        return np.ones((num_iterations, num_workers))


class TestValidateFaultMode:
    def test_accepts_known_modes(self):
        for mode in FAULT_MODES:
            assert validate_fault_mode(mode) == mode

    def test_rejects_unknown_mode(self):
        with pytest.raises(ConfigurationError, match="zombie"):
            validate_fault_mode("zombie")


class TestFaultSchedule:
    def test_shape_and_accessors(self):
        delays = np.array([[0.0, np.inf], [0.1, 0.2]])
        schedule = FaultSchedule(delays=delays)
        assert schedule.num_iterations == 2
        assert schedule.num_workers == 2
        assert schedule.is_absent(0, 1)
        assert not schedule.is_absent(1, 1)
        np.testing.assert_array_equal(schedule.active_counts, [1, 2])
        np.testing.assert_array_equal(schedule.worker_delays(0), [0.0, 0.1])

    def test_rejects_bad_shapes_and_values(self):
        with pytest.raises(ConfigurationError, match="matrix"):
            FaultSchedule(delays=np.zeros(3))
        with pytest.raises(ConfigurationError, match="at least one"):
            FaultSchedule(delays=np.zeros((0, 2)))
        with pytest.raises(ConfigurationError, match="non-negative"):
            FaultSchedule(delays=np.array([[-0.1]]))
        with pytest.raises(ConfigurationError, match="non-negative"):
            FaultSchedule(delays=np.array([[np.nan]]))

    def test_worker_index_validated(self):
        schedule = FaultSchedule(delays=np.zeros((2, 2)))
        with pytest.raises(ConfigurationError, match="worker index"):
            schedule.worker_delays(5)

    def test_delays_are_read_only(self):
        schedule = FaultSchedule(delays=np.zeros((2, 2)))
        with pytest.raises(ValueError):
            schedule.delays[0, 0] = 1.0

    def test_fingerprint_tracks_exact_bits(self):
        a = FaultSchedule(delays=np.array([[0.1, 0.2]]))
        b = FaultSchedule(delays=np.array([[0.1, 0.2]]))
        c = FaultSchedule(delays=np.array([[0.1, 0.2 + 1e-12]]))
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()


class TestInjectable:
    def test_static_cluster_is_injectable(self):
        assert is_injectable(small_cluster())

    def test_registered_dynamics_are_injectable(self):
        spec = DynamicClusterSpec(small_cluster(), dynamics="preempt", seed=0)
        ensure_injectable(spec)
        assert is_injectable(spec)

    def test_scripted_churn_is_injectable(self):
        spec = DynamicClusterSpec(
            small_cluster(),
            events=[ChurnEvent("leave", 1, 2)],
            initially_absent=[0],
        )
        assert is_injectable(spec)

    def test_unregistered_process_named_in_error(self):
        spec = DynamicClusterSpec(
            small_cluster(), dynamics=_UnregisteredProcess(), seed=0
        )
        with pytest.raises(ConfigurationError, match="_UnregisteredProcess"):
            ensure_injectable(spec)
        assert not is_injectable(spec)

    def test_non_cluster_rejected(self):
        with pytest.raises(ConfigurationError, match="ClusterSpec"):
            ensure_injectable("nope")


class TestPlanExampleLoads:
    def test_unit_loads_without_batching(self):
        plan = UncodedScheme().build_plan(8, 4)
        np.testing.assert_array_equal(plan_example_loads(plan), [2, 2, 2, 2])

    def test_batched_loads(self):
        plan = UncodedScheme().build_plan(4, 4)
        unit_spec = make_batches(10, 3)  # batches of 3,3,3,1
        loads = plan_example_loads(plan, unit_spec)
        assert loads.sum() == 10
        assert loads.shape == (4,)


class TestBuildFaultSchedule:
    def test_static_cluster_draws_per_cell(self):
        spec = ClusterSpec.homogeneous(3, DeterministicDelay(0.01))
        schedule = build_fault_schedule(
            spec, 4, loads=[2, 2, 2], include_communication=False, rng=0
        )
        assert schedule.num_iterations == 4
        assert schedule.num_workers == 3
        np.testing.assert_allclose(schedule.delays, 0.02)
        assert bool(schedule.availability.all())

    def test_zero_load_worker_draws_nothing(self):
        spec = ClusterSpec.homogeneous(2, DeterministicDelay(0.01))
        schedule = build_fault_schedule(
            spec, 2, loads=[0, 3], include_communication=False, rng=0
        )
        np.testing.assert_allclose(schedule.delays[:, 0], 0.0)
        np.testing.assert_allclose(schedule.delays[:, 1], 0.03)

    def test_deterministic_from_seed(self):
        spec = DynamicClusterSpec(small_cluster(), dynamics="preempt", seed=3)
        kwargs = dict(loads=[2, 2, 2, 2], include_communication=False)
        one = build_fault_schedule(spec, 6, rng=7, **kwargs)
        two = build_fault_schedule(spec, 6, rng=7, **kwargs)
        assert one.fingerprint() == two.fingerprint()

    def test_scripted_absence_becomes_inf(self):
        spec = DynamicClusterSpec(
            small_cluster(3),
            events=[ChurnEvent("leave", 1, 1)],
            initially_absent=[2],
        )
        schedule = build_fault_schedule(
            spec, 3, loads=[2, 2, 2], include_communication=False, rng=0
        )
        availability = schedule.availability
        assert bool(availability[0, 0]) and bool(availability[0, 1])
        assert not availability[1, 1] and not availability[2, 1]
        assert not availability[:, 2].any()

    def test_communication_component_needs_message_sizes(self):
        spec = ClusterSpec.homogeneous(2, DeterministicDelay(0.01))
        with pytest.raises(ConfigurationError, match="message_sizes"):
            build_fault_schedule(spec, 2, loads=[1, 1])

    def test_communication_component_adds_transfer_time(self):
        plan = BCCScheme(load=2).build_feasible_plan(4, 2, rng=0)
        spec = ClusterSpec.homogeneous(2, DeterministicDelay(0.01))
        bare = build_fault_schedule(
            spec, 2, loads=[2, 2], include_communication=False, rng=0
        )
        loaded = build_fault_schedule(
            spec, 2, loads=[2, 2], message_sizes=plan.message_sizes, rng=0
        )
        # The default communication model costs zero seconds, so the two
        # schedules agree; what matters is the path accepts message sizes.
        assert loaded.num_workers == bare.num_workers

    def test_length_mismatches_rejected(self):
        spec = ClusterSpec.homogeneous(2, DeterministicDelay(0.01))
        with pytest.raises(ConfigurationError, match="loads"):
            build_fault_schedule(spec, 2, loads=[1], include_communication=False)
        with pytest.raises(ConfigurationError, match="message_sizes"):
            build_fault_schedule(spec, 2, loads=[1, 1], message_sizes=[1.0])

    def test_unregistered_process_rejected(self):
        spec = DynamicClusterSpec(
            small_cluster(), dynamics=_UnregisteredProcess(), seed=0
        )
        with pytest.raises(ConfigurationError, match="_UnregisteredProcess"):
            build_fault_schedule(
                spec, 2, loads=[1, 1, 1, 1], include_communication=False
            )

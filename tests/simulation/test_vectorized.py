"""Equivalence tests: the vectorized engine vs the per-iteration loop.

The acceptance bar is *bit-identical* results at a fixed seed — not
approximate agreement — for every registered scheme, both master-link modes,
deterministic and stochastic communication models, and the scalar fallbacks
(mixed/unsupported delay models, custom aggregators). ``IterationOutcome``
is a frozen dataclass of floats and ints, so ``==`` over the iteration lists
compares every metric exactly; the summaries are compared with plain dict
equality for the same reason.
"""

import dataclasses
import pickle

import numpy as np
import pytest

from repro.cluster.spec import ClusterSpec
from repro.coding.cyclic_repetition import CyclicRepetitionCode
from repro.coding.linear_code import (
    DECODABLE,
    NOT_DECODABLE,
    UNDECIDED,
    LinearGradientCode,
    decodability_verdicts,
)
from repro.exceptions import ConfigurationError, SimulationError
from repro.schemes.base import (
    CodedAggregator,
    CodedRule,
    CountRule,
    CustomRule,
    ExecutionPlan,
    MasterAggregator,
)
from repro.schemes.bcc import BCCScheme
from repro.schemes.coded import CyclicRepetitionScheme
from repro.schemes.registry import available_schemes, scheme_from_config
from repro.schemes.uncoded import UncodedScheme
from repro.simulation.job import simulate_job
from repro.simulation.kernels import available_kernel_backends, get_suite
from repro.simulation import vectorized
from repro.simulation.vectorized import (
    ENGINES,
    _coded_kernel,
    _shared,
    resolve_engine,
    simulate_job_batch,
    simulate_job_vectorized,
)
from repro.stragglers.communication import (
    LinearCommunicationModel,
    ZeroCommunicationModel,
)
from repro.stragglers.models import (
    BimodalStragglerDelay,
    DeterministicDelay,
    ParetoDelay,
    ShiftedExponentialDelay,
    TraceDelay,
)

# One representative configuration per registered scheme. ``m`` is the unit
# count; coded schemes need m = n, the heterogeneous schemes derive their
# loads from the cluster.
SCHEME_MATRIX = {
    "uncoded": ({"name": "uncoded"}, 24),
    "bcc": ({"name": "bcc", "load": 4}, 24),
    "randomized": ({"name": "randomized", "load": 4}, 24),
    "ignore-stragglers": ({"name": "ignore-stragglers", "wait_fraction": 0.75}, 24),
    "cyclic-repetition": ({"name": "cyclic-repetition", "load": 3}, 12),
    "reed-solomon": ({"name": "reed-solomon", "load": 3}, 12),
    "fractional-repetition": ({"name": "fractional-repetition", "load": 3}, 12),
    "generalized-bcc": ({"name": "generalized-bcc"}, 24),
    "load-balanced": ({"name": "load-balanced"}, 24),
}

HETEROGENEOUS = {"generalized-bcc", "load-balanced"}


def make_cluster(name: str) -> ClusterSpec:
    if name in HETEROGENEOUS:
        return ClusterSpec.paper_fig5_cluster(
            num_workers=12,
            num_fast=2,
            communication=LinearCommunicationModel(latency=0.05, seconds_per_unit=0.02),
        )
    return ClusterSpec.homogeneous(
        12,
        ShiftedExponentialDelay(straggling=1.0, shift=0.01),
        LinearCommunicationModel(latency=0.05, seconds_per_unit=0.02),
    )


def run_both(config, cluster, num_units, *, seed=123, num_iterations=9, **kwargs):
    results, states = [], []
    for engine in (simulate_job, simulate_job_vectorized):
        generator = np.random.default_rng(seed)
        results.append(
            engine(
                scheme_from_config(config, cluster=cluster),
                cluster,
                num_units,
                num_iterations,
                rng=generator,
                **kwargs,
            )
        )
        states.append(generator.bit_generator.state)
    # Both engines leave the job generator in the same state: the "shared"
    # seed strategy threads it into the next task.
    assert states[0] == states[1]
    loop, vectorized = results
    return loop, vectorized


def sign_bits(result):
    """Each outcome's float fields' sign bits: ``==`` takes -0.0 for 0.0."""
    return np.signbit(
        [
            (o.total_time, o.computation_time, o.communication_time, o.communication_load)
            for o in result.iterations
        ]
    ).tolist()


def assert_identical(loop, vectorized):
    assert loop.summary() == vectorized.summary()  # exact float equality
    assert list(loop.iterations) == list(vectorized.iterations)
    assert sign_bits(loop) == sign_bits(vectorized)


class TestSchemeEquivalence:
    def test_matrix_covers_every_registered_scheme(self):
        assert sorted(SCHEME_MATRIX) == available_schemes(), (
            "a newly registered scheme must be added to the engine "
            "equivalence matrix"
        )

    @pytest.mark.parametrize("name", sorted(SCHEME_MATRIX))
    def test_serialized_link_identical(self, name):
        config, num_units = SCHEME_MATRIX[name]
        loop, vectorized = run_both(config, make_cluster(name), num_units)
        assert_identical(loop, vectorized)

    @pytest.mark.parametrize("name", sorted(SCHEME_MATRIX))
    def test_parallel_link_identical(self, name):
        config, num_units = SCHEME_MATRIX[name]
        loop, vectorized = run_both(
            config, make_cluster(name), num_units, serialize_master_link=False
        )
        assert_identical(loop, vectorized)

    @pytest.mark.parametrize("name", ["bcc", "uncoded", "fractional-repetition"])
    def test_stochastic_communication_identical(self, name, stochastic_case, block_draws):
        # Jitter makes transfer draws consume randomness, interleaved with
        # the compute draws. Shift-exponential workers take the exponential
        # block draw; every other sampler replays the per-iteration
        # interleave.
        config, num_units = SCHEME_MATRIX[name]
        cluster = stochastic_case.build(12)
        loop, vectorized = run_both(config, cluster, num_units)
        assert_identical(loop, vectorized)
        loop, vectorized = run_both(
            config, cluster, num_units, serialize_master_link=False
        )
        assert_identical(loop, vectorized)
        assert block_draws and set(block_draws) == {stochastic_case.block}

    @pytest.mark.parametrize("name", ["bcc", "uncoded", "fractional-repetition"])
    def test_jitter_free_link_identical(self, name, jitter_free_case, block_draws):
        # A jitter-free link draws nothing: shift-exponential workers take
        # the exponential block with one draw per value, every other
        # sampler the grid draw.
        config, num_units = SCHEME_MATRIX[name]
        cluster = jitter_free_case.build(12)
        for serialize in (True, False):
            loop, vectorized = run_both(
                config, cluster, num_units, serialize_master_link=serialize
            )
            assert_identical(loop, vectorized)
        assert block_draws and set(block_draws) == {jitter_free_case.block}

    @pytest.mark.parametrize("serialize", [True, False], ids=["serialized", "parallel"])
    def test_exactness_hazards_identical(self, exactness_hazard, serialize):
        # Arrival ties the completion order ranks larger worker first, and
        # communication loads np.sum adds pairwise (tests/conftest.py).
        for plan, cluster, num_units in exactness_hazard:
            loop, vectorized = (
                engine(
                    plan,
                    cluster,
                    num_units,
                    9,
                    rng=np.random.default_rng(123),
                    serialize_master_link=serialize,
                )
                for engine in (simulate_job, simulate_job_vectorized)
            )
            assert_identical(loop, vectorized)

    def test_unit_size_scales_identically(self):
        loop, vectorized = run_both(
            {"name": "bcc", "load": 4}, make_cluster("bcc"), 24, unit_size=50
        )
        assert_identical(loop, vectorized)


class TestDelayModelPaths:
    def test_deterministic_delays_and_ties(self):
        # Equal compute times everywhere: stresses stable tie-breaking in
        # both the completion sort and the serialized-link recurrence.
        cluster = ClusterSpec.homogeneous(
            8, DeterministicDelay(1.0), LinearCommunicationModel(seconds_per_unit=0.5)
        )
        loop, vectorized = run_both({"name": "uncoded"}, cluster, 16)
        assert_identical(loop, vectorized)

    def test_pareto_delays_identical(self):
        cluster = ClusterSpec.homogeneous(
            10, ParetoDelay(alpha=2.0, scale=0.5), ZeroCommunicationModel()
        )
        loop, vectorized = run_both({"name": "bcc", "load": 5}, cluster, 20)
        assert_identical(loop, vectorized)

    def test_trace_delays_identical(self):
        cluster = ClusterSpec.homogeneous(
            6, TraceDelay([0.1, 0.4, 0.9, 1.5]), ZeroCommunicationModel()
        )
        loop, vectorized = run_both({"name": "uncoded"}, cluster, 12)
        assert_identical(loop, vectorized)

    def test_bimodal_takes_scalar_grid_fallback_identically(self):
        # Bimodal interleaves two RNG calls per draw, so it has no batched
        # grid; the generic fallback must still match the loop exactly.
        cluster = ClusterSpec.homogeneous(
            6, BimodalStragglerDelay(), ZeroCommunicationModel()
        )
        loop, vectorized = run_both({"name": "bcc", "load": 4}, cluster, 12)
        assert_identical(loop, vectorized)

    def test_mixed_trace_delays_take_scalar_grid_fallback_identically(self):
        # Different per-worker traces defeat the shared-population batched
        # `choice`, so the engine must fall back to the generic scalar grid
        # — and still match the loop bit for bit, in both link modes and
        # with transfer draws interleaving (stochastic communication).
        from repro.cluster.spec import WorkerSpec

        traces = [
            [0.1, 0.4, 0.9],
            [0.2, 0.3, 0.5, 1.5],
            [0.05, 2.0],
            [1.0, 1.1, 1.2],
            [0.4, 0.4, 0.8],
            [0.6, 0.2],
        ]
        cluster = ClusterSpec(
            workers=tuple(
                WorkerSpec(compute=TraceDelay(trace), name=f"worker-{i}")
                for i, trace in enumerate(traces)
            ),
            communication=LinearCommunicationModel(
                latency=0.05, seconds_per_unit=0.02, jitter=0.01
            ),
        )
        for serialize in (True, False):
            loop, vectorized = run_both(
                {"name": "bcc", "load": 4},
                cluster,
                12,
                serialize_master_link=serialize,
            )
            assert_identical(loop, vectorized)

    def test_equal_but_distinct_trace_arrays_keep_the_native_grid(self):
        # Same per-example times in different array objects: the engine may
        # batch (np.array_equal check) and must still match the loop.
        from repro.cluster.spec import WorkerSpec

        cluster = ClusterSpec(
            workers=tuple(
                WorkerSpec(compute=TraceDelay([0.1, 0.4, 0.9, 1.5]), name=f"w{i}")
                for i in range(6)
            ),
            communication=ZeroCommunicationModel(),
        )
        loop, vectorized = run_both({"name": "uncoded"}, cluster, 12)
        assert_identical(loop, vectorized)

    def test_trace_grid_native_path_equals_generic_fallback(self):
        from repro.stragglers.base import DelayModel

        model = TraceDelay([0.1, 0.4, 0.9, 1.5, 2.2])
        models, loads = [model] * 3, [2, 3, 4]
        native = TraceDelay.sample_grid(models, loads, np.random.default_rng(0), 5)
        generic = DelayModel.sample_grid(models, loads, np.random.default_rng(0), 5)
        np.testing.assert_array_equal(native, generic)

    def test_mixed_model_cluster_identical(self):
        workers = ClusterSpec.homogeneous(3, ShiftedExponentialDelay(1.0)).workers
        from repro.cluster.spec import WorkerSpec

        mixed = ClusterSpec(
            workers=workers
            + (
                WorkerSpec(compute=ParetoDelay(alpha=3.0), name="pareto"),
                WorkerSpec(compute=DeterministicDelay(0.7), name="det"),
                WorkerSpec(compute=BimodalStragglerDelay(), name="bimodal"),
            ),
            communication=LinearCommunicationModel(seconds_per_unit=0.1),
        )
        loop, vectorized = run_both({"name": "uncoded"}, mixed, 12)
        assert_identical(loop, vectorized)


class TestSubclassedModelsStayExact:
    """Overriding sample() must force the scalar fallback, not a wrong batch."""

    def test_delay_subclass_overriding_sample_matches_loop(self):
        class DoubledDelay(ShiftedExponentialDelay):
            def sample(self, load, rng=None, size=None):
                return 2.0 * super().sample(load, rng=rng, size=size)

        from repro.cluster.spec import WorkerSpec

        cluster = ClusterSpec(
            workers=(
                WorkerSpec(compute=DoubledDelay(1.0)),
                WorkerSpec(compute=ShiftedExponentialDelay(1.0)),
                WorkerSpec(compute=DoubledDelay(2.0)),
                WorkerSpec(compute=ShiftedExponentialDelay(2.0)),
            ),
            communication=LinearCommunicationModel(seconds_per_unit=0.1),
        )
        loop, vectorized = run_both({"name": "uncoded"}, cluster, 8)
        assert_identical(loop, vectorized)
        # Only the subclass: the grid paths then dispatch on the subclass
        # itself, which must still not inherit the parent's formula.
        homogeneous = ClusterSpec.homogeneous(
            4, DoubledDelay(1.0), LinearCommunicationModel(seconds_per_unit=0.1)
        )
        loop, vectorized = run_both({"name": "uncoded"}, homogeneous, 8)
        assert_identical(loop, vectorized)

    def test_communication_subclass_overriding_sample_matches_loop(self):
        class NoisyLink(LinearCommunicationModel):
            def sample(self, message_size, rng=None, size=None):
                from repro.utils.rng import as_generator

                base = super().sample(message_size, rng=None, size=size)
                return base + as_generator(rng).exponential(0.5, size=size)

        noisy = NoisyLink(latency=0.1, seconds_per_unit=0.2)  # jitter == 0
        assert not noisy.is_deterministic
        cluster = ClusterSpec.homogeneous(
            8, ShiftedExponentialDelay(1.0), noisy
        )
        loop, vectorized = run_both({"name": "bcc", "load": 4}, cluster, 16)
        assert_identical(loop, vectorized)


class FirstEvenAggregator(MasterAggregator):
    """A stopping rule no kernel knows: wait for the first even-indexed worker."""

    def __init__(self):
        super().__init__()
        self._done = False

    def _accept(self, worker, message):
        if worker % 2 == 0:
            self._done = True
            return True
        return False

    def is_complete(self):
        return self._done

    def decode(self):  # pragma: no cover - timing-only tests
        raise NotImplementedError


class FirstEvenCountRule(CountRule):
    """A count rule's fields with another aggregator: only its exact type
    tells the engine that the count kernel does not apply."""

    def new_aggregator(self, plan):
        return FirstEvenAggregator()


class TestFallbackAndEdgeCases:
    @pytest.mark.parametrize(
        "completion",
        [CustomRule(FirstEvenAggregator, "sum"), FirstEvenCountRule(range(12))],
        ids=["custom", "subclass"],
    )
    def test_custom_aggregator_uses_scalar_fallback_identically(self, completion, monkeypatch):
        # Both engines must agree through the aggregator-driven fallback.
        scans = []
        fallback = vectorized._fallback_positions
        monkeypatch.setattr(
            vectorized, "_fallback_positions", lambda *args: scans.append(1) or fallback(*args)
        )
        base = UncodedScheme().build_plan(12, 12)
        plan = ExecutionPlan(
            scheme_name="first-even",
            num_units=12,
            unit_assignment=base.unit_assignment,
            message_sizes=base.message_sizes,
            completion=completion,
        )
        cluster = make_cluster("uncoded")
        loop = simulate_job(plan, cluster, 12, 9, rng=7)
        vectorized_result = simulate_job_vectorized(plan, cluster, 12, 9, rng=7)
        assert_identical(loop, vectorized_result)
        assert scans == [1]
        assert loop.average_recovery_threshold < 12  # not the count rule's

    def test_idle_workers_identical(self):
        # Explicit zero loads: idle workers never draw, never arrive.
        cluster = make_cluster("load-balanced")
        config = {"name": "load-balanced", "loads": [6, 0, 6, 0, 6, 0, 6, 0, 0, 0, 0, 0]}
        loop, vectorized = run_both(config, cluster, 24)
        assert_identical(loop, vectorized)
        assert set(loop.iterations[0].heard_workers) == {0, 2, 4, 6}

    def test_single_worker_single_iteration(self):
        cluster = ClusterSpec.homogeneous(1, ShiftedExponentialDelay(1.0))
        loop, vectorized = run_both(
            {"name": "uncoded"}, cluster, 5, num_iterations=1
        )
        assert_identical(loop, vectorized)

    def test_infeasible_plan_raises_like_the_loop(self):
        scheme = BCCScheme(load=5)
        missing = None
        for seed in range(200):
            plan = scheme.build_plan(20, 4, rng=seed)
            if not plan.can_ever_complete():
                missing = plan
                break
        assert missing is not None, "expected to find an infeasible placement"
        cluster = ClusterSpec.homogeneous(4, DeterministicDelay(1.0))
        with pytest.raises(SimulationError):
            simulate_job(missing, cluster, 20, 2, rng=0)
        with pytest.raises(SimulationError):
            simulate_job_vectorized(missing, cluster, 20, 2, rng=0)

    @pytest.mark.parametrize("required", [[0, 12], [-1, 3]], ids=["past-the-last", "negative"])
    def test_a_count_rule_naming_a_missing_worker_raises_like_the_loop(self, required):
        base = UncodedScheme().build_plan(12, 12)
        plan = ExecutionPlan(
            scheme_name="count",
            num_units=12,
            unit_assignment=base.unit_assignment,
            message_sizes=base.message_sizes,
            completion=CountRule(required),
        )
        cluster = ClusterSpec.homogeneous(12, DeterministicDelay(1.0))
        for engine in (simulate_job, simulate_job_vectorized):
            with pytest.raises(SimulationError):
                engine(plan, cluster, 12, 2, rng=0)

    def test_cluster_size_mismatch_raises(self):
        plan = UncodedScheme().build_plan(10, 5)
        cluster = ClusterSpec.homogeneous(4, DeterministicDelay(1.0))
        with pytest.raises(SimulationError):
            simulate_job_vectorized(plan, cluster, 10, 2, rng=0)

    @pytest.mark.parametrize("serialize", [True, False], ids=["serialized", "parallel"])
    def test_negative_zero_sizes_load_positive_zero(self, serialize):
        # -0.0 is integer-valued, so these loads take the running-sum path.
        # np.sum starts from +0.0, so the loop loads +0.0; a running sum of
        # -0.0s is -0.0, which == cannot tell apart, so compare sign bits.
        plan = dataclasses.replace(
            UncodedScheme().build_plan(12, 12), message_sizes=np.full(12, -0.0)
        )
        results = [
            engine(plan, make_cluster("uncoded"), 12, 9, rng=7, serialize_master_link=serialize)
            for engine in (simulate_job, simulate_job_vectorized)
        ]
        assert_identical(*results)
        loads = [[outcome.communication_load for outcome in r.iterations] for r in results]
        assert not np.signbit(loads).any()


def claiming(code, num_stragglers):
    """``code`` with a ``num_stragglers`` claim, which sets its checkpoints."""
    code.num_stragglers = num_stragglers
    return code


def block_coverage(n, blocks):
    """Worker ``w`` holds partition block ``w % blocks`` with coefficient one.

    The all-ones row lies in the span exactly when every block has arrived,
    a coupon collector: rows decode after varying numbers of arrivals.
    """
    width = n // blocks
    return np.kron(np.tile(np.eye(blocks), (width, 1)), np.ones((1, width)))


# Linear codes whose rows decode at assorted checkpoints. The claimed
# tolerance sets the first checkpoint at ``n - claim`` arrivals.
CHECKPOINT_CODES = {
    # A cyclic design tolerating 3 stragglers that claims 6: the first
    # checkpoints come before any row can decode, so rows land on a later one.
    "overstated": lambda n: claiming(
        LinearGradientCode(CyclicRepetitionCode(n, 3, seed=0).encoding_matrix), 6
    ),
    # Checked from the fourth arrival on, each row decodes once its blocks
    # are covered: at varying checkpoints.
    "coverage": lambda n: claiming(LinearGradientCode(block_coverage(n, 4)), n - 4),
    # Decodes only once every worker has reported: the last checkpoint.
    "identity": lambda n: claiming(LinearGradientCode(np.eye(n)), 6),
    # The all-ones row is never in the span: no checkpoint decodes.
    "zero-column": lambda n: claiming(
        LinearGradientCode(np.hstack([np.eye(n)[:, :-1], np.zeros((n, 1))])), 6
    ),
}


def counting(code):
    """The list that each ``code.is_decodable`` call appends to."""
    calls = []
    check = code.is_decodable
    code.is_decodable = lambda workers: calls.append(1) or check(workers)
    return calls


@pytest.fixture
def verdicts(monkeypatch):
    """Every verdict the engine's stacked certificate hands out, in order."""
    from repro.simulation import vectorized

    seen = []

    def spy(code, workers):
        found = decodability_verdicts(code, workers)
        seen.extend(found.tolist())
        return found

    monkeypatch.setattr(vectorized, "decodability_verdicts", spy)
    return seen


class TestLinearCodeWalk:
    """The walk to each row's first decodable checkpoint.

    The reference is a :class:`CodedAggregator` fed the row's arrivals in
    order — the loop engine's walk over the same checkpoints. A row-test is
    a verdict the stacked certificate decides, or an ``is_decodable`` call
    for a row it leaves undecided.
    """

    N = 16

    @staticmethod
    def kernel_ranks(code, check_every, active, order):
        rule = CodedRule(code, check_every)
        position_of_worker = np.full(code.num_workers, -1, dtype=int)
        position_of_worker[active] = np.arange(active.size)
        kernel = _coded_kernel(rule, active, position_of_worker, get_suite("numpy"))
        return kernel(np.argsort(order, axis=1), order)

    @staticmethod
    def walk(code, check_every, workers):
        """The row's completing rank and the aggregator's check count."""
        aggregator = CodedAggregator(code, check_every=check_every)
        for rank, worker in enumerate(workers):
            if aggregator.receive(int(worker), None):
                return rank, aggregator.decodability_checks
        return len(workers), aggregator.decodability_checks

    @pytest.mark.parametrize("check_every", [1, 2, 3])
    @pytest.mark.parametrize("name", sorted(CHECKPOINT_CODES))
    @pytest.mark.parametrize("idle", [None, 5], ids=["all-active", "one-idle"])
    def test_matches_the_sequential_walk(self, name, check_every, idle, verdicts):
        code = CHECKPOINT_CODES[name](self.N)
        calls = counting(code)
        active = np.delete(np.arange(self.N), [] if idle is None else [idle])
        rng = np.random.default_rng(check_every)
        order = np.argsort(rng.random((40, active.size)), axis=1)
        found = self.kernel_ranks(code, check_every, active, order)
        fallbacks = len(calls)
        walked = [self.walk(code, check_every, active[row]) for row in order]
        expected = [rank for rank, _ in walked]
        assert found.tolist() == expected
        certified = len(verdicts) - verdicts.count(UNDECIDED)
        assert certified + fallbacks == sum(checks for _, checks in walked)
        assert verdicts.count(UNDECIDED) == fallbacks
        if name == "coverage":
            assert len(set(expected)) > 2  # rows stop at varying checkpoints

    def test_a_row_decoding_at_the_first_checkpoint_costs_one_check(self, verdicts):
        # The service's cyclic cell: n = 50, s = 9, ten checkpoints, every
        # row decodable from its first 41 arrivals, the first checkpoint:
        # one stacked test certifies all 20 rows, with no lstsq.
        code = CyclicRepetitionCode(50, 9, seed=0)
        calls = counting(code)
        active = np.arange(50)
        order = np.argsort(np.random.default_rng(0).random((20, 50)), axis=1)
        found = self.kernel_ranks(code, 1, active, order)
        assert found.tolist() == [40] * 20
        assert verdicts == [DECODABLE] * 20
        assert calls == []

    def test_band_rows_reach_is_decodable(self, near_tolerance_job, verdicts):
        plan, cluster, num_units = near_tolerance_job
        calls = counting(plan.completion.code)
        simulate_job_vectorized(plan, cluster, num_units, 40, rng=1)
        assert set(verdicts) == {DECODABLE, NOT_DECODABLE, UNDECIDED}
        assert len(calls) == verdicts.count(UNDECIDED)

    def test_a_code_overriding_only_decoding_vector_keeps_the_walk(self, verdicts):
        class SolvedCode(LinearGradientCode):
            def decoding_vector(self, workers):
                return super().decoding_vector(workers)

        code = claiming(SolvedCode(CyclicRepetitionCode(self.N, 3, seed=0).encoding_matrix), 6)
        calls = counting(code)
        active = np.arange(self.N)
        order = np.argsort(np.random.default_rng(4).random((40, self.N)), axis=1)
        found = self.kernel_ranks(code, 1, active, order)
        kernel_checks = len(calls)
        walked = [self.walk(code, 1, active[row]) for row in order]
        assert found.tolist() == [rank for rank, _ in walked]
        assert verdicts == []
        assert kernel_checks == sum(checks for _, checks in walked)

    def test_an_overriding_code_walks_like_the_loop(self):
        # A code that overrides ``is_decodable`` is checked on every
        # arrival; the vectorized engine makes the loop aggregator's calls,
        # on the same worker lists, in the same order.
        class WalkedCode(LinearGradientCode):
            def is_decodable(self, workers):
                seen.append((type(workers), [(type(w), w) for w in workers]))
                return super().is_decodable(workers)

        class WalkedScheme(CyclicRepetitionScheme):
            def _build_code(self, num_workers, rng):
                return WalkedCode(CyclicRepetitionCode(num_workers, 3, seed=0).encoding_matrix)

        cluster = make_cluster("cyclic-repetition")
        calls = []
        results = []
        for engine in (simulate_job, simulate_job_vectorized):
            seen = []
            results.append(engine(WalkedScheme(load=4), cluster, 12, 9, rng=11))
            calls.append(seen)
        assert_identical(*results)
        assert calls[0] == calls[1]
        assert max(len(workers) for _, workers in calls[1]) > 6


class TestEngineKnob:
    def test_simulate_job_engine_dispatch(self):
        cluster = make_cluster("bcc")
        reference = simulate_job_vectorized(BCCScheme(4), cluster, 24, 6, rng=3)
        via_knob = simulate_job(BCCScheme(4), cluster, 24, 6, rng=3, engine="vectorized")
        assert_identical(reference, via_knob)

    def test_engine_names(self):
        assert set(ENGINES) == {"loop", "vectorized", "auto"}
        with pytest.raises(ConfigurationError):
            resolve_engine("warp")
        with pytest.raises(ConfigurationError):
            simulate_job(
                BCCScheme(4), make_cluster("bcc"), 24, 2, rng=0, engine="warp"
            )

    def test_auto_is_vectorized_and_loop_stays_selectable(self):
        assert resolve_engine("auto") == "vectorized"
        assert resolve_engine("vectorized") == "vectorized"
        assert resolve_engine("loop") == "loop"

    def test_auto_runs_the_tiniest_job_vectorized(self, monkeypatch):
        # One worker, one iteration: "auto" still takes the vectorized
        # engine, and the loop oracle agrees with it.
        from repro.simulation import vectorized

        entries = []
        entry = vectorized.simulate_job_vectorized

        def counting(*args, **kwargs):
            entries.append(1)
            return entry(*args, **kwargs)

        monkeypatch.setattr(vectorized, "simulate_job_vectorized", counting)
        cluster = ClusterSpec.homogeneous(1, ShiftedExponentialDelay(2.0, 0.1))
        auto = simulate_job(UncodedScheme(), cluster, 1, 1, rng=5, engine="auto")
        loop = simulate_job(UncodedScheme(), cluster, 1, 1, rng=5, engine="loop")
        assert entries == [1]
        assert_identical(loop, auto)

    def test_auto_batches_trials_of_the_tiniest_job(self):
        from repro.api import JobSpec, TimingSimBackend

        spec = JobSpec(
            scheme={"name": "uncoded"},
            cluster=ClusterSpec.homogeneous(1, ShiftedExponentialDelay(2.0, 0.1)),
            num_units=1,
            num_iterations=1,
            seed=0,
        )
        assert TimingSimBackend(engine="auto").supports_trial_batching(spec)
        assert not TimingSimBackend(engine="loop").supports_trial_batching(spec)

    def test_auto_equals_both_engines_anyway(self):
        cluster = make_cluster("uncoded")
        auto = simulate_job(UncodedScheme(), cluster, 24, 40, rng=5, engine="auto")
        loop = simulate_job(UncodedScheme(), cluster, 24, 40, rng=5, engine="loop")
        assert_identical(loop, auto)


class TestSharedLinkForm:
    def test_only_entries_with_one_bit_pattern_collapse(self):
        # A shared link form applies as scalars; -0.0 and 0.0 compare equal
        # but must not collapse, or a sign could change.
        shared = _shared(np.array([0.05, 0.05, 0.05]))
        assert shared.shape == () and shared == 0.05
        for values in ([0.05, 0.05, 0.06], [0.0, -0.0, 0.0]):
            assert _shared(np.array(values)).shape == (3,)


class TestKernelSuite:
    def test_numpy_is_the_only_backend(self):
        assert available_kernel_backends() == ("numpy",)
        assert get_suite("numpy").name == "numpy"
        for name in ("auto", "compiled", "NumPy"):
            with pytest.raises(ConfigurationError, match="unknown kernels backend"):
                get_suite(name)


class TestPlansAsValues:
    """A plan's completion rule is data: plans pickle, and the vectorized
    engine reads the rule instead of building aggregators."""

    @pytest.mark.parametrize("name", sorted(SCHEME_MATRIX))
    def test_a_pickled_plan_simulates_identically(self, name):
        config, num_units = SCHEME_MATRIX[name]
        cluster = make_cluster(name)
        scheme = scheme_from_config(config, cluster=cluster)
        plan = scheme.build_feasible_plan(num_units, cluster.num_workers, rng=5)
        restored = pickle.loads(pickle.dumps(plan))
        assert type(restored.completion) is type(plan.completion)
        assert restored.can_ever_complete() == plan.can_ever_complete()
        for engine in (simulate_job, simulate_job_vectorized):
            assert_identical(
                engine(plan, cluster, num_units, 9, rng=7),
                engine(restored, cluster, num_units, 9, rng=7),
            )

    def test_vectorized_sweeps_build_no_aggregator(self, monkeypatch):
        from repro.api import JobSpec, Sweep, run_sweep

        built = []
        init = MasterAggregator.__init__

        def spy(self):
            built.append(type(self).__name__)
            init(self)

        monkeypatch.setattr(MasterAggregator, "__init__", spy)
        for name, (config, num_units) in sorted(SCHEME_MATRIX.items()):
            spec = JobSpec(
                scheme=config,
                cluster=make_cluster(name),
                num_units=num_units,
                num_iterations=3,
                seed=0,
            )
            run_sweep(Sweep(spec, trials=3))
            # A passed plan takes the same kernels.
            plan = scheme_from_config(config, cluster=spec.cluster).build_feasible_plan(
                num_units, spec.cluster.num_workers, rng=0
            )
            simulate_job_batch(plan, spec.cluster, num_units, 3, seeds=[0, 1])
        assert built == []
        # The loop engine builds one per iteration: the spy sees them.
        simulate_job(plan, spec.cluster, num_units, 3, rng=0)
        assert len(built) == 3

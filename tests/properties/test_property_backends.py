"""Property-based cross-backend harness.

Hypothesis generates random *valid* :class:`~repro.api.JobSpec`\\ s — scheme x
delay model x link mode x communication model x cluster size — and asserts
the repository's strongest correctness oracle on every draw:

* the loop and vectorized timing engines are **bit-identical** (exact float
  equality of every per-iteration metric), on stationary and dynamic
  clusters alike;
* the closed-form analytic backend agrees with the vectorized engine —
  exactly on deterministic clusters, within a Monte-Carlo tolerance on
  shift-exponential ones;
* the trial-batched engine (:func:`simulate_job_batch`) returns, for every
  trial, exactly the result a solo vectorized run produces at that trial's
  spawned seed with the shared plan — the sweep fast path's correctness
  oracle, on stationary and dynamic clusters alike.

The CI job runs this suite under the ``ci`` Hypothesis profile (registered in
``tests/conftest.py``) with derandomized, reproducible example generation.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import JobSpec, TimingSimBackend, run
from repro.cluster.dynamic import ChurnEvent, DynamicClusterSpec
from repro.cluster.spec import ClusterSpec
from repro.exceptions import CoverageError, SimulationError
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

# --------------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------------- #
# Homogeneous schemes: config factory given (num_units, num_workers).
SCHEME_FACTORIES = {
    "uncoded": lambda m, n: {"name": "uncoded"},
    "bcc": lambda m, n: {"name": "bcc", "load": max(2, m // 4)},
    "randomized": lambda m, n: {"name": "randomized", "load": max(2, m // 2)},
    "ignore-stragglers": lambda m, n: {
        "name": "ignore-stragglers",
        "wait_fraction": 0.75,
    },
    "cyclic-repetition": lambda m, n: {"name": "cyclic-repetition", "load": 3},
    "reed-solomon": lambda m, n: {"name": "reed-solomon", "load": 3},
    "fractional-repetition": lambda m, n: {
        "name": "fractional-repetition",
        "load": 3,
    },
}

HETEROGENEOUS_FACTORIES = {
    "generalized-bcc": lambda m, n: {"name": "generalized-bcc"},
    "load-balanced": lambda m, n: {"name": "load-balanced"},
}


def delay_models(draw, kind: str, overrides=None):
    """One delay-model instance of the drawn kind."""
    if kind in ("shift-exponential", "subclassed"):
        mu = draw(st.floats(0.5, 5.0), label="straggling")
        shift = draw(st.floats(0.0, 0.5), label="shift")
        cls = ShiftedExponentialDelay if kind == "shift-exponential" else overrides[0]
        return cls(straggling=mu, shift=shift)
    if kind == "deterministic":
        return DeterministicDelay(draw(st.floats(0.01, 0.5), label="rate"))
    if kind == "pareto":
        return ParetoDelay(
            alpha=draw(st.floats(1.5, 4.0), label="alpha"),
            scale=draw(st.floats(0.01, 0.2), label="scale"),
        )
    if kind == "bimodal":
        return BimodalStragglerDelay(
            seconds_per_example=draw(st.floats(0.01, 0.2), label="spe"),
            straggle_probability=draw(st.floats(0.0, 0.4), label="p"),
        )
    trace = draw(
        st.lists(st.floats(0.01, 1.0), min_size=2, max_size=6), label="trace"
    )
    return TraceDelay(trace)


DELAY_KINDS = ("shift-exponential", "deterministic", "pareto", "bimodal", "trace")


def draw_communication(draw, overrides=None):
    """``overrides`` (delay class, link class) adds a subclassed jittered link."""
    choices = ["zero", "linear", "jittered"] + (["subclassed"] if overrides else [])
    choice = draw(st.sampled_from(choices), label="comm")
    if choice == "zero":
        return ZeroCommunicationModel()
    jitter = draw(st.floats(0.001, 0.05), label="jitter") if choice != "linear" else 0.0
    link = overrides[1] if choice == "subclassed" else LinearCommunicationModel
    return link(
        latency=draw(st.floats(0.0, 0.1), label="latency"),
        seconds_per_unit=draw(st.floats(0.0, 0.05), label="spu"),
        jitter=jitter,
    )


def draw_spec(draw, *, dynamic: bool, overrides=None) -> JobSpec:
    """A random valid timing JobSpec (optionally on a dynamic cluster).

    ``overrides`` (the ``sampler_overrides`` fixture) adds models whose
    ``sample`` overrides hide their streams from the engines.
    """
    kinds = DELAY_KINDS + (("subclassed",) if overrides else ())
    heterogeneous = draw(st.booleans(), label="heterogeneous")
    if heterogeneous:
        name = draw(st.sampled_from(sorted(HETEROGENEOUS_FACTORIES)), label="scheme")
        num_workers = draw(st.integers(6, 14), label="n")
        # Heterogeneous schemes derive loads from per-worker (mu, a) arrays;
        # the P2 allocation solver needs shifts bounded away from zero.
        stragglings = [
            draw(st.floats(0.5, 8.0), label=f"mu{i}") for i in range(num_workers)
        ]
        shifts = [
            draw(st.floats(0.05, 0.5), label=f"a{i}") for i in range(num_workers)
        ]
        base = ClusterSpec.shifted_exponential(
            stragglings, shifts, communication=draw_communication(draw, overrides)
        )
        factory = HETEROGENEOUS_FACTORIES[name]
        num_units = 2 * num_workers
    else:
        name = draw(st.sampled_from(sorted(SCHEME_FACTORIES)), label="scheme")
        if name == "fractional-repetition":
            # Load 3 partitions the workers into replication groups of 3.
            num_workers = draw(st.sampled_from([6, 9, 12]), label="n")
        else:
            num_workers = draw(st.integers(6, 14), label="n")
        kind = draw(st.sampled_from(kinds), label="delay")
        mixed = draw(st.booleans(), label="mixed")
        if mixed:
            models = [
                delay_models(
                    draw, draw(st.sampled_from(kinds), label=f"k{i}"), overrides
                )
                for i in range(num_workers)
            ]
            from repro.cluster.spec import WorkerSpec

            base = ClusterSpec(
                workers=tuple(
                    WorkerSpec(compute=model, name=f"worker-{i}")
                    for i, model in enumerate(models)
                ),
                communication=draw_communication(draw, overrides),
            )
        else:
            base = ClusterSpec.homogeneous(
                num_workers,
                delay_models(draw, kind, overrides),
                draw_communication(draw, overrides),
            )
        factory = SCHEME_FACTORIES[name]
        # Coded schemes need m == n; give the rest a bigger unit pool.
        if name in ("cyclic-repetition", "reed-solomon", "fractional-repetition"):
            num_units = num_workers
        else:
            num_units = 2 * num_workers

    cluster = base
    if dynamic:
        process = draw(
            st.sampled_from(
                [
                    {"name": "markov", "slowdown": 4.0, "p_slow": 0.2},
                    {"name": "drift", "final_factor": 3.0},
                    {"name": "preempt", "preempt_probability": 0.1,
                     "recovery_iterations": 2},
                ]
            ),
            label="process",
        )
        events = []
        if draw(st.booleans(), label="with_events"):
            events.append(
                ChurnEvent(
                    "preempt",
                    worker=draw(st.integers(0, num_workers - 1), label="victim"),
                    iteration=draw(st.integers(0, 3), label="when"),
                    recovery=2,
                )
            )
        cluster = DynamicClusterSpec(base, dynamics=process, events=tuple(events))

    return JobSpec(
        scheme=factory(num_units, num_workers),
        cluster=cluster,
        num_units=num_units,
        num_iterations=draw(st.integers(1, 6), label="iterations"),
        unit_size=draw(st.sampled_from([1, 2, 10]), label="unit_size"),
        serialize_master_link=draw(st.booleans(), label="serialize"),
        seed=draw(st.integers(0, 2**31 - 1), label="seed"),
    )


def run_engine(spec: JobSpec, engine: str):
    try:
        return ("completed", run(spec, TimingSimBackend(engine=engine)))
    except SimulationError:
        return ("raised", None)


# --------------------------------------------------------------------------- #
# Properties
# --------------------------------------------------------------------------- #
class TestLoopVectorizedBitIdentity:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_stationary_specs_are_bit_identical(self, data, sampler_overrides):
        spec = draw_spec(data.draw, dynamic=False, overrides=sampler_overrides)
        loop_status, loop = run_engine(spec, "loop")
        vec_status, vectorized = run_engine(spec, "vectorized")
        assert loop_status == vec_status
        if loop_status == "completed":
            assert loop.summary() == vectorized.summary()
            assert list(loop.iterations) == list(vectorized.iterations)

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_dynamic_specs_are_bit_identical(self, data, sampler_overrides):
        spec = draw_spec(data.draw, dynamic=True, overrides=sampler_overrides)
        loop_status, loop = run_engine(spec, "loop")
        vec_status, vectorized = run_engine(spec, "vectorized")
        assert loop_status == vec_status
        if loop_status == "completed":
            assert loop.summary() == vectorized.summary()
            assert list(loop.iterations) == list(vectorized.iterations)


class TestTrialBatchedBitIdentity:
    """simulate_job_batch slices == solo runs, over random valid JobSpecs."""

    @staticmethod
    def _assert_batch_matches_solo(spec: JobSpec, num_trials: int) -> None:
        from repro.simulation.vectorized import (
            simulate_job_batch,
            simulate_job_vectorized,
        )
        from repro.utils.rng import random_seed_sequence

        seeds = random_seed_sequence(spec.seed).spawn(num_trials)
        scheme = spec.resolve_scheme()
        try:
            batch = simulate_job_batch(
                scheme,
                spec.cluster,
                spec.resolved_num_units,
                spec.num_iterations,
                seeds,
                unit_size=spec.resolved_unit_size,
                serialize_master_link=spec.serialize_master_link,
            )
        except (SimulationError, CoverageError):
            batch = None
        # Every trial is a solo *scheme* run at its own seed: it builds its
        # own plan from that seed, then draws.
        solos = []
        failed = False
        for trial in range(num_trials):
            try:
                solos.append(
                    simulate_job_vectorized(
                        scheme,
                        spec.cluster,
                        spec.resolved_num_units,
                        spec.num_iterations,
                        np.random.default_rng(seeds[trial]),
                        unit_size=spec.resolved_unit_size,
                        serialize_master_link=spec.serialize_master_link,
                    )
                )
            except (SimulationError, CoverageError):
                failed = True
                break
        if batch is None:
            # The batch fails as one unit: some trial must fail solo too.
            assert failed
            return
        assert not failed
        for trial, solo in enumerate(solos):
            assert list(batch[trial].iterations) == list(solo.iterations)
            assert batch[trial].summary() == solo.summary()

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_stationary_trials_match_solo_runs(self, data, sampler_overrides):
        spec = draw_spec(data.draw, dynamic=False, overrides=sampler_overrides)
        num_trials = data.draw(st.integers(2, 4), label="trials")
        self._assert_batch_matches_solo(spec, num_trials)

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_dynamic_trials_match_solo_runs(self, data, sampler_overrides):
        spec = draw_spec(data.draw, dynamic=True, overrides=sampler_overrides)
        num_trials = data.draw(st.integers(2, 3), label="trials")
        self._assert_batch_matches_solo(spec, num_trials)


class TestAnalyticAgreesWithSimulation:
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_deterministic_clusters_agree_exactly(self, data):
        # With deterministic workers, a jitter-free link, and a scheme whose
        # stopping rule is deterministic (no random placement), the analytic
        # backend is exact, so the tolerance is numerical only. (BCC's
        # threshold is random through its placement; it is covered by the
        # tolerance-based cross-check below.)
        num_workers = data.draw(st.integers(6, 14), label="n")
        rate = data.draw(st.floats(0.01, 0.5), label="rate")
        cluster = ClusterSpec.homogeneous(
            num_workers,
            DeterministicDelay(rate),
            LinearCommunicationModel(
                latency=data.draw(st.floats(0.0, 0.1), label="latency"),
                seconds_per_unit=data.draw(st.floats(0.0, 0.05), label="spu"),
            ),
        )
        name = data.draw(
            st.sampled_from(["uncoded", "ignore-stragglers"]), label="scheme"
        )
        num_units = 2 * num_workers
        spec = JobSpec(
            scheme=SCHEME_FACTORIES[name](num_units, num_workers),
            cluster=cluster,
            num_units=num_units,
            num_iterations=3,
            unit_size=data.draw(st.sampled_from([1, 5]), label="unit_size"),
            serialize_master_link=data.draw(st.booleans(), label="serialize"),
            seed=data.draw(st.integers(0, 2**31 - 1), label="seed"),
        )
        analytic = run(spec, backend="analytic")
        simulated = run(spec, TimingSimBackend(engine="vectorized"))
        assert analytic.total_time == pytest.approx(
            simulated.total_time, rel=1e-6, abs=1e-9
        )
        assert analytic.average_recovery_threshold == pytest.approx(
            simulated.average_recovery_threshold, rel=1e-6
        )

    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_shift_exponential_clusters_agree_within_tolerance(self, data):
        # Monte-Carlo cross-check: the sample mean over enough iterations
        # must land near the closed form for any drawn parameters.
        num_workers = data.draw(st.integers(8, 16), label="n")
        cluster = ClusterSpec.homogeneous(
            num_workers,
            ShiftedExponentialDelay(
                straggling=data.draw(st.floats(0.5, 4.0), label="mu"),
                shift=data.draw(st.floats(0.1, 0.5), label="shift"),
            ),
            LinearCommunicationModel(
                latency=0.01,
                seconds_per_unit=data.draw(st.floats(0.0, 0.02), label="spu"),
            ),
        )
        name = data.draw(st.sampled_from(["uncoded", "bcc"]), label="scheme")
        num_units = 2 * num_workers
        base = JobSpec(
            scheme=SCHEME_FACTORIES[name](num_units, num_workers),
            cluster=cluster,
            num_units=num_units,
            num_iterations=1,
            unit_size=2,
            serialize_master_link=data.draw(st.booleans(), label="serialize"),
            seed=0,
        )
        analytic = run(base, backend="analytic")
        # Each job freezes one random placement; the analytic estimate
        # averages over placements, so the Monte-Carlo side averages several
        # independent jobs. The serialized-link closed form is a mean-field
        # approximation, hence the generous (but still drift-catching) bar.
        iterations, trials = 200, 4
        backend = TimingSimBackend(engine="vectorized")
        means = [
            run(
                base.replace(num_iterations=iterations, seed=10_000 + trial),
                backend,
            ).total_time
            / iterations
            for trial in range(trials)
        ]
        mean_simulated = float(np.mean(means))
        assert analytic.total_time == pytest.approx(mean_simulated, rel=0.35), (
            f"{name}: analytic {analytic.total_time:.4f} vs Monte-Carlo "
            f"{mean_simulated:.4f}"
        )

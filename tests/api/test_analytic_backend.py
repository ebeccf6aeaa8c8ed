"""AnalyticBackend behaviour plus the analytic-vs-simulation cross-validation.

The cross-validation grid pins the headline acceptance bar of the backend:
over the paper's parameter range (EC2-like homogeneous cluster, the Fig. 2 /
Fig. 4 scheme-and-load grid, both master-link modes, plus the Fig. 5-style
heterogeneous cluster) the closed-form expected runtimes agree with the
vectorized Monte-Carlo engine within 15 % relative error — and exactly where
the closed forms are exact (deterministic models, pure order statistics).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import (
    AnalyticBackend,
    JobSpec,
    Sweep,
    TimingSimBackend,
    available_backends,
    get_backend,
    run,
    run_sweep,
)
from repro.cluster.spec import ClusterSpec
from repro.exceptions import AnalyticIntractableError, ConfigurationError
from repro.experiments.ec2 import ec2_like_cluster
from repro.stragglers.communication import LinearCommunicationModel
from repro.stragglers.models import DeterministicDelay, ParetoDelay

#: Acceptance bar for analytic-vs-simulation agreement over the paper grid.
TOLERANCE = 0.15

#: Monte-Carlo iterations per cross-validation cell (vectorized engine).
CROSS_VALIDATION_ITERATIONS = 600


@pytest.fixture(scope="module")
def ec2_cluster():
    return ec2_like_cluster(50)


class TestBackendBasics:
    def test_registered_and_resolvable(self):
        assert "analytic" in available_backends()
        assert isinstance(get_backend("analytic"), AnalyticBackend)

    def test_run_result_shape(self, ec2_cluster):
        spec = JobSpec(
            scheme={"name": "bcc", "load": 10},
            cluster=ec2_cluster,
            num_units=50,
            num_iterations=25,
            unit_size=100,
            serialize_master_link=False,
        )
        result = run(spec, backend="analytic")
        assert result.backend == "analytic"
        assert result.num_iterations == 25
        assert result.total_time == pytest.approx(
            25 * result.iterations[0].total_time
        )
        summary = result.summary()
        for key in (
            "recovery_threshold",
            "communication_load",
            "communication_time",
            "computation_time",
            "total_time",
        ):
            assert key in summary
        quantiles = result.extras["analytic_quantiles"]
        assert list(quantiles) == [0.5, 0.9, 0.99]
        assert quantiles[0.5] <= quantiles[0.9] <= quantiles[0.99]
        totals = result.extras["analytic_total_quantiles"]
        assert totals[0.5] <= totals[0.9] <= totals[0.99]
        assert result.extras["analytic_variance"] >= 0.0
        assert result.extras["analytic_mode"] == "parallel"

    def test_constant_cost_in_the_iteration_budget(self, ec2_cluster):
        # The iteration log stands in for the whole budget without
        # materialising it: a hundred-million-iteration estimate must not
        # allocate per-iteration state, and its aggregates must stay exact.
        import pickle

        spec = JobSpec(
            scheme={"name": "bcc", "load": 10},
            cluster=ec2_cluster,
            num_units=50,
            num_iterations=100_000_000,
            unit_size=100,
            serialize_master_link=False,
        )
        result = run(spec, backend="analytic")
        assert result.num_iterations == 100_000_000
        per_iteration = result.iterations[0].total_time
        assert result.total_time == pytest.approx(100_000_000 * per_iteration)
        with pytest.raises(AttributeError, match="append"):
            result.iterations.append(result.iterations[0])
        restored = pickle.loads(pickle.dumps(result))
        assert restored.num_iterations == result.num_iterations
        assert restored.total_time == pytest.approx(result.total_time)

    def test_seed_does_not_matter(self, ec2_cluster):
        spec = JobSpec(
            scheme={"name": "bcc", "load": 10},
            cluster=ec2_cluster,
            num_units=50,
            num_iterations=5,
            unit_size=100,
        )
        first = run(spec, backend="analytic")
        second = run(spec.replace(seed=12345), backend="analytic")
        assert first.total_time == second.total_time
        assert first.average_recovery_threshold == second.average_recovery_threshold

    def test_quantile_levels_option(self, ec2_cluster):
        spec = JobSpec(
            scheme="uncoded",
            cluster=ec2_cluster,
            num_units=50,
            num_iterations=2,
            backend_options={"quantiles": (0.25, 0.75)},
        )
        result = run(spec, backend="analytic")
        assert list(result.extras["analytic_quantiles"]) == [0.25, 0.75]

    def test_unknown_option_raises(self, ec2_cluster):
        spec = JobSpec(
            scheme="uncoded",
            cluster=ec2_cluster,
            num_units=50,
            backend_options={"engine": "vectorized"},
        )
        with pytest.raises(ConfigurationError, match="analytic backend"):
            run(spec, backend="analytic")

    def test_requires_cluster(self):
        spec = JobSpec(scheme="uncoded", num_units=10)
        with pytest.raises(ConfigurationError, match="cluster"):
            run(spec, backend="analytic")

    def test_intractable_models_raise_typed_error(self):
        cluster = ClusterSpec.homogeneous(10, ParetoDelay())
        spec = JobSpec(scheme="uncoded", cluster=cluster, num_units=10)
        with pytest.raises(AnalyticIntractableError, match="ParetoDelay"):
            run(spec, backend="analytic")


class TestSweepSurfacing:
    def test_sweep_names_the_offending_cell(self):
        cluster = ClusterSpec.paper_fig5_cluster(num_workers=20, num_fast=2)
        base = JobSpec(
            scheme="load-balanced",
            cluster=cluster,
            num_units=60,
            serialize_master_link=True,  # heterogeneous + serialized: no closed form
        )
        sweep = Sweep(base, backend="analytic")
        with pytest.raises(AnalyticIntractableError, match="sweep cell"):
            run_sweep(sweep)

    def test_tractable_cells_run_through_the_sweep_engine(self, ec2_cluster):
        base = JobSpec(
            scheme={"name": "bcc", "load": 10},
            cluster=ec2_cluster,
            num_units=50,
            num_iterations=10,
            unit_size=100,
            serialize_master_link=False,
        )
        sweep = Sweep(
            base,
            parameters={"scheme.load": [5, 10, 25]},
            backend="analytic",
        )
        result = run_sweep(sweep)
        thresholds = [
            record.result.average_recovery_threshold for record in result.records
        ]
        # Larger load => fewer batches => smaller recovery threshold.
        assert thresholds == sorted(thresholds, reverse=True)


def _relative_error(analytic: float, simulated: float) -> float:
    return abs(analytic - simulated) / abs(simulated)


def _cross_validate(spec: JobSpec, tolerance: float = TOLERANCE) -> None:
    analytic = run(spec, backend="analytic")
    simulated = run(
        spec.replace(num_iterations=CROSS_VALIDATION_ITERATIONS, seed=0),
        backend=TimingSimBackend(engine="vectorized"),
    )
    mean_simulated = simulated.total_time / CROSS_VALIDATION_ITERATIONS
    mean_analytic = analytic.total_time / spec.num_iterations
    assert _relative_error(mean_analytic, mean_simulated) <= tolerance, (
        f"total time: analytic {mean_analytic:.5f} vs simulated "
        f"{mean_simulated:.5f}"
    )
    assert (
        _relative_error(
            analytic.average_recovery_threshold,
            simulated.average_recovery_threshold,
        )
        <= tolerance
    ), (
        f"recovery threshold: analytic {analytic.average_recovery_threshold:.3f} "
        f"vs simulated {simulated.average_recovery_threshold:.3f}"
    )


HOMOGENEOUS_GRID = [
    {"name": "uncoded"},
    {"name": "bcc", "load": 5},
    {"name": "bcc", "load": 10},
    {"name": "bcc", "load": 25},
    {"name": "randomized", "load": 10},
    {"name": "randomized", "load": 25},
    {"name": "cyclic-repetition", "load": 10},
    {"name": "reed-solomon", "load": 10},
    {"name": "fractional-repetition", "load": 10},
    {"name": "ignore-stragglers", "wait_fraction": 0.9},
]


class TestCrossValidation:
    """Analytic vs vectorized engine within 15 % over the paper's grid."""

    @pytest.mark.parametrize(
        "scheme", HOMOGENEOUS_GRID, ids=lambda cfg: f"{cfg['name']}-{cfg.get('load', '')}"
    )
    @pytest.mark.parametrize("serialize", [False, True], ids=["parallel", "serialized"])
    def test_paper_grid_homogeneous(self, ec2_cluster, scheme, serialize):
        _cross_validate(
            JobSpec(
                scheme=scheme,
                cluster=ec2_cluster,
                num_units=50,
                num_iterations=1,
                unit_size=100,
                serialize_master_link=serialize,
            )
        )

    @pytest.mark.parametrize(
        "scheme", [{"name": "load-balanced"}, {"name": "generalized-bcc"}]
    )
    def test_fig5_heterogeneous_cluster(self, scheme):
        cluster = ClusterSpec.paper_fig5_cluster(
            num_workers=50, num_fast=3, shift=5.0
        )
        _cross_validate(
            JobSpec(
                scheme=scheme,
                cluster=cluster,
                num_units=200,
                num_iterations=1,
                serialize_master_link=False,
            )
        )

    def test_exact_where_deterministic(self):
        # Deterministic workers and jitter-free transfers leave nothing to
        # approximate: analytic and simulated runs agree to float precision.
        cluster = ClusterSpec.homogeneous(
            10,
            DeterministicDelay(0.01),
            LinearCommunicationModel(latency=0.001, seconds_per_unit=0.002),
        )
        for scheme in ({"name": "uncoded"}, {"name": "cyclic-repetition", "load": 2}):
            for serialize in (False, True):
                spec = JobSpec(
                    scheme=scheme,
                    cluster=cluster,
                    num_units=10,
                    num_iterations=3,
                    serialize_master_link=serialize,
                )
                analytic = run(spec, backend="analytic")
                simulated = run(spec, backend="timing")
                assert analytic.total_time == pytest.approx(
                    simulated.total_time, rel=1e-9
                )
                assert analytic.average_recovery_threshold == pytest.approx(
                    simulated.average_recovery_threshold
                )

    def test_fig2_tradeoff_ordering_is_preserved(self):
        # The acceptance bar: the analytic backend reproduces the Fig. 2
        # ordering of the schemes' recovery thresholds at m = n = 100, r = 10
        # (lower bound < BCC < randomized < cyclic repetition < uncoded).
        cluster = ec2_like_cluster(100)
        thresholds = {}
        for scheme in (
            {"name": "bcc", "load": 10},
            {"name": "randomized", "load": 10},
            {"name": "cyclic-repetition", "load": 10},
            {"name": "uncoded"},
        ):
            spec = JobSpec(
                scheme=scheme,
                cluster=cluster,
                num_units=100,
                num_iterations=1,
                unit_size=100,
                serialize_master_link=False,
            )
            result = run(spec, backend="analytic")
            thresholds[scheme["name"]] = result.average_recovery_threshold
        assert 100 / 10 < thresholds["bcc"]
        assert thresholds["bcc"] < thresholds["randomized"]
        assert thresholds["randomized"] < thresholds["cyclic-repetition"]
        assert thresholds["cyclic-repetition"] < thresholds["uncoded"]
        assert thresholds["uncoded"] == pytest.approx(100.0)

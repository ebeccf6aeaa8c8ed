"""Tests for the churn ablation driver and the CLI ``--dynamics`` surface."""

import numpy as np
import pytest

from repro.cluster.dynamic import DynamicClusterSpec
from repro.cluster.spec import ClusterSpec
from repro.exceptions import AnalyticIntractableError, ConfigurationError
from repro.experiments.churn import (
    ChurnAblationConfig,
    available_dynamics,
    default_scenarios,
    dynamics_from_spec,
    run_churn_ablation,
)
from repro.experiments.cli import build_parser, main, run_cli_sweep
from repro.stragglers.dynamics import (
    DriftingDelay,
    MarkovModulatedDelay,
    PreemptionModel,
)
from repro.stragglers.models import ShiftedExponentialDelay


@pytest.fixture
def base() -> ClusterSpec:
    return ClusterSpec.homogeneous(8, ShiftedExponentialDelay(1.0, 0.05))


class TestDynamicsFromSpec:
    def test_bare_process_name(self, base):
        spec = dynamics_from_spec("markov", base)
        assert isinstance(spec, DynamicClusterSpec)
        assert all(
            isinstance(process, MarkovModulatedDelay)
            for process in spec._processes
        )

    def test_name_with_parameters(self, base):
        spec = dynamics_from_spec("drift:final_factor=5,initial_factor=2", base)
        process = spec._processes[0]
        assert isinstance(process, DriftingDelay)
        assert process.final_factor == pytest.approx(5.0)
        assert process.initial_factor == pytest.approx(2.0)

    def test_preempt_parameters(self, base):
        spec = dynamics_from_spec(
            "preempt:preempt_probability=0.5,recovery_iterations=4", base
        )
        process = spec._processes[0]
        assert isinstance(process, PreemptionModel)
        assert process.preempt_probability == pytest.approx(0.5)
        assert process.recovery_iterations == 4

    def test_churn_scenario_builds_a_schedule(self, base):
        spec = dynamics_from_spec("churn:period=5,recovery=2", base,
                                  num_iterations=20)
        kinds = sorted({event.kind for event in spec.events})
        assert kinds == ["leave", "preempt"]
        assert all(event.worker < base.num_workers for event in spec.events)

    def test_churn_scenario_needs_two_iterations(self, base):
        with pytest.raises(ConfigurationError, match="at least 2 iterations"):
            dynamics_from_spec("churn", base, num_iterations=1)

    def test_malformed_and_unknown_specs_raise(self, base):
        with pytest.raises(ConfigurationError, match="key=value"):
            dynamics_from_spec("markov:slowdown", base)
        with pytest.raises(ConfigurationError, match="unknown dynamics"):
            dynamics_from_spec("quake", base)
        with pytest.raises(ConfigurationError, match="does not accept"):
            dynamics_from_spec("churn:bogus=1", base)

    def test_available_dynamics_lists_processes_and_scenarios(self):
        names = available_dynamics()
        assert {"markov", "drift", "preempt", "churn"} <= set(names)


class TestChurnAblation:
    def test_small_ablation_reports_bcc_surviving_churn(self):
        config = ChurnAblationConfig(
            num_workers=12, num_units=12, unit_size=10, load=4,
            num_iterations=10, trials=2,
        )
        result = run_churn_ablation(config, rng=0)
        assert result.scenario_names[0] == "static"
        assert "bcc" in result.scheme_names
        # Static cells complete for every scheme.
        for scheme in result.scheme_names:
            assert result.completed("static", scheme), scheme
        # The scripted churn removes a worker for good: uncoded (zero
        # redundancy) cannot complete, the redundant schemes can.
        assert not result.completed("churn", "uncoded")
        assert result.completed("churn", "bcc")
        rendered = result.render()
        assert "FAILED" in rendered and "bcc" in rendered

    def test_speedup_helper_and_failure_guard(self):
        config = ChurnAblationConfig(
            num_workers=12, num_units=12, unit_size=10, load=4,
            num_iterations=8, trials=1,
        )
        result = run_churn_ablation(config, rng=1)
        speedup = result.speedup_over("static", "bcc", "uncoded")
        assert -5.0 < speedup < 1.0
        with pytest.raises(Exception):
            result.speedup_over("churn", "bcc", "uncoded")

    def test_deterministic_under_the_seed(self):
        config = ChurnAblationConfig(
            num_workers=10, num_units=10, unit_size=5, load=5,
            num_iterations=6, trials=1,
        )
        first = run_churn_ablation(config, rng=7)
        second = run_churn_ablation(config, rng=7)
        assert first.total_times == second.total_times

    def test_seed_sequence_seed_repeats_without_advancing(self):
        config = ChurnAblationConfig(
            num_workers=16, num_units=16, load=4, num_iterations=10, trials=2
        )
        sequence = np.random.SeedSequence(7)
        first = run_churn_ablation(config, rng=sequence)
        second = run_churn_ablation(config, rng=sequence)
        assert first.total_times == second.total_times
        assert sequence.n_children_spawned == 0

    def test_custom_scenarios_and_schemes(self, base):
        config = ChurnAblationConfig(
            num_workers=8, num_units=8, unit_size=5, load=4,
            num_iterations=5, trials=1,
        )
        result = run_churn_ablation(
            config,
            rng=0,
            schemes={"bcc": {"name": "bcc", "load": 4}},
            scenarios={"only": dynamics_from_spec("drift", base)},
        )
        assert result.scenario_names == ["only"]
        assert result.scheme_names == ["bcc"]
        assert result.completed("only", "bcc")


class TestCliDynamics:
    def test_sweep_dynamics_end_to_end(self):
        args = build_parser().parse_args(
            [
                "sweep", "--dynamics", "markov:slowdown=4,p_slow=0.2",
                "--scheme", "bcc", "--loads", "4",
                "--workers", "10", "--units", "10",
                "--iterations", "4", "--trials", "1",
            ]
        )
        table = run_cli_sweep(args)
        assert "dynamics=markov" in table
        assert "bcc" in table

    def test_sweep_dynamics_failed_cell_names_the_cell(self):
        from repro.exceptions import SimulationError

        # Uncoded cannot survive the churn scenario's permanent leave; the
        # sweep aborts, but the error must name the failing cell and cause.
        args = build_parser().parse_args(
            [
                "sweep", "--dynamics", "churn", "--scheme", "uncoded",
                "--loads", "4", "--workers", "10", "--units", "10",
                "--iterations", "20", "--trials", "1",
            ]
        )
        with pytest.raises(SimulationError, match="sweep cell.*uncoded"):
            run_cli_sweep(args)

    def test_sweep_dynamics_analytic_raises_typed_error(self):
        args = build_parser().parse_args(
            [
                "sweep", "--dynamics", "drift", "--backend", "analytic",
                "--scheme", "bcc", "--loads", "4",
                "--workers", "10", "--units", "10", "--iterations", "4",
            ]
        )
        with pytest.raises(AnalyticIntractableError):
            run_cli_sweep(args)

    def test_churn_subcommand_prints_the_ablation(self, capsys):
        exit_code = main(
            [
                "churn", "--workers", "12", "--units", "12",
                "--unit-size", "5", "--load", "4",
                "--iterations", "5", "--trials", "1",
            ]
        )
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Churn ablation" in out
        assert "bcc" in out

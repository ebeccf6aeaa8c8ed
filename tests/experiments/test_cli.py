"""Tests for the experiment CLI."""

import pytest

from repro.experiments.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["fig2"])
        assert args.experiment == "fig2"
        assert args.examples == 100
        assert args.workers == 100
        assert args.seed == 0

    def test_global_seed_flag(self):
        args = build_parser().parse_args(["--seed", "7", "fig5"])
        assert args.seed == 7

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig9"])


class TestMain:
    def test_fig2_prints_table(self, capsys):
        code = main(["fig2", "--examples", "20", "--workers", "20", "--trials", "0"])
        captured = capsys.readouterr().out
        assert code == 0
        assert "Fig. 2" in captured
        assert "bcc" in captured

    def test_table1_scaled_down(self, capsys):
        code = main(["table1", "--iterations", "5"])
        captured = capsys.readouterr().out
        assert code == 0
        assert "scenario-one" in captured
        assert "BCC speed-up vs uncoded" in captured

    def test_fig5_scaled_down(self, capsys):
        code = main(["fig5", "--examples", "60", "--trials", "20"])
        captured = capsys.readouterr().out
        assert code == 0
        assert "generalized BCC" in captured

    def test_theorem1(self, capsys):
        code = main(["theorem1", "--examples", "40", "--trials", "100"])
        captured = capsys.readouterr().out
        assert code == 0
        assert "Theorem 1" in captured

    def test_theorem2(self, capsys):
        code = main(["theorem2", "--examples", "40", "--trials", "40", "--workers", "20"])
        captured = capsys.readouterr().out
        assert code == 0
        assert "Theorem 2" in captured


class TestAnalyticPaths:
    """The closed-form flags of every rewired experiment driver."""

    def test_fig2_analytic_backend(self, capsys):
        code = main(
            ["fig2", "--examples", "20", "--workers", "20", "--trials", "1",
             "--backend", "analytic"]
        )
        captured = capsys.readouterr().out
        assert code == 0
        assert "(analytic)" in captured

    def test_table1_analytic_backend(self, capsys):
        code = main(["table1", "--iterations", "5", "--backend", "analytic"])
        captured = capsys.readouterr().out
        assert code == 0
        assert "scenario-one" in captured
        assert "BCC speed-up" in captured

    def test_theorem1_analytic_estimator(self, capsys):
        code = main(
            ["theorem1", "--examples", "40", "--trials", "10",
             "--estimator", "analytic"]
        )
        captured = capsys.readouterr().out
        assert code == 0
        assert "K_BCC analytic" in captured

    def test_theorem2_analytic_flag(self, capsys):
        code = main(
            ["theorem2", "--examples", "40", "--trials", "30", "--workers", "20",
             "--analytic"]
        )
        captured = capsys.readouterr().out
        assert code == 0
        assert "analytic generalized-BCC coverage time" in captured

    def test_sweep_analytic_backend(self, capsys):
        code = main(
            ["sweep", "--backend", "analytic", "--scheme", "bcc",
             "--loads", "5,10", "--workers", "20", "--units", "20",
             "--iterations", "50"]
        )
        captured = capsys.readouterr().out
        assert code == 0
        assert "analytic backend" in captured


class TestSweepCommand:
    def test_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.experiment == "sweep"
        assert args.schemes is None
        assert args.loads == [5, 10, 25]
        assert args.backend == "timing"
        assert args.parallel is None

    def test_loads_flag_parses_comma_list(self):
        args = build_parser().parse_args(["sweep", "--loads", "2,4,8"])
        assert args.loads == [2, 4, 8]

    def test_timing_sweep_prints_grid(self, capsys):
        code = main(
            [
                "sweep",
                "--scheme", "bcc",
                "--scheme", "uncoded",
                "--loads", "5,10",
                "--workers", "20",
                "--units", "20",
                "--iterations", "3",
                "--trials", "2",
            ]
        )
        captured = capsys.readouterr().out
        assert code == 0
        assert "Sweep — timing backend" in captured
        assert "bcc(load=5)" in captured
        assert "bcc(load=10)" in captured
        assert "uncoded" in captured
        assert "total_time" in captured

    def test_parallel_sweep_matches_serial(self, capsys):
        argv = [
            "sweep",
            "--scheme", "bcc",
            "--loads", "5,10",
            "--workers", "20",
            "--units", "20",
            "--iterations", "3",
            "--trials", "2",
        ]
        assert main(argv) == 0
        serial = capsys.readouterr().out
        assert main(argv + ["--parallel", "3"]) == 0
        parallel = capsys.readouterr().out
        assert parallel == serial

    def test_parallel_flag_runs_on_a_process_pool(self, monkeypatch, capsys):
        import repro.api.sweep as sweep_module
        from repro.scheduling import PoolExecutor, resolve_executor

        resolved = []

        def spy(executor, max_workers=None):
            runner = resolve_executor(executor, max_workers)
            resolved.append(runner)
            return runner

        monkeypatch.setattr(sweep_module, "resolve_executor", spy)
        argv = ["sweep", "--scheme", "bcc", "--loads", "5", "--workers", "20",
                "--units", "20", "--iterations", "3", "--trials", "2",
                "--parallel", "2"]
        assert main(argv) == 0
        capsys.readouterr()
        assert [type(runner) for runner in resolved] == [PoolExecutor]
        assert resolved[0].max_workers == 2

    @pytest.mark.parametrize(
        "flag", (["--nodes", "127.0.0.1:8123"], ["--executor", "thread"])
    )
    def test_removed_parallelism_flags_rejected(self, flag):
        # --parallel N is the one parallelism knob: a process pool of N.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", *flag])

    def test_semantic_sweep_reports_loss(self, capsys):
        code = main(
            [
                "sweep",
                "--backend", "semantic",
                "--scheme", "bcc",
                "--loads", "4",
                "--workers", "8",
                "--units", "8",
                "--unit-size", "5",
                "--iterations", "3",
                "--features", "10",
            ]
        )
        captured = capsys.readouterr().out
        assert code == 0
        assert "semantic backend" in captured
        assert "final_loss" in captured

    def test_engine_flag_default_and_choices(self):
        args = build_parser().parse_args(["sweep"])
        assert args.engine == "auto"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--engine", "warp"])

    def test_engine_choices_print_identical_tables(self, capsys):
        argv = [
            "sweep",
            "--scheme", "bcc",
            "--loads", "5",
            "--workers", "20",
            "--units", "20",
            "--iterations", "3",
            "--trials", "2",
        ]
        outputs = {}
        for engine in ("loop", "vectorized", "auto"):
            assert main(argv + ["--engine", engine]) == 0
            outputs[engine] = capsys.readouterr().out
        assert outputs["loop"] == outputs["vectorized"] == outputs["auto"]


class TestServeCommand:
    def test_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert (args.host, args.port) == ("127.0.0.1", 8123)
        assert args.cache is None
        assert args.max_workers is None
        assert args.budget is None
        assert not args.once
        assert not args.self_test

    def test_scripted_flags_parse(self):
        args = build_parser().parse_args(
            ["serve", "--port", "0", "--cache", "results", "--once",
             "--max-workers", "2", "--budget", "50"]
        )
        assert args.port == 0
        assert args.cache == "results"
        assert args.once
        assert (args.max_workers, args.budget) == (2, 50)

    def test_worker_mode_flag_removed(self):
        # A server only listens; there is no dial-out worker mode.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--join", "127.0.0.1:8123"])

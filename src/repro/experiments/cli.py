"""Command-line entry point for regenerating the paper's artefacts.

Usage::

    python -m repro.experiments.cli fig2
    python -m repro.experiments.cli table1 --iterations 100 --seed 0
    python -m repro.experiments.cli fig5 --trials 300
    python -m repro.experiments.cli theorem1
    python -m repro.experiments.cli theorem2
    python -m repro.experiments.cli sweep --scheme bcc --scheme uncoded \
        --loads 5,10,25 --workers 50 --units 50 --trials 3 --parallel 4 \
        --engine vectorized
    python -m repro.experiments.cli sweep --scheme bcc --loads 10 \
        --trials 256 --engine vectorized --trial-batching auto \
        --record summary
    python -m repro.experiments.cli sweep --dynamics markov:slowdown=8 \
        --scheme bcc --scheme cyclic-repetition --loads 10
    python -m repro.experiments.cli tune --workers 50 --loads 5,10,25 \
        --units 50,100 --top-k 5 --trials 8
    python -m repro.experiments.cli tune --quick --json
    python -m repro.experiments.cli churn --workers 20 --iterations 30
    python -m repro.experiments.cli validate --quick --no-append
    python -m repro.experiments.cli validate --scenario markov-bursts

Each sub-command runs the corresponding experiment driver at (scaled-down by
default, paper-scale via flags) settings and prints the reproduced table to
stdout. ``sweep`` is the generic front door: it builds a
:class:`~repro.api.JobSpec` grid over schemes and computational loads and
runs it through :func:`~repro.api.run_sweep` on the chosen backend. The
benchmark harness remains the canonical way to regenerate every artefact
with assertions; the CLI is for quick interactive runs.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.analysis.validation import (
    append_validation_record,
    golden_scenarios,
    validate_scenario,
)
from repro.api import JobSpec, Sweep, Workload, run_sweep
from repro.cluster.spec import ClusterSpec
from repro.devtools import cli as lint_cli
from repro.experiments.ec2 import ec2_like_cluster
from repro.schemes.registry import available_schemes, scheme_accepts
from repro.utils.timing import utc_timestamp

__all__ = [
    "build_parser",
    "main",
    "run_cli_sweep",
    "run_cli_tune",
    "run_cli_validate",
]


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser for the experiment CLI."""
    # Each paper experiment module loads inside the sub-command that runs
    # it; the parser lists the churn module's --dynamics vocabulary.
    from repro.experiments.churn import available_dynamics

    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the tables and figures of the BCC paper.",
    )
    parser.add_argument("--seed", type=int, default=0, help="random seed (default: 0)")
    subparsers = parser.add_subparsers(dest="experiment", required=True)

    fig2 = subparsers.add_parser("fig2", help="Fig. 2: recovery threshold vs load")
    fig2.add_argument("--examples", type=int, default=100, help="number of examples m")
    fig2.add_argument("--workers", type=int, default=100, help="number of workers n")
    fig2.add_argument(
        "--trials", type=int, default=20, help="Monte-Carlo trials per load (0 to skip)"
    )
    fig2.add_argument(
        "--backend",
        choices=("timing", "analytic"),
        default="timing",
        help=(
            "estimator for the cross-check columns: Monte-Carlo simulation "
            "(timing) or the closed-form analytic backend"
        ),
    )

    for name, help_text in (
        ("table1", "Table I: scenario one breakdown"),
        ("table2", "Table II: scenario two breakdown"),
    ):
        scenario = subparsers.add_parser(name, help=help_text)
        scenario.add_argument(
            "--iterations", type=int, default=100, help="GD iterations (default: 100)"
        )
        scenario.add_argument(
            "--backend",
            choices=("timing", "analytic"),
            default="timing",
            help="Monte-Carlo simulation or closed-form analytic breakdown",
        )

    fig5 = subparsers.add_parser("fig5", help="Fig. 5: heterogeneous LB vs generalized BCC")
    fig5.add_argument("--examples", type=int, default=500, help="number of examples m")
    fig5.add_argument("--trials", type=int, default=200, help="Monte-Carlo trials")

    theorem1 = subparsers.add_parser("theorem1", help="Theorem 1 validation")
    theorem1.add_argument("--examples", type=int, default=100)
    theorem1.add_argument("--trials", type=int, default=1000)
    theorem1.add_argument(
        "--estimator",
        choices=("monte-carlo", "analytic"),
        default="monte-carlo",
        help="cross-check column: sampled draws or the analytic backend",
    )

    theorem2 = subparsers.add_parser("theorem2", help="Theorem 2 validation")
    theorem2.add_argument("--examples", type=int, default=100)
    theorem2.add_argument("--trials", type=int, default=200)
    theorem2.add_argument("--workers", type=int, default=50)
    theorem2.add_argument(
        "--analytic",
        action="store_true",
        help="also print the closed-form coverage-time estimate",
    )

    sweep = subparsers.add_parser(
        "sweep", help="generic scheme/load sweep through the unified API"
    )
    sweep.add_argument(
        "--scheme",
        action="append",
        dest="schemes",
        metavar="NAME",
        help=(
            "scheme to include (repeatable); default: bcc and uncoded. "
            f"available: {', '.join(available_schemes())}"
        ),
    )
    sweep.add_argument(
        "--loads",
        type=lambda text: [int(part) for part in text.split(",") if part],
        default=[5, 10, 25],
        metavar="R1,R2,...",
        help="computational loads for the schemes that take one (default: 5,10,25)",
    )
    sweep.add_argument("--workers", type=int, default=50, help="cluster size n")
    sweep.add_argument("--units", type=int, default=50, help="data units m")
    sweep.add_argument(
        "--unit-size", type=int, default=100, help="examples per unit (default: 100)"
    )
    sweep.add_argument(
        "--iterations", type=int, default=20, help="GD iterations per run"
    )
    sweep.add_argument(
        "--trials", type=int, default=1, help="Monte-Carlo trials per configuration"
    )
    sweep.add_argument(
        "--backend",
        choices=("timing", "semantic", "analytic"),
        default="timing",
        help=(
            "timing-only simulation, semantic training under simulated time, "
            "or closed-form analytic expected runtimes (no simulation at all)"
        ),
    )
    sweep.add_argument(
        "--engine",
        choices=("loop", "vectorized", "auto"),
        default="auto",
        help=(
            "timing-engine for the timing backend: the Python per-iteration "
            "loop, the NumPy batch engine, or auto (the NumPy engine) "
            "(both produce identical results; ignored by --backend semantic)"
        ),
    )
    sweep.add_argument(
        "--dynamics",
        metavar="NAME[:k=v,...]",
        default=None,
        help=(
            "run the sweep on a dynamic cluster: a registered worker process "
            "with optional parameters (e.g. markov:slowdown=8,p_slow=0.1) or "
            "the scripted churn scenario; available: "
            f"{', '.join(available_dynamics())} (simulation backends only)"
        ),
    )
    sweep.add_argument(
        "--features",
        type=int,
        default=100,
        help="synthetic-dataset feature count for the semantic backend",
    )
    sweep.add_argument(
        "--parallel",
        type=int,
        default=None,
        metavar="N",
        help="run the sweep's tasks on N worker processes (default: serial)",
    )
    sweep.add_argument(
        "--record",
        choices=("full", "summary"),
        default="full",
        help=(
            "what each task ships back: the full per-iteration log or just "
            "aggregate statistics (identical tables, far less pickling "
            "under --parallel)"
        ),
    )
    sweep.add_argument(
        "--trial-batching",
        dest="trial_batching",
        choices=("auto", "never"),
        default="auto",
        help=(
            "dispatch whole cells as single trial-batched vectorized runs: "
            "'auto' batches every such cell (a two-trial cell only when its "
            "placement is draw-free) and re-draws random placements per "
            "trial (same tables as 'never'), 'never' keeps one task per "
            "(cell, trial)"
        ),
    )
    sweep.add_argument(
        "--cache",
        metavar="DIR",
        default=None,
        help=(
            "serve repeated cells from a content-addressed result cache "
            "persisted in DIR (summary-form results survive across runs; "
            "keys fingerprint the full spec + seed + backend identity)"
        ),
    )

    tune = subparsers.add_parser(
        "tune",
        help="recommend the best (scheme, m, unit_size) for a cluster profile",
        description=(
            "Two-stage scheme auto-tuner: score every candidate in the "
            "(scheme, load, m, unit_size) grid with the closed-form analytic "
            "oracle, prune to the top-k frontier, confirm the survivors with "
            "trial-batched Monte-Carlo simulation, and print the ranked "
            "recommendation with confidence intervals and the analytic-vs-"
            "simulated sanity ratio."
        ),
    )
    tune.add_argument(
        "--scheme",
        action="append",
        dest="schemes",
        metavar="NAME",
        help=(
            "candidate scheme (repeatable); default: every homogeneous-"
            f"cluster scheme. available: {', '.join(available_schemes())}"
        ),
    )
    tune.add_argument(
        "--loads",
        type=lambda text: [int(part) for part in text.split(",") if part],
        default=[5, 10, 25],
        metavar="R1,R2,...",
        help="computational loads tried for load-taking schemes (default: 5,10,25)",
    )
    tune.add_argument("--workers", type=int, default=50, help="cluster size n")
    tune.add_argument(
        "--units",
        type=lambda text: [int(part) for part in text.split(",") if part],
        default=[50],
        metavar="M1,M2,...",
        help="data-unit counts m to try (default: 50)",
    )
    tune.add_argument(
        "--unit-sizes",
        dest="unit_sizes",
        type=lambda text: [int(part) for part in text.split(",") if part],
        default=[100],
        metavar="U1,U2,...",
        help="examples-per-unit values to try (default: 100)",
    )
    tune.add_argument(
        "--iterations", type=int, default=20, help="GD iterations per candidate"
    )
    tune.add_argument(
        "--trials",
        type=int,
        default=8,
        help="Monte-Carlo trials per confirmed candidate (default: 8)",
    )
    tune.add_argument(
        "--top-k",
        dest="top_k",
        type=int,
        default=5,
        help="analytic frontier size confirmed by simulation (default: 5)",
    )
    tune.add_argument(
        "--budget",
        type=int,
        default=None,
        metavar="CELLS",
        help="hard cap on simulated candidates (default: uncapped)",
    )
    tune.add_argument(
        "--dynamics",
        metavar="NAME[:k=v,...]",
        default=None,
        help=(
            "confirm candidates on a dynamic cluster (analytic pruning then "
            "ranks the stationary base as a proxy); available: "
            f"{', '.join(available_dynamics())}"
        ),
    )
    tune.add_argument(
        "--engine",
        choices=("loop", "vectorized", "auto"),
        default="auto",
        help="timing engine for the confirmation stage",
    )
    tune.add_argument(
        "--confidence",
        type=float,
        default=0.95,
        help="confidence level of the reported intervals (default: 0.95)",
    )
    tune.add_argument(
        "--cache",
        metavar="DIR",
        default=None,
        help=(
            "run the confirmation stage through a result cache persisted in "
            "DIR (repeat tunes and later sweeps re-simulate nothing)"
        ),
    )
    tune.add_argument(
        "--quick",
        action="store_true",
        help=(
            "scaled-down smoke run (fewer trials/iterations, truncated "
            "grid) — exercises the pipeline, not the calibration"
        ),
    )
    tune.add_argument(
        "--json",
        dest="as_json",
        action="store_true",
        help="print the full machine-readable report instead of the table",
    )

    serve = subparsers.add_parser(
        "serve",
        help="run the async sweep service over line-delimited JSON on TCP",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument("--port", type=int, default=8123, help="TCP port")
    serve.add_argument(
        "--cache",
        metavar="DIR",
        default=None,
        help="persist the result cache's disk tier in DIR",
    )
    serve.add_argument(
        "--max-workers",
        type=int,
        default=None,
        metavar="N",
        help="concurrent task slots (default: unbounded)",
    )
    serve.add_argument(
        "--budget",
        type=int,
        default=None,
        metavar="CELLS",
        help="reject submissions spanning more than CELLS sweep cells",
    )
    serve.add_argument(
        "--once",
        action="store_true",
        help="exit after the first connection closes (scripted/CI use)",
    )
    serve.add_argument(
        "--self-test",
        dest="self_test",
        action="store_true",
        help=(
            "serve on an ephemeral port, submit the same sweep twice over "
            "TCP, and require the resubmission to be served from cache"
        ),
    )

    validate = subparsers.add_parser(
        "validate",
        help="cross-validate real multiprocess GD against the simulators",
        description=(
            "Run the pinned golden straggler scenarios on real worker "
            "processes with injected faults, replay the identical timeline "
            "through the timing simulator, and gate on the observed-vs-"
            "predicted runtime ratio per scheme. Appends a machine-readable "
            "record to the benchmark history and exits non-zero if any "
            "scheme lands outside the documented tolerance."
        ),
    )
    validate.add_argument(
        "--scenario",
        action="append",
        dest="scenarios",
        choices=[scenario.name for scenario in golden_scenarios()],
        help="scenario to run (repeatable; default: all golden scenarios)",
    )
    validate.add_argument(
        "--quick",
        action="store_true",
        help=(
            "scaled-down smoke run: fewer iterations and trials, doubled "
            "tolerance — checks the loop end-to-end, not the calibration"
        ),
    )
    validate.add_argument(
        "--bench",
        default="benchmarks/BENCH_sweep.json",
        help="benchmark history JSON to append to",
    )
    validate.add_argument(
        "--no-append",
        action="store_true",
        help="print the comparison tables without touching the history file",
    )

    lint = subparsers.add_parser(
        "lint",
        help="statically check the library's determinism/parity/exception contracts",
    )
    lint_cli.build_parser(lint)

    churn = subparsers.add_parser(
        "churn",
        help="dynamic-cluster ablation: BCC vs baselines under churn",
    )
    churn.add_argument("--workers", type=int, default=20, help="cluster size n")
    churn.add_argument("--units", type=int, default=20, help="data units m")
    churn.add_argument(
        "--unit-size", type=int, default=100, help="examples per unit"
    )
    churn.add_argument(
        "--load", type=int, default=5, help="computational load r of the coded schemes"
    )
    churn.add_argument(
        "--iterations", type=int, default=30, help="GD iterations per run"
    )
    churn.add_argument(
        "--trials", type=int, default=3, help="Monte-Carlo trials per cell"
    )
    churn.add_argument(
        "--engine",
        choices=("loop", "vectorized", "auto"),
        default="auto",
        help="timing engine (both produce identical results)",
    )

    return parser


def run_cli_sweep(args: argparse.Namespace) -> str:
    """Build and run the ``sweep`` sub-command's grid; return the table text."""
    scheme_names = args.schemes or ["bcc", "uncoded"]
    cluster = ec2_like_cluster(args.workers)
    dynamics_spec = getattr(args, "dynamics", None)
    if dynamics_spec:
        from repro.experiments.churn import dynamics_from_spec

        cluster = dynamics_from_spec(
            dynamics_spec, cluster, num_iterations=args.iterations
        )
    scheme_configs: List[dict] = []
    for name in scheme_names:
        if scheme_accepts(name, "load"):
            scheme_configs.extend(
                {"name": name, "load": load} for load in args.loads
            )
        else:
            scheme_configs.append({"name": name})

    workload = None
    if args.backend == "semantic":
        from repro.datasets.batching import make_batches
        from repro.datasets.synthetic import LogisticDataConfig, make_paper_logistic_data
        from repro.gradients.logistic import LogisticLoss
        from repro.optim.nesterov import NesterovAcceleratedGradient

        num_examples = args.units * args.unit_size
        dataset, _ = make_paper_logistic_data(
            LogisticDataConfig(num_examples=num_examples, num_features=args.features),
            seed=args.seed,
        )
        workload = Workload(
            model=LogisticLoss(),
            dataset=dataset,
            optimizer=NesterovAcceleratedGradient(0.3),
            unit_spec=make_batches(num_examples, args.unit_size),
        )

    base = JobSpec(
        scheme=scheme_configs[0],
        cluster=cluster,
        num_units=None if workload is not None else args.units,
        num_iterations=args.iterations,
        unit_size=None if workload is not None else args.unit_size,
        serialize_master_link=False,
        seed=args.seed,
        workload=workload,
    )
    if args.backend == "timing":
        from repro.api import TimingSimBackend

        backend = TimingSimBackend(engine=args.engine)
    else:
        # "semantic" and "analytic" resolve by name; --engine only steers the
        # timing backend.
        backend = args.backend
    sweep = Sweep(
        base,
        parameters={"scheme": scheme_configs},
        trials=args.trials,
        backend=backend,
    )
    result = run_sweep(
        sweep,
        max_workers=args.parallel,
        record=getattr(args, "record", "full"),
        trial_batching=getattr(args, "trial_batching", "auto"),
        cache=getattr(args, "cache", None),
    )
    dynamics_note = f", dynamics={dynamics_spec}" if dynamics_spec else ""
    table = result.to_table(
        title=(
            f"Sweep — {args.backend} backend, n={args.workers} workers, "
            f"m={args.units} units x {args.unit_size}, "
            f"{args.iterations} iterations, {args.trials} trial(s)"
            f"{dynamics_note}"
        ),
    )
    return table.render()


def run_cli_tune(args: argparse.Namespace) -> str:
    """Build and run the ``tune`` sub-command; return the rendered report."""
    from repro.tuning import TuneSpec, tune

    spec = TuneSpec(
        cluster=ec2_like_cluster(args.workers),
        schemes=None if not args.schemes else tuple(args.schemes),
        loads=tuple(args.loads),
        num_units=tuple(args.units),
        unit_sizes=tuple(args.unit_sizes),
        num_iterations=args.iterations,
        trials=args.trials,
        top_k=args.top_k,
        budget=args.budget,
        dynamics=args.dynamics,
        seed=args.seed,
        confidence=args.confidence,
        engine=args.engine,
    )
    if args.quick:
        spec = spec.quick()
    report = tune(spec, cache=args.cache)
    if args.as_json:
        return report.to_json()
    lines = [report.to_table().render()]
    if report.infeasible:
        lines.append("")
        lines.append("infeasible candidates:")
        lines.extend(
            f"  {label}: {reason}"
            for label, reason in report.infeasible.items()
        )
    if report.failures:
        lines.append("")
        lines.append("failed confirmations:")
        lines.extend(
            f"  {label}: {reason}" for label, reason in report.failures.items()
        )
    if report.ranking:
        best = report.best
        lines.append("")
        lines.append(
            f"recommendation: {best.candidate.label} at "
            f"m={best.candidate.num_units}, unit_size="
            f"{best.candidate.unit_size} "
            f"({best.simulated_seconds:.4f} s simulated mean; analytic "
            f"pruning simulated {report.pruning.get('simulated', 0)} of "
            f"{report.pruning.get('candidates', 0)} candidates)"
        )
    return "\n".join(lines)


def run_cli_validate(args: argparse.Namespace) -> int:
    """Run the ``validate`` sub-command; return a process exit code.

    Exit code 0 means every scheme of every requested scenario landed within
    its tolerance; 1 means at least one ratio fell outside the gate (the
    tables show which).
    """
    scenarios = {scenario.name: scenario for scenario in golden_scenarios()}
    names = args.scenarios or list(scenarios)
    failed = False
    for name in names:
        scenario = scenarios[name]
        if args.quick:
            scenario = scenario.quick()
        report = validate_scenario(scenario)
        print(report.to_table().render())
        print()
        if not args.no_append:
            append_validation_record(
                report, args.bench, timestamp=utc_timestamp(), quick=args.quick
            )
        if not report.all_within_tolerance:
            failed = True
    return 1 if failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    """Run one experiment and print its table; return a process exit code."""
    args = build_parser().parse_args(argv)

    if args.experiment == "lint":
        return lint_cli.run(args)
    if args.experiment == "validate":
        return run_cli_validate(args)
    if args.experiment == "fig2":
        from repro.experiments.fig2 import run_fig2

        result = run_fig2(
            num_examples=args.examples,
            num_workers=args.workers,
            monte_carlo_trials=args.trials,
            rng=args.seed,
            backend=args.backend,
        )
        print(result.render())
    elif args.experiment in ("table1", "table2"):
        from repro.experiments.fig4 import ScenarioConfig, run_scenario

        config = (
            ScenarioConfig.scenario_one()
            if args.experiment == "table1"
            else ScenarioConfig.scenario_two()
        )
        result = run_scenario(
            config,
            rng=args.seed,
            num_iterations=args.iterations,
            backend=args.backend,
        )
        print(result.render())
        print()
        print(
            "BCC speed-up vs uncoded: "
            f"{100 * result.speedup_over('bcc', 'uncoded'):.1f}%   "
            "vs cyclic repetition: "
            f"{100 * result.speedup_over('bcc', 'cyclic-repetition'):.1f}%"
        )
    elif args.experiment == "fig5":
        from repro.experiments.fig5 import run_fig5

        result = run_fig5(
            num_examples=args.examples, num_trials=args.trials, rng=args.seed
        )
        print(result.render())
    elif args.experiment == "theorem1":
        from repro.experiments.theorems import run_theorem1_validation

        validation = run_theorem1_validation(
            num_examples=args.examples,
            num_trials=args.trials,
            rng=args.seed,
            estimator=args.estimator,
        )
        print(validation.render())
    elif args.experiment == "theorem2":
        from repro.experiments.theorems import run_theorem2_validation

        cluster = ClusterSpec.paper_fig5_cluster(
            num_workers=args.workers, num_fast=max(args.workers // 20, 1), shift=5.0
        )
        validation = run_theorem2_validation(
            num_examples=args.examples,
            cluster=cluster,
            num_trials=args.trials,
            rng=args.seed,
            analytic=args.analytic,
        )
        print(validation.render())
    elif args.experiment == "sweep":
        print(run_cli_sweep(args))
    elif args.experiment == "tune":
        print(run_cli_tune(args))
    elif args.experiment == "serve":
        from repro.service.server import run_server, self_test

        if args.self_test:
            return self_test(args.host)
        return run_server(
            host=args.host,
            port=args.port,
            cache_dir=args.cache,
            max_workers=args.max_workers,
            cell_budget=args.budget,
            once=args.once,
        )
    elif args.experiment == "churn":
        from repro.experiments.churn import ChurnAblationConfig, run_churn_ablation

        ablation = run_churn_ablation(
            ChurnAblationConfig(
                num_workers=args.workers,
                num_units=args.units,
                unit_size=args.unit_size,
                load=args.load,
                num_iterations=args.iterations,
                trials=args.trials,
            ),
            rng=args.seed,
            engine=args.engine,
        )
        print(ablation.render())
    else:  # pragma: no cover - argparse enforces the choices
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

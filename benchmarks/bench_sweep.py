"""Benchmarks of the unified sweep engine.

Two pins:

1. ``test_sweep_parallel_matches_serial`` — the spawn seed strategy's
   determinism guarantee: a process pool produces byte-identical tables.
2. ``test_trial_batched_speedup`` — the trial-batched fast path: on a
   Fig. 2-sized sweep (m = n = 100, ten loads x {bcc, randomized}, 64
   trials) planning one fixed placement per cell and dispatching whole
   cells through the vectorized engine must be at least ``5x`` faster than
   per-trial execution, with every batched trial bit-identical to a solo
   run of its cell's plan at the same spawned seed.

The tests append their measurements to ``benchmarks/BENCH_sweep.json`` — a
machine-readable perf trajectory (one entry per run, newest last) that CI
and humans can diff across commits. Setting ``BENCH_SWEEP_QUICK=1`` shrinks
the workload for CI smokes and relaxes the speedup floor accordingly; the
identity assertions are never relaxed.
"""

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.analysis.validation import load_benchmark_history
from repro.api import JobSpec, Sweep, TimingSimBackend, run_sweep
from repro.cluster.spec import ClusterSpec
from repro.experiments.ec2 import ec2_like_cluster
from repro.simulation.vectorized import simulate_job_vectorized
from repro.stragglers.models import ExponentialDelay
from repro.utils.rng import random_seed_sequence

HISTORY_PATH = Path(__file__).resolve().parent / "BENCH_sweep.json"

QUICK = os.environ.get("BENCH_SWEEP_QUICK", "") not in ("", "0")

#: Speedup floor for the trial-batched path. The full-size run measures
#: 7-11x on one core; 5x is the acceptance floor. The quick (CI smoke)
#: workload is small enough that constant overheads bite, so its regression
#: guard is looser — it catches "the fast path stopped being fast", not
#: exact ratios.
SPEEDUP_FLOOR = 2.0 if QUICK else 5.0


def _append_history(entry: dict) -> None:
    """Append one run's measurements to the perf-trajectory artifact.

    A corrupt artifact must not fail the benchmark, but it must not be
    erased either: the shared loader backs it up to ``*.corrupt`` and
    warns (see :func:`repro.analysis.validation.load_benchmark_history`).
    """
    history = load_benchmark_history(HISTORY_PATH)
    entry = {"timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()), **entry}
    history["runs"].append(entry)
    HISTORY_PATH.write_text(json.dumps(history, indent=2) + "\n")


def _sweep() -> Sweep:
    base = JobSpec(
        scheme={"name": "bcc", "load": 10},
        cluster=ec2_like_cluster(50),
        num_units=50,
        num_iterations=30,
        unit_size=100,
        serialize_master_link=False,
        seed=0,
    )
    return Sweep(
        base,
        parameters={
            "scheme": [
                {"name": "bcc", "load": 5},
                {"name": "bcc", "load": 10},
                {"name": "bcc", "load": 25},
                {"name": "uncoded"},
                {"name": "cyclic-repetition", "load": 10},
            ]
        },
        trials=4,
    )


def test_sweep_parallel_matches_serial(benchmark, report):
    sweep = _sweep()

    serial_started = time.perf_counter()
    serial = run_sweep(sweep)
    serial_seconds = time.perf_counter() - serial_started

    parallel = benchmark.pedantic(
        lambda: run_sweep(sweep, max_workers=4, executor="process"),
        rounds=1,
        iterations=1,
    )
    parallel_seconds = benchmark.stats.stats.total

    serial_table = serial.to_table(title="Sweep — 5 schemes x 4 trials").render()
    parallel_table = parallel.to_table(title="Sweep — 5 schemes x 4 trials").render()
    assert parallel_table == serial_table

    report(
        "Sweep engine — serial vs 4-process parallel (identical tables)",
        serial_table,
        serial_seconds=serial_seconds,
        parallel_seconds=parallel_seconds,
    )
    _append_history(
        {
            "test": "sweep_parallel_matches_serial",
            "quick": QUICK,
            "serial_seconds": serial_seconds,
            "parallel_seconds": parallel_seconds,
        }
    )


def _fig2_sweep():
    """A Fig. 2-sized Monte-Carlo sweep: the trial-batching headline case.

    m = n = 100 exponential workers, single-iteration jobs, many trials per
    (load, scheme) cell — exactly the shape of the paper's recovery-threshold
    cross-checks, where per-trial overhead (planning, engine entry, result
    objects) dwarfs the single iteration each trial simulates.
    """
    trials = 16 if QUICK else 64
    loads = [5, 25, 50] if QUICK else list(range(5, 51, 5))
    cluster = ClusterSpec.homogeneous(100, ExponentialDelay(straggling=1.0))
    base = JobSpec(
        scheme={"name": "bcc", "load": 10},
        cluster=cluster,
        num_units=100,
        num_iterations=1,
        serialize_master_link=False,
        seed=0,
    )
    sweep = Sweep(
        base,
        parameters={"scheme.load": loads, "scheme.name": ["bcc", "randomized"]},
        trials=trials,
        backend=TimingSimBackend(engine="vectorized"),
    )
    return sweep, trials, loads


def _fixed_placement_sweep(sweep: Sweep) -> Sweep:
    """The sweep with one plan per cell, built from the cell's trial-0 child.

    Passed as the cells' schemes, each plan serves every trial of its cell
    (the engine shares a passed ``ExecutionPlan``), so the sweep plans
    once per cell instead of once per trial.
    """
    cells = sweep.cells()
    children = random_seed_sequence(sweep.base.seed).spawn(len(cells) * sweep.trials)
    plans = []
    for index, params in enumerate(cells):
        spec = sweep.base.with_overrides(params)
        generator = np.random.default_rng(children[index * sweep.trials])
        plans.append(
            spec.resolve_scheme().build_feasible_plan(
                spec.num_units, spec.cluster.num_workers, generator
            )
        )
    return Sweep(
        sweep.base,
        parameters={"scheme": plans},
        trials=sweep.trials,
        backend=sweep.backend,
    )


def _assert_batched_trials_match_solo(sweep: Sweep, batched) -> None:
    """Every batched trial of the first cell == a solo run of its cell's plan.

    The plan is built from the cell's trial-0 child; each trial runs it at a
    fresh generator of its own spawned seed (bit-identical).
    """
    cells = sweep.cells()
    children = random_seed_sequence(sweep.base.seed).spawn(len(cells) * sweep.trials)
    spec = sweep.base.with_overrides(cells[0])
    plan = spec.resolve_scheme().build_feasible_plan(
        spec.num_units, spec.cluster.num_workers, np.random.default_rng(children[0])
    )
    for trial in range(sweep.trials):
        solo = simulate_job_vectorized(
            plan,
            spec.cluster,
            spec.num_units,
            spec.num_iterations,
            np.random.default_rng(children[trial]),
            serialize_master_link=spec.serialize_master_link,
        )
        record = batched.records[trial]
        assert record.cell == 0 and record.trial == trial
        summary = dict(record.result.summary())
        summary.pop("backend", None)
        assert summary == solo.summary(), (
            f"batched trial {trial} diverged from its solo run"
        )


def test_trial_batched_speedup(benchmark, report):
    sweep, trials, loads = _fig2_sweep()

    per_trial_started = time.perf_counter()
    per_trial = run_sweep(sweep, trial_batching="never")
    per_trial_seconds = time.perf_counter() - per_trial_started

    # Planning is part of the timed call: one plan per cell.
    batched = benchmark.pedantic(
        lambda: run_sweep(_fixed_placement_sweep(sweep), record="summary"),
        rounds=1,
        iterations=1,
    )
    batched_seconds = benchmark.stats.stats.total
    speedup = per_trial_seconds / batched_seconds

    # Correctness before speed: the batched trials are bit-identical to solo
    # runs of their cell's plan at the same spawned seeds.
    _assert_batched_trials_match_solo(sweep, batched)

    table = batched.to_table(
        title=(
            f"Trial-batched sweep — {len(loads) * 2} cells x {trials} trials, "
            f"m=n=100 (speedup {speedup:.1f}x)"
        )
    ).render()
    report(
        f"Trial batching — per-trial {per_trial_seconds:.3f}s vs batched "
        f"{batched_seconds:.3f}s ({speedup:.1f}x, floor {SPEEDUP_FLOOR}x)",
        table,
        per_trial_seconds=per_trial_seconds,
        batched_seconds=batched_seconds,
        speedup=speedup,
    )
    _append_history(
        {
            "test": "trial_batched_speedup",
            "quick": QUICK,
            "cells": len(loads) * 2,
            "trials": trials,
            "per_trial_seconds": per_trial_seconds,
            "batched_seconds": batched_seconds,
            "speedup": speedup,
            "floor": SPEEDUP_FLOOR,
        }
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"trial-batched sweep regressed: {speedup:.2f}x < {SPEEDUP_FLOOR}x "
        f"(per-trial {per_trial_seconds:.3f}s, batched {batched_seconds:.3f}s)"
    )
    assert per_trial.num_cells == batched.num_cells == len(loads) * 2

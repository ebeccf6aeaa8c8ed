"""Benchmark of the content-addressed result cache and sweep service.

One pin, ``test_cached_resubmission_speedup``: resubmitting an identical
sweep through a :class:`~repro.service.cache.ResultCache` must be served
at least **95 %** from cache and run at least ``10x`` faster (the median
of ``WARM_ROUNDS`` resubmissions) than the first (computing) submission —
the "iterate on plots for free" promise of
:doc:`the service guide </service>`. Correctness comes first: the cached
records must equal the computed ones exactly, and a disk-tier reload
(fresh cache object, same directory — a new process, morally) must hit
and agree too.

Measurements append to ``benchmarks/BENCH_sweep.json`` — the same
machine-readable perf trajectory the sweep benchmarks feed (one entry per
run, newest last). ``BENCH_SWEEP_QUICK=1`` shrinks the workload for CI
smokes and relaxes the speedup floor; the hit-rate floor and the identity
assertions are never relaxed.
"""

import json
import os
import time
from pathlib import Path

from repro.analysis.validation import load_benchmark_history
from repro.api import JobSpec, Sweep, TimingSimBackend, run_sweep
from repro.experiments.ec2 import ec2_like_cluster
from repro.service import ResultCache

HISTORY_PATH = Path(__file__).resolve().parent / "BENCH_sweep.json"

QUICK = os.environ.get("BENCH_SWEEP_QUICK", "") not in ("", "0")

#: Wall-clock floor for a fully cached resubmission. A cache hit is a dict
#: lookup plus record assembly, so the full-size run measures hundreds of
#: times faster; 10x is the acceptance floor. The quick workload computes
#: so little that fixed overheads bite, hence the looser guard.
SPEEDUP_FLOOR = 3.0 if QUICK else 10.0

#: Fraction of a resubmission's tasks that must be cache hits. Never
#: relaxed: every task of an identical sweep is fingerprintable, so
#: anything below 1.0 would mean keys stopped being content-addressed.
HIT_RATE_FLOOR = 0.95

#: Cached resubmissions timed; their median is the warm time. One warm run
#: takes a few milliseconds, so a single slow sample on a loaded 2-vCPU
#: host could halve the measured speedup on its own.
WARM_ROUNDS = 5


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
    """A plot-iteration-shaped sweep: many cells, real per-cell cost."""
    iterations = 80 if QUICK else 400
    loads = [5, 10] if QUICK else [5, 10, 25, 50]
    workers = 20 if QUICK else 100
    base = JobSpec(
        scheme={"name": "bcc", "load": loads[0]},
        cluster=ec2_like_cluster(workers),
        num_units=workers,
        num_iterations=iterations,
        unit_size=100,
        serialize_master_link=False,
        seed=0,
    )
    configs = [{"name": "bcc", "load": load} for load in loads]
    configs += [{"name": "randomized", "load": load} for load in loads]
    configs.append({"name": "uncoded"})
    return Sweep(
        base,
        parameters={"scheme": configs},
        trials=2 if QUICK else 4,
        backend=TimingSimBackend(engine="vectorized"),
    )


def _records(result):
    return [(r.cell, r.trial, r.result) for r in result]


def test_cached_resubmission_speedup(benchmark, report, tmp_path):
    sweep = _sweep()
    cache = ResultCache(tmp_path)

    cold_started = time.perf_counter()
    cold = run_sweep(sweep, record="summary", cache=cache)
    cold_seconds = time.perf_counter() - cold_started
    stores = cache.stats.stores

    # Each warm round's own hit rate, so that a defect missing only in the
    # first resubmission cannot hide behind the hits of the rounds after it.
    round_hit_rates = []

    def resubmit():
        hits, misses = cache.stats.hits, cache.stats.misses
        result = run_sweep(sweep, record="summary", cache=cache)
        new_hits = cache.stats.hits - hits
        round_hit_rates.append(
            new_hits / max(new_hits + cache.stats.misses - misses, 1)
        )
        return result

    warm = benchmark.pedantic(resubmit, rounds=WARM_ROUNDS, iterations=1)
    warm_seconds = benchmark.stats.stats.median
    speedup = cold_seconds / warm_seconds
    hit_rate = min(round_hit_rates)

    # Correctness before speed: cached records equal computed records, and
    # a fresh cache over the same directory (a new process, morally) hits
    # from disk and agrees too.
    assert _records(warm) == _records(cold)
    reloaded = ResultCache(tmp_path)
    disk = run_sweep(sweep, record="summary", cache=reloaded)
    assert _records(disk) == _records(cold)
    assert reloaded.stats.misses == 0 and reloaded.stats.hits == stores

    table = warm.to_table(
        title=(
            f"Cached resubmission — {warm.num_cells} cells x {sweep.trials} "
            f"trials (speedup {speedup:.1f}x, hit rate {hit_rate:.0%} in the "
            f"worst of {WARM_ROUNDS} rounds)"
        )
    ).render()
    report(
        f"Result cache — cold {cold_seconds:.3f}s vs cached {warm_seconds:.3f}s "
        f"({speedup:.1f}x, floor {SPEEDUP_FLOOR}x; hit rate {hit_rate:.0%})",
        table,
        cold_seconds=cold_seconds,
        warm_seconds=warm_seconds,
        speedup=speedup,
        hit_rate=hit_rate,
    )
    _append_history(
        {
            "test": "cached_resubmission_speedup",
            "quick": QUICK,
            "cells": warm.num_cells,
            "trials": sweep.trials,
            "cold_seconds": cold_seconds,
            "warm_seconds": warm_seconds,
            "speedup": speedup,
            "hit_rate": hit_rate,
            "floor": SPEEDUP_FLOOR,
        }
    )
    assert hit_rate >= HIT_RATE_FLOOR, (
        f"resubmission hit only {hit_rate:.0%} of tasks in cache "
        f"(need >= {HIT_RATE_FLOOR:.0%})"
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"cached resubmission regressed: {speedup:.2f}x < {SPEEDUP_FLOOR}x "
        f"(cold {cold_seconds:.3f}s, cached {warm_seconds:.3f}s)"
    )

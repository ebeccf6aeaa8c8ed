#!/usr/bin/env python3
"""The end-to-end benchmark of record: four workloads, one command.

Run from the repository root (the script finds ``src/`` itself)::

    python3 benchmarks/e2e/run.py [--workload NAME ...] [--seed N]
        [--seconds S] [--trace [0|1]] [--quick] [--json OUT]
    python3 benchmarks/e2e/run.py compare A.json ... -- B.json ...
    python3 benchmarks/e2e/run.py pin

Each workload runs in fresh worker processes pinned to one core with
single-threaded math libraries (see ``workloads.py``). Every metric is
printed as ``workload metric value unit (n=samples)``; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics, or with ``--trace`` the
per-layer ones). Every result is checked against the digests pinned in
``expected.json`` (default seed) or for self-consistency (other seeds); the
command exits 1 when any check fails, and 2 without a result when the
library is missing. ``compare`` judges two sets of run records (``--json``
files or ``history.jsonl``) against the bounds in ``BENCHMARK.json``;
``pin`` regenerates ``expected.json``. See ``README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
OUT = HERE / "out"
EXPECTED = HERE / "expected.json"
HISTORY = HERE / "history.jsonl"

if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402 - after the path set-up above

SCHEMA_VERSION = 1
DEFAULT_SEED = 0
SETUP_LAUNCHES = 5
#: A run whose host reference loop drifts more than this is marked noisy.
NOISE_LIMIT = 0.05
WORKER_TIMEOUT = 150
SETUP_TIMEOUT = 60
#: Fewest parent/change run pairs on which ``compare`` can call a gain.
MIN_PAIRS = 10

#: The gated end-to-end metrics and their units (BENCHMARK.json ``end_to_end``).
E2E_METRICS = {"op_ms_p50": "ms", "peak_rss_mb": "MB", "setup_s": "s"}

#: Per-layer metrics on the result line of a ``--trace`` run (BENCHMARK.json
#: ``per_layer``): the ones every workload exercises. The layer times of
#: ``coding``, ``cluster``, ``kernels.link``, ``service`` and ``transport``
#: are printed too, but only some workloads reach those layers.
LAYER_METRICS = {
    "api.self_s": "s",
    "api.results": "count",
    "scheduling.plan_s": "s",
    "scheduling.self_s": "s",
    "scheduling.tasks": "count",
    "scheduling.batched_tasks": "count",
    "schemes.plan_s": "s",
    "schemes.plans": "count",
    "coding.decode_checks": "count",
    "stragglers.draw_s": "s",
    "stragglers.draw_calls": "count",
    "stragglers.values_drawn": "count",
    "cluster.materializations": "count",
    "simulation.self_s": "s",
    "simulation.entries": "count",
    "simulation.rows": "count",
    "kernels.completion_s": "s",
    "kernels.calls": "count",
    "kernels.bytes_computed": "B",
    "service.hits": "count",
    "service.misses": "count",
    "service.hit_ratio": "fraction",
    "service.disk_bytes": "B",
    "transport.bytes": "B",
    "tracing.overhead_frac": "fraction",
    "tracing.self_sum_frac": "fraction",
}


def metric_unit(name: str) -> str:
    """Units of the declared metrics, and of the printed-only ones by name:
    round-trip percentiles, layer times that only some workloads reach, and
    ``error_rate``."""
    declared = {**E2E_METRICS, **LAYER_METRICS}
    if name in declared:
        return declared[name]
    if "_ms_" in name:
        return "ms"
    return "s" if name.endswith("_s") else "fraction"


# ---------------------------------------------------------------------- #
# Processes
# ---------------------------------------------------------------------- #
def library_present() -> bool:
    """Whether ``src/repro`` sits next to the benchmark; says so if not."""
    if (SRC / "repro" / "__init__.py").is_file():
        return True
    print(f"run.py: the library is missing ({SRC / 'repro'} not found)", file=sys.stderr)
    return False


def prepare_environment() -> Tuple[int, int]:
    """Pin this process, set the child environment; returns (client, server) cores.

    Children inherit both: single-threaded math libraries, the library on
    ``PYTHONPATH``, and temporary files and compiled kernels under ``out/``.
    """
    cores = sorted(os.sched_getaffinity(0))
    client, server = cores[0], cores[1] if len(cores) > 1 else cores[0]
    os.sched_setaffinity(0, {client})
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    path = os.environ.get("PYTHONPATH")
    os.environ.update(
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""),
        TMPDIR=str(OUT / "tmp"),
        REPRO_KERNELS_CACHE=str(OUT / "kernels"),
    )
    return client, server


def setup_once(workload: str, seed: int, index: int, server_cpu: int) -> float:
    """One ``setup_s`` sample: a fresh interpreter up to its first result."""
    if workload == "service":
        return wl.service_setup(seed, index, server_cpu)
    start = time.perf_counter()
    process = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "_setup", workload, str(seed)],
        stdin=subprocess.DEVNULL,
        stdout=sys.stderr,
    )
    code = wait_exit(process, SETUP_TIMEOUT)
    elapsed = time.perf_counter() - start
    if code != 0:
        raise RuntimeError(f"set-up launch exited with code {code}")
    return elapsed


def wait_exit(process: subprocess.Popen, timeout: float) -> int:
    """Wait for a child's exit; killed on timeout.

    ``Popen.wait(timeout)`` polls with sleeps of up to 50 ms, which would
    quantise a sub-second timing; a pidfd wakes up the moment the child exits.
    """
    try:
        descriptor = os.pidfd_open(process.pid)
    except (AttributeError, OSError):
        return process.wait(timeout)
    try:
        ready, _, _ = select.select([descriptor], [], [], timeout)
    finally:
        os.close(descriptor)
    if not ready:
        process.kill()
        process.wait()
        raise subprocess.TimeoutExpired(process.args, timeout)
    return process.wait()


def run_worker(
    workload: str, seed: int, seconds: Optional[float], *, quick: bool, traced: bool, server_cpu: int
) -> dict:
    """One worker process; returns its result record."""
    count, budget, warmup = wl.rep_plan(workload, seconds, quick=quick, traced=traced)
    result = OUT / "tmp" / f"{workload}-{os.getpid()}-{'traced' if traced else 'plain'}.json"
    command = [
        sys.executable, str(HERE / "run.py"), "_worker", workload, str(seed),
        "--result", str(result), "--count", str(count), "--server-cpu", str(server_cpu),
    ]
    if budget is not None:
        command += ["--seconds", repr(budget)]
    if warmup:
        command.append("--warmup")
    if traced:
        command.append("--traced")
    try:
        done = subprocess.run(
            command, stdin=subprocess.DEVNULL, stdout=sys.stderr, timeout=WORKER_TIMEOUT
        )
        if done.returncode != 0:
            raise RuntimeError(f"worker exited with code {done.returncode}")
        return json.loads(result.read_text())
    finally:
        result.unlink(missing_ok=True)


def worker_main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(prog="run.py _worker")
    parser.add_argument("workload", choices=wl.WORKLOADS)
    parser.add_argument("seed", type=int)
    parser.add_argument("--result", required=True)
    parser.add_argument("--count", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--warmup", action="store_true")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--server-cpu", type=int, required=True)
    args = parser.parse_args(argv)
    options = dict(count=args.count, seconds=args.seconds, warmup=args.warmup)
    tracing = contextlib.nullcontext()
    if args.traced:
        from tracer import Tracer

        tracing = Tracer()
    with tracing as tracer:
        if args.workload == "service":
            result = wl.run_service(args.seed, server_cpu=args.server_cpu, tracer=tracer, **options)
        else:
            result = wl.run_batch(args.workload, args.seed, tracer=tracer, **options)
    Path(args.result).write_text(json.dumps(result))
    return 0


def setup_main(argv: Sequence[str]) -> int:
    workload, seed = argv
    wl.batch_setup(workload, int(seed))
    return 0


# ---------------------------------------------------------------------- #
# Checks and metrics
# ---------------------------------------------------------------------- #
def load_expected(seed: int) -> dict:
    if seed != DEFAULT_SEED or not EXPECTED.is_file():
        return {}
    return json.loads(EXPECTED.read_text())


def check_ops(workload: str, ops: List[dict], expected: dict) -> List[str]:
    """Mark each failed op (``op["failed"] = True``); returns the reasons."""
    reasons = []

    def fail(op: dict, reason: str) -> None:
        op["failed"] = True
        reasons.append(f"{op['kind']} {op.get('block', '')}{op['index']}: {reason}")

    if workload == "service":
        pinned = expected.get("service", {}).get("cold", [])
        cold = {}
        for op in ops:
            if op["error"] is None and op["kind"] == "cold":
                cold[(op["block"], op["index"])] = op["digest"]
        for op in ops:
            if op["error"] is not None:
                fail(op, op["error"])
            elif op["kind"] == "warm" and op["digest"] != cold.get((op["block"], op["index"])):
                fail(op, "warm response differs from the cold response")
            elif (
                op["kind"] == "cold"
                and op["block"] == "timed"
                and op["index"] < len(pinned)
                and op["digest"] != pinned[op["index"]]
            ):
                fail(op, "records differ from the pinned digest")
        return reasons
    reference = expected.get("batch", {}).get(workload)
    if reference is None:
        reference = next((op["digest"] for op in ops if op["error"] is None), None)
    for op in ops:
        if op["error"] is not None:
            fail(op, op["error"])
        elif op["digest"] != reference:
            fail(op, "aggregate differs from the " + ("pinned digest" if expected else "first rep"))
    return reasons


def quantile(values: Sequence[float], q: int) -> float:
    """The q-th percentile (interpolated); the value itself for one sample."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def op_walls(workload: str, ops: List[dict]) -> Dict[str, List[float]]:
    """Timed wall samples in seconds: ``op``, and for service ``cold``/``warm``."""
    timed = [op for op in ops if op["kind"] != "warmup" and op.get("block") != "warmup"]
    good = [op for op in timed if not op.get("failed")]
    if workload != "service":
        return {"op": [op["wall"] for op in good]}
    sessions: Dict[int, List[float]] = {}
    for op in good:
        sessions.setdefault(op["index"], []).append(op["wall"])
    return {
        "op": [sum(walls) for walls in sessions.values() if len(walls) == 1 + wl.WARM_REPLAYS],
        "cold": [op["wall"] for op in good if op["kind"] == "cold"],
        "warm": [op["wall"] for op in good if op["kind"] == "warm"],
    }


def metric(value: float, n: int, name: str) -> dict:
    return {"value": value, "unit": metric_unit(name), "n": n}


def e2e_metrics(workload: str, setup: List[float], run: dict) -> Dict[str, dict]:
    walls = op_walls(workload, run["ops"])
    metrics: Dict[str, dict] = {}
    if setup:
        metrics["setup_s"] = metric(statistics.median(setup), len(setup), "setup_s")
    metrics["peak_rss_mb"] = metric(run["peak_rss_mb"], 1, "peak_rss_mb")
    if walls["op"]:
        metrics["op_ms_p50"] = metric(statistics.median(walls["op"]) * 1e3, len(walls["op"]), "op_ms_p50")
    for kind in ("cold", "warm"):
        samples = walls.get(kind)
        if samples:
            for q in (50, 90):
                name = f"{kind}_rtt_ms_p{q}"
                metrics[name] = metric(quantile(samples, q) * 1e3, len(samples), name)
    return metrics


def layer_summary(workload: str, traced: dict, untraced: dict) -> Dict[str, dict]:
    """Mean per-operation layer metrics of a traced pass, plus tracing overheads.

    Service operations are sessions (a cold request and its warm replays);
    ``.cold``/``.warm`` variants give the per-request means.
    """
    entries = traced["layer_ops"]
    if not entries:
        return {}
    groups: Dict[str, List[dict]] = {"": []}
    if workload == "service":
        sessions: Dict[str, List[dict]] = {}
        for entry in entries:
            block, session, kind = entry["op"].split(".")
            sessions.setdefault(f"{block}.{session}", []).append(entry)
            groups.setdefault("." + kind.rstrip("0123456789"), []).append(entry)
        groups[""] = [
            {
                "wall_s": sum(e["wall_s"] for e in members),
                "metrics": {
                    name: sum(e["metrics"][name] for e in members)
                    for name in members[0]["metrics"]
                },
            }
            for members in sessions.values()
            if len(members) == 1 + wl.WARM_REPLAYS
        ]
    else:
        groups[""] = entries
    summary: Dict[str, dict] = {}
    for suffix, members in groups.items():
        if not members:
            continue
        names = [name for name in members[0]["metrics"] if name != "tracing.self_sum_s"]
        for name in names:
            mean = statistics.fmean(e["metrics"][name] for e in members)
            summary[name + suffix] = metric(mean, len(members), name)
        self_sum = statistics.fmean(e["metrics"]["tracing.self_sum_s"] for e in members)
        wall = statistics.fmean(e["wall_s"] for e in members)
        summary["tracing.self_sum_frac" + suffix] = metric(self_sum / wall, len(members), "tracing.self_sum_frac")
    # A session's hit ratio is its hits over its lookups, not a sum of ratios.
    hits, misses = summary["service.hits"]["value"], summary["service.misses"]["value"]
    summary["service.hit_ratio"]["value"] = hits / (hits + misses) if hits + misses else 0.0
    traced_walls = op_walls(workload, traced["ops"])["op"]
    plain_walls = op_walls(workload, untraced["ops"])["op"]
    if traced_walls and plain_walls:
        overhead = statistics.median(traced_walls) / statistics.median(plain_walls) - 1
        summary["tracing.overhead_frac"] = metric(overhead, len(traced_walls), "tracing.overhead_frac")
    return summary


# ---------------------------------------------------------------------- #
# One workload
# ---------------------------------------------------------------------- #
def measure(workload: str, args: argparse.Namespace, server_cpu: int, expected: dict) -> dict:
    """Set-up samples, the untraced pass and (with ``--trace``) a traced pass."""
    attempted = failed = 0
    errors: List[str] = []
    setup: List[float] = []
    for index in range(1 if args.quick else SETUP_LAUNCHES):
        attempted += 1
        try:
            setup.append(setup_once(workload, args.seed, index, server_cpu))
        except Exception as error:  # a failed launch is counted, not fatal
            traceback.print_exc()
            failed += 1
            errors.append(f"setup {index}: {type(error).__name__}: {error}")
    passes = {}
    for traced in (False, True) if args.trace else (False,):
        try:
            run = run_worker(
                workload, args.seed, args.seconds, quick=args.quick, traced=traced, server_cpu=server_cpu
            )
        except Exception as error:  # a failed worker is counted, not fatal
            traceback.print_exc()
            attempted += 1
            failed += 1
            errors.append(f"{'traced' if traced else 'untraced'} worker: {type(error).__name__}: {error}")
            continue
        reasons = check_ops(workload, run["ops"], expected)
        attempted += len(run["ops"])
        failed += sum(1 for op in run["ops"] if op.get("failed"))
        errors += reasons
        passes[traced] = run
    report = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:20],
        "metrics": {},
    }
    plain = passes.get(False)
    if plain is not None:
        refs = plain["host_ref_ms"]
        report["host_ref_ms"] = refs
        report["noisy"] = (max(refs) - min(refs)) / min(refs) > NOISE_LIMIT
        report["metrics"] = e2e_metrics(workload, setup, plain)
    report["metrics"]["error_rate"] = metric(failed / attempted, attempted, "error_rate")
    if plain is not None and True in passes:
        traced = passes[True]
        report["layers"] = layer_summary(workload, traced, plain)
        if traced.get("trace"):
            write_trace(workload, args.seed, traced)
    return report


def write_trace(workload: str, seed: int, traced: dict) -> None:
    from tracer import SPAN_COLUMNS

    path = OUT / f"{workload}.trace.json"
    path.write_text(
        json.dumps(
            {
                "workload": workload,
                "seed": seed,
                "op": traced["trace"]["op"],
                "columns": SPAN_COLUMNS,
                "spans": traced["trace"]["spans"],
                "ops": traced["layer_ops"],
            }
        )
    )


# ---------------------------------------------------------------------- #
# Environment block and history
# ---------------------------------------------------------------------- #
_PROBE = (
    "import json, numpy\n"
    "from repro.simulation.kernels import available_kernel_backends\n"
    "print(json.dumps({'numpy': numpy.__version__, "
    "'kernel_backends': list(available_kernel_backends())}))\n"
)


def environment(client: int, server: int) -> dict:
    """The run's environment block (library versions probed in a child)."""
    env = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "affinity": {"client": client, "server": server},
        "commit": git_commit(),
    }
    try:
        probe = subprocess.run(
            [sys.executable, "-c", _PROBE], capture_output=True, text=True, timeout=120
        )
        env.update(json.loads(probe.stdout.strip().splitlines()[-1]))
    except (OSError, subprocess.SubprocessError, ValueError, IndexError) as error:
        env["probe_error"] = str(error)
    return env


def cpu_model() -> Optional[str]:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def git_commit() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def load_records(paths: Sequence[str]) -> List[dict]:
    """Run records from ``--json`` files (one object) or JSON-lines files."""
    records = []
    for path in paths:
        text = Path(path).read_text()
        try:
            records.append(json.loads(text))
        except json.JSONDecodeError:
            records += [json.loads(line) for line in text.splitlines() if line.strip()]
    return records


# ---------------------------------------------------------------------- #
# The benchmark command
# ---------------------------------------------------------------------- #
def format_line(workload: str, name: str, entry: dict) -> str:
    return f"{workload} {name} {entry['value']:.6g} {entry['unit']} (n={entry['n']})"


def result_line(reports: Dict[str, dict], trace: bool) -> dict:
    wanted = LAYER_METRICS if trace else E2E_METRICS
    metrics = {}
    for workload, report in reports.items():
        source = report.get("layers", {}) if trace else report["metrics"]
        prefix = "" if len(reports) == 1 else f"{workload}/"
        for name in wanted:
            if name in source:
                metrics[prefix + name] = {"value": source[name]["value"], "unit": source[name]["unit"]}
    return {
        "correct": all(report["correct"] for report in reports.values()),
        "attempted": sum(report["attempted"] for report in reports.values()),
        "failed": sum(report["failed"] for report in reports.values()),
        "metrics": metrics,
    }


def bench_main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", nargs="+", action="extend", choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, help="time budget of each timed pass")
    parser.add_argument("--trace", nargs="?", const="1", default="0", choices=("0", "1"))
    parser.add_argument("--quick", action="store_true", help="one rep per workload, a smoke run")
    parser.add_argument("--json", help="also write the run record to this file")
    args = parser.parse_args(argv)
    args.trace = args.trace == "1"
    if not library_present():
        return 2
    client, server = prepare_environment()
    expected = load_expected(args.seed)
    started = time.time()
    reports: Dict[str, dict] = {}
    for workload in args.workload or wl.WORKLOADS:
        report = reports[workload] = measure(workload, args, server, expected)
        for name, entry in report["metrics"].items():
            print(format_line(workload, name, entry))
        for name, entry in report.get("layers", {}).items():
            print(format_line(workload, name, entry))
        if report.get("noisy"):
            refs = ", ".join(f"{value:.2f}" for value in report["host_ref_ms"])
            print(f"{workload} noisy: host_ref_ms drifted ({refs} ms)")
        for reason in report["errors"]:
            print(f"{workload} FAILED {reason}")
    record = {
        "schema_version": SCHEMA_VERSION,
        "timestamp": datetime.datetime.fromtimestamp(started, datetime.timezone.utc).isoformat(),
        "seed": args.seed,
        "seconds": args.seconds,
        "quick": args.quick,
        "trace": args.trace,
        "env": environment(client, server),
        "workloads": reports,
    }
    with HISTORY.open("a") as history:
        history.write(json.dumps(record) + "\n")
    if args.json:
        Path(args.json).write_text(json.dumps(record, indent=1) + "\n")
    line = result_line(reports, args.trace)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


# ---------------------------------------------------------------------- #
# compare
# ---------------------------------------------------------------------- #
def iqr(values: Sequence[float]) -> Tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def verdict(parent: Sequence[float], change: Sequence[float], better: str, bound: float, absolute: bool) -> str:
    """regressed / improved / unchanged / unresolved, by the benchmark's rules.

    A change regresses when its median is worse than the parent's by more
    than the bound. It improves only over at least ``MIN_PAIRS`` paired runs,
    winning at least 9 in 10 of them, *and* with medians further apart than
    the parent's interquartile range; fewer pairs can show no gain. Spreads
    wider than the bound leave the metric unresolved unless every changed run
    beats every parent run. An absolute bound compares the worst runs (for
    ``error_rate``: any new failure regresses).
    """
    sign = 1.0 if better == "lower" else -1.0
    if absolute:
        worse = sign * (max(change, key=lambda v: sign * v) - max(parent, key=lambda v: sign * v))
        return "regressed" if worse > bound else "improved" if worse < 0 else "unchanged"
    a, b = statistics.median(parent), statistics.median(change)
    limit = bound * abs(a)
    a1, a3 = iqr(parent)
    b1, b3 = iqr(change)
    every_better = all(sign * (y - x) < 0 for x in parent for y in change)
    if (a3 - a1 > limit or b3 - b1 > bound * abs(b)) and not every_better:
        return "unresolved"
    if sign * (b - a) > limit:
        return "regressed"
    pairs = list(zip(parent, change))
    wins = sum(1 for x, y in pairs if sign * (y - x) < 0)
    if len(pairs) >= MIN_PAIRS and wins >= 0.9 * len(pairs) and sign * (a - b) > a3 - a1:
        return "improved"
    return "unchanged"


def gates() -> List[Tuple[str, str, float, bool]]:
    """(metric, better, bound, absolute) for every gated metric."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    rows = [(m["name"], m["better"], float(m["bound"]), False) for m in declared]
    op_bound = next(bound for name, _, bound, _ in rows if name == "op_ms_p50")
    rows += [
        ("cold_rtt_ms_p50", "lower", op_bound, False),
        ("warm_rtt_ms_p50", "lower", op_bound, False),
        ("error_rate", "lower", 0.0, True),
    ]
    return rows


def compare_main(argv: Sequence[str]) -> int:
    if "--" not in argv:
        print("usage: run.py compare A.json ... -- B.json ...", file=sys.stderr)
        return 2
    split = list(argv).index("--")
    parent, change = load_records(argv[:split]), load_records(argv[split + 1 :])
    if not parent or not change:
        print("compare: both sides need at least one run record", file=sys.stderr)
        return 2
    regressed = False
    print(f"parent: {len(parent)} runs; change: {len(change)} runs")
    for workload in wl.WORKLOADS:
        for name, better, bound, absolute in gates():
            a = [r["workloads"][workload]["metrics"][name]["value"] for r in parent if has(r, workload, name)]
            b = [r["workloads"][workload]["metrics"][name]["value"] for r in change if has(r, workload, name)]
            if not a or not b:
                continue
            result = verdict(a, b, better, bound, absolute)
            regressed |= result == "regressed"
            ma, mb = statistics.median(a), statistics.median(b)
            (a1, a3), (b1, b3) = iqr(a), iqr(b)
            change_ratio = f"{mb / ma:.3f}" if ma else "-"
            print(
                f"{workload:12} {name:16} parent {ma:.6g} [{a1:.6g}, {a3:.6g}] (n={len(a)})  "
                f"change {mb:.6g} [{b1:.6g}, {b3:.6g}] (n={len(b)})  ratio {change_ratio}  {result}"
            )
    return 1 if regressed else 0


def has(record: dict, workload: str, name: str) -> bool:
    return name in record.get("workloads", {}).get(workload, {}).get("metrics", {})


# ---------------------------------------------------------------------- #
# pin
# ---------------------------------------------------------------------- #
def pin_main(argv: Sequence[str]) -> int:
    """Regenerate ``expected.json`` from one self-consistent default-seed run."""
    if argv:
        print("usage: run.py pin", file=sys.stderr)
        return 2
    if not library_present():
        return 2
    _, server = prepare_environment()
    pinned: dict = {"seed": DEFAULT_SEED, "batch": {}, "service": {}}
    for workload in wl.WORKLOADS:
        # One batch rep; every service block a full run serves.
        quick = workload != "service"
        run = run_worker(workload, DEFAULT_SEED, None, quick=quick, traced=False, server_cpu=server)
        reasons = check_ops(workload, run["ops"], {})
        if reasons:
            print(f"pin: {workload} is not self-consistent: {reasons[0]}", file=sys.stderr)
            return 1
        if workload == "service":
            cold = {op["index"]: op["digest"] for op in run["ops"] if op["kind"] == "cold" and op["block"] == "timed"}
            pinned["service"]["cold"] = [cold[index] for index in sorted(cold)]
        else:
            pinned["batch"][workload] = run["ops"][0]["digest"]
        print(f"pinned {workload}")
    EXPECTED.write_text(json.dumps(pinned, indent=1) + "\n")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    commands = {"compare": compare_main, "pin": pin_main, "_worker": worker_main, "_setup": setup_main}
    if argv and argv[0] in commands:
        return commands[argv[0]](argv[1:])
    return bench_main(argv)


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's four workloads and the worker that runs one of them.

``run.py`` starts one fresh worker process per workload (and per traced
pass), pinned to one core with single-threaded math libraries. The worker
runs one untimed warm-up rep, then timed reps back to back with no sleeps:
idle gaps on a small shared host slow the next sample down. It reports one
record per operation (a sweep rep, or a service request) with its wall
time and result digest; ``run.py`` turns those into metrics and checks the
digests.

Everything drives the library through its public API only:
``repro.api.run_sweep`` with its defaults for the batch workloads, and the
``repro serve`` TCP protocol for ``service``. The library receives only the
specs and requests built here from the ``--seed`` argument.

This module imports nothing outside the standard library (and ``tracer``)
at import time, so ``run.py`` can load it before it has checked that the
library exists.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import resource
import shutil
import socket
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from tracer import layer_metrics, self_times

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"

BATCH_WORKLOADS = ("fig2-grid", "fig4-serial", "churn")
WORKLOADS = BATCH_WORKLOADS + ("service",)

#: Timed reps of a run without ``--seconds``. A service rep is one block:
#: ``BLOCK_SESSIONS`` cold requests, then ``WARM_REPLAYS`` warm replays of each.
DEFAULT_REPS = {"fig2-grid": 10, "fig4-serial": 7, "churn": 20, "service": 10}
#: Fewest timed reps of a ``--seconds`` run, however long each rep takes.
MIN_REPS = {"fig2-grid": 3, "fig4-serial": 3, "churn": 3, "service": 2}
#: Timed reps of a ``--quick`` run (which also skips the warm-up) and of a
#: traced pass without ``--seconds``.
QUICK_REPS = {"fig2-grid": 1, "fig4-serial": 1, "churn": 1, "service": 2}

BLOCK_SESSIONS = 10
WARM_REPLAYS = 3
HOST = "127.0.0.1"

#: The paper's Table I trio, as one ``repro serve`` request (seed added per
#: request). Each response carries 3 cells x 4 trials = 12 records.
SERVICE_REQUEST = {
    "schemes": ["uncoded", "cyclic-repetition", "bcc"],
    "loads": [10],
    "workers": 50,
    "units": 50,
    "unit_size": 100,
    "iterations": 20,
    "trials": 4,
    "record": "summary",
}
SERVICE_RECORDS = 12

CHURN_SCENARIOS = (
    "markov:slowdown=8,p_slow=0.08,p_recover=0.4",
    "drift:final_factor=3.0",
    "preempt:preempt_probability=0.02,recovery_iterations=3",
    "churn",
)


def rep_plan(
    workload: str, seconds: Optional[float], *, quick: bool, traced: bool
) -> Tuple[int, Optional[float], bool]:
    """``(fewest timed reps, seconds to keep going, warm-up?)`` of one pass.

    A traced pass gets half the time budget: it runs next to the untraced
    pass its overhead is measured against.
    """
    if quick:
        return QUICK_REPS[workload], None, False
    if traced:
        return QUICK_REPS[workload], None if seconds is None else seconds / 2, True
    if seconds is None:
        return DEFAULT_REPS[workload], None, True
    return MIN_REPS[workload], seconds, True


def derive_seed(seed: int, label: str) -> int:
    """A 32-bit library seed derived from the benchmark seed and a label."""
    digest = hashlib.sha256(f"{label}:{seed}".encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big")


def digest_bytes(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def build_sweep(workload: str, seed: int):
    """The ``repro.api.Sweep`` of a batch workload at one library seed."""
    from repro.api import JobSpec, Sweep
    from repro.cluster.spec import ClusterSpec
    from repro.experiments.churn import dynamics_from_spec
    from repro.experiments.ec2 import ec2_like_cluster
    from repro.stragglers.models import ExponentialDelay

    if workload == "fig2-grid":
        base = JobSpec(
            scheme={"name": "bcc", "load": 5},
            cluster=ClusterSpec.homogeneous(100, ExponentialDelay(straggling=1.0)),
            num_units=100,
            num_iterations=1,
            serialize_master_link=False,
            seed=seed,
        )
        parameters = {
            "scheme.load": list(range(5, 55, 5)),
            "scheme.name": ["bcc", "randomized"],
        }
        return Sweep(base, parameters=parameters, trials=64)
    if workload == "fig4-serial":
        base = JobSpec(
            scheme={"name": "bcc", "load": 5},
            cluster=ec2_like_cluster(100),
            num_units=100,
            unit_size=100,
            num_iterations=200,
            serialize_master_link=True,
            seed=seed,
        )
        parameters = {"scheme.load": [5, 10, 20, 25], "scheme.name": ["bcc", "randomized"]}
        return Sweep(base, parameters=parameters, trials=32)
    if workload == "churn":
        stationary = ec2_like_cluster(100)
        clusters = [
            dynamics_from_spec(spec, stationary, num_iterations=100) for spec in CHURN_SCENARIOS
        ]
        # Load 20, not 10: at load 10 a random BCC placement
        # leaves some batch with one or two holders often enough that churn
        # or preemption removes all of them in about 30% of sweeps, and
        # the run fails. At load 20 every batch has ~20 holders.
        schemes = [
            {"name": "bcc", "load": 20},
            {"name": "fractional-repetition", "load": 20},
        ]
        base = JobSpec(
            scheme=schemes[0],
            cluster=clusters[0],
            num_units=100,
            unit_size=100,
            num_iterations=100,
            serialize_master_link=False,
            seed=seed,
        )
        return Sweep(base, parameters={"cluster": clusters, "scheme": schemes}, trials=8)
    raise ValueError(f"{workload!r} is not a batch workload")


def smoke_sweep(workload: str, seed: int):
    """A 1-cell x 1-trial x 1-iteration job of the workload's spec."""
    from repro.api import Sweep

    first = build_sweep(workload, seed).specs()[0]
    return Sweep(first.replace(num_iterations=1), trials=1)


def host_ref_ms() -> float:
    """Best-of-nine time of a fixed pure-Python loop: the host's speed now."""
    best = float("inf")
    for _ in range(9):
        start = time.perf_counter()
        total = 0
        for value in range(200_000):
            total += value * value
        best = min(best, time.perf_counter() - start)
    return best * 1e3


class Reps:
    """Counts timed reps: at least ``count``, and on until ``seconds`` pass.

    Also says when the middle host probe is due.
    """

    def __init__(self, count: int, seconds: Optional[float]) -> None:
        self.count = count
        self.seconds = seconds
        self.done = 0
        self.start = time.perf_counter()
        self._probed = False

    def more(self) -> bool:
        if self.done < self.count:
            return True
        return self.seconds is not None and time.perf_counter() - self.start < self.seconds

    def finished_one(self) -> bool:
        """Count a rep; True once, at the first rep past the halfway mark."""
        self.done += 1
        if self._probed:
            return False
        if self.seconds is not None:
            halfway = time.perf_counter() - self.start >= self.seconds / 2
        else:
            halfway = self.done >= (self.count + 1) // 2
        self._probed = halfway
        return halfway


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------- #
# Batch workloads
# ---------------------------------------------------------------------- #
def run_batch(
    workload: str,
    seed: int,
    *,
    count: int,
    seconds: Optional[float],
    warmup: bool,
    tracer=None,
) -> dict:
    """Warm-up plus timed ``run_sweep`` reps of one batch workload."""
    import repro.api as api

    sweep = build_sweep(workload, derive_seed(seed, workload))
    cells, trials = len(sweep.cells()), sweep.trials
    refs = [host_ref_ms()]
    ops: List[dict] = []
    layers = LayerLog(tracer)

    def rep(kind: str, index: int) -> None:
        label = f"{kind}{index}"
        record = {"kind": kind, "index": index, "wall": None, "digest": None, "error": None}
        if tracer is not None:
            tracer.op = label
        try:
            start = time.perf_counter()
            # One operation: the sweep and the per-cell table users read.
            rows = api.run_sweep(sweep).aggregate()
            record["wall"] = time.perf_counter() - start
            if len(rows) != cells or any(row["trials"] != trials for row in rows):
                raise ValueError(f"expected {cells} cells x {trials} trials, got {len(rows)} rows")
            record["digest"] = digest_bytes(json.dumps(rows, sort_keys=True).encode("utf-8"))
        except Exception as error:  # every failure is counted, never fatal
            traceback.print_exc()
            record["error"] = f"{type(error).__name__}: {error}"
        if tracer is not None:
            tracer.op = None
            layers.add(label, kind == "rep", record["wall"])
        ops.append(record)

    if warmup:
        rep("warmup", 0)
    reps = Reps(count, seconds)
    while reps.more():
        rep("rep", reps.done)
        if reps.finished_one():
            refs.append(host_ref_ms())
    refs.append(host_ref_ms())
    return {"ops": ops, "host_ref_ms": refs, "peak_rss_mb": peak_rss_mb(), **layers.result()}


def batch_setup(workload: str, seed: int) -> None:
    """Body of one ``setup_s`` launch: import, then one tiny job."""
    import repro.api as api

    api.run_sweep(smoke_sweep(workload, derive_seed(seed, workload)))


# ---------------------------------------------------------------------- #
# Service workload
# ---------------------------------------------------------------------- #
class ServiceClient:
    """One persistent connection speaking the ``repro serve`` line protocol."""

    def __init__(self, port: int, timeout: float = 60.0) -> None:
        self.sock = socket.create_connection((HOST, port), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")

    def request(self, payload: dict) -> Tuple[float, List[tuple], Optional[dict], int]:
        """Send one request; return (round trip s, records, final event, bytes)."""
        line = json.dumps(payload).encode("utf-8") + b"\n"
        records: List[tuple] = []
        final = None
        moved = len(line)
        start = time.perf_counter()
        self.sock.sendall(line)
        while True:
            raw = self.reader.readline()
            if not raw:
                break
            moved += len(raw)
            event = json.loads(raw)
            kind = event.get("event")
            if kind == "record":
                records.append((event["cell"], event["trial"], raw.rstrip(b"\n")))
            elif kind in ("done", "error"):
                final = event
                break
        return time.perf_counter() - start, records, final, moved

    def close(self) -> None:
        self.reader.close()
        self.sock.close()


def check_response(records: List[tuple], final: Optional[dict]) -> str:
    """The digest of a good response's records; raises on a bad response."""
    if final is None:
        raise ValueError("the connection closed before a done event")
    if final.get("event") != "done":
        raise ValueError(f"error event: {final.get('error')}")
    if final.get("records") != len(records) or len(records) != SERVICE_RECORDS:
        raise ValueError(f"expected {SERVICE_RECORDS} records, got {len(records)}")
    return digest_bytes(b"\n".join(raw for _, _, raw in sorted(records)))


def service_payload(seed: int) -> dict:
    return {**SERVICE_REQUEST, "seed": seed}


def pin_to(cpu: int) -> Callable[[], None]:
    return lambda: os.sched_setaffinity(0, {cpu})


def start_server(cache_dir: Path, cpu: int) -> Tuple[subprocess.Popen, int]:
    """``python -m repro serve --port 0`` on ``cpu``; returns it and its port."""
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", "--cache", str(cache_dir)],
        stdout=subprocess.PIPE,
        stdin=subprocess.DEVNULL,
        preexec_fn=pin_to(cpu),
    )
    line = process.stdout.readline().decode("utf-8", "replace")
    if "listening on" not in line:
        stop_server(process)
        raise RuntimeError(f"repro serve did not start: {line!r}")
    return process, int(line.rsplit(":", 1)[1])


def stop_server(process: subprocess.Popen) -> None:
    process.terminate()
    try:
        process.wait(timeout=10)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()
    process.stdout.close()


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set of a live process, from ``/proc/<pid>/status``."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


class InProcessServer:
    """``repro.service.server.serve`` on a background thread of this process.

    Used by the traced pass only, so the tracer's wrappers see the
    server-side spans.
    """

    def __init__(self, cache_dir: Path) -> None:
        from repro.service.server import serve
        from repro.service.service import SweepService

        with socket.socket() as probe:
            probe.bind((HOST, 0))
            self.port = probe.getsockname()[1]
        self.loop = asyncio.new_event_loop()
        self.task = self.loop.create_task(
            serve(SweepService(cache=str(cache_dir)), host=HOST, port=self.port)
        )
        self.thread = threading.Thread(target=self._run, name="repro-serve", daemon=True)
        self.thread.start()

    def _run(self) -> None:
        asyncio.set_event_loop(self.loop)
        try:
            self.loop.run_until_complete(self.task)
        except asyncio.CancelledError:
            pass
        finally:
            self.loop.close()

    def connect(self, deadline: float = 30.0) -> ServiceClient:
        start = time.perf_counter()
        while True:
            try:
                return ServiceClient(self.port)
            except ConnectionRefusedError:
                if time.perf_counter() - start > deadline or not self.thread.is_alive():
                    raise
                time.sleep(0.01)

    def close(self) -> None:
        self.loop.call_soon_threadsafe(self.task.cancel)
        self.thread.join(timeout=10)


def run_service(
    seed: int,
    *,
    count: int,
    seconds: Optional[float],
    warmup: bool,
    server_cpu: int,
    tracer=None,
) -> dict:
    """Closed-loop cold/warm request blocks against one ``repro serve``."""
    OUT.joinpath("tmp").mkdir(parents=True, exist_ok=True)
    cache_dir = Path(tempfile.mkdtemp(prefix="service-cache-", dir=OUT / "tmp"))
    refs = [host_ref_ms()]
    ops: List[dict] = []
    layers = LayerLog(tracer)
    server = process = None
    try:
        if tracer is None:
            process, port = start_server(cache_dir, server_cpu)
            client = ServiceClient(port)
        else:
            server = InProcessServer(cache_dir)
            client = server.connect()
        try:

            def send(kind: str, block: str, index: int, replay: int, library_seed: int) -> None:
                label = f"{block}.s{index}.{kind}{replay}"
                record = {
                    "kind": kind,
                    "block": block,
                    "index": index,
                    "wall": None,
                    "digest": None,
                    "error": None,
                }
                if tracer is not None:
                    tracer.op = label
                try:
                    if tracer is None:
                        rtt, records, final, _ = client.request(service_payload(library_seed))
                    else:
                        with tracer.span("transport", "request", residual=True) as span:
                            tracer.root = span["id"]
                            rtt, records, final, span["info"] = client.request(
                                service_payload(library_seed)
                            )
                    record["digest"] = check_response(records, final)
                    record["wall"] = rtt
                except Exception as error:  # every failure is counted, never fatal
                    traceback.print_exc()
                    record["error"] = f"{type(error).__name__}: {error}"
                if tracer is not None:
                    tracer.op = tracer.root = None
                    layers.add(label, block != "warmup", record["wall"], cache_dir)
                ops.append(record)

            def block(name: str, first_index: int, seed_label: str) -> None:
                indices = range(first_index, first_index + BLOCK_SESSIONS)
                seeds = {index: derive_seed(seed, f"{seed_label}-{index}") for index in indices}
                for index in indices:
                    send("cold", name, index, 0, seeds[index])
                for replay in range(1, WARM_REPLAYS + 1):
                    for index in indices:
                        send("warm", name, index, replay, seeds[index])

            if warmup:
                block("warmup", 0, "service-warmup")
            reps = Reps(count, seconds)
            while reps.more():
                block("timed", reps.done * BLOCK_SESSIONS, "service-cold")
                if reps.finished_one():
                    refs.append(host_ref_ms())
            # Before tear-down: deleting the cache directory starts disk
            # writeback that would slow the probe down.
            refs.append(host_ref_ms())
            rss = vm_hwm_mb(process.pid) if process is not None else peak_rss_mb()
        finally:
            client.close()
    finally:
        if process is not None:
            stop_server(process)
        if server is not None:
            server.close()
        shutil.rmtree(cache_dir, ignore_errors=True)
    return {"ops": ops, "host_ref_ms": refs, "peak_rss_mb": rss, **layers.result()}


def service_setup(seed: int, index: int, cpu: int) -> float:
    """One ``setup_s`` sample: spawn the server, first answered request."""
    OUT.joinpath("tmp").mkdir(parents=True, exist_ok=True)
    cache_dir = Path(tempfile.mkdtemp(prefix="setup-cache-", dir=OUT / "tmp"))
    try:
        start = time.perf_counter()
        process, port = start_server(cache_dir, cpu)
        try:
            client = ServiceClient(port)
            try:
                _, records, final, _ = client.request(
                    service_payload(derive_seed(seed, f"service-setup-{index}"))
                )
            finally:
                client.close()
            elapsed = time.perf_counter() - start
        finally:
            stop_server(process)
        check_response(records, final)
        return elapsed
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


# ---------------------------------------------------------------------- #
# Traced passes: per-operation layer metrics
# ---------------------------------------------------------------------- #
class LayerLog:
    """Turns a tracer's spans into per-operation layer metrics as ops finish.

    Spans are dropped once summarised, except those of the first timed
    operation, which are kept for the trace file.
    """

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        self.ops: List[dict] = []
        self.kept: Optional[dict] = None
        self._disk = 0

    def add(self, label: str, timed: bool, wall: Optional[float], cache_dir: Optional[Path] = None) -> None:
        spans = self.tracer.take()
        written = 0
        if cache_dir is not None:
            disk = sum(entry.stat().st_size for entry in os.scandir(cache_dir))
            written, self._disk = disk - self._disk, disk
        if not timed or wall is None:
            return
        metrics = layer_metrics(spans)
        metrics["service.disk_bytes"] = written
        self.ops.append({"op": label, "wall_s": wall, "metrics": metrics})
        if self.kept is None:
            own = self_times(spans)
            origin = min(span.wall0 for span in spans)
            self.kept = {"op": label, "spans": [span.to_row(origin, own[span.id]) for span in spans]}

    def result(self) -> Dict[str, object]:
        if self.tracer is None:
            return {}
        return {"layer_ops": self.ops, "trace": self.kept}

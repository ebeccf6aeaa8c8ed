"""Self-test of the end-to-end benchmark (fast; collected by the tier-1 run).

Checks that the names in ``BENCHMARK.json`` match the harness, the
self-time arithmetic on a synthetic span tree, that the tracer restores
every attribute it wraps without changing any result, the ``compare``
verdict rules, and the ``--quick`` digest check on the ``churn`` workload.
"""

from __future__ import annotations

import json
import re
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def declared() -> dict:
    return json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())


def test_names_match_benchmark_json():
    spec = declared()
    assert spec["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_METRICS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_METRICS
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in spec[key]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for entry in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.fullmatch(entry["unit"]), entry
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"]) <= 0.25
    traced = {name for name, _, _ in tracer.TIME_METRICS} | {
        name for name, *_ in tracer.COUNT_METRICS
    }
    derived = {"service.hit_ratio", "service.disk_bytes", "tracing.overhead_frac", "tracing.self_sum_frac"}
    assert set(run.LAYER_METRICS) <= traced | derived


def span(id, parent, cpu0, cpu1, thread=1, layer="x", residual=False, wall=None):
    wall0, wall1 = wall or (cpu0, cpu1)
    return tracer.Span(
        id=id, parent=parent, layer=layer, name=f"s{id}", thread=thread, op=0,
        wall0=wall0, cpu0=cpu0, wall1=wall1, cpu1=cpu1, residual=residual,
    )


def test_self_time_arithmetic():
    spans = [
        span(0, None, 0.0, 10.0),
        span(1, 0, 1.0, 4.0),
        span(2, 1, 2.0, 3.0),
        span(3, 0, 3.5, 9.0),  # overlaps span 1: the union counts once
        span(4, 0, 0.0, 8.0, thread=2),  # another thread: not subtracted
        span(5, 0, 9.5, 12.0),  # clipped to the parent's interval
    ]
    own = tracer.self_times(spans)
    assert own[0] == 10.0 - (9.0 - 1.0) - 0.5
    assert own[1] == 2.0
    assert own[2] == 1.0
    assert own[3] == 5.5
    assert own[4] == 8.0
    assert own[5] == 2.5
    assert tracer.union_length([(0, 2), (1, 3), (5, 6)], 0.5, 5.5) == 3.0


def test_residual_span_is_wall_minus_everything_beneath():
    spans = [
        span(0, None, 0.0, 0.1, residual=True, wall=(0.0, 20.0), layer="transport"),
        span(1, 0, 0.0, 6.0, thread=2, layer="service"),
        span(2, 1, 1.0, 3.0, thread=2),
        span(3, 1, 0.0, 5.0, thread=3),
    ]
    own = tracer.self_times(spans)
    assert own[1] == 4.0
    assert own[0] == 20.0 - (4.0 + 2.0 + 5.0)
    metrics = tracer.layer_metrics(spans)
    assert metrics["transport.self_s"] == own[0]
    assert metrics["tracing.self_sum_s"] == 20.0


def test_spans_without_a_parent_adopt_the_root_span():
    active = tracer.Tracer()
    work = active.wrap(lambda: None, "service", "work")
    with active.span("transport", "request", residual=True) as request:
        active.root = request["id"]
        worker = threading.Thread(target=work)  # no context: adopts the root
        worker.start()
        worker.join(timeout=10)
    active.root = None
    spans = {span.name: span for span in active.take()}
    assert spans["request"].parent is None and spans["request"].residual
    assert spans["work"].parent == spans["request"].id
    assert spans["work"].thread != spans["request"].thread


def test_tracer_restores_every_wrapped_attribute_and_changes_no_result():
    import repro.api as api
    from repro.api import JobSpec, Sweep
    from repro.cluster.spec import ClusterSpec
    from repro.stragglers.models import ExponentialDelay

    sweep = Sweep(
        JobSpec(
            scheme={"name": "bcc", "load": 5},
            cluster=ClusterSpec.homogeneous(10, ExponentialDelay(straggling=1.0)),
            num_units=10,
            num_iterations=3,
            seed=7,
        ),
        parameters={"scheme": [{"name": "bcc", "load": 5}, {"name": "uncoded"}]},
        trials=2,
    )
    untraced = api.run_sweep(sweep).aggregate()
    active = tracer.Tracer()
    with active:
        patches = list(active._patches)
        for owner, attribute, original in patches:
            assert vars(owner)[attribute] is not original
        traced = api.run_sweep(sweep).aggregate()
    assert traced == untraced
    assert not active._patches
    for owner, attribute, original in patches:
        assert vars(owner)[attribute] is original, (owner, attribute)
    spans = active.take()
    layers = {s.layer for s in spans}
    assert {"api", "scheduling", "schemes", "stragglers", "simulation", "simulation.kernels"} <= layers
    metrics = tracer.layer_metrics(spans)
    assert metrics["scheduling.tasks"] == 3  # two bcc trials + one batched uncoded cell
    assert metrics["scheduling.batched_tasks"] == 1


def test_compare_verdicts():
    parent = [100.0, 101.0, 99.0, 100.5, 99.5] * 2
    assert run.verdict(parent, parent, "lower", 0.1, False) == "unchanged"
    assert run.verdict(parent, [v * 1.2 for v in parent], "lower", 0.1, False) == "regressed"
    assert run.verdict(parent, [v * 0.8 for v in parent], "lower", 0.1, False) == "improved"
    # Fewer than ten pairs cannot show a gain.
    assert run.verdict(parent[:5], [v * 0.8 for v in parent[:5]], "lower", 0.1, False) == "unchanged"
    assert run.verdict(parent, [50.0, 150.0, 100.0, 60.0, 140.0], "lower", 0.1, False) == "unresolved"
    assert run.verdict([0.0, 0.0], [0.0, 0.01], "lower", 0.0, True) == "regressed"


def test_quick_churn_reproduces_its_pinned_digest():
    result = workloads.run_batch("churn", run.DEFAULT_SEED, count=1, seconds=None, warmup=False)
    assert run.check_ops("churn", result["ops"], run.load_expected(run.DEFAULT_SEED)) == []
    assert result["ops"][0]["digest"] == json.loads(run.EXPECTED.read_text())["batch"]["churn"]

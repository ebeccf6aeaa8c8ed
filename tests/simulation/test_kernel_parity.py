"""The kernel-suite seam: every kernel call goes through ``get_suite``.

The vectorized engine obtains its hot-path kernels from
:func:`repro.simulation.kernels.get_suite` and calls them only through the
returned :class:`~repro.simulation.kernels.KernelSuite`. Instrumentation
relies on that seam — the end-to-end benchmark's tracer swaps ``get_suite``
for a wrapper that rebuilds the suite with ``dataclasses.replace`` — so this
suite pins two promises for **every registered scheme**, in **both
master-link modes**, on **stationary and dynamic clusters**, for the solo
and the trial-batched entry points:

* a suite whose kernels are wrapped reproduces the plain engine bit for bit;
* the engine calls exactly the kernels the scheme needs, once per job (the
  serialized-link recurrence only when the master link is serialized).

The matrix-coverage test keeps the scheme list honest as new schemes
register, and a Hypothesis property covers random job shapes.
"""

from __future__ import annotations

import collections
import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.dynamic import DynamicClusterSpec
from repro.cluster.spec import ClusterSpec
from repro.schemes.registry import available_schemes, scheme_from_config
from repro.simulation import vectorized
from repro.simulation.kernels import available_kernel_backends, get_suite
from repro.simulation.vectorized import simulate_job_batch, simulate_job_vectorized
from repro.stragglers.communication import LinearCommunicationModel
from repro.stragglers.models import ShiftedExponentialDelay

#: One representative configuration per registered scheme, with enough
#: redundancy to survive the dynamic scenario, and the completion kernel
#: its decoder runs (``None``: the completion is an order statistic the
#: engine reads off directly). The coverage test keeps it exhaustive.
SCHEME_MATRIX = {
    "uncoded": ({"name": "uncoded"}, 24, "count_completion"),
    "bcc": ({"name": "bcc", "load": 6}, 24, "coverage_completion"),
    "randomized": ({"name": "randomized", "load": 8}, 24, "coverage_completion"),
    "ignore-stragglers": (
        {"name": "ignore-stragglers", "wait_fraction": 0.6},
        24,
        "partial_sum_completion",
    ),
    "cyclic-repetition": ({"name": "cyclic-repetition", "load": 6}, 12, None),
    "reed-solomon": ({"name": "reed-solomon", "load": 6}, 12, None),
    "fractional-repetition": (
        {"name": "fractional-repetition", "load": 4},
        12,
        "group_completion",
    ),
    "generalized-bcc": ({"name": "generalized-bcc"}, 24, "coverage_completion"),
    "load-balanced": ({"name": "load-balanced"}, 24, "count_completion"),
}

HETEROGENEOUS = {"generalized-bcc", "load-balanced"}

BACKENDS = available_kernel_backends()

MARKOV = {"name": "markov", "slowdown": 6.0, "p_slow": 0.2}


def make_cluster(name: str) -> ClusterSpec:
    communication = LinearCommunicationModel(latency=0.05, seconds_per_unit=0.02)
    if name in HETEROGENEOUS:
        return ClusterSpec.paper_fig5_cluster(
            num_workers=12, num_fast=2, communication=communication
        )
    return ClusterSpec.homogeneous(
        12, ShiftedExponentialDelay(straggling=1.0, shift=0.01), communication
    )


def expected_calls(name: str, *, serialize: bool) -> dict:
    completion = SCHEME_MATRIX[name][2]
    calls = {}
    if serialize:
        calls["link_recurrence"] = 1
    if completion is not None:
        calls[completion] = 1
    return calls


def install_recording_suite(patch: pytest.MonkeyPatch) -> collections.Counter:
    """Swap the engine's ``get_suite`` for a call-counting wrapper.

    Mirrors the tracer: a one-argument wrapper around the real
    ``get_suite`` that rebuilds the suite with ``dataclasses.replace``.
    Returns the per-kernel call counter, keyed by suite field name.
    """
    calls = collections.Counter()

    def counting(field, kernel):
        def wrapper(*args):
            calls[field] += 1
            return kernel(*args)

        return wrapper

    def recording_get_suite(name):
        suite = get_suite(name)
        kernels = {
            field.name: counting(field.name, getattr(suite, field.name))
            for field in dataclasses.fields(suite)
            if field.name != "name"
        }
        return dataclasses.replace(suite, **kernels)

    patch.setattr(vectorized, "get_suite", recording_get_suite)
    return calls


def run_solo(config, cluster, base, num_units, *, serialize):
    return simulate_job_vectorized(
        scheme_from_config(config, cluster=base),
        cluster,
        num_units,
        9,
        rng=123,
        serialize_master_link=serialize,
    )


def assert_identical(wrapped, plain):
    assert wrapped.summary() == plain.summary()  # exact float equality
    assert list(wrapped.iterations) == list(plain.iterations)


class TestKernelParityMatrix:
    def test_matrix_covers_every_registered_scheme(self):
        assert sorted(SCHEME_MATRIX) == available_schemes()

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("serialize", [False, True])
    @pytest.mark.parametrize("name", sorted(SCHEME_MATRIX))
    def test_stationary_identical(self, name, serialize, backend, monkeypatch):
        config, num_units, _ = SCHEME_MATRIX[name]
        cluster = make_cluster(name)
        plain = run_solo(config, cluster, cluster, num_units, serialize=serialize)
        calls = install_recording_suite(monkeypatch)
        wrapped = run_solo(config, cluster, cluster, num_units, serialize=serialize)
        assert get_suite(backend).name == backend
        assert_identical(wrapped, plain)
        assert dict(calls) == expected_calls(name, serialize=serialize)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("serialize", [False, True])
    @pytest.mark.parametrize("name", sorted(SCHEME_MATRIX))
    def test_dynamic_identical(self, name, serialize, backend, monkeypatch):
        # The absence-free Markov scenario every scheme can complete.
        config, num_units, _ = SCHEME_MATRIX[name]
        base = make_cluster(name)
        dynamic = DynamicClusterSpec(base, dynamics=MARKOV)
        plain = run_solo(config, dynamic, base, num_units, serialize=serialize)
        calls = install_recording_suite(monkeypatch)
        wrapped = run_solo(config, dynamic, base, num_units, serialize=serialize)
        assert get_suite(backend).name == backend
        assert_identical(wrapped, plain)
        assert dict(calls) == expected_calls(name, serialize=serialize)

    @pytest.mark.parametrize("name", sorted(SCHEME_MATRIX))
    def test_trial_batch_identical(self, name, monkeypatch):
        # Small enough for one trial chunk: each kernel runs once over the
        # stacked trials x iterations rows.
        config, num_units, _ = SCHEME_MATRIX[name]
        cluster = make_cluster(name)
        seeds = [11, 12, 13]

        def run():
            return simulate_job_batch(
                scheme_from_config(config, cluster=cluster),
                cluster,
                num_units,
                5,
                seeds,
            )

        plain = run()
        calls = install_recording_suite(monkeypatch)
        wrapped = run()
        assert len(wrapped) == len(plain) == len(seeds)
        for wrapped_trial, plain_trial in zip(wrapped, plain):
            assert_identical(wrapped_trial, plain_trial)
        assert dict(calls) == expected_calls(name, serialize=True)


@settings(max_examples=20, deadline=None)
@given(
    scheme=st.sampled_from(["uncoded", "bcc", "cyclic-repetition", "randomized"]),
    num_workers=st.integers(min_value=4, max_value=24),
    num_iterations=st.integers(min_value=1, max_value=6),
    straggling=st.floats(min_value=0.1, max_value=4.0),
    serialize=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_random_jobs_identical(
    scheme, num_workers, num_iterations, straggling, serialize, seed
):
    """Property: a wrapped suite reproduces the plain engine on any job shape."""
    if scheme in ("bcc", "randomized"):
        # Random placement is a coupon collector: a feasible draw needs
        # about m log m unit slots in total, so size the load to that.
        num_units = num_workers * 2
        load = math.ceil(num_units * math.log(num_units) / num_workers) + 2
        config = {"name": scheme, "load": load}
    elif scheme == "cyclic-repetition":
        config = {"name": scheme, "load": max(2, num_workers // 4)}
        num_units = num_workers  # coded schemes need m = n
    else:
        config = {"name": scheme}
        num_units = num_workers * 2
    cluster = ClusterSpec.homogeneous(
        num_workers,
        ShiftedExponentialDelay(straggling=straggling, shift=0.01),
        LinearCommunicationModel(latency=0.05, seconds_per_unit=0.02),
    )

    def run():
        return simulate_job_vectorized(
            scheme_from_config(config, cluster=cluster),
            cluster,
            num_units,
            num_iterations,
            rng=seed,
            serialize_master_link=serialize,
        )

    plain = run()
    with pytest.MonkeyPatch.context() as patch:
        calls = install_recording_suite(patch)
        wrapped = run()
    assert_identical(wrapped, plain)
    assert dict(calls) == expected_calls(scheme, serialize=serialize)

"""Shared fixtures for the test suite (and the Hypothesis profiles).

Profiles
--------
``default``
    Hypothesis's stock behaviour: fresh random examples every run, which is
    what local development wants (every run explores new corners).
``ci``
    Derandomized, reproducible example generation for the tier-1 property
    job: the same examples on every run, so a CI failure is always
    reproducible locally with ``HYPOTHESIS_PROFILE=ci``. Select it via the
    ``HYPOTHESIS_PROFILE`` environment variable.
"""

from __future__ import annotations

import dataclasses
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "ci",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

from typing import Callable, NamedTuple

from repro.cluster.spec import ClusterSpec, WorkerSpec
from repro.coding.linear_code import LinearGradientCode
from repro.datasets.base import Dataset
from repro.datasets.synthetic import (
    LogisticDataConfig,
    make_linear_regression_data,
    make_paper_logistic_data,
)
from repro.gradients.logistic import LogisticLoss
from repro.schemes.approximate import IgnoreStragglersScheme
from repro.schemes.base import CodedRule, ExecutionPlan
from repro.schemes.bcc import BCCScheme
from repro.schemes.uncoded import UncodedScheme
from repro.stragglers.communication import LinearCommunicationModel
from repro.stragglers.models import (
    BimodalStragglerDelay,
    DeterministicDelay,
    ExponentialDelay,
    ParetoDelay,
    ShiftedExponentialDelay,
    TraceDelay,
)


class DoubledDelay(ShiftedExponentialDelay):
    """Overrides the sampler, so no engine may assume its stream."""

    def sample(self, load, rng=None, size=None):
        return 2.0 * super().sample(load, rng=rng, size=size)


class OffsetLink(LinearCommunicationModel):
    """Overrides the sampler, so no engine may assume its stream."""

    def sample(self, message_size, rng=None, size=None):
        return 0.5 + super().sample(message_size, rng=rng, size=size)


class DrawCase(NamedTuple):
    """A cluster behind one link and the draw path it must take."""

    build: Callable[[int], ClusterSpec]
    #: Whether the vectorized engine draws one exponential block per trial
    #: (True) or takes the grid or row-by-row schedule (False).
    block: bool


def _jittered(link=LinearCommunicationModel):
    return link(latency=0.01, seconds_per_unit=0.05, jitter=0.2)


def _jitter_free():
    return LinearCommunicationModel(latency=0.01, seconds_per_unit=0.05)


def _homogeneous(model, link):
    return lambda n: ClusterSpec.homogeneous(n, model, link())


def _alternating(link):
    def build(n):
        models = [
            ShiftedExponentialDelay(2.0, 0.01) if i % 2 else ParetoDelay(2.5, 0.05)
            for i in range(n)
        ]
        return ClusterSpec(
            workers=tuple(
                WorkerSpec(compute=m, name=f"w{i}") for i, m in enumerate(models)
            ),
            communication=link(),
        )

    return build


def _draw_cases(link) -> dict:
    """The delay-model families of the draw-path matrix behind ``link()``."""
    return {
        "shift-exponential": DrawCase(
            _homogeneous(ShiftedExponentialDelay(2.0, 0.01), link), True
        ),
        "heterogeneous-shift-exponential": DrawCase(
            lambda n: ClusterSpec.shifted_exponential(
                np.linspace(0.5, 4.0, n), np.linspace(0.0, 0.2, n), link()
            ),
            True,
        ),
        "pareto": DrawCase(_homogeneous(ParetoDelay(2.5, 0.05), link), False),
        "bimodal": DrawCase(_homogeneous(BimodalStragglerDelay(0.05), link), False),
        "trace": DrawCase(_homogeneous(TraceDelay([0.02, 0.05, 0.3]), link), False),
        "deterministic": DrawCase(_homogeneous(DeterministicDelay(0.05), link), False),
        "subclassed-delay": DrawCase(_homogeneous(DoubledDelay(2.0, 0.01), link), False),
        "mixed-class": DrawCase(_alternating(link), False),
    }


#: Jittered links: every iteration draws its transfers after its compute.
STOCHASTIC_CASES = {
    **_draw_cases(_jittered),
    "subclassed-link": DrawCase(
        _homogeneous(ShiftedExponentialDelay(2.0, 0.01), lambda: _jittered(OffsetLink)),
        False,
    ),
}

#: Jitter-free links: the stream holds compute draws only.
JITTER_FREE_CASES = _draw_cases(_jitter_free)


@pytest.fixture(params=sorted(STOCHASTIC_CASES))
def stochastic_case(request) -> DrawCase:
    """One jittered-transfer cluster per draw path of the vectorized engine."""
    return STOCHASTIC_CASES[request.param]


@pytest.fixture(params=sorted(JITTER_FREE_CASES))
def jitter_free_case(request) -> DrawCase:
    """One jitter-free cluster per delay-model family of the draw-path matrix."""
    return JITTER_FREE_CASES[request.param]


def _with_sizes(plan, sizes):
    return dataclasses.replace(plan, message_sizes=np.asarray(sizes, dtype=float))


def _arrival_ties() -> list:
    """Equal arrivals that the completion order ranks larger worker first.

    Worker 1 computes first (0.5 s) and holds the serialized link until
    1.5 s; worker 0 finishes at 1.0 s and its empty message also arrives at
    1.5 s. The loop engine breaks the tie by worker index, so it hears
    (0, 1, 2) under uncoded and (0, 1) under ignore-stragglers, where the
    completion order alone would give (1, 0, 2) and (1, 0).
    """
    cluster = ClusterSpec(
        workers=tuple(
            WorkerSpec(compute=DeterministicDelay(seconds), name=f"w{i}")
            for i, seconds in enumerate((1.0, 0.5, 3.0))
        ),
        communication=LinearCommunicationModel(latency=0.0, seconds_per_unit=1.0),
    )
    schemes = (UncodedScheme(), IgnoreStragglersScheme(wait_fraction=0.34))
    return [
        (_with_sizes(scheme.build_plan(3, 3), [0.0, 1.0, 0.3]), cluster, 3)
        for scheme in schemes
    ]


def _interleaved_ties() -> list:
    """Equal compute times that interleave across the worker indices.

    The 24 workers' seconds cycle 2.0/1.0/3.0, so each row holds three
    interleaved groups of eight equal times; behind the jitter-free link the
    parallel link's arrivals tie the same way. NumPy's default sort may rank
    such ties in any order (an all-equal row comes back in index order and
    proves nothing); the loop ranks them by worker index.
    """
    seconds = (2.0, 1.0, 3.0)
    cluster = ClusterSpec(
        workers=tuple(
            WorkerSpec(compute=DeterministicDelay(seconds[i % 3]), name=f"w{i}")
            for i in range(24)
        ),
        communication=_jitter_free(),
    )
    schemes = (UncodedScheme(), BCCScheme(load=3))
    return [(scheme.build_feasible_plan(24, 24, rng=5), cluster, 24) for scheme in schemes]


def _sized_jobs(sizes) -> list:
    """Uncoded and BCC jobs on 24 shift-exponential workers, with ``sizes``."""
    cluster = ClusterSpec.homogeneous(24, ShiftedExponentialDelay(2.0, 0.01), _jittered())
    schemes = (UncodedScheme(), BCCScheme(load=3))
    return [
        (_with_sizes(scheme.build_feasible_plan(24, 24, rng=5), sizes), cluster, 24)
        for scheme in schemes
    ]


def _load_summation_order() -> list:
    """Unequal message sizes summed over at least eight heard workers.

    ``np.sum`` adds eight or more values pairwise, so an engine that summed
    each iteration's communication load of fractional sizes in any other
    order (a running ``cumsum``, say) would round differently from the loop
    engine.
    """
    return _sized_jobs(np.random.default_rng(11).uniform(0.1, 1.0, 24))


def _integer_sizes_past_2_53() -> list:
    """Integer-valued message sizes whose total passes ``2**53``.

    Below ``2**53`` every partial sum of integers is exact, so any order
    adds them to ``np.sum``'s float. These sizes (``2**50 * k + j``) total
    about ``70 * 2**50``, where the low bits round away in an order that
    depends on the summation.
    """
    return _sized_jobs([2.0**50 * (1 + j % 5) + j for j in range(24)])


def _signed_zero_ties() -> list:
    """Computation times that tie at ``0.0`` and ``-0.0``, and one that falls.

    ``DeterministicDelay(0.0)`` and ``DeterministicDelay(-0.0)`` workers
    finish at ``0.0`` and ``-0.0`` seconds, which ``==`` calls equal, so
    compare sign bits (``np.signbit``). Which zero the loop's ``np.max``
    reports depends on its reduction order: over eight ``0.0`` and then a
    ``-0.0`` it is ``0.0``, where a running max (and the last entry) is
    ``-0.0``. The first job stops at that ninth arrival of ten. In the
    second, worker 0 (2.0 s) reaches the master together with worker 1
    (0.5 s, whose message holds the serialized link until 2.0 s), which the
    completion order ranks first, so the row is re-sorted by arrival and its
    ranked compute falls from 2.0 to 0.5 at the completing rank. A
    computation time read off the completing entry of every row, or a
    running max's sign kept, breaks these jobs.
    """
    link = LinearCommunicationModel(latency=0.0, seconds_per_unit=1.0)

    def cluster(seconds):
        return ClusterSpec(
            workers=tuple(
                WorkerSpec(compute=DeterministicDelay(value), name=f"w{i}")
                for i, value in enumerate(seconds)
            ),
            communication=link,
        )

    early_stop = IgnoreStragglersScheme(wait_fraction=0.85).build_plan(10, 10)
    return [
        (_with_sizes(early_stop, [1.0] * 10), cluster([0.0] * 8 + [-0.0, 1.0]), 10),
        (
            _with_sizes(UncodedScheme().build_plan(4, 4), [0.0, 1.5, 0.0, 0.0]),
            cluster([2.0, 0.5, -0.0, 0.0]),
            4,
        ),
    ]


def _near_tolerance_decodability() -> list:
    """Eight workers sending two partitions with coefficients ``(1, 1 + e_i)``.

    ``e_i`` runs from 1e-9 to 1e-2 by decades, so one worker alone misses
    the all-ones vector by about ``e_i / 2``: on both sides of the 1e-6
    decoding tolerance. The vectorized engine's stacked certificate decides
    the two smallest and the two largest misses; the four between fall in
    the band it leaves to ``is_decodable``. Any two workers decode. The
    claimed seven stragglers check every arrival.
    """
    code = LinearGradientCode(np.column_stack([np.ones(8), 1.0 + np.logspace(-9, -2, 8)]))
    code.num_stragglers = 7
    plan = ExecutionPlan(
        scheme_name="near-tolerance",
        num_units=2,
        unit_assignment=code.to_assignment(),
        message_sizes=np.ones(8),
        completion=CodedRule(code),
    )
    cluster = ClusterSpec.homogeneous(8, ShiftedExponentialDelay(2.0, 0.1), _jittered())
    return [(plan, cluster, 2)]


#: Jobs whose loop/vectorized agreement rests on one easily broken step of
#: the vectorized engine's tail; each builds ``[(plan, cluster, num_units)]``.
EXACTNESS_HAZARDS = {
    "arrival-ties": _arrival_ties,
    "integer-sizes-past-2**53": _integer_sizes_past_2_53,
    "interleaved-ties": _interleaved_ties,
    "load-summation-order": _load_summation_order,
    "near-tolerance-decodability": _near_tolerance_decodability,
    "signed-zero-ties": _signed_zero_ties,
}


@pytest.fixture
def near_tolerance_job() -> tuple:
    """The near-tolerance-decodability hazard's ``(plan, cluster, num_units)``."""
    (job,) = _near_tolerance_decodability()
    return job


@pytest.fixture(params=sorted(EXACTNESS_HAZARDS))
def exactness_hazard(request) -> list:
    """The ``(plan, cluster, num_units)`` jobs of one exactness hazard."""
    return EXACTNESS_HAZARDS[request.param]()


@pytest.fixture
def block_draws(monkeypatch) -> list:
    """Records, per trial the vectorized engine draws, whether it took the
    exponential block draw."""
    from repro.simulation import vectorized

    taken: list = []
    for name in ("_draw_grid_block", "_draw_timeline_block"):

        def spy(*args, _draw=getattr(vectorized, name), **kwargs):
            result = _draw(*args, **kwargs)
            taken.append(result is not None)
            return result

        monkeypatch.setattr(vectorized, name, spy)
    return taken


@pytest.fixture(scope="session")
def sampler_overrides() -> tuple:
    """``(delay class, link class)`` whose ``sample`` overrides hide their
    streams from the engines."""
    return DoubledDelay, OffsetLink


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic generator shared by tests that need randomness."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_logistic_dataset() -> tuple[Dataset, np.ndarray]:
    """A small instance of the paper's synthetic logistic dataset."""
    config = LogisticDataConfig(num_examples=60, num_features=12)
    return make_paper_logistic_data(config, seed=7)


@pytest.fixture
def small_regression_dataset() -> tuple[Dataset, np.ndarray]:
    """A small linear-regression dataset with known ground truth."""
    return make_linear_regression_data(40, 6, noise_std=0.05, seed=11)


@pytest.fixture
def logistic_model() -> LogisticLoss:
    return LogisticLoss()


@pytest.fixture
def homogeneous_cluster() -> ClusterSpec:
    """A 12-worker homogeneous cluster with mild straggling and cheap comm."""
    return ClusterSpec.homogeneous(
        12,
        ShiftedExponentialDelay(straggling=10.0, shift=0.01),
        LinearCommunicationModel(latency=0.001, seconds_per_unit=0.01, jitter=0.005),
    )


@pytest.fixture
def exponential_cluster() -> ClusterSpec:
    """A 20-worker cluster with unit-rate exponential compute times, free comm."""
    return ClusterSpec.homogeneous(20, ExponentialDelay(straggling=1.0))

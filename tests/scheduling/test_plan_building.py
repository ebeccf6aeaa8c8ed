"""The plan builder plans nothing: tasks carry their cell's own scheme.

Whether one placement may serve several trials is decided once, by the
engine where the task runs (``simulate_job_batch``'s generator-state check,
or a passed :class:`~repro.schemes.base.ExecutionPlan`). The scheduler's
only plan build is the probe that decides whether a two-trial cell batches.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.api import JobSpec, Sweep, TimingSimBackend
from repro.cluster.spec import ClusterSpec
from repro.scheduling import build_sweep_plan
from repro.schemes.base import Scheme
from repro.stragglers.models import ShiftedExponentialDelay

#: Random placements (bcc, cyclic-repetition's coefficients) next to
#: draw-free ones (uncoded, Reed-Solomon, fractional repetition).
SCHEMES = [
    {"name": "bcc", "load": 4},
    {"name": "uncoded"},
    {"name": "reed-solomon", "load": 2},
    {"name": "fractional-repetition", "load": 2},
    {"name": "cyclic-repetition", "load": 2},
]


@pytest.fixture
def plan_builds(monkeypatch):
    """Every ``Scheme.build_feasible_plan`` call made while the test runs."""
    calls = []
    original = Scheme.build_feasible_plan

    def spy(self, *args, **kwargs):
        calls.append(type(self).__name__)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Scheme, "build_feasible_plan", spy)
    return calls


def make_sweep(engine, trials, schemes=SCHEMES):
    base = JobSpec(
        scheme=schemes[0],
        cluster=ClusterSpec.homogeneous(8, ShiftedExponentialDelay(1.0, 0.5)),
        num_units=8,
        num_iterations=2,
        seed=0,
    )
    return Sweep(
        base,
        parameters={"scheme": schemes},
        trials=trials,
        backend=TimingSimBackend(engine=engine),
    )


@pytest.mark.parametrize("engine", ("loop", "vectorized"))
@pytest.mark.parametrize("trial_batching", ("auto", "never"))
def test_no_plan_is_built_for_three_or_more_trials(plan_builds, engine, trial_batching):
    sweep = make_sweep(engine, trials=3)
    plan = build_sweep_plan(sweep, backend=sweep.backend, trial_batching=trial_batching)
    assert plan_builds == []
    assert len(plan.tasks) >= len(SCHEMES)
    for task in plan.tasks:
        assert task.spec.scheme == SCHEMES[task.cell]


def test_a_two_trial_cell_makes_exactly_one_probe_build(plan_builds):
    sweep = make_sweep("vectorized", trials=2, schemes=[{"name": "uncoded"}])
    plan = build_sweep_plan(sweep, backend=sweep.backend)
    assert plan_builds == ["UncodedScheme"]
    assert [task.kind for task in plan.tasks] == ["cell"]
    assert plan.tasks[0].spec.scheme == {"name": "uncoded"}


def test_kind_follows_seeds():
    sweep = make_sweep("vectorized", trials=3, schemes=[{"name": "uncoded"}])
    cell = build_sweep_plan(sweep, backend=sweep.backend).tasks[0]
    assert cell.seeds is not None and cell.kind == "cell"
    trial = dataclasses.replace(cell, seeds=None)
    assert trial.kind == "trial"
    with pytest.raises(TypeError):  # derived, never stored
        dataclasses.replace(cell, kind="trial")

"""Golden-seed regression fixtures for the paper-figure drivers.

Small fixed-seed runs of the ``fig2`` and ``fig4`` drivers are snapshotted
as JSON under ``tests/experiments/golden/``; these tests regenerate the runs
and diff them against the snapshots. Any engine or RNG-contract refactor
that silently drifts the paper figures fails here, with the exact metric
named — the complement of the pairwise engine-equivalence suites, which
cannot see a drift that moves *both* engines together.

Regenerate the snapshots (after an *intentional* output change) with::

    PYTHONPATH=src python tests/experiments/test_golden_fixtures.py

The snapshots pin one seed each. The Monte-Carlo agreement test below pins
the distribution behind them: it reruns both configurations over seeds
0-19 and compares each simulated value's mean with statistics stored in
``golden/shared_generator_statistics.json``. Those statistics were computed
under the drivers' former seeding, one generator threaded through every
cell in order, before the switch to spawned per-(cell, trial) seeds; the
test proves that switch moved no curve beyond Monte-Carlo noise.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Dict

import numpy as np
import pytest

from repro.experiments.fig2 import run_fig2
from repro.experiments.fig4 import ScenarioConfig, run_scenario

GOLDEN_DIR = Path(__file__).parent / "golden"

#: Comparison tolerance: loose enough for cross-platform libm wiggle, tight
#: enough that any real change of the simulated draws or accounting fails.
RELATIVE_TOLERANCE = 1e-9


def generate_fig2(rng: int = 7) -> dict:
    """A scaled-down Fig. 2 run at a fixed seed, as plain JSON data."""
    result = run_fig2(
        num_examples=40, num_workers=40, monte_carlo_trials=5, rng=rng
    )
    return {
        "num_examples": result.num_examples,
        "num_workers": result.num_workers,
        "loads": [int(load) for load in result.loads],
        "curves": {
            name: [float(value) for value in values]
            for name, values in sorted(result.curves.items())
        },
        "simulated": {
            name: [float(value) for value in values]
            for name, values in sorted(result.simulated.items())
        },
    }


def generate_fig4(rng: int = 3) -> dict:
    """A scaled-down Table I (Fig. 4 scenario one) run at a fixed seed."""
    config = ScenarioConfig.scenario_one(num_iterations=5)
    result = run_scenario(config, rng=rng)
    return {
        "scenario": config.name,
        "rows": {
            scheme: {
                key: (float(value) if key != "scheme" else value)
                for key, value in result.row(scheme).items()
            }
            for scheme in sorted(result.jobs)
        },
    }


FIXTURES = {
    "fig2_m40_n40_seed7.json": generate_fig2,
    "fig4_scenario_one_5iter_seed3.json": generate_fig4,
}

#: The seeds and the stored statistics of the Monte-Carlo agreement test.
AGREEMENT_SEEDS = range(20)
AGREEMENT_STATISTICS = GOLDEN_DIR / "shared_generator_statistics.json"

#: Two-sided 99% normal quantile: the largest |z| the agreement test admits.
AGREEMENT_Z = 2.576


def simulated_values(rng: int) -> Dict[str, float]:
    """The 28 Monte-Carlo values of both golden configurations at one seed.

    Fig. 2 contributes its simulated BCC and randomized thresholds (the
    analytic curves draw nothing); Fig. 4 contributes every numeric metric
    of every scheme's row. Keys are the values' paths in the golden JSON.
    """
    values: Dict[str, float] = {}
    for name, series in generate_fig2(rng)["simulated"].items():
        for index, value in enumerate(series):
            values[f"fig2/simulated/{name}[{index}]"] = value
    for scheme, row in generate_fig4(rng)["rows"].items():
        for metric, value in row.items():
            if metric != "scheme":
                values[f"fig4/rows/{scheme}/{metric}"] = value
    return values


def seed_statistics(seeds) -> Dict[str, Dict[str, float]]:
    """Mean and standard error of every simulated value over ``seeds``."""
    runs = [simulated_values(seed) for seed in seeds]
    statistics = {}
    for key in runs[0]:
        samples = np.array([run[key] for run in runs])
        statistics[key] = {
            "mean": float(samples.mean()),
            "sem": float(samples.std(ddof=1) / math.sqrt(len(samples))),
        }
    return statistics


def _assert_matches(expected, actual, path=""):
    """Recursive diff with a relative tolerance on floats, exact elsewhere."""
    if isinstance(expected, dict):
        assert isinstance(actual, dict), f"{path}: expected a mapping"
        assert sorted(expected) == sorted(actual), f"{path}: keys differ"
        for key in expected:
            _assert_matches(expected[key], actual[key], f"{path}/{key}")
    elif isinstance(expected, list):
        assert len(expected) == len(actual), f"{path}: lengths differ"
        for index, (left, right) in enumerate(zip(expected, actual)):
            _assert_matches(left, right, f"{path}[{index}]")
    elif isinstance(expected, float):
        assert actual == pytest.approx(
            expected, rel=RELATIVE_TOLERANCE, abs=1e-12
        ), f"{path}: {actual!r} drifted from the golden {expected!r}"
    else:
        assert expected == actual, f"{path}: {actual!r} != golden {expected!r}"


@pytest.mark.parametrize("fixture", sorted(FIXTURES))
def test_driver_output_matches_golden_snapshot(fixture):
    golden_path = GOLDEN_DIR / fixture
    assert golden_path.exists(), (
        f"missing golden fixture {golden_path}; regenerate with "
        "`PYTHONPATH=src python tests/experiments/test_golden_fixtures.py`"
    )
    expected = json.loads(golden_path.read_text())
    actual = FIXTURES[fixture]()
    _assert_matches(expected, actual, path=fixture)


def test_spawned_seeds_agree_with_shared_generator_statistics():
    stored = json.loads(AGREEMENT_STATISTICS.read_text())
    assert stored["seeds"] == list(AGREEMENT_SEEDS)
    expected = stored["values"]
    actual = seed_statistics(AGREEMENT_SEEDS)
    assert sorted(actual) == sorted(expected) and len(actual) == 28
    for key, old in expected.items():
        new = actual[key]
        spread = math.hypot(old["sem"], new["sem"])
        if spread == 0.0:
            # A value no seed moves (e.g. uncoded's threshold) must not move.
            assert new["mean"] == old["mean"], key
            continue
        z = (new["mean"] - old["mean"]) / spread
        assert abs(z) <= AGREEMENT_Z, (
            f"{key}: spawned-seed mean {new['mean']!r} is {z:+.2f} standard "
            f"errors from the stored mean {old['mean']!r}"
        )


def test_fixture_regeneration_is_deterministic():
    # The generators must be pure functions of their fixed seeds, otherwise
    # the snapshots could never be trusted in the first place.
    assert generate_fig2() == generate_fig2()


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, generate in FIXTURES.items():
        path = GOLDEN_DIR / name
        path.write_text(json.dumps(generate(), indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")

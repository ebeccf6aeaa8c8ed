"""Reproduction of the paper's Fig. 2: recovery threshold vs computational load.

The figure compares, for ``m = n = 100``, the lower bound ``m/r``, the BCC
scheme, the simple randomized scheme and the cyclic-repetition scheme. This
driver evaluates the analytical curves via :mod:`repro.analysis.tradeoff` and
additionally estimates the BCC and randomized thresholds by Monte-Carlo
simulation of the corresponding stopping rules, so the closed forms are
cross-checked against the actual schemes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.analysis.tradeoff import tradeoff_curves
from repro.api import JobSpec, Sweep, run_sweep
from repro.cluster.spec import ClusterSpec
from repro.stragglers.models import ExponentialDelay
from repro.utils.rng import RandomState, as_generator
from repro.utils.tables import TextTable
from repro.utils.validation import check_positive_int

__all__ = ["Fig2Result", "run_fig2"]


@dataclass
class Fig2Result:
    """The four Fig. 2 curves plus Monte-Carlo cross-checks.

    Attributes
    ----------
    loads:
        Computational loads ``r`` on the x-axis.
    curves:
        Mapping scheme name -> analytic recovery thresholds, aligned with
        ``loads``.
    simulated:
        Mapping scheme name -> Monte-Carlo estimates (only for the schemes
        whose threshold is random: ``bcc`` and ``randomized``).
    """

    num_examples: int
    num_workers: int
    loads: List[int]
    curves: Dict[str, List[float]] = field(default_factory=dict)
    simulated: Dict[str, List[float]] = field(default_factory=dict)
    estimate_label: str = "sim"

    def render(self) -> str:
        """Monospace table with one row per load and one column per curve."""
        headers = ["r", *sorted(self.curves)]
        if self.simulated:
            headers += [
                f"{name} ({self.estimate_label})" for name in sorted(self.simulated)
            ]
        table = TextTable(
            headers,
            title=(
                f"Fig. 2 — recovery threshold vs computational load "
                f"(m={self.num_examples}, n={self.num_workers})"
            ),
        )
        for index, load in enumerate(self.loads):
            row: List[object] = [load]
            row += [self.curves[name][index] for name in sorted(self.curves)]
            row += [self.simulated[name][index] for name in sorted(self.simulated)]
            table.add_row(row)
        return table.render()


def _simulate_thresholds(
    loads: Sequence[int],
    num_units: int,
    num_workers: int,
    trials: int,
    rng: np.random.Generator,
    backend: str = "timing",
) -> Dict[str, List[float]]:
    """Estimate the BCC and randomized stopping rules over every load.

    One `run_sweep` grid covers the whole (load x scheme) plane. With the
    default ``"timing"`` backend each trial re-draws the random placement and
    simulates a single iteration, so the trial-averaged recovery threshold
    estimates the schemes' random thresholds Monte-Carlo style; every
    (load, scheme, trial) runs at its own seed spawned from ``rng``, so the
    trials are independent and the grid is free to batch or parallelize.
    With ``backend="analytic"`` the same grid returns the closed-form
    expected thresholds instead — no iteration is simulated and ``trials``
    collapses to one evaluation.
    """
    cluster = ClusterSpec.homogeneous(num_workers, ExponentialDelay(straggling=1.0))
    base = JobSpec(
        scheme="bcc",
        cluster=cluster,
        num_units=num_units,
        num_iterations=1,
        serialize_master_link=False,
        seed=rng,
    )
    sweep = Sweep(
        base,
        parameters={
            "scheme.load": [int(load) for load in loads],
            "scheme.name": ["bcc", "randomized"],
        },
        trials=1 if backend == "analytic" else trials,
        backend=backend,
    )
    simulated: Dict[str, List[float]] = {"bcc": [], "randomized": []}
    result = run_sweep(sweep)
    for cell in range(result.num_cells):
        records = result.cell_records(cell)
        name = str(records[0].params["scheme.name"])
        counts = [record.result.average_recovery_threshold for record in records]
        simulated[name].append(float(np.mean(counts)))
    return simulated


def run_fig2(
    num_examples: int = 100,
    num_workers: int = 100,
    loads: Optional[Sequence[int]] = None,
    *,
    monte_carlo_trials: int = 30,
    rng: RandomState = 0,
    backend: str = "timing",
) -> Fig2Result:
    """Compute the Fig. 2 curves (and Monte-Carlo or analytic cross-checks).

    Parameters
    ----------
    num_examples, num_workers:
        Figure uses ``m = n = 100``.
    loads:
        The computational loads ``r`` to evaluate; defaults to
        ``5, 10, ..., 50`` (the figure's x-axis range).
    monte_carlo_trials:
        Trials per load for the simulated BCC / randomized thresholds; set to
        0 to skip the cross-check columns entirely.
    backend:
        ``"timing"`` (default) estimates the random thresholds by Monte-Carlo
        simulation; ``"analytic"`` evaluates them in closed form through the
        :class:`~repro.api.backends.AnalyticBackend`, so the figure
        regenerates without simulating a single iteration.
    """
    m = check_positive_int(num_examples, "num_examples")
    n = check_positive_int(num_workers, "num_workers")
    if loads is None:
        # The figure's grid, restricted to loads that fit the dataset.
        loads = [load for load in range(5, 51, 5) if load <= m] or [max(m // 2, 1)]
    loads = [int(load) for load in loads]
    generator = as_generator(rng)

    analytic = tradeoff_curves(m, n, loads)
    curves = {
        name: [point.recovery_threshold for point in points]
        for name, points in analytic.items()
    }

    simulated: Dict[str, List[float]] = {}
    if monte_carlo_trials > 0:
        simulated = _simulate_thresholds(
            loads, m, n, monte_carlo_trials, generator, backend=backend
        )

    return Fig2Result(
        num_examples=m,
        num_workers=n,
        loads=loads,
        curves=curves,
        simulated=simulated,
        estimate_label="analytic" if backend == "analytic" else "sim",
    )

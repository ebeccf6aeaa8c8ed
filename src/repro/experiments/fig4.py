"""Reproduction of Fig. 4 and Tables I / II: EC2-style running-time comparison.

The paper runs 100 iterations of Nesterov-accelerated logistic regression
under three schemes (uncoded, cyclic repetition, BCC) in two scenarios:

* scenario one — ``n = 50`` workers, ``m = 50`` data batches of 100 points;
* scenario two — ``n = 100`` workers, ``m = 100`` data batches of 100 points;

with computational load ``r = 10`` batches for the coded/BCC schemes. The
driver here runs the same configuration on the EC2-like simulated cluster and
reports the same breakdown rows as Tables I and II (recovery threshold,
communication time, computation time, total running time) plus the relative
speed-ups quoted in the text.

By default the run is timing-only (the table's numbers do not depend on the
actual gradient values); pass ``semantic=True`` to also train the paper's
logistic model under simulated time and obtain the loss trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.api import JobSpec, Sweep, Workload, run_sweep
from repro.datasets.batching import make_batches
from repro.datasets.synthetic import LogisticDataConfig, make_paper_logistic_data
from repro.experiments.ec2 import EC2LikeConfig, ec2_like_cluster
from repro.gradients.logistic import LogisticLoss
from repro.optim.nesterov import NesterovAcceleratedGradient
from repro.optim.schedules import ConstantSchedule
from repro.schemes.base import Scheme
from repro.schemes.bcc import BCCScheme
from repro.schemes.coded import CyclicRepetitionScheme
from repro.schemes.uncoded import UncodedScheme
from repro.simulation.job import JobResult
from repro.utils.rng import RandomState, as_generator
from repro.utils.tables import TextTable
from repro.utils.validation import check_positive_int

__all__ = ["ScenarioConfig", "ScenarioResult", "run_scenario", "default_schemes"]


@dataclass(frozen=True)
class ScenarioConfig:
    """Configuration of one Fig. 4 scenario.

    The defaults correspond to the paper's scenario one; ``scenario_two()``
    builds the other.
    """

    name: str = "scenario-one"
    num_workers: int = 50
    num_batches: int = 50
    points_per_batch: int = 100
    load: int = 10
    num_iterations: int = 100
    num_features: int = 8000
    ec2: EC2LikeConfig = field(default_factory=EC2LikeConfig)

    def __post_init__(self) -> None:
        check_positive_int(self.num_workers, "num_workers")
        check_positive_int(self.num_batches, "num_batches")
        check_positive_int(self.points_per_batch, "points_per_batch")
        check_positive_int(self.load, "load")
        check_positive_int(self.num_iterations, "num_iterations")
        check_positive_int(self.num_features, "num_features")

    @classmethod
    def scenario_one(cls, **overrides) -> "ScenarioConfig":
        """The paper's scenario one (n = 50, m = 50 batches)."""
        return cls(name="scenario-one", num_workers=50, num_batches=50, **overrides)

    @classmethod
    def scenario_two(cls, **overrides) -> "ScenarioConfig":
        """The paper's scenario two (n = 100, m = 100 batches)."""
        return cls(name="scenario-two", num_workers=100, num_batches=100, **overrides)

    @property
    def num_examples(self) -> int:
        """Total number of training examples."""
        return self.num_batches * self.points_per_batch


def default_schemes(config: ScenarioConfig) -> Dict[str, Scheme]:
    """The three schemes compared in Fig. 4, keyed by report name."""
    return {
        "uncoded": UncodedScheme(),
        "cyclic-repetition": CyclicRepetitionScheme(config.load),
        "bcc": BCCScheme(config.load),
    }


@dataclass
class ScenarioResult:
    """Per-scheme breakdown rows (Tables I / II) for one scenario."""

    config: ScenarioConfig
    jobs: Dict[str, JobResult] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    def row(self, scheme: str) -> dict:
        """The table row for one scheme (paper's column order)."""
        job = self.jobs[scheme]
        return {
            "scheme": scheme,
            "recovery_threshold": job.average_recovery_threshold,
            "communication_time": job.total_communication_time,
            "computation_time": job.total_computation_time,
            "total_time": job.total_time,
        }

    def speedup_over(self, scheme: str, baseline: str) -> float:
        """Relative reduction in total running time of ``scheme`` vs ``baseline``.

        The paper quotes e.g. "BCC speeds up the job execution by 85.4 % over
        the uncoded scheme", which is ``1 - total(BCC) / total(uncoded)``.
        """
        return 1.0 - self.jobs[scheme].total_time / self.jobs[baseline].total_time

    def render(self) -> str:
        """Monospace rendering of the Table I / II breakdown."""
        table = TextTable(
            [
                "scheme",
                "recovery threshold",
                "communication time (s)",
                "computation time (s)",
                "total running time (s)",
            ],
            title=(
                f"{self.config.name}: n={self.config.num_workers}, "
                f"m={self.config.num_batches} batches x "
                f"{self.config.points_per_batch} points, r={self.config.load}, "
                f"{self.config.num_iterations} iterations"
            ),
        )
        for scheme in self.jobs:
            row = self.row(scheme)
            table.add_row(
                [
                    row["scheme"],
                    row["recovery_threshold"],
                    row["communication_time"],
                    row["computation_time"],
                    row["total_time"],
                ]
            )
        return table.render()


def run_scenario(
    config: Optional[ScenarioConfig] = None,
    *,
    schemes: Optional[Dict[str, Scheme]] = None,
    rng: RandomState = 0,
    semantic: bool = False,
    num_iterations: Optional[int] = None,
    backend: Optional[str] = None,
) -> ScenarioResult:
    """Run one Fig. 4 scenario on the EC2-like simulated cluster.

    Parameters
    ----------
    config:
        Scenario parameters; defaults to scenario one.
    schemes:
        Mapping report-name -> scheme; defaults to the paper's three.
    semantic:
        If True, generate the paper's synthetic logistic dataset and actually
        train it with Nesterov's method under simulated time (slower; the
        timing breakdown is identical in distribution to the timing-only run).
    num_iterations:
        Override the scenario's iteration count (useful for quick checks).
    backend:
        Override the timing-only backend: ``"analytic"`` regenerates the
        Table I/II breakdown from the closed forms instead of Monte-Carlo
        simulation (ignored when ``semantic=True``).
    """
    config = config or ScenarioConfig.scenario_one()
    if num_iterations is not None:
        config = ScenarioConfig(
            name=config.name,
            num_workers=config.num_workers,
            num_batches=config.num_batches,
            points_per_batch=config.points_per_batch,
            load=config.load,
            num_iterations=int(num_iterations),
            num_features=config.num_features,
            ec2=config.ec2,
        )
    schemes = schemes or default_schemes(config)
    generator = as_generator(rng)
    cluster = ec2_like_cluster(config.num_workers, config.ec2)

    base = JobSpec(
        scheme=next(iter(schemes.values())),
        cluster=cluster,
        num_iterations=config.num_iterations,
        serialize_master_link=False,
        seed=generator,
    )
    if not semantic:
        base = base.replace(
            num_units=config.num_batches, unit_size=config.points_per_batch
        )
        backend = backend or "timing"
    else:
        data_config = LogisticDataConfig(
            num_examples=config.num_examples, num_features=config.num_features
        )
        dataset, _true_weights = make_paper_logistic_data(data_config, seed=generator)
        unit_spec = make_batches(dataset.num_examples, config.points_per_batch)
        base = base.replace(
            workload=Workload(
                model=LogisticLoss(),
                dataset=dataset,
                optimizer=NesterovAcceleratedGradient(ConstantSchedule(0.5)),
                unit_spec=unit_spec,
            )
        )
        backend = "semantic"

    sweep = Sweep(
        base,
        parameters={"scheme": list(schemes.values())},
        backend=backend,
    )
    result = ScenarioResult(config=config)
    for name, record in zip(schemes, run_sweep(sweep).records):
        result.jobs[name] = record.result
    return result

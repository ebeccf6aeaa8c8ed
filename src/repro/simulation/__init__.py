"""Discrete-event simulation of distributed gradient descent.

The simulator substitutes for the paper's EC2 cluster: per-worker computation
times are drawn from the cluster's delay models, messages are delivered to
the master through a (by default serialised) ingress link whose transfer time
scales with the message size, and the scheme's aggregator decides when the
iteration ends. Two modes are supported:

* **timing-only** — no numerical gradients are computed; this is what the
  figure/table benchmarks use and it runs thousands of simulated iterations
  per second.
* **semantic** — the workers' messages are real encoded gradients and the
  master's decoded gradient drives an optimizer, so a whole training run can
  be executed under simulated time while also checking numerical exactness.
"""

from repro.simulation.execution import (
    unit_gradient_matrix,
    worker_message,
    distributed_gradient,
)
from repro.simulation.iteration import IterationOutcome, simulate_iteration
from repro.simulation.job import JobResult, simulate_job, simulate_training_run
from repro.simulation.vectorized import (
    ENGINES,
    resolve_engine,
    simulate_job_batch,
    simulate_job_vectorized,
    validate_engine,
)

__all__ = [
    "unit_gradient_matrix",
    "worker_message",
    "distributed_gradient",
    "IterationOutcome",
    "simulate_iteration",
    "JobResult",
    "simulate_job",
    "simulate_training_run",
    "ENGINES",
    "resolve_engine",
    "simulate_job_batch",
    "simulate_job_vectorized",
    "validate_engine",
]

"""repro — a reproduction of "Near-Optimal Straggler Mitigation for Distributed
Gradient Methods" (Li, Mousavi Kalan, Avestimehr, Soltanolkotabi).

The package implements the Batched Coupon's Collector (BCC) scheme, every
baseline the paper compares against (uncoded, simple randomized, cyclic
repetition / Reed-Solomon / fractional repetition gradient codes, the
heterogeneous LB and generalized-BCC strategies), the analytical results
(Theorems 1 and 2, the coupon-collector machinery), a discrete-event cluster
simulator, a real multiprocessing runtime, and the experiment drivers that
regenerate every table and figure of the paper's evaluation.

Quickstart
----------
>>> from repro import BCCScheme, UncodedScheme, simulate_job
>>> from repro.experiments import ec2_like_cluster
>>> cluster = ec2_like_cluster(num_workers=50)
>>> bcc = simulate_job(BCCScheme(load=10), cluster, num_units=50,
...                    num_iterations=10, rng=0, unit_size=100,
...                    serialize_master_link=False)
>>> uncoded = simulate_job(UncodedScheme(), cluster, num_units=50,
...                        num_iterations=10, rng=0, unit_size=100,
...                        serialize_master_link=False)
>>> bcc.total_time < uncoded.total_time
True
"""

from repro.datasets import Dataset, make_paper_logistic_data, LogisticDataConfig
from repro.gradients import LogisticLoss, LeastSquaresLoss, RidgeLoss, SoftmaxLoss, HuberLoss
from repro.optim import (
    GradientDescent,
    NesterovAcceleratedGradient,
    HeavyBallMomentum,
    ConstantSchedule,
    train,
)
from repro.schemes import (
    Scheme,
    ExecutionPlan,
    BCCScheme,
    UncodedScheme,
    SimpleRandomizedScheme,
    CyclicRepetitionScheme,
    ReedSolomonScheme,
    FractionalRepetitionScheme,
    GeneralizedBCCScheme,
    LoadBalancedScheme,
    register_scheme,
    available_schemes,
    scheme_from_config,
)
from repro.cluster import ClusterSpec, WorkerSpec, solve_p2_allocation
from repro.stragglers import (
    ShiftedExponentialDelay,
    ExponentialDelay,
    DeterministicDelay,
    ParetoDelay,
    BimodalStragglerDelay,
    LinearCommunicationModel,
)
from repro.simulation import simulate_iteration, simulate_job, simulate_training_run, distributed_gradient
from repro.runtime import run_distributed_job
from repro.api import (
    JobSpec,
    Workload,
    RunResult,
    Backend,
    TimingSimBackend,
    SemanticSimBackend,
    MultiprocessBackend,
    run,
    Sweep,
    SweepResult,
    run_sweep,
)
from repro.analysis import (
    bcc_recovery_threshold,
    lower_bound_recovery_threshold,
    cyclic_repetition_recovery_threshold,
    randomized_recovery_threshold,
    theorem1_bounds,
    theorem2_bounds,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # datasets
    "Dataset",
    "make_paper_logistic_data",
    "LogisticDataConfig",
    # gradients
    "LogisticLoss",
    "LeastSquaresLoss",
    "RidgeLoss",
    "SoftmaxLoss",
    "HuberLoss",
    # optimizers
    "GradientDescent",
    "NesterovAcceleratedGradient",
    "HeavyBallMomentum",
    "ConstantSchedule",
    "train",
    # schemes
    "Scheme",
    "ExecutionPlan",
    "BCCScheme",
    "UncodedScheme",
    "SimpleRandomizedScheme",
    "CyclicRepetitionScheme",
    "ReedSolomonScheme",
    "FractionalRepetitionScheme",
    "GeneralizedBCCScheme",
    "LoadBalancedScheme",
    "register_scheme",
    "available_schemes",
    "scheme_from_config",
    # unified API
    "JobSpec",
    "Workload",
    "RunResult",
    "Backend",
    "TimingSimBackend",
    "SemanticSimBackend",
    "MultiprocessBackend",
    "run",
    "Sweep",
    "SweepResult",
    "run_sweep",
    # cluster
    "ClusterSpec",
    "WorkerSpec",
    "solve_p2_allocation",
    # stragglers
    "ShiftedExponentialDelay",
    "ExponentialDelay",
    "DeterministicDelay",
    "ParetoDelay",
    "BimodalStragglerDelay",
    "LinearCommunicationModel",
    # simulation & runtime
    "simulate_iteration",
    "simulate_job",
    "simulate_training_run",
    "distributed_gradient",
    "run_distributed_job",
    # analysis
    "bcc_recovery_threshold",
    "lower_bound_recovery_threshold",
    "cyclic_repetition_recovery_threshold",
    "randomized_recovery_threshold",
    "theorem1_bounds",
    "theorem2_bounds",
]

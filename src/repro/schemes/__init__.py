"""Distributed gradient-descent schemes (the paper's core subject).

A *scheme* decides three things:

1. **Placement** — which data units each worker processes (a unit is a
   training example, or a batch treated as a "super example" as in the
   paper's experiments).
2. **Encoding** — how a worker turns the partial gradients of its units into
   the message it sends the master.
3. **Aggregation** — when the master has heard from enough workers, and how
   it reconstructs the full gradient from the messages it kept.

Calling :meth:`Scheme.build_plan` freezes the (possibly random) placement for
a job and returns an :class:`ExecutionPlan`, which both the discrete-event
simulator (:mod:`repro.simulation`) and the multiprocessing runtime
(:mod:`repro.runtime`) consume.

Available schemes:

* :class:`BCCScheme` — the paper's Batched Coupon's Collector (Section III).
* :class:`UncodedScheme` — disjoint split, wait for all workers.
* :class:`SimpleRandomizedScheme` — random subsets, per-example messages
  (the "prior art" baseline of Eq. 5–6).
* :class:`CyclicRepetitionScheme`, :class:`ReedSolomonScheme`,
  :class:`FractionalRepetitionScheme` — the coding-theoretic baselines
  (references [7]–[9]).
* :class:`GeneralizedBCCScheme` — the heterogeneous extension (Section IV).
* :class:`LoadBalancedScheme` — the heterogeneous "LB" baseline of Fig. 5.
"""

from repro.schemes.base import (
    Scheme,
    ExecutionPlan,
    MasterAggregator,
    CountAggregator,
    BatchCoverageAggregator,
    UnitCoverageAggregator,
    CodedAggregator,
)
from repro.schemes.bcc import BCCScheme
from repro.schemes.uncoded import UncodedScheme
from repro.schemes.randomized import SimpleRandomizedScheme
from repro.schemes.coded import (
    CyclicRepetitionScheme,
    ReedSolomonScheme,
    FractionalRepetitionScheme,
)
from repro.schemes.heterogeneous import GeneralizedBCCScheme, LoadBalancedScheme
from repro.schemes.approximate import IgnoreStragglersScheme, PartialSumAggregator
from repro.schemes.registry import (
    register_scheme,
    available_schemes,
    get_scheme_class,
    scheme_accepts,
    scheme_from_config,
)

__all__ = [
    "Scheme",
    "ExecutionPlan",
    "MasterAggregator",
    "CountAggregator",
    "BatchCoverageAggregator",
    "UnitCoverageAggregator",
    "CodedAggregator",
    "BCCScheme",
    "UncodedScheme",
    "SimpleRandomizedScheme",
    "CyclicRepetitionScheme",
    "ReedSolomonScheme",
    "FractionalRepetitionScheme",
    "GeneralizedBCCScheme",
    "LoadBalancedScheme",
    "IgnoreStragglersScheme",
    "PartialSumAggregator",
    "register_scheme",
    "available_schemes",
    "get_scheme_class",
    "scheme_accepts",
    "scheme_from_config",
]

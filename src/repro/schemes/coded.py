"""Coding-theoretic baselines: cyclic repetition, Reed-Solomon style, fractional repetition.

These are the straggler-mitigation schemes the paper compares against
(references [7]–[9]). All three operate on ``m = n`` data partitions (when
the job has more units than workers the caller groups units into ``n``
partitions first — the simulator and runtime do this automatically via the
unit granularity), tolerate ``s = load - 1`` stragglers in the worst case,
and send a single coded vector per worker, so ``K = L = n - s = m - r + 1``.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.analysis.thresholds import (
    cyclic_repetition_communication_load,
    cyclic_repetition_recovery_threshold,
)
from repro.coding.cyclic_repetition import CyclicRepetitionCode
from repro.coding.fractional import FractionalRepetitionCode
from repro.coding.linear_code import LinearGradientCode
from repro.coding.reed_solomon import ReedSolomonStyleCode
from repro.cluster.spec import ClusterSpec
from repro.analysis.analytic import (
    AnalyticIteration,
    DEFAULT_QUANTILES,
    fractional_group_runtime,
    homogeneous_compute_parameters,
    order_statistic_runtime,
    transfer_parameters,
)
from repro.exceptions import ConfigurationError
from repro.schemes.base import CodedRule, ExecutionPlan, Scheme
from repro.schemes.registry import register_scheme
from repro.utils.rng import RandomState, as_generator
from repro.utils.validation import check_positive_int

__all__ = [
    "CyclicRepetitionScheme",
    "ReedSolomonScheme",
    "FractionalRepetitionScheme",
]


class _LinearCodeScheme(Scheme):
    """Shared plumbing for schemes backed by a :class:`LinearGradientCode`.

    Parameters
    ----------
    load:
        Computational load ``r``; the code tolerates ``r - 1`` stragglers.
    check_every:
        Run the master's (O(n^3) rank) decodability test only every this many
        arrivals once the worst-case threshold ``n - s`` is reached. ``1``
        (the default) checks every arrival past the threshold.
    """

    name = "linear-code"

    def __init__(self, load: int, check_every: int = 1) -> None:
        self.load = check_positive_int(load, "load")
        self.check_every = check_positive_int(check_every, "check_every")

    # Subclasses build the concrete code for ``num_workers`` workers.
    def _build_code(self, num_workers: int, rng: RandomState) -> LinearGradientCode:
        raise NotImplementedError

    def build_plan(
        self, num_units: int, num_workers: int, rng: RandomState = None
    ) -> ExecutionPlan:
        m = check_positive_int(num_units, "num_units")
        n = check_positive_int(num_workers, "num_workers")
        if m != n:
            raise ConfigurationError(
                f"{self.name} operates on one data partition per worker "
                f"(m = n); got m={m}, n={n}. Group the units into n partitions "
                "first (the simulator's unit granularity does this)."
            )
        if self.load > m:
            raise ConfigurationError(
                f"load {self.load} exceeds the number of data units {m}"
            )
        code = self._build_code(n, rng)
        return ExecutionPlan(
            scheme_name=self.name,
            num_units=m,
            unit_assignment=code.to_assignment(),
            message_sizes=np.ones(n),
            completion=CodedRule(code, self.check_every),
            metadata={"code": code, "load": self.load},
        )

    def _check_analytic_dimensions(self, num_units: int, num_workers: int) -> None:
        m = check_positive_int(num_units, "num_units")
        if m != num_workers:
            raise ConfigurationError(
                f"{self.name} operates on one data partition per worker "
                f"(m = n); got m={m}, n={num_workers}. Group the units into "
                "n partitions first (the simulator's unit granularity does this)."
            )
        if self.load > m:
            raise ConfigurationError(
                f"load {self.load} exceeds the number of data units {m}"
            )

    def analytic_runtime(
        self,
        cluster: ClusterSpec,
        num_units: int,
        *,
        unit_size: int = 1,
        serialize_master_link: bool = True,
        quantiles: Sequence[float] = DEFAULT_QUANTILES,
    ) -> AnalyticIteration:
        """Closed form: the ``(n - r + 1)``-th order statistic of the arrivals.

        The worst-case code designs decode after exactly ``n - s = n - r + 1``
        workers regardless of which workers straggle, so the stopping index
        is deterministic and the iteration time is a plain order statistic.
        """
        n = cluster.num_workers
        self._check_analytic_dimensions(num_units, n)
        det_e, tail_e = homogeneous_compute_parameters(cluster)
        fixed, jitter = transfer_parameters(cluster.communication, 1.0)
        examples = self.load * unit_size
        return order_statistic_runtime(
            scheme=self.name,
            num_workers=n,
            threshold=float(n - self.load + 1),
            compute_deterministic=det_e * examples,
            compute_tail_mean=tail_e * examples,
            transfer_fixed=fixed,
            transfer_jitter_mean=jitter,
            message_size=1.0,
            serialize_master_link=serialize_master_link,
            quantiles=quantiles,
        )

    def expected_recovery_threshold(
        self, num_units: int, num_workers: int
    ) -> Optional[float]:
        return cyclic_repetition_recovery_threshold(num_units, self.load)

    def expected_communication_load(
        self, num_units: int, num_workers: int
    ) -> Optional[float]:
        return cyclic_repetition_communication_load(num_units, self.load)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(load={self.load})"


@register_scheme("cyclic-repetition")
class CyclicRepetitionScheme(_LinearCodeScheme):
    """The cyclic-repetition gradient-coding scheme of Tandon et al. [7].

    Each worker holds ``load`` cyclically consecutive partitions and sends a
    designed linear combination of their gradient sums; the master decodes
    after hearing from the fastest ``n - load + 1`` workers regardless of
    which ``load - 1`` workers straggle.
    """

    name = "cyclic-repetition"

    def _build_code(self, num_workers: int, rng: RandomState) -> LinearGradientCode:
        # The coefficient draw is part of the (offline) code design; derive it
        # from the supplied generator so runs remain reproducible.
        seed = as_generator(rng)
        return CyclicRepetitionCode.from_load(num_workers, self.load, seed=seed)


@register_scheme("reed-solomon")
class ReedSolomonScheme(_LinearCodeScheme):
    """Deterministic Reed-Solomon-style variant (references [8], [9]).

    Identical load / threshold to the cyclic-repetition scheme; the code
    coefficients are deterministic rather than randomly drawn.
    """

    name = "reed-solomon"

    def _build_code(self, num_workers: int, rng: RandomState) -> LinearGradientCode:
        return ReedSolomonStyleCode(num_workers, self.load - 1)


@register_scheme("fractional-repetition")
class FractionalRepetitionScheme(_LinearCodeScheme):
    """The fractional-repetition scheme of Tandon et al. [7].

    Requires ``load | n``. Workers are organised into ``load`` groups that
    each replicate the whole dataset; the master decodes as soon as one group
    has fully reported — guaranteed within ``n - load + 1`` arrivals but
    frequently earlier (the opportunistic behaviour noted in the paper's
    footnote 2).
    """

    name = "fractional-repetition"

    def _build_code(self, num_workers: int, rng: RandomState) -> LinearGradientCode:
        return FractionalRepetitionCode(num_workers, self.load - 1)

    def analytic_runtime(
        self,
        cluster: ClusterSpec,
        num_units: int,
        *,
        unit_size: int = 1,
        serialize_master_link: bool = True,
        quantiles: Sequence[float] = DEFAULT_QUANTILES,
    ) -> AnalyticIteration:
        """Closed form for the opportunistic stopping rule.

        The master decodes when the first of the ``r`` replication groups has
        fully reported, i.e. at the *minimum over groups of the group-wise
        maximum* — an alternating harmonic sum in closed form (parallel
        link), or the exact expected stopping index fed to the serialised
        recurrence (serialised link). This is the opportunistic behaviour of
        the paper's footnote 2, frequently much earlier than the worst-case
        ``n - r + 1``.
        """
        n = cluster.num_workers
        self._check_analytic_dimensions(num_units, n)
        if n % self.load != 0:
            raise ConfigurationError(
                f"the fractional repetition scheme requires (s + 1) | n; "
                f"got n={n}, s={self.load - 1}"
            )
        det_e, tail_e = homogeneous_compute_parameters(cluster)
        fixed, jitter = transfer_parameters(cluster.communication, 1.0)
        examples = self.load * unit_size
        return fractional_group_runtime(
            scheme=self.name,
            num_groups=self.load,
            group_size=n // self.load,
            compute_deterministic=det_e * examples,
            compute_tail_mean=tail_e * examples,
            transfer_fixed=fixed,
            transfer_jitter_mean=jitter,
            message_size=1.0,
            serialize_master_link=serialize_master_link,
            quantiles=quantiles,
        )

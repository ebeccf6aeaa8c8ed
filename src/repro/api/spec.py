"""Declarative job specification — the single front door's input type.

A :class:`JobSpec` captures *what* to run (scheme, cluster, workload,
iteration budget, seed) without saying *how*; a
:class:`~repro.api.backends.Backend` decides that. The same spec can be
timed on the discrete-event simulator, trained semantically under simulated
time, or executed for real on multiprocessing workers — and the sweep engine
(:mod:`repro.api.sweep`) derives grid/zip variations from it via
:meth:`JobSpec.with_overrides`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Mapping, Optional, Union

import numpy as np

from repro.cluster.dynamic import DynamicClusterSpec
from repro.cluster.spec import ClusterSpec
from repro.datasets.base import Dataset
from repro.datasets.batching import BatchSpec
from repro.exceptions import ConfigurationError
from repro.gradients.base import GradientModel
from repro.optim.base import Optimizer
from repro.schemes.base import ExecutionPlan, Scheme
from repro.schemes.registry import SchemeLike, scheme_from_config
from repro.utils.rng import RandomState, as_generator
from repro.utils.validation import check_positive_int

if TYPE_CHECKING:  # pragma: no cover - typing only; avoids an import cycle
    from repro.api.backends import Backend

__all__ = ["Workload", "JobSpec"]


@dataclass(frozen=True)
class Workload:
    """The learning task of a semantic or multiprocessing run.

    Attributes
    ----------
    model, dataset, optimizer:
        The loss/gradient model, the training data, and the update rule.
    unit_spec:
        Unit-to-example mapping when the scheme's data units are batches
        ("super examples"); ``None`` means every example is its own unit.
    initial_weights:
        Starting point; ``None`` uses the model's default (the zero vector).
    """

    model: GradientModel
    dataset: Dataset
    optimizer: Optimizer
    unit_spec: Optional[BatchSpec] = None
    initial_weights: Optional[np.ndarray] = None

    @property
    def num_units(self) -> int:
        """Number of data units the scheme distributes."""
        if self.unit_spec is not None:
            return self.unit_spec.num_batches
        return self.dataset.num_examples

    @property
    def unit_size(self) -> int:
        """Examples per unit (drives the computation-time draws)."""
        if self.unit_spec is not None:
            return self.unit_spec.max_batch_size
        return 1


@dataclass(frozen=True)
class JobSpec:
    """Everything needed to run one distributed-GD job, declaratively.

    Attributes
    ----------
    scheme:
        A :class:`~repro.schemes.Scheme` instance, a registered scheme name
        (``"bcc"``), or a config mapping (``{"name": "bcc", "load": 10}``).
        Config-form schemes are resolved against the registry with the
        spec's cluster, so heterogeneous schemes work by name too. The sweep
        engine may also place a pre-built
        :class:`~repro.schemes.base.ExecutionPlan` here (its per-cell plan
        hoisting): the simulation backends then skip plan resolution
        entirely — which consumes no randomness, so it only happens when the
        scheme's planning is itself draw-free.
    cluster:
        The (simulated) cluster — a stationary
        :class:`~repro.cluster.spec.ClusterSpec` or a
        :class:`~repro.cluster.dynamic.DynamicClusterSpec` (time-varying
        stragglers and worker churn; simulation backends only, the analytic
        backend raises
        :class:`~repro.exceptions.AnalyticIntractableError`). Required by
        the simulation backends; optional for custom sweep runners that do
        not simulate workers.
    num_units:
        Number of data units; ``None`` derives it from the workload.
    num_iterations:
        Gradient-descent iterations to run.
    seed:
        Seed-like value (int, ``SeedSequence``, ``Generator``, or ``None``)
        driving every random draw of the job.
    unit_size:
        Examples per unit for timing-only runs; ``None`` derives it from the
        workload (defaulting to 1).
    serialize_master_link:
        Whether master-side message receipt is serialised over one link
        (the paper's single-NIC master).
    workload:
        The learning task; required by the semantic and multiprocessing
        backends, ignored by timing-only simulation.
    backend_options:
        Backend-specific extras (e.g. ``receive_timeout`` or
        ``straggle_delays`` for the multiprocessing backend, ``engine`` for
        the timing backend, ``quantiles`` for the analytic backend).

    Examples
    --------
    Declare a BCC job on a deterministic ten-worker cluster and execute it
    (the default backend is the timing-only simulator; any other backend
    accepts the same spec):

    >>> from repro.api import JobSpec, run
    >>> from repro.cluster.spec import ClusterSpec
    >>> from repro.stragglers.models import DeterministicDelay
    >>> cluster = ClusterSpec.homogeneous(10, DeterministicDelay(0.01))
    >>> spec = JobSpec(
    ...     scheme={"name": "bcc", "load": 5},
    ...     cluster=cluster,
    ...     num_units=20,
    ...     num_iterations=3,
    ...     seed=0,
    ... )
    >>> spec.resolved_num_units
    20
    >>> run(spec).num_iterations
    3

    Sweep-style overrides derive cell specs without mutating the base:

    >>> spec.with_overrides({"scheme.load": 10}).scheme["load"]
    10
    >>> spec.scheme["load"]
    5
    """

    scheme: SchemeLike
    cluster: Optional[Union[ClusterSpec, DynamicClusterSpec]] = None
    num_units: Optional[int] = None
    num_iterations: int = 1
    seed: RandomState = 0
    unit_size: Optional[int] = None
    serialize_master_link: bool = True
    workload: Optional[Workload] = None
    # A mapping cannot be hashed; equality still compares it.
    backend_options: Mapping[str, object] = field(default_factory=dict, hash=False)

    def __post_init__(self) -> None:
        check_positive_int(self.num_iterations, "num_iterations")
        if self.num_units is not None:
            check_positive_int(self.num_units, "num_units")
        if self.unit_size is not None:
            check_positive_int(self.unit_size, "unit_size")
        if self.workload is not None and self.num_units is not None:
            if self.num_units != self.workload.num_units:
                raise ConfigurationError(
                    f"num_units={self.num_units} conflicts with the workload, "
                    f"which defines {self.workload.num_units} units; set "
                    "num_units=None to derive it"
                )
        if self.workload is not None and self.unit_size is not None:
            if self.unit_size != self.workload.unit_size:
                raise ConfigurationError(
                    f"unit_size={self.unit_size} conflicts with the workload, "
                    f"whose units hold {self.workload.unit_size} example(s); "
                    "set unit_size=None to derive it"
                )

    # ------------------------------------------------------------------ #
    @property
    def resolved_num_units(self) -> int:
        """Number of data units, derived from the workload when unset."""
        if self.num_units is not None:
            return self.num_units
        if self.workload is not None:
            return self.workload.num_units
        raise ConfigurationError(
            "the spec defines neither num_units nor a workload to derive it from"
        )

    @property
    def resolved_unit_size(self) -> int:
        """Examples per unit, derived from the workload when unset."""
        if self.unit_size is not None:
            return self.unit_size
        if self.workload is not None:
            return self.workload.unit_size
        return 1

    def resolve_scheme(self) -> Union[Scheme, ExecutionPlan]:
        """Build (or pass through) the scheme, injecting the spec's cluster.

        A dynamic cluster injects its *base* cluster: placement (and
        heterogeneous load allocation) is planned against the nominal
        cluster, then the dynamics perturb execution. A pre-built
        :class:`~repro.schemes.base.ExecutionPlan` passes through unchanged
        (the simulation entry points accept either).
        """
        if isinstance(self.scheme, ExecutionPlan):
            return self.scheme
        cluster = self.cluster
        if isinstance(cluster, DynamicClusterSpec):
            cluster = cluster.base
        return scheme_from_config(self.scheme, cluster=cluster)

    def rng(self) -> np.random.Generator:
        """The job's random generator (shared instances pass through unchanged)."""
        return as_generator(self.seed)

    def require_cluster(self) -> ClusterSpec:
        """The spec's cluster, or a configuration error naming the gap."""
        if self.cluster is None:
            raise ConfigurationError("this backend needs the spec to define a cluster")
        return self.cluster

    def require_workload(self) -> Workload:
        """The spec's workload, or a configuration error naming the gap."""
        if self.workload is None:
            raise ConfigurationError(
                "this backend needs the spec to define a workload "
                "(model, dataset, optimizer)"
            )
        return self.workload

    def fingerprint(self, *, backend: Optional["Backend"] = None) -> str:
        """The spec's canonical content fingerprint (SHA-256 hex digest).

        Keys the result cache: the digest is computed from the spec's
        *configuration* — scheme, cluster, workload, iteration budget,
        seed — never from object identity (``id``/``hash``/``repr``), so
        equal configurations fingerprint identically across processes and
        sessions, and round-trip unchanged through config serialisation.
        Pass ``backend`` to fold the executing backend's identity (class
        and engine/configuration) into the digest; results from different
        engines must never collide in a cache.

        Raises
        ------
        FingerprintError
            When the spec carries state with no canonical form — a live
            :class:`numpy.random.Generator` seed, a custom runner
            callable, or an object whose constructor state is not
            recoverable. Such specs are uncacheable; the cache computes
            them normally instead of keying them unsafely.
        """
        from repro.api.fingerprint import fingerprint_spec

        return fingerprint_spec(self, backend=backend)

    # ------------------------------------------------------------------ #
    def replace(self, **changes: object) -> "JobSpec":
        """A copy of the spec with the given fields replaced."""
        return dataclasses.replace(self, **changes)

    def with_overrides(self, overrides: Mapping[str, object]) -> "JobSpec":
        """A copy with sweep-style overrides applied.

        Override keys are either spec field names (``"num_iterations"``,
        ``"cluster"``, ``"scheme"``, ...) or dotted scheme-config keys
        (``"scheme.load"``) that update the scheme's config mapping. A plain
        ``"scheme"`` override is applied before any dotted keys, so a sweep
        can vary both the scheme and its parameters in one grid.
        """
        field_names = {f.name for f in dataclasses.fields(self)}
        scheme = self.scheme
        scheme_updates: Dict[str, object] = {}
        field_updates: Dict[str, object] = {}
        for key, value in overrides.items():
            if key == "scheme":
                scheme = value
            elif key.startswith("scheme."):
                scheme_updates[key[len("scheme."):]] = value
            elif key in field_names:
                field_updates[key] = value
            else:
                raise ConfigurationError(
                    f"unknown sweep parameter {key!r}; use a JobSpec field "
                    "name or a 'scheme.<parameter>' key"
                )
        if scheme_updates:
            if isinstance(scheme, (Scheme, ExecutionPlan)):
                raise ConfigurationError(
                    "cannot apply 'scheme.*' overrides to an already-built "
                    "scheme instance; specify the scheme as a name or config "
                    "mapping instead"
                )
            config = {"name": scheme} if isinstance(scheme, str) else dict(scheme)
            config.update(scheme_updates)
            scheme = config
        return dataclasses.replace(self, scheme=scheme, **field_updates)

"""The :class:`DelayModel` interface.

A delay model maps a *computational load* (number of training examples a
worker processes in one iteration) to a random completion time. Models are
stateless and receive the RNG explicitly, so the same model object can be
shared by every worker of a homogeneous cluster while keeping experiments
reproducible.

Draw contract
-------------
Three hooks are the whole contract between a delay model and the timing
engines:

* :meth:`DelayModel.sample` — the scalar draw the loop engine makes, one
  per active worker and iteration.
* :meth:`DelayModel.sample_grid` — a ``(num_draws, num_workers)`` matrix of
  draws across *several* model instances, filled in row-major (draw-major,
  worker-minor) order. Its **stream contract** is the one the engine
  equivalence guarantee rests on: given the same generator state it must
  consume the underlying bit stream exactly like the nested scalar loop
  (row ``i`` holds the ``i``-th draw of every worker, in worker order). The
  base implementation *is* that scalar loop; subclasses override it with a
  single vectorized call only when every model in the group uses their
  unmodified scalar sampler (numpy's broadcast sampling fills C-order,
  element-sequentially, which preserves the stream). The vectorized engine
  (:mod:`repro.simulation.vectorized`) calls it once per Monte-Carlo trial
  for a whole job, or once per iteration for one row of up workers; every
  trial owns an independent generator, so trials never share a call.
* :meth:`DelayModel.exponential_form` — below.

Exponential form
----------------
Some samplers draw exactly one standard exponential per value:
``sample(load)`` equals ``offset + scale * E`` with ``E`` the generator's
next ``standard_exponential``. :meth:`DelayModel.exponential_form` reports
that ``(offset, scale)`` pair per model (the shift-exponential family
answers; every other model returns ``None``), and
:meth:`CommunicationModel.exponential_form
<repro.stragglers.communication.CommunicationModel.exponential_form>` does
the same for transfers (a jittered linear link answers). When the delay
models answer and the link either draws nothing or answers too, the
vectorized engine knows the whole stream of a trial is a flat sequence of
standard exponentials, so it draws one block per trial and applies the
affine maps itself instead of calling the samplers. Only a model that
consumes exactly one standard exponential per value may answer: a model
that draws nothing (:class:`~repro.stragglers.models.DeterministicDelay`)
or draws anything else answers ``None``, or the block would shift the
stream. The hook also answers ``None`` for any model whose class overrides
:meth:`sample` — such a model's stream is unknown, and the engine must keep
calling it. The shift-exponential :meth:`sample_grid` reads its parameters
through the same hook.

A dynamic cluster's timeline (:mod:`repro.cluster.dynamic`) holds delay
*factors*, not models, so the hook also takes an ``(iterations, workers)``
``factors`` matrix and answers cell ``(i, j)``'s form of
:func:`~repro.stragglers.dynamics.scale_delay` ``(models[j], factors[i, j])``,
with that function's float operations and checks; ``1.0`` is exactly the
unscaled form. Factors must be finite: pass ``1.0`` on vacant slots.
"""

from __future__ import annotations

import abc
from operator import attrgetter
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import ConfigurationError
from repro.utils.rng import RandomState, as_generator

__all__ = ["DelayModel"]


class DelayModel(abc.ABC):
    """Distribution of the time a worker needs to process ``load`` examples."""

    @abc.abstractmethod
    def sample(
        self, load: int, rng: RandomState = None, size: Optional[int] = None
    ) -> Union[float, np.ndarray]:
        """Draw completion times for a task of ``load`` examples.

        Parameters
        ----------
        load:
            Number of examples processed (must be positive).
        rng:
            Seed-like value or generator.
        size:
            ``None`` for a single float, otherwise the number of i.i.d. draws
            returned as an array.
        """

    @abc.abstractmethod
    def mean(self, load: int) -> float:
        """Expected completion time for a task of ``load`` examples."""

    # ------------------------------------------------------------------ #
    # Batched sampling (see the module docstring for the stream contract)
    # ------------------------------------------------------------------ #
    @classmethod
    def sample_grid(
        cls,
        models: Sequence["DelayModel"],
        loads: Sequence[int],
        rng: RandomState = None,
        num_draws: int = 1,
    ) -> np.ndarray:
        """Draw a ``(num_draws, len(models))`` matrix of completion times.

        ``models[j]`` supplies column ``j`` with load ``loads[j]``. The matrix
        is filled row-major — draw-major, worker-minor — consuming the RNG
        exactly like the nested scalar loop below. Subclasses override this
        with one vectorized call when every model belongs to their class;
        this generic fallback works for arbitrary (even mixed-class) model
        groups at scalar speed.
        """
        if len(models) != len(loads):
            raise ConfigurationError(
                f"got {len(models)} models but {len(loads)} loads"
            )
        generator = as_generator(rng)
        out = np.empty((int(num_draws), len(models)), dtype=float)
        for i in range(int(num_draws)):
            for j, (model, load) in enumerate(zip(models, loads)):
                out[i, j] = model.sample(int(load), rng=generator)
        return out

    @classmethod
    def exponential_form(
        cls,
        models: Sequence["DelayModel"],
        loads: Sequence[int],
        factors: Optional[np.ndarray] = None,
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """``(offset, scale)`` rows with ``sample == offset + scale * E``, or ``None``.

        ``models[j]`` at load ``loads[j]`` draws ``offset[j] + scale[j] * E``
        where ``E`` is one ``standard_exponential`` draw (see the module
        docstring); with ``factors``, cell ``(i, j)`` of two matrices holds
        ``models[j]`` scaled by ``factors[i, j]``. ``None`` means some model
        does not sample that way; the base class answers ``None`` for every
        group.
        """
        return None

    @classmethod
    def _all_native(cls, models: Sequence["DelayModel"]) -> bool:
        """Whether every model is a ``cls`` using ``cls``'s scalar sampler.

        A subclass overriding :meth:`sample` changed the distribution, so
        the defining class's vectorized grid formula would silently diverge
        from the scalar path — such groups must take the generic fallback.
        Call it on the class that defines the formula (``ParetoDelay.``),
        not on an inherited classmethod's ``cls``: for a subclass overriding
        :meth:`sample`, ``cls`` *is* that subclass and would pass.
        """
        # Groups hold few distinct classes (timelines hold thousands of
        # cells), so the check runs per class, not per model.
        return all(
            issubclass(kind, cls) and kind.sample is cls.sample
            for kind in set(map(type, models))
        )

    @classmethod
    def _grid_parameters(
        cls, models: Sequence["DelayModel"], attributes: Sequence[str]
    ) -> Optional[tuple]:
        """Per-model parameter rows for a vectorized grid, or ``None``.

        Returns one float array per attribute name when :meth:`_all_native`
        holds (the caller then batches a single numpy call); ``None``
        signals the caller to fall back to the generic scalar grid, which
        is correct for any model.
        """
        if not cls._all_native(models):
            return None
        return tuple(
            np.fromiter(map(attrgetter(attribute), models), dtype=float, count=len(models))
            for attribute in attributes
        )

    def cdf(self, load: int, t: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
        """``P(T <= t)`` for a task of ``load`` examples.

        The default implementation estimates the CDF by Monte-Carlo; concrete
        models with closed forms override it.
        """
        # reprolint: allow[RNG001] reason=fixed-seed Monte-Carlo probe; deterministic by construction and independent of experiment streams
        samples = self.sample(load, rng=np.random.default_rng(0), size=20000)
        t_arr = np.asarray(t, dtype=float)
        result = np.mean(samples[None, ...] <= t_arr[..., None], axis=-1)
        return float(result) if np.isscalar(t) else result

    # ------------------------------------------------------------------ #
    def _check_load(self, load: int) -> int:
        if load < 1:
            raise ConfigurationError(f"load must be a positive number of examples, got {load}")
        return int(load)

    @staticmethod
    def _check_grid_loads(
        models: Sequence["DelayModel"], loads: Sequence[int]
    ) -> np.ndarray:
        """Validate per-worker grid loads and return them as a float row."""
        if len(models) != len(loads):
            raise ConfigurationError(f"got {len(models)} models but {len(loads)} loads")
        arr = np.asarray(loads)
        if arr.ndim != 1 or (arr.size and arr.min() < 1):
            raise ConfigurationError(
                "loads must be a 1-D sequence of positive example counts, "
                f"got {loads!r}"
            )
        return arr.astype(float)

    @staticmethod
    def _rng(rng: RandomState) -> np.random.Generator:
        return as_generator(rng)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"

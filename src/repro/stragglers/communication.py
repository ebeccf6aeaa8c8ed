"""Communication-time models.

The paper's EC2 measurements show communication dominating computation, and
the total run time scaling roughly with the recovery threshold because the
master's ingress link serialises the incoming messages. The communication
model therefore charges time *at the master* per received message as a
function of the message size (in units of one partial-gradient vector).
"""

from __future__ import annotations

import abc
from typing import Optional, Tuple, Union

import numpy as np

from repro.exceptions import ConfigurationError
from repro.utils.rng import RandomState, as_generator
from repro.utils.validation import check_nonnegative

__all__ = [
    "CommunicationModel",
    "LinearCommunicationModel",
    "ZeroCommunicationModel",
]

Number = Union[float, np.ndarray]


class CommunicationModel(abc.ABC):
    """Time to transfer a message of a given size to the master."""

    @abc.abstractmethod
    def sample(
        self, message_size: float, rng: RandomState = None, size: Optional[int] = None
    ) -> Number:
        """Draw transfer times for a message of ``message_size`` gradient-units."""

    @abc.abstractmethod
    def mean(self, message_size: float) -> float:
        """Expected transfer time."""

    @property
    def is_deterministic(self) -> bool:
        """Whether :meth:`sample` consumes no randomness.

        On a deterministic link the job's stream holds nothing but compute
        draws, so the vectorized timing engine evaluates the transfer times
        once and draws the compute matrix up front. Stochastic models
        interleave transfer draws with compute draws; the engine then draws
        one standard-exponential block per trial when this model and the
        delay models have an :meth:`exponential_form`, and replays the
        per-iteration interleave otherwise. The base class conservatively
        reports ``False``.
        """
        return False

    def exponential_form(
        self, message_sizes: np.ndarray
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """``(offset, scale)`` with ``sample(s) == offset + scale * E``, or ``None``.

        Entry ``k`` of each array belongs to ``message_sizes[k]``; ``E`` is
        one ``standard_exponential`` draw (the exponential-form contract of
        :mod:`repro.stragglers.base`). ``None`` means the model does not
        draw exactly one standard exponential per transfer — the base class
        answers ``None``.
        """
        return None

    def sample_batch(
        self, message_sizes: np.ndarray, rng: RandomState = None
    ) -> np.ndarray:
        """Draw one transfer time per entry of ``message_sizes``.

        Stream contract: consumes the RNG exactly like scalar :meth:`sample`
        calls over ``message_sizes`` in C order. The generic fallback loops
        those scalar calls; subclasses vectorize.
        """
        generator = as_generator(rng)
        sizes = np.asarray(message_sizes, dtype=float)
        flat = [float(self.sample(float(s), rng=generator)) for s in sizes.ravel()]
        return np.asarray(flat, dtype=float).reshape(sizes.shape)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class LinearCommunicationModel(CommunicationModel):
    """``time = latency + seconds_per_unit * message_size`` plus optional jitter.

    Parameters
    ----------
    latency:
        Fixed per-message overhead in seconds.
    seconds_per_unit:
        Transfer seconds per unit of message size (one unit = one gradient
        vector of dimension ``p``).
    jitter:
        If positive, an exponential random extra delay with this mean is
        added to every transfer.
    """

    def __init__(
        self,
        latency: float = 0.0,
        seconds_per_unit: float = 1.0,
        jitter: float = 0.0,
    ) -> None:
        self.latency = check_nonnegative(latency, "latency")
        self.seconds_per_unit = check_nonnegative(seconds_per_unit, "seconds_per_unit")
        self.jitter = check_nonnegative(jitter, "jitter")

    def sample(
        self, message_size: float, rng: RandomState = None, size: Optional[int] = None
    ) -> Number:
        message_size = check_nonnegative(message_size, "message_size")
        base = self.latency + self.seconds_per_unit * message_size
        if self.jitter == 0.0:
            if size is None:
                return float(base)
            return np.full(size, base, dtype=float)
        generator = as_generator(rng)
        extra = generator.exponential(scale=self.jitter, size=size)
        result = base + extra
        return float(result) if size is None else result

    def mean(self, message_size: float) -> float:
        message_size = check_nonnegative(message_size, "message_size")
        return self.latency + self.seconds_per_unit * message_size + self.jitter

    @property
    def is_deterministic(self) -> bool:
        # A subclass that overrides sample() changed the distribution; only
        # the unmodified sampler is known to be draw-free at jitter zero.
        if type(self).sample is not LinearCommunicationModel.sample:
            return False
        return self.jitter == 0.0

    def exponential_form(
        self, message_sizes: np.ndarray
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        # Jitter-free transfers draw nothing, so they have no exponential form.
        if type(self).sample is not LinearCommunicationModel.sample or self.jitter == 0.0:
            return None
        base = self._base_times(message_sizes)
        return base, np.full(base.shape, self.jitter)

    def sample_batch(
        self, message_sizes: np.ndarray, rng: RandomState = None
    ) -> np.ndarray:
        if type(self).sample is not LinearCommunicationModel.sample:
            return super().sample_batch(message_sizes, rng)
        base = self._base_times(message_sizes)
        if self.jitter == 0.0:
            return base
        generator = as_generator(rng)
        # Element-sequential C-order fill: same stream as scalar draws.
        return base + generator.exponential(scale=self.jitter, size=base.shape)

    def _base_times(self, message_sizes: np.ndarray) -> np.ndarray:
        """The jitter-free transfer times of ``message_sizes``."""
        sizes = np.asarray(message_sizes, dtype=float)
        if sizes.size and sizes.min() < 0:
            raise ConfigurationError(
                f"message sizes must be non-negative, got min {sizes.min()}"
            )
        return self.latency + self.seconds_per_unit * sizes

    def __repr__(self) -> str:
        return (
            f"LinearCommunicationModel(latency={self.latency!r}, "
            f"seconds_per_unit={self.seconds_per_unit!r}, jitter={self.jitter!r})"
        )


class ZeroCommunicationModel(CommunicationModel):
    """Free communication — isolates the computation-time component."""

    def sample(
        self, message_size: float, rng: RandomState = None, size: Optional[int] = None
    ) -> Number:
        check_nonnegative(message_size, "message_size")
        if size is None:
            return 0.0
        return np.zeros(size, dtype=float)

    def mean(self, message_size: float) -> float:
        check_nonnegative(message_size, "message_size")
        return 0.0

    @property
    def is_deterministic(self) -> bool:
        return type(self).sample is ZeroCommunicationModel.sample

    def sample_batch(
        self, message_sizes: np.ndarray, rng: RandomState = None
    ) -> np.ndarray:
        if type(self).sample is not ZeroCommunicationModel.sample:
            return super().sample_batch(message_sizes, rng)
        sizes = np.asarray(message_sizes, dtype=float)
        if sizes.size and sizes.min() < 0:
            raise ConfigurationError(
                f"message sizes must be non-negative, got min {sizes.min()}"
            )
        return np.zeros(sizes.shape, dtype=float)

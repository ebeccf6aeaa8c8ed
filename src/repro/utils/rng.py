"""Seeded random-number-generator helpers.

Every stochastic component of the library (data generators, straggler delay
models, random data assignments, simulators) accepts a ``seed`` argument that
may be ``None``, an integer, or an existing :class:`numpy.random.Generator`.
This module centralises the conversion so behaviour is reproducible and the
convention is identical everywhere.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

from repro.exceptions import ConfigurationError
import numpy as np

__all__ = ["RandomState", "as_generator", "spawn_generators"]

#: The union of accepted "seed-like" values across the library.
RandomState = Union[None, int, np.random.Generator, np.random.SeedSequence]


def as_generator(seed: RandomState = None) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    Parameters
    ----------
    seed:
        ``None`` (fresh OS entropy), an ``int``, a ``SeedSequence``, or an
        existing ``Generator`` (returned unchanged so callers can share one
        stream across components).

    Returns
    -------
    numpy.random.Generator
        A PCG64-backed generator.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    if seed is None or isinstance(seed, (int, np.integer)):
        return np.random.default_rng(seed)
    # reprolint: allow[EXC001] reason=wrong seed type is a programming error; TypeError propagates unchanged by the hierarchy contract
    raise TypeError(
        f"seed must be None, an int, a SeedSequence or a Generator; got {type(seed)!r}"
    )


def spawn_generators(seed: RandomState, count: int) -> list[np.random.Generator]:
    """Create ``count`` statistically independent generators from one seed.

    Used by the multi-process runtime and by Monte-Carlo sweeps so that each
    worker / trial has its own stream while the whole experiment remains
    reproducible from a single integer.

    Parameters
    ----------
    seed:
        Any accepted seed-like value.
    count:
        Number of independent generators to create. Must be positive.
    """
    if count <= 0:
        raise ConfigurationError(f"count must be positive, got {count}")
    if isinstance(seed, np.random.Generator):
        # Derive child seeds from the generator itself to stay reproducible.
        seeds = seed.integers(0, 2**63 - 1, size=count)
        return [np.random.default_rng(int(s)) for s in seeds]
    children = random_seed_sequence(seed).spawn(count)
    return [np.random.default_rng(child) for child in children]


def random_seed_sequence(seed: RandomState = None) -> np.random.SeedSequence:
    """Return a :class:`numpy.random.SeedSequence` derived from ``seed``.

    A ``SeedSequence`` comes back as a fresh copy (same entropy, spawn key
    and pool size, no children spawned), so spawning from the result never
    advances the caller's sequence and repeats on every call.
    """
    if isinstance(seed, np.random.SeedSequence):
        return np.random.SeedSequence(
            seed.entropy, spawn_key=seed.spawn_key, pool_size=seed.pool_size
        )
    if isinstance(seed, np.random.Generator):
        return np.random.SeedSequence(int(seed.integers(0, 2**63 - 1)))
    return np.random.SeedSequence(seed)


def permutation(seed: RandomState, n: int) -> np.ndarray:
    """Return a random permutation of ``range(n)`` drawn from ``seed``."""
    return as_generator(seed).permutation(n)


def choice_without_replacement(
    seed: RandomState, population: int, size: int
) -> np.ndarray:
    """Sample ``size`` distinct indices from ``range(population)``."""
    if size > population:
        raise ConfigurationError(
            f"cannot draw {size} distinct items from a population of {population}"
        )
    return as_generator(seed).choice(population, size=size, replace=False)

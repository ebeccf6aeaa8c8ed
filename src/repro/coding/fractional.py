"""The fractional-repetition gradient code of Tandon et al.

The ``n`` workers are split into ``s + 1`` groups of ``n / (s + 1)`` workers
each (requires ``(s + 1) | n``). Within a group the ``n`` data partitions are
split disjointly across the group's workers, so every group holds a full copy
of the dataset. Each worker simply sends the *sum* of its partitions'
gradients (all encoding coefficients are one). The master can decode as soon
as the received workers contain one complete group — guaranteed after any
``n - s`` arrivals, but often much earlier (the paper's footnote 2 notes this
opportunistic behaviour), which the decoder here exploits.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.coding.linear_code import LinearGradientCode
from repro.exceptions import ConfigurationError, DecodingError
from repro.utils.validation import check_positive_int

__all__ = ["FractionalRepetitionCode"]


class FractionalRepetitionCode(LinearGradientCode):
    """Fractional-repetition gradient code with ``num_stragglers`` tolerance.

    Parameters
    ----------
    num_workers:
        Number of workers ``n`` (= number of data partitions).
    num_stragglers:
        Straggler tolerance ``s``; ``s + 1`` must divide ``n``. Each worker's
        load is ``s + 1`` partitions.
    """

    def __init__(self, num_workers: int, num_stragglers: int) -> None:
        n = check_positive_int(num_workers, "num_workers")
        s = int(num_stragglers)
        if s < 0 or s >= n:
            raise ConfigurationError(
                f"num_stragglers must lie in [0, num_workers), got {s} for n={n}"
            )
        if n % (s + 1) != 0:
            raise ConfigurationError(
                f"the fractional repetition scheme requires (s + 1) | n; "
                f"got n={n}, s={s}"
            )
        matrix, groups = self._build_matrix(n, s)
        super().__init__(matrix, name=f"fractional-repetition(s={s})")
        self.num_stragglers = s
        self.groups = groups

    @staticmethod
    def _build_matrix(n: int, s: int) -> tuple[np.ndarray, list]:
        group_size = n // (s + 1)
        partitions_per_worker = s + 1
        matrix = np.zeros((n, n))
        groups = []
        worker = 0
        for _group in range(s + 1):
            members = []
            for j in range(group_size):
                start = j * partitions_per_worker
                matrix[worker, start : start + partitions_per_worker] = 1.0
                members.append(worker)
                worker += 1
            groups.append(tuple(members))
        return matrix, groups

    # ------------------------------------------------------------------ #
    @property
    def recovery_threshold(self) -> int:
        """Worst-case wait: ``n - s`` workers (often decodable earlier)."""
        return self.num_workers - self.num_stragglers

    def complete_group(self, workers: Sequence[int] | np.ndarray) -> Optional[int]:
        """Return the id of a group entirely contained in ``workers``, if any.

        Raises
        ------
        DecodingError
            If ``workers`` is empty, holds non-integer or out-of-range
            indices, or repeats a worker.
        """
        received = set(self._check_workers(workers).tolist())
        for group_id, members in enumerate(self.groups):
            if all(member in received for member in members):
                return group_id
        return None

    def is_decodable(self, workers: Sequence[int] | np.ndarray) -> bool:
        """Decodable exactly when some replication group has fully reported.

        (The generic least-squares check of the base class would accept more
        exotic combinations across groups that also sum to the all-ones
        vector; restricting to complete groups matches the scheme as
        published and keeps decoding a pure summation.)
        """
        try:
            return self.complete_group(workers) is not None
        except DecodingError:
            return False

    def decoding_vector(self, workers: Sequence[int] | np.ndarray) -> np.ndarray:
        workers = self._check_workers(workers)
        group_id = self.complete_group(workers)
        if group_id is None:
            raise DecodingError(
                "no replication group has fully reported; cannot decode yet"
            )
        members = set(self.groups[group_id])
        coefficients = np.array(
            [1.0 if int(w) in members else 0.0 for w in workers], dtype=float
        )
        return coefficients

"""The cyclic-repetition gradient code of Tandon et al. (reference [7]).

Construction (their randomized Algorithm): choose an auxiliary matrix ``H``
of shape ``(s, n)`` — ``s`` is the number of stragglers to tolerate — with
i.i.d. Gaussian entries in its first ``n - 1`` columns and the last column
set to minus the sum of the others (so every row of ``H`` sums to zero).
Row ``i`` of the encoding matrix ``B`` is supported on the cyclic window
``{i, i+1, ..., i+s} mod n``; its first coefficient is fixed to 1 and the
remaining ``s`` coefficients are chosen so the row is orthogonal to every row
of ``H`` (an ``s x s`` linear solve per worker). With probability one over
the Gaussian draw, the all-ones vector lies in the row space of any
``n - s`` rows of ``B``, so the master can decode after hearing from the
fastest ``n - s`` workers — the recovery threshold ``K = n - s = m - r + 1``
of the paper's Eq. (7).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.coding.linear_code import LinearGradientCode
from repro.exceptions import ConfigurationError, DecodingError
from repro.utils.rng import RandomState, as_generator
from repro.utils.validation import check_positive_int

__all__ = ["CyclicRepetitionCode", "cyclic_rows"]


#: Bytes of the window systems one stacked solve takes.
_SOLVE_CHUNK_BYTES = 1 << 17


def cyclic_rows(auxiliary: np.ndarray) -> np.ndarray:
    """The ``(n, n)`` encoding matrix the ``(s, n)`` auxiliary matrix ``H`` defines.

    Row ``i`` is supported on the cyclic window ``{i, ..., i + s} mod n``,
    is 1 at ``i``, and is orthogonal to every row of ``H``: its other ``s``
    coefficients solve ``H[:, tail] @ x = -H[:, i]``. One stacked
    ``np.linalg.solve`` takes the windows' systems, in chunks of at most
    128 KiB; LAPACK solves each system on its own, so every row equals,
    bit for bit, the solve of its window alone. Raises
    ``np.linalg.LinAlgError`` when some window's system is singular.
    """
    s, n = auxiliary.shape
    heads = np.arange(n)
    tails = (heads[:, None] + np.arange(1, s + 1)) % n
    matrix = np.zeros((n, n))
    matrix[heads, heads] = 1.0
    per_chunk = max(1, _SOLVE_CHUNK_BYTES // (8 * s * s))
    for start in range(0, n, per_chunk):
        rows = heads[start : start + per_chunk]
        systems = auxiliary[:, tails[rows]].transpose(1, 0, 2)
        targets = -auxiliary[:, rows].T[..., None]
        matrix[rows[:, None], tails[rows]] = np.linalg.solve(systems, targets)[..., 0]
    return matrix


class CyclicRepetitionCode(LinearGradientCode):
    """Cyclic-repetition gradient code tolerating ``num_stragglers`` stragglers.

    Parameters
    ----------
    num_workers:
        Number of workers ``n``; also the number of data partitions (the
        scheme is defined for ``m = n`` — when the dataset has more examples
        than workers, group examples into ``n`` partitions first).
    num_stragglers:
        The worst-case number of stragglers ``s`` the code tolerates; each
        worker's computational load is ``s + 1`` partitions.
    seed:
        Seed for the Gaussian auxiliary matrix. The construction succeeds
        with probability one; a failed draw (degenerate ``s x s`` system)
        raises and a different seed can be supplied.
    """

    def __init__(
        self,
        num_workers: int,
        num_stragglers: int,
        seed: RandomState = None,
        decoding_tolerance: float = 1e-6,
    ) -> None:
        n = check_positive_int(num_workers, "num_workers")
        s = int(num_stragglers)
        if s < 0 or s >= n:
            raise ConfigurationError(
                f"num_stragglers must lie in [0, num_workers), got {s} for n={n}"
            )
        matrix = self._build_matrix(n, s, seed)
        super().__init__(
            matrix, name=f"cyclic-repetition(s={s})", decoding_tolerance=decoding_tolerance
        )
        self.num_stragglers = s

    # ------------------------------------------------------------------ #
    @staticmethod
    def _build_matrix(n: int, s: int, seed: RandomState) -> np.ndarray:
        if s == 0:
            # No straggler tolerance: every worker holds exactly its own
            # partition with coefficient one (this is the uncoded scheme).
            return np.eye(n)
        rng = as_generator(seed)
        auxiliary = rng.standard_normal((s, n))
        auxiliary[:, -1] = -auxiliary[:, :-1].sum(axis=1)
        try:
            return cyclic_rows(auxiliary)
        except np.linalg.LinAlgError as error:
            raise DecodingError(
                "degenerate auxiliary matrix while building the cyclic "
                "repetition code; retry with a different seed"
            ) from error

    # ------------------------------------------------------------------ #
    @property
    def recovery_threshold(self) -> int:
        """Worst-case number of workers the master waits for: ``n - s``."""
        return self.num_workers - self.num_stragglers

    @classmethod
    def from_load(
        cls,
        num_workers: int,
        load: int,
        seed: RandomState = None,
    ) -> "CyclicRepetitionCode":
        """Build the code from the computational load ``r`` (``s = r - 1``)."""
        r = check_positive_int(load, "load")
        return cls(num_workers=num_workers, num_stragglers=r - 1, seed=seed)

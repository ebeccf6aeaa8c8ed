"""A deterministic Reed-Solomon-style gradient code.

Halbawi et al. (reference [8]) and Raviv et al. (reference [9]) replace the
random coefficients of the cyclic-repetition construction with deterministic
ones derived from Reed-Solomon / cyclic-MDS codes, achieving exactly the same
``(load, recovery-threshold)`` operating point: tolerate ``s`` stragglers
with load ``s + 1`` and worst-case threshold ``n - s``.

This implementation keeps the defining properties of those constructions —
cyclic supports of size ``s + 1``, a *deterministic, parameter-only*
coefficient matrix (no user-supplied randomness), and decodability of the
all-ones vector from any ``n - s`` rows — while building the coefficients
over the reals: the auxiliary matrix ``H`` whose null space the rows must lie
in is derived from a seed fixed by ``(n, s)``, its columns are adjusted to
sum to zero, and the construction verifies that every cyclic survivor window
decodes (retrying with the next derived seed in the measure-zero degenerate
case). Two calls with the same ``(n, s)`` always produce the same matrix,
and a process builds it once: the matrix is cached, read-only.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.coding.cyclic_repetition import cyclic_rows
from repro.coding.linear_code import (
    NOT_DECODABLE,
    UNDECIDED,
    LinearGradientCode,
    decodability_verdicts,
)
from repro.exceptions import ConfigurationError, DecodingError
from repro.utils.validation import check_positive_int

__all__ = ["ReedSolomonStyleCode"]


class ReedSolomonStyleCode(LinearGradientCode):
    """Deterministic cyclic gradient code (Reed-Solomon-style operating point).

    Parameters
    ----------
    num_workers:
        Number of workers ``n`` (= data partitions).
    num_stragglers:
        Straggler tolerance ``s``; the load is ``s + 1`` and the worst-case
        recovery threshold ``n - s``.
    """

    #: Number of derived seeds tried before giving up on a degenerate draw.
    _MAX_ATTEMPTS = 16

    def __init__(
        self,
        num_workers: int,
        num_stragglers: int,
        decoding_tolerance: float = 1e-6,
    ) -> None:
        n = check_positive_int(num_workers, "num_workers")
        s = int(num_stragglers)
        if s < 0 or s >= n:
            raise ConfigurationError(
                f"num_stragglers must lie in [0, num_workers), got {s} for n={n}"
            )
        matrix = self._build_matrix(n, s, decoding_tolerance)
        super().__init__(
            matrix, name=f"reed-solomon-style(s={s})", decoding_tolerance=decoding_tolerance
        )
        self.num_stragglers = s

    # ------------------------------------------------------------------ #
    @classmethod
    @functools.lru_cache(maxsize=16)
    def _build_matrix(cls, n: int, s: int, tolerance: float) -> np.ndarray:
        """The code's matrix, built once per ``(n, s, tolerance)``.

        The cached array is read-only, so no code sharing it can change it.
        """
        matrix = cls._derive_matrix(n, s, tolerance)
        matrix.setflags(write=False)
        return matrix

    @classmethod
    def _derive_matrix(cls, n: int, s: int, tolerance: float) -> np.ndarray:
        if s == 0:
            return np.eye(n)
        last_error: Exception | None = None
        for attempt in range(cls._MAX_ATTEMPTS):
            # A seed fixed by (n, s, attempt) makes the construction a pure
            # function of the code parameters.
            # reprolint: allow[RNG001] reason=seed is a pure function of the code parameters; the construction is deterministic
            rng = np.random.default_rng(np.random.SeedSequence(entropy=(n, s, attempt)))
            auxiliary = rng.standard_normal((s, n))
            auxiliary[:, -1] = -auxiliary[:, :-1].sum(axis=1)
            try:
                matrix = cls._solve_rows(auxiliary)
            except np.linalg.LinAlgError as error:  # pragma: no cover - measure zero
                last_error = error
                continue
            if cls._windows_decode(matrix, n, s, tolerance):
                return matrix
        raise DecodingError(
            "failed to build a Reed-Solomon-style code for "
            f"n={n}, s={s} after {cls._MAX_ATTEMPTS} attempts"
        ) from last_error

    #: The rows orthogonal to ``H``: one stacked solve of the windows' systems.
    _solve_rows = staticmethod(cyclic_rows)

    @staticmethod
    def _windows_decode(matrix: np.ndarray, n: int, s: int, tolerance: float) -> bool:
        """Check that every cyclic window of ``n - s`` rows spans the all-ones vector.

        One stacked certificate (:func:`decodability_verdicts`) decides the
        windows; only those it leaves undecided call ``is_decodable``.
        """
        probe = LinearGradientCode(matrix, decoding_tolerance=tolerance)
        windows = (np.arange(n)[:, None] + np.arange(n - s)) % n
        verdicts = decodability_verdicts(probe, windows)
        if (verdicts == NOT_DECODABLE).any():
            return False
        return all(
            probe.is_decodable(windows[start].tolist())
            for start in np.flatnonzero(verdicts == UNDECIDED)
        )

    @property
    def recovery_threshold(self) -> int:
        """Worst-case number of workers the master waits for: ``n - s``."""
        return self.num_workers - self.num_stragglers

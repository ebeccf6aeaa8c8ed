"""Generic linear gradient codes.

A linear gradient code over ``k`` data partitions is an encoding matrix
``B`` of shape ``(n, k)``: worker ``i`` computes the partial-gradient sums
``g_1, ..., g_k`` of the partitions in its support (the nonzero entries of
row ``i``) and transmits the single vector ``sum_j B[i, j] * g_j``. The
master, having received messages from a worker subset ``W``, recovers the
total gradient whenever the all-ones row vector lies in the row space of
``B[W]``: it finds coefficients ``a`` with ``a^T B[W] = 1^T`` and outputs
``sum_{i in W} a_i z_i``.

This captures the cyclic-repetition scheme of Tandon et al., the
Reed-Solomon construction of Halbawi et al., and the cyclic-MDS construction
of Raviv et al.; they differ only in how ``B`` is built.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.coding.assignment import DataAssignment
from repro.exceptions import ConfigurationError, DecodingError
from repro.utils.validation import check_array_2d

__all__ = [
    "DECODABLE",
    "LinearGradientCode",
    "NOT_DECODABLE",
    "UNDECIDED",
    "decodability_verdicts",
]

#: Verdicts of :func:`decodability_verdicts`.
DECODABLE, NOT_DECODABLE, UNDECIDED = 1, 0, -1

#: Factor by which a certified row clears the decoding tolerance, either way.
_MARGIN = 100.0
#: Smallest ``min |R_ii| / max |R_ii|`` of a row certified decodable: four
#: decades above ``lstsq``'s cut-off ``eps * max(k, w)``, so a row whose
#: ``lstsq`` might drop a direction is left to ``is_decodable``.
_RANK_GUARD = 1e-10
#: Operand bytes of one stacked QR.
_CHUNK_BYTES = 1 << 17


class LinearGradientCode:
    """A linear gradient code defined by its encoding matrix ``B``.

    Parameters
    ----------
    encoding_matrix:
        Real matrix of shape ``(num_workers, num_partitions)``.
    name:
        Identifier used in reports.
    decoding_tolerance:
        Maximum allowed residual ``||a^T B_W - 1||_inf`` for a worker subset
        to be considered decodable.
    """

    def __init__(
        self,
        encoding_matrix: np.ndarray,
        name: str = "linear-code",
        decoding_tolerance: float = 1e-6,
    ) -> None:
        matrix = check_array_2d(encoding_matrix, "encoding_matrix")
        if not np.all(np.isfinite(matrix)):
            raise DecodingError("the encoding matrix must contain only finite entries")
        self.encoding_matrix = matrix
        self.name = name
        self.decoding_tolerance = float(decoding_tolerance)
        if self.decoding_tolerance <= 0:
            raise ConfigurationError("decoding_tolerance must be positive")

    # ------------------------------------------------------------------ #
    @property
    def num_workers(self) -> int:
        """Number of workers ``n`` (rows of ``B``)."""
        return self.encoding_matrix.shape[0]

    @property
    def num_partitions(self) -> int:
        """Number of data partitions ``k`` (columns of ``B``)."""
        return self.encoding_matrix.shape[1]

    def support(self, worker: int) -> np.ndarray:
        """Data-partition indices worker ``worker`` must process (nonzero columns)."""
        self._check_worker(worker)
        return np.flatnonzero(self.encoding_matrix[worker])

    def computational_load(self) -> int:
        """Maximum support size across workers (in partitions)."""
        return int(np.max(np.count_nonzero(self.encoding_matrix, axis=1)))

    def to_assignment(self) -> DataAssignment:
        """The placement implied by the code's supports, at partition granularity.

        One ``np.nonzero`` over the matrix lists every support, row-major.
        """
        workers, partitions = np.nonzero(self.encoding_matrix)
        loads = np.bincount(workers, minlength=self.num_workers)
        if loads.size and (loads == loads[0]).all():
            return DataAssignment.from_rows(
                self.num_partitions, partitions.reshape(loads.size, -1)
            )
        return DataAssignment(
            num_examples=self.num_partitions,
            assignments=np.split(partitions, np.cumsum(loads))[:-1],
        )

    # ------------------------------------------------------------------ #
    # Encoding / decoding
    # ------------------------------------------------------------------ #
    def encode(self, worker: int, partition_gradients: np.ndarray) -> np.ndarray:
        """Compute worker ``worker``'s coded message.

        Parameters
        ----------
        partition_gradients:
            Array of shape ``(k, p)`` whose row ``j`` is the summed partial
            gradient of partition ``j``. Only the rows in the worker's
            support are read; the others may contain garbage (a real worker
            never computes them).
        """
        self._check_worker(worker)
        gradients = np.asarray(partition_gradients, dtype=float)
        if gradients.ndim != 2 or gradients.shape[0] != self.num_partitions:
            raise DecodingError(
                "partition_gradients must have shape (num_partitions, p), got "
                f"{gradients.shape}"
            )
        support = self.support(worker)
        coefficients = self.encoding_matrix[worker, support]
        return coefficients @ gradients[support]

    def decoding_vector(self, workers: Sequence[int] | np.ndarray) -> np.ndarray:
        """Coefficients ``a`` with ``a^T B[workers] = 1^T``.

        Raises
        ------
        DecodingError
            If no such coefficients exist (within tolerance), i.e. the subset
            is not decodable.
        """
        workers = self._check_workers(workers)
        submatrix = self.encoding_matrix[workers]  # (w, k)
        target = np.ones(self.num_partitions)
        solution, *_ = np.linalg.lstsq(submatrix.T, target, rcond=None)
        residual = submatrix.T @ solution - target
        if np.max(np.abs(residual)) > self.decoding_tolerance:
            raise DecodingError(
                f"worker subset of size {len(workers)} is not decodable for "
                f"code {self.name!r} (residual {np.max(np.abs(residual)):.2e})"
            )
        return solution

    def is_decodable(self, workers: Sequence[int] | np.ndarray) -> bool:
        """True when the master can recover the gradient from ``workers``' messages."""
        try:
            self.decoding_vector(workers)
            return True
        except DecodingError:
            return False

    def decode(
        self, workers: Sequence[int] | np.ndarray, messages: np.ndarray
    ) -> np.ndarray:
        """Reconstruct the *sum* of all partition gradients from received messages.

        Parameters
        ----------
        workers:
            Indices of the workers whose messages were received, in the same
            order as the rows of ``messages``.
        messages:
            Array of shape ``(len(workers), p)``.
        """
        workers = self._check_workers(workers)
        received = np.asarray(messages, dtype=float)
        if received.ndim != 2 or received.shape[0] != len(workers):
            raise DecodingError(
                f"messages must have shape (len(workers), p), got {received.shape}"
            )
        coefficients = self.decoding_vector(workers)
        return coefficients @ received

    # ------------------------------------------------------------------ #
    def minimum_decodable_size(self) -> int:
        """Smallest ``w`` such that some cyclic window of ``w`` workers decodes.

        Used by tests on small codes. Only the ``n`` cyclic windows of each
        size are tried, so a code whose smallest decodable subsets are no
        windows reports a larger size.
        """
        for size in range(1, self.num_workers + 1):
            for start in range(self.num_workers):
                subset = [(start + offset) % self.num_workers for offset in range(size)]
                if self.is_decodable(subset):
                    return size
        raise DecodingError(f"code {self.name!r} is never decodable")

    # ------------------------------------------------------------------ #
    def _check_worker(self, worker: int) -> None:
        if not (0 <= worker < self.num_workers):
            raise DecodingError(
                f"worker index must lie in [0, {self.num_workers}), got {worker}"
            )

    def _check_workers(self, workers: Sequence[int] | np.ndarray) -> np.ndarray:
        workers = np.asarray(workers)
        if workers.ndim != 1 or workers.size == 0:
            raise DecodingError("workers must be a non-empty 1-D index sequence")
        # Floats, booleans and strings are refused, never cast: a cast would
        # truncate 1.7 to worker 1 and decode from workers nobody named.
        if not np.issubdtype(workers.dtype, np.integer):
            raise DecodingError(
                f"worker indices must be integers, got dtype {workers.dtype}"
            )
        ordered = np.sort(workers)
        if (ordered[1:] == ordered[:-1]).any():
            raise DecodingError("workers must not contain duplicates")
        outside = np.flatnonzero((workers < 0) | (workers >= self.num_workers))
        if outside.size:
            self._check_worker(int(workers[outside[0]]))
        return workers

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(name={self.name!r}, n={self.num_workers}, "
            f"k={self.num_partitions})"
        )


def decodability_verdicts(code: LinearGradientCode, workers: np.ndarray) -> np.ndarray:
    """What :meth:`LinearGradientCode.is_decodable` says of each row of ``workers``.

    ``workers`` is a ``(rows, w)`` array of worker indices, one subset per
    row. Each row gets :data:`DECODABLE`, :data:`NOT_DECODABLE` or
    :data:`UNDECIDED` (``int8``); only an undecided row needs the
    ``is_decodable`` call. One stacked QR of ``[B[W]^T | 1]`` per chunk of
    rows gives the projection residual ``rho`` of the all-ones vector off
    the span of ``B[W]``, and one stacked triangular solve the coefficients
    ``x`` that reach it. With ``k`` partitions and tolerance ``tol``:

    * ``rho > sqrt(k) * tol * M`` is not decodable, at any rank: the
      least-squares residual ``lstsq`` rounds is at least ``rho`` in 2-norm,
      so at least ``rho / sqrt(k)`` in some entry.
    * ``rho <= tol / M`` is decodable when ``w <= k``, ``R``'s diagonal
      passes the rank guard and ``eps * ||B[W]||_F * ||x|| <= tol / M``.
      The last product is the scale of the rounding in the residual that
      ``lstsq`` computes, which stayed under 42 times it on the
      cyclic-repetition and Reed-Solomon codes measured (see
      ``docs/performance.rst``): this direction rests on measured margins.
    * Anything else, and every row with ``w > k``, is undecided.

    ``M`` is 100. Chunks keep one QR's operand within 128 KiB.
    """
    rows, width = workers.shape
    k = code.num_partitions
    verdicts = np.full(rows, UNDECIDED, dtype=np.int8)
    if width > k:
        return verdicts
    tolerance = code.decoding_tolerance
    chunk = max(1, _CHUNK_BYTES // (8 * k * (width + 1)))
    for start in range(0, rows, chunk):
        subsets = workers[start : start + chunk]
        augmented = np.empty((subsets.shape[0], width + 1, k))
        augmented[:, :width] = code.encoding_matrix[subsets]
        augmented[:, width] = 1.0
        triangles = np.linalg.qr(augmented.transpose(0, 2, 1), mode="r")
        residual = np.abs(triangles[:, width, width]) if width < k else np.zeros(len(subsets))
        diagonal = np.abs(np.diagonal(triangles[:, :width, :width], axis1=1, axis2=2))
        full_rank = diagonal.min(axis=1) > _RANK_GUARD * diagonal.max(axis=1)
        # A failing row solves the identity instead, so no solve meets a
        # singular triangle.
        factors = triangles[:, :width, :width]
        factors[~full_rank] = np.eye(width)
        solution = np.linalg.solve(factors, triangles[:, :width, width:])[..., 0]
        rounding = (
            np.finfo(float).eps
            * np.linalg.norm(augmented[:, :width], axis=(1, 2))
            * np.linalg.norm(solution, axis=1)
        )
        decided = verdicts[start : start + chunk]
        decided[residual > np.sqrt(k) * tolerance * _MARGIN] = NOT_DECODABLE
        decided[
            full_rank & (residual <= tolerance / _MARGIN) & (rounding <= tolerance / _MARGIN)
        ] = DECODABLE
    return verdicts

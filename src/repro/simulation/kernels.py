"""Completion kernels for the vectorized timing engine.

The vectorized engine's hot path is five tight array kernels — the
serialized-master-link arrival recurrence and the per-scheme completion
searches (fixed-set count, arrival-count selection, coverage
coupon-collector, replication-group completion). They sit behind one call
surface, :class:`KernelSuite`, which the engine obtains from
:func:`get_suite`.

There is one backend, ``"numpy"``: the serialized-link recurrence stepped
one worker rank at a time, in place over a worker-major copy so each step
is contiguous (every row reproduces the loop engine's float-op order — a
cumsum/running-max rewrite would be algebraically equal but rounded
differently), and the completion kernels as row-wise selections
(``max``/``sort``/``reduceat``). The kernels are a few percent of an
end-to-end sweep, which is why there is no compiled backend (see
``docs/performance.rst``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.exceptions import ConfigurationError

__all__ = [
    "KernelSuite",
    "available_kernel_backends",
    "coverage_completion",
    "count_completion",
    "get_suite",
    "group_completion",
    "link_recurrence",
    "partial_sum_completion",
]

#: Row chunking bound for the gathered ``(rows x pairs)`` scratch matrices
#: in the segment-reduction kernels. Chunk boundaries fall between whole
#: rows and rows are independent, so chunking cannot change any result.
_SEGMENT_CHUNK_CELLS = 1 << 22


@dataclass(frozen=True)
class KernelSuite:
    """The five hot-path kernels the vectorized engine calls.

    All matrices are ``(rows, columns)`` with independent rows, not
    necessarily C-ordered; every callable allocates and returns its output.
    ``positions`` matrices hold each active column's arrival rank;
    completion kernels return the 0-based rank completing each row
    (callers translate out-of-range sentinels to "never completes").
    """

    name: str
    link_recurrence: Callable[[np.ndarray, np.ndarray], np.ndarray]
    count_completion: Callable[[np.ndarray, np.ndarray], np.ndarray]
    partial_sum_completion: Callable[[np.ndarray, np.ndarray, int], np.ndarray]
    coverage_completion: Callable[
        [np.ndarray, np.ndarray, np.ndarray], np.ndarray
    ]
    group_completion: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]


def link_recurrence(
    compute_sorted: np.ndarray, transfer_sorted: np.ndarray
) -> np.ndarray:
    """``a_k = max(c_k, a_{k-1}) + t_k`` over completion-sorted columns.

    Steps in place over a worker-major (transposed) copy, so every step
    reads and writes contiguous memory; each element still takes one
    ``max`` and then one ``+``. Returns the ``(rows, workers)`` transpose.
    """
    arrival = np.array(compute_sorted.T, dtype=float, order="C")
    link_free = np.zeros(arrival.shape[1])
    for column, transfer in zip(arrival, np.ascontiguousarray(transfer_sorted.T)):
        np.maximum(column, link_free, out=column)
        np.add(column, transfer, out=column)
        link_free = column
    return arrival.T


def count_completion(positions: np.ndarray, required: np.ndarray) -> np.ndarray:
    """Per row, the max arrival rank over the required columns."""
    return positions[:, required].max(axis=1)


def partial_sum_completion(
    positions: np.ndarray, eligible: np.ndarray, needed: int
) -> np.ndarray:
    """Per row, the ``needed``-th smallest arrival rank over eligible columns."""
    return np.sort(positions[:, eligible], axis=1)[:, needed - 1]


def coverage_completion(
    positions: np.ndarray, owners_sorted: np.ndarray, segment_starts: np.ndarray
) -> np.ndarray:
    """Per row, the max over segments of each segment's min arrival rank.

    A 1-D layout serves every row. A 2-D layout holds one layout per trial,
    all of one shape: the rows split evenly into consecutive per-trial
    blocks, and block ``t`` uses layout row ``t``. The gathered temporary
    blocks hold ranks in the narrowest dtype that fits them.
    """
    num_rows = positions.shape[0]
    num_pairs = owners_sorted.shape[-1]
    positions = positions.astype(np.min_scalar_type(-positions.shape[1]), copy=False)
    rows_per_chunk = max(1, _SEGMENT_CHUNK_CELLS // max(num_pairs, 1))
    completing = np.empty(num_rows, dtype=int)
    if owners_sorted.ndim == 1:
        for start in range(0, num_rows, rows_per_chunk):
            block = positions[start : start + rows_per_chunk, owners_sorted]
            first_covered = np.minimum.reduceat(block, segment_starts, axis=1)
            completing[start : start + rows_per_chunk] = first_covered.max(axis=1)
        return completing
    trials = owners_sorted.shape[0]
    rows_per_trial = num_rows // trials
    blocks = positions.reshape(trials, rows_per_trial, -1)
    trials_per_chunk = max(1, rows_per_chunk // max(rows_per_trial, 1))
    for start in range(0, trials, trials_per_chunk):
        chunk = slice(start, start + trials_per_chunk)
        block = np.take_along_axis(blocks[chunk], owners_sorted[chunk, None, :], axis=2)
        # Each row's segments start at its own offset of the flattened block.
        offsets = np.arange(block.shape[0] * rows_per_trial) * num_pairs
        starts = offsets.reshape(-1, rows_per_trial, 1) + segment_starts[chunk, None, :]
        first_covered = np.minimum.reduceat(block.ravel(), starts.ravel())
        rows = slice(start * rows_per_trial, start * rows_per_trial + offsets.size)
        completing[rows] = first_covered.reshape(offsets.size, -1).max(axis=1)
    return completing


def group_completion(
    positions: np.ndarray, members: np.ndarray, group_starts: np.ndarray
) -> np.ndarray:
    """Per row, the min over groups of each group's max member arrival rank."""
    num_rows = positions.shape[0]
    rows_per_chunk = max(1, _SEGMENT_CHUNK_CELLS // max(members.size, 1))
    completing = np.empty(num_rows, dtype=int)
    for start in range(0, num_rows, rows_per_chunk):
        block = positions[start : start + rows_per_chunk, members]
        last_member = np.maximum.reduceat(block, group_starts, axis=1)
        completing[start : start + rows_per_chunk] = last_member.min(axis=1)
    return completing


_NUMPY_SUITE = KernelSuite(
    name="numpy",
    link_recurrence=link_recurrence,
    count_completion=count_completion,
    partial_sum_completion=partial_sum_completion,
    coverage_completion=coverage_completion,
    group_completion=group_completion,
)


def available_kernel_backends() -> tuple:
    """The kernel backends :func:`get_suite` accepts."""
    return (_NUMPY_SUITE.name,)


def get_suite(name: str) -> KernelSuite:
    """The :class:`KernelSuite` called ``name``; only ``"numpy"`` exists."""
    if name != _NUMPY_SUITE.name:
        raise ConfigurationError(
            f"unknown kernels backend {name!r}; expected one of "
            f"{list(available_kernel_backends())}"
        )
    return _NUMPY_SUITE

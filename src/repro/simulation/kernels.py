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
differently), and the completion kernels as row-wise selections (``max``
and ``sort`` over gathered columns). The coverage and group kernels read
dense layouts: one row of active columns per item or group, padded to a
common width. They transpose the ranks to a worker-major block with a
neutral sentinel row last, gather whole rows of it, and reduce over the
layout's two axes. The kernels are a small part of an end-to-end sweep,
which is why there is no compiled backend (see ``docs/performance.rst``).
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
    "rank_dtype",
]

#: Bound on the scratch bytes one take of a dense-layout kernel allocates:
#: the gathered ranks and an intp index entry per layout cell of each trial
#: taken. Chunk boundaries fall between whole rows and rows are
#: independent, so chunking cannot change any result.
_GATHER_CHUNK_BYTES = 1 << 19


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
    coverage_completion: Callable[[np.ndarray, np.ndarray], np.ndarray]
    group_completion: Callable[[np.ndarray, np.ndarray], np.ndarray]


def rank_dtype(n_active: int) -> np.dtype:
    """The narrowest signed dtype holding ``-1`` .. ``n_active``.

    Ranks ``0 .. n_active - 1``, the sentinels ``n_active`` and ``-1``, and
    the active columns of a dense layout (padding names column
    ``n_active``, the sentinel row) all fit it.
    """
    return np.min_scalar_type(-(n_active + 1))


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


def coverage_completion(positions: np.ndarray, owners: np.ndarray) -> np.ndarray:
    """Per row, the max over items of each item's min holder arrival rank.

    ``owners`` is a dense ``(items, holders)`` layout of active columns,
    padded with ``n_active``, whose rank reads as ``n_active`` (no holder
    arrives later). A 3-D ``(trials, items, holders)`` layout holds one
    layout per trial: the rows split evenly into consecutive per-trial
    blocks, and block ``t`` uses layout ``t``.
    """
    sentinel = positions.shape[1]
    return _dense_completion(positions, owners, sentinel, np.minimum, np.maximum)


def group_completion(positions: np.ndarray, members: np.ndarray) -> np.ndarray:
    """Per row, the min over groups of each group's max member arrival rank.

    ``members`` is a dense ``(groups, size)`` layout of active columns; a
    group shorter than the widest is padded with ``n_active``, whose rank
    reads as ``-1`` (no member arrives earlier).
    """
    return _dense_completion(positions, members, -1, np.maximum, np.minimum)


def _dense_completion(
    positions: np.ndarray,
    layout: np.ndarray,
    sentinel: int,
    within: np.ufunc,
    across: np.ufunc,
) -> np.ndarray:
    """Per row, ``across`` over the layout's rows of ``within`` over the
    ranks of the columns each layout row names.

    A 3-D layout stacks one layout per trial over consecutive blocks of
    rows. Whole trials share one :func:`_take_completion` while their
    scratch fits ``_GATHER_CHUNK_BYTES``; a trial too long for that takes
    its rows in chunks that fit.
    """
    num_rows, n_active = positions.shape
    layouts = layout if layout.ndim == 3 else layout[None]
    trials, items, width = layouts.shape
    rows_per_trial = num_rows // trials
    rank_bytes = items * width * rank_dtype(n_active).itemsize
    index_bytes = items * width * np.dtype(np.intp).itemsize
    completing = np.empty(num_rows, dtype=int)
    trials_per_chunk = _GATHER_CHUNK_BYTES // (rows_per_trial * rank_bytes + index_bytes)
    if trials_per_chunk:
        for first in range(0, trials, trials_per_chunk):
            chunk = layouts[first : first + trials_per_chunk]
            rows = slice(first * rows_per_trial, (first + len(chunk)) * rows_per_trial)
            completing[rows] = _take_completion(positions[rows], chunk, sentinel, within, across)
        return completing
    rows_per_chunk = max(1, (_GATHER_CHUNK_BYTES - index_bytes) // rank_bytes)
    for t in range(trials):
        stop = (t + 1) * rows_per_trial
        for start in range(t * rows_per_trial, stop, rows_per_chunk):
            rows = slice(start, min(start + rows_per_chunk, stop))
            completing[rows] = _take_completion(
                positions[rows], layouts[t : t + 1], sentinel, within, across
            )
    return completing


def _take_completion(
    positions: np.ndarray,
    layouts: np.ndarray,
    sentinel: int,
    within: np.ufunc,
    across: np.ufunc,
) -> np.ndarray:
    """:func:`_dense_completion` over ``layouts``' trials, in one take.

    The ranks are transposed to a worker-major ``(n_active + 1, rows)``
    block per trial in :func:`rank_dtype`, whose last row, which layout
    padding names, holds ``sentinel``; the trials' blocks lie end to end.
    One ``np.take`` of whole block rows, indexed by the layouts transposed
    to ``(holders, items, trials)`` and offset to their trial's block,
    puts the reduced axes first, so both reductions run over long
    contiguous runs.
    """
    count = layouts.shape[0]
    rows_per_trial, n_active = positions.shape[0] // count, positions.shape[1]
    block = np.empty((count, n_active + 1, rows_per_trial), dtype=rank_dtype(n_active))
    block[:, :n_active] = positions.reshape(count, rows_per_trial, n_active).transpose(0, 2, 1)
    block[:, n_active] = sentinel
    index = layouts.transpose(2, 1, 0).astype(np.intp, order="C")
    index += np.arange(0, count * (n_active + 1), n_active + 1)
    gathered = np.take(block.reshape(-1, rows_per_trial), index, axis=0)
    return across.reduce(within.reduce(gathered, axis=0), axis=0).ravel()


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

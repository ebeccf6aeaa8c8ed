"""Placement generators — how the data items are distributed across workers.

Each generator returns a :class:`~repro.coding.assignment.DataAssignment`
(plus scheme-specific side information where relevant). Items may be single
examples or whole batches; the callers decide the granularity.

Random placements fix the random stream: :func:`random_subset_placement`
returns the rows, and leaves the generator in the state, of one
``generator.choice(m, size=r, replace=False)`` call per worker in worker
order. Where that was measured to be faster (``r <= 64``, ``n >= max(12,
2r)``), it reproduces those calls from a single bounded ``integers`` draw;
elsewhere it makes them.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.coding.assignment import DataAssignment
from repro.datasets.batching import BatchSpec, contiguous_partition
from repro.exceptions import AssignmentError
from repro.utils.rng import RandomState, as_generator
from repro.utils.validation import check_positive_int

__all__ = [
    "uncoded_placement",
    "bcc_placement",
    "random_subset_placement",
    "cyclic_placement",
    "heterogeneous_random_placement",
    "group_placement",
]


def uncoded_placement(num_examples: int, num_workers: int) -> DataAssignment:
    """Disjoint, no-redundancy split: worker ``i`` gets the ``i``-th contiguous block.

    This is the paper's "uncoded" baseline; the master must wait for every
    worker.
    """
    m = check_positive_int(num_examples, "num_examples")
    n = check_positive_int(num_workers, "num_workers")
    if n > m:
        raise AssignmentError(
            f"the uncoded scheme cannot give {n} workers non-empty shares of "
            f"{m} examples"
        )
    spec = contiguous_partition(m, n)
    return DataAssignment(num_examples=m, assignments=spec.batches)


def bcc_placement(
    batch_spec: BatchSpec, num_workers: int, rng: RandomState = None
) -> Tuple[DataAssignment, np.ndarray]:
    """The BCC data distribution: each worker picks one batch uniformly at random.

    Parameters
    ----------
    batch_spec:
        The partition of the examples into ``ceil(m/r)`` batches.
    num_workers:
        Number of workers drawing batches independently.

    Returns
    -------
    (assignment, batch_choices):
        ``assignment`` maps workers to *example* indices (the contents of
        their chosen batch); ``batch_choices[i]`` is the batch id worker ``i``
        selected. Note the assignment is random and need not cover every
        batch — the BCC master simply keeps waiting until it does (across the
        workers that do report), and the scheme's analysis (Theorem 1)
        assumes ``n`` is large enough for coverage to occur with high
        probability.
    """
    n = check_positive_int(num_workers, "num_workers")
    generator = as_generator(rng)
    batch_choices = generator.integers(0, batch_spec.num_batches, size=n)
    return DataAssignment.from_batches(batch_spec, batch_choices), batch_choices


# The array path runs where it was measured to beat the per-worker loop
# (docs/performance.rst, "Placement draws"). Its int64 sort key packs a draw
# with its column, which caps the load at 2**6 and m at 2**57. A load of at
# most 64 also keeps ``choice`` on its Floyd branch, which takes a tail
# shuffle instead only for m > 10_000 and load > m // 50.
_COLUMN_BITS = 6
_FLOYD_MAX_LOAD = 1 << _COLUMN_BITS
_FLOYD_MAX_EXAMPLES = 1 << (63 - _COLUMN_BITS)
_FLOYD_MIN_WORKERS = 12


def random_subset_placement(
    num_examples: int, num_workers: int, load: int, rng: RandomState = None
) -> DataAssignment:
    """The simple randomized baseline: each worker picks ``load`` distinct examples.

    Selection is uniform without replacement, independently across workers
    (the scheme sketched in the paper's "Prior Art" section, Eq. 5–6).
    Worker ``i``'s draw is row ``i`` of one ``(n, load)`` index matrix in the
    narrowest signed integer dtype that holds every index.

    The rows, and the generator's state afterwards, are those of ``n``
    calls ``generator.choice(m, size=load, replace=False)`` in worker order.
    With ``load <= 64`` and ``n >= max(12, 2 * load)`` (and ``m <= 2**57``)
    they come from one ``generator.integers`` draw replayed by
    ``_floyd_rows``; elsewhere the ``n`` calls are made, which is faster
    there.
    """
    m = check_positive_int(num_examples, "num_examples")
    n = check_positive_int(num_workers, "num_workers")
    r = check_positive_int(load, "load")
    if r > m:
        raise AssignmentError(f"load {r} cannot exceed the number of examples {m}")
    generator = as_generator(rng)
    dtype = np.min_scalar_type(-m)
    if r <= _FLOYD_MAX_LOAD and n >= max(_FLOYD_MIN_WORKERS, 2 * r) and m <= _FLOYD_MAX_EXAMPLES:
        rows = _floyd_rows(generator, m, n, r).astype(dtype, order="C")
    else:
        rows = np.empty((n, r), dtype=dtype)
        for worker in range(n):
            rows[worker] = generator.choice(m, size=r, replace=False)
    return DataAssignment.from_rows(m, rows)


def _floyd_rows(generator: np.random.Generator, m: int, n: int, r: int) -> np.ndarray:
    """``n`` rows of ``generator.choice(m, size=r, replace=False)`` from one draw.

    ``choice`` takes Floyd's sample: pick ``k`` draws ``v`` from ``[0,
    m-r+k]`` and keeps it unless an earlier pick holds ``v``, in which case
    it takes ``m-r+k``. It then shuffles the picks, swapping position ``i``
    with a draw from ``[0, i]`` for ``i = r-1, ..., 1``. Every one of those
    draws comes from the bounded-integer routine that ``integers`` runs once
    per bound, in order; so one ``integers`` call over those bounds, laid
    out worker-major, consumes exactly what the ``n`` calls consume. The
    picks and swaps are then replayed as array passes over the workers.
    Returns int64 rows.
    """
    low = m - r
    step = np.arange(r)
    bounds = np.concatenate((low + step, step[:0:-1]))
    draws = generator.integers(0, bounds, size=(n, 2 * r - 1), endpoint=True)
    picks = draws[:, :r]
    # Pick k is displaced when an earlier pick holds its draw v: when v was
    # drawn before (its first drawer, or a still earlier pick, holds it), or
    # when v = low + q for an earlier pick q that was itself displaced. One
    # sort per row finds the first case; fixpoint passes close the second.
    keys = np.sort((picks << _COLUMN_BITS) | step, axis=1)
    repeat = (keys[:, 1:] >> _COLUMN_BITS) == (keys[:, :-1] >> _COLUMN_BITS)
    column = keys[:, 1:] & (_FLOYD_MAX_LOAD - 1)
    displaced = np.zeros(n * r, dtype=bool)
    displaced[(column + np.arange(0, n * r, r)[:, None])[repeat]] = True
    offset = picks - low - step
    source = np.flatnonzero((offset < 0) & (picks >= low))
    target = source + offset.ravel()[source]
    while True:
        grown = displaced[target] & ~displaced[source]
        if not grown.any():
            break
        displaced[source[grown]] = True
    # Column-major, so each swap reads and writes one contiguous column.
    held = np.where(displaced.reshape(n, r), low + step, picks).T.copy()
    flat = held.ravel()
    swaps = draws[:, r:].T * n + np.arange(n)
    for i, at in zip(range(r - 1, 0, -1), swaps):
        moved = flat[at]
        flat[at] = held[i]
        held[i] = moved
    return held.T


def cyclic_placement(num_items: int, num_workers: int, load: int) -> DataAssignment:
    """Cyclic windows: worker ``i`` holds items ``{i, i+1, ..., i+load-1} mod m``.

    This is the support structure of the cyclic-repetition, Reed-Solomon and
    cyclic-MDS gradient codes. The usual setting has ``num_items ==
    num_workers`` (one data partition per worker); the function also accepts
    ``num_items < num_workers`` in which case the windows wrap over the
    smaller item range.
    """
    m = check_positive_int(num_items, "num_items")
    n = check_positive_int(num_workers, "num_workers")
    r = check_positive_int(load, "load")
    if r > m:
        raise AssignmentError(f"load {r} cannot exceed the number of items {m}")
    assignments = tuple(
        np.sort((np.arange(r) + i) % m) for i in range(n)
    )
    return DataAssignment(num_examples=m, assignments=assignments)


def heterogeneous_random_placement(
    num_examples: int,
    loads: Sequence[int],
    rng: RandomState = None,
    *,
    with_replacement: bool = False,
) -> DataAssignment:
    """Generalized-BCC placement: worker ``i`` picks ``loads[i]`` examples at random.

    ``with_replacement=False`` (default) matches the scheme ``G0`` of the
    paper's Theorem 2 proof (each worker samples without replacement);
    ``True`` gives the relaxed scheme ``G1`` used in the analysis. With
    replacement, duplicates within a worker are discarded (processing an
    example twice adds nothing), which can only help coverage.
    """
    m = check_positive_int(num_examples, "num_examples")
    loads = np.asarray(loads)
    # Casting would truncate fractional loads and read booleans as 0/1.
    if loads.ndim != 1 or loads.size == 0 or loads.dtype.kind not in "iu":
        raise AssignmentError(
            f"loads must be a non-empty 1-D integer sequence, got dtype "
            f"{loads.dtype} with shape {loads.shape}"
        )
    if np.any(loads < 0):
        raise AssignmentError("loads must be non-negative")
    if not with_replacement and np.any(loads > m):
        raise AssignmentError(
            "a load exceeds the number of examples and sampling is without replacement"
        )
    generator = as_generator(rng)
    assignments = []
    for load in loads:
        if load == 0:
            assignments.append(np.array([], dtype=int))
        elif with_replacement:
            picks = generator.integers(0, m, size=int(load))
            assignments.append(np.unique(picks))
        else:
            assignments.append(
                np.sort(generator.choice(m, size=int(min(load, m)), replace=False))
            )
    return DataAssignment(num_examples=m, assignments=tuple(assignments))


def group_placement(num_examples: int, num_groups: int, workers_per_group: int) -> DataAssignment:
    """Fractional-repetition placement: groups of workers replicate disjoint shares.

    The ``num_examples`` items are split into ``workers_per_group`` disjoint
    shares; each of the ``num_groups`` groups contains ``workers_per_group``
    workers, and the ``j``-th worker of every group holds the ``j``-th share.
    Equivalently each group jointly holds the entire dataset, giving
    ``num_groups``-fold replication. Total workers = ``num_groups *
    workers_per_group``.
    """
    m = check_positive_int(num_examples, "num_examples")
    g = check_positive_int(num_groups, "num_groups")
    w = check_positive_int(workers_per_group, "workers_per_group")
    if w > m:
        raise AssignmentError(
            f"cannot split {m} items into {w} non-empty shares per group"
        )
    shares = contiguous_partition(m, w).batches
    assignments = []
    for _group in range(g):
        for j in range(w):
            assignments.append(shares[j])
    return DataAssignment(num_examples=m, assignments=tuple(assignments))

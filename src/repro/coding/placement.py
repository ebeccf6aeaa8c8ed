"""Placement generators — how the data items are distributed across workers.

Each generator returns a :class:`~repro.coding.assignment.DataAssignment`
(plus scheme-specific side information where relevant). Items may be single
examples or whole batches; the callers decide the granularity.
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


def random_subset_placement(
    num_examples: int, num_workers: int, load: int, rng: RandomState = None
) -> DataAssignment:
    """The simple randomized baseline: each worker picks ``load`` distinct examples.

    Selection is uniform without replacement, independently across workers
    (the scheme sketched in the paper's "Prior Art" section, Eq. 5–6).
    Worker ``i``'s draw is row ``i`` of one ``(n, load)`` index matrix in the
    narrowest signed integer dtype that holds every index.
    """
    m = check_positive_int(num_examples, "num_examples")
    n = check_positive_int(num_workers, "num_workers")
    r = check_positive_int(load, "load")
    if r > m:
        raise AssignmentError(f"load {r} cannot exceed the number of examples {m}")
    generator = as_generator(rng)
    rows = np.empty((n, r), dtype=np.min_scalar_type(-m))
    for worker in range(n):
        rows[worker] = generator.choice(m, size=r, replace=False)
    return DataAssignment.from_rows(m, rows)


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
    loads = np.asarray(loads, dtype=int)
    if loads.ndim != 1 or loads.size == 0:
        raise AssignmentError("loads must be a non-empty 1-D integer sequence")
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

"""The data-to-worker assignment (the bipartite graph ``G`` of the paper).

An assignment records, for every worker, the indices of the training examples
(or data partitions) it processes locally. The paper represents this as a
bipartite graph between data vertices and worker vertices; here the same
object exposes both the per-worker index sets and the binary assignment
matrix, plus the graph view for callers that have ``networkx`` installed.

A placement is stored in the form its generator produces it, so building and
validating one costs a few array operations, not a Python loop per worker:

* a tuple of per-worker index arrays (the constructor);
* an ``(n, r)`` index matrix, one row per worker (:meth:`DataAssignment.from_rows`,
  the randomized scheme's placement);
* one batch of a partition per worker (:meth:`DataAssignment.from_batches`,
  the BCC placement).

The per-worker tuple :attr:`DataAssignment.assignments` is built only when
something reads it; loads, coverage and the flat ``(item, worker)`` pairs are
computed from the stored form directly.
"""

from __future__ import annotations

from typing import Any, List, Sequence, Tuple

import numpy as np

from repro.datasets.batching import BatchSpec
from repro.exceptions import AssignmentError
from repro.utils.validation import check_positive_int

__all__ = ["DataAssignment"]


def _require_integer(indices: np.ndarray, worker: int) -> None:
    """Refuse a non-empty index array that is not of an integer dtype.

    Casting would silently truncate floats and turn booleans into 0/1
    indices.
    """
    if indices.size and indices.dtype.kind not in "iu":
        raise AssignmentError(
            f"worker {worker} assignment must hold integer indices, got "
            f"dtype {indices.dtype}"
        )


def _raise_first_offence(
    first_out: int, first_repeat: int, num_workers: int, num_examples: int
) -> None:
    """Report the first worker with an out-of-range or a repeated index.

    A worker's range error wins over its own duplicates.
    """
    if first_out < num_workers and first_out <= first_repeat:
        raise AssignmentError(
            f"worker {first_out} assignment references indices outside "
            f"[0, {num_examples})"
        )
    if first_repeat < num_workers:
        raise AssignmentError(
            f"worker {first_repeat} assignment contains duplicate indices"
        )


class DataAssignment:
    """Which examples each worker processes.

    Two assignments are equal when they have the same ``num_examples`` and
    the same per-worker index arrays, whatever form stores them. Instances
    are immutable and, like the arrays they hold, unhashable.

    Attributes
    ----------
    num_examples:
        Total number of data items ``m`` being distributed (examples, or
        batches when the scheme assigns whole batches).
    assignments:
        Tuple of 1-D integer arrays; ``assignments[i]`` lists the item
        indices worker ``i`` processes. Arrays may be empty (idle worker) but
        must not contain duplicates or out-of-range indices.
    """

    __slots__ = ("num_examples", "_loads", "_tuple", "_rows", "_partition", "_choices", "_items")
    __hash__ = None  # type: ignore[assignment]

    num_examples: int

    def __init__(self, num_examples: int, assignments: Sequence[Any]) -> None:
        check_positive_int(num_examples, "num_examples")
        if len(assignments) == 0:
            raise AssignmentError("an assignment needs at least one worker")
        normalised: List[np.ndarray] = []
        for i, indices in enumerate(assignments):
            idx = np.asarray(indices)
            if idx.ndim != 1:
                raise AssignmentError(f"worker {i} assignment must be a 1-D index array")
            _require_integer(idx, i)
            normalised.append(idx.astype(int))
        self._store(num_examples, np.array([a.size for a in normalised], dtype=int))
        self._check_indices(normalised)
        object.__setattr__(self, "_tuple", tuple(normalised))

    def _store(self, num_examples: int, loads: np.ndarray) -> None:
        object.__setattr__(self, "num_examples", int(num_examples))
        object.__setattr__(self, "_loads", loads)
        for name in ("_tuple", "_rows", "_partition", "_choices", "_items"):
            object.__setattr__(self, name, None)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"DataAssignment is immutable; cannot set {name!r}")

    def _check_indices(self, assignments: List[np.ndarray]) -> None:
        """Range and duplicate checks over every worker in one pass.

        Names the first offending worker; a worker's range error wins over
        its own duplicates.
        """
        num_workers = len(assignments)
        flat = np.concatenate(assignments)
        owners = np.repeat(np.arange(num_workers), [a.size for a in assignments])
        in_range = (flat >= 0) & (flat < self.num_examples)
        first_out = num_workers if in_range.all() else int(owners[np.argmin(in_range)])
        # (worker, index) keys are unique per pair once indices are in range.
        keys = np.sort(owners[in_range] * self.num_examples + flat[in_range])
        repeated = keys[1:][keys[1:] == keys[:-1]]
        first_repeat = int(repeated[0]) // self.num_examples if repeated.size else num_workers
        _raise_first_offence(first_out, first_repeat, num_workers, self.num_examples)

    # ------------------------------------------------------------------ #
    # Array-form constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_rows(cls, num_examples: int, rows: np.ndarray) -> "DataAssignment":
        """An assignment whose worker ``i`` holds the indices ``rows[i]``.

        ``rows`` is an ``(n, r)`` integer matrix, one row per worker in
        worker order. The checks and their errors are the constructor's.
        """
        check_positive_int(num_examples, "num_examples")
        matrix = np.array(rows)
        if matrix.ndim != 2:
            raise AssignmentError("placement rows must form a 2-D (workers, load) matrix")
        num_workers = matrix.shape[0]
        if num_workers == 0:
            raise AssignmentError("an assignment needs at least one worker")
        _require_integer(matrix, 0)
        out = ((matrix < 0) | (matrix >= num_examples)).any(axis=1)
        ordered = np.sort(matrix, axis=1)
        repeat = (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
        _raise_first_offence(
            int(np.argmax(out)) if out.any() else num_workers,
            int(np.argmax(repeat)) if repeat.any() else num_workers,
            num_workers,
            num_examples,
        )
        self = cls.__new__(cls)
        self._store(num_examples, np.full(num_workers, matrix.shape[1], dtype=int))
        object.__setattr__(self, "_rows", matrix)
        return self

    @classmethod
    def from_batches(cls, partition: BatchSpec, choices: np.ndarray) -> "DataAssignment":
        """An assignment whose worker ``i`` holds batch ``choices[i]`` of ``partition``."""
        picks = np.array(choices)
        if picks.ndim != 1 or picks.size == 0:
            raise AssignmentError("batch choices must be a non-empty 1-D array")
        if picks.dtype.kind not in "iu":
            raise AssignmentError(f"batch choices must be integers, got dtype {picks.dtype}")
        outside = (picks < 0) | (picks >= partition.num_batches)
        if outside.any():
            raise AssignmentError(
                f"worker {int(np.argmax(outside))} chose a batch outside "
                f"[0, {partition.num_batches})"
            )
        self = cls.__new__(cls)
        self._store(partition.num_examples, partition.batch_sizes[picks])
        object.__setattr__(self, "_partition", partition)
        object.__setattr__(self, "_choices", picks)
        return self

    def __reduce__(self) -> Tuple[Any, ...]:
        if self._rows is not None:
            return (DataAssignment.from_rows, (self.num_examples, self._rows))
        if self._partition is not None:
            return (DataAssignment.from_batches, (self._partition, self._choices))
        return (DataAssignment, (self.num_examples, self._tuple))

    # ------------------------------------------------------------------ #
    # Value semantics
    # ------------------------------------------------------------------ #
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DataAssignment):
            return NotImplemented
        return self is other or (
            self.num_examples == other.num_examples
            and np.array_equal(self._loads, other._loads)
            and np.array_equal(self.pairs()[0], other.pairs()[0])
        )

    def __repr__(self) -> str:
        return self.describe()

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def assignments(self) -> tuple:
        """Tuple of per-worker ``int`` index arrays, built on first read."""
        if self._tuple is None:
            items = self.pairs()[0].astype(int)
            object.__setattr__(
                self, "_tuple", tuple(np.split(items, np.cumsum(self._loads)[:-1]))
            )
        return self._tuple

    def pairs(self) -> Tuple[np.ndarray, np.ndarray]:
        """The placement as flat ``(items, workers)`` arrays, worker-major.

        ``items[p]`` is held by worker ``workers[p]``; each worker's items
        appear in the order of its index array. ``items`` keeps the stored
        form's dtype.
        """
        if self._items is None:
            if self._rows is not None:
                items = self._rows.ravel()
            elif self._partition is not None:
                sizes = self._partition.batch_sizes
                batch_starts = np.cumsum(sizes) - sizes
                worker_starts = np.cumsum(self._loads) - self._loads
                offsets = np.repeat(batch_starts[self._choices] - worker_starts, self._loads)
                members = np.concatenate(self._partition.batches)
                items = members[offsets + np.arange(offsets.size)]
            else:
                items = np.concatenate(self._tuple)
            object.__setattr__(self, "_items", items)
        return self._items, np.repeat(np.arange(self._loads.size), self._loads)

    @property
    def num_workers(self) -> int:
        """Number of workers ``n``."""
        return int(self._loads.size)

    @property
    def loads(self) -> np.ndarray:
        """Per-worker loads ``r_i = |G_i|``."""
        return self._loads.copy()

    @property
    def computational_load(self) -> int:
        """The paper's Definition 1: ``r = max_i r_i``."""
        return int(self._loads.max())

    @property
    def total_load(self) -> int:
        """Total number of (example, worker) pairs, i.e. total redundancy."""
        return int(self._loads.sum())

    @property
    def redundancy(self) -> float:
        """Average number of workers processing each example."""
        return self.total_load / self.num_examples

    def worker_indices(self, worker: int) -> np.ndarray:
        """Return the index set ``G_i`` of worker ``worker``."""
        if not (0 <= worker < self.num_workers):
            raise AssignmentError(
                f"worker must lie in [0, {self.num_workers}), got {worker}"
            )
        return self.assignments[worker]

    # ------------------------------------------------------------------ #
    # Coverage
    # ------------------------------------------------------------------ #
    def covered_examples(self, workers: Sequence[int] | np.ndarray) -> np.ndarray:
        """Boolean mask of examples covered by the union of ``workers``' sets.

        ``workers`` must hold integer worker ids; a boolean mask or floats
        raise :class:`~repro.exceptions.AssignmentError` instead of being
        cast to ids.
        """
        chosen = np.asarray(workers).ravel()
        if chosen.size and chosen.dtype.kind not in "iu":
            raise AssignmentError(
                f"workers must be integer worker ids, got dtype {chosen.dtype}"
            )
        outside = (chosen < 0) | (chosen >= self.num_workers)
        if outside.any():
            raise AssignmentError(
                f"worker must lie in [0, {self.num_workers}), got "
                f"{int(chosen[np.argmax(outside)])}"
            )
        selected = np.zeros(self.num_workers, dtype=bool)
        selected[chosen.astype(int)] = True
        items, owners = self.pairs()
        covered = np.zeros(self.num_examples, dtype=bool)
        covered[items[selected[owners]]] = True
        return covered

    def covers_all(self, workers: Sequence[int] | np.ndarray) -> bool:
        """True when the union of ``workers``' sets equals the whole dataset."""
        return bool(self.covered_examples(workers).all())

    def is_complete(self) -> bool:
        """True when every example is processed by at least one worker.

        This is the feasibility requirement ``N(k_1) u ... u N(k_n) = {d_j}``
        from the paper's problem formulation.
        """
        return bool(self.example_multiplicity().all())

    def example_multiplicity(self) -> np.ndarray:
        """Number of workers processing each example."""
        return np.bincount(self.pairs()[0], minlength=self.num_examples).astype(int)

    # ------------------------------------------------------------------ #
    # Alternative views
    # ------------------------------------------------------------------ #
    def assignment_matrix(self) -> np.ndarray:
        """Binary ``(n, m)`` matrix with ``A[i, j] = 1`` iff worker ``i`` holds item ``j``."""
        matrix = np.zeros((self.num_workers, self.num_examples), dtype=int)
        items, owners = self.pairs()
        matrix[owners, items] = 1
        return matrix

    def to_bipartite_graph(self) -> Any:
        """Return the paper's bipartite graph as a :class:`networkx.Graph`.

        Data vertices are labelled ``("d", j)`` and worker vertices
        ``("k", i)``. Requires the optional ``networkx`` dependency.
        """
        try:
            import networkx as nx
        except ImportError as error:  # pragma: no cover - optional dependency
            raise ImportError(
                "networkx is required for to_bipartite_graph(); install the "
                "'graph' extra"
            ) from error
        graph = nx.Graph()
        graph.add_nodes_from((("d", j) for j in range(self.num_examples)), bipartite=0)
        graph.add_nodes_from((("k", i) for i in range(self.num_workers)), bipartite=1)
        for i, indices in enumerate(self.assignments):
            graph.add_edges_from((("k", i), ("d", int(j))) for j in indices)
        return graph

    # ------------------------------------------------------------------ #
    @classmethod
    def from_matrix(cls, matrix: np.ndarray) -> "DataAssignment":
        """Build an assignment from a binary ``(n, m)`` matrix."""
        matrix = np.asarray(matrix)
        if matrix.ndim != 2:
            raise AssignmentError("assignment matrix must be 2-dimensional")
        assignments = tuple(np.flatnonzero(row) for row in matrix)
        return cls(num_examples=matrix.shape[1], assignments=assignments)

    def describe(self) -> str:
        """One-line summary used in logs and reports."""
        return (
            f"DataAssignment(n={self.num_workers}, m={self.num_examples}, "
            f"r={self.computational_load}, redundancy={self.redundancy:.2f})"
        )

"""The data-to-worker assignment (the bipartite graph ``G`` of the paper).

An assignment records, for every worker, the indices of the training examples
(or data partitions) it processes locally. The paper represents this as a
bipartite graph between data vertices and worker vertices; here the same
object exposes both the per-worker index sets and the binary assignment
matrix, plus the graph view for callers that have ``networkx`` installed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.exceptions import AssignmentError
from repro.utils.validation import check_positive_int

__all__ = ["DataAssignment"]


@dataclass(frozen=True)
class DataAssignment:
    """Which examples each worker processes.

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

    num_examples: int
    assignments: tuple

    def __post_init__(self) -> None:
        check_positive_int(self.num_examples, "num_examples")
        if len(self.assignments) == 0:
            raise AssignmentError("an assignment needs at least one worker")
        normalised: List[np.ndarray] = []
        for i, indices in enumerate(self.assignments):
            idx = np.asarray(indices)
            if idx.ndim != 1:
                raise AssignmentError(f"worker {i} assignment must be a 1-D index array")
            if idx.size and idx.dtype.kind not in "iu":
                # Casting would silently truncate floats and turn booleans
                # into 0/1 indices.
                raise AssignmentError(
                    f"worker {i} assignment must hold integer indices, got "
                    f"dtype {idx.dtype}"
                )
            normalised.append(idx.astype(int))
        self._check_indices(normalised)
        object.__setattr__(self, "assignments", tuple(normalised))

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
        if first_out < num_workers and first_out <= first_repeat:
            raise AssignmentError(
                f"worker {first_out} assignment references indices outside "
                f"[0, {self.num_examples})"
            )
        if first_repeat < num_workers:
            raise AssignmentError(
                f"worker {first_repeat} assignment contains duplicate indices"
            )

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def num_workers(self) -> int:
        """Number of workers ``n``."""
        return len(self.assignments)

    @property
    def loads(self) -> np.ndarray:
        """Per-worker loads ``r_i = |G_i|``."""
        return np.array([len(a) for a in self.assignments], dtype=int)

    @property
    def computational_load(self) -> int:
        """The paper's Definition 1: ``r = max_i r_i``."""
        return int(self.loads.max())

    @property
    def total_load(self) -> int:
        """Total number of (example, worker) pairs, i.e. total redundancy."""
        return int(self.loads.sum())

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
        """Boolean mask of examples covered by the union of ``workers``' sets."""
        covered = np.zeros(self.num_examples, dtype=bool)
        for worker in np.asarray(workers, dtype=int):
            indices = self.worker_indices(int(worker))
            if indices.size:
                covered[indices] = True
        return covered

    def covers_all(self, workers: Sequence[int] | np.ndarray) -> bool:
        """True when the union of ``workers``' sets equals the whole dataset."""
        return bool(self.covered_examples(workers).all())

    def is_complete(self) -> bool:
        """True when every example is processed by at least one worker.

        This is the feasibility requirement ``N(k_1) u ... u N(k_n) = {d_j}``
        from the paper's problem formulation.
        """
        return self.covers_all(np.arange(self.num_workers))

    def example_multiplicity(self) -> np.ndarray:
        """Number of workers processing each example."""
        counts = np.zeros(self.num_examples, dtype=int)
        for indices in self.assignments:
            if indices.size:
                counts[indices] += 1
        return counts

    # ------------------------------------------------------------------ #
    # Alternative views
    # ------------------------------------------------------------------ #
    def assignment_matrix(self) -> np.ndarray:
        """Binary ``(n, m)`` matrix with ``A[i, j] = 1`` iff worker ``i`` holds item ``j``."""
        matrix = np.zeros((self.num_workers, self.num_examples), dtype=int)
        for i, indices in enumerate(self.assignments):
            if indices.size:
                matrix[i, indices] = 1
        return matrix

    def to_bipartite_graph(self):
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

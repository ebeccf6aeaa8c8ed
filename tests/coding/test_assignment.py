"""Tests for DataAssignment."""

import numpy as np
import pytest

from repro.coding.assignment import DataAssignment
from repro.exceptions import AssignmentError


@pytest.fixture
def assignment():
    # 3 workers over 6 examples with some overlap and worker 2 idle-ish.
    return DataAssignment(
        num_examples=6,
        assignments=(np.array([0, 1, 2]), np.array([2, 3, 4, 5]), np.array([5])),
    )


class TestValidation:
    def test_requires_workers(self):
        with pytest.raises(AssignmentError):
            DataAssignment(num_examples=3, assignments=())

    def test_rejects_out_of_range(self):
        with pytest.raises(AssignmentError):
            DataAssignment(num_examples=3, assignments=(np.array([0, 3]),))
        with pytest.raises(AssignmentError):
            DataAssignment(num_examples=3, assignments=(np.array([-1]),))

    def test_rejects_duplicates_within_worker(self):
        with pytest.raises(AssignmentError):
            DataAssignment(num_examples=3, assignments=(np.array([1, 1]),))

    def test_rejects_2d_assignment(self):
        with pytest.raises(AssignmentError):
            DataAssignment(num_examples=3, assignments=(np.zeros((2, 2), dtype=int),))

    def test_empty_worker_allowed(self):
        assignment = DataAssignment(
            num_examples=2, assignments=(np.array([0, 1]), np.array([], dtype=int))
        )
        assert assignment.loads.tolist() == [2, 0]

    def test_empty_lists_of_any_dtype_allowed(self):
        assignment = DataAssignment(
            num_examples=2,
            assignments=([], np.array([], dtype=float), np.array([], dtype=bool), [1]),
        )
        assert assignment.loads.tolist() == [0, 0, 0, 1]
        assert all(indices.dtype == int for indices in assignment.assignments)

    def test_rejects_non_integer_indices(self):
        # Casting would truncate [0.5, 2.9] to [0, 2].
        with pytest.raises(AssignmentError, match="worker 1 .*integer indices"):
            DataAssignment(num_examples=3, assignments=([0], [0.5, 2.9]))

    def test_rejects_boolean_indices(self):
        # Casting would turn a mask into the indices [1, 0].
        with pytest.raises(AssignmentError, match="worker 0 .*integer indices"):
            DataAssignment(num_examples=3, assignments=([True, False],))

    def test_names_the_first_offending_worker(self):
        with pytest.raises(AssignmentError, match="worker 1 assignment contains dup"):
            DataAssignment(num_examples=4, assignments=([0, 1], [2, 2], [5]))
        with pytest.raises(AssignmentError, match="worker 1 assignment references"):
            DataAssignment(num_examples=4, assignments=([0, 1], [2, 4], [3, 3]))
        # Within one worker the range check comes first.
        with pytest.raises(AssignmentError, match="worker 0 assignment references"):
            DataAssignment(num_examples=4, assignments=([1, 1, 7],))
        # Out-of-range keys cannot alias another worker's in-range index.
        with pytest.raises(AssignmentError, match="worker 0 assignment references"):
            DataAssignment(num_examples=4, assignments=([4], [0]))


class TestProperties:
    def test_loads_and_computational_load(self, assignment):
        assert assignment.loads.tolist() == [3, 4, 1]
        assert assignment.computational_load == 4
        assert assignment.total_load == 8
        assert assignment.redundancy == pytest.approx(8 / 6)

    def test_worker_indices(self, assignment):
        np.testing.assert_array_equal(assignment.worker_indices(2), [5])
        with pytest.raises(AssignmentError):
            assignment.worker_indices(3)

    def test_example_multiplicity(self, assignment):
        multiplicity = assignment.example_multiplicity()
        assert multiplicity.tolist() == [1, 1, 2, 1, 1, 2]


class TestCoverage:
    def test_is_complete(self, assignment):
        assert assignment.is_complete()

    def test_incomplete_assignment(self):
        partial = DataAssignment(
            num_examples=4, assignments=(np.array([0]), np.array([1, 2]))
        )
        assert not partial.is_complete()

    def test_covers_all_subsets(self, assignment):
        assert assignment.covers_all([0, 1])
        assert not assignment.covers_all([0, 2])
        assert not assignment.covers_all([2])

    def test_covered_examples_mask(self, assignment):
        mask = assignment.covered_examples([0])
        assert mask.tolist() == [True, True, True, False, False, False]


class TestViews:
    def test_assignment_matrix_roundtrip(self, assignment):
        matrix = assignment.assignment_matrix()
        assert matrix.shape == (3, 6)
        assert matrix.sum() == assignment.total_load
        rebuilt = DataAssignment.from_matrix(matrix)
        assert rebuilt.loads.tolist() == assignment.loads.tolist()
        for worker in range(3):
            np.testing.assert_array_equal(
                np.sort(rebuilt.worker_indices(worker)),
                np.sort(assignment.worker_indices(worker)),
            )

    def test_from_matrix_rejects_non_2d(self):
        with pytest.raises(AssignmentError):
            DataAssignment.from_matrix(np.zeros(3))

    def test_bipartite_graph(self, assignment):
        networkx = pytest.importorskip("networkx")
        graph = assignment.to_bipartite_graph()
        assert graph.number_of_nodes() == 6 + 3
        assert graph.number_of_edges() == assignment.total_load
        assert networkx.is_bipartite(graph)

    def test_describe(self, assignment):
        text = assignment.describe()
        assert "n=3" in text and "m=6" in text and "r=4" in text

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


class TestArrayForms:
    """The rows and batch forms validate and read like the tuple form."""

    def test_rows_form_equals_the_tuple_form(self):
        rows = np.array([[0, 1], [3, 2]], dtype=np.int8)
        from_rows = DataAssignment.from_rows(4, rows)
        from_tuple = DataAssignment(4, (np.array([0, 1]), np.array([3, 2])))
        assert from_rows == from_tuple and from_tuple == from_rows
        assert from_rows.loads.tolist() == [2, 2]
        assert all(indices.dtype == int for indices in from_rows.assignments)
        # Order within a worker is part of the placement.
        assert from_rows != DataAssignment(4, (np.array([0, 1]), np.array([2, 3])))

    def test_batch_form_equals_the_tuple_form(self):
        from repro.datasets.batching import contiguous_partition

        partition = contiguous_partition(5, 2)  # batches [0, 1], [2, 3, 4]
        assignment = DataAssignment.from_batches(partition, np.array([1, 0, 1]))
        assert assignment == DataAssignment(5, ([2, 3, 4], [0, 1], [2, 3, 4]))
        assert assignment.loads.tolist() == [3, 2, 3]
        assert assignment.example_multiplicity().tolist() == [1, 1, 2, 2, 2]

    @pytest.mark.parametrize(
        "rows",
        [
            [[0, 1], [2, 2], [5, 0]],
            [[0, 1], [2, 4], [3, 3]],
            [[1, 1, 7]],
            [[4], [0]],
            [[0.5, 2.9]],
            [[True, False]],
        ],
    )
    def test_rows_form_raises_the_constructors_errors(self, rows):
        with pytest.raises(AssignmentError) as from_tuple:
            DataAssignment(4, tuple(np.array(row) for row in rows))
        with pytest.raises(AssignmentError) as from_rows:
            DataAssignment.from_rows(4, np.array(rows))
        assert str(from_rows.value) == str(from_tuple.value)

    def test_rows_form_rejects_a_non_matrix(self):
        with pytest.raises(AssignmentError, match="2-D"):
            DataAssignment.from_rows(4, np.array([0, 1]))
        with pytest.raises(AssignmentError, match="at least one worker"):
            DataAssignment.from_rows(4, np.empty((0, 2), dtype=int))

    def test_batch_form_rejects_bad_choices(self):
        from repro.datasets.batching import contiguous_partition

        partition = contiguous_partition(4, 2)
        with pytest.raises(AssignmentError, match="worker 1 chose a batch"):
            DataAssignment.from_batches(partition, np.array([0, 2]))
        with pytest.raises(AssignmentError, match="integers"):
            DataAssignment.from_batches(partition, np.array([0.0, 1.0]))
        with pytest.raises(AssignmentError, match="non-empty"):
            DataAssignment.from_batches(partition, np.array([], dtype=int))

    def test_every_form_pickles_to_an_equal_assignment(self):
        import pickle

        from repro.datasets.batching import contiguous_partition

        forms = [
            DataAssignment(4, ([0, 1], [2, 3])),
            DataAssignment.from_rows(4, np.array([[0, 1], [2, 3]])),
            DataAssignment.from_batches(contiguous_partition(4, 2), np.array([0, 1])),
        ]
        for assignment in forms:
            assert pickle.loads(pickle.dumps(assignment)) == assignment

    def test_assignments_are_immutable(self, assignment):
        with pytest.raises(AttributeError):
            assignment.num_examples = 7


class TestValueSemantics:
    def test_equal_placements_compare_equal(self):
        first = DataAssignment(4, (np.array([0, 1]), np.array([2, 3])))
        second = DataAssignment(4, (np.array([0, 1]), np.array([2, 3])))
        assert first == second
        assert first != DataAssignment(5, (np.array([0, 1]), np.array([2, 3])))
        assert first != DataAssignment(4, (np.array([0, 1]), np.array([2])))
        assert first != "not an assignment"

    def test_placements_are_unhashable(self):
        # Declared unhashable, not unhashable by accident of an array field.
        with pytest.raises(TypeError, match="unhashable type: 'DataAssignment'"):
            hash(DataAssignment(4, (np.array([0, 1]), np.array([2, 3]))))


class TestCoveredWorkerValidation:
    def test_boolean_mask_is_not_read_as_worker_ids(self):
        two = DataAssignment(2, (np.array([0]), np.array([1])))
        with pytest.raises(AssignmentError, match="integer worker ids"):
            two.covered_examples([True, False])
        with pytest.raises(AssignmentError, match="integer worker ids"):
            two.covers_all(np.array([True, True]))

    def test_float_ids_are_not_truncated(self):
        two = DataAssignment(2, (np.array([0]), np.array([1])))
        with pytest.raises(AssignmentError, match="integer worker ids"):
            two.covered_examples([0.9])

    def test_empty_and_out_of_range_worker_lists(self):
        two = DataAssignment(2, (np.array([0]), np.array([1])))
        assert two.covered_examples([]).tolist() == [False, False]
        assert not two.covers_all([])
        with pytest.raises(AssignmentError, match="worker must lie"):
            two.covered_examples([2])
        with pytest.raises(AssignmentError, match="worker must lie"):
            two.covered_examples([-1])

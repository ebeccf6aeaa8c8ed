"""Tests for the generic LinearGradientCode."""

import numpy as np
import pytest

from repro.coding.assignment import DataAssignment
from repro.coding.cyclic_repetition import CyclicRepetitionCode
from repro.coding.fractional import FractionalRepetitionCode
from repro.coding.linear_code import (
    DECODABLE,
    NOT_DECODABLE,
    UNDECIDED,
    LinearGradientCode,
    decodability_verdicts,
)
from repro.coding.reed_solomon import ReedSolomonStyleCode
from repro.exceptions import AssignmentError, DecodingError


@pytest.fixture
def simple_code():
    # 3 workers, 2 partitions: B = [[1, 0], [0, 1], [1, 1]].
    return LinearGradientCode(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]), name="demo")


class TestConstruction:
    def test_shape_properties(self, simple_code):
        assert simple_code.num_workers == 3
        assert simple_code.num_partitions == 2
        assert simple_code.computational_load() == 2

    def test_rejects_nonfinite(self):
        with pytest.raises(DecodingError):
            LinearGradientCode(np.array([[np.nan, 1.0]]))

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            LinearGradientCode(np.eye(2), decoding_tolerance=0.0)

    def test_support(self, simple_code):
        np.testing.assert_array_equal(simple_code.support(0), [0])
        np.testing.assert_array_equal(simple_code.support(2), [0, 1])

    def test_to_assignment(self, simple_code):
        assignment = simple_code.to_assignment()
        assert assignment.num_workers == 3
        assert assignment.loads.tolist() == [1, 1, 2]

    @pytest.mark.parametrize(
        "code",
        [
            CyclicRepetitionCode(num_workers=12, num_stragglers=3, seed=0),
            ReedSolomonStyleCode(10, 2),
            FractionalRepetitionCode(num_workers=6, num_stragglers=2),
            LinearGradientCode(np.array([[1.0, 0.0, 2.0], [0.0, 0.0, 3.0], [1.0, 1.0, 1.0]])),
            LinearGradientCode(np.array([[1.0, 2.0], [0.0, 0.0], [0.0, 4.0]])),
            LinearGradientCode(np.zeros((3, 4))),
        ],
        ids=["cyclic", "reed-solomon", "fractional", "unequal-supports", "zero-row", "all-zero"],
    )
    def test_to_assignment_equals_the_per_worker_supports(self, code):
        supports = tuple(code.support(worker) for worker in range(code.num_workers))
        expected = DataAssignment(num_examples=code.num_partitions, assignments=supports)
        assignment = code.to_assignment()
        assert assignment == expected
        assert [a.tolist() for a in assignment.assignments] == [a.tolist() for a in supports]
        assert assignment.pairs()[0].dtype == expected.pairs()[0].dtype

    def test_to_assignment_of_a_code_without_workers_is_refused(self):
        with pytest.raises(AssignmentError, match="at least one worker"):
            LinearGradientCode(np.zeros((0, 3))).to_assignment()


class TestEncodeDecode:
    @pytest.fixture
    def partition_gradients(self, rng):
        return rng.standard_normal((2, 4))

    def test_encode_uses_only_support(self, simple_code, partition_gradients):
        message = simple_code.encode(0, partition_gradients)
        np.testing.assert_allclose(message, partition_gradients[0])
        combined = simple_code.encode(2, partition_gradients)
        np.testing.assert_allclose(combined, partition_gradients.sum(axis=0))

    def test_encode_shape_check(self, simple_code):
        with pytest.raises(DecodingError):
            simple_code.encode(0, np.zeros((3, 4)))

    def test_decodable_subsets(self, simple_code):
        assert simple_code.is_decodable([0, 1])
        assert simple_code.is_decodable([2])
        assert simple_code.is_decodable([0, 1, 2])
        assert not simple_code.is_decodable([0])
        assert not simple_code.is_decodable([1])

    def test_decode_recovers_total(self, simple_code, partition_gradients):
        total = partition_gradients.sum(axis=0)
        for workers in ([0, 1], [2], [1, 2]):
            messages = np.vstack(
                [simple_code.encode(w, partition_gradients) for w in workers]
            )
            np.testing.assert_allclose(
                simple_code.decode(workers, messages), total, atol=1e-10
            )

    def test_decode_requires_matching_shapes(self, simple_code):
        with pytest.raises(DecodingError):
            simple_code.decode([0, 1], np.zeros((3, 4)))

    def test_decoding_vector_residual_check(self, simple_code):
        with pytest.raises(DecodingError):
            simple_code.decoding_vector([0])

    def test_duplicate_workers_rejected(self, simple_code):
        with pytest.raises(DecodingError):
            simple_code.decoding_vector([0, 0])

    def test_worker_index_bounds(self, simple_code):
        with pytest.raises(DecodingError):
            simple_code.support(5)
        with pytest.raises(DecodingError):
            simple_code.decoding_vector([0, 7])

    def test_range_error_names_the_first_offending_index(self, simple_code):
        with pytest.raises(DecodingError, match=r"lie in \[0, 3\), got -1$"):
            simple_code.decoding_vector([0, -1, 7])
        with pytest.raises(DecodingError, match=r"got 7$"):
            simple_code.decoding_vector(np.array([7, 0, -1], dtype=np.int64))
        with pytest.raises(DecodingError, match=r"got 3$"):
            simple_code.decoding_vector([1, 3])

    def test_empty_set_message_comes_first(self, simple_code):
        with pytest.raises(DecodingError, match="non-empty"):
            simple_code.decoding_vector([])

    @pytest.mark.parametrize(
        "workers",
        [
            [0.2, 1.7, 2.9, 3.1, 4.0],
            [True, False],
            ["0", "1", "2"],
            np.array([0.0, 1.0, 2.0, 3.0, 4.0]),
        ],
        ids=["floats", "bools", "strings", "float-ndarray"],
    )
    @pytest.mark.parametrize(
        "make_code",
        [lambda: CyclicRepetitionCode(6, 1, seed=0), lambda: FractionalRepetitionCode(6, 1)],
        ids=["cyclic", "fractional"],
    )
    def test_non_integer_indices_are_refused_not_cast(self, make_code, workers):
        # A cast would truncate 1.7 to worker 1 and decode from workers
        # 0-4, a set nobody named.
        code = make_code()
        assert code.is_decodable([0, 1, 2, 3, 4])
        assert not code.is_decodable(workers)
        with pytest.raises(DecodingError, match="must be integers"):
            code.decoding_vector(workers)
        with pytest.raises(DecodingError, match="must be integers"):
            code.decode(workers, np.zeros((len(workers), 2)))

    def test_unsigned_indices_are_integers(self, simple_code):
        assert simple_code.is_decodable(np.array([0, 1], dtype=np.uint8))

    def test_minimum_decodable_size(self, simple_code):
        assert simple_code.minimum_decodable_size() == 1  # worker 2 alone decodes

    def test_identity_code_needs_all_workers(self):
        code = LinearGradientCode(np.eye(4))
        assert not code.is_decodable([0, 1, 2])
        assert code.is_decodable([0, 1, 2, 3])
        assert code.minimum_decodable_size() == 4


class TestDecodabilityVerdicts:
    def test_rows_near_the_tolerance_are_left_undecided(self):
        # One worker sending (1, 1 + e) misses the all-ones vector by about
        # e / 2: certified decodable below tol / 100, not decodable above
        # sqrt(2) * tol * 100 (in 2-norm), undecided between.
        misses = np.logspace(-9, -2, 8)
        code = LinearGradientCode(np.column_stack([np.ones(8), 1.0 + misses]))
        verdicts = decodability_verdicts(code, np.arange(8)[:, None])
        assert verdicts.tolist() == [DECODABLE] * 2 + [UNDECIDED] * 4 + [NOT_DECODABLE] * 2
        assert [code.is_decodable([i]) for i in range(8)] == [True] * 4 + [False] * 4

    def test_more_workers_than_partitions_are_undecided(self, simple_code):
        verdicts = decodability_verdicts(simple_code, np.array([[0, 1, 2]]))
        assert verdicts.tolist() == [UNDECIDED]

    def test_rank_deficient_rows_are_decided_only_when_they_miss(self):
        # Each pair sends one direction twice. The all-ones vector lies in
        # the first pair's span, with a singular triangle that no
        # certificate vouches for; the second pair misses it by far.
        code = LinearGradientCode(
            np.array([[1.0, 1.0, 1.0], [2.0, 2.0, 2.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
        )
        verdicts = decodability_verdicts(code, np.array([[0, 1], [2, 3]]))
        assert verdicts.tolist() == [UNDECIDED, NOT_DECODABLE]
        assert code.is_decodable([0, 1]) and not code.is_decodable([2, 3])

    def test_chunks_decide_each_row_as_alone(self):
        # 200 subsets of a 50-worker code span many 128 KiB chunks.
        code = CyclicRepetitionCode(50, 9, seed=3)
        rng = np.random.default_rng(0)
        workers = np.argsort(rng.random((200, 50)), axis=1)[:, :41]
        stacked = decodability_verdicts(code, workers)
        alone = [decodability_verdicts(code, row[None])[0] for row in workers]
        assert stacked.dtype == np.int8
        assert stacked.tolist() == alone
        assert (stacked == DECODABLE).sum() > 190

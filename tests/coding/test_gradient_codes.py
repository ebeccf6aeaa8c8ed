"""Tests for the cyclic-repetition, Reed-Solomon-style and fractional-repetition codes."""

import itertools

import numpy as np
import pytest

from repro.coding.cyclic_repetition import CyclicRepetitionCode, cyclic_rows
import repro.coding.reed_solomon as reed_solomon
from repro.coding.fractional import FractionalRepetitionCode
from repro.coding.linear_code import NOT_DECODABLE, UNDECIDED, LinearGradientCode
from repro.coding.reed_solomon import ReedSolomonStyleCode
from repro.exceptions import ConfigurationError, DecodingError


class TestCyclicRepetitionCode:
    def test_support_is_cyclic_window(self):
        code = CyclicRepetitionCode(num_workers=6, num_stragglers=2, seed=0)
        np.testing.assert_array_equal(code.support(0), [0, 1, 2])
        np.testing.assert_array_equal(np.sort(code.support(5)), [0, 1, 5])
        assert code.computational_load() == 3

    def test_recovery_threshold(self):
        code = CyclicRepetitionCode(num_workers=10, num_stragglers=3, seed=0)
        assert code.recovery_threshold == 7

    def test_zero_stragglers_is_identity(self):
        code = CyclicRepetitionCode(num_workers=4, num_stragglers=0)
        np.testing.assert_array_equal(code.encoding_matrix, np.eye(4))

    def test_any_n_minus_s_subset_decodes(self):
        n, s = 8, 2
        code = CyclicRepetitionCode(num_workers=n, num_stragglers=s, seed=1)
        for subset in itertools.combinations(range(n), n - s):
            assert code.is_decodable(list(subset)), f"subset {subset} failed"

    def test_fewer_than_threshold_workers_generally_insufficient(self):
        n, s = 8, 2
        code = CyclicRepetitionCode(num_workers=n, num_stragglers=s, seed=1)
        # A contiguous run of n - s - 1 workers misses some partition entirely.
        assert not code.is_decodable(list(range(n - s - 2)))

    def test_decode_recovers_gradient_sum(self, rng):
        n, s = 6, 2
        code = CyclicRepetitionCode(num_workers=n, num_stragglers=s, seed=2)
        partition_gradients = rng.standard_normal((n, 5))
        total = partition_gradients.sum(axis=0)
        surviving = [0, 2, 3, 5]  # any n - s workers
        messages = np.vstack([code.encode(w, partition_gradients) for w in surviving])
        np.testing.assert_allclose(code.decode(surviving, messages), total, atol=1e-8)

    def test_from_load(self):
        code = CyclicRepetitionCode.from_load(10, load=4, seed=0)
        assert code.num_stragglers == 3
        assert code.computational_load() == 4

    def test_invalid_straggler_count(self):
        with pytest.raises(ConfigurationError):
            CyclicRepetitionCode(num_workers=4, num_stragglers=4)
        with pytest.raises(ConfigurationError):
            CyclicRepetitionCode(num_workers=4, num_stragglers=-1)

    def test_reproducible_given_seed(self):
        a = CyclicRepetitionCode(5, 2, seed=3).encoding_matrix
        b = CyclicRepetitionCode(5, 2, seed=3).encoding_matrix
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize(
        "n, s", [(2, 1), (12, 3), (50, 9), (50, 49), (100, 24), (90, 70)]
    )
    def test_stacked_solve_equals_each_window_solve_bit_for_bit(self, n, s):
        # (90, 70) spans several solve chunks.
        for seed in range(5):
            auxiliary = np.random.default_rng(seed).standard_normal((s, n))
            auxiliary[:, -1] = -auxiliary[:, :-1].sum(axis=1)
            expected = np.zeros((n, n))
            for i in range(n):
                window = (i + np.arange(s + 1)) % n
                expected[i, window[0]] = 1.0
                expected[i, window[1:]] = np.linalg.solve(
                    auxiliary[:, window[1:]], -auxiliary[:, window[0]]
                )
            code = CyclicRepetitionCode(n, s, seed=seed)
            assert code.encoding_matrix.tobytes() == expected.tobytes()

    def test_a_singular_window_is_refused(self):
        with pytest.raises(np.linalg.LinAlgError):
            cyclic_rows(np.zeros((2, 5)))


class TestReedSolomonStyleCode:
    def test_deterministic(self):
        a = ReedSolomonStyleCode(7, 2).encoding_matrix
        b = ReedSolomonStyleCode(7, 2).encoding_matrix
        np.testing.assert_array_equal(a, b)

    def test_support_and_load(self):
        code = ReedSolomonStyleCode(7, 3)
        assert code.computational_load() == 4
        assert code.recovery_threshold == 4

    def test_contiguous_survivor_sets_decode(self):
        n, s = 8, 2
        code = ReedSolomonStyleCode(n, s)
        for start in range(n):
            survivors = [(start + i) % n for i in range(n - s)]
            assert code.is_decodable(survivors)

    def test_decode_recovers_gradient_sum(self, rng):
        n, s = 6, 2
        code = ReedSolomonStyleCode(n, s)
        partition_gradients = rng.standard_normal((n, 3))
        total = partition_gradients.sum(axis=0)
        survivors = list(range(1, n - 1))  # 4 contiguous workers
        messages = np.vstack([code.encode(w, partition_gradients) for w in survivors])
        np.testing.assert_allclose(code.decode(survivors, messages), total, atol=1e-8)

    def test_zero_stragglers_identity(self):
        np.testing.assert_array_equal(
            ReedSolomonStyleCode(3, 0).encoding_matrix, np.eye(3)
        )

    def test_a_matrix_is_solved_once_and_shared_read_only(self, monkeypatch):
        ReedSolomonStyleCode._build_matrix.cache_clear()
        solves = []
        solve = ReedSolomonStyleCode._solve_rows

        def spy(auxiliary):
            solves.append(auxiliary.shape)
            return solve(auxiliary)

        monkeypatch.setattr(ReedSolomonStyleCode, "_solve_rows", staticmethod(spy))
        first = ReedSolomonStyleCode(30, 4).encoding_matrix
        second = ReedSolomonStyleCode(30, 4).encoding_matrix
        assert solves == [(4, 30)]
        assert first.tobytes() == second.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            second[0, 0] = 2.0
        assert ReedSolomonStyleCode(30, 4, decoding_tolerance=1e-7).encoding_matrix is not first
        assert len(solves) == 2

    @staticmethod
    def windows_decode_one_by_one(matrix, n, s, tolerance):
        """The window check as one ``is_decodable`` call per cyclic window."""
        probe = LinearGradientCode(matrix, decoding_tolerance=tolerance)
        return all(
            probe.is_decodable([(start + offset) % n for offset in range(n - s)])
            for start in range(n)
        )

    @pytest.mark.parametrize("n, s", [(100, 9), (50, 9), (30, 4), (8, 2), (20, 19), (12, 1)])
    def test_certified_windows_build_the_one_by_one_matrix(self, n, s, monkeypatch):
        matrix = ReedSolomonStyleCode._derive_matrix(n, s, 1e-6)
        monkeypatch.setattr(
            ReedSolomonStyleCode,
            "_windows_decode",
            staticmethod(self.windows_decode_one_by_one),
        )
        assert matrix.tobytes() == ReedSolomonStyleCode._derive_matrix(n, s, 1e-6).tobytes()

    @pytest.mark.parametrize("verdict", [NOT_DECODABLE, UNDECIDED])
    def test_windows_that_never_decode_exhaust_the_attempts(self, verdict, monkeypatch):
        # A not-decodable verdict fails the attempt at once; an undecided
        # one falls back to is_decodable, here refusing every window.
        calls = []

        def verdicts(code, workers):
            calls.append(workers.shape)
            return np.full(len(workers), verdict, dtype=np.int8)

        fallbacks = []

        def refuse(self, workers):
            fallbacks.append(list(workers))
            return False

        monkeypatch.setattr(reed_solomon, "decodability_verdicts", verdicts)
        monkeypatch.setattr(LinearGradientCode, "is_decodable", refuse)
        with pytest.raises(DecodingError, match="after 16 attempts"):
            ReedSolomonStyleCode._derive_matrix(9, 2, 1e-6)
        assert calls == [(9, 7)] * ReedSolomonStyleCode._MAX_ATTEMPTS
        expected = 0 if verdict == NOT_DECODABLE else ReedSolomonStyleCode._MAX_ATTEMPTS
        assert len(fallbacks) == expected
        assert all(window == list(range(7)) for window in fallbacks)


class TestFractionalRepetitionCode:
    def test_requires_divisibility(self):
        with pytest.raises(ConfigurationError):
            FractionalRepetitionCode(num_workers=7, num_stragglers=1)

    def test_group_structure(self):
        code = FractionalRepetitionCode(num_workers=6, num_stragglers=2)
        assert len(code.groups) == 3
        assert all(len(group) == 2 for group in code.groups)
        # Every group's supports cover all partitions disjointly.
        for group in code.groups:
            covered = np.concatenate([code.support(worker) for worker in group])
            assert sorted(covered.tolist()) == list(range(6))

    def test_decodable_exactly_when_a_group_is_complete(self):
        code = FractionalRepetitionCode(num_workers=6, num_stragglers=2)
        group = code.groups[1]
        assert code.is_decodable(list(group))
        assert not code.is_decodable([code.groups[0][0], code.groups[1][0]])

    def test_worst_case_threshold_guarantee(self):
        # Any n - s workers must contain a complete group (pigeonhole).
        n, s = 6, 2
        code = FractionalRepetitionCode(num_workers=n, num_stragglers=s)
        for subset in itertools.combinations(range(n), n - s):
            assert code.is_decodable(list(subset))

    def test_decode_sums_one_group(self, rng):
        code = FractionalRepetitionCode(num_workers=6, num_stragglers=2)
        partition_gradients = rng.standard_normal((6, 4))
        total = partition_gradients.sum(axis=0)
        # Receive group 0 plus a worker from group 2.
        workers = list(code.groups[0]) + [code.groups[2][0]]
        messages = np.vstack([code.encode(w, partition_gradients) for w in workers])
        np.testing.assert_allclose(code.decode(workers, messages), total, atol=1e-10)

    def test_decoding_without_complete_group_raises(self):
        code = FractionalRepetitionCode(num_workers=4, num_stragglers=1)
        with pytest.raises(DecodingError):
            code.decoding_vector([code.groups[0][0], code.groups[1][0]])

    def test_opportunistic_early_decode(self):
        # With 4 groups of 2 workers, hearing both members of one group (2
        # workers) decodes even though the worst-case threshold is n - s = 6.
        code = FractionalRepetitionCode(num_workers=8, num_stragglers=3)
        group = code.groups[0]
        assert len(group) == 2
        assert code.is_decodable(list(group))

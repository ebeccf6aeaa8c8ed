"""Property-based tests for the gradient codes: decodability and exactness."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coding.cyclic_repetition import CyclicRepetitionCode
from repro.coding.fractional import FractionalRepetitionCode
from repro.coding.linear_code import (
    DECODABLE,
    UNDECIDED,
    LinearGradientCode,
    decodability_verdicts,
)
from repro.coding.reed_solomon import ReedSolomonStyleCode


def _random_survivors(rng, num_workers, count):
    return sorted(rng.choice(num_workers, size=count, replace=False).tolist())


class TestCyclicRepetitionProperties:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_any_worst_case_survivor_set_decodes_exactly(self, data, seed):
        n = data.draw(st.integers(min_value=2, max_value=14), label="n")
        s = data.draw(st.integers(min_value=0, max_value=n - 1), label="s")
        code = CyclicRepetitionCode(num_workers=n, num_stragglers=s, seed=seed)
        rng = np.random.default_rng(seed)
        survivors = _random_survivors(rng, n, n - s)
        assert code.is_decodable(survivors)
        gradients = rng.standard_normal((n, 3))
        messages = np.vstack([code.encode(w, gradients) for w in survivors])
        decoded = code.decode(survivors, messages)
        np.testing.assert_allclose(decoded, gradients.sum(axis=0), atol=1e-6)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_load_equals_s_plus_one(self, data, seed):
        n = data.draw(st.integers(min_value=2, max_value=20), label="n")
        s = data.draw(st.integers(min_value=0, max_value=n - 1), label="s")
        code = CyclicRepetitionCode(num_workers=n, num_stragglers=s, seed=seed)
        assert code.computational_load() == s + 1
        assert code.recovery_threshold == n - s


class TestReedSolomonStyleProperties:
    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_contiguous_survivor_windows_decode_exactly(self, data, seed):
        n = data.draw(st.integers(min_value=2, max_value=12), label="n")
        s = data.draw(st.integers(min_value=0, max_value=min(n - 1, 4)), label="s")
        start = data.draw(st.integers(min_value=0, max_value=n - 1), label="start")
        code = ReedSolomonStyleCode(n, s)
        survivors = [(start + i) % n for i in range(n - s)]
        rng = np.random.default_rng(seed)
        gradients = rng.standard_normal((n, 2))
        messages = np.vstack([code.encode(w, gradients) for w in survivors])
        np.testing.assert_allclose(
            code.decode(survivors, messages), gradients.sum(axis=0), atol=1e-6
        )


class TestFractionalRepetitionProperties:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_any_worst_case_survivor_set_decodes_exactly(self, data, seed):
        # Draw (s, group count) so that (s + 1) | n by construction.
        s = data.draw(st.integers(min_value=0, max_value=4), label="s")
        group_size = data.draw(st.integers(min_value=1, max_value=4), label="group_size")
        n = (s + 1) * group_size
        code = FractionalRepetitionCode(num_workers=n, num_stragglers=s)
        rng = np.random.default_rng(seed)
        survivors = _random_survivors(rng, n, n - s)
        assert code.is_decodable(survivors)
        gradients = rng.standard_normal((n, 2))
        messages = np.vstack([code.encode(w, gradients) for w in survivors])
        np.testing.assert_allclose(
            code.decode(survivors, messages), gradients.sum(axis=0), atol=1e-8
        )

    @settings(max_examples=40, deadline=None)
    @given(s=st.integers(min_value=0, max_value=5), group_size=st.integers(min_value=1, max_value=5))
    def test_every_group_covers_all_partitions(self, s, group_size):
        n = (s + 1) * group_size
        code = FractionalRepetitionCode(num_workers=n, num_stragglers=s)
        for group in code.groups:
            covered = np.concatenate([code.support(worker) for worker in group])
            assert sorted(covered.tolist()) == list(range(n))


def _cyclic(rng, n):
    return CyclicRepetitionCode(n, int(rng.integers(0, n)), seed=rng)


def _reed_solomon(rng, n):
    return ReedSolomonStyleCode(n, int(rng.integers(0, min(n, 6))))


def _dense(rng, n):
    return LinearGradientCode(rng.standard_normal((n, int(rng.integers(1, n + 1)))))


def _badly_scaled(rng, n):
    # Columns scaled across eight decades: ill-conditioned square subsets.
    scales = 10.0 ** rng.uniform(-4.0, 4.0, n)
    return LinearGradientCode(rng.standard_normal((n, n)) * scales)


def _rank_deficient(rng, n):
    rank = int(rng.integers(1, n))
    return LinearGradientCode(
        rng.standard_normal((n, rank)) @ rng.standard_normal((rank, n))
    )


def _few_partitions(rng, n):
    # Subsets of more workers than partitions (w > k) are never certified.
    return LinearGradientCode(rng.standard_normal((n, max(1, n // 3))))


def _near_tolerance(rng, n):
    # Rows (1, 1 + e) with e from 1e-9 to 1e-3: one worker misses the
    # all-ones vector by about e / 2, across the band around the tolerance.
    misses = 10.0 ** rng.uniform(-9.0, -3.0, n)
    return LinearGradientCode(np.column_stack([np.ones(n), 1.0 + misses]))


CERTIFIED_CODES = {
    "cyclic-repetition": _cyclic,
    "reed-solomon": _reed_solomon,
    "dense": _dense,
    "badly-scaled": _badly_scaled,
    "rank-deficient": _rank_deficient,
    "few-partitions": _few_partitions,
    "near-tolerance": _near_tolerance,
}


class TestDecodabilityCertificate:
    @settings(max_examples=80, deadline=None)
    @given(
        data=st.data(),
        family=st.sampled_from(sorted(CERTIFIED_CODES)),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_a_verdict_never_contradicts_is_decodable(self, data, family, seed):
        rng = np.random.default_rng(seed)
        n = data.draw(st.integers(min_value=2, max_value=30), label="n")
        code = CERTIFIED_CODES[family](rng, n)
        width = data.draw(st.integers(min_value=1, max_value=n), label="w")
        workers = np.argsort(rng.random((12, n)), axis=1)[:, :width]
        verdicts = decodability_verdicts(code, workers)
        for row, verdict in zip(workers, verdicts.tolist()):
            if verdict != UNDECIDED:
                assert (verdict == DECODABLE) == code.is_decodable(row.tolist())
        if width > code.num_partitions:
            assert (verdicts == UNDECIDED).all()

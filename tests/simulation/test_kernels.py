"""The dense-layout completion kernels against plain-Python references.

``coverage_completion`` reads a dense ``(items, holders)`` layout of active
columns padded with the sentinel column ``n_active``, or one such layout
per trial stacked ``(trials, items, holders)``; ``group_completion`` reads
a ``(groups, size)`` layout padded the same way. Both transpose the ranks
to a worker-major block in ``rank_dtype(n_active)`` with a sentinel row
last and gather it in chunks of at most ``_GATHER_CHUNK_BYTES``. The
cases here pin the padding, the chunking (of rows and of whole trials),
the sentinel dtype's int8 → int16 step and several rows per trial; a
Hypothesis property compares both kernels with the references on random
layouts.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation import kernels
from repro.simulation.kernels import coverage_completion, group_completion, rank_dtype


def random_positions(rng, rows, n_active):
    """Each row a random permutation of the ranks ``0 .. n_active - 1``."""
    return np.argsort(rng.random((rows, n_active)), axis=1)


def dense(holder_lists, n_active, width=None):
    """Holder lists as one dense layout padded with ``n_active``."""
    width = width or max(len(holders) for holders in holder_lists)
    layout = np.full((len(holder_lists), width), n_active, dtype=rank_dtype(n_active))
    for row, holders in zip(layout, holder_lists):
        row[: len(holders)] = holders
    return layout


def reference_coverage(positions, holder_lists):
    """Per row, the max over items of the item's first holder arrival."""
    return [
        max(min(int(row[column]) for column in holders) for holders in holder_lists)
        for row in positions
    ]


def reference_groups(positions, group_lists):
    """Per row, the min over groups of the group's last member arrival."""
    return [
        min(max(int(row[column]) for column in members) for members in group_lists)
        for row in positions
    ]


def random_holders(rng, n_active, num_items, most):
    """Up to ``most`` distinct active columns for each item (at least one)."""
    return [
        rng.choice(n_active, size=int(rng.integers(1, most + 1)), replace=False).tolist()
        for _ in range(num_items)
    ]


class TestCoverageCompletion:
    def test_stacked_trials_with_unequal_holder_counts(self):
        rng = np.random.default_rng(7)
        n_active, rows_per_trial = 9, 4
        trials = [random_holders(rng, n_active, 5, most) for most in (1, 4, 9)]
        width = max(len(holders) for lists in trials for holders in lists)
        owners = np.stack([dense(lists, n_active, width) for lists in trials])
        positions = random_positions(rng, len(trials) * rows_per_trial, n_active)
        stacked = coverage_completion(positions, owners)
        for t, lists in enumerate(trials):
            block = slice(t * rows_per_trial, (t + 1) * rows_per_trial)
            assert stacked[block].tolist() == reference_coverage(positions[block], lists)
            # Padding to the stack's width changes nothing.
            np.testing.assert_array_equal(
                stacked[block], coverage_completion(positions[block], dense(lists, n_active))
            )

    def test_skewed_layout_crosses_the_gather_chunk_bound(self):
        # One item held by every worker, the rest by one each: the layout
        # is as wide as the cluster, so one row gathers 128 * 128 int16
        # ranks and the 300 rows take several chunks at the real bound.
        n_active = 128
        holder_lists = [list(range(n_active))] + [[column] for column in range(1, n_active)]
        owners = dense(holder_lists, n_active)
        rows = 300
        assert rows * owners.nbytes > 2 * kernels._GATHER_CHUNK_BYTES
        positions = random_positions(np.random.default_rng(8), rows, n_active)
        completing = coverage_completion(positions, owners)
        assert completing.tolist() == reference_coverage(positions, holder_lists)

    # Per trial in chunks of one row or of two, then two stacked trials per
    # take, then all five at once.
    @pytest.mark.parametrize("bound", [1, 24, 300, 1 << 20])
    def test_chunks_of_rows_and_of_whole_trials_agree(self, bound, monkeypatch):
        rng = np.random.default_rng(9)
        n_active, rows_per_trial = 6, 3
        trials = [random_holders(rng, n_active, 4, 3) for _ in range(5)]
        owners = np.stack([dense(lists, n_active, 3) for lists in trials])
        positions = random_positions(rng, len(trials) * rows_per_trial, n_active)
        monkeypatch.setattr(kernels, "_GATHER_CHUNK_BYTES", bound)
        completing = coverage_completion(positions, owners)
        expected = [
            value
            for t, lists in enumerate(trials)
            for value in reference_coverage(
                positions[t * rows_per_trial : (t + 1) * rows_per_trial], lists
            )
        ]
        assert completing.tolist() == expected

    @pytest.mark.parametrize(
        "n_active, dtype", [(127, np.int8), (128, np.int16)], ids=["int8", "int16"]
    )
    def test_sentinel_fits_the_rank_dtype(self, n_active, dtype):
        # Every item has a padded slot, so a sentinel that wrapped around
        # (128 read as -128 in int8) would win every item's minimum.
        assert rank_dtype(n_active) == dtype
        rng = np.random.default_rng(n_active)
        holder_lists = [[column, (column + 1) % n_active] for column in range(n_active)]
        holder_lists[0] = [0, 1, 2]
        owners = dense(holder_lists, n_active)
        assert owners.dtype == dtype and (owners == n_active).any()
        positions = random_positions(rng, 2, n_active)
        two_trials = np.stack([owners, owners[::-1]])
        completing = coverage_completion(positions, two_trials)
        assert completing.tolist() == [
            *reference_coverage(positions[:1], holder_lists),
            *reference_coverage(positions[1:], holder_lists[::-1]),
        ]

    def test_many_rows_per_trial(self):
        rng = np.random.default_rng(10)
        n_active, rows_per_trial = 12, 7
        trials = [random_holders(rng, n_active, 6, 4) for _ in range(4)]
        owners = np.stack([dense(lists, n_active, 4) for lists in trials])
        positions = random_positions(rng, len(trials) * rows_per_trial, n_active)
        completing = coverage_completion(positions, owners)
        for t, lists in enumerate(trials):
            block = slice(t * rows_per_trial, (t + 1) * rows_per_trial)
            assert completing[block].tolist() == reference_coverage(positions[block], lists)


class TestGroupCompletion:
    def test_groups_of_unequal_sizes(self):
        rng = np.random.default_rng(11)
        n_active = 10
        group_lists = [[0, 1, 2], [3, 4], [5, 6, 7, 8], [9]]
        positions = random_positions(rng, 20, n_active)
        completing = group_completion(positions, dense(group_lists, n_active))
        assert completing.tolist() == reference_groups(positions, group_lists)

    def test_rows_past_the_gather_chunk_bound(self, monkeypatch):
        rng = np.random.default_rng(12)
        n_active = 8
        group_lists = [[0, 1], [2, 3, 4], [5, 6, 7]]
        positions = random_positions(rng, 11, n_active)
        monkeypatch.setattr(kernels, "_GATHER_CHUNK_BYTES", 20)
        completing = group_completion(positions, dense(group_lists, n_active))
        assert completing.tolist() == reference_groups(positions, group_lists)


@st.composite
def jobs(draw):
    """Random ranks and a random dense layout over them."""
    n_active = draw(st.integers(min_value=1, max_value=140))
    rows_per_trial = draw(st.integers(min_value=1, max_value=4))
    trials = draw(st.integers(min_value=1, max_value=4))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    num_items = draw(st.integers(min_value=1, max_value=8))
    most = draw(st.integers(min_value=1, max_value=n_active))
    rng = np.random.default_rng(seed)
    layouts = [random_holders(rng, n_active, num_items, most) for _ in range(trials)]
    positions = random_positions(rng, trials * rows_per_trial, n_active)
    return positions, layouts, rows_per_trial


class TestDenseKernelsProperty:
    @settings(max_examples=120, deadline=None)
    @given(job=jobs(), bound=st.sampled_from([1, 200, 1 << 20]))
    def test_kernels_match_the_plain_python_references(self, job, bound):
        positions, layouts, rows_per_trial = job
        n_active = positions.shape[1]
        width = max(len(holders) for lists in layouts for holders in lists)
        owners = np.stack([dense(lists, n_active, width) for lists in layouts])
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kernels, "_GATHER_CHUNK_BYTES", bound)
            covered = coverage_completion(positions, owners)
            grouped = [
                group_completion(positions[t * rows_per_trial : (t + 1) * rows_per_trial], layout)
                for t, layout in enumerate(owners)
            ]
        for t, lists in enumerate(layouts):
            block = positions[t * rows_per_trial : (t + 1) * rows_per_trial]
            assert covered[t * rows_per_trial : (t + 1) * rows_per_trial].tolist() == (
                reference_coverage(block, lists)
            )
            assert grouped[t].tolist() == reference_groups(block, lists)

"""Property: the vectorized engine's row ranking is the stable argsort.

``_rank_rows`` sorts with NumPy's default (unstable) kind and re-sorts only
the rows that hold a tie or a NaN. Special values make ties, signed zeros,
infinities and NaNs common, so rows of one column, all-NaN rows and rows
whose ties interleave all occur.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.simulation.vectorized import _rank_rows

SPECIAL = st.sampled_from([-np.inf, -1.0, -0.0, 0.0, 1.0, np.inf, np.nan])

MATRICES = hnp.arrays(
    np.float64,
    st.tuples(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=40)),
    elements=st.one_of(SPECIAL, st.floats()),
)


class TestRankRows:
    @settings(max_examples=300, deadline=None)
    @given(values=MATRICES)
    def test_matches_the_stable_argsort_bit_for_bit(self, values):
        order, ranked = _rank_rows(values)
        stable = np.argsort(values, axis=1, kind="stable")
        np.testing.assert_array_equal(order, stable)
        # Compare bits, so -0.0 and 0.0 (and NaN payloads) count.
        expected = np.take_along_axis(values, stable, axis=1)
        np.testing.assert_array_equal(ranked.view(np.uint64), expected.view(np.uint64))

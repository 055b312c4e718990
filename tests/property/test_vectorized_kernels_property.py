"""Property tests: the vectorized kernels equal the scalar reference.

Random profiles honoring the propagation invariants are pushed through
both implementations; values must agree to floating-point reassociation
tolerance on every pair, for every slice budget.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.paths import JoinPath
from repro.paths.profiles import NeighborProfile
from repro.reldb.joins import JoinStep
from repro.similarity import set_resemblance, walk_probability
from repro.similarity.vectorized import pair_resemblance_values, pair_walk_values

from tests.kernel_oracle import all_pairs_matrices, profile_matrices

PATH = JoinPath([JoinStep("A", "x", "B", "y", "n1")])

ATOL = 1e-12

probability = st.floats(
    min_value=1e-6, max_value=1.0, allow_nan=False, allow_infinity=False
)


@st.composite
def profiles(draw):
    """One random profile: forward a sub-distribution, backward in (0, 1]."""
    support = draw(st.sets(st.integers(min_value=0, max_value=15), max_size=10))
    forwards = {t: draw(probability) for t in support}
    total = sum(forwards.values())
    if total > 1.0:
        forwards = {t: v / total for t, v in forwards.items()}
    weights = {t: (forwards[t], draw(probability)) for t in support}
    return NeighborProfile(path=PATH, origin_row=0, weights=weights)


profile_lists = st.lists(profiles(), min_size=1, max_size=7)


class TestAllPairsMatrices:
    @given(profile_lists, st.integers(min_value=1, max_value=64))
    @settings(max_examples=60, deadline=None)
    def test_resemblance_matrix_matches_scalar(self, group, slice_nnz):
        matrix, _ = all_pairs_matrices(group, slice_nnz=slice_nnz)
        n = len(group)
        assert matrix.shape == (n, n)
        for i in range(n):
            assert matrix[i, i] == 0.0
            for j in range(n):
                if i != j:
                    expected = set_resemblance(group[i], group[j])
                    assert matrix[i, j] == pytest.approx(expected, abs=ATOL)

    @given(profile_lists)
    @settings(max_examples=60, deadline=None)
    def test_walk_matrix_matches_scalar(self, group):
        _, matrix = all_pairs_matrices(group)
        for i in range(len(group)):
            for j in range(len(group)):
                expected = (
                    0.0 if i == j else walk_probability(group[i], group[j])
                )
                assert matrix[i, j] == pytest.approx(expected, abs=ATOL)


class TestPairListKernels:
    @given(profile_lists, st.data())
    @settings(max_examples=60, deadline=None)
    def test_pair_kernels_match_scalar(self, group, data):
        n = len(group)
        pair_index = st.integers(min_value=0, max_value=n - 1)
        pairs = data.draw(
            st.lists(st.tuples(pair_index, pair_index), min_size=1, max_size=12)
        )
        forward, backward = profile_matrices(group)
        idx_a = np.array([a for a, _ in pairs])
        idx_b = np.array([b for _, b in pairs])
        slice_nnz = data.draw(st.integers(min_value=1, max_value=64))
        resem = pair_resemblance_values(forward, idx_a, idx_b, slice_nnz=slice_nnz)
        walk = pair_walk_values(forward, backward, idx_a, idx_b, slice_nnz=slice_nnz)
        for k, (a, b) in enumerate(pairs):
            assert resem[k] == pytest.approx(
                set_resemblance(group[a], group[b]), abs=ATOL
            )
            assert walk[k] == pytest.approx(
                walk_probability(group[a], group[b]), abs=ATOL
            )


class TestProfileMatrices:
    @given(profile_lists)
    @settings(max_examples=60, deadline=None)
    def test_round_trip_weights(self, group):
        forward, backward = profile_matrices(group)
        columns = np.unique(
            np.array(
                [t for p in group for t in p.weights], dtype=np.int64
            )
        )
        assert forward.shape == (len(group), len(columns))
        dense_f = forward.toarray()
        dense_b = backward.toarray()
        col_of = {int(c): k for k, c in enumerate(columns)}
        for i, profile in enumerate(group):
            for t, (fwd, back) in profile.weights.items():
                assert dense_f[i, col_of[t]] == fwd
                assert dense_b[i, col_of[t]] == back
            assert np.count_nonzero(dense_f[i]) <= len(profile.weights)

"""Unit tests for zero-overlap pair pruning (inverted neighbor index)."""

from __future__ import annotations

import numpy as np
from scipy import sparse

from repro.obs import get_metrics
from repro.perf.blocking import candidate_pairs, intersecting_pair_mask


def _random_supports(rng, n_rows: int, n_cols: int, n_paths: int):
    mats = []
    for _ in range(n_paths):
        dense = rng.random((n_rows, n_cols)) * (rng.random((n_rows, n_cols)) < 0.15)
        mats.append(sparse.csr_matrix(dense))
    return mats


def _brute_force_mask(mats, idx_a, idx_b):
    out = np.zeros(len(idx_a), dtype=bool)
    for k, (a, b) in enumerate(zip(idx_a, idx_b)):
        for m in mats:
            sa = set(m.getrow(int(a)).indices.tolist())
            sb = set(m.getrow(int(b)).indices.tolist())
            if sa & sb:
                out[k] = True
                break
    return out


def _counter(name: str) -> int:
    return int(get_metrics().snapshot()["counters"].get(name, 0))


class TestIntersectingPairMask:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(7)
        mats = _random_supports(rng, 20, 30, 3)
        idx_a, idx_b = np.triu_indices(20, k=1)
        mask = intersecting_pair_mask(mats, idx_a, idx_b)
        np.testing.assert_array_equal(mask, _brute_force_mask(mats, idx_a, idx_b))

    def test_tiny_chunk_same_answer(self):
        rng = np.random.default_rng(11)
        mats = _random_supports(rng, 12, 25, 2)
        idx_a, idx_b = np.triu_indices(12, k=1)
        whole = intersecting_pair_mask(mats, idx_a, idx_b)
        for budget in (1, 3):
            sliced = intersecting_pair_mask(mats, idx_a, idx_b, slice_nnz=budget)
            np.testing.assert_array_equal(whole, sliced)

    def test_explicit_zeros_do_not_count_as_support(self):
        m = sparse.csr_matrix(  # stored zero at (0, 1), the shared column
            (np.array([1.0, 0.0, 1.0]), (np.array([0, 0, 1]), np.array([0, 1, 1]))),
            shape=(2, 2),
        )
        mask = intersecting_pair_mask([m], np.array([0]), np.array([1]))
        assert not mask[0]

    def test_counters_split_kept_and_pruned(self):
        m = sparse.csr_matrix(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        kept0 = _counter("blocking.pairs_kept")
        pruned0 = _counter("blocking.pairs_pruned")
        mask = intersecting_pair_mask(
            [m], np.array([0, 0, 1]), np.array([1, 2, 2])
        )
        np.testing.assert_array_equal(mask, [True, False, False])
        assert _counter("blocking.pairs_kept") == kept0 + 1
        assert _counter("blocking.pairs_pruned") == pruned0 + 2


class TestCandidatePairs:
    def test_matches_mask_on_full_grid(self):
        rng = np.random.default_rng(3)
        mats = _random_supports(rng, 15, 20, 2)
        idx_a, idx_b = np.triu_indices(15, k=1)
        mask = intersecting_pair_mask(mats, idx_a, idx_b)
        expected = [
            (int(a), int(b)) for a, b, keep in zip(idx_a, idx_b, mask) if keep
        ]
        assert candidate_pairs(mats) == expected

    def test_union_across_paths(self):
        a = sparse.csr_matrix(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        b = sparse.csr_matrix(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]]))
        # path a joins (0,1); path b joins (1,2); nothing joins (0,2)
        assert candidate_pairs([a, b]) == [(0, 1), (1, 2)]

    def test_empty_inputs(self):
        assert candidate_pairs([]) == []
        empty = sparse.csr_matrix((4, 6))
        assert candidate_pairs([empty]) == []

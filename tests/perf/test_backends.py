"""The fast pair-feature route vs the reference route.

Uses the hand-built mini DBLP database so expectations stay checkable:
the default route (batched propagation, exact blocking, matrix kernels)
must agree with the per-reference reference route on every (pair, path)
feature, and blocking must drop exactly the pairs the reference route
scores zero on every path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.features import all_pairs, compute_pair_features
from repro.paths import JoinPath, ProfileBuilder
from repro.paths.propagation import make_exclusions
from repro.reldb.joins import JoinStep
from repro.similarity.vectorized import pair_resemblance_values, pair_walk_values

from tests.kernel_oracle import reference_features
from tests.minidb import WW_AUTHOR_ROW, WW_REFS, build_minidb

PUB_PAP = JoinStep("Publish", "paper_key", "Publications", "paper_key", "n1")
PUB_AUTH = JoinStep("Publish", "author_key", "Authors", "author_key", "n1")
PATHS = [
    JoinPath([PUB_PAP]),
    JoinPath([PUB_PAP, PUB_PAP.reverse(), PUB_AUTH]),
]


def _builder():
    return ProfileBuilder(
        build_minidb(), PATHS, make_exclusions(Authors={WW_AUTHOR_ROW})
    )


def _assert_close(got, reference):
    assert got.pairs == reference.pairs
    np.testing.assert_allclose(
        got.resemblance, reference.resemblance, rtol=0, atol=1e-12
    )
    np.testing.assert_allclose(got.walk, reference.walk, rtol=0, atol=1e-12)


class TestBackendEquivalence:
    def test_backends_agree_on_all_pairs(self):
        pairs = all_pairs(WW_REFS)
        _assert_close(
            compute_pair_features(_builder(), pairs),
            reference_features(_builder(), pairs),
        )

    def test_vectorized_handles_tiny_pair_chunk(self):
        # A budget of 1 gathered nonzero (one pair per slice) is bitwise
        # equal to a single slice over the whole pair list.
        matrices = _builder().matrices_for(list(WW_REFS))
        idx_a, idx_b = np.triu_indices(len(WW_REFS), k=1)
        for stacked in matrices.values():
            single = 2 * stacked.forward.nnz
            for kernel, args in (
                (pair_resemblance_values, (stacked.forward,)),
                (pair_walk_values, (stacked.forward, stacked.backward)),
            ):
                np.testing.assert_array_equal(
                    kernel(*args, idx_a, idx_b, slice_nnz=1),
                    kernel(*args, idx_a, idx_b, slice_nnz=single),
                )

    def test_empty_pair_list(self):
        for features in (
            compute_pair_features(_builder(), []),
            reference_features(_builder(), []),
        ):
            assert features.n_pairs == 0
            assert features.resemblance.shape == (0, len(PATHS))

    def test_unknown_backend_rejected(self):
        # The route follows the input; there is no backend knob to pass.
        with pytest.raises(TypeError, match="backend"):
            compute_pair_features(_builder(), [], backend="vectorized")
        with pytest.raises(ValueError, match="degradation"):
            compute_pair_features(_builder(), [], degradation="lenient")


class TestPropagationBackends:
    def test_batched_matches_scalar_features(self):
        pairs = all_pairs(WW_REFS)
        _assert_close(
            compute_pair_features(_builder(), pairs),
            reference_features(_builder(), pairs),
        )

    def test_scalar_propagation_with_pruning(self):
        # Blocking zero-fills exactly the pairs whose reference-route
        # features are zero on every path.
        pairs = all_pairs(WW_REFS)
        reference = reference_features(_builder(), pairs)
        got = compute_pair_features(_builder(), pairs)
        zero = ~(reference.resemblance.any(axis=1) | reference.walk.any(axis=1))
        assert zero.any() and not zero.all()
        assert not got.resemblance[zero].any() and not got.walk[zero].any()
        _assert_close(got, reference)

    def test_empty_pairs_batched(self):
        features = compute_pair_features(_builder(), [])
        assert features.n_pairs == 0

    def test_unknown_propagation_rejected(self):
        for knob in ("propagation", "prune"):
            with pytest.raises(TypeError, match=knob):
                compute_pair_features(_builder(), [], **{knob: "batched"})


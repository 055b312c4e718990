"""Batched sparse propagation vs the scalar engine on the mini DBLP DB.

Every test compares :func:`repro.paths.batch.batch_profile_matrices`
row-by-row against :meth:`PropagationEngine.propagate` — same exclusions,
same origin handling, same supports — at reassociation tolerance.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.paths import JoinPath, ProfileBuilder, PropagationEngine
from repro.paths.batch import batch_profile_matrices
from repro.paths.propagation import make_exclusions
from repro.reldb.joins import JoinStep

from tests.minidb import WW_AUTHOR_ROW, WW_REFS, build_minidb

PUB_PAP = JoinStep("Publish", "paper_key", "Publications", "paper_key", "n1")
PUB_AUTH = JoinStep("Publish", "author_key", "Authors", "author_key", "n1")
PAP_PROC = JoinStep("Publications", "proc_key", "Proceedings", "proc_key", "n1")
PROC_CONF = JoinStep("Proceedings", "conf_key", "Conferences", "conf_key", "n1")

PATHS = [
    JoinPath([PUB_PAP]),
    JoinPath([PUB_PAP, PAP_PROC, PROC_CONF]),
    JoinPath([PUB_PAP, PUB_PAP.reverse(), PUB_AUTH]),
    JoinPath([PUB_PAP, PUB_PAP.reverse(), PUB_AUTH, PUB_AUTH.reverse(), PUB_PAP]),
]
EXCLUSIONS = make_exclusions(Authors={WW_AUTHOR_ROW})
ATOL = 1e-12


def assert_matches_scalar(engine: PropagationEngine, paths=PATHS, refs=WW_REFS):
    batched = batch_profile_matrices(engine, paths, list(refs))
    for path in paths:
        stacked = batched[path]
        assert stacked.rows == list(refs)
        for k, row in enumerate(refs):
            scalar = engine.propagate(path, row)
            got = stacked.weights_for(k)
            assert set(got) == set(scalar.forward)  # identical supports
            for t, fwd in scalar.forward.items():
                gf, gb = got[t]
                assert gf == pytest.approx(fwd, abs=ATOL)
                assert gb == pytest.approx(scalar.backward.get(t, 0.0), abs=ATOL)


class TestBatchMatchesScalar:
    def test_with_exclusions_and_origin_drop(self):
        assert_matches_scalar(PropagationEngine(build_minidb(), EXCLUSIONS))

    def test_without_global_exclusions(self):
        # origin exclusion still active: the shared author row is reachable
        assert_matches_scalar(PropagationEngine(build_minidb()))

    def test_exclude_origin_false(self):
        assert_matches_scalar(
            PropagationEngine(build_minidb(), EXCLUSIONS, exclude_origin=False)
        )

    def test_single_reference_batch(self):
        assert_matches_scalar(
            PropagationEngine(build_minidb(), EXCLUSIONS), refs=[WW_REFS[0]]
        )

    def test_mixed_start_relations_rejected(self):
        engine = PropagationEngine(build_minidb(), EXCLUSIONS)
        other = JoinPath([PAP_PROC])
        with pytest.raises(ValueError, match="start"):
            batch_profile_matrices(engine, [PATHS[0], other], WW_REFS)

    def test_empty_paths(self):
        engine = PropagationEngine(build_minidb(), EXCLUSIONS)
        assert batch_profile_matrices(engine, [], WW_REFS) == {}


class TestBatchedProfilesContract:
    def test_backward_pattern_subset_of_forward(self):
        engine = PropagationEngine(build_minidb(), EXCLUSIONS)
        for stacked in batch_profile_matrices(engine, PATHS, WW_REFS).values():
            fwd = stacked.forward
            back = stacked.backward
            for k in range(fwd.shape[0]):
                f_cols = set(fwd.getrow(k).indices.tolist())
                b_cols = set(back.getrow(k).indices.tolist())
                assert b_cols <= f_cols

    def test_builder_matrices_for_equals_profiles(self):
        builder = ProfileBuilder(build_minidb(), PATHS, EXCLUSIONS)
        batched = builder.matrices_for(WW_REFS)
        for path in PATHS:
            for k, row in enumerate(WW_REFS):
                profile = builder.profile(path, row)
                got = batched[path].weights_for(k)
                assert set(got) == profile.support
                for t, (fwd, back) in got.items():
                    ef, eb = profile.weights[t]
                    assert fwd == pytest.approx(ef, abs=ATOL)
                    assert back == pytest.approx(eb, abs=ATOL)


class TestBatchComposition:
    def test_rows_do_not_depend_on_batch_composition(self):
        # Delta ingest re-batches a subset of a name's references; each
        # reference's rows must not depend on which others share its batch.
        engine = PropagationEngine(build_minidb(), EXCLUSIONS)
        whole = batch_profile_matrices(engine, PATHS, WW_REFS)
        for part in ([WW_REFS[1], WW_REFS[3]], [WW_REFS[2], WW_REFS[0]]):
            batch = batch_profile_matrices(engine, PATHS, part)
            at = [WW_REFS.index(row) for row in part]
            for path in PATHS:
                assert batch[path].rows == part
                for side in ("forward", "backward"):
                    np.testing.assert_allclose(
                        getattr(batch[path], side).toarray(),
                        getattr(whole[path], side)[at].toarray(),
                        rtol=0,
                        atol=ATOL,
                    )

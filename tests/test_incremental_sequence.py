"""Sequential incremental assignment: later arrivals see earlier ones."""

import numpy as np
import pytest

from repro.core.distinct import NameResolution
from repro.ingest.greedy import extend_resolution


class TestSequentialArrivals:
    def test_second_arrival_can_join_first(self, fitted, small_db):
        db, truth = small_db
        prep = fitted.prepare("Wei Wang")
        base = fitted.cluster_prepared(prep)

        # Hold out an entire small cluster (>= 2 refs of one entity).
        held_cluster = next(c for c in base.clusters if 2 <= len(c) <= 4)
        held = sorted(held_cluster)
        remaining = [r for r in prep.rows if r not in held_cluster]
        keep = [i for i, r in enumerate(prep.rows) if r not in held_cluster]
        reduced = NameResolution(
            name="Wei Wang",
            rows=remaining,
            clusters=[set(c) for c in base.clusters if c is not held_cluster],
            clustering=None,
            features=None,
            resem_matrix=base.resem_matrix[np.ix_(keep, keep)],
            walk_matrix=base.walk_matrix[np.ix_(keep, keep)],
        )

        extended, assignments = extend_resolution(fitted, reduced, held)
        # Wherever the refs land, they must end up together: the second
        # arrival sees the first one (its pair matrix row was appended).
        labels = {}
        for idx, cluster in enumerate(extended.clusters):
            for row in cluster:
                labels[row] = idx
        entities = {truth.entity_of_row[r] for r in held}
        if len(entities) == 1:
            assert len({labels[r] for r in held}) == 1

    def test_extended_matrices_grow(self, fitted, small_db):
        db, truth = small_db
        resolution = fitted.resolve("Rakesh Kumar")
        n = len(resolution.rows)
        new_row = truth.rows_of_name["Jim Smith"][0]
        extended, _ = extend_resolution(fitted, resolution, [new_row])
        assert extended.resem_matrix.shape == (n + 1, n + 1)
        assert extended.rows[-1] == new_row
        assert np.allclose(extended.resem_matrix, extended.resem_matrix.T)

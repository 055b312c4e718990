"""Error paths and determinism of the calibration module."""

import pytest

from repro.errors import NotFittedError, TrainingError
from repro.eval.calibration import calibrate_min_sim, make_synthetic_names


class TestCalibrationErrors:
    def test_unfitted_pipeline_rejected(self):
        from repro import Distinct, DistinctConfig

        with pytest.raises(NotFittedError):
            make_synthetic_names(Distinct(DistinctConfig()))

    def test_too_many_members_rejected(self, fitted):
        with pytest.raises(TrainingError):
            make_synthetic_names(fitted, n_names=1, members=10_000)

    def test_synthetic_names_deterministic(self, fitted):
        a = make_synthetic_names(fitted, n_names=3, members=2, seed=4)
        b = make_synthetic_names(fitted, n_names=3, members=2, seed=4)
        assert [s.member_names for s in a] == [s.member_names for s in b]
        assert [s.rows for s in a] == [s.rows for s in b]

    def test_different_seed_different_pools(self, fitted):
        a = make_synthetic_names(fitted, n_names=3, members=2, seed=1)
        b = make_synthetic_names(fitted, n_names=3, members=2, seed=2)
        assert [s.member_names for s in a] != [s.member_names for s in b]

    def test_custom_grid_respected(self, fitted):
        result = calibrate_min_sim(
            fitted, grid=(0.004, 0.02), n_names=3, members=2, seed=6
        )
        assert set(result.f1_by_min_sim) == {0.004, 0.02}
        assert result.best_min_sim in (0.004, 0.02)
        assert result.n_synthetic_names == 3

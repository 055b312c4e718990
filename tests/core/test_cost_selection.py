"""Auto C selection (cross-validated) in the fit pipeline."""

import numpy as np
import pytest

from repro import Distinct, DistinctConfig
from repro.errors import ConvergenceError
from repro.ml import LinearSVM, cross_validate
from repro.ml.validation import kfold_indices
from repro.obs import get_metrics


def make_unfit(config=None):
    distinct = Distinct(config or DistinctConfig())
    distinct.paths_ = []
    return distinct


def make_data(seed=0, n=60, scale=1.0):
    rng = np.random.default_rng(seed)
    X = np.vstack(
        [rng.normal(0.6 * scale, 0.4 * scale, (n // 2, 3)),
         rng.normal(-0.6 * scale, 0.4 * scale, (n // 2, 3))]
    )
    y = np.array([1.0] * (n // 2) + [-1.0] * (n // 2))
    return X, y


class TestSelectCost:
    def test_selection_returns_grid_member(self):
        config = DistinctConfig(svm_C_grid=(0.1, 10.0), svm_cv_folds=3)
        distinct = make_unfit(config)
        X, y = make_data()
        costs = distinct._select_costs({"resemblance": X, "walk": -X}, y)
        assert set(costs) == {"resemblance", "walk"}
        assert set(costs.values()) <= {0.1, 10.0}

    def test_tiny_scale_features_prefer_large_C(self):
        # Features scaled down by 1e-3 need a much larger C to reach the
        # margin — the reason auto-selection exists (walk features are tiny).
        config = DistinctConfig(svm_C_grid=(0.1, 1000.0), svm_cv_folds=3)
        distinct = make_unfit(config)
        X, y = make_data(scale=1e-3)
        big, _ = make_data()
        costs = distinct._select_costs({"walk": X, "resemblance": big}, y)
        assert costs["walk"] == 1000.0

    def test_fixed_C_skips_selection(self, small_db):
        db, _ = small_db
        config = DistinctConfig(n_positive=100, n_negative=100, svm_C=10.0)
        distinct = Distinct(config).fit(db)
        assert distinct.resem_model_.metadata["C"] == 10.0
        assert distinct.walk_model_.metadata["C"] == 10.0

    def test_selection_deterministic(self):
        config = DistinctConfig(svm_C_grid=(0.1, 1.0, 10.0), svm_cv_folds=3)
        X, y = make_data(seed=5)
        a = make_unfit(config)._select_costs({"walk": X}, y)
        b = make_unfit(config)._select_costs({"walk": X}, y)
        assert a == b

    def test_selection_matches_per_fit_cross_validation(self):
        # The lockstep grid picks what fitting each fold on its own picks,
        # ties going to the earlier grid member.
        config = DistinctConfig(svm_C_grid=(0.01, 0.1, 1.0, 10.0), svm_cv_folds=3)
        distinct = make_unfit(config)
        X, y = make_data(seed=3, n=61, scale=0.05)
        expected = {}
        for name, matrix in {"resemblance": X, "walk": X * 1e-2}.items():
            best, best_score = None, -1.0
            for cost in config.svm_C_grid:
                accuracies = []
                for train, test in kfold_indices(len(y), 3, config.seed):
                    svm = distinct._make_svm(cost).fit(matrix[train], y[train])
                    accuracies.append(svm.accuracy(matrix[test], y[test]))
                if float(np.mean(accuracies)) > best_score:
                    best, best_score = cost, float(np.mean(accuracies))
            expected[name] = best
        assert distinct._select_costs(
            {"resemblance": X, "walk": X * 1e-2}, y
        ) == expected


class TestStrictGrid:
    def test_unconverged_grid_problem_raises_after_bounded_retries(self):
        # svm_retries > 0 makes every fit strict: a grid problem that does
        # not converge is refit through LinearSVM.fit, which retries once
        # with a doubled budget and then raises.
        config = DistinctConfig(
            svm_C_grid=(1e6,), svm_cv_folds=3, svm_tol=1e-12,
            svm_max_epochs=1, svm_retries=1,
        )
        X, y = make_data(seed=1)
        retries = get_metrics().counter("svm.convergence_retries")
        before = retries.value
        with pytest.raises(ConvergenceError):
            make_unfit(config)._select_costs({"walk": X}, y)
        assert retries.value - before == 1  # the first refit's one retry

    def test_strict_converged_grid_needs_no_refit(self):
        config = DistinctConfig(svm_C_grid=(0.1, 1.0), svm_cv_folds=3, svm_retries=2)
        X, y = make_data(seed=2)
        fits = get_metrics().counter("svm.fits")
        before = fits.value
        costs = make_unfit(config)._select_costs({"walk": X}, y)
        assert costs["walk"] in (0.1, 1.0)
        assert fits.value - before == 6  # 2 C x 3 folds, none refit


class TestCrossValidate:
    def test_scores_every_matrix_and_cost(self):
        X, y = make_data(seed=4)
        scores = cross_validate(
            lambda cost: LinearSVM(C=cost, strict=False),
            {"a": X, "b": 2 * X},
            y,
            (0.5, 5.0),
            k=3,
        )
        assert set(scores) == {("a", 0.5), ("a", 5.0), ("b", 0.5), ("b", 5.0)}
        assert all(0.0 <= v <= 1.0 for v in scores.values())

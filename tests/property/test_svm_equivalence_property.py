"""The SVM solvers against the reference dual coordinate descent loop.

``LinearSVM.fit`` must reproduce the oracle in ``tests/svm_oracle.py``
bit for bit; the lockstep ``fit_grid`` must match per-problem fits up to
dot rounding, stop at the same epochs and select the same C.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro import Distinct, DistinctConfig
from repro.errors import ConvergenceError
from repro.ml.svm import LinearSVM, fit_grid
from repro.ml.validation import kfold_indices
from tests.svm_oracle import reference_fit

CLASS_WEIGHTS = (None, "balanced", {1: 0.5, -1: 3.0}, {1: 2.0, -1: 1.0})


@st.composite
def problem(draw, min_n=4, max_n=30):
    """(X, y): two noisy classes on raw features of mixed scale, sometimes
    with all-zero rows (Q_ii = 0 without a bias) and zero columns."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    d = draw(st.integers(min_value=1, max_value=6))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    rng = np.random.default_rng(seed)
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    y[0], y[1] = 1.0, -1.0
    scale = 10.0 ** rng.integers(-3, 2, size=d)
    X = (y[:, None] * draw(st.floats(0.0, 1.5)) + rng.normal(size=(n, d))) * scale
    if draw(st.booleans()):
        X[rng.random(n) < 0.2] = 0.0
    if d > 1 and draw(st.booleans()):
        X[:, 0] = 0.0
    return X, y


@st.composite
def svm_params(draw):
    return dict(
        C=draw(st.sampled_from((0.01, 0.1, 1.0, 10.0, 100.0))),
        loss=draw(st.sampled_from(("hinge", "squared_hinge"))),
        class_weight=draw(st.sampled_from(CLASS_WEIGHTS)),
        fit_bias=draw(st.booleans()),
        # 2 epochs usually stops at the cap; 400 at tol 1e-3 usually converges.
        max_epochs=draw(st.sampled_from((2, 400))),
        tol=1e-3,
        seed=draw(st.integers(min_value=0, max_value=5)),
        strict=False,
    )


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestSingleFitMatchesOracle:
    @given(problem(), svm_params())
    @settings(max_examples=120, deadline=None)
    def test_bitwise_equal_to_reference_loop(self, data, params):
        X, y = data
        svm = LinearSVM(**params).fit(X, y)
        ref = reference_fit(svm, X, y)
        assert same_bits(svm.weights_, ref.weights)
        assert same_bits(svm.bias_, ref.bias)
        assert svm.n_epochs_ == ref.n_epochs
        assert same_bits(svm.dual_coef_, ref.dual_coef)
        assert svm.converged_ == ref.converged

    @given(problem(), st.sampled_from(CLASS_WEIGHTS))
    @settings(max_examples=20, deadline=None)
    def test_retry_attempt_matches_reference_with_doubled_budget(self, data, cw):
        # A strict fit that fails once reruns with twice the epochs and the
        # next shuffle seed; the kept model is that attempt's, bit for bit.
        X, y = data
        svm = LinearSVM(C=10.0, tol=1e-9, max_epochs=1, retries=3,
                        class_weight=cw, seed=2)
        try:
            svm.fit(X, y)
        except ConvergenceError:
            return
        k = svm.n_fit_attempts_ - 1
        ref = reference_fit(svm, X, y, max_epochs=2**k, seed=2 + k)
        assert same_bits(svm.weights_, ref.weights)
        assert svm.n_epochs_ == ref.n_epochs


class TestLockstepGrid:
    @given(
        st.lists(st.tuples(problem(min_n=8, max_n=12), svm_params()),
                 min_size=1, max_size=6),
        st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_per_problem_fits(self, cases, seed):
        # One seed for all, so problems of equal size share a lockstep group.
        params = [dict(p, seed=seed) for _, p in cases]
        data = [d for d, _ in cases]
        grid = [LinearSVM(**p) for p in params]
        fit_grid(grid, data)
        for model, p, (X, y) in zip(grid, params, data):
            single = LinearSVM(**p).fit(X, y)
            assert model.n_epochs_ == single.n_epochs_
            assert model.converged_ == single.converged_
            scale = max(np.max(np.abs(single.weights_)), abs(single.bias_), 1e-300)
            assert np.max(np.abs(model.weights_ - single.weights_)) <= 1e-12 * scale
            assert abs(model.bias_ - single.bias_) <= 1e-12 * scale

    @given(problem(min_n=12, max_n=40), st.sampled_from((2, 3)),
           st.sampled_from(("hinge", "squared_hinge")))
    @settings(max_examples=15, deadline=None)
    def test_selects_the_same_cost_as_per_fold_fits(self, data, folds, loss):
        X, y = data
        if min(np.sum(y == 1), np.sum(y == -1)) < 2 * folds:
            return  # a fold's training set would miss a class
        config = DistinctConfig(
            svm_C_grid=(0.01, 1.0, 100.0), svm_cv_folds=folds, svm_loss=loss,
            svm_max_epochs=50,
        )
        distinct = Distinct(config)
        matrices = {"resemblance": X, "walk": X * 1e-2}
        expected = {}
        for name, matrix in matrices.items():
            scores = []
            for cost in config.svm_C_grid:
                accuracies = []
                for train, test in kfold_indices(len(y), folds, config.seed):
                    if len(set(y[train])) < 2:
                        return
                    svm = distinct._make_svm(cost).fit(matrix[train], y[train])
                    accuracies.append(svm.accuracy(matrix[test], y[test]))
                scores.append(float(np.mean(accuracies)))
            expected[name] = config.svm_C_grid[int(np.argmax(scores))]
        assert distinct._select_costs(matrices, y) == expected

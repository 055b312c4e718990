"""Model validation: k-fold cross-validation and classification metrics."""

from __future__ import annotations

import random
from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from repro.ml.svm import LinearSVM, fit_grid


@dataclass
class ClassificationReport:
    """Binary classification quality for labels in {-1, +1}."""

    accuracy: float
    precision: float
    recall: float
    f1: float
    n: int

    def __str__(self) -> str:
        return (
            f"acc={self.accuracy:.3f} p={self.precision:.3f} "
            f"r={self.recall:.3f} f1={self.f1:.3f} (n={self.n})"
        )


def classification_report(y_true, y_pred) -> ClassificationReport:
    """Accuracy / precision / recall / F1 treating +1 as the positive class."""
    y_true = np.asarray(y_true, dtype=float)
    y_pred = np.asarray(y_pred, dtype=float)
    if y_true.shape != y_pred.shape:
        raise ValueError("y_true and y_pred must have the same shape")
    tp = float(np.sum((y_pred == 1) & (y_true == 1)))
    fp = float(np.sum((y_pred == 1) & (y_true == -1)))
    fn = float(np.sum((y_pred == -1) & (y_true == 1)))
    accuracy = float(np.mean(y_pred == y_true)) if len(y_true) else 0.0
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = (
        2 * precision * recall / (precision + recall) if precision + recall else 0.0
    )
    return ClassificationReport(accuracy, precision, recall, f1, n=len(y_true))


def kfold_indices(n: int, k: int, seed: int = 0) -> list[tuple[list[int], list[int]]]:
    """(train_indices, test_indices) per fold, shuffled deterministically."""
    if k < 2:
        raise ValueError("k must be >= 2")
    if n < k:
        raise ValueError("need at least k examples")
    order = list(range(n))
    random.Random(seed).shuffle(order)
    folds = [order[i::k] for i in range(k)]
    out: list[tuple[list[int], list[int]]] = []
    for i in range(k):
        test = folds[i]
        train = [idx for j, fold in enumerate(folds) if j != i for idx in fold]
        out.append((train, test))
    return out


def cross_validate(
    model_factory: Callable[[float], LinearSVM],
    matrices: Mapping[str, np.ndarray],
    y,
    costs: Sequence[float],
    k: int = 5,
    seed: int = 0,
) -> dict[tuple[str, float], float]:
    """Mean k-fold test accuracy of ``model_factory(C)`` per (matrix, C).

    ``matrices`` maps a name (e.g. a similarity measure) to its feature
    matrix; all share the labels ``y`` and the folds. Every
    name × C × fold problem is fitted in one :func:`fit_grid` call.
    """
    y = np.asarray(y, dtype=float)
    folds = kfold_indices(len(y), k, seed)
    keys: list[tuple[str, float]] = []
    models: list[LinearSVM] = []
    train_sets: list[tuple[np.ndarray, np.ndarray]] = []
    test_sets: list[tuple[np.ndarray, np.ndarray]] = []
    for name, X in matrices.items():
        X = np.asarray(X, dtype=float)
        for cost in costs:
            for train, test in folds:
                keys.append((name, cost))
                models.append(model_factory(cost))
                train_sets.append((X[train], y[train]))
                test_sets.append((X[test], y[test]))
    fit_grid(models, train_sets)
    accuracies: dict[tuple[str, float], list[float]] = {}
    for key, model, (X_test, y_test) in zip(keys, models, test_sets):
        accuracies.setdefault(key, []).append(model.accuracy(X_test, y_test))
    return {key: float(np.mean(values)) for key, values in accuracies.items()}

"""Test oracle for the SVM: the reference dual coordinate descent loop.

This is the straightforward per-example loop (numpy scalars, one array
expression per update) that :class:`repro.ml.svm.LinearSVM` replaced with
a loop on Python floats. The production solver must reproduce it bit for
bit; the lockstep grid (:func:`repro.ml.svm.fit_grid`) must match it up
to dot-product rounding.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from repro.ml.svm import LinearSVM


@dataclass
class ReferenceFit:
    weights: np.ndarray
    bias: float
    n_epochs: int
    dual_coef: np.ndarray
    converged: bool


def reference_fit(
    svm: LinearSVM, X, y, max_epochs: int | None = None, seed: int | None = None
) -> ReferenceFit:
    """Fit ``svm``'s problem (its C, loss, tol, bias and class weights)."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    max_epochs = svm.max_epochs if max_epochs is None else max_epochs
    seed = svm.seed if seed is None else seed
    n, d = X.shape
    if svm.fit_bias:
        X = np.hstack([X, np.ones((n, 1))])

    costs = svm._per_example_cost(y)
    if svm.loss == "hinge":
        upper = costs
        diag = np.zeros(n)
    else:  # squared hinge: U = inf, extra per-example diagonal term
        upper = np.full(n, np.inf)
        diag = 1.0 / (2.0 * costs)

    q_diag = np.einsum("ij,ij->i", X, X) + diag
    alpha = np.zeros(n)
    w = np.zeros(X.shape[1])
    rng = random.Random(seed)
    order = list(range(n))

    epoch = 0
    converged = False
    for epoch in range(1, max_epochs + 1):
        rng.shuffle(order)
        max_violation = 0.0
        for i in order:
            if q_diag[i] <= 0.0:
                continue
            grad = y[i] * (X[i] @ w) - 1.0 + diag[i] * alpha[i]
            # Projected gradient for the box constraint 0 <= alpha_i <= U_i.
            if alpha[i] <= 0.0:
                pg = min(grad, 0.0)
            elif alpha[i] >= upper[i]:
                pg = max(grad, 0.0)
            else:
                pg = grad
            if pg == 0.0:
                continue
            max_violation = max(max_violation, abs(pg))
            new_alpha = min(max(alpha[i] - grad / q_diag[i], 0.0), upper[i])
            delta = new_alpha - alpha[i]
            if delta != 0.0:
                w += delta * y[i] * X[i]
                alpha[i] = new_alpha
        if max_violation < svm.tol:
            converged = True
            break

    if svm.fit_bias:
        return ReferenceFit(w[:-1].copy(), float(w[-1]), epoch, alpha, converged)
    return ReferenceFit(w.copy(), 0.0, epoch, alpha, converged)

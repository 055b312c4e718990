"""A linear-kernel SVM trained by dual coordinate descent.

Solves the L2-regularized hinge-loss problem

    min_w  0.5 ||w||^2 + C * sum_i loss(y_i, w . x_i)

with ``loss`` either the L1 hinge ``max(0, 1 - y f)`` or the squared (L2)
hinge, via the dual coordinate descent method of Hsieh et al., *A Dual
Coordinate Descent Method for Large-scale Linear SVM* (ICML 2008) — the
algorithm behind LIBLINEAR. The bias term is handled by augmenting every
example with a constant feature (regularized bias; standard for this
solver and harmless at these scales).

The paper (§3) trains an SVM with linear kernel on 1000 positive + 1000
negative automatically labeled pairs. The learned weight vector *is* the
per-join-path weighting ``w(P)`` of Eq 1. Coordinate descent is slow on
these raw, badly scaled features: with the ``Distinct`` defaults (tol
1e-3, 600 epochs) many fits, the selected C=100 among them, stop at the
epoch cap without converging. Every fit reports whether it converged
(``converged_``, the ``svm.fit`` span, the ``svm.unconverged`` counter).

:meth:`LinearSVM.fit` runs one problem in a loop on Python floats;
:func:`fit_grid` runs many same-shaped problems (a cross-validated C grid)
as one vectorised loop.
"""

from __future__ import annotations

import random
from collections.abc import Sequence

import numpy as np

from repro.errors import ConvergenceError, NotFittedError
from repro.obs import counter, span
from repro.resilience.retry import retry

_FITS = counter("svm.fits")
_ITERATIONS = counter("svm.iterations")
_RETRIES = counter("svm.convergence_retries")
_UNCONVERGED = counter("svm.unconverged")


class LinearSVM:
    """Binary linear SVM; labels must be -1 / +1.

    Parameters
    ----------
    C:
        Soft-margin cost. Larger C fits the training set more tightly.
    loss:
        ``"hinge"`` (L1) or ``"squared_hinge"`` (L2).
    tol:
        Stop when the maximal projected gradient over an epoch falls below
        this.
    max_epochs:
        Epoch budget; exceeding it raises :class:`ConvergenceError` unless
        ``strict=False`` (then the best-so-far model is kept).
    retries:
        Extra fit attempts after a non-converged strict fit. Each retry
        doubles the epoch budget and shifts the shuffle seed (via
        :func:`repro.resilience.retry`), so ``ConvergenceError`` becomes a
        bounded, reported condition: it is raised only once
        ``1 + retries`` attempts have failed. ``0`` (the default)
        preserves the single-attempt behaviour exactly.
    fit_bias:
        Learn an intercept via feature augmentation.
    seed:
        Seed for the per-epoch coordinate shuffle (deterministic training).
    """

    def __init__(
        self,
        C: float = 1.0,
        loss: str = "hinge",
        tol: float = 1e-6,
        max_epochs: int = 2000,
        fit_bias: bool = True,
        seed: int = 0,
        strict: bool = True,
        class_weight: str | dict | None = None,
        retries: int = 0,
    ) -> None:
        if C <= 0:
            raise ValueError("C must be positive")
        if loss not in ("hinge", "squared_hinge"):
            raise ValueError(f"unknown loss {loss!r}")
        if class_weight not in (None, "balanced") and not isinstance(
            class_weight, dict
        ):
            raise ValueError('class_weight must be None, "balanced", or a dict')
        if retries < 0:
            raise ValueError("retries must be non-negative")
        self.C = C
        self.loss = loss
        self.tol = tol
        self.max_epochs = max_epochs
        self.fit_bias = fit_bias
        self.seed = seed
        self.strict = strict
        self.class_weight = class_weight
        self.retries = retries
        self.n_fit_attempts_: int = 0
        self.weights_: np.ndarray | None = None
        self.bias_: float = 0.0
        self.n_epochs_: int | None = None
        self.dual_coef_: np.ndarray | None = None
        self.converged_: bool | None = None

    def _per_example_cost(self, y: np.ndarray) -> np.ndarray:
        """Per-example cost C_i (class weighting scales the box constraint).

        ``"balanced"`` mirrors the usual convention: each class's cost is
        inversely proportional to its frequency, so an asymmetric training
        set (e.g. 1000 positives vs 200 negatives) does not bias the margin.
        """
        costs = np.full(len(y), self.C)
        if self.class_weight is None:
            return costs
        if self.class_weight == "balanced":
            n = len(y)
            for label in (-1.0, 1.0):
                mask = y == label
                count = int(mask.sum())
                if count:
                    costs[mask] = self.C * n / (2.0 * count)
            return costs
        for label, factor in self.class_weight.items():
            costs[y == float(label)] = self.C * factor
        return costs

    # -- training ------------------------------------------------------------

    def fit(self, X, y) -> "LinearSVM":
        X, y = _check_problem(X, y)
        with span("svm.fit", n=int(X.shape[0]), d=int(X.shape[1]), C=self.C) as sp:
            terms = self._dual_terms(X, y)

            def attempt(k: int) -> None:
                # Widen the epoch budget and reshuffle on every retry so a
                # repeat attempt is not a verbatim replay of the failed one.
                if k:
                    _RETRIES.inc()
                self.n_fit_attempts_ = k + 1
                max_epochs = self.max_epochs * 2**k
                w, alpha, epochs, converged = _dual_cd(
                    *terms, tol=self.tol, max_epochs=max_epochs, seed=self.seed + k
                )
                _ITERATIONS.inc(epochs)
                sp.annotate(epochs=epochs, attempts=k + 1, converged=converged)
                if not converged and (not self.strict or k == self.retries):
                    _UNCONVERGED.inc()  # the fit's last attempt
                if not converged and self.strict:
                    raise ConvergenceError(
                        f"dual coordinate descent did not converge in "
                        f"{max_epochs} epochs (last violation above {self.tol})"
                    )
                self._store(w, alpha, epochs, converged)

            retry(
                attempt,
                budget=self.retries + 1,
                retry_on=ConvergenceError,
                seed=self.seed,
            )
        _FITS.inc()
        return self

    def _dual_terms(
        self, X: np.ndarray, y: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(signed rows ``y_i x_i``, diagonal term, box bound, ``Q_ii``) of
        the dual. Rows carry the bias feature when ``fit_bias``; signing
        them is exact because ``y_i = ±1``."""
        n = X.shape[0]
        if self.fit_bias:
            X = np.hstack([X, np.ones((n, 1))])
        costs = self._per_example_cost(y)
        if self.loss == "hinge":
            upper = costs
            diag = np.zeros(n)
        else:  # squared hinge: U = inf, extra per-example diagonal term
            upper = np.full(n, np.inf)
            diag = 1.0 / (2.0 * costs)
        q_diag = np.einsum("ij,ij->i", X, X) + diag
        return X * y[:, None], diag, upper, q_diag

    def _store(
        self, w: np.ndarray, alpha: np.ndarray, epochs: int, converged: bool
    ) -> None:
        if self.fit_bias:
            self.weights_ = w[:-1].copy()
            self.bias_ = float(w[-1])
        else:
            self.weights_ = w.copy()
            self.bias_ = 0.0
        self.n_epochs_ = epochs
        self.dual_coef_ = alpha
        self.converged_ = converged

    # -- inference ----------------------------------------------------------

    def decision_function(self, X) -> np.ndarray:
        if self.weights_ is None:
            raise NotFittedError("fit the SVM before calling decision_function")
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return X @ self.weights_ + self.bias_

    def predict(self, X) -> np.ndarray:
        scores = self.decision_function(X)
        return np.where(scores >= 0.0, 1.0, -1.0)

    def accuracy(self, X, y) -> float:
        y = np.asarray(y, dtype=float)
        return float(np.mean(self.predict(X) == y))

    # -- diagnostics ----------------------------------------------------------

    def primal_objective(self, X, y) -> float:
        """0.5||w||^2 + C * sum(loss) — handy for optimality tests."""
        if self.weights_ is None:
            raise NotFittedError("fit the SVM first")
        X = np.asarray(X, dtype=float)
        y = np.asarray(y, dtype=float)
        margins = 1.0 - y * self.decision_function(X)
        hinge = np.maximum(margins, 0.0)
        costs = self._per_example_cost(y)
        if self.loss == "squared_hinge":
            loss_sum = float(np.sum(costs * hinge**2))
        else:
            loss_sum = float(np.sum(costs * hinge))
        reg = 0.5 * float(self.weights_ @ self.weights_ + self.bias_**2)
        return reg + loss_sum


def _check_problem(X, y) -> tuple[np.ndarray, np.ndarray]:
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2:
        raise ValueError("X must be 2-dimensional")
    if y.shape != (X.shape[0],):
        raise ValueError("y must be 1-dimensional and match X")
    if not set(np.unique(y)) <= {-1.0, 1.0}:
        raise ValueError("labels must be -1 or +1")
    if len(set(np.unique(y))) < 2:
        raise ValueError("training set needs both classes")
    return X, y


def _dual_cd(
    rows: np.ndarray,
    diag: np.ndarray,
    upper: np.ndarray,
    q_diag: np.ndarray,
    tol: float,
    max_epochs: int,
    seed: int,
) -> tuple[np.ndarray, np.ndarray, int, bool]:
    """Dual coordinate descent on one problem: (w, alpha, epochs, converged).

    The loop runs on Python floats. Its only array operations are the
    BLAS dot ``row · w`` and the elementwise update ``w += delta * row``,
    each rounded as a plain numpy expression would be, so the result is
    bit-for-bit that of the textbook numpy loop (``tests/svm_oracle.py``).
    """
    n = rows.shape[0]
    diag_, upper_, q_ = diag.tolist(), upper.tolist(), q_diag.tolist()
    row_list = list(rows)
    dots = [row.dot for row in row_list]
    alpha = [0.0] * n
    w = np.zeros(rows.shape[1])
    step = np.empty_like(w)
    multiply, add = np.multiply, np.add
    rng = random.Random(seed)
    order = list(range(n))

    epoch = 0
    converged = False
    for epoch in range(1, max_epochs + 1):
        rng.shuffle(order)
        max_violation = 0.0
        for i in order:
            q = q_[i]
            if q <= 0.0:
                continue
            a = alpha[i]
            grad = float(dots[i](w)) - 1.0 + diag_[i] * a
            # Projected gradient for the box constraint 0 <= alpha_i <= U_i;
            # a zero one means the coordinate is optimal.
            if a <= 0.0:
                if grad >= 0.0:
                    continue
                violation = -grad
            elif a >= upper_[i]:
                if grad <= 0.0:
                    continue
                violation = grad
            elif grad == 0.0:
                continue
            else:
                violation = grad if grad > 0.0 else -grad
            if violation > max_violation:
                max_violation = violation
            new_alpha = a - grad / q
            if 0.0 > new_alpha:
                new_alpha = 0.0
            if upper_[i] < new_alpha:
                new_alpha = upper_[i]
            delta = new_alpha - a
            if delta != 0.0:
                multiply(row_list[i], delta, out=step)
                add(w, step, out=w)
                alpha[i] = new_alpha
        if max_violation < tol:
            converged = True
            break
    return w, np.array(alpha), epoch, converged


def fit_grid(models: Sequence[LinearSVM], problems: Sequence[tuple]) -> None:
    """Fit ``models[p]`` on ``problems[p] = (X, y)`` for every p at once.

    Every fit shuffles its coordinates with ``random.Random(seed)`` over
    ``range(n)``, so problems that share the training-set size, feature
    count, seed and bias setting visit the same example at every step.
    Each such group runs as one vectorised dual coordinate descent
    (:func:`_lockstep_cd`): the weights are a (P, d) matrix, the duals an
    (n, P) matrix, and each problem keeps its own costs, loss, tolerance
    and epoch budget. A problem's model is taken at the epoch where it
    converges (or runs out of epochs), exactly where its own fit would
    stop. The per-problem dot is a batched ``matmul``, which numpy is
    free to round differently from a single ``row · w``, so the result is
    promised to equal ``model.fit(X, y)`` only up to dot rounding.

    A strict model that did not converge is refit with ``model.fit``,
    which retries or raises :class:`ConvergenceError` as usual. Below a
    few problems the scalar :meth:`LinearSVM.fit` is faster.
    """
    if len(models) != len(problems):
        raise ValueError("need one (X, y) problem per model")
    checked = [_check_problem(X, y) for X, y in problems]
    groups: dict[tuple, list[int]] = {}
    for p, (model, (X, _)) in enumerate(zip(models, checked)):
        groups.setdefault((X.shape, model.seed, model.fit_bias), []).append(p)
    with span(
        "svm.fit_grid",
        problems=len(models),
        n=max((X.shape[0] for X, _ in checked), default=0),
    ) as sp:
        for members in groups.values():
            _lockstep_cd(
                [models[p] for p in members], [checked[p] for p in members]
            )
        epochs = [model.n_epochs_ or 0 for model in models]
        unconverged = sum(not model.converged_ for model in models)
        sp.annotate(epochs=max(epochs, default=0), unconverged=unconverged)
    _FITS.inc(len(models))
    _ITERATIONS.inc(sum(epochs))
    _UNCONVERGED.inc(unconverged)
    for model, (X, y) in zip(models, checked):
        if model.strict and not model.converged_:
            model.fit(X, y)


def _lockstep_cd(models: list[LinearSVM], problems: list[tuple]) -> None:
    """One vectorised dual CD over problems of the same shape and seed.

    Each coordinate is visited once per epoch, so the alpha a step reads
    is the one the epoch started with. That lets the per-step work be
    only the dot and the clipped Newton update, the same rounding as
    :func:`_dual_cd`; which steps moved (and so the epoch's violation) is
    worked out for the whole epoch at its end. A step whose projected
    gradient is zero clips back to its old alpha, so it adds a zero to w.
    """
    terms = [model._dual_terms(X, y) for model, (X, y) in zip(models, problems)]
    rows, diag, upper, q_diag = (np.stack(part, axis=1) for part in zip(*terms))
    n, n_problems, d = rows.shape
    live = q_diag > 0.0
    # A step may raise alpha_i while it is below ``ceiling`` and lower it
    # while it is above 0. ``inf`` where U_i <= 0 keeps the reference's
    # "alpha_i <= 0 first" branch order; 0 (with an infinite Q_ii, so the
    # step is 0) skips a coordinate with Q_ii <= 0 as the reference does.
    ceiling = np.where(live, np.where(upper > 0.0, upper, np.inf), 0.0)
    q_diag = np.where(live, q_diag, np.inf)
    tol = np.array([model.tol for model in models])
    max_epochs = np.array([model.max_epochs for model in models])

    alpha = np.zeros((n, n_problems))
    start = np.zeros((n, n_problems))  # alpha at the start of the epoch
    diag_alpha = np.zeros((n, n_problems))
    grads = np.empty((n, n_problems))
    w = np.zeros((n_problems, d))
    w_col = w[:, :, None]
    dot_out = np.empty((n_problems, 1, 1))
    dots = dot_out.reshape(n_problems)
    ones, zeros = np.ones(n_problems), np.zeros(n_problems)
    bounded = bool(np.isfinite(upper).any())  # False for squared hinge
    scratch = np.empty(n_problems)
    delta = np.empty(n_problems)
    delta_col = delta[:, None]
    step = np.empty((n_problems, d))
    steps = [
        (rows[i][:, None, :], rows[i], grads[i], diag_alpha[i], q_diag[i],
         alpha[i], start[i], upper[i])
        for i in range(n)
    ]
    done = np.zeros(n_problems, dtype=bool)
    matmul, multiply, add, subtract, divide = (
        np.matmul, np.multiply, np.add, np.subtract, np.divide
    )
    maximum, minimum = np.maximum, np.minimum
    rng = random.Random(models[0].seed)
    order = list(range(n))

    def finish(p: int, epoch: int, converged: bool) -> None:
        models[p]._store(w[p].copy(), alpha[:, p].copy(), epoch, converged)
        done[p] = True

    epoch = 0
    for epoch in range(1, int(max_epochs.max(initial=0)) + 1):
        rng.shuffle(order)
        np.copyto(start, alpha)
        multiply(diag, start, out=diag_alpha)
        for i in order:
            row_vec, row, grad, da, q, a, a0, u = steps[i]
            # Every problem's row_p · w_p in one batched call.
            matmul(row_vec, w_col, out=dot_out)
            subtract(dots, ones, out=grad)
            add(grad, da, out=grad)
            divide(grad, q, out=scratch)
            subtract(a, scratch, out=a)
            maximum(a, zeros, out=a)
            if bounded:
                minimum(a, u, out=a)
            subtract(a, a0, out=delta)
            multiply(row, delta_col, out=step)
            add(w, step, out=w)
        moves = ((grads < 0.0) & (start < ceiling)) | ((grads > 0.0) & (start > 0.0))
        violation = np.where(moves, np.abs(grads), 0.0).max(axis=0)
        stopped = ~done & ((violation < tol) | (epoch >= max_epochs))
        for p in np.flatnonzero(stopped):
            finish(p, epoch, bool(violation[p] < tol[p]))
        if done.all():
            return
    for p in np.flatnonzero(~done):
        finish(p, epoch, False)

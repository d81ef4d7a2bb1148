"""Probit maximum likelihood via Newton iterations with analytic derivatives.

The log-likelihood is globally concave, so Newton from a zero start with
step-halving converges for any full-rank design unless the data are
(quasi-)separated, in which case the coefficients diverge and a
SeparationError is raised instead of returning a garbage fit.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from vaxsel.stdnorm import inverse_mills, inverse_mills_delta, log_normal_cdf, normal_cdf

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 100
MAX_STEP_HALVINGS = 30
# Probit indexes beyond +-50 are numerically saturated; a coefficient this
# large with a nonzero score indicates separation, not progress.
SEPARATION_COEF_BOUND = 50.0


class ProbitError(Exception):
    """Base class for estimation failures in this module."""


class RankDeficientError(ProbitError):
    def __init__(self, columns):
        self.columns = list(columns)
        super().__init__(f"design matrix is rank deficient; collinear columns: {self.columns}")


class SeparationError(ProbitError):
    pass


@dataclass
class ProbitFit:
    """First-stage estimate: coefficients, covariance and diagnostics.

    vcov is the observed-information inverse at the optimum; use
    sandwich_vcov for the heteroskedasticity-robust variant.
    """

    coef: np.ndarray
    vcov: np.ndarray
    loglik: float
    iterations: int
    converged: bool
    score_norm: float
    n: int
    labels: list[str] = field(default_factory=list)
    loglik_path: list[float] = field(default_factory=list, repr=False)


def collinear_columns(X, labels):
    """Labels of the columns whose QR diagonal is below max(n, k) * eps *
    max|R_jj|; every label when X has fewer rows than columns."""
    n, k = X.shape
    if n < k:
        return list(labels)
    diag = np.abs(np.diag(np.linalg.qr(X, mode="r")))
    tol = max(n, k) * np.finfo(float).eps * (diag.max() if diag.size else 0.0)
    return [labels[j] for j in np.where(diag <= tol)[0]]


def _prepare(y, X, labels=None):
    y = np.asarray(y, dtype=float).ravel()
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[0] != y.shape[0]:
        raise ValueError("y and X row counts differ")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError("y must be binary 0/1")
    if not np.all(np.isfinite(X)):
        raise ValueError("X contains NaN or infinite values")
    labels = list(labels) if labels is not None else [f"x{j}" for j in range(X.shape[1])]
    return y, X, labels


def _terms(coef, y, X):
    """One pass over the signed index s_i = +-x_i'c (+ where y_i = 1): the
    log-likelihood sum_i log Phi(s_i), the score factors g_i = +-lambda(s_i)
    (score X'g) and the Hessian weights w_i = delta(s_i) (Hessian -X'WX)."""
    idx = X @ np.asarray(coef, dtype=float)
    ones = y == 1.0
    s = np.where(ones, idx, -idx)
    lam = inverse_mills(s)
    return float(np.sum(log_normal_cdf(s))), np.where(ones, lam, -lam), inverse_mills_delta(s)


def _information(X, w):
    """Observed information X'WX, the negative Hessian."""
    return (X * w[:, None]).T @ X


def loglik(coef, y, X):
    """Probit log-likelihood sum_i [y_i log Phi(x_i'c) + (1-y_i) log Phi(-x_i'c)]."""
    return _terms(coef, y, X)[0]


def score(coef, y, X):
    """Analytic gradient: sum_i g_i x_i with g_i = +-lambda(+-x_i'c)."""
    return X.T @ _terms(coef, y, X)[1]


def hessian(coef, y, X):
    """Analytic Hessian -sum_i w_i x_i x_i', w_i = delta(+-x_i'c).

    Negative semidefinite everywhere because delta lies in (0, 1).
    """
    return -_information(X, _terms(coef, y, X)[2])


_Point = namedtuple("_Point", "coef ll grad w")


def _point(coef, y, X):
    """Evaluate coef once; fit reuses the point's loglik, score and weights."""
    ll, g, w = _terms(coef, y, X)
    return _Point(coef, ll, X.T @ g, w)


def fit(y, X, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER, labels=None) -> ProbitFit:
    """Fit a probit by Newton iteration from a zero start.

    Parameters
    ----------
    y : array of 0/1 responses containing both classes.
    X : finite full-column-rank design matrix (include the intercept yourself).
    tol : convergence threshold on the max-abs score entry.
    max_iter : Newton iteration cap; non-convergence is reported honestly
        through ``converged=False`` rather than raised.
    labels : optional column names used in error messages.

    Raises
    ------
    ValueError : NaN or infinite entries in X, non-binary or single-class y.
    RankDeficientError : collinear design.
    SeparationError : coefficients diverging past +-50 with the score
        still above tolerance (perfect or quasi-perfect separation).
    """
    y, X, labels = _prepare(y, X, labels)
    collinear = collinear_columns(X, labels)
    if collinear:
        raise RankDeficientError(collinear)
    if y.min() == y.max():
        raise ValueError("y contains a single class; probit is not estimable")

    coef, ll, grad, w = _point(np.zeros(X.shape[1]), y, X)
    path = [ll]
    iterations = 0

    for iterations in range(1, max_iter + 1):
        sn = np.max(np.abs(grad))
        if sn < tol:
            iterations -= 1
            break
        try:
            step = np.linalg.solve(_information(X, w), grad)
        except np.linalg.LinAlgError as exc:
            raise ProbitError(f"singular Hessian at iteration {iterations}") from exc

        full = _point(coef + step, y, X)
        for halvings in range(MAX_STEP_HALVINGS):
            cand = _point(coef + 0.5**halvings * step, y, X) if halvings else full
            # Near the optimum the quadratic gain falls below float
            # resolution and the likelihood ties; accept the step if it
            # still contracts the score, keeping the path nondecreasing.
            if np.isfinite(cand.ll) and (
                    cand.ll > ll or (cand.ll == ll and np.max(np.abs(cand.grad)) <= 0.9 * sn)):
                break
        else:
            # Terminal refinement: the quadratic step may wiggle the
            # likelihood a ulp below its current value while landing the
            # score inside tolerance.  That is convergence, not descent.
            cand = full
            drop = ll - cand.ll
            if not (np.isfinite(cand.ll) and drop <= 64.0 * np.finfo(float).eps * max(1.0, abs(ll))
                    and np.max(np.abs(cand.grad)) < tol):
                break
        coef, ll, grad, w = cand
        path.append(ll)

        if np.max(np.abs(coef)) > SEPARATION_COEF_BOUND and np.max(np.abs(grad)) > tol:
            raise SeparationError(
                "coefficients diverging beyond +-50 with nonzero score; "
                "the classes appear perfectly separated"
            )

    score_norm = float(np.max(np.abs(grad)))
    try:
        vcov = np.linalg.inv(_information(X, w))
    except np.linalg.LinAlgError as exc:
        raise ProbitError("observed information is singular at the optimum") from exc
    vcov = 0.5 * (vcov + vcov.T)

    return ProbitFit(
        coef=coef,
        vcov=vcov,
        loglik=ll,
        iterations=iterations,
        converged=score_norm < tol,
        score_norm=score_norm,
        n=int(y.shape[0]),
        labels=labels,
        loglik_path=path,
    )


def predict_prob(fit: ProbitFit, X) -> np.ndarray:
    """Phi(x'coef) per row of X."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != fit.coef.shape[0]:
        raise ValueError("column count does not match the fitted coefficients")
    return normal_cdf(X @ fit.coef)


def sandwich_vcov(fit: ProbitFit, y, X) -> np.ndarray:
    """Robust covariance H^{-1} (sum_i s_i s_i') H^{-1}, H the negative
    Hessian and s_i = g_i x_i the per-observation score rows."""
    if not fit.converged:
        raise ProbitError("sandwich covariance requires a converged fit")
    y, X, _ = _prepare(y, X, fit.labels)
    _, g, w = _terms(fit.coef, y, X)
    S = X * g[:, None]
    try:
        Hinv = np.linalg.inv(_information(X, w))
    except np.linalg.LinAlgError as exc:
        raise ProbitError("negative Hessian is singular") from exc
    v = Hinv @ (S.T @ S) @ Hinv
    return 0.5 * (v + v.T)

"""Probit maximum likelihood via Newton iterations with analytic derivatives.

The log-likelihood is globally concave, so Newton from a zero start with
step-halving converges for any full-rank design unless the data are
(quasi-)separated, in which case the coefficients diverge and a
SeparationError is raised instead of returning a garbage fit.
"""

from __future__ import annotations

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
    labels = list(labels) if labels is not None else [f"x{j}" for j in range(X.shape[1])]
    return y, X, labels


def loglik(coef, y, X):
    """Probit log-likelihood sum_i [y_i log Phi(x_i'c) + (1-y_i) log Phi(-x_i'c)]."""
    idx = X @ np.asarray(coef, dtype=float)
    signed = np.where(y == 1.0, idx, -idx)
    return float(np.sum(log_normal_cdf(signed)))


def score(coef, y, X):
    """Analytic gradient: sum_i g_i x_i with g_i = +-lambda(+-x_i'c)."""
    idx = X @ np.asarray(coef, dtype=float)
    g = np.where(y == 1.0, inverse_mills(idx), -inverse_mills(-idx))
    return X.T @ g


def hessian(coef, y, X):
    """Analytic Hessian -sum_i w_i x_i x_i', w_i = delta(+-x_i'c).

    Negative semidefinite everywhere because delta lies in (0, 1).
    """
    idx = X @ np.asarray(coef, dtype=float)
    w = np.where(y == 1.0, inverse_mills_delta(idx), inverse_mills_delta(-idx))
    return -(X * w[:, None]).T @ X


def score_obs(coef, y, X):
    """Per-observation score rows s_i = g_i x_i (for sandwich covariance)."""
    idx = X @ np.asarray(coef, dtype=float)
    g = np.where(y == 1.0, inverse_mills(idx), -inverse_mills(-idx))
    return X * g[:, None]


def fit(y, X, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER, labels=None) -> ProbitFit:
    """Fit a probit by Newton iteration from a zero start.

    Parameters
    ----------
    y : array of 0/1 responses containing both classes.
    X : full-column-rank design matrix (include the intercept yourself).
    tol : convergence threshold on the max-abs score entry.
    max_iter : Newton iteration cap; non-convergence is reported honestly
        through ``converged=False`` rather than raised.
    labels : optional column names used in error messages.

    Raises
    ------
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

    k = X.shape[1]
    coef = np.zeros(k)
    ll = loglik(coef, y, X)
    path = [ll]
    iterations = 0

    for iterations in range(1, max_iter + 1):
        g = score(coef, y, X)
        sn = np.max(np.abs(g))
        if sn < tol:
            iterations -= 1
            break
        H = hessian(coef, y, X)
        try:
            step = np.linalg.solve(-H, g)
        except np.linalg.LinAlgError as exc:
            raise ProbitError(f"singular Hessian at iteration {iterations}") from exc

        t = 1.0
        accepted = False
        for _ in range(MAX_STEP_HALVINGS):
            cand = coef + t * step
            ll_cand = loglik(cand, y, X)
            if np.isfinite(ll_cand):
                if ll_cand > ll:
                    accepted = True
                    break
                # Near the optimum the quadratic gain falls below float
                # resolution and the likelihood ties; accept the step if it
                # still contracts the score, keeping the path nondecreasing.
                if ll_cand == ll and np.max(np.abs(score(cand, y, X))) <= 0.9 * sn:
                    accepted = True
                    break
            t *= 0.5
        if not accepted:
            # Terminal refinement: the quadratic step may wiggle the
            # likelihood a ulp below its current value while landing the
            # score inside tolerance.  That is convergence, not descent.
            cand = coef + step
            ll_cand = loglik(cand, y, X)
            drop = ll - ll_cand
            if (
                np.isfinite(ll_cand)
                and drop <= 64.0 * np.finfo(float).eps * max(1.0, abs(ll))
                and np.max(np.abs(score(cand, y, X))) < tol
            ):
                accepted = True
        if not accepted:
            break
        coef, ll = cand, ll_cand
        path.append(ll)

        if np.max(np.abs(coef)) > SEPARATION_COEF_BOUND:
            if np.max(np.abs(score(coef, y, X))) > tol:
                raise SeparationError(
                    "coefficients diverging beyond +-50 with nonzero score; "
                    "the classes appear perfectly separated"
                )

    score_norm = float(np.max(np.abs(score(coef, y, X))))
    converged = score_norm < tol
    H = hessian(coef, y, X)
    try:
        vcov = np.linalg.inv(-H)
    except np.linalg.LinAlgError as exc:
        raise ProbitError("observed information is singular at the optimum") from exc
    vcov = 0.5 * (vcov + vcov.T)

    return ProbitFit(
        coef=coef,
        vcov=vcov,
        loglik=ll,
        iterations=iterations,
        converged=converged,
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
    """Robust covariance H^{-1} (sum_i s_i s_i') H^{-1}, H the negative Hessian."""
    if not fit.converged:
        raise ProbitError("sandwich covariance requires a converged fit")
    y, X, _ = _prepare(y, X, fit.labels)
    S = score_obs(fit.coef, y, X)
    H = -hessian(fit.coef, y, X)
    try:
        Hinv = np.linalg.inv(H)
    except np.linalg.LinAlgError as exc:
        raise ProbitError("negative Hessian is singular") from exc
    v = Hinv @ (S.T @ S) @ Hinv
    return 0.5 * (v + v.T)

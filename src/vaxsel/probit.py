"""Probit maximum likelihood via Newton iterations with analytic derivatives.

The log-likelihood is globally concave, so Newton from a zero start with
step-halving converges for any full-rank design unless the data are
(quasi-)separated, in which case the coefficients diverge: a coefficient
past +-50 while the score is above SCORE_TOL raises SeparationError, and
any other stop short of SCORE_TOL raises ProbitError.  A quasi-separated
design can instead reach a finite coefficient, where the maximum-likelihood
estimate does not exist; that fit is returned.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from vaxsel.stdnorm import normal_tail_terms

SCORE_TOL = 1e-8
MAX_ITER = 100
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


# What a fit that cannot be estimated raises; fit_many records these per sample.
ESTIMATION_ERRORS = (ProbitError, ValueError, np.linalg.LinAlgError)


@dataclass
class ProbitFit:
    """First-stage estimate: coefficients, covariance and diagnostics.

    vcov is the observed-information inverse at the optimum, where score_norm
    < SCORE_TOL; use sandwich_vcov for the robust variant.  iterations counts
    the accepted Newton steps, halvings the line-search candidates not accepted.
    """

    coef: np.ndarray
    vcov: np.ndarray
    loglik: float
    iterations: int
    score_norm: float
    n: int
    labels: list[str] = field(default_factory=list)
    loglik_path: list[float] = field(default_factory=list, repr=False)
    halvings: int = 0
    # score factors g_i = +-lambda(s_i) and Hessian weights w_i = delta(s_i) at
    # the signed index s_i = +-x_i'coef, read by sandwich_vcov and formed once
    # when the fit returns; on the y = 1 rows they are lambda and delta at the
    # index, the second stage's Mills column and covariance weights
    g: np.ndarray = field(default=None, repr=False)
    w: np.ndarray = field(default=None, repr=False)


def collinear_columns(X, labels):
    """Labels of the columns of X whose QR diagonal is below max(n, k) * eps *
    max|R_jj|; every label when X has fewer rows than columns.  For an
    (R, n, k) stack of designs, one such list per design from one stacked QR."""
    n, k = X.shape[-2:]
    if n < k:
        low = np.ones(X.shape[:-2] + (k,), dtype=bool)
    else:
        diag = np.abs(np.linalg.qr(X, mode="r").diagonal(0, -2, -1))
        low = diag <= max(n, k) * np.finfo(float).eps * diag.max(-1, keepdims=True, initial=0.0)
    found = [[labels[j] for j in np.flatnonzero(row)] for row in low.reshape(-1, k)]
    return found if X.ndim == 3 else found[0]


def design_labels(labels, k):
    """labels as a list of k column names (x0, x1, ... when None); ValueError
    when their count is not k."""
    labels = [f"x{j}" for j in range(k)] if labels is None else list(labels)
    if len(labels) != k:
        raise ValueError(f"{len(labels)} labels for {k} columns")
    return labels


def _prepare(y, X, labels=None):
    y = np.asarray(y, dtype=float).ravel()
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[0] != y.shape[0]:
        raise ValueError("y and X row counts differ")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise ValueError("y must be binary 0/1")
    if not np.all(np.isfinite(X)):
        raise ValueError("X contains NaN or infinite values")
    return y, X, design_labels(labels, X.shape[1])


_Point = namedtuple("_Point", "coef ll lam grad w score_norm info step")


def _signed(ones, X):
    """The sign-folded design: X with every y = 0 row negated (ones marks the
    y = 1 rows), so that its row i times c is the signed index s_i = +-x_i'c."""
    # a product by +-1 is exact, and needs no temporary copy of X
    return np.asarray(X, dtype=float) * np.where(ones, 1.0, -1.0)[..., None]


def _terms(coef, Xs):
    """One pass over the signed index s = Xs c of one sample's sign-folded
    design Xs (_signed), or of a stack along the leading axes of coef and Xs,
    as a _Point: log L = sum_i log Phi(s_i) (a float, or a list per sample),
    lambda(s_i), the score Xs'lambda, the Hessian weights w_i = delta(s_i),
    the max-abs score, the information (Xs w)'Xs (the negative Hessian) and
    the Newton step solving it for the score, from one stacked solve; the
    step is None if any system is singular.  Negation is exact and rounding
    is sign-symmetric, so each product and sum has the bits it would have
    on the unsigned design with the signs applied to s and lambda."""
    s = np.matmul(Xs, np.asarray(coef)[..., None])[..., 0]
    log_cdf, lam, w = normal_tail_terms(s)
    grad = np.matmul(lam[..., None, :], Xs)[..., 0, :]
    info = np.matmul((Xs * w[..., None]).swapaxes(-1, -2), Xs)
    try:
        step = np.linalg.solve(info, grad[..., None])[..., 0]
    except np.linalg.LinAlgError:
        step = None
    return _Point(coef, log_cdf.sum(axis=-1).tolist(), lam, grad, w, np.abs(grad).max(axis=-1),
                  info, step)


def loglik(coef, y, X):
    """Probit log-likelihood sum_i [y_i log Phi(x_i'c) + (1-y_i) log Phi(-x_i'c)]."""
    return _terms(coef, _signed(np.asarray(y) == 1.0, X)).ll


def score(coef, y, X):
    """Analytic gradient: sum_i g_i x_i with g_i = +-lambda(+-x_i'c)."""
    return _terms(coef, _signed(np.asarray(y) == 1.0, X)).grad


def hessian(coef, y, X):
    """Analytic Hessian -sum_i w_i x_i x_i', w_i = delta(+-x_i'c).

    Negative semidefinite everywhere because delta lies in (0, 1).
    """
    return -_terms(coef, _signed(np.asarray(y) == 1.0, X)).info


def _newton(y, X, labels, collinear):
    """fit's Newton loop on prepared y and X (with collinear_columns collinear)
    as a generator returning the ProbitFit: it yields each coefficient vector
    to be sent its _Point (_terms), and itself only accepts, halves and stops."""
    if collinear:
        raise RankDeficientError(collinear)
    if y.min() == y.max():
        raise ValueError("y contains a single class; probit is not estimable")

    point = yield np.zeros(X.shape[1])
    path = [point.ll]
    halvings = 0

    for iterations in range(MAX_ITER + 1):  # the accepted steps so far
        coef, ll, sn, step = point.coef, point.ll, point.score_norm, point.step
        if sn < SCORE_TOL:
            break
        if iterations == MAX_ITER:
            raise ProbitError(f"probit on {labels} did not converge: iteration cap {MAX_ITER} "
                              f"reached (score norm {sn:.2e})")
        if step is None:  # the stacked solve that evaluated it met a singular system
            try:
                step = np.linalg.solve(point.info, point.grad)
            except np.linalg.LinAlgError as exc:
                raise ProbitError(f"singular Hessian at iteration {iterations + 1}") from exc

        full = yield coef + step
        for halved in range(MAX_STEP_HALVINGS):
            cand = (yield coef + 0.5**halved * step) if halved else full
            # Near the optimum the quadratic gain falls below float
            # resolution and the likelihood ties; accept the step if it
            # still contracts the score, keeping the path nondecreasing.
            if np.isfinite(cand.ll) and (
                    cand.ll > ll or (cand.ll == ll and cand.score_norm <= 0.9 * sn)):
                break
        else:
            # Terminal refinement: the quadratic step may wiggle the
            # likelihood a ulp below its current value while landing the
            # score inside tolerance.  That is convergence, not descent.
            cand = full
            drop = ll - cand.ll
            if not (np.isfinite(cand.ll) and drop <= 64.0 * np.finfo(float).eps * max(1.0, abs(ll))
                    and cand.score_norm < SCORE_TOL):
                raise ProbitError(f"probit on {labels} did not converge: line search failed at "
                                  f"iteration {iterations + 1} (score norm {sn:.2e})")
        halvings += halved
        path.append(cand.ll)
        if abs(cand.coef).max() > SEPARATION_COEF_BOUND and cand.score_norm > SCORE_TOL:
            raise SeparationError(
                "coefficients diverging beyond +-50 with nonzero score; "
                "the classes appear perfectly separated"
            )
        point = cand

    try:
        vcov = np.linalg.inv(point.info)
    except np.linalg.LinAlgError as exc:
        raise ProbitError("observed information is singular at the optimum") from exc
    vcov = 0.5 * (vcov + vcov.T)

    return ProbitFit(coef=point.coef, vcov=vcov, loglik=point.ll, iterations=iterations,
                     score_norm=float(point.score_norm), n=int(y.shape[0]), labels=labels,
                     loglik_path=path, halvings=halvings,
                     g=np.where(y == 1.0, point.lam, -point.lam), w=point.w.copy())


def fit(y, X, labels=None) -> ProbitFit:
    """Fit a probit by Newton iteration from a zero start to a max-abs score below SCORE_TOL.

    Parameters
    ----------
    y : array of 0/1 responses containing both classes.
    X : finite full-column-rank design matrix (include the intercept yourself).
    labels : optional column names used in error messages.

    Raises
    ------
    ValueError : NaN or infinite entries in X, non-binary or single-class y.
    RankDeficientError : collinear design.
    SeparationError : coefficients past +-50 with the score above SCORE_TOL (separation).
    ProbitError : score still >= SCORE_TOL after MAX_ITER steps, or a failed line search.
    """
    y, X, labels = _prepare(y, X, labels)
    newton, Xs = _newton(y, X, labels, collinear_columns(X, labels)), _signed(y == 1.0, X)
    coef = next(newton)
    while True:
        try:
            coef = newton.send(_terms(coef, Xs))
        except StopIteration as done:
            return done.value


def fit_many(Y, X, labels=None) -> list:
    """fit for R samples at once, Y of shape (R, n) and X of shape (R, n, k):
    one stacked rank QR and one _newton generator per sample; each round makes
    one stacked _terms call, with its one stacked solve, on the pending
    coefficient vectors, so the generators do no linear algebra.
    Returns per sample its ProbitFit, bit-identical to fit's, or the
    estimation error its fit raised; malformed Y or X raises ValueError."""
    Y, X = np.asarray(Y, dtype=float), np.asarray(X, dtype=float)
    if Y.ndim != 2 or X.ndim != 3 or X.shape[:2] != Y.shape:
        raise ValueError(f"Y must be (R, n) and X (R, n, k); got {Y.shape} and {X.shape}")
    # binary y and finite X, checked over the whole batch
    labels = _prepare(Y.ravel(), X.reshape(-1, X.shape[-1]), labels)[2]
    newtons = [_newton(y, x, labels, c) for y, x, c in zip(Y, X, collinear_columns(X, labels))]
    results, pending, Xs = [None] * len(Y), {}, _signed(Y == 1.0, X)

    def advance(r, point):
        try:
            pending[r] = newtons[r].send(point)
        except StopIteration as done:
            results[r] = done.value
        except ESTIMATION_ERRORS as exc:
            results[r] = exc

    for r in range(len(Y)):
        advance(r, None)
    while pending:
        reps = sorted(pending)
        # gathering rows copies the block; while every sample is pending it is not needed;
        # each fit copies what it keeps of its rows, so no fit holds the round's block
        coefs = [pending.pop(r) for r in reps]
        p = _terms(np.array(coefs), Xs if len(reps) == len(Y) else Xs[reps])
        steps = [None] * len(reps) if p.step is None else p.step
        for r, *point in zip(reps, coefs, *p[1:-1], steps):
            advance(r, _Point(*point))
    return results


def sandwich_vcov(fit: ProbitFit, y, X) -> np.ndarray:
    """Robust covariance H^{-1} (sum_i s_i s_i') H^{-1}, H the negative
    Hessian and s_i = g_i x_i the per-observation score rows."""
    y, X, _ = _prepare(y, X, fit.labels)
    if X.shape[0] != fit.n:
        raise ValueError(f"fit has {fit.n} rows; y and X have {X.shape[0]}")
    S = X * fit.g[:, None]
    try:
        Hinv = np.linalg.inv((X * fit.w[:, None]).T @ X)
    except np.linalg.LinAlgError as exc:
        raise ProbitError("negative Hessian is singular") from exc
    v = Hinv @ (S.T @ S) @ Hinv
    return 0.5 * (v + v.T)

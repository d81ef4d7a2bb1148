"""Probit maximum likelihood via Newton iterations with analytic derivatives.

The log-likelihood is globally concave, so Newton from a zero start with
step-halving converges for any full-rank design unless the data are
(quasi-)separated, in which case the coefficients diverge: a coefficient
past +-50 while the score is above SCORE_TOL raises SeparationError, and
any other stop short of SCORE_TOL raises ProbitError.  A quasi-separated
design can instead reach a finite coefficient, where the maximum-likelihood
estimate does not exist; that fit is returned.  Each sample's fate is decided
in _fit_stack: rank and class before any Newton loop, the optimum's covariance
after it; _newton is the line search alone.
"""

from __future__ import annotations

import math
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
    The fit's row count is len(g).
    """

    coef: np.ndarray
    vcov: np.ndarray
    loglik: float
    iterations: int
    score_norm: float
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
        # the raw factor's diagonal is R's: mode "r" would only copy R out of it
        diag = np.abs(np.linalg.qr(X, mode="raw")[0].diagonal(0, -2, -1))
        low = diag <= max(n, k) * np.finfo(float).eps * diag.max(-1, keepdims=True, initial=0.0)
    found = [[label for label, c in zip(labels, row) if c] for row in low.reshape(-1, k).tolist()]
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


def stackwise(call, *stacks):
    """call(*stacks) for a linear-algebra call on stacks along their leading axis; when
    numpy raises LinAlgError, a list holding per sample the [0] of call on its stacks of
    one (a[i:i+1]), or the LinAlgError that call raised."""
    try:
        return call(*stacks)
    except np.linalg.LinAlgError:
        results = []
        for i in range(len(stacks[0])):
            try:
                results.append(call(*(a[i:i + 1] for a in stacks))[0])
            except np.linalg.LinAlgError as exc:
                results.append(exc)
        return results


def _signed(ones, X):
    """The sign-folded design: X with every y = 0 row negated (ones marks the
    y = 1 rows), so that its row i times c is the signed index s_i = +-x_i'c;
    ones (1, n) makes a stack of one of X (n, k)."""
    # a product by +-1 is exact, and needs no temporary copy of X
    return np.asarray(X, dtype=float) * np.where(ones, 1.0, -1.0)[..., None]


def _terms(coef, Xs):
    """One pass over the signed index s = Xs c of R sign-folded designs Xs (R, n, k)
    (_signed) at coef (R, k), as a _Point: lists of log L = sum_i log Phi(s_i) and of
    the max-abs score; stacks of lambda(s_i), the score Xs'lambda, the Hessian weights
    w_i = delta(s_i), the information (Xs w)'Xs (the negative Hessian) and the Newton
    step solving it for the score, through stackwise.  Negation is exact and rounding
    is sign-symmetric, so each product and sum has the bits it would have on the
    unsigned design with the signs applied to s and lambda."""
    s = np.matmul(Xs, np.asarray(coef)[..., None])[..., 0]
    log_cdf, lam, w = normal_tail_terms(s)
    grad = np.matmul(lam[..., None, :], Xs)[..., 0, :]
    info = np.matmul((Xs * w[..., None]).swapaxes(-1, -2), Xs)
    step = stackwise(lambda a, b: np.linalg.solve(a, b[..., None])[..., 0], info, grad)
    return _Point(coef, log_cdf.sum(axis=-1).tolist(), lam, grad, w,
                  np.abs(grad).max(axis=-1).tolist(), info, step)


def loglik(coef, y, X):
    """Probit log-likelihood sum_i [y_i log Phi(x_i'c) + (1-y_i) log Phi(-x_i'c)]."""
    return _terms(np.atleast_2d(coef), _signed(np.asarray(y)[None] == 1.0, X)).ll[0]


def score(coef, y, X):
    """Analytic gradient: sum_i g_i x_i with g_i = +-lambda(+-x_i'c)."""
    return _terms(np.atleast_2d(coef), _signed(np.asarray(y)[None] == 1.0, X)).grad[0]


def hessian(coef, y, X):
    """Analytic Hessian -sum_i w_i x_i x_i', w_i = delta(+-x_i'c).

    Negative semidefinite everywhere because delta lies in (0, 1).
    """
    return -_terms(np.atleast_2d(coef), _signed(np.asarray(y)[None] == 1.0, X)).info[0]


def _newton(k, labels):
    """One fittable sample's line search from a zero start (_fit_stack decides which are), as a
    generator: it yields each coefficient vector to be sent its _Point from _fit_stack's round,
    and accepts (a finite log L only), halves, refines and stops, on Python floats.  It returns
    the optimum's _Point, iterations, log L path and halvings, which _fit_stack finishes."""
    point = yield np.zeros(k)
    path = [point.ll]
    halvings = 0

    for iterations in range(MAX_ITER + 1):  # the accepted steps so far
        coef, ll, sn, step = point.coef, point.ll, point.score_norm, point.step
        if sn < SCORE_TOL:
            break
        if iterations == MAX_ITER:
            raise ProbitError(f"probit on {labels} did not converge: iteration cap {MAX_ITER} "
                              f"reached (score norm {sn:.2e})")
        if isinstance(step, np.linalg.LinAlgError):
            raise ProbitError(f"singular Hessian at iteration {iterations + 1}") from step

        full = yield coef + step
        for halved in range(MAX_STEP_HALVINGS):
            cand = (yield coef + 0.5**halved * step) if halved else full
            # Near the optimum the quadratic gain falls below float
            # resolution and the likelihood ties; accept the step if it
            # still contracts the score, keeping the path nondecreasing.
            if math.isfinite(cand.ll) and (
                    cand.ll > ll or (cand.ll == ll and cand.score_norm <= 0.9 * sn)):
                break
        else:
            # Terminal refinement: the quadratic step may wiggle the
            # likelihood a ulp below its current value while landing the
            # score inside tolerance.  That is convergence, not descent.
            cand = full
            drop = ll - cand.ll
            if not (math.isfinite(cand.ll) and drop <= 64.0 * math.ulp(1.0) * max(1.0, abs(ll))
                    and cand.score_norm < SCORE_TOL):
                raise ProbitError(f"probit on {labels} did not converge: line search failed at "
                                  f"iteration {iterations + 1} (score norm {sn:.2e})")
        halvings += halved
        path.append(cand.ll)
        if (max(map(abs, cand.coef.tolist())) > SEPARATION_COEF_BOUND
                and cand.score_norm > SCORE_TOL):
            raise SeparationError("coefficients diverging beyond +-50 with nonzero score; "
                                  "the classes appear perfectly separated")
        point = cand
    return point, iterations, path, halvings


def fit(y, X, labels=None) -> ProbitFit:
    """Fit a probit by Newton iteration from a zero start to a max-abs score below SCORE_TOL:
    y and X are checked here, then fitted as a stack of one by _fit_stack, fit_many's driver.

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
    ProbitError : score >= SCORE_TOL after MAX_ITER steps, a failed line search, a singular
        Hessian on the way, or an observed information singular at the optimum.
    """
    y, X, labels = _prepare(y, X, labels)
    result = _fit_stack(y[None], X[None], labels)[0]
    if isinstance(result, Exception):
        raise result
    return result


def fit_many(Y, X, labels=None) -> list:
    """Fit R probits at once, Y of shape (R, n) and X of shape (R, n, k), as fit does one.
    Returns per sample its ProbitFit or the estimation error its fit raised; malformed Y
    or X raises ValueError."""
    Y, X = np.asarray(Y, dtype=float), np.asarray(X, dtype=float)
    if Y.ndim != 2 or X.ndim != 3 or X.shape[:2] != Y.shape:
        raise ValueError(f"Y must be (R, n) and X (R, n, k); got {Y.shape} and {X.shape}")
    # binary y and finite X, checked over the whole batch
    return _fit_stack(Y, X, _prepare(Y.ravel(), X.reshape(-1, X.shape[-1]), labels)[2])


def _fit_stack(Y, X, labels):
    """The Newton driver of fit and fit_many, on checked stacks Y (R, n) and X (R, n, k), and
    the one place a sample's fate is decided.  Before any Newton loop starts, one stacked rank
    QR and one class test record RankDeficientError or the single-class ValueError, and only
    the other samples get a _newton generator; each round makes one stacked _terms call on the
    pending coefficient vectors, so the generators do no linear algebra.  The samples that
    converge are finished here, from one stacked, symmetrised inv through stackwise (g =
    +-lambda), or get a ProbitError where their observed information is singular."""
    results = [RankDeficientError(c) if c else
               ValueError("y contains a single class; probit is not estimable") if s else None
               for c, s in zip(collinear_columns(X, labels), (Y.min(1) == Y.max(1)).tolist())]
    newtons = {r: _newton(X.shape[2], labels) for r, res in enumerate(results) if res is None}
    pending, Xs = [], _signed(Y == 1.0, X)

    def advance(r, point):
        try:
            pending.append((r, newtons[r].send(point)))
        except StopIteration as done:
            results[r] = done.value
        except ProbitError as exc:  # all _newton raises; anything else is a bug
            results[r] = exc

    for r in newtons:
        advance(r, None)
    while pending:  # (sample, coefficients) in sample order
        reps, coefs = zip(*pending)
        pending.clear()
        # gathering rows copies the block; while every sample is pending it is not needed
        p = _terms(np.array(coefs), Xs if len(reps) == len(Y) else Xs[list(reps)])
        for r, point in zip(reps, zip(coefs, *p[1:])):
            advance(r, _Point._make(point))
    done = [r for r, result in enumerate(results) if isinstance(result, tuple)]
    if not done:
        return results
    # one stacked operation unless a sample is singular; these copy what the fits keep
    V = stackwise(lambda a: 0.5 * ((v := np.linalg.inv(a)) + v.swapaxes(-1, -2)),
                  np.array([results[r][0].info for r in done]))
    lam, W = np.array([results[r][0].lam for r in done]), np.array([results[r][0].w for r in done])
    for r, v, g, w in zip(done, V, np.where(Y[done] == 1.0, lam, -lam), W):
        p, iterations, path, halvings = results[r]
        if isinstance(v, np.linalg.LinAlgError):
            results[r] = ProbitError("observed information is singular at the optimum")
            results[r].__cause__ = v
        else:
            results[r] = ProbitFit(coef=p.coef, vcov=v, loglik=p.ll, iterations=iterations,
                                   score_norm=p.score_norm, labels=labels, loglik_path=path,
                                   halvings=halvings, g=g, w=w)
    return results


def sandwich_vcov(fit: ProbitFit, y, X) -> np.ndarray:
    """Robust covariance H^{-1} (sum_i s_i s_i') H^{-1}, H the negative
    Hessian and s_i = g_i x_i the per-observation score rows."""
    y, X, _ = _prepare(y, X, fit.labels)
    if X.shape[0] != len(fit.g):
        raise ValueError(f"fit has {len(fit.g)} rows; y and X have {X.shape[0]}")
    S = X * fit.g[:, None]
    try:
        Hinv = np.linalg.inv((X * fit.w[:, None]).T @ X)
    except np.linalg.LinAlgError as exc:
        raise ProbitError("negative Hessian is singular") from exc
    v = Hinv @ (S.T @ S) @ Hinv
    return 0.5 * (v + v.T)

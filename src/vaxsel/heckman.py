"""Two-step selection estimator.

Step one fits a probit for the selection indicator on the full frame.
Step two regresses the observed outcome on its covariates augmented with
the inverse Mills ratio evaluated at the first-stage fitted index of the
selected rows.  The conditioning object for the correction term is that
estimated selection index; this is the only reading under which the
correction removes the truncation bias, and it is the convention used
throughout this module.

A fit is a function of its frame alone.  It carries two covariance
variants for the second stage:

``plain_robust``
    HC1 sandwich treating the Mills column as a fixed regressor, with the
    usual n/(n-k) degrees-of-freedom factor.

``heckman_corrected``
    The classic two-step covariance: the delta-weighted second-stage
    error structure plus the propagation term for the estimated
    first-stage coefficients.  It collapses to the unadjusted covariance
    sigma^2 (W'W)^{-1} when the Mills coefficient is zero.

Both are functions of the same first stage and point estimates, so one fit
serves both: fit_two_step computes both variants and stores them on the fit.

The second stage works on stacks only, each sample's selected rows packed to
the front of zero rows: second_stages solves each sample on its own rows and
returns each failure as an exception object, and outcome_vcovs computes the
covariances of the stack at once.  fit_two_step passes a stack of one.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from vaxsel import probit

PLAIN_ROBUST = "plain_robust"
HECKMAN_CORRECTED = "heckman_corrected"
VCOV_VARIANTS = (PLAIN_ROBUST, HECKMAN_CORRECTED)

IMR_LABEL = "imr_lambda"
# Above this condition number the Mills column is indistinguishable from a
# linear combination of the outcome covariates.
CONDITION_LIMIT = 1e10

# two-sided normal critical values for 1%, 5% and 10%
Z_95 = 1.959964
STAR_THRESHOLDS = ((2.575829, "***"), (Z_95, "**"), (1.644854, "*"))


class CollinearMillsError(Exception):
    """Raised when the Mills column adds no identifying variation."""


def check_vcov_variant(variant: str) -> None:
    """ValueError naming variant when it is not one of VCOV_VARIANTS."""
    if variant not in VCOV_VARIANTS:
        raise ValueError(f"unknown vcov variant {variant!r}; choose from {VCOV_VARIANTS}")


# What an estimator that cannot fit its frame raises; anything else is a bug.
# A bad specification or frame raises panel.PanelError, which callers catch beside these.
ESTIMATION_ERRORS = (*probit.ESTIMATION_ERRORS, CollinearMillsError)


@dataclass
class HeckmanFit:
    """Full two-step result.

    outcome_coef covers the outcome design columns plus, as its last
    entry, the Mills-ratio coefficient (an estimate of rho * sigma_u).  In
    the degenerate all-selected case first_stage is None, the Mills column is
    skipped and outcome_coef has no extra entry.  vcov maps each variant to its
    (outcome, selection) covariances; a degenerate fit has its robust outcome
    one and None under both.  The selected rows number len(residuals).
    """

    first_stage: probit.ProbitFit
    outcome_coef: np.ndarray
    outcome_labels: list[str]
    n_total: int
    residuals: np.ndarray
    sigma2: float
    rho: float
    vcov: dict


def ols(y, X, labels=None):
    """Least squares through lstsq's SVD, whose rank is the rank test.

    Returns (coef, resid).  Raises ValueError on non-finite data or fewer than
    k + 1 rows, then probit.RankDeficientError when lstsq's rank is below k
    (with rcond=None it counts the singular values above max(n, k) * eps *
    s_max), naming the columns collinear_columns finds (all if it finds none).
    """
    y = np.asarray(y, dtype=float).ravel()
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if not (np.isfinite(y).all() and np.isfinite(X).all()):
        raise ValueError("outcome y or X contains NaN or infinite values")
    if y.shape[0] != X.shape[0]:
        raise ValueError("y and X row counts differ")
    labels = probit.design_labels(labels, X.shape[1])
    n, k = X.shape
    if n < k + 1:
        raise ValueError(f"need at least {k + 1} rows to fit {k} coefficients")
    coef, _, rank, _ = np.linalg.lstsq(X, y, rcond=None)
    if rank < k:
        raise probit.RankDeficientError(probit.collinear_columns(X, labels) or labels)
    return coef, y - X @ coef


def significance_stars(coef: float, se: float) -> str:
    """Two-sided normal stars: '***' 1%, '**' 5%, '*' 10%, '' otherwise."""
    if not se > 0.0:
        raise ValueError("standard error must be strictly positive")
    t = abs(coef / se)
    for threshold, mark in STAR_THRESHOLDS:
        if t > threshold:
            return mark
    return ""


def plain_robust_vcov(W, e, n):
    """HC1 sandwich, Mills column held fixed, of one design W (n, k) with residuals
    e, or of a stack (R, m, k) whose sample r has zero rows past its n[r]."""
    wtw_inv = np.linalg.inv(W.swapaxes(-1, -2) @ W)
    meat = (W * (e**2)[..., None]).swapaxes(-1, -2) @ W
    v = wtw_inv @ meat @ wtw_inv * np.asarray(n / (n - W.shape[-1]))[..., None, None]
    return 0.5 * (v + v.swapaxes(-1, -2))


def heckman_corrected_vcov(W, delta, Z, V1, rho2, sigma2):
    """Two-step covariance with the generated-regressor adjustment, for one sample
    or a stack padded as plain_robust_vcov's.

    sigma^2 (W'W)^{-1} [ W'(I - rho^2 D) W + Q ] (W'W)^{-1}, with
    Q = rho^2 (W'D Z) V1 (Z'D W) the first-stage estimation error carried
    through the Mills column by the first stage's covariance V1.  On the
    selected rows the outcome keeps, Z is the selection design and D the
    diagonal of delta at the first-stage index (the first stage's w there).
    """
    rho2 = np.asarray(rho2)[..., None]
    wtw_inv = np.linalg.inv(W.swapaxes(-1, -2) @ W)
    WdZ = (W * delta[..., None]).swapaxes(-1, -2) @ Z
    Q = rho2[..., None] * WdZ @ V1 @ WdZ.swapaxes(-1, -2)
    core = (W * (1.0 - rho2 * delta)[..., None]).swapaxes(-1, -2) @ W + Q
    v = np.asarray(sigma2)[..., None, None] * wtw_inv @ core @ wtw_inv
    return 0.5 * (v + v.swapaxes(-1, -2))


SecondStages = namedtuple("SecondStages",
                          "design coef residuals rows delta sigma2 rho first_stages errors")


def second_stages(y, X, mills, delta, rows, labels, first_stages) -> SecondStages:
    """The second stages of a stack of R samples.

    y (R, m), X (R, m, kx) named by labels, and the first stages' lambda and delta
    (R, m) hold sample r's rows[r] selected rows first and zero rows after them;
    first_stages holds per sample its ProbitFit, or the error fit_many recorded.
    Each sample takes one lstsq on its own rows of W (X and the Mills column) and
    sums sigma^2 over them.  errors holds per sample None or, in the order checked,
    the first stage's error, a ValueError on NaN or +-inf outcome data or fewer
    than k + 1 rows, or the condition check's RankDeficientError or
    CollinearMillsError (see fit_two_step).
    """
    W = np.concatenate([X, mills[..., None]], axis=-1)
    labels, k = [*labels, IMR_LABEL], W.shape[-1]
    coef, resid, sigma2 = np.zeros(W.shape[::2]), np.zeros(y.shape), np.zeros(len(W))
    finite = np.isfinite(y).all(-1) & np.isfinite(X).all((-2, -1))

    def solve(r, first, n):  # None once sample r's coef, resid and sigma2 are set, else its error
        if isinstance(first, Exception):
            return first
        if not finite[r]:
            return ValueError("outcome y or X contains NaN or infinite values")
        if n < k + 1:
            return ValueError(f"need at least {k + 1} rows to fit {k} coefficients")
        Wr, yr = W[r, :n], y[r, :n]
        try:
            coef[r], _, _, s = np.linalg.lstsq(Wr, yr, rcond=None)
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                cond = s[0] / s[-1]
            if not cond <= CONDITION_LIMIT:
                collinear = probit.collinear_columns(Wr, labels)
                if set(collinear) - {IMR_LABEL}:
                    raise probit.RankDeficientError(collinear)
                raise CollinearMillsError(
                    f"Mills column is collinear with the outcome design (condition {cond:.2e}); "
                    "add an exclusion restriction to the selection equation"
                )
        except (np.linalg.LinAlgError, probit.ProbitError, CollinearMillsError) as exc:
            return exc
        e = resid[r, :n] = yr - Wr @ coef[r]
        sigma2[r] = e @ e / n + float(coef[r, -1])**2 * delta[r, :n].sum() / n
        return None

    errors = [solve(r, first, n) for r, (first, n) in enumerate(zip(first_stages, rows))]
    rho = np.divide(coef[:, -1], np.sqrt(sigma2), out=np.zeros(len(W)), where=sigma2 > 0)
    return SecondStages(W, coef, resid, np.asarray(rows), delta, sigma2,
                        np.clip(rho, -1.0, 1.0), first_stages, errors)


def outcome_vcovs(stages: SecondStages, variant: str, Z=None):
    """The (R, k, k) outcome covariances of the stack stages under variant (zero where a
    sample failed) and per sample None or its error, from one call through
    probit.stackwise, so a singular W'W's LinAlgError fails only its own sample.  Z is
    the selection designs packed like the outcome rows, read by heckman_corrected."""
    check_vcov_variant(variant)
    errors = list(stages.errors)
    ok = [r for r, err in enumerate(errors) if err is None]
    V = np.zeros(stages.design.shape[:1] + 2 * stages.design.shape[2:])
    if not ok:
        return V, errors
    if variant == PLAIN_ROBUST:
        vcov, args = plain_robust_vcov, (stages.design[ok], stages.residuals[ok], stages.rows[ok])
    else:
        rho2 = np.array([float(stages.rho[r]) ** 2 for r in ok])  # Python's float power
        V1 = np.array([stages.first_stages[r].vcov for r in ok])
        vcov, args = heckman_corrected_vcov, (stages.design[ok], stages.delta[ok], Z[ok], V1, rho2,
                                              stages.sigma2[ok])
    for r, v in zip(ok, probit.stackwise(vcov, *args)):
        if isinstance(v, np.linalg.LinAlgError):
            errors[r] = v
        else:
            V[r] = v
    return V, errors


def fit_two_step(frame) -> HeckmanFit:
    """Estimate the two-step selection model on a model frame.

    Parameters
    ----------
    frame : ModelFrame with selection_y/selection_X over all usable rows
        and outcome_y/outcome_X over the selected subset.

    The first stage's g and w on the selected rows are lambda and delta.  Both
    covariance variants are computed here, the outcome half by outcome_vcovs on
    a stack of one, and stored as HeckmanFit.vcov.

    Raises
    ------
    probit errors from the first stage, the selection design's rank among
    them; ValueError when outcome_y or outcome_X holds NaN or +-inf or when
    W (outcome_X and the Mills column) has fewer than k + 1 rows.  W is
    decomposed once, by the SVD in lstsq.  Above condition number 1e10 its
    collinear columns are named by probit.collinear_columns: RankDeficientError
    when any is an outcome column, else CollinearMillsError, which usually
    means the selection equation needs an exclusion restriction.  A covariance
    that fails raises its error, a singular W'W's LinAlgError among them.  With
    every row selected the outcome design goes through ols and its checks.
    """
    sel_y = np.asarray(frame.selection_y, dtype=float).ravel()
    out_y, out_X = (np.asarray(a, dtype=float) for a in (frame.outcome_y, frame.outcome_X))
    n_selected = out_y.shape[0]
    keep = np.asarray(frame.outcome_keep, dtype=bool)
    labels_w = probit.design_labels(frame.outcome_labels, out_X.shape[1])
    selected = sel_y == 1.0

    if selected.all():
        # Phi of the index is ~1 for every row, so the Mills column is a
        # near-zero constant collinear with the intercept; fall back to
        # plain least squares and say so.
        first = None
        coef, resid = ols(out_y, out_X, labels_w)
        sigma2, rho = float(resid @ resid / n_selected), 0.0
        vcov = dict.fromkeys(VCOV_VARIANTS, (plain_robust_vcov(out_X, resid, n_selected), None))
    else:
        first = probit.fit(sel_y, frame.selection_X, frame.selection_labels)
        mills, delta = first.g[selected][keep], first.w[selected][keep]
        if mills.shape[0] != n_selected:
            raise ValueError("outcome rows do not line up with the selected selection rows")
        stage = second_stages(out_y[None], out_X[None], mills[None], delta[None], [n_selected],
                              labels_w, [first])
        Z = np.asarray(frame.selection_X, dtype=float)[selected][keep]
        vcov = {}
        for variant in VCOV_VARIANTS:  # the stage's own error first, as outcome_vcovs keeps it
            V, (error,) = outcome_vcovs(stage, variant, Z[None])
            if error is not None:
                raise error
            vcov[variant] = (V[0], first.vcov if variant == HECKMAN_CORRECTED
                             else probit.sandwich_vcov(first, sel_y, frame.selection_X))
        coef, resid = stage.coef[0], stage.residuals[0]
        labels_w.append(IMR_LABEL)
        sigma2, rho = float(stage.sigma2[0]), float(stage.rho[0])

    return HeckmanFit(
        first_stage=first, outcome_coef=coef, outcome_labels=labels_w,
        n_total=sel_y.shape[0], residuals=resid, sigma2=sigma2, rho=rho, vcov=vcov,
    )

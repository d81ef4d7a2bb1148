"""The probit pass on the unsigned design, kept as an oracle for vaxsel.probit._terms.

It forms the index x_i'c on X itself, then signs the index and lambda per
row with np.where (+ on the y_i = 1 rows), as the probit did before it
folded the signs into its design.  _terms on the sign-folded design must
give the same bits: negation is exact and round-to-nearest is
sign-symmetric, so each product and sum meets the same magnitudes in the
same order.
"""

import numpy as np

from vaxsel.stdnorm import normal_tail_terms


def terms(coef, ones, X):
    """(log L, g, score, w, information, Newton step) at coef for one sample,
    or for a stack along the leading axes of coef, ones and X; log L is a
    float or a list per sample, g_i = +-lambda(+-x_i'c) and the step is None
    when the stacked solve meets a singular system."""
    idx = np.matmul(X, np.asarray(coef)[..., None])[..., 0]
    log_cdf, lam, w = normal_tail_terms(np.where(ones, idx, -idx))
    g = np.where(ones, lam, -lam)
    grad = np.matmul(g[..., None, :], X)[..., 0, :]
    info = np.matmul((X * w[..., None]).swapaxes(-1, -2), X)
    try:
        step = np.linalg.solve(info, grad[..., None])[..., 0]
    except np.linalg.LinAlgError:
        step = None
    return log_cdf.sum(axis=-1).tolist(), g, grad, w, info, step

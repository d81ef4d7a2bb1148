"""Standard-normal special functions with stable deep-tail behaviour.

The selection correction and the probit likelihood need phi, Phi, log Phi
and the ratio phi/Phi far into the left tail, where composing the naive
pieces underflows long before the quantities themselves become
unrepresentable.  Every function accepts scalars or arrays, is pure, passes
NaN through, gives the limit at +-inf and switches to a Mills-ratio series
once the complementary error function leaves normal-range doubles (z < -37).

Conventions used throughout:

    normal_cdf(z)          Phi(z) = erfc(-z / sqrt(2)) / 2
    inverse_mills(z)       lambda(z) = phi(z) / Phi(z)
    inverse_mills_delta(z) delta(z)  = lambda(z) * (lambda(z) + z)

delta is the negative derivative of lambda and lives strictly inside
(0, 1); it supplies the probit Hessian weights and the weight matrix of
the corrected two-step covariance.  normal_tail_terms computes log Phi,
lambda and delta together, each element by its own regime's formulas;
log_normal_cdf, inverse_mills and inverse_mills_delta are views of its results.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erfc

_SQRT2 = math.sqrt(2.0)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# Below this point erfc(-z/sqrt(2)) leaves the normal double range and the
# asymptotic series takes over.
_TAIL_Z = -37.0
_TINY = np.nextafter(0.0, 1.0)  # delta's clamp at the right

# Coefficients of the Mills-ratio series in u = 1/z**2:
#   Phi(z) = phi(z)/(-z) * M(u),  M(u) = 1 - u + 3u^2 - 15u^3 + ...
#   z^2 * (1 - M(u))             = T(u) = 1 - 3u + 15u^2 - 105u^3 + ...
# Eight terms keep the truncation error below 1e-16 for z <= -37.
_MILLS_M = (1.0, -1.0, 3.0, -15.0, 105.0, -945.0, 10395.0, -135135.0)
_MILLS_T = (1.0, -3.0, 15.0, -105.0, 945.0, -10395.0, 135135.0, -2027025.0)


def _horner(coeffs, u):
    acc = np.full_like(u, coeffs[-1])
    for c in reversed(coeffs[:-1]):
        acc = acc * u + c
    return acc


def _wrap(z):
    arr = np.asarray(z, dtype=np.float64)
    return arr, arr.ndim == 0


def _unwrap(out, scalar):
    return float(out) if scalar else out


def normal_pdf(z):
    """Standard normal density phi(z)."""
    arr, scalar = _wrap(z)
    # z*z overflows to inf beyond |z| ~ 1.3e154; exp(-inf) = 0 is the answer.
    with np.errstate(over="ignore"):
        return _unwrap(_INV_SQRT_2PI * np.exp(-0.5 * arr * arr), scalar)


def normal_cdf(z):
    """Standard normal distribution function Phi(z).

    Evaluated through the complementary error function so both tails keep
    full relative precision instead of rounding to 0 or 1 near |z| = 8.
    """
    arr, scalar = _wrap(z)
    return _unwrap(0.5 * erfc(-arr / _SQRT2), scalar)


def normal_tail_terms(z):
    """(log Phi(z), lambda(z), delta(z)) from three regimes.

    - z < -37: the Mills-ratio series gives all three.  log Phi stays
      finite until -z^2/2 itself overflows (|z| > 1.3e154), where -inf is
      the nearest representable answer.  lambda comes straight from the
      series, which never rounds lambda(z) + z down to zero, and
      z^2 (1 - M) has its own series, so delta suffers no cancellation.
    - -37 <= z < 0, and NaN: log Phi is the log of the erfc form, lambda
      is exp(log phi - log Phi), so the ratio survives where either factor
      alone would underflow, and delta = lambda (lambda + z).
    - z >= 0: log Phi is log1p against the upper tail; lambda and delta
      are formed in log space.

    The last two regimes share one erfc(|z|/sqrt(2)) and lambda's formula.
    The z >= 0 formulas run on the whole flattened block; the z < 0 and NaN
    elements, gathered once, then get their own log Phi and delta, and the
    rare z < -37 elements are overwritten from the series.

    lambda is strictly positive and strictly decreasing, with
    lambda(z) ~ -z + (-1/z) in the far left tail and lambda(z) ~ phi(z) in
    the right tail.  delta lies strictly in (0, 1) for every finite z,
    tending to 1 as z -> -inf and to 0 as z -> +inf; where the true value
    falls outside the open unit interval representable in float64 (|z|
    beyond roughly 1e8 on the left, 38.6 on the right) it is clamped to the
    nearest interior double rather than returning an exact 0 or 1.
    """
    arr, scalar = _wrap(z)
    flat = arr.reshape(-1)
    # What the other regime's formulas give an element (overflow, log(0)) is overwritten.
    # A kept value warns only for z >= 0, where z*z overflows beyond |z| ~ 1.3e154 and
    # z = +inf gives -inf + inf; lambda = 0 and the clamp are the intended answers there.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # erfc(|z|/sqrt2) is erfc(-z/sqrt2) for z < 0 and erfc(z/sqrt2) for
        # z >= 0.  No where=: scipy 1.17.1's erfc then corrupts later elements.
        e = erfc(np.abs(flat) / _SQRT2)
        neg = np.flatnonzero(~(flat >= 0.0))
        log_cdf = np.log1p(-0.5 * e)
        log_cdf[neg] = np.log(0.5 * e[neg])
        loglam = -0.5 * flat * flat - _LOG_SQRT_2PI - log_cdf
        lam = np.exp(loglam)
        # an exp is never negative: fmax lifts 0 and NaN to the clamp
        delta = np.fmax(np.exp(loglam + np.log(flat + lam)), _TINY)
        lam_neg = lam[neg]
        delta[neg] = lam_neg * (lam_neg + flat[neg])
    tail = flat < _TAIL_Z
    if tail.any():
        zt = flat[tail]
        with np.errstate(over="ignore"):
            u = 1.0 / (zt * zt)
            m_minus_1 = u * _horner(_MILLS_M[1:], u)
            log_cdf[tail] = (-0.5 * zt * zt - _LOG_SQRT_2PI) - np.log(-zt) + np.log1p(m_minus_1)
        m = m_minus_1 + 1.0
        lam[tail] = -zt / m
        vals = _horner(_MILLS_T, u) / (m * m)
        delta[tail] = np.where(vals < 1.0, vals, np.nextafter(1.0, 0.0))
    return tuple(_unwrap(out.reshape(arr.shape), scalar) for out in (log_cdf, lam, delta))


def log_normal_cdf(z):
    """log Phi(z), accurate over the whole double range (see normal_tail_terms)."""
    return normal_tail_terms(z)[0]


def inverse_mills(z):
    """Inverse Mills ratio lambda(z) = phi(z)/Phi(z) (see normal_tail_terms)."""
    return normal_tail_terms(z)[1]


def inverse_mills_delta(z):
    """delta(z) = lambda(z) * (lambda(z) + z), strictly inside (0, 1) (see normal_tail_terms)."""
    return normal_tail_terms(z)[2]

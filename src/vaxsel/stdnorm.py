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
the corrected two-step covariance.
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
    return _unwrap(_INV_SQRT_2PI * np.exp(-0.5 * arr * arr), scalar)


def normal_cdf(z):
    """Standard normal distribution function Phi(z).

    Evaluated through the complementary error function so both tails keep
    full relative precision instead of rounding to 0 or 1 near |z| = 8.
    """
    arr, scalar = _wrap(z)
    return _unwrap(0.5 * erfc(-arr / _SQRT2), scalar)


def log_normal_cdf(z):
    """log Phi(z), accurate over the whole double range.

    Three regimes: log1p against the upper tail for z > 0, a direct log of
    the erfc form down to z = -37, and the Mills-ratio series beyond that.
    The series keeps the result finite until -z^2/2 itself overflows
    (|z| > 1.3e154), at which point -inf is the nearest representable
    answer.
    """
    arr, scalar = _wrap(z)
    out = np.empty_like(arr)

    pos = arr > 0.0
    tail = arr < _TAIL_Z
    mid = ~(pos | tail)  # also carries NaN through

    if np.any(pos):
        zp = arr[pos]
        out[pos] = np.log1p(-0.5 * erfc(zp / _SQRT2))
    if np.any(mid):
        zm = arr[mid]
        out[mid] = np.log(0.5 * erfc(-zm / _SQRT2))
    if np.any(tail):
        zt = arr[tail]
        with np.errstate(over="ignore"):
            u = 1.0 / (zt * zt)
            m_minus_1 = u * _horner(_MILLS_M[1:], u)
            out[tail] = (-0.5 * zt * zt - _LOG_SQRT_2PI) - np.log(-zt) + np.log1p(m_minus_1)
    return _unwrap(out, scalar)


def inverse_mills(z):
    """Inverse Mills ratio lambda(z) = phi(z)/Phi(z).

    Computed as exp(log phi - log Phi) so the ratio survives where either
    factor alone would underflow; past z = -37 it is taken straight from
    the Mills-ratio series, which never rounds lambda(z) + z down to zero.
    Strictly positive and strictly decreasing, with lambda(z) ~ -z + (-1/z)
    in the far left tail and lambda(z) ~ phi(z) in the right tail.
    """
    arr, scalar = _wrap(z)
    out = np.empty_like(arr)

    tail = arr < _TAIL_Z
    rest = ~tail

    if np.any(tail):
        zt = arr[tail]
        with np.errstate(over="ignore"):
            u = 1.0 / (zt * zt)
        out[tail] = -zt / _horner(_MILLS_M, u)
    if np.any(rest):
        zr = arr[rest]
        out[rest] = np.exp(-0.5 * zr * zr - _LOG_SQRT_2PI - log_normal_cdf(zr))
    return _unwrap(out, scalar)


def inverse_mills_delta(z):
    """delta(z) = lambda(z) * (lambda(z) + z), the negative slope of lambda.

    Lies strictly in (0, 1) for every finite z; tends to 1 as z -> -inf and
    to 0 as z -> +inf.  Where the true value falls outside the open unit
    interval representable in float64 (|z| beyond roughly 1e8 on the left,
    38.6 on the right) the result is clamped to the nearest interior double
    rather than returning an exact 0 or 1.
    """
    arr, scalar = _wrap(z)
    out = np.empty_like(arr)

    tail = arr < _TAIL_Z
    pos = arr >= 0.0
    neg = ~(tail | pos)  # also carries NaN through

    if np.any(tail):
        zt = arr[tail]
        with np.errstate(over="ignore"):
            u = 1.0 / (zt * zt)
        m = _horner(_MILLS_M, u)
        # z^2*(1 - M) evaluated by its own series: no cancellation.
        vals = _horner(_MILLS_T, u) / (m * m)
        out[tail] = np.where(vals < 1.0, vals, np.nextafter(1.0, 0.0))
    if np.any(neg):
        zn = arr[neg]
        lam = inverse_mills(zn)
        out[neg] = lam * (lam + zn)
    if np.any(pos):
        zp = arr[pos]
        # z*z may overflow to inf for astronomically large inputs, and
        # z = +inf gives -inf + inf; the clamp below is the intended answer.
        with np.errstate(over="ignore", invalid="ignore"):
            loglam = -0.5 * zp * zp - _LOG_SQRT_2PI - log_normal_cdf(zp)
            lam = np.exp(loglam)
            vals = np.exp(loglam + np.log(zp + lam))
        out[pos] = np.where(vals > 0.0, vals, np.nextafter(0.0, 1.0))
    return _unwrap(out, scalar)

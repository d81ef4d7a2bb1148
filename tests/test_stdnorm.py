"""Oracle and property tests for the standard-normal kernel.

High-precision expectations come from mpmath (test-only dependency);
deep-tail expectations additionally come from an independently coded
Mills-ratio asymptotic series so the two tail routes cross-check each
other.
"""

import hashlib
import math
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vaxsel import stdnorm
from vaxsel.stdnorm import (
    inverse_mills,
    inverse_mills_delta,
    log_normal_cdf,
    normal_cdf,
    normal_pdf,
    normal_tail_terms,
)
from tests.conftest import examples

mp.mp.dps = 120


def mp_cdf(z):
    return mp.erfc(-mp.mpf(z) / mp.sqrt(2)) / 2


def mp_log_cdf(z):
    return mp.log(mp_cdf(z))


def mp_lambda(z):
    z = mp.mpf(z)
    return mp.npdf(z) / mp_cdf(z)


def mp_delta(z):
    z = mp.mpf(z)
    lam = mp_lambda(z)
    return lam * (lam + z)


def mp_lambda_delta(z):
    """(lambda(z), delta(z)) to about 110 digits for every finite double z.

    Below -30 both come from Laplace's continued fraction for the Mills
    ratio, which gives lambda(z) + z = 1/(x + 2/(x + 3/(x + ...))), x = -z,
    without the cancellation of mp_delta (which loses 2 log10(x) digits)
    and without mpmath's erfc, which overflows for |z| near 1e154.  Above
    40, Phi(z) is 1 to beyond 300 digits.
    """
    z = mp.mpf(z)
    if z < -30:
        x, t = -z, mp.mpf(0)
        for k in range(200, 1, -1):
            t = k / (x + t)
        t = 1 / (x + t)
        return x + t, (x + t) * t
    lam = mp.npdf(z) / (mp_cdf(z) if z < 40 else 1)
    return lam, lam * (lam + z)


def within(got, want, rtol):
    """Relative error below rtol, allowing one subnormal step (2^-1074)
    where the true value underflows the double range."""
    return abs(mp.mpf(got) - want) <= rtol * want + mp.mpf(2) ** -1074


def series_log_cdf(z):
    """Asymptotic-series oracle for log Phi(z), z << -1.

    log Phi(z) = -z^2/2 - log(-z*sqrt(2*pi)) + log(1 - 1/z^2 + 3/z^4 - ...)
    summed to its smallest term.  Independent of the erfc route used by
    the implementation below z = 0.
    """
    assert z <= -10
    u = 1.0 / (z * z)
    total, term, k = 0.0, 1.0, 0
    while True:
        k += 1
        new = term * -(2 * k - 1) * u
        if abs(new) >= abs(term) or total + term == total:
            break
        term = new
        total += term
    return -0.5 * z * z - math.log(-z * math.sqrt(2 * math.pi)) + math.log1p(total)


def rel_err(got, want):
    want = mp.mpf(want)
    return abs((mp.mpf(got) - want) / want)


class TestNormalPdf:
    def test_at_zero(self):
        assert normal_pdf(0.0) == pytest.approx(0.3989422804014327, abs=1e-16)

    def test_closed_form_at_one(self):
        assert normal_pdf(1.0) == pytest.approx(math.exp(-0.5) / math.sqrt(2 * math.pi), rel=1e-15)

    def test_symmetry(self):
        assert normal_pdf(-3.0) == normal_pdf(3.0)

    @given(st.floats(-38, 38))
    def test_positive_and_symmetric(self, z):
        assert normal_pdf(z) > 0.0
        assert normal_pdf(z) == normal_pdf(-z)


class TestNormalCdf:
    def test_at_zero(self):
        assert normal_cdf(0.0) == 0.5

    def test_far_right_is_one(self):
        assert normal_cdf(40.0) == 1.0

    def test_against_erfc_oracle(self):
        # two-sided 2.5% critical value, pinned to the high-precision oracle
        assert rel_err(normal_cdf(1.959964), mp_cdf(1.959964)) < 1e-12
        assert normal_cdf(1.959964) == pytest.approx(0.975, abs=5e-7)

    def test_bulk_oracle_agreement(self):
        rng = np.random.default_rng(20210130)
        for z in rng.uniform(-36, 36, size=200):
            assert rel_err(normal_cdf(z), mp_cdf(z)) < 5e-13

    def test_grid_monotone_bounded_reflected(self):
        rng = np.random.default_rng(42)
        z = np.sort(rng.uniform(-37, 37, size=10_000))
        p = normal_cdf(z)
        assert np.all(np.diff(p) >= 0.0)
        assert np.all((p >= 0.0) & (p <= 1.0))
        assert np.max(np.abs(p + normal_cdf(-z) - 1.0)) < 1e-14


class TestLogNormalCdf:
    def test_at_zero(self):
        assert log_normal_cdf(0.0) == pytest.approx(math.log(0.5), abs=1e-16)

    def test_upper_tail(self):
        got = log_normal_cdf(5.0)
        assert rel_err(got, mp_log_cdf(5.0)) < 1e-12
        assert got == pytest.approx(-2.8665157e-07, rel=1e-6)

    def test_deep_tail_vs_series_oracle(self):
        got = log_normal_cdf(-30.0)
        assert math.isfinite(got)
        assert abs(got - series_log_cdf(-30.0)) / abs(got) < 1e-9

    @pytest.mark.parametrize("z", [-10.0, -15.0, -25.0, -30.0, -36.5, -37.5, -45.0, -80.0, -200.0])
    def test_left_tail_relative_accuracy(self, z):
        assert abs(log_normal_cdf(z) - series_log_cdf(z)) / abs(series_log_cdf(z)) < 1e-10

    def test_agrees_with_naive_composition_in_core(self):
        z = np.linspace(-8, 8, 1601)
        naive = np.log(normal_cdf(z))
        assert np.max(np.abs(log_normal_cdf(z) - naive)) < 1e-12

    def test_finite_across_double_range(self):
        for z in [-37.0, -38.0, -100.0, -1e6, -1e100, -1e150]:
            assert math.isfinite(log_normal_cdf(z))


class TestInverseMills:
    def test_at_zero_is_twice_pdf(self):
        assert inverse_mills(0.0) == pytest.approx(0.7978845608028654, abs=1e-15)

    def test_left_tail_value(self):
        got = inverse_mills(-8.0)
        assert 8.0 < got < 8.2
        assert rel_err(got, mp_lambda(-8.0)) < 1e-12

    def test_right_tail_tracks_pdf(self):
        assert inverse_mills(8.0) == pytest.approx(normal_pdf(8.0), rel=1e-12)

    def test_no_overflow_in_working_range(self):
        z = np.linspace(-37, 37, 3001)
        lam = inverse_mills(z)
        assert np.all(np.isfinite(lam))
        assert np.all(lam > 0.0)

    def test_strictly_decreasing(self):
        z = np.linspace(-36, 36, 5001)
        lam = inverse_mills(z)
        assert np.all(np.diff(lam) < 0.0)

    @given(st.floats(-37, 37))
    def test_exceeds_both_lower_bounds(self, z):
        lam = inverse_mills(z)
        assert lam > 0.0
        assert lam > -z

    def test_oracle_spot_checks(self):
        for z in [-36.0, -20.0, -12.5, -3.0, -0.5, 0.7, 4.0, 15.0, 30.0]:
            assert rel_err(inverse_mills(z), mp_lambda(z)) < 1e-12

    def test_continued_fraction_oracle_agrees_with_erfc_route(self):
        for z in [-30.5, -37.0, -100.0, -1e4]:
            lam, delta = mp_lambda_delta(z)
            assert rel_err(lam, mp_lambda(z)) < 1e-100
            assert rel_err(delta, mp_delta(z)) < 1e-100

    @given(st.floats(allow_nan=False, allow_infinity=False))
    @settings(max_examples=examples(300), deadline=None)
    def test_relative_accuracy_whole_line(self, z):
        assert within(inverse_mills(z), mp_lambda_delta(z)[0], 1e-12)


class TestInverseMillsDelta:
    def test_at_zero_is_lambda_squared(self):
        assert inverse_mills_delta(0.0) == pytest.approx(0.6366197723675814, abs=1e-15)

    def test_left_value_from_oracle(self):
        got = inverse_mills_delta(-20.0)
        assert 0.0 < got < 1.0
        assert got > 0.99
        assert rel_err(got, mp_delta(-20.0)) < 1e-9

    def test_right_value_from_oracle(self):
        got = inverse_mills_delta(20.0)
        assert 0.0 < got < 1.0
        assert got < 1e-80
        assert rel_err(got, mp_delta(20.0)) < 1e-12

    @given(st.floats(allow_nan=False, allow_infinity=False))
    @settings(max_examples=examples(300), deadline=None)
    def test_relative_accuracy_whole_line(self, z):
        # the mid regime forms lambda + z by cancellation: up to 4e-10 near -37
        assert within(inverse_mills_delta(z), mp_lambda_delta(z)[1], 1e-9)

    @given(st.floats(min_value=-1e300, max_value=1e300, allow_nan=False))
    @settings(max_examples=examples(300))
    def test_strictly_inside_unit_interval(self, z):
        d = inverse_mills_delta(z)
        assert 0.0 < d < 1.0

    def test_derivative_identity_by_central_differences(self):
        # d lambda / dz = -delta, checked over the working range
        h = 1e-5
        for z in np.linspace(-30, 30, 241):
            fd = (inverse_mills(z + h) - inverse_mills(z - h)) / (2 * h)
            assert fd == pytest.approx(-inverse_mills_delta(z), rel=1e-6)

    @given(st.floats(-30, 30))
    @settings(max_examples=examples(200))
    def test_derivative_identity_property(self, z):
        h = 1e-5
        fd = (inverse_mills(z + h) - inverse_mills(z - h)) / (2 * h)
        assert fd == pytest.approx(-inverse_mills_delta(z), rel=1e-6, abs=1e-200)


# regime boundaries, clamp and overflow thresholds, non-finite values and subnormals
EDGE_VALUES = [0.0, -0.0, 37.0, -37.0, 37.0 - 1e-7, 37.0 + 1e-7, -37.0 - 1e-7, -37.0 + 1e-7,
               1e8, -1e8, 1.4e154, -1.4e154, 1e300, -1e300, math.inf, -math.inf, math.nan,
               5e-324, -5e-324, 1e-310, -1e-310]


def _stdnorm_digest():
    rng = np.random.default_rng(0)
    n = 100_000
    draws = [rng.normal(scale=s, size=n) for s in (1.0, 10.0, 40.0)]
    draws.append(rng.choice([-1.0, 1.0], size=n) * 10.0 ** rng.uniform(-300, 300, size=n))
    z = np.concatenate([*draws, EDGE_VALUES])
    scalars = [*EDGE_VALUES, *z[: 4 * n: 2000]]
    h = hashlib.sha256()
    for fn in (log_normal_cdf, inverse_mills, inverse_mills_delta):
        h.update(fn(z).tobytes())
        for zi in scalars:
            h.update(np.float64(fn(float(zi))).tobytes())
    return h.hexdigest()


# sha256 of log Phi, lambda and delta over 400 021 arrayed inputs (N(0, 1),
# x10, x40, +-10^U(-300, 300) and EDGE_VALUES, default_rng(0)) and 221
# scalar calls, recorded on x86_64 with numpy 2.4.6 and scipy 1.17.1
# before the three functions were folded into one kernel.
STDNORM_DIGEST = "0ab5be0bb9fd6a280519fd57c606bfc88c6fcf3d40392ed22b2d8e82ad8a3450"


def test_stdnorm_bits_pinned():
    assert _stdnorm_digest() == STDNORM_DIGEST


def test_array_and_scalar_paths_match():
    z = np.array([-np.inf, -1e200, -40.0, -12.0, -1.0, np.nan, 0.0, 2.5, 38.0, 1e200, np.inf])
    for fn in (normal_pdf, normal_cdf, log_normal_cdf, inverse_mills, inverse_mills_delta):
        vec = fn(z)
        assert vec.shape == z.shape
        for i, zi in enumerate(z):
            # exact equality, with NaN matching NaN
            np.testing.assert_array_equal(vec[i], fn(float(zi)))
    vecs = normal_tail_terms(z)
    for i, zi in enumerate(z):
        terms = normal_tail_terms(float(zi))
        assert isinstance(terms, tuple) and all(type(t) is float for t in terms)
        np.testing.assert_array_equal([v[i] for v in vecs], terms)


def test_fmax_clamp_is_the_where_clamp():
    # normal_tail_terms lifts the z >= 0 delta values (an exp: zero, positive,
    # +inf, or NaN at z = +inf) to the smallest subnormal with np.fmax, as it did
    # with np.where(vals > 0.0, vals, tiny)
    vals = np.array([0.0, 5e-324, 1e-300, np.inf, np.nan])
    tiny = np.nextafter(0.0, 1.0)
    assert np.fmax(vals, tiny).tobytes() == np.where(vals > 0.0, vals, tiny).tobytes()
    # delta underflows to 0 past z ~ 38.6 and is NaN before the clamp at +inf
    assert normal_tail_terms(np.array([40.0, 1e200, np.inf]))[2].tolist() == [tiny] * 3


def _layouts():
    """One (6, 12) block mixing every regime, NaN and +-inf, in four memory
    layouts, plus empty inputs."""
    rng = np.random.default_rng(3)
    base = rng.normal(scale=25.0, size=(6, 12))
    base[0, :4] = [np.nan, -np.inf, np.inf, -0.0]
    base[1, :3] = [-1e200, 1e200, -37.0]
    fortran = np.asfortranarray(base)
    assert not fortran.flags.c_contiguous
    return {"C": base, "F": fortran, "strided": base[:, ::3], "transposed": base.T,
            "empty": np.empty((0,)), "empty_rows": np.empty((3, 0))}


@pytest.mark.parametrize("layout", list(_layouts()))
def test_block_and_row_calls_give_the_same_bits(layout):
    # fit_many evaluates a round of samples as one (m, n) block and must give
    # the same bits as fit, which calls the kernel on one row
    block = _layouts()[layout]
    whole = normal_tail_terms(block)
    assert all(out.shape == block.shape for out in whole)
    for i in range(block.shape[0] if block.ndim == 2 else 0):
        for out, out_row in zip(whole, normal_tail_terms(block[i])):
            assert out[i].tobytes() == out_row.tobytes()


@pytest.mark.parametrize("layout", [*_layouts(), "0-d"])
def test_the_kernel_never_writes_into_its_input(layout):
    # the kernel works on a flat view of the caller's array, not on a copy
    z = np.array(-40.0) if layout == "0-d" else _layouts()[layout]
    before = z.copy()
    outs = normal_tail_terms(z)
    assert z.tobytes() == before.tobytes()
    for i, out in enumerate(outs):
        assert not np.shares_memory(z, out)
        assert not any(np.shares_memory(out, other) for other in outs[i + 1:])


def test_no_runtime_warning_from_a_block():
    # the scalar calls are checked in test_nan_propagates_and_infinities_give_limits;
    # a block mixes every regime, so a step outside the errstate would warn here
    rng = np.random.default_rng(5)
    wide = rng.choice([-1.0, 1.0], size=10_000) * 10.0 ** rng.uniform(-300, 300, size=10_000)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for z in (np.array(EDGE_VALUES), np.array(EDGE_VALUES).reshape(3, 7), wide):
            normal_tail_terms(z)


def test_one_erfc_call_over_the_whole_input(monkeypatch):
    # both erfc regimes read one erfc(|z|/sqrt2); where= is never passed,
    # because scipy 1.17.1's erfc returns wrong values and corrupts the heap with it
    sizes = []
    erfc = stdnorm.erfc

    def counted(x, *args, **kwargs):
        assert not kwargs
        sizes.append(np.size(x))
        return erfc(x, *args)

    monkeypatch.setattr(stdnorm, "erfc", counted)
    z = np.array([[-1e3, -40.0, -37.0, -5.0], [-0.5, 0.0, 3.0, 40.0],
                  [np.nan, -np.inf, np.inf, 1.0]])
    assert np.any(z < -37.0) and np.any((z >= -37.0) & (z < 0.0)) and np.any(z >= 0.0)
    normal_tail_terms(z)
    assert sizes == [z.size]


# (value at -inf, value at +inf); delta stays clamped inside (0, 1)
NONFINITE_LIMITS = {
    normal_pdf: (0.0, 0.0),
    normal_cdf: (0.0, 1.0),
    log_normal_cdf: (-math.inf, 0.0),
    inverse_mills: (math.inf, 0.0),
    inverse_mills_delta: (np.nextafter(1.0, 0.0), np.nextafter(0.0, 1.0)),
}


@pytest.mark.parametrize("fn", list(NONFINITE_LIMITS), ids=lambda fn: fn.__name__)
def test_nan_propagates_and_infinities_give_limits(fn):
    at_minus_inf, at_plus_inf = NONFINITE_LIMITS[fn]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert math.isnan(fn(math.nan))
        assert fn(-math.inf) == at_minus_inf
        assert fn(math.inf) == at_plus_inf

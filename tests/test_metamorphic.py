"""Metamorphic relations of the two-step estimator on the 13 replicate frames of the
shipped snapshot (tables 2-4), and three of them on hypothesis-drawn frames of the
simulate design.  Each test fits a frame and a transformed copy whose estimate follows
from the first fit, on the same machine, so the relations need no reference file and
hold on any CPU.

Two relations are exact in binary floating point and are checked bit for bit.  Two
others move the Newton stopping point, which may land anywhere the stop rule
(max-abs score below SCORE_TOL) allows, so they are checked within STOP.  The three
that change only the outcome stage (a shift or a scale of the outcome, an affine map
of an outcome-only column) leave the selection stage bit for bit as it was, and move
the outcome estimates by rounding alone, so they are checked within STOP as well."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from vaxsel import heckman, probit, synth
from vaxsel.cli import SIM_OUTCOME_COEF, SIM_SELECTION_COEF
from vaxsel.panel import build_model_frame
from vaxsel.specs import REPLICATION_TABLES, apply_outlier_filter, builtin_specs

from tests.conftest import examples

PLAIN, CORRECTED = heckman.PLAIN_ROBUST, heckman.HECKMAN_CORRECTED

# Coefficient differences are in the base fit's standard errors, covariance differences
# relative to sqrt(V_ii V_jj).  Over the 13 frames the largest measured was 3.3e-10 for
# coefficients and 3.6e-10 for covariances, both natively and with numpy's AVX-512 loops
# and OpenBLAS's AVX-512 kernels switched off.  STOP, the score tolerance itself, is 28
# times that.  A second stage without HC1's n/(n - k) misses the duplication relation by
# 8e-2 or more on every frame, and a Mills column rolled by one row against the outcome
# rows misses the permutation relation by 4e-2 to 2 standard errors.  On 200 frames of
# the simulate design (n from 200 to 800) the permutation moved coefficients by at most
# 1.1e-9 and covariances by 2.8e-10, so STOP is 9 times that there.
STOP = probit.SCORE_TOL

# The outcome-stage relations moved the outcome estimates, over the 13 frames, by at
# most 5.0e-13 standard errors and their covariances by at most 2.5e-11 (natively;
# 2.2e-11 with the AVX-512 kernels off): STOP is at least 400 times either.  Each of
# these mutants fails on every frame: a sigma^2 taken from the outcome's raw second
# moment y'y instead of e'e fails the shift alone, an HC1 meat cut to its diagonal the
# affine map alone, and a sigma^2 with |Mills coefficient| in place of its square the
# tripling and the doubling.
CELLS = [f"{table}:{spec.name}" for table, (_, _, n) in REPLICATION_TABLES.items()
         for spec in builtin_specs()[:n]]
# (cell, outcome-only column, c, d) for the map x -> c x + d of that column
AFFINE = [(f"{table}:{spec.name}", code, c, d)
          for table, (_, _, n) in REPLICATION_TABLES.items() for spec in builtin_specs()[:n]
          for code, c, d in (("gov_eff", 3.0, 0.7), ("days", 0.1, -5.0))
          if code in spec.outcome_vars]


@pytest.fixture(scope="module")
def fitted(snapshot):
    """Cell -> (frame, two-step fit) for each model of tables 2-4."""
    out, specs = {}, builtin_specs()
    for table, (_, name, n) in REPLICATION_TABLES.items():
        panel = apply_outlier_filter(snapshot, name)
        for spec in specs[:n]:
            frame = build_model_frame(panel, spec)
            out[f"{table}:{spec.name}"] = frame, heckman.fit_two_step(frame)
    return out


def take_rows(frame, rows):
    """frame on the selection rows indexed by rows (repeats allowed), with the
    outcome rows that belong to them in the same order."""
    selected = frame.selection_y == 1.0
    outcome_row = np.full(selected.size, -1)  # -1 where a selection row has no outcome row
    outcome_row[np.flatnonzero(selected)[frame.outcome_keep]] = np.arange(frame.outcome_y.size)
    picked = outcome_row[rows][selected[rows]]
    kept = picked[picked >= 0]
    return replace(frame, selection_y=frame.selection_y[rows], selection_X=frame.selection_X[rows],
                   outcome_y=frame.outcome_y[kept], outcome_X=frame.outcome_X[kept],
                   outcome_keep=picked >= 0)


def assert_close(fit, base, vcov):
    """fit's coefficients within STOP of base's, and its covariances within STOP of
    vcov's (variant -> (outcome, selection))."""
    for got, want, V in ((fit.outcome_coef, base.outcome_coef, base.vcov[PLAIN][0]),
                         (fit.first_stage.coef, base.first_stage.coef, base.first_stage.vcov)):
        assert np.max(np.abs(got - want) / np.sqrt(np.diag(V))) <= STOP
    for variant, pair in vcov.items():
        for got, want in zip(fit.vcov[variant], pair):
            sd = np.sqrt(np.diag(want))
            assert np.max(np.abs(got - want) / np.outer(sd, sd)) <= STOP, variant


# Frames of the simulate design, at a drawn size, error correlation and seed
SYNTH_FRAMES = st.builds(
    lambda n, rho, seed: synth.generate(
        synth.DgpConfig(SIM_SELECTION_COEF, SIM_OUTCOME_COEF, rho, 1.0, n, seed)).frame,
    st.integers(200, 800), st.floats(-0.9, 0.9), st.integers(0, 2**32 - 1))


def estimated(frame):
    """frame's two-step fit; a drawn frame it cannot estimate is dropped."""
    try:
        fit = heckman.fit_two_step(frame)
    except heckman.ESTIMATION_ERRORS:
        fit = None
    assume(fit is not None)
    return fit


def check_doubling(frame, base):
    # a product by 2 is exact, and so is every sum and solve on the doubled values
    fit = heckman.fit_two_step(replace(frame, outcome_y=2.0 * frame.outcome_y))
    assert np.array_equal(fit.outcome_coef, 2.0 * base.outcome_coef)
    assert np.array_equal(fit.first_stage.coef, base.first_stage.coef)
    for variant in heckman.VCOV_VARIANTS:
        (outcome, selection), (want, want_selection) = fit.vcov[variant], base.vcov[variant]
        assert np.array_equal(outcome, 4.0 * want), variant
        assert np.array_equal(selection, want_selection), variant


def check_flip(frame, first):
    # the sign-folded design of 1 - y is the negated one of y, and negation is exact,
    # so every Newton pass sees the base pass's index and the same halving decisions
    flipped = probit.fit(1.0 - frame.selection_y, frame.selection_X, frame.selection_labels)
    assert np.array_equal(flipped.coef, -first.coef)
    assert np.array_equal(flipped.g, -first.g)
    for name in ("vcov", "w", "loglik", "iterations", "halvings"):
        assert np.array_equal(getattr(flipped, name), getattr(first, name)), name


def check_permutation(frame, base):
    rows = np.random.default_rng(2021).permutation(frame.selection_y.size)
    assert_close(heckman.fit_two_step(take_rows(frame, rows)), base, base.vcov)


@pytest.mark.parametrize("cell", CELLS)
def test_doubling_the_outcome_doubles_its_coefficients(fitted, cell):
    check_doubling(*fitted[cell])


@pytest.mark.parametrize("cell", CELLS)
def test_flipping_the_selection_labels_negates_gamma(fitted, cell):
    frame, base = fitted[cell]
    check_flip(frame, base.first_stage)


@pytest.mark.parametrize("cell", CELLS)
def test_permuting_the_rows_keeps_every_estimate(fitted, cell):
    check_permutation(*fitted[cell])


@given(frame=SYNTH_FRAMES)
@settings(max_examples=examples(100), deadline=None)
def test_doubling_a_synthetic_outcome_doubles_its_coefficients(frame):
    check_doubling(frame, estimated(frame))


@given(frame=SYNTH_FRAMES)
@settings(max_examples=examples(100), deadline=None)
def test_flipping_synthetic_selection_labels_negates_gamma(frame):
    check_flip(frame, estimated(frame).first_stage)


@given(frame=SYNTH_FRAMES)
@settings(max_examples=examples(100), deadline=None)
def test_permuting_synthetic_rows_keeps_every_estimate(frame):
    check_permutation(frame, estimated(frame))


@pytest.mark.parametrize("cell", CELLS)
def test_duplicating_every_row_halves_the_covariances(fitted, cell):
    # X'X, the meat and the information double; HC1's n/(n - k) becomes 2n/(2n - k)
    frame, base = fitted[cell]
    fit = heckman.fit_two_step(take_rows(frame, np.tile(np.arange(frame.selection_y.size), 2)))
    n, k = base.residuals.size, base.outcome_coef.size
    (plain, plain_selection), (corrected, selection) = base.vcov[PLAIN], base.vcov[CORRECTED]
    assert_close(fit, base, {PLAIN: (plain * (n - k) / (2 * n - k), plain_selection / 2),
                             CORRECTED: (corrected / 2, selection / 2)})


def assert_outcome_moved(fit, base, coef, vcov):
    """fit's selection stage bit-identical to base's, its outcome coefficients within STOP
    of coef in the standard errors of vcov's plain_robust variant, and each outcome
    covariance within STOP of vcov's (variant -> outcome covariance)."""
    assert np.array_equal(fit.first_stage.coef, base.first_stage.coef)
    for variant in heckman.VCOV_VARIANTS:
        assert np.array_equal(fit.vcov[variant][1], base.vcov[variant][1]), variant
    assert np.max(np.abs(fit.outcome_coef - coef) / np.sqrt(np.diag(vcov[PLAIN]))) <= STOP
    for variant, want in vcov.items():
        sd = np.sqrt(np.diag(want))
        assert np.max(np.abs(fit.vcov[variant][0] - want) / np.outer(sd, sd)) <= STOP, variant


def outcome_vcovs(fit):
    return {variant: fit.vcov[variant][0] for variant in heckman.VCOV_VARIANTS}


@pytest.mark.parametrize("cell", CELLS)
def test_shifting_the_outcome_moves_only_the_intercept(fitted, cell):
    # the residuals, sigma^2 and rho stay, and with them both covariances
    frame, base = fitted[cell]
    fit = heckman.fit_two_step(replace(frame, outcome_y=frame.outcome_y + 2.5))
    coef = base.outcome_coef.copy()
    coef[base.outcome_labels.index("const")] += 2.5
    assert_outcome_moved(fit, base, coef, outcome_vcovs(base))


@pytest.mark.parametrize("cell", CELLS)
def test_tripling_the_outcome_triples_its_coefficients(fitted, cell):
    frame, base = fitted[cell]
    fit = heckman.fit_two_step(replace(frame, outcome_y=3.0 * frame.outcome_y))
    assert_outcome_moved(fit, base, 3.0 * base.outcome_coef,
                         {variant: 9.0 * V for variant, V in outcome_vcovs(base).items()})


@pytest.mark.parametrize("cell, code, c, d", AFFINE)
def test_an_affine_map_of_an_outcome_column_maps_its_estimates(fitted, cell, code, c, d):
    # W' = W M^-1 fits the same values: beta' = M beta and V' = M V M', where M is the
    # identity but for M_jj = 1/c and M_const,j = -d/c
    frame, base = fitted[cell]
    j = base.outcome_labels.index(code)
    X = frame.outcome_X.copy()
    X[:, j] = c * X[:, j] + d
    fit = heckman.fit_two_step(replace(frame, outcome_X=X))
    M = np.eye(base.outcome_coef.size)
    M[j, j], M[base.outcome_labels.index("const"), j] = 1.0 / c, -d / c
    assert_outcome_moved(fit, base, M @ base.outcome_coef,
                         {variant: M @ V @ M.T for variant, V in outcome_vcovs(base).items()})

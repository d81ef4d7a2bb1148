"""Metamorphic relations of the two-step estimator on the 13 replicate frames of the
shipped snapshot (tables 2-4).  Each test fits a frame and a transformed copy whose
estimate follows from the first fit, on the same machine, so the relations need no
reference file and hold on any CPU.

Two relations are exact in binary floating point and are checked bit for bit.  The
other two move the Newton stopping point, which may land anywhere the stop rule
(max-abs score below SCORE_TOL) allows, so they are checked within STOP."""

from dataclasses import replace

import numpy as np
import pytest

from vaxsel import heckman, probit
from vaxsel.panel import build_model_frame
from vaxsel.specs import REPLICATION_TABLES, apply_outlier_filter, builtin_specs

PLAIN, CORRECTED = heckman.PLAIN_ROBUST, heckman.HECKMAN_CORRECTED

# Coefficient differences are in the base fit's standard errors, covariance differences
# relative to sqrt(V_ii V_jj).  Over the 13 frames the largest measured was 3.3e-10 for
# coefficients and 3.6e-10 for covariances, both natively and with numpy's AVX-512 loops
# and OpenBLAS's AVX-512 kernels switched off.  STOP, the score tolerance itself, is 28
# times that.  A second stage without HC1's n/(n - k) misses the duplication relation by
# 8e-2 or more on every frame, and a Mills column rolled by one row against the outcome
# rows misses the permutation relation by 4e-2 to 2 standard errors.
STOP = probit.SCORE_TOL

CELLS = [f"{table}:{spec.name}" for table, (_, _, n) in REPLICATION_TABLES.items()
         for spec in builtin_specs()[:n]]


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


@pytest.mark.parametrize("cell", CELLS)
def test_doubling_the_outcome_doubles_its_coefficients(fitted, cell):
    # a product by 2 is exact, and so is every sum and solve on the doubled values
    frame, base = fitted[cell]
    fit = heckman.fit_two_step(replace(frame, outcome_y=2.0 * frame.outcome_y))
    assert np.array_equal(fit.outcome_coef, 2.0 * base.outcome_coef)
    for variant in heckman.VCOV_VARIANTS:
        (outcome, selection), (want, want_selection) = fit.vcov[variant], base.vcov[variant]
        assert np.array_equal(outcome, 4.0 * want), variant
        assert np.array_equal(selection, want_selection), variant


@pytest.mark.parametrize("cell", CELLS)
def test_flipping_the_selection_labels_negates_gamma(fitted, cell):
    # the sign-folded design of 1 - y is the negated one of y, and negation is exact,
    # so every Newton pass sees the base pass's index and the same halving decisions
    frame, base = fitted[cell]
    first = base.first_stage
    flipped = probit.fit(1.0 - frame.selection_y, frame.selection_X, frame.selection_labels)
    assert np.array_equal(flipped.coef, -first.coef)
    assert np.array_equal(flipped.g, -first.g)
    for name in ("vcov", "w", "loglik", "iterations", "halvings"):
        assert np.array_equal(getattr(flipped, name), getattr(first, name)), name


@pytest.mark.parametrize("cell", CELLS)
def test_permuting_the_rows_keeps_every_estimate(fitted, cell):
    frame, base = fitted[cell]
    rows = np.random.default_rng(2021).permutation(frame.selection_y.size)
    assert_close(heckman.fit_two_step(take_rows(frame, rows)), base, base.vcov)


@pytest.mark.parametrize("cell", CELLS)
def test_duplicating_every_row_halves_the_covariances(fitted, cell):
    # X'X, the meat and the information double; HC1's n/(n - k) becomes 2n/(2n - k)
    frame, base = fitted[cell]
    fit = heckman.fit_two_step(take_rows(frame, np.tile(np.arange(frame.selection_y.size), 2)))
    n, k = base.residuals.size, base.outcome_coef.size
    (plain, plain_selection), (corrected, selection) = base.vcov[PLAIN], base.vcov[CORRECTED]
    assert_close(fit, base, {PLAIN: (plain * (n - k) / (2 * n - k), plain_selection / 2),
                             CORRECTED: (corrected / 2, selection / 2)})

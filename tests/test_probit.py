"""Probit estimator tests: closed forms, finite differences, grid-search oracle."""

import hashlib
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from vaxsel import probit, synth
from vaxsel.cli import SIM_OUTCOME_COEF, SIM_SELECTION_COEF
from vaxsel.stdnorm import inverse_mills, inverse_mills_delta, normal_cdf
from tests import unsigned_terms

# analytic MLE of an intercept-only probit with ybar = 0.75
PHI_INV_075 = 0.6744897501960817

# 6-point fixture used across loglik / fit oracle checks
FIX_X = np.column_stack([np.ones(6), np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])])
FIX_Y = np.array([0.0, 0.0, 1.0, 0.0, 1.0, 1.0])


def loglik_oracle(coef, y, X):
    """Direct per-observation summation through the plain cdf."""
    total = 0.0
    for yi, xi in zip(y, X):
        p = normal_cdf(float(xi @ coef))
        q = p if yi == 1 else 1.0 - p
        total += math.log(q) if q > 0.0 else -math.inf
    return total


def grid_search_oracle(y, X, lo=-5.0, hi=5.0):
    """2-d grid search plus local refinement, independent of Newton."""
    best = None
    a_grid = np.linspace(lo, hi, 201)
    b_grid = np.linspace(lo, hi, 201)
    for a in a_grid:
        for b in b_grid:
            ll = loglik_oracle(np.array([a, b]), y, X)
            if best is None or ll > best[0]:
                best = (ll, a, b)
    _, a, b = best
    width = (hi - lo) / 200
    for _ in range(12):
        a_grid = np.linspace(a - width, a + width, 21)
        b_grid = np.linspace(b - width, b + width, 21)
        for ai in a_grid:
            for bi in b_grid:
                ll = loglik_oracle(np.array([ai, bi]), y, X)
                if ll > best[0]:
                    best = (ll, ai, bi)
        _, a, b = best
        width /= 10
    return np.array([a, b])


class TestLoglik:
    def test_zero_coef_gives_n_log_half(self):
        rng = np.random.default_rng(0)
        X = np.column_stack([np.ones(20), rng.normal(size=20)])
        y = (rng.uniform(size=20) < 0.5).astype(float)
        assert probit.loglik(np.zeros(2), y, X) == pytest.approx(20 * math.log(0.5), rel=1e-14)

    def test_single_observation(self):
        from vaxsel.stdnorm import log_normal_cdf

        z = 0.83
        got = probit.loglik(np.array([z]), np.array([1.0]), np.array([[1.0]]))
        assert got == pytest.approx(log_normal_cdf(z), abs=1e-15)

    def test_fixture_matches_direct_summation(self):
        coef = np.array([-0.3, 0.9])
        assert probit.loglik(coef, FIX_Y, FIX_X) == pytest.approx(
            loglik_oracle(coef, FIX_Y, FIX_X), abs=1e-10
        )


class TestScore:
    def test_single_obs_closed_form(self):
        got = probit.score(np.zeros(1), np.array([1.0]), np.array([[1.0]]))
        assert got[0] == pytest.approx(inverse_mills(0.0), abs=1e-14)

    def test_finite_difference_on_random_points(self):
        rng = np.random.default_rng(7)
        n, k = 40, 3
        X = np.column_stack([np.ones(n), rng.normal(size=(n, k - 1))])
        y = (rng.uniform(size=n) < 0.5).astype(float)
        h = 1e-6
        for _ in range(100):
            coef = rng.uniform(-1.5, 1.5, size=k)
            g = probit.score(coef, y, X)
            for j in range(k):
                e = np.zeros(k)
                e[j] = h
                fd = (probit.loglik(coef + e, y, X) - probit.loglik(coef - e, y, X)) / (2 * h)
                assert fd == pytest.approx(g[j], rel=1e-6, abs=1e-8)

    def test_vanishes_at_mle(self):
        rng = np.random.default_rng(12)
        X = np.column_stack([np.ones(300), rng.normal(size=300)])
        y = (rng.uniform(size=300) < normal_cdf(0.4 + 0.8 * X[:, 1])).astype(float)
        fit = probit.fit(y, X)
        assert np.max(np.abs(probit.score(fit.coef, y, X))) < 1e-8


class TestHessian:
    def test_intercept_only_closed_form(self):
        n = 9
        X = np.ones((n, 1))
        y = np.array([0.0, 1.0] * 4 + [1.0])
        H = probit.hessian(np.zeros(1), y, X)
        assert H[0, 0] == pytest.approx(-n * inverse_mills_delta(0.0), rel=1e-14)

    def test_negative_semidefinite_everywhere(self):
        rng = np.random.default_rng(3)
        X = np.column_stack([np.ones(50), rng.normal(size=(50, 2))])
        y = (rng.uniform(size=50) < 0.5).astype(float)
        for _ in range(25):
            coef = rng.uniform(-3, 3, size=3)
            eig = np.linalg.eigvalsh(probit.hessian(coef, y, X))
            assert np.all(eig <= 1e-10)

    def test_finite_difference_of_score(self):
        rng = np.random.default_rng(5)
        X = np.column_stack([np.ones(60), rng.normal(size=(60, 2))])
        y = (rng.uniform(size=60) < 0.5).astype(float)
        coef = np.array([0.3, -0.7, 0.2])
        H = probit.hessian(coef, y, X)
        h = 1e-6
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            fd = (probit.score(coef + e, y, X) - probit.score(coef - e, y, X)) / (2 * h)
            assert_allclose(fd, H[:, j], rtol=1e-5, atol=1e-7)


class TestFit:
    def test_intercept_only_balanced(self):
        y = np.array([0.0, 1.0] * 10)
        fit = probit.fit(y, np.ones((20, 1)))
        assert fit.score_norm < probit.SCORE_TOL
        assert abs(fit.coef[0]) < 1e-10

    def test_intercept_only_three_quarters(self):
        y = np.array([1.0, 1.0, 1.0, 0.0] * 8)
        fit = probit.fit(y, np.ones((32, 1)))
        assert fit.coef[0] == pytest.approx(PHI_INV_075, abs=1e-8)

    def test_fixture_against_grid_search_oracle(self):
        oracle = grid_search_oracle(FIX_Y, FIX_X)
        fit = probit.fit(FIX_Y, FIX_X)
        assert_allclose(fit.coef, oracle, atol=1e-4)

    def test_monotone_likelihood_ascent(self):
        rng = np.random.default_rng(11)
        X = np.column_stack([np.ones(200), rng.normal(size=(200, 2))])
        y = (rng.uniform(size=200) < normal_cdf(X @ np.array([0.2, 1.0, -0.6]))).astype(float)
        fit = probit.fit(y, X)
        diffs = np.diff(fit.loglik_path)
        # every step ascends; only a terminal sub-resolution refinement may
        # wiggle by a ulp of the likelihood magnitude
        assert np.all(diffs >= -1e-10)
        assert np.sum(diffs < 0.0) <= 1
        assert np.all(diffs[:-1] >= 0.0)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(21)
        X = np.column_stack([np.ones(150), rng.normal(size=150)])
        y = (rng.uniform(size=150) < normal_cdf(0.3 + 0.9 * X[:, 1])).astype(float)
        fit1 = probit.fit(y, X)
        c = 3.7
        Xs = X.copy()
        Xs[:, 1] *= c
        fit2 = probit.fit(y, Xs)
        assert fit2.coef[1] == pytest.approx(fit1.coef[1] / c, abs=1e-8)
        assert fit2.loglik == pytest.approx(fit1.loglik, abs=1e-8)
        assert_allclose(normal_cdf(Xs @ fit2.coef), normal_cdf(X @ fit1.coef), atol=1e-8)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(31)
        X = np.column_stack([np.ones(120), rng.normal(size=(120, 2))])
        y = (rng.uniform(size=120) < normal_cdf(X @ np.array([0.1, 0.8, -0.5]))).astype(float)
        fit1 = probit.fit(y, X)
        perm = rng.permutation(120)
        fit2 = probit.fit(y[perm], X[perm])
        assert_allclose(fit2.coef, fit1.coef, atol=1e-12)
        assert fit2.loglik == pytest.approx(fit1.loglik, abs=1e-10)

    def test_label_flip_symmetry(self):
        rng = np.random.default_rng(41)
        x = rng.normal(size=180)
        X = np.column_stack([np.ones(180), x])
        y = (rng.uniform(size=180) < normal_cdf(0.4 + 0.7 * x)).astype(float)
        fit1 = probit.fit(y, X)
        fit2 = probit.fit(1.0 - y, X)
        assert_allclose(fit2.coef, -fit1.coef, atol=1e-8)

    def test_separation_raises(self):
        # margin shrunk toward zero so the score stays above tolerance
        # while the slope diverges, rather than saturating numerically
        x = np.concatenate([np.linspace(-2, -0.02, 30), np.linspace(0.02, 2, 30)])
        y = (x > 0).astype(float)
        with pytest.raises(probit.SeparationError):
            probit.fit(y, np.column_stack([np.ones(60), x]))

    def test_rank_deficiency_names_columns(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=50)
        X = np.column_stack([np.ones(50), x, 2.0 * x])
        y = (rng.uniform(size=50) < 0.5).astype(float)
        with pytest.raises(probit.RankDeficientError) as err:
            probit.fit(y, X, labels=["const", "a", "twice_a"])
        assert "twice_a" in str(err.value)

    @pytest.mark.parametrize("labels", [["const"], ["const", "a", "extra"]])
    def test_label_count_must_match_columns(self, labels):
        rng = np.random.default_rng(2)
        X = np.column_stack([np.ones(50), rng.normal(size=50)])
        y = (rng.uniform(size=50) < 0.5).astype(float)
        with pytest.raises(ValueError, match=f"{len(labels)} labels for 2 columns"):
            probit.fit(y, X, labels=labels)
        with pytest.raises(ValueError, match=f"{len(labels)} labels for 2 columns"):
            probit.fit_many([y], [X], labels=labels)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            probit.fit(np.ones(10), np.ones((10, 1)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_design_rejected(self, bad):
        rng = np.random.default_rng(4)
        X = np.column_stack([np.ones(40), rng.normal(size=40)])
        y = (rng.uniform(size=40) < 0.5).astype(float)
        fit = probit.fit(y, X)
        X[3, 1] = bad
        with pytest.raises(ValueError, match="NaN or infinite"):
            probit.fit(y, X)
        with pytest.raises(ValueError, match="NaN or infinite"):
            probit.sandwich_vcov(fit, y, X)

    def test_nonconvergence_reported_honestly(self, monkeypatch):
        rng = np.random.default_rng(6)
        X = np.column_stack([np.ones(200), rng.normal(size=200)])
        y = (rng.uniform(size=200) < normal_cdf(0.5 + 1.2 * X[:, 1])).astype(float)
        monkeypatch.setattr(probit, "MAX_ITER", 1)
        with pytest.raises(probit.ProbitError, match="iteration cap 1 reached"):
            probit.fit(y, X)

    @pytest.mark.parametrize("cap, value, cause", [
        ("MAX_ITER", 2, "iteration cap 2 reached (score norm 3.58e+00)"),
        # no halving allowed: only the terminal rule could accept the first full step
        ("MAX_STEP_HALVINGS", 0, "line search failed at iteration 1 (score norm 9.34e+01)"),
    ])
    def test_a_fit_that_stops_short_raises_naming_its_labels_and_score(self, monkeypatch,
                                                                        cap, value, cause):
        # this fit takes 5 Newton steps and no halving
        rng = np.random.default_rng(6)
        X = np.column_stack([rng.normal(size=200), np.ones(200)])
        y = (rng.uniform(size=200) < normal_cdf(0.5 + 1.2 * X[:, 0])).astype(float)
        monkeypatch.setattr(probit, cap, value)
        with pytest.raises(probit.ProbitError) as raised:
            probit.fit(y, X, labels=["gdp", "const"])
        assert type(raised.value) is probit.ProbitError
        assert str(raised.value) == f"probit on ['gdp', 'const'] did not converge: {cause}"


class TestSandwich:
    def test_symmetric_psd(self):
        rng = np.random.default_rng(8)
        X = np.column_stack([np.ones(150), rng.normal(size=(150, 2))])
        y = (rng.uniform(size=150) < normal_cdf(X @ np.array([0.2, 0.7, -0.4]))).astype(float)
        fit = probit.fit(y, X)
        v = probit.sandwich_vcov(fit, y, X)
        assert_allclose(v, v.T, atol=1e-14)
        assert np.all(np.linalg.eigvalsh(v) >= -1e-12)

    def test_intercept_only_closed_form(self):
        # balanced data: MLE index 0, every score +-lambda(0), information
        # n*delta(0) = n*lambda(0)^2, so the sandwich collapses to
        # 1 / (n * lambda(0)^2).
        n = 40
        y = np.array([0.0, 1.0] * (n // 2))
        fit = probit.fit(y, np.ones((n, 1)))
        v = probit.sandwich_vcov(fit, y, np.ones((n, 1)))
        lam0 = inverse_mills(0.0)
        assert v[0, 0] == pytest.approx(1.0 / (n * lam0**2), rel=1e-8)

    def test_rows_must_match_the_fit(self):
        rng = np.random.default_rng(9)
        X = np.column_stack([np.ones(80), rng.normal(size=80)])
        y = (rng.uniform(size=80) < normal_cdf(0.3 + 0.5 * X[:, 1])).astype(float)
        fit = probit.fit(y, X)
        with pytest.raises(ValueError, match="80 rows"):
            probit.sandwich_vcov(fit, y[:-1], X[:-1])
        with pytest.raises(ValueError, match="binary"):
            probit.sandwich_vcov(fit, 2.0 * y, X)

    def test_information_equality_large_n(self):
        rng = np.random.default_rng(99)
        n = 20000
        X = np.column_stack([np.ones(n), rng.normal(size=n)])
        y = (rng.uniform(size=n) < normal_cdf(0.3 + 0.8 * X[:, 1])).astype(float)
        fit = probit.fit(y, X)
        sw = probit.sandwich_vcov(fit, y, X)
        ratio = sw / fit.vcov
        assert np.all(np.abs(ratio - 1.0) < 0.15)


class TestEvaluationCount:
    """Each evaluated coefficient vector costs one normal_tail_terms pass
    (log Phi, lambda and delta) over the n rows; accepted points are not
    re-evaluated."""

    @staticmethod
    def count_stdnorm(monkeypatch):
        calls = []
        kernel = probit.normal_tail_terms

        def counted(z):
            calls.append(np.size(z))
            return kernel(z)

        monkeypatch.setattr(probit, "normal_tail_terms", counted)
        return calls

    @staticmethod
    def per_point(calls, n):
        assert set(calls) == {n}
        return len(calls)

    def test_fit_without_halvings_and_sandwich(self, monkeypatch):
        rng = np.random.default_rng(3)
        n = 300
        X = np.column_stack([np.ones(n), rng.normal(size=n)])
        y = (rng.uniform(size=n) < normal_cdf(0.2 + 0.6 * X[:, 1])).astype(float)
        calls = self.count_stdnorm(monkeypatch)
        fit = probit.fit(y, X)
        assert fit.score_norm < probit.SCORE_TOL and len(fit.loglik_path) == fit.iterations + 1
        assert self.per_point(calls, n) == fit.iterations + 1
        calls.clear()
        probit.sandwich_vcov(fit, y, X)
        assert calls == []  # the sandwich reads g and w kept on the fit

    def test_fit_with_halvings_makes_one_pass_per_candidate(self, monkeypatch):
        # near this draw's optimum the likelihood is flat to an ulp: full
        # steps lose an ulp, so the last one is halved to exhaustion before
        # terminal refinement accepts it
        rng = np.random.default_rng(1)
        n = 100
        X = np.column_stack([np.ones(n), rng.normal(size=n)])
        y = (rng.uniform(size=n) < normal_cdf(0.5 + 2.0 * X[:, 1])).astype(float)
        points = []
        terms = probit._terms

        def counted_terms(coef, Xs):
            points.append(coef)
            return terms(coef, Xs)

        monkeypatch.setattr(probit, "_terms", counted_terms)
        calls = self.count_stdnorm(monkeypatch)
        fit = probit.fit(y, X)
        assert fit.score_norm < probit.SCORE_TOL and len(points) > fit.iterations + 1
        assert self.per_point(calls, n) == len(points)
        # every evaluation but the start and one per iteration was a rejected candidate
        assert fit.halvings == len(points) - fit.iterations - 1 > 0


def _mixed_batch():
    """Five 100-row samples: an ordinary fit, the step-halving draw of
    TestEvaluationCount, a separated sample, a rank-deficient design and a
    single-class y."""
    n = 100
    ones = np.ones(n)
    rng = np.random.default_rng(17)
    x = rng.normal(size=n)
    ordinary = ((rng.uniform(size=n) < normal_cdf(0.2 + 0.7 * x)).astype(float),
                np.column_stack([ones, x]))
    rng = np.random.default_rng(1)
    x = rng.normal(size=n)
    halving = ((rng.uniform(size=n) < normal_cdf(0.5 + 2.0 * x)).astype(float),
               np.column_stack([ones, x]))
    x = np.concatenate([np.linspace(-2, -0.02, n // 2), np.linspace(0.02, 2, n // 2)])
    separated = ((x > 0).astype(float), np.column_stack([ones, x]))
    rank_deficient = (ordinary[0], np.column_stack([ones, 2.0 * ones]))
    single_class = (ones, ordinary[1])
    return [ordinary, halving, separated, rank_deficient, single_class]


class TestFitMany:
    """fit_many drives fit's Newton loop for a batch of samples."""

    FIELDS = ("coef", "vcov", "loglik", "iterations", "score_norm", "labels", "loglik_path",
              "halvings", "g", "w")

    @classmethod
    def assert_matches_fit(cls, batch, many):
        assert len(many) == len(batch)
        for (y, X), got in zip(batch, many):
            try:
                want = probit.fit(y, X, labels=["a", "b"])
            except (probit.ProbitError, ValueError) as exc:
                assert type(got) is type(exc) and str(got) == str(exc)
                continue
            for name in cls.FIELDS:
                assert np.array_equal(getattr(got, name), getattr(want, name)), name
        kinds = [type(r) for r in many]
        assert kinds == [probit.ProbitFit, probit.ProbitFit, probit.SeparationError,
                         probit.RankDeficientError, ValueError]
        assert many[1].halvings > 0  # the halving draw

    def test_matches_fit_bit_for_bit_and_isolates_errors(self):
        batch = _mixed_batch()
        many = probit.fit_many([y for y, _ in batch], [X for _, X in batch], labels=["a", "b"])
        self.assert_matches_fit(batch, many)

    def test_one_solve_per_round_and_one_qr_per_batch(self, monkeypatch):
        batch = _mixed_batch()
        events = []
        for name in ("solve", "qr", "inv"):
            def counted(a, *args, original=getattr(probit.np.linalg, name), name=name, **kwargs):
                events.append((name, np.shape(a)))
                return original(a, *args, **kwargs)

            monkeypatch.setattr(probit.np.linalg, name, counted)
        kernel = probit.normal_tail_terms

        def counted_kernel(z):
            events.append(("kernel", np.shape(z)))
            return kernel(z)

        monkeypatch.setattr(probit, "normal_tail_terms", counted_kernel)
        many = probit.fit_many([y for y, _ in batch], [X for _, X in batch])
        assert events[0] == ("qr", (5, 100, 2))
        assert events[1:3] == [("kernel", (3, 100)), ("solve", (3, 2, 2))]  # three samples start
        names = [name for name, _ in events]
        # how many rounds the halving draw takes moves with the BLAS kernel's last bits
        assert names.count("qr") == 1 and many[1].halvings > 0
        # the two samples that converge are finished together, after the last round
        assert names.count("inv") == 1 and events[-1] == ("inv", (2, 2, 2))
        # a solve follows a kernel pass and solves that round's whole block;
        # every kernel pass, rejected candidates included, makes exactly one
        for before, (name, shape) in zip(events[1:], events[2:]):
            if name == "solve":
                assert before[0] == "kernel" and shape[0] == before[1][0]
        assert names.count("solve") == names.count("kernel")

    def test_singular_stacked_solve_falls_back_per_sample(self, monkeypatch):
        solve = np.linalg.solve

        def singular_stack(a, b):
            if np.ndim(a) == 3:
                raise np.linalg.LinAlgError("Singular matrix")
            return solve(a, b)

        batch = _mixed_batch()
        monkeypatch.setattr(probit.np.linalg, "solve", singular_stack)
        many = probit.fit_many([y for y, _ in batch], [X for _, X in batch], labels=["a", "b"])
        monkeypatch.undo()
        self.assert_matches_fit(batch, many)

    @staticmethod
    def singular_inverse(monkeypatch, singular):
        """np.linalg.inv raising on a stack of more than one matrix, and on the
        per-sample calls singular says to fail (it is given their count so far)."""
        inv, singles = np.linalg.inv, []

        def patched(a):
            if np.ndim(a) == 3 and len(a) == 1:
                singles.append(a)
            if np.ndim(a) == 3 and (len(a) > 1 or singular(len(singles))):
                raise np.linalg.LinAlgError("Singular matrix")
            return inv(a)

        monkeypatch.setattr(probit.np.linalg, "inv", patched)

    def test_singular_stacked_inverse_falls_back_per_sample(self, monkeypatch):
        batch = _mixed_batch()
        self.singular_inverse(monkeypatch, lambda count: False)
        many = probit.fit_many([y for y, _ in batch], [X for _, X in batch], labels=["a", "b"])
        monkeypatch.undo()
        self.assert_matches_fit(batch, many)

    def test_a_singular_information_fails_only_its_own_sample(self, monkeypatch):
        batch = _mixed_batch()
        want = probit.fit_many([y for y, _ in batch], [X for _, X in batch])
        # the per-sample fallback finishes the samples in order: the first is the ordinary fit
        self.singular_inverse(monkeypatch, lambda count: count == 1)
        many = probit.fit_many([y for y, _ in batch], [X for _, X in batch])
        assert type(many[0]) is probit.ProbitError
        assert str(many[0]) == "observed information is singular at the optimum"
        assert isinstance(many[0].__cause__, np.linalg.LinAlgError)
        for name in self.FIELDS:
            assert np.array_equal(getattr(many[1], name), getattr(want[1], name)), name
        assert [type(r) for r in many[2:]] == [type(r) for r in want[2:]]
        assert [str(r) for r in many[2:]] == [str(r) for r in want[2:]]
        # fit finishes its one sample through the same code
        self.singular_inverse(monkeypatch, lambda count: True)
        with pytest.raises(probit.ProbitError, match="^observed information is singular"):
            probit.fit(*batch[1])

    def test_one_kernel_call_per_round(self, monkeypatch):
        batch = _mixed_batch()
        evaluations = []
        terms = probit._terms

        def counted_terms(coef, Xs):
            evaluations[-1] += 1
            return terms(coef, Xs)

        monkeypatch.setattr(probit, "_terms", counted_terms)
        fits = []
        for y, X in batch:
            evaluations.append(0)
            try:
                fits.append(probit.fit(y, X))
            except (probit.ProbitError, ValueError):
                pass
        calls = TestEvaluationCount.count_stdnorm(monkeypatch)
        evaluations.append(0)
        probit.fit_many([y for y, _ in batch], [X for _, X in batch])
        rounds = evaluations.pop()
        # a round stacks every pending sample into one _terms call, so the
        # batch takes as many rounds as its longest fit takes evaluations
        assert len(calls) == rounds == max(evaluations) == evaluations[1]
        assert fits[1].halvings > 0  # the halving draw; its count moves with the BLAS kernel
        assert calls[0] == 3 * 100  # the rank-deficient and single-class samples never start

    def test_records_the_iteration_cap_error_for_exactly_the_samples_that_reach_it(
            self, monkeypatch):
        # simulate --n 189's first 16 streams: their fits take 5 to 7 Newton steps
        Y, X = _stream_block(189, 7, reps=16)
        uncapped = probit.fit_many(Y, X)
        monkeypatch.setattr(probit, "MAX_ITER", 6)
        many = probit.fit_many(Y, X)
        capped = [r for r, fit in enumerate(uncapped) if fit.iterations > 6]
        assert capped == [1, 2]
        for r, (got, want) in enumerate(zip(many, uncapped)):
            if r in capped:
                assert type(got) is probit.ProbitError
                assert str(got).startswith("probit on ['x0', 'x1', 'x2', 'x3'] did not converge: "
                                           "iteration cap 6 reached (score norm ")
                with pytest.raises(probit.ProbitError) as raised:
                    probit.fit(Y[r], X[r])
                assert str(raised.value) == str(got)
                continue
            assert got.score_norm < probit.SCORE_TOL
            for name in self.FIELDS:
                assert np.array_equal(getattr(got, name), getattr(want, name)), name

    def test_programming_error_propagates(self, monkeypatch):
        terms = probit._terms

        def broken(coef, Xs):
            # a score norm that cannot be compared: a bug inside the Newton loop
            return terms(coef, Xs)._replace(score_norm=[None] * len(coef))

        monkeypatch.setattr(probit, "_terms", broken)
        batch = _mixed_batch()
        with pytest.raises(TypeError):
            probit.fit_many([y for y, _ in batch], [X for _, X in batch])

    def test_malformed_batch_rejected(self):
        y, X = _mixed_batch()[0]
        with pytest.raises(ValueError, match="must be"):
            probit.fit_many(y, X)
        with pytest.raises(ValueError, match="must be"):
            probit.fit_many([y], [X[:-1]])
        with pytest.raises(ValueError, match="binary"):
            probit.fit_many([y, 2.0 * y], [X, X])
        bad = X.copy()
        bad[5, 1] = np.nan
        with pytest.raises(ValueError, match="NaN or infinite"):
            probit.fit_many([y, y], [X, bad])


def _pinned_digest(n):
    config = synth.DgpConfig(selection_coef=SIM_SELECTION_COEF, outcome_coef=SIM_OUTCOME_COEF,
                             rho=0.5, sigma_u=1.0, n=n, seed=7)
    h = hashlib.sha256()
    for rep in range(10):
        frame = synth.generate(config, rep).frame
        fit = probit.fit(frame.selection_y, frame.selection_X, labels=frame.selection_labels)
        sandwich = probit.sandwich_vcov(fit, frame.selection_y, frame.selection_X)
        for a in (fit.coef, fit.vcov, fit.loglik_path, [fit.score_norm], sandwich):
            h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
        h.update(str(fit.iterations).encode())
    return h.hexdigest()


# sha256 over the first 10 Monte Carlo replication streams (seed 7) of the
# `simulate --n 189` and the default n = 2000 configurations, recorded on
# x86_64 with numpy 2.4.6 and its bundled OpenBLAS.  Reworking the Newton
# loop must leave every bit of ProbitFit and sandwich_vcov in place.
PINNED_DIGESTS = {
    189: "361abf44ca5e622999cfff716c7db71566e51031ea332e7c9d73a4db7177ed6e",
    2000: "a497e268dbdaf58dcf678da8b33b688c7fda47748c5db025fc7da1cb511fbcae",
}


@pytest.mark.parametrize("n", sorted(PINNED_DIGESTS))
def test_fit_bits_pinned_on_monte_carlo_streams(n):
    assert _pinned_digest(n) == PINNED_DIGESTS[n]


@pytest.mark.parametrize("n", sorted(PINNED_DIGESTS))
def test_fit_many_matches_fit_on_monte_carlo_streams(n):
    # the stacked pass must give the pinned per-sample bits, sandwich included
    config = synth.DgpConfig(selection_coef=SIM_SELECTION_COEF, outcome_coef=SIM_OUTCOME_COEF,
                             rho=0.5, sigma_u=1.0, n=n, seed=7)
    frames = [synth.generate(config, rep).frame for rep in range(10)]
    many = probit.fit_many([f.selection_y for f in frames], [f.selection_X for f in frames],
                           labels=frames[0].selection_labels)
    for frame, got in zip(frames, many):
        want = probit.fit(frame.selection_y, frame.selection_X, labels=frame.selection_labels)
        for name in TestFitMany.FIELDS:
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert np.array_equal(probit.sandwich_vcov(got, frame.selection_y, frame.selection_X),
                              probit.sandwich_vcov(want, frame.selection_y, frame.selection_X))


def _stream_block(n, seed, reps=8):
    """The first reps replications of simulate's default process at n and seed, as
    one Monte Carlo chunk hands them to fit_many: (Y (reps, n), X (reps, n, k))."""
    config = synth.DgpConfig(selection_coef=SIM_SELECTION_COEF, outcome_coef=SIM_OUTCOME_COEF,
                             rho=0.5, sigma_u=1.0, n=n, seed=seed)
    sel_X, _, _, selected = synth._draw(config, np.random.Philox(key=seed),
                                        [rep + 1 for rep in range(reps)])[:4]
    return selected.astype(float), sel_X


class TestSignedDesign:
    """_terms on the sign-folded design gives the bits of the unsigned pass,
    tests/unsigned_terms.py, on every quantity the Newton loop and the fit read."""

    @staticmethod
    def assert_same(point, ones, want):
        ll, g, grad, w, info, step = want
        assert np.array_equal(point.ll, ll, equal_nan=True)
        assert np.array_equal(np.where(ones, point.lam, -point.lam), g, equal_nan=True)
        for got, expected in ((point.grad, grad), (point.w, w), (point.info, info)):
            assert np.array_equal(got, expected, equal_nan=True)
        assert (point.step is None) == (step is None)
        if step is not None:
            assert np.array_equal(point.step, step, equal_nan=True)

    # the mc_paper (n = 189) and mc_large (n = 2000) benchmark streams at seed 101
    @pytest.mark.parametrize("n", [189, 2000])
    def test_every_newton_pass_matches_the_unsigned_pass(self, monkeypatch, n):
        Y, X = _stream_block(n, 101)
        ones = Y == 1.0
        signed = probit._signed(ones, X)
        passes, terms = [], probit._terms

        def recorded(coef, Xs):
            point = terms(coef, Xs)
            passes.append((coef, Xs, point))
            return point

        monkeypatch.setattr(probit, "_terms", recorded)
        fits = probit.fit_many(Y, X)
        single = probit.fit(Y[3], X[3])
        assert len(passes) > 2 * single.iterations
        for coef, Xs, point in passes:
            # the samples of the pass, found by their signed designs: one, or a round's block
            rows = [next(r for r in range(len(Y)) if np.array_equal(x, signed[r]))
                    for x in Xs.reshape(-1, *Xs.shape[-2:])]
            rows = rows if Xs.ndim == 3 else rows[0]
            self.assert_same(point, ones[rows], unsigned_terms.terms(coef, ones[rows], X[rows]))
        for y, x, fit in zip(ones, X, [*fits, single]):
            _, g, _, w, _, _ = unsigned_terms.terms(fit.coef, y, x)
            assert np.array_equal(fit.g, g) and np.array_equal(fit.w, w)

    def test_infinite_indexes_match_the_unsigned_pass(self):
        # x * 1e308 overflows to +-inf on rows with |x| > 1.8; both classes meet both signs
        rng = np.random.default_rng(5)
        X = np.stack([np.column_stack([np.ones(50), rng.normal(scale=2.0, size=50)])
                      for _ in range(3)])
        ones = rng.uniform(size=(3, 50)) < 0.5
        coef = np.array([[0.0, 1e308], [0.0, -1e308], [0.3, 0.7]])
        # the overflow, and the inf - inf and inf * 0 it feeds, are the point here
        with np.errstate(over="ignore", invalid="ignore"):
            idx = np.where(ones, 1.0, -1.0) * (X @ coef[..., None])[..., 0]
            assert np.isposinf(idx[:2]).any() and np.isneginf(idx[:2]).any()
            self.assert_same(probit._terms(coef, probit._signed(ones, X)), ones,
                             unsigned_terms.terms(coef, ones, X))
            for r in range(3):
                self.assert_same(probit._terms(coef[r], probit._signed(ones[r], X[r])), ones[r],
                                 unsigned_terms.terms(coef[r], ones[r], X[r]))

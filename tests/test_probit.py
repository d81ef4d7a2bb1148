"""Probit estimator tests: closed forms, finite differences, grid-search oracle."""

import hashlib
import math
from collections import Counter

import numpy as np
import pytest
from numpy.testing import assert_allclose

from vaxsel import probit, synth
from vaxsel.cli import SIM_OUTCOME_COEF, SIM_SELECTION_COEF
from vaxsel.stdnorm import inverse_mills, inverse_mills_delta, normal_cdf

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
        assert fit.converged
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
        assert_allclose(probit.predict_prob(fit2, Xs), probit.predict_prob(fit1, X), atol=1e-8)

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

    def test_nonconvergence_reported_honestly(self):
        rng = np.random.default_rng(6)
        X = np.column_stack([np.ones(200), rng.normal(size=200)])
        y = (rng.uniform(size=200) < normal_cdf(0.5 + 1.2 * X[:, 1])).astype(float)
        fit = probit.fit(y, X, max_iter=1)
        assert not fit.converged
        assert fit.score_norm >= 1e-8
        assert fit.iterations == 1


class TestPredictProb:
    def test_zero_coef_gives_half(self):
        fit = probit.fit(np.array([0.0, 1.0] * 8), np.ones((16, 1)))
        assert_allclose(probit.predict_prob(fit, np.ones((4, 1))), 0.5, atol=1e-9)

    def test_large_index_saturates(self):
        rng = np.random.default_rng(1)
        X = np.column_stack([np.ones(200), rng.normal(size=200)])
        y = (rng.uniform(size=200) < normal_cdf(1.0 + 2.0 * X[:, 1])).astype(float)
        fit = probit.fit(y, X)
        p = probit.predict_prob(fit, np.array([[1.0, 50.0]]))
        assert p[0] == pytest.approx(1.0, abs=1e-12)


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
    """Each evaluated coefficient vector costs one log Phi, one lambda and
    one delta pass over the n rows; accepted points are not re-evaluated."""

    @staticmethod
    def count_stdnorm(monkeypatch):
        calls = []
        for name in ("log_normal_cdf", "inverse_mills", "inverse_mills_delta"):
            def counted(z, _name=name, _fn=getattr(probit, name)):
                calls.append((_name, np.size(z)))
                return _fn(z)

            monkeypatch.setattr(probit, name, counted)
        return calls

    @staticmethod
    def per_function(calls, n):
        assert {size for _, size in calls} == {n}
        counts = Counter(name for name, _ in calls)
        assert len(counts) == 3 and len(set(counts.values())) == 1
        return next(iter(counts.values()))

    def test_fit_without_halvings_and_sandwich(self, monkeypatch):
        rng = np.random.default_rng(3)
        n = 300
        X = np.column_stack([np.ones(n), rng.normal(size=n)])
        y = (rng.uniform(size=n) < normal_cdf(0.2 + 0.6 * X[:, 1])).astype(float)
        calls = self.count_stdnorm(monkeypatch)
        fit = probit.fit(y, X)
        assert fit.converged and len(fit.loglik_path) == fit.iterations + 1
        assert self.per_function(calls, n) == fit.iterations + 1
        calls.clear()
        probit.sandwich_vcov(fit, y, X)
        assert self.per_function(calls, n) == 1

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

        def counted_terms(coef, y, X):
            points.append(coef)
            return terms(coef, y, X)

        monkeypatch.setattr(probit, "_terms", counted_terms)
        calls = self.count_stdnorm(monkeypatch)
        fit = probit.fit(y, X)
        assert fit.converged and len(points) > fit.iterations + 1
        assert self.per_function(calls, n) == len(points)


def _pinned_digest(n):
    config = synth.DgpConfig(selection_coef=SIM_SELECTION_COEF, outcome_coef=SIM_OUTCOME_COEF,
                             rho=0.5, sigma_u=1.0, n=n, seed=7)
    h = hashlib.sha256()
    for rep in range(10):
        frame = synth._generate_with(config, synth.replication_stream(config, rep)).frame
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

"""Two-step estimator tests: OLS oracle, Monte Carlo recovery, covariance variants."""

import dataclasses

import numpy as np
import pytest
from numpy.testing import assert_allclose

from vaxsel import heckman, probit, stdnorm, synth
from vaxsel.cli import SIM_OUTCOME_COEF, SIM_SELECTION_COEF
from vaxsel.panel import ModelFrame
from vaxsel.probit import RankDeficientError

RHO_HALF_CONFIG = synth.DgpConfig(
    selection_coef=(1.0, -0.5, 1.0, 0.0),
    outcome_coef=(1.0, 0.5, 1.0),
    rho=0.5,
    sigma_u=1.0,
    n=2000,
    seed=5,
)


def simple_frame(rng, n=400, rho=0.5, gamma_w=1.0):
    """Continuous-covariate frame with one excluded instrument."""
    x = rng.standard_normal(n)
    w = rng.standard_normal(n)
    e = rng.standard_normal(n)
    u = rho * e + np.sqrt(1 - rho**2) * rng.standard_normal(n)
    selected = 0.8 * x + gamma_w * w + 0.2 + e > 0
    y = 1.0 + 2.0 * x + u
    ns = int(selected.sum())
    return ModelFrame(
        selection_y=selected.astype(float),
        selection_X=np.column_stack([x, w, np.ones(n)]),
        selection_labels=["x", "w", "const"],
        outcome_y=y[selected],
        outcome_X=np.column_stack([x[selected], np.ones(ns)]),
        outcome_labels=["x", "const"],
        outcome_keep=np.ones(ns, dtype=bool),
    )


def corrected_parts(frame, fit):
    """W (outcome_X and the Mills column), delta and Z of fit on frame's kept selected
    rows: the design arguments of heckman_corrected_vcov."""
    selected = frame.selection_y == 1.0
    g, w = (a[selected][frame.outcome_keep] for a in (fit.first_stage.g, fit.first_stage.w))
    return (np.column_stack([frame.outcome_X, g]), w,
            frame.selection_X[selected][frame.outcome_keep])


class TestOls:
    def test_exact_line(self):
        x = np.arange(10, dtype=float)
        X = np.column_stack([np.ones(10), x])
        coef, resid = heckman.ols(2.0 * x, X)
        assert_allclose(coef, [0.0, 2.0], atol=1e-12)
        assert_allclose(resid, 0.0, atol=1e-12)

    def test_constant_response(self):
        x = np.linspace(-1, 1, 12)
        X = np.column_stack([np.ones(12), x])
        coef, _ = heckman.ols(np.full(12, 5.0), X)
        assert_allclose(coef, [5.0, 0.0], atol=1e-12)

    def test_against_normal_equations_oracle(self):
        rng = np.random.default_rng(17)
        X = np.column_stack([np.ones(20), rng.normal(size=(20, 2))])
        y = rng.normal(size=20)
        coef, resid = heckman.ols(y, X)
        oracle = np.linalg.solve(X.T @ X, X.T @ y)
        assert_allclose(coef, oracle, atol=1e-9)
        assert np.max(np.abs(X.T @ resid)) < 1e-8

    def test_rank_deficiency_names_columns(self):
        x = np.linspace(0, 1, 15)
        X = np.column_stack([np.ones(15), x, 3 * x])
        with pytest.raises(RankDeficientError) as err:
            heckman.ols(x, X, labels=["const", "a", "a_scaled"])
        assert "a_scaled" in str(err.value)

    def test_rank_deficiency_the_qr_misses_names_every_column(self):
        # Kahan's matrix: every QR diagonal entry is at least sin(1.2)^89 ~ 2e-3, yet
        # s_min / s_max ~ 5e-16, below the SVD test's 91 * eps
        k, theta = 90, 1.2
        kahan = np.diag(np.sin(theta) ** np.arange(k)) @ (
            np.eye(k) - np.cos(theta) * np.triu(np.ones((k, k)), 1))
        X = np.vstack([kahan, np.zeros(k)])
        labels = [f"c{j}" for j in range(k)]
        assert probit.collinear_columns(X, labels) == []
        with pytest.raises(RankDeficientError) as err:
            heckman.ols(np.ones(k + 1), X, labels=labels)
        assert err.value.columns == labels

    def test_rank_is_lstsqs_rank_under_the_singular_value_rule(self):
        # the last column is the first times (1 + 10^-e r), r a fixed normal draw, for
        # e = 6..17, then an exact copy: ols fails exactly where s_min <= max(n, k) *
        # eps * s_max on lstsq's own singular values, the rule lstsq's rank applies
        # with rcond=None (here from e = 14 on)
        x, z, r, y = np.random.default_rng(23).standard_normal((4, 40))
        verdicts = []
        for factor in [1.0 + 10.0 ** -e * r for e in range(6, 18)] + [1.0]:
            X = np.column_stack([x, z, factor * x])
            s = np.linalg.lstsq(X, y, rcond=None)[3]
            deficient = s[-1] <= max(X.shape) * np.finfo(float).eps * s[0]
            try:
                heckman.ols(y, X)
                raised = False
            except RankDeficientError:
                raised = True
            assert raised == deficient, factor
            verdicts.append(raised)
        assert False in verdicts and True in verdicts

    def test_too_few_rows(self):
        X = np.column_stack([np.ones(3), np.arange(3.0), np.arange(3.0) ** 2])
        with pytest.raises(ValueError):
            heckman.ols(np.arange(3.0), X)

    @pytest.mark.parametrize("labels", [["const"], ["const", "x", "extra"]])
    def test_label_count_must_match_columns(self, labels):
        X = np.column_stack([np.ones(10), np.arange(10.0)])
        with pytest.raises(ValueError, match=f"{len(labels)} labels for 2 columns"):
            heckman.ols(2.0 * np.arange(10.0), X, labels=labels)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["y", "X"])
    def test_non_finite_input_rejected(self, bad, where):
        X = np.column_stack([np.ones(10), np.arange(10.0)])
        y = 2.0 * np.arange(10.0)
        (y if where == "y" else X)[4, ...] = bad
        with pytest.raises(ValueError, match="NaN or infinite"):
            heckman.ols(y, X)


class TestSignificanceStars:
    def test_reference_cells(self):
        assert heckman.significance_stars(0.718, 0.217) == "***"
        assert heckman.significance_stars(0.574, 0.697) == ""
        assert heckman.significance_stars(0.0, 1.0) == ""

    def test_thresholds(self):
        assert heckman.significance_stars(1.96, 1.0) == "**"
        assert heckman.significance_stars(1.95, 1.0) == "*"
        assert heckman.significance_stars(-2.6, 1.0) == "***"

    def test_bad_se(self):
        with pytest.raises(ValueError):
            heckman.significance_stars(1.0, 0.0)


class TestFitTwoStep:
    def test_rho_zero_mean_imr_near_zero(self):
        cfg = dataclasses.replace(RHO_HALF_CONFIG, rho=0.0)
        report = synth.monte_carlo(cfg, 200)
        assert abs(report.parameter("imr_lambda").mean_bias) < 0.05

    def test_rho_half_recovers_truth(self):
        report = synth.monte_carlo(RHO_HALF_CONFIG, 200)
        assert abs(report.parameter("imr_lambda").mean_estimate - 0.5) < 0.05
        assert abs(report.parameter("x1").mean_bias) < 0.05
        assert abs(report.parameter("x2").mean_bias) < 0.05

    def test_reordering_rows_changes_nothing(self):
        # permute the underlying units and rebuild the frame, keeping the
        # outcome rows aligned with the selected rows in the new order
        rng = np.random.default_rng(3)
        n = 400
        x = rng.standard_normal(n)
        w = rng.standard_normal(n)
        e = rng.standard_normal(n)
        u = 0.5 * e + np.sqrt(0.75) * rng.standard_normal(n)
        y_all = 1.0 + 2.0 * x + u

        def frame_from(order):
            xo, wo, eo, yo = x[order], w[order], e[order], y_all[order]
            selected = 0.8 * xo + wo + 0.2 + eo > 0
            ns = int(selected.sum())
            return ModelFrame(
                selection_y=selected.astype(float),
                selection_X=np.column_stack([xo, wo, np.ones(n)]),
                selection_labels=["x", "w", "const"],
                outcome_y=yo[selected],
                outcome_X=np.column_stack([xo[selected], np.ones(ns)]),
                outcome_labels=["x", "const"],
                outcome_keep=np.ones(ns, dtype=bool),
            )

        fit1 = heckman.fit_two_step(frame_from(np.arange(n)))
        fit2 = heckman.fit_two_step(frame_from(np.random.default_rng(1).permutation(n)))
        assert_allclose(fit2.outcome_coef, fit1.outcome_coef, atol=1e-12)
        assert fit2.sigma2 == pytest.approx(fit1.sigma2, abs=1e-12)
        assert_allclose(fit2.first_stage.coef, fit1.first_stage.coef, atol=1e-12)

    def test_all_selected_degrades_to_ols(self):
        rng = np.random.default_rng(8)
        n = 120
        x = rng.standard_normal(n)
        y = 0.5 + 1.5 * x + rng.standard_normal(n)
        X = np.column_stack([x, np.ones(n)])
        frame = ModelFrame(
            selection_y=np.ones(n),
            selection_X=np.column_stack([x, rng.standard_normal(n), np.ones(n)]),
            selection_labels=["x", "w", "const"],
            outcome_y=y,
            outcome_X=X,
            outcome_labels=["x", "const"],
            outcome_keep=np.ones(n, dtype=bool),
        )
        fit = heckman.fit_two_step(frame)
        assert fit.first_stage is None
        assert fit.outcome_labels == ["x", "const"]  # no Mills column
        ols_coef, _ = heckman.ols(y, X)
        assert_allclose(fit.outcome_coef, ols_coef, atol=1e-8)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("column", ["outcome_y", "outcome_X"])
    def test_non_finite_outcome_data_rejected(self, bad, column):
        frame = simple_frame(np.random.default_rng(2))
        values = getattr(frame, column).copy()
        values[3, ...] = bad
        with pytest.raises(ValueError, match="NaN or infinite"):
            heckman.fit_two_step(dataclasses.replace(frame, **{column: values}))

    def test_square_outcome_design_needs_another_row(self):
        # three outcome rows kept for three columns of W (x, const, Mills)
        frame = simple_frame(np.random.default_rng(4))
        keep = np.zeros(frame.outcome_keep.shape[0], dtype=bool)
        keep[:3] = True
        square = dataclasses.replace(frame, outcome_keep=keep, outcome_y=frame.outcome_y[:3],
                                     outcome_X=frame.outcome_X[:3])
        with pytest.raises(ValueError, match="need at least 4 rows to fit 3 coefficients"):
            heckman.fit_two_step(square)

    @staticmethod
    def spy_on_first_stage(monkeypatch):
        """The list of ProbitFits that probit.fit returns from here on, and a flag,
        inside[0], that is True while probit.fit runs, so that a counter can leave
        out the first stage's own calls."""
        fits, inside = [], [False]

        def spy(*args, original=probit.fit, **kwargs):
            inside[0] = True
            try:
                fits.append(original(*args, **kwargs))
            finally:
                inside[0] = False
            return fits[-1]

        monkeypatch.setattr(probit, "fit", spy)
        return fits, inside

    def test_one_decomposition_of_the_outcome_design(self, monkeypatch):
        frame = simple_frame(np.random.default_rng(6))
        firsts, inside = self.spy_on_first_stage(monkeypatch)
        calls = {"lstsq": 0, "cond": 0, "qr": 0, "collinear_columns": 0}

        def counting(owner, name):
            original = getattr(owner, name)

            def wrapper(*args, **kwargs):
                calls[name] += not inside[0]
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)

        for name in ("lstsq", "cond", "qr"):
            counting(np.linalg, name)
        counting(probit, "collinear_columns")
        fit = heckman.fit_two_step(frame)
        assert len(firsts) == 1 and fit.first_stage is firsts[0]
        # both covariance variants are computed inside the fit
        assert calls == {"lstsq": 1, "cond": 0, "qr": 0, "collinear_columns": 0}

    def test_second_stage_reads_lambda_and_delta_from_the_first_stage(self, monkeypatch):
        frame = simple_frame(np.random.default_rng(7))
        want = heckman.fit_two_step(frame)
        firsts, inside = self.spy_on_first_stage(monkeypatch)
        stages = []

        def second_stages(*args, original=heckman.second_stages):
            stages.append(original(*args))
            return stages[-1]

        monkeypatch.setattr(heckman, "second_stages", second_stages)
        calls = []
        for module in (probit, stdnorm, heckman):
            if hasattr(module, "normal_tail_terms"):
                def counted(z, kernel=module.normal_tail_terms):
                    if not inside[0]:
                        calls.append(np.size(z))
                    return kernel(z)

                monkeypatch.setattr(module, "normal_tail_terms", counted)
        fit = heckman.fit_two_step(frame)
        assert calls == []
        (first,), (stage,) = firsts, stages
        assert fit.first_stage is first
        selected = frame.selection_y == 1.0
        assert np.array_equal(stage.design[0, :, -1], first.g[selected][frame.outcome_keep])
        assert np.array_equal(fit.outcome_coef, want.outcome_coef)
        assert "delta" not in {f.name for f in dataclasses.fields(heckman.HeckmanFit)}

    def test_outcome_label_count_must_match_columns(self):
        # without "const" the constant's estimate would be printed under imr_lambda
        frame = dataclasses.replace(simple_frame(np.random.default_rng(11)), outcome_labels=["x"])
        with pytest.raises(ValueError, match="1 labels for 2 columns"):
            heckman.fit_two_step(frame)

    def test_rho_zero_two_step_close_to_naive_ols(self):
        rng = np.random.default_rng(77)
        reps = 120
        diffs, ses = [], []
        for _ in range(reps):
            frame = simple_frame(rng, n=600, rho=0.0)
            fit = heckman.fit_two_step(frame)
            naive, _ = heckman.ols(frame.outcome_y, frame.outcome_X)
            diffs.append(fit.outcome_coef[0] - naive[0])
        diffs = np.asarray(diffs)
        mc_se = diffs.std(ddof=1) / np.sqrt(reps)
        assert abs(diffs.mean()) < 2 * mc_se + 1e-3

    def test_collinear_mills_error_advises_instrument(self):
        rng = np.random.default_rng(5)
        n = 150
        x = (rng.uniform(size=n) < 0.5).astype(float)
        e = rng.standard_normal(n)
        selected = 0.8 * x + 0.2 + e > 0
        y = 1.0 + 2.0 * x + rng.standard_normal(n)
        ns = int(selected.sum())
        frame = ModelFrame(
            selection_y=selected.astype(float),
            selection_X=np.column_stack([x, np.ones(n)]),
            selection_labels=["x", "const"],
            outcome_y=y[selected],
            outcome_X=np.column_stack([x[selected], np.ones(ns)]),
            outcome_labels=["x", "const"],
            outcome_keep=np.ones(ns, dtype=bool),
        )
        with pytest.raises(heckman.CollinearMillsError) as err:
            heckman.fit_two_step(frame)
        assert "exclusion restriction" in str(err.value)

    def test_collinear_outcome_design_is_a_rank_error_naming_the_column(self):
        # the condition check fires, but the Mills column is not what is collinear
        frame = simple_frame(np.random.default_rng(12))
        x = frame.outcome_X[:, 0]
        frame = dataclasses.replace(
            frame, outcome_X=np.column_stack([x, 2.0 * x, np.ones(x.size)]),
            outcome_labels=["x", "x_twice", "const"])
        with pytest.raises(RankDeficientError) as err:
            heckman.fit_two_step(frame)
        assert err.value.columns == ["x_twice"]

    def test_exclusion_sanity_property(self):
        # binary shared covariate: without an instrument the fitted index
        # takes two values, so the Mills column is exactly linear in the
        # outcome design and the condition check must fire; with an
        # instrument it has genuine curvature and must not.
        def frame_for(rng, with_instrument):
            n = 120
            x = (rng.uniform(size=n) < 0.5).astype(float)
            e = rng.standard_normal(n)
            u = 0.5 * e + np.sqrt(0.75) * rng.standard_normal(n)
            if with_instrument:
                w = rng.standard_normal(n)
                sel_X = np.column_stack([x, w, np.ones(n)])
                labels = ["x", "w", "const"]
                idx = 0.8 * x + w + 0.2
            else:
                sel_X = np.column_stack([x, np.ones(n)])
                labels = ["x", "const"]
                idx = 0.8 * x + 0.2
            selected = idx + e > 0
            y = 1.0 + 2.0 * x + u
            ns = int(selected.sum())
            return ModelFrame(
                selection_y=selected.astype(float),
                selection_X=sel_X,
                selection_labels=labels,
                outcome_y=y[selected],
                outcome_X=np.column_stack([x[selected], np.ones(ns)]),
                outcome_labels=["x", "const"],
                outcome_keep=np.ones(ns, dtype=bool),
            )

        rng = np.random.default_rng(321)
        fires_same = fires_instrument = 0
        for _ in range(100):
            try:
                heckman.fit_two_step(frame_for(rng, False))
            except heckman.CollinearMillsError:
                fires_same += 1
            except Exception:
                pass
            try:
                heckman.fit_two_step(frame_for(rng, True))
            except heckman.CollinearMillsError:
                fires_instrument += 1
            except Exception:
                pass
        assert fires_same >= fires_instrument + 50
        assert fires_same >= 90
        assert fires_instrument <= 5


class TestPlainRobustVcov:
    def test_symmetric_psd(self):
        fit = heckman.fit_two_step(simple_frame(np.random.default_rng(1)))
        v, _ = fit.vcov[heckman.PLAIN_ROBUST]
        assert_allclose(v, v.T, atol=1e-14)
        assert np.all(np.linalg.eigvalsh(v) >= -1e-12)

    def test_homoskedastic_large_n_matches_classical(self):
        rng = np.random.default_rng(10)
        n = 5000
        x = rng.standard_normal(n)
        X = np.column_stack([np.ones(n), x])
        y = 1.0 + 0.5 * x + rng.standard_normal(n)
        _, resid = heckman.ols(y, X)
        hc1 = heckman.plain_robust_vcov(X, resid, n)
        classical = float(resid @ resid / (n - 2)) * np.linalg.inv(X.T @ X)
        # off-diagonals of both are ~0 here; the meaningful comparison is
        # entrywise on the variances
        assert np.all(np.abs(np.diag(hc1) / np.diag(classical) - 1.0) < 0.10)

    def test_duplicating_rows_roughly_halves_variance(self):
        rng = np.random.default_rng(12)
        frame = simple_frame(rng, n=400)
        fit1 = heckman.fit_two_step(frame)
        dup = dataclasses.replace(
            frame,
            selection_y=np.tile(frame.selection_y, 2),
            selection_X=np.tile(frame.selection_X, (2, 1)),
            outcome_y=np.tile(frame.outcome_y, 2),
            outcome_X=np.tile(frame.outcome_X, (2, 1)),
            outcome_keep=np.tile(frame.outcome_keep, 2),
        )
        fit2 = heckman.fit_two_step(dup)
        v1, v2 = (fit.vcov[heckman.PLAIN_ROBUST][0] for fit in (fit1, fit2))
        ratio = np.diag(v2) / np.diag(v1)
        assert np.all((ratio > 0.45) & (ratio < 0.55))


class TestHeckmanCorrectedVcov:
    def test_zero_imr_collapses_to_unadjusted(self):
        rng = np.random.default_rng(9)
        frame = simple_frame(rng)
        fit = heckman.fit_two_step(frame)
        rss = float(fit.residuals @ fit.residuals)
        W, delta, Z = corrected_parts(frame, fit)
        sigma2 = rss / len(fit.residuals)
        v = heckman.heckman_corrected_vcov(W, delta, Z, fit.first_stage.vcov, 0.0, sigma2)
        unadjusted = sigma2 * np.linalg.inv(W.T @ W)
        assert_allclose(v, unadjusted, atol=1e-10)

    def test_reads_delta_from_the_fit(self, monkeypatch):
        frame = simple_frame(np.random.default_rng(15))
        fit = heckman.fit_two_step(frame)
        stored, _ = fit.vcov[heckman.HECKMAN_CORRECTED]
        parts = corrected_parts(frame, fit)

        def refuse(*args, **kwargs):
            raise AssertionError("the corrected covariance recomputed a normal tail term")

        for module in (stdnorm, heckman):
            for name in ("normal_tail_terms", "inverse_mills_delta", "inverse_mills"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)
        assert np.array_equal(heckman.heckman_corrected_vcov(
            *parts, fit.first_stage.vcov, fit.rho**2, fit.sigma2), stored)

    def test_symmetric(self):
        frame = simple_frame(np.random.default_rng(14))
        v, _ = heckman.fit_two_step(frame).vcov[heckman.HECKMAN_CORRECTED]
        assert_allclose(v, v.T, atol=1e-14)

    def test_coverage_on_synthetic_truth(self):
        report = synth.monte_carlo(RHO_HALF_CONFIG, 500)
        for name in ("x1", "x2", "imr_lambda"):
            assert 0.93 <= report.parameter(name).coverage <= 0.97


class TestCovariancesOnDemand:
    """Each fit carries both variants' covariances, computed once by fit_two_step."""

    @staticmethod
    def frames(snapshot):
        from vaxsel.panel import build_model_frame
        from vaxsel.specs import apply_outlier_filter, builtin_specs

        # the simple frame and replicate's 13 cells: five models on the whole
        # panel, the first four under each outlier filter
        yield simple_frame(np.random.default_rng(21))
        for name, models in (("none", 5), ("table3", 4), ("table4", 4)):
            panel = apply_outlier_filter(snapshot, name)
            for spec in builtin_specs()[:models]:
                yield build_model_frame(panel, spec)

    @staticmethod
    def direct(frame, fit, variant):
        """The (outcome, selection) covariances from the functions themselves, on one
        sample rather than a stack of one."""
        W, delta, Z = corrected_parts(frame, fit)
        first = fit.first_stage
        if variant == heckman.PLAIN_ROBUST:
            return (heckman.plain_robust_vcov(W, fit.residuals, len(fit.residuals)),
                    probit.sandwich_vcov(first, frame.selection_y, frame.selection_X))
        return (heckman.heckman_corrected_vcov(W, delta, Z, first.vcov, fit.rho**2, fit.sigma2),
                first.vcov)

    @staticmethod
    def counting_covariance_calls(monkeypatch):
        calls = []
        for owner, name in ((heckman, "plain_robust_vcov"), (heckman, "heckman_corrected_vcov"),
                            (probit, "sandwich_vcov")):
            def wrapper(*args, original=getattr(owner, name), name=name, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, wrapper)
        return calls

    @pytest.mark.parametrize("variant", heckman.VCOV_VARIANTS)
    def test_each_variant_equals_the_direct_functions(self, snapshot, variant):
        frames = list(self.frames(snapshot))
        assert len(frames) == 14
        for frame in frames:
            fit = heckman.fit_two_step(frame)
            outcome, selection = fit.vcov[variant]
            direct_outcome, direct_selection = self.direct(frame, fit, variant)
            assert np.array_equal(outcome, direct_outcome)
            assert np.array_equal(selection, direct_selection)

    def test_one_fit_computes_each_covariance_once(self, monkeypatch):
        calls = self.counting_covariance_calls(monkeypatch)
        fit = heckman.fit_two_step(simple_frame(np.random.default_rng(25)))
        assert calls == ["plain_robust_vcov", "sandwich_vcov", "heckman_corrected_vcov"]
        assert list(fit.vcov) == list(heckman.VCOV_VARIANTS)
        fields = {f.name for f in dataclasses.fields(heckman.HeckmanFit)}
        assert not fields & {"frame", "design"}

    def test_variant_is_not_a_fit_argument(self):
        frame = simple_frame(np.random.default_rng(26))
        with pytest.raises(TypeError):
            heckman.fit_two_step(frame, heckman.PLAIN_ROBUST)
        with pytest.raises(TypeError):
            heckman.fit_two_step(frame, vcov_variant=heckman.PLAIN_ROBUST)

    def test_degenerate_fit_reports_robust_for_either_variant(self):
        rng = np.random.default_rng(23)
        n = 80
        x = rng.standard_normal(n)
        frame = ModelFrame(
            selection_y=np.ones(n),
            selection_X=np.column_stack([x, rng.standard_normal(n), np.ones(n)]),
            selection_labels=["x", "w", "const"],
            outcome_y=1.0 + x + rng.standard_normal(n),
            outcome_X=np.column_stack([x, np.ones(n)]),
            outcome_labels=["x", "const"],
            outcome_keep=np.ones(n, dtype=bool),
        )
        fit = heckman.fit_two_step(frame)
        robust, _ = fit.vcov[heckman.HECKMAN_CORRECTED]
        assert np.array_equal(robust, heckman.plain_robust_vcov(frame.outcome_X, fit.residuals, n))
        for variant in heckman.VCOV_VARIANTS:
            assert fit.vcov[variant][0] is robust and fit.vcov[variant][1] is None
        assert list(fit.vcov) == list(heckman.VCOV_VARIANTS)


class TestSecondStages:
    """A failing sample of a stacked second stage fails alone."""

    @staticmethod
    def stack(reps=6):
        """Six Monte Carlo samples at n = 189 packed as second_stages takes them, with
        the selection rows of each packed the same way, and their first stages."""
        config = synth.DgpConfig(SIM_SELECTION_COEF, SIM_OUTCOME_COEF, 0.5, 1.0, 189, 7)
        frames = [synth.generate(config, rep).frame for rep in range(reps)]
        firsts = [probit.fit(f.selection_y, f.selection_X) for f in frames]
        rows = np.array([f.outcome_y.shape[0] for f in frames])

        def packed(arrays):
            out = np.zeros((reps, rows.max()) + arrays[0].shape[1:])
            for r, a in enumerate(arrays):
                out[r, :rows[r]] = a
            return out

        sel = [f.selection_y == 1.0 for f in frames]
        return dict(
            y=packed([f.outcome_y for f in frames]), X=packed([f.outcome_X for f in frames]),
            mills=packed([first.g[s] for first, s in zip(firsts, sel)]),
            delta=packed([first.w[s] for first, s in zip(firsts, sel)]),
            rows=rows, labels=frames[0].outcome_labels, first_stages=firsts,
        ), packed([f.selection_X[s] for f, s in zip(frames, sel)])

    @staticmethod
    def spoil(args, r, how):
        """args with sample r made to fail as how says, and the error class it must raise."""
        args = {k: (v.copy() if isinstance(v, np.ndarray) else list(v)) for k, v in args.items()}
        if how == "collinear_mills":
            args["mills"][r] = 0.3 * args["X"][r, :, -1]
            return args, heckman.CollinearMillsError
        if how == "collinear_outcome":
            args["X"][r, :, 1] = 2.0 * args["X"][r, :, 0]
            return args, RankDeficientError
        if how == "too_few_rows":
            args["rows"][r] = 3
            for name in ("y", "X", "mills", "delta"):
                args[name][r, 3:] = 0.0
            return args, ValueError
        if how == "non_finite_outcome":
            args["y"][r, 1] = np.nan
            return args, ValueError
        if how == "singular_wtw":
            # the scale leaves W's singular values in proportion, but W'W underflows to 0
            for name in ("y", "X", "mills"):
                args[name][r] *= 1e-170
            return args, np.linalg.LinAlgError
        args["first_stages"][r] = probit.SeparationError("recorded by fit_many")
        return args, probit.SeparationError

    @pytest.mark.parametrize("variant", heckman.VCOV_VARIANTS)
    @pytest.mark.parametrize("how", ["collinear_mills", "collinear_outcome", "too_few_rows",
                                     "non_finite_outcome", "singular_wtw", "first_stage_error"])
    def test_only_the_spoiled_sample_fails(self, variant, how):
        args, Z = self.stack()
        clean = heckman.second_stages(**args)
        clean_V, clean_errors = heckman.outcome_vcovs(clean, variant, Z)
        assert clean_errors == [None] * 6
        spoiled, error = self.spoil(args, 2, how)
        stages = heckman.second_stages(**spoiled)
        V, errors = heckman.outcome_vcovs(stages, variant, Z)
        assert isinstance(errors[2], error)
        assert not np.any(V[2])
        for r in (0, 1, 3, 4, 5):
            assert errors[r] is None
            assert np.array_equal(stages.coef[r], clean.coef[r])
            assert np.array_equal(V[r], clean_V[r])

    def test_unknown_variant_rejected(self):
        args, Z = self.stack()
        with pytest.raises(ValueError, match="'hc3'"):
            heckman.outcome_vcovs(heckman.second_stages(**args), "hc3", Z)

    def test_fit_two_step_is_the_one_sample_stack(self):
        args, Z = self.stack()
        stages = heckman.second_stages(**args)
        V, _ = heckman.outcome_vcovs(stages, heckman.HECKMAN_CORRECTED, Z)
        config = synth.DgpConfig(SIM_SELECTION_COEF, SIM_OUTCOME_COEF, 0.5, 1.0, 189, 7)
        for rep in range(6):
            fit = heckman.fit_two_step(synth.generate(config, rep).frame)
            if rep == 0:
                assert fit.outcome_coef[-1] == pytest.approx(0.0494, abs=1e-4)
            n = args["rows"][rep]
            assert np.array_equal(fit.outcome_coef, stages.coef[rep])
            assert np.array_equal(fit.residuals, stages.residuals[rep, :n])
            assert not np.any(stages.residuals[rep, n:])
            assert fit.sigma2 == stages.sigma2[rep] and fit.rho == stages.rho[rep]
            np.testing.assert_allclose(fit.vcov[heckman.HECKMAN_CORRECTED][0], V[rep],
                                       rtol=1e-13, atol=0)

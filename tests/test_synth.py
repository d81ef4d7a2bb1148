"""DGP and Monte Carlo harness tests."""

import dataclasses
from collections import Counter
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from vaxsel import heckman, render, synth
from vaxsel.cli import SIM_OUTCOME_COEF, SIM_SELECTION_COEF
from vaxsel.probit import ProbitError
from vaxsel.stdnorm import inverse_mills

REPO = Path(__file__).resolve().parents[1]
VCOV_FUNCTIONS = {heckman.PLAIN_ROBUST: "plain_robust_vcov",
                  heckman.HECKMAN_CORRECTED: "heckman_corrected_vcov"}

BASE = synth.DgpConfig(
    selection_coef=(1.0, -0.5, 1.0, 0.0),
    outcome_coef=(1.0, 0.5, 1.0),
    rho=0.5,
    sigma_u=1.0,
    n=2000,
    seed=5,
)


def forced_second_stage_errors(monkeypatch, error_of):
    """Patch heckman.second_stages so that a sample with n selected rows fails with
    error_of(n) wherever that is an exception rather than None."""
    second_stages = heckman.second_stages

    def forcing(*args, **kwargs):
        stages = second_stages(*args, **kwargs)
        errors = [error_of(int(n)) or err for n, err in zip(stages.rows, stages.errors)]
        return stages._replace(errors=errors)

    monkeypatch.setattr(heckman, "second_stages", forcing)


class TestConfigValidation:
    def test_rho_bounds(self):
        with pytest.raises(ValueError):
            dataclasses.replace(BASE, rho=1.0)

    def test_sigma_positive(self):
        with pytest.raises(ValueError):
            dataclasses.replace(BASE, sigma_u=0.0)

    @pytest.mark.parametrize("sigma_u", [np.nan, np.inf])
    def test_sigma_finite(self, sigma_u):
        with pytest.raises(ValueError, match="sigma_u"):
            dataclasses.replace(BASE, sigma_u=sigma_u)

    @pytest.mark.parametrize("sigma_u", [1e200, 1e154, 1e-16, 1e-300, 5e-324])
    def test_sigma_within_float_range_and_outcome_resolution(self, sigma_u):
        with pytest.raises(ValueError, match=r"sigma_u must lie in \[.*\] at n = "):
            dataclasses.replace(BASE, sigma_u=sigma_u)

    @pytest.mark.parametrize("field", ["selection_coef", "outcome_coef"])
    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_coefficients_finite(self, field, bad):
        coef = list(getattr(BASE, field))
        coef[0] = bad
        with pytest.raises(ValueError, match="coefficients must be finite"):
            dataclasses.replace(BASE, **{field: tuple(coef)})

    def test_minimum_n(self):
        with pytest.raises(ValueError):
            dataclasses.replace(BASE, n=10)

    @pytest.mark.parametrize("seed", [-1, 2**128])
    def test_seed_range(self, seed):
        with pytest.raises(ValueError, match="seed"):
            dataclasses.replace(BASE, seed=seed)

    def test_seed_bounds_are_accepted(self):
        for seed in (0, 2**128 - 1):
            assert synth.generate(dataclasses.replace(BASE, n=50, seed=seed)).latent.shape == (50,)

    def test_instrument_required(self):
        with pytest.raises(ValueError):
            synth.DgpConfig(
                selection_coef=(1.0, 0.5, 0.0),
                outcome_coef=(1.0, 0.5, 1.0),
                rho=0.2, sigma_u=1.0, n=100, seed=1,
            )


class TestGenerate:
    def test_zero_selection_coef_gives_half_rate(self):
        cfg = synth.DgpConfig(
            selection_coef=(0.0, 0.0, 0.0, 0.0),
            outcome_coef=(1.0, 0.5, 1.0),
            rho=0.3, sigma_u=1.0, n=10_000, seed=3,
        )
        sample = synth.generate(cfg)
        assert 0.47 <= sample.frame.selection_y.mean() <= 0.53

    def test_rho_zero_errors_uncorrelated(self):
        cfg = dataclasses.replace(BASE, rho=0.0, n=10_000)
        sample = synth.generate(cfg)
        # recover e and u from the structural pieces: u is the latent
        # outcome minus its index; e is not observable, so check the
        # observable implication instead: mean of u among selected ~ 0
        sel = sample.frame.selection_y == 1.0
        x = sample.frame.selection_X[:, : cfg.n_shared]
        u = sample.latent - np.column_stack([x, np.ones(cfg.n)]) @ np.array(cfg.outcome_coef)
        assert abs(np.corrcoef(u[sel], sample.latent[sel])[0, 1]) > 0  # sanity
        assert abs(u[sel].mean()) < 0.05

    def test_truncated_mean_matches_closed_form(self):
        # all-zero selection slopes with intercept 0: selected iff e > 0,
        # so E[u | selected] = rho * sigma_u * lambda(0)
        cfg = synth.DgpConfig(
            selection_coef=(0.0, 0.0, 0.0, 0.0),
            outcome_coef=(1.0, 0.5, 1.0),
            rho=0.9, sigma_u=1.0, n=10_000, seed=11,
        )
        sample = synth.generate(cfg)
        sel = sample.frame.selection_y == 1.0
        x = sample.frame.selection_X[:, : cfg.n_shared]
        u = sample.latent - np.column_stack([x, np.ones(cfg.n)]) @ np.array(cfg.outcome_coef)
        expected = 0.9 * 1.0 * inverse_mills(0.0)
        assert u[sel].mean() == pytest.approx(expected, abs=0.03)

    def test_selection_indicator_matches_latent_rule(self):
        cfg = BASE
        sample = synth.generate(cfg)
        # the indicator is exactly 1 where the selection index plus its
        # error is positive, and the outcome is observed exactly there
        index = sample.frame.selection_X @ np.array(cfg.selection_coef)
        expected = (index + sample.selection_error > 0.0).astype(float)
        np.testing.assert_array_equal(sample.frame.selection_y, expected)
        assert sample.frame.outcome_y.shape[0] == int(sample.frame.selection_y.sum())
        np.testing.assert_array_equal(
            sample.frame.outcome_y, sample.latent[sample.frame.selection_y == 1.0]
        )
        assert sample.frame.selection_X.shape[1] == len(cfg.selection_coef)

    def test_same_seed_is_identical(self):
        s1, s2 = synth.generate(BASE), synth.generate(BASE)
        np.testing.assert_array_equal(s1.frame.selection_X, s2.frame.selection_X)
        np.testing.assert_array_equal(s1.latent, s2.latent)

    def test_different_streams_differ(self):
        s1 = synth.generate(BASE)
        s2 = synth.generate(dataclasses.replace(BASE, seed=6))
        assert not np.array_equal(s1.latent, s2.latent)


class TestMonteCarlo:
    def test_report_is_deterministic(self):
        r1 = synth.monte_carlo(BASE, 50)
        r2 = synth.monte_carlo(BASE, 50)
        assert render.render_recovery_csv(r1) == render.render_recovery_csv(r2)
        assert render.render_recovery_markdown(r1) == render.render_recovery_markdown(r2)

    def test_minimum_reps(self):
        with pytest.raises(ValueError):
            synth.monte_carlo(BASE, 10)

    def test_rho_zero_naive_matches_two_step(self):
        cfg = dataclasses.replace(BASE, rho=0.0)
        diffs = []
        for rep in range(60):
            sample = synth.generate(cfg, rep)
            fit = heckman.fit_two_step(sample.frame)
            naive, _ = heckman.ols(sample.frame.outcome_y, sample.frame.outcome_X)
            diffs.append(fit.outcome_coef[0] - naive[0])
        diffs = np.asarray(diffs)
        mc_se = diffs.std(ddof=1) / np.sqrt(len(diffs))
        assert abs(diffs.mean()) <= 2 * mc_se + 1e-4

    def test_rmse_decreases_with_n(self):
        rmses = []
        for n in (500, 2000, 8000):
            cfg = dataclasses.replace(BASE, n=n)
            report = synth.monte_carlo(cfg, 100)
            rmses.append(report.parameter("imr_lambda").rmse)
        assert rmses[0] > rmses[1] > rmses[2]

    def test_selection_bias_demonstration(self):
        # naive least squares is biased on the covariate that also drives
        # selection; the two-step estimate should beat it almost always
        cfg = BASE
        truth_x1 = cfg.outcome_coef[0]
        wins = 0
        reps = 100
        for rep in range(reps):
            sample = synth.generate(cfg, rep)
            fit = heckman.fit_two_step(sample.frame)
            naive, _ = heckman.ols(sample.frame.outcome_y, sample.frame.outcome_X)
            if abs(naive[0] - truth_x1) > abs(fit.outcome_coef[0] - truth_x1):
                wins += 1
        assert wins >= 0.9 * reps

    def test_chunking_does_not_change_the_report(self, monkeypatch):
        # 53 reps in chunks of 8 leave a short last chunk; one rep per chunk
        # is the unbatched order
        cfg = dataclasses.replace(BASE, n=200)
        monkeypatch.setattr(synth, "MC_CHUNK_ROWS", 8 * cfg.n)
        chunked = synth.monte_carlo(cfg, 53)
        monkeypatch.setattr(synth, "MC_CHUNK_ROWS", cfg.n)
        single = synth.monte_carlo(cfg, 53)
        assert render.render_recovery_csv(chunked) == render.render_recovery_csv(single)
        assert (render.render_recovery_markdown(chunked)
                == render.render_recovery_markdown(single))

    def test_failed_reps_are_counted(self):
        report = synth.monte_carlo(BASE, 50)
        assert report.reps_failed == 0 and report.failures == {}

    def test_programming_error_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("bug inside the fit")

        monkeypatch.setattr(heckman.probit, "fit_many", broken)
        with pytest.raises(TypeError):
            synth.monte_carlo(dataclasses.replace(BASE, n=100), 50)

    def test_unknown_variant_rejected_before_generating(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("generated a replication for an unknown variant")

        monkeypatch.setattr(synth, "_draw", refuse)
        with pytest.raises(ValueError, match="'hc3'"):
            synth.monte_carlo(dataclasses.replace(BASE, n=189), 50, "hc3")

    @pytest.mark.parametrize("variant", heckman.VCOV_VARIANTS)
    def test_failing_covariance_is_a_failed_replication(self, monkeypatch, variant):
        cfg = dataclasses.replace(BASE, n=189)
        clean = synth.monte_carlo(cfg, 50, variant)
        name = VCOV_FUNCTIONS[variant]
        original, calls = getattr(heckman, name), []

        def every_fifth_singular(W, *args):
            # the stacked call meets a singular matrix; then each replication
            # is computed alone, and every fifth of those is singular
            if len(W) > 1:
                raise np.linalg.LinAlgError("Singular matrix")
            calls.append(W)
            if len(calls) % 5 == 0:
                raise np.linalg.LinAlgError("Singular matrix")
            return original(W, *args)

        monkeypatch.setattr(heckman, name, every_fifth_singular)
        report = synth.monte_carlo(cfg, 50, variant)
        used = clean.reps_requested - clean.reps_failed
        assert len(calls) == used
        assert report.reps_failed == clean.reps_failed + used // 5

    def test_plain_robust_run_computes_no_selection_sandwich(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("computed the selection covariance the report never reads")

        cfg = dataclasses.replace(BASE, n=189)
        clean = synth.monte_carlo(cfg, 50, heckman.PLAIN_ROBUST)
        monkeypatch.setattr(heckman.probit, "sandwich_vcov", refuse)
        report = synth.monte_carlo(cfg, 50, heckman.PLAIN_ROBUST)
        assert render.render_recovery_csv(report) == render.render_recovery_csv(clean)

    def test_a_first_stage_cut_short_fails_only_its_replication(self, monkeypatch):
        # simulate --n 189 --vcov robust --reps 50 --seed 7 with the Newton loop capped
        # at 6 steps: the 3 first stages that need more fail, as ProbitError
        cfg = synth.DgpConfig(SIM_SELECTION_COEF, SIM_OUTCOME_COEF, 0.5, 1.0, 189, 7)
        monkeypatch.setattr(heckman.probit, "MAX_ITER", 6)
        report = synth.monte_carlo(cfg, 50, heckman.PLAIN_ROBUST)
        assert report.failures == {"ProbitError": 3}
        used_line = "- replications: 47 used, 3 failed (of 50)\n"
        assert used_line in render.render_recovery_markdown(report)

    def test_all_selected_replications_count_as_failed(self):
        # a selection intercept of 4 selects every row of some samples; their
        # first stage fails on a single class and the replication with it
        cfg = synth.DgpConfig((1.0, -0.5, 1.0, 4.0), (1.0, 0.5, 1.0), 0.5, 1.0, 60, 3)
        report = synth.monte_carlo(cfg, 50)
        assert report.reps_failed > 0

    def test_every_rep_all_selected_names_the_count(self):
        cfg = synth.DgpConfig((1.0, -0.5, 1.0, 12.0), (1.0, 0.5, 1.0), 0.5, 1.0, 60, 3)
        with pytest.raises(ValueError, match="all 50 replications failed to estimate"):
            synth.monte_carlo(cfg, 50)

    def test_every_rep_failing_names_the_count(self, monkeypatch):
        forced_second_stage_errors(monkeypatch, lambda n: ProbitError("no convergence"))
        with pytest.raises(ValueError, match="all 50 replications failed"):
            synth.monte_carlo(dataclasses.replace(BASE, n=100), 50)


class NeedsTwoArguments(Exception):
    """An exception that pickles, whose unpickling fails: pickle rebuilds it from
    its args, here one argument short of its constructor."""

    def __init__(self, message, count):
        super().__init__(message)
        self.count = count


@pytest.mark.usefixtures("deadline")
class TestWorkerProcesses:
    """Chunks spread over forked workers give the bytes of a serial run."""

    @pytest.fixture
    def forks(self, monkeypatch):
        """The os.fork calls this process makes."""
        calls = []
        fork = os.fork

        def counting_fork():
            calls.append(1)
            return fork()

        monkeypatch.setattr(os, "fork", counting_fork)
        return calls

    @pytest.mark.parametrize("reps", [53, 64])
    def test_report_bytes_do_not_depend_on_the_worker_count(self, monkeypatch, forks, reps):
        # chunks of 8 reps: 7 chunks with a short last one, or 8 full ones;
        # some samples fail their second stage, in whichever process
        cfg = dataclasses.replace(BASE, n=200)
        monkeypatch.setattr(synth, "MC_CHUNK_ROWS", 8 * cfg.n)
        forced_second_stage_errors(
            monkeypatch, lambda n: ProbitError("forced failure") if n % 4 == 0 else None)
        reports = {}
        for cpus in (1, 2, 3):
            monkeypatch.setattr(synth, "_usable_cpus", lambda cpus=cpus: cpus)
            forks.clear()
            reports[cpus] = synth.monte_carlo(cfg, reps)
            assert len(forks) == cpus - 1
        serial = reports[1]
        assert 0 < serial.reps_failed < reps
        assert serial.failures == {"ProbitError": serial.reps_failed}
        for report in reports.values():
            assert report.reps_failed == serial.reps_failed
            assert report.failures == serial.failures
            for text in (render.render_recovery_csv, render.render_recovery_markdown):
                assert text(report).encode() == text(serial).encode()

    def test_failures_are_tallied_by_error_class_in_every_process(self, monkeypatch, forks):
        # 53 reps in chunks of 8; failures are forced by each sample's selected count
        cfg = dataclasses.replace(BASE, n=200)
        monkeypatch.setattr(synth, "MC_CHUNK_ROWS", 8 * cfg.n)

        def error_of(n):
            if n % 5 == 0:
                return heckman.CollinearMillsError("forced")
            return ProbitError("forced") if n % 7 == 0 else None

        forced_second_stage_errors(monkeypatch, error_of)
        counts = [int(synth.generate(cfg, rep).frame.selection_y.sum()) for rep in range(53)]
        names = [type(error_of(n)).__name__ for n in counts if error_of(n) is not None]
        expected = dict(Counter(names).most_common())
        assert set(expected) == {"CollinearMillsError", "ProbitError"}
        for cpus in (1, 2):
            monkeypatch.setattr(synth, "_usable_cpus", lambda cpus=cpus: cpus)
            forks.clear()
            report = synth.monte_carlo(cfg, 53)
            assert len(forks) == cpus - 1
            assert list(report.failures.items()) == list(expected.items())
            assert report.reps_failed == len(names)
            assert report.reps_failed == sum(report.failures.values())
            # the line benchmark/gate.py parses: used and failed add up to the request
            used, failed, requested = map(int, re.search(
                r"replications: (\d+) used, (\d+) failed \(of (\d+)\)",
                render.render_recovery_markdown(report)).groups())
            assert (failed, used + failed, requested) == (len(names), 53, 53)

    def test_one_chunk_forks_nothing(self, monkeypatch, forks):
        # 50 reps at n=189 fit in one chunk of MC_CHUNK_ROWS rows
        monkeypatch.setattr(synth, "_usable_cpus", lambda: 3)
        synth.monte_carlo(dataclasses.replace(BASE, n=189), 50)
        assert forks == []

    def test_standard_streams_are_flushed_before_each_fork_only(self, monkeypatch, forks):
        # 50 reps in 7 chunks of 8: one CPU flushes nothing, three fork twice
        cfg = dataclasses.replace(BASE, n=200)
        monkeypatch.setattr(synth, "MC_CHUNK_ROWS", 8 * cfg.n)
        flushes = []

        class Stream:  # records each flush with the number of forks made before it
            def __init__(self, name):
                self.name = name

            def flush(self):
                flushes.append((self.name, len(forks)))

        for name in ("stdout", "stderr"):
            monkeypatch.setattr(sys, name, Stream(name))
        for cpus, expected in ((1, []), (3, [("stdout", 0), ("stderr", 0),
                                             ("stdout", 1), ("stderr", 1)])):
            monkeypatch.setattr(synth, "_usable_cpus", lambda cpus=cpus: cpus)
            flushes.clear()
            synth.monte_carlo(cfg, 50)
            assert flushes == expected

    @pytest.fixture
    def leaves_nothing(self):
        """After the test: this process has no child left, reaped or not, and no
        more open file descriptors (pipe ends among them) than before it."""
        def open_fds():
            return len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else 0

        before = open_fds()
        yield
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert open_fds() == before

    @staticmethod
    def raising_in(monkeypatch, where, exc):
        """Patch probit.fit_many to raise exc in the calling process (where
        "parent") or in a forked worker ("worker"), on 50 reps at n = 4000:
        13 chunks over 2 processes."""
        parent = os.getpid()
        fit_many = heckman.probit.fit_many

        def raising(*args, **kwargs):
            if (os.getpid() == parent) == (where == "parent"):
                raise exc
            return fit_many(*args, **kwargs)

        monkeypatch.setattr(heckman.probit, "fit_many", raising)
        monkeypatch.setattr(synth, "_usable_cpus", lambda: 2)

    def test_programming_error_in_a_worker_propagates(self, monkeypatch, forks, leaves_nothing):
        self.raising_in(monkeypatch, "worker", TypeError("bug inside a worker's fit"))
        with pytest.raises(TypeError, match="bug inside a worker's fit"):
            synth.monte_carlo(dataclasses.replace(BASE, n=4000), 50)
        assert len(forks) == 1

    def test_error_in_the_calling_process_propagates(self, monkeypatch, forks, leaves_nothing):
        # the calling process raises in its own first chunk while the worker fits its chunks
        self.raising_in(monkeypatch, "parent", TypeError("bug inside the parent's fit"))
        with pytest.raises(TypeError, match="bug inside the parent's fit"):
            synth.monte_carlo(dataclasses.replace(BASE, n=4000), 50)
        assert len(forks) == 1

    @pytest.mark.parametrize("exc", [
        RuntimeError("holds a function, which pickle refuses", lambda: None),
        NeedsTwoArguments("pickles, but unpickling calls it with one argument", 2),
    ], ids=["cannot_pickle", "cannot_unpickle"])
    def test_worker_exception_that_cannot_travel_is_a_worker_error(
            self, monkeypatch, leaves_nothing, exc):
        self.raising_in(monkeypatch, "worker", exc)
        with pytest.raises(synth.WorkerError, match="ended abruptly before returning"):
            synth.monte_carlo(dataclasses.replace(BASE, n=4000), 50)

    def test_without_fork_the_chunks_run_serially(self, monkeypatch, leaves_nothing):
        cfg = dataclasses.replace(BASE, n=200)
        monkeypatch.setattr(synth, "MC_CHUNK_ROWS", 8 * cfg.n)
        monkeypatch.setattr(synth, "_usable_cpus", lambda: 1)
        serial = synth.monte_carlo(cfg, 53)
        monkeypatch.setattr(synth, "_usable_cpus", lambda: 2)
        monkeypatch.delattr(os, "fork")
        report = synth.monte_carlo(cfg, 53)
        assert render.render_recovery_csv(report) == render.render_recovery_csv(serial)

    def test_progress_lines_are_written_once(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "vaxsel.cli", "simulate", "--reps", "50",
             "--out", str(tmp_path / "out")],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.splitlines() == [
            "simulate: 50 replications at n=2000, rho=0.5",
            f"simulate: wrote recovery report under {tmp_path / 'out'}",
        ]


class TestStackedChunk:
    """A chunk drawn and fitted as stacked arrays gives each replication's own fit."""

    @staticmethod
    def config(n):
        return synth.DgpConfig(SIM_SELECTION_COEF, SIM_OUTCOME_COEF, 0.5, 1.0, n, 7)

    @pytest.mark.parametrize("n, variant, reps", [(189, heckman.PLAIN_ROBUST, 50),
                                                  (2000, heckman.HECKMAN_CORRECTED, 8)])
    def test_matches_per_replication_fit_two_step(self, n, variant, reps):
        cfg = self.config(n)
        truth = np.array([*SIM_OUTCOME_COEF, 0.5])
        stages, V, errors = synth._fit_chunk(cfg, variant, range(reps))
        outcomes = synth._fit_chunks(cfg, variant, truth, [range(reps)])[0]
        for rep in range(reps):
            frame = synth.generate(cfg, rep).frame
            fit = heckman.fit_two_step(frame)
            se = np.sqrt(np.diag(fit.vcov[variant][0]))
            assert errors[rep] is None
            assert np.array_equal(stages.coef[rep], fit.outcome_coef)
            # sums over each sample's own rows, not its zero padding, keep every bit
            assert stages.sigma2[rep] == fit.sigma2 and stages.rho[rep] == fit.rho
            assert np.array_equal(stages.residuals[rep, :stages.rows[rep]], fit.residuals)
            np.testing.assert_allclose(np.sqrt(np.diag(V[rep])), se, rtol=1e-13, atol=0)
            estimate, covered = outcomes[rep]
            assert np.array_equal(estimate, fit.outcome_coef)
            assert np.array_equal(covered, np.abs(fit.outcome_coef - truth) <= heckman.Z_95 * se)

    @pytest.mark.parametrize("variant", heckman.VCOV_VARIANTS)
    def test_one_chunk_reaches_its_covariance_function_once(self, monkeypatch, variant):
        calls = []
        for name in VCOV_FUNCTIONS.values():
            def counting(*args, original=getattr(heckman, name), name=name):
                calls.append(name)
                return original(*args)

            monkeypatch.setattr(heckman, name, counting)
        synth._fit_chunk(self.config(189), variant, range(8))
        assert calls == [VCOV_FUNCTIONS[variant]]

    def test_stacked_draws_are_the_one_sample_draws(self):
        cfg = self.config(189)
        sel_X, out_X, latent, selected, e = synth._draw(
            cfg, np.random.Philox(key=cfg.seed), [rep + 1 for rep in range(6)])
        for rep in range(6):
            sample = synth.generate(cfg, rep)
            frame = sample.frame
            assert np.array_equal(sel_X[rep], frame.selection_X)
            assert np.array_equal(selected[rep], frame.selection_y == 1.0)
            assert np.array_equal(latent[rep], sample.latent)
            assert np.array_equal(e[rep], sample.selection_error)
            assert np.array_equal(out_X[rep][selected[rep]], frame.outcome_X)
        # R = 1 without a jump is generate's sample
        one = synth._draw(cfg, np.random.Philox(key=cfg.seed), [0])
        sample = synth.generate(cfg)
        assert np.array_equal(one[0][0], sample.frame.selection_X)
        assert np.array_equal(one[2][0], sample.latent)

    def test_one_call_holds_the_four_draws_in_order(self):
        # the draws separate calls made: x (n, p), w (n, q), e and eta from the same stream
        cfg = self.config(189)
        rng = np.random.Generator(np.random.Philox(key=cfg.seed).jumped(3 + 1))
        x, w = rng.standard_normal((cfg.n, cfg.n_shared)), rng.standard_normal((cfg.n, 1))
        e, eta = rng.standard_normal(cfg.n), rng.standard_normal(cfg.n)
        u = cfg.sigma_u * (cfg.rho * e + np.sqrt(1.0 - cfg.rho**2) * eta)
        sample = synth.generate(cfg, 3)
        assert np.array_equal(sample.frame.selection_X,
                              np.column_stack([x, w, np.ones(cfg.n)]))
        assert np.array_equal(sample.selection_error, e)
        assert np.array_equal(sample.latent,
                              np.column_stack([x, np.ones(cfg.n)]) @ np.array(cfg.outcome_coef) + u)

    def test_one_normal_fill_per_replication_and_no_fit_two_step(self, monkeypatch):
        fills, generator = [], np.random.Generator

        class Counting:
            def __init__(self, bitgen):
                self.rng = generator(bitgen)

            def standard_normal(self, *args, **kwargs):
                fills.append(1)
                return self.rng.standard_normal(*args, **kwargs)

        def refuse(*args, **kwargs):
            raise AssertionError("fitted one replication on its own")

        monkeypatch.setattr(np.random, "Generator", Counting)
        monkeypatch.setattr(heckman, "fit_two_step", refuse)
        monkeypatch.setattr(synth, "_usable_cpus", lambda: 1)
        report = synth.monte_carlo(dataclasses.replace(BASE, n=189), 50)
        assert len(fills) == 50
        assert report.failures == {}

"""DGP and Monte Carlo harness tests."""

import dataclasses
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from vaxsel import heckman, synth
from vaxsel.stdnorm import inverse_mills

REPO = Path(__file__).resolve().parents[1]

BASE = synth.DgpConfig(
    selection_coef=(1.0, -0.5, 1.0, 0.0),
    outcome_coef=(1.0, 0.5, 1.0),
    rho=0.5,
    sigma_u=1.0,
    n=2000,
    seed=5,
)


class TestConfigValidation:
    def test_rho_bounds(self):
        with pytest.raises(ValueError):
            dataclasses.replace(BASE, rho=1.0)

    def test_sigma_positive(self):
        with pytest.raises(ValueError):
            dataclasses.replace(BASE, sigma_u=0.0)

    def test_minimum_n(self):
        with pytest.raises(ValueError):
            dataclasses.replace(BASE, n=10)

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
        sample = synth.generate(BASE)
        cfg = sample.truth
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
        assert r1.to_csv_text() == r2.to_csv_text()
        assert r1.to_markdown() == r2.to_markdown()

    def test_minimum_reps(self):
        with pytest.raises(ValueError):
            synth.monte_carlo(BASE, 10)

    def test_rho_zero_naive_matches_two_step(self):
        cfg = dataclasses.replace(BASE, rho=0.0)
        diffs = []
        for rep in range(60):
            sample = synth._generate_with(cfg, synth.replication_stream(cfg, rep))
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
            sample = synth._generate_with(cfg, synth.replication_stream(cfg, rep))
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
        assert chunked.to_csv_text() == single.to_csv_text()
        assert chunked.to_markdown() == single.to_markdown()

    def test_failed_reps_are_counted(self):
        report = synth.monte_carlo(BASE, 50)
        assert report.reps_used + report.reps_failed == 50
        assert report.reps_failed == 0

    def test_programming_error_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("bug inside the fit")

        monkeypatch.setattr(heckman.probit, "fit_many", broken)
        with pytest.raises(TypeError):
            synth.monte_carlo(dataclasses.replace(BASE, n=100), 50)

    def test_every_rep_failing_names_the_count(self, monkeypatch):
        def fail(*args, **kwargs):
            raise heckman.probit.ProbitError("no convergence")

        monkeypatch.setattr(heckman, "fit_two_step", fail)
        with pytest.raises(ValueError, match="all 50 replications failed"):
            synth.monte_carlo(dataclasses.replace(BASE, n=100), 50)


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
        fit_two_step = heckman.fit_two_step

        def sometimes_failing(frame, *args, **kwargs):
            if int(frame.selection_y.sum()) % 4 == 0:
                raise heckman.probit.ProbitError("forced failure")
            return fit_two_step(frame, *args, **kwargs)

        monkeypatch.setattr(heckman, "fit_two_step", sometimes_failing)
        reports = {}
        for cpus in (1, 2, 3):
            monkeypatch.setattr(synth, "_usable_cpus", lambda cpus=cpus: cpus)
            forks.clear()
            reports[cpus] = synth.monte_carlo(cfg, reps)
            assert len(forks) == cpus - 1
        serial = reports[1]
        assert 0 < serial.reps_failed < reps
        for report in reports.values():
            assert report.reps_failed == serial.reps_failed
            assert report.to_csv_text().encode() == serial.to_csv_text().encode()
            assert report.to_markdown().encode() == serial.to_markdown().encode()

    def test_one_chunk_forks_nothing(self, monkeypatch, forks):
        # 50 reps at n=189 fit in one chunk of MC_CHUNK_ROWS rows
        monkeypatch.setattr(synth, "_usable_cpus", lambda: 3)
        synth.monte_carlo(dataclasses.replace(BASE, n=189), 50)
        assert forks == []

    def test_programming_error_in_a_worker_propagates(self, monkeypatch):
        parent = os.getpid()
        fit_many = heckman.probit.fit_many

        def broken_in_worker(*args, **kwargs):
            if os.getpid() != parent:
                raise TypeError("bug inside a worker's fit")
            return fit_many(*args, **kwargs)

        monkeypatch.setattr(heckman.probit, "fit_many", broken_in_worker)
        monkeypatch.setattr(synth, "_usable_cpus", lambda: 2)
        with pytest.raises(TypeError, match="bug inside a worker's fit"):
            synth.monte_carlo(dataclasses.replace(BASE, n=4000), 50)
        assert multiprocessing.active_children() == []

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

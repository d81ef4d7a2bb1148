"""Synthetic latent-offer data generator and parameter-recovery harness.

The data-generating process mirrors the estimator's assumptions exactly:
an unobserved offer v* = x'beta + u for every unit, a selection index
w'gamma + e with unit-variance error, and bivariate-normal (e, u) with
correlation rho and outcome scale sigma_u.  The unit accepts (is
selected) precisely when the index plus its error is positive, and v* is
observed only then.  Anything the negotiation story prices in beyond the
covariates (offer terms, vaccine skepticism) is folded into the selection
error.

Randomness comes from numpy's Philox counter-based bit generator, keyed
by the config seed.  Monte Carlo replication r draws from the stream
``Philox(seed).jumped(r + 1)``: jumped streams are independent by
construction, so replications can run in any order, or concurrently,
without changing a single draw.  monte_carlo uses that twice.  It batches
the first stage: it draws a chunk of samples (at most MC_CHUNK_ROWS rows
in all), fits their selection probits together with probit.fit_many, one
stacked kernel call per Newton round, and then runs each second stage on
its own.  And it spreads the chunks over W = min(chunks, usable CPUs)
processes: the calling process fits chunks 0::W and one forked worker
fits each w::W, and the outcomes are put back in replication order before
any sum, so the report has the same bytes for every W.  A run of one
chunk forks nothing, and where the fork start method is unavailable the
chunks run serially.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, field

import numpy as np

from vaxsel import heckman, probit
from vaxsel.panel import ModelFrame

COVARIATE_LAWS = ("iid_standard_normal",)
Z_95 = 1.959964
MC_CHUNK_ROWS = 16_384  # rows per first-stage batch; larger kernel blocks fall out of cache


class WorkerError(RuntimeError):
    """A Monte Carlo worker process ended before it returned its chunks."""


@dataclass(frozen=True)
class DgpConfig:
    """True parameters of the latent-offer process.

    selection_coef covers [shared outcome covariates..., instruments...,
    intercept]; outcome_coef covers [shared covariates..., intercept].
    The selection vector must be longer, the surplus being the excluded
    instruments that identify the correction term.
    """

    selection_coef: tuple
    outcome_coef: tuple
    rho: float
    sigma_u: float
    n: int
    seed: int
    covariate_law: str = "iid_standard_normal"

    def __post_init__(self):
        if not -1.0 < self.rho < 1.0:
            raise ValueError("rho must lie strictly inside (-1, 1)")
        if self.sigma_u <= 0.0:
            raise ValueError("sigma_u must be positive")
        if self.n < 50:
            raise ValueError("n must be at least 50")
        if self.covariate_law not in COVARIATE_LAWS:
            raise ValueError(f"unsupported covariate law {self.covariate_law!r}")
        if len(self.selection_coef) <= len(self.outcome_coef):
            raise ValueError("selection stage must add at least one excluded instrument")

    @property
    def n_shared(self):
        return len(self.outcome_coef) - 1

    @property
    def n_instruments(self):
        return len(self.selection_coef) - len(self.outcome_coef)


@dataclass
class SyntheticSample:
    frame: ModelFrame
    truth: DgpConfig
    latent: np.ndarray
    # selection-stage error, retained so the acceptance rule
    # V = 1{index + e > 0} can be checked exhaustively on any draw
    selection_error: np.ndarray = None


def _generate_with(config: DgpConfig, bitgen) -> SyntheticSample:
    rng = np.random.Generator(bitgen)
    p, q, n = config.n_shared, config.n_instruments, config.n

    x = rng.standard_normal((n, p))
    w = rng.standard_normal((n, q))
    e = rng.standard_normal(n)
    eta = rng.standard_normal(n)
    u = config.sigma_u * (config.rho * e + np.sqrt(1.0 - config.rho**2) * eta)

    sel_X = np.column_stack([x, w, np.ones(n)])
    out_X_all = np.column_stack([x, np.ones(n)])
    sel_index = sel_X @ np.asarray(config.selection_coef, dtype=float)
    latent = out_X_all @ np.asarray(config.outcome_coef, dtype=float) + u

    selected = sel_index + e > 0.0
    sel_y = selected.astype(float)

    labels_x = [f"x{j + 1}" for j in range(p)]
    labels_w = [f"w{j + 1}" for j in range(q)]
    frame = ModelFrame(
        selection_y=sel_y,
        selection_X=sel_X,
        selection_labels=labels_x + labels_w + ["const"],
        outcome_y=latent[selected],
        outcome_X=out_X_all[selected],
        outcome_labels=labels_x + ["const"],
        outcome_keep=np.ones(int(selected.sum()), dtype=bool),
        spec_name="synthetic",
    )
    return SyntheticSample(frame=frame, truth=config, latent=latent, selection_error=e)


def generate(config: DgpConfig) -> SyntheticSample:
    """Draw one sample, fully reproducible from config.seed."""
    return _generate_with(config, np.random.Philox(key=config.seed))


def replication_stream(config: DgpConfig, rep: int):
    """Independent Philox stream for replication rep (0-based)."""
    return np.random.Philox(key=config.seed).jumped(rep + 1)


@dataclass
class ParameterRecovery:
    name: str
    truth: float
    mean_estimate: float
    mean_bias: float
    rmse: float
    coverage: float


@dataclass
class RecoveryReport:
    config: DgpConfig
    reps_requested: int
    reps_used: int
    reps_failed: int
    vcov_variant: str
    parameters: list = field(default_factory=list)

    def parameter(self, name) -> ParameterRecovery:
        for p in self.parameters:
            if p.name == name:
                return p
        raise KeyError(name)

    def to_csv_text(self) -> str:
        lines = ["parameter,truth,mean_estimate,mean_bias,rmse,coverage"]
        for p in self.parameters:
            lines.append(
                f"{p.name},{p.truth:.6f},{p.mean_estimate:.6f},"
                f"{p.mean_bias:.6f},{p.rmse:.6f},{p.coverage:.6f}"
            )
        return "\n".join(lines) + "\n"

    def to_markdown(self) -> str:
        c = self.config
        head = [
            "# Parameter recovery",
            "",
            f"- n = {c.n}, rho = {c.rho}, sigma_u = {c.sigma_u}, seed = {c.seed}",
            f"- replications: {self.reps_used} used, {self.reps_failed} failed "
            f"(of {self.reps_requested})",
            f"- interval coverage from the {self.vcov_variant} covariance at 95%",
            "",
            "| parameter | truth | mean estimate | mean bias | rmse | coverage |",
            "|---|---|---|---|---|---|",
        ]
        for p in self.parameters:
            head.append(
                f"| {p.name} | {p.truth:.4f} | {p.mean_estimate:.4f} "
                f"| {p.mean_bias:.4f} | {p.rmse:.4f} | {p.coverage:.3f} |"
            )
        return "\n".join(head) + "\n"


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _fit_chunks(config, vcov_variant, truth, chunks) -> list:
    """One list per chunk of replications: (estimate, covered) per rep, None where it failed.

    A replication whose fit fails to estimate is marked here; any other
    exception propagates.
    """
    outcomes = []
    for reps in chunks:
        frames = [_generate_with(config, replication_stream(config, rep)).frame for rep in reps]
        firsts = probit.fit_many([f.selection_y for f in frames], [f.selection_X for f in frames],
                                 labels=frames[0].selection_labels)
        chunk = []
        for frame, first in zip(frames, firsts):
            try:
                fit = heckman.fit_two_step(frame, vcov_variant=vcov_variant, first_stage=first)
            except heckman.ESTIMATION_ERRORS:
                chunk.append(None)
                continue
            est = fit.outcome_coef
            se = np.sqrt(np.diag(fit.outcome_vcov))
            chunk.append((est, np.abs(est - truth) <= Z_95 * se))
        outcomes.append(chunk)
    return outcomes


def _fit_chunks_in_parallel(config, vcov_variant, truth, chunks) -> list:
    """_fit_chunks over every chunk, spread over the calling process and forked workers."""
    workers = min(len(chunks), _usable_cpus())
    if workers > 1:
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            workers = 1
    if workers == 1:
        return _fit_chunks(config, vcov_variant, truth, chunks)

    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

    # a forked worker would write out a copy of anything still buffered
    sys.stdout.flush()
    sys.stderr.flush()
    outcomes = [None] * len(chunks)
    with ProcessPoolExecutor(workers - 1, mp_context=multiprocessing.get_context("fork")) as pool:
        futures = [pool.submit(_fit_chunks, config, vcov_variant, truth, chunks[w::workers])
                   for w in range(1, workers)]
        outcomes[0::workers] = _fit_chunks(config, vcov_variant, truth, chunks[0::workers])
        for w, future in enumerate(futures, 1):
            try:
                outcomes[w::workers] = future.result()
            except BrokenProcessPool as exc:
                raise WorkerError("a Monte Carlo worker process ended abruptly "
                                  "before returning its replications") from exc
    return outcomes


def monte_carlo(
    config: DgpConfig, reps: int, vcov_variant: str = heckman.HECKMAN_CORRECTED
) -> RecoveryReport:
    """Repeated generate-and-fit with per-parameter bias, RMSE and coverage.

    Each replication runs on its own jumped Philox stream, so the report
    is a pure function of (config, reps), whichever process fits it.
    Replications whose fit fails to estimate are counted as failed and
    excluded from the summaries; a ValueError is raised when none is
    left, and a WorkerError when a worker process dies.
    """
    if reps < 50:
        raise ValueError("need at least 50 replications for a meaningful report")

    names = [f"x{j + 1}" for j in range(config.n_shared)] + ["const", heckman.IMR_LABEL]
    truth = np.array(list(config.outcome_coef) + [config.rho * config.sigma_u])

    size = max(1, MC_CHUNK_ROWS // config.n)
    chunks = [range(start, min(start + size, reps)) for start in range(0, reps, size)]
    fitted = [o for chunk in _fit_chunks_in_parallel(config, vcov_variant, truth, chunks)
              for o in chunk]
    estimates = [o[0] for o in fitted if o is not None]
    covered = [o[1] for o in fitted if o is not None]
    failed = len(fitted) - len(estimates)

    if not estimates:
        raise ValueError(f"all {reps} replications failed to estimate")
    est = np.asarray(estimates)
    cov = np.asarray(covered, dtype=float)
    params = []
    for j, name in enumerate(names):
        bias = est[:, j] - truth[j]
        params.append(
            ParameterRecovery(
                name=name,
                truth=float(truth[j]),
                mean_estimate=float(est[:, j].mean()),
                mean_bias=float(bias.mean()),
                rmse=float(np.sqrt(np.mean(bias**2))),
                coverage=float(cov[:, j].mean()),
            )
        )
    return RecoveryReport(
        config=config,
        reps_requested=reps,
        reps_used=int(est.shape[0]),
        reps_failed=failed,
        vcov_variant=vcov_variant,
        parameters=params,
    )

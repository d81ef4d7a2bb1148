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
without changing a single draw.  monte_carlo uses that twice.  It runs a
chunk of replications (at most MC_CHUNK_ROWS rows in all) as stacked
arrays from the draws to the report's inputs: one Philox per chunk,
repositioned per replication, fills each sample's normals in one call;
probit.fit_many fits the selection probits together; the selected rows
of each sample are packed to the front of zero rows, and
heckman.second_stages and heckman.outcome_vcovs fit the second stages
and the one outcome covariance the report reads, each sample failing
alone.  And it spreads the chunks over W = min(chunks, usable CPUs)
processes: one worker per extra CPU is forked with a pipe of its own
and fits chunks w::W, the calling process fits chunks 0::W, then reads
each worker's pickled outcomes (or its exception) from its pipe, and
the outcomes are put back in replication order before any sum, so the
report has the same bytes for every W.  A worker that ends without a
whole answer is a WorkerError; no worker or pipe outlives the call.  A
run of one chunk forks nothing, and where os.fork does not exist the
chunks run serially.  generate is the one-sample case of the same draw.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from vaxsel import heckman, probit
from vaxsel.panel import ModelFrame

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

    sigma_u is bounded.  Every normal draw of a run lies within +-10, so a design
    entry or index is at most S(c) = 10 (1 + sum |c|), lambda(s) <= |s| + 1
    included.  The second stage sums n products e_i^2 W_ij W_ik, residuals up to
    S(gamma) sigma_u, which stay finite while n S(gamma)^4 sigma_u^2 is below the
    largest double.  A double outcome x'beta + u resolves u only to eps S(beta),
    so sigma_u >= 1e6 eps S(beta) keeps six digits of the noise.
    """

    selection_coef: tuple
    outcome_coef: tuple
    rho: float
    sigma_u: float
    n: int
    seed: int

    def __post_init__(self):
        if not -1.0 < self.rho < 1.0:
            raise ValueError("rho must lie strictly inside (-1, 1)")
        if not 0.0 < self.sigma_u < np.inf:
            raise ValueError("sigma_u must be positive and finite")
        if not np.all(np.isfinite([*self.selection_coef, *self.outcome_coef])):
            raise ValueError("coefficients must be finite")
        if self.n < 50:
            raise ValueError("n must be at least 50")
        s_gamma, s_beta = (10.0 * (1.0 + sum(map(abs, c)))
                           for c in (self.selection_coef, self.outcome_coef))
        low, high = 1e6 * np.finfo(float).eps * s_beta, np.sqrt(np.finfo(float).max / self.n)
        if not low <= self.sigma_u <= high / s_gamma**2:
            raise ValueError(f"sigma_u must lie in [{low:.3g}, {high / s_gamma**2:.3g}] at "
                             f"n = {self.n} with these coefficients; got {self.sigma_u:g}")
        if not 0 <= self.seed < 2**128:
            raise ValueError(f"seed must lie in [0, 2**128); got {self.seed}")
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
    latent: np.ndarray
    # selection-stage error, retained so the acceptance rule
    # V = 1{index + e > 0} can be checked exhaustively on any draw
    selection_error: np.ndarray = None


def _labels(config):
    """Selection and outcome column names: x1.., w1.., const and x1.., const."""
    xs = [f"x{j + 1}" for j in range(config.n_shared)]
    return xs + [f"w{j + 1}" for j in range(config.n_instruments)] + ["const"], xs + ["const"]


def _draw(config: DgpConfig, bitgen, jumps):
    """Selection designs (R, n, k), outcome designs, latent outcomes, selection indicators
    and selection errors of one sample per j in jumps, drawn from bitgen.jumped(j): bitgen
    is reset to its starting state and advanced by j * 2**128 draws, as jumped does it,
    and fills the sample's n(p + q + 2) normals x (n, p), w (n, q), e, eta in one call."""
    p, q, n = config.n_shared, config.n_instruments, config.n
    z = np.empty((len(jumps), n * (p + q + 2)))
    start = bitgen.state
    for row, j in zip(z, jumps):
        bitgen.state = start
        bitgen.advance(j * 2**128)
        np.random.Generator(bitgen).standard_normal(out=row)
    x, w, e, eta = np.split(z, np.cumsum([n * p, n * q, n]), axis=1)
    u = config.sigma_u * (config.rho * e + np.sqrt(1.0 - config.rho**2) * eta)

    ones = np.ones((len(z), n, 1))
    sel_X = np.concatenate([x.reshape(-1, n, p), w.reshape(-1, n, q), ones], axis=-1)
    out_X = np.concatenate([x.reshape(-1, n, p), ones], axis=-1)
    latent = out_X @ np.asarray(config.outcome_coef, dtype=float) + u
    selected = sel_X @ np.asarray(config.selection_coef, dtype=float) + e > 0.0
    return sel_X, out_X, latent, selected, e


def generate(config: DgpConfig, rep: int | None = None) -> SyntheticSample:
    """One sample, fully reproducible from config.seed: the draw at jump 0, or the
    one Monte Carlo replication rep (0-based) fits, at jump rep + 1."""
    jump = 0 if rep is None else rep + 1
    sel_X, out_X, latent, selected, e = (
        a[0] for a in _draw(config, np.random.Philox(key=config.seed), [jump]))
    labels_sel, labels_out = _labels(config)
    frame = ModelFrame(
        selection_y=selected.astype(float),
        selection_X=sel_X,
        selection_labels=labels_sel,
        outcome_y=latent[selected],
        outcome_X=out_X[selected],
        outcome_labels=labels_out,
        outcome_keep=np.ones(int(selected.sum()), dtype=bool),
    )
    return SyntheticSample(frame=frame, latent=latent, selection_error=e)


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
    """A Monte Carlo run's numbers; render.render_recovery_csv/_markdown write its text."""
    config: DgpConfig
    reps_requested: int
    vcov_variant: str
    parameters: list = field(default_factory=list)
    # failed replications by estimation error class name, most frequent first
    # (ties in replication order); the rest of reps_requested were used
    failures: dict = field(default_factory=dict)

    @property
    def reps_failed(self) -> int:
        return sum(self.failures.values())

    def parameter(self, name) -> ParameterRecovery:
        for p in self.parameters:
            if p.name == name:
                return p
        raise KeyError(name)


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _fit_chunk(config, vcov_variant, reps):
    """Replications reps drawn and fitted as stacked arrays, with each sample's selected
    rows packed to the front for its second stage: heckman.second_stages' stack and
    heckman.outcome_vcovs' covariances and per rep errors, (stages, V, errors)."""
    # the selection errors are a view that would keep the whole buffer of normals alive
    sel_X, out_X, latent, selected = _draw(config, np.random.Philox(key=config.seed),
                                           [rep + 1 for rep in reps])[:4]
    sel_labels, out_labels = _labels(config)
    firsts = probit.fit_many(selected.astype(float), sel_X, labels=sel_labels)
    g, w = np.zeros(selected.shape), np.zeros(selected.shape)
    for r, first in enumerate(firsts):
        if isinstance(first, probit.ProbitFit):
            g[r], w[r] = first.g, first.w
    rows = selected.sum(axis=1)
    front = np.arange(rows.max()) < rows[:, None]
    src, dst = np.flatnonzero(selected), np.flatnonzero(front)

    def packed(a):
        # a (R, n, ...) as (R, m, ...): each sample's selected rows, then zero rows
        tail = a.shape[2:]
        out = np.zeros((front.size,) + tail)
        out[dst] = a.reshape((-1,) + tail).take(src, axis=0)
        return out.reshape(front.shape + tail)

    stages = heckman.second_stages(packed(latent), packed(out_X), packed(g), packed(w), rows,
                                   out_labels, firsts)
    Z = packed(sel_X) if vcov_variant == heckman.HECKMAN_CORRECTED else None
    return (stages, *heckman.outcome_vcovs(stages, vcov_variant, Z))


def _fit_chunks(config, vcov_variant, truth, chunks) -> list:
    """Per chunk of replications, per rep (estimate, covered) or the class name of
    the estimation error that failed it; any other exception propagates."""
    outcomes = []
    for reps in chunks:
        stages, V, errors = _fit_chunk(config, vcov_variant, reps)
        covered = np.abs(stages.coef - truth) <= heckman.Z_95 * np.sqrt(V.diagonal(0, 1, 2))
        outcomes.append([(est, cov) if err is None else type(err).__name__
                         for est, cov, err in zip(stages.coef, covered, errors)])
    return outcomes


def _fit_chunks_in_worker(write, config, vcov_variant, truth, chunks):
    """In a forked worker: _fit_chunks on chunks, written to the pipe end write
    as the pickle of (True, outcomes), or (False, exception) when it raised;
    then the process ends, through os._exit, whatever happened (an interrupt
    or exit ends it without an answer)."""
    try:
        try:
            message = (True, _fit_chunks(config, vcov_variant, truth, chunks))
        except Exception as exc:
            message = (False, exc)
        # pickled before anything is written: a message that cannot be pickled
        # leaves the pipe empty, and the parent sees the worker end without an answer
        data = pickle.dumps(message)
        with open(write, "wb") as pipe:
            pipe.write(data)
    finally:
        os._exit(0)


def _received(read):
    """The outcomes a worker wrote to the pipe end read, read to its end; the
    worker's exception raised again, or WorkerError when no whole message came."""
    parts = []
    while part := os.read(read, 1 << 16):
        parts.append(part)
    try:
        done, payload = pickle.loads(b"".join(parts))
    except Exception as exc:  # nothing, a cut message, or one that cannot be unpickled
        raise WorkerError("a Monte Carlo worker process ended abruptly "
                          "before returning its replications") from exc
    if not done:
        raise payload
    return payload


def _fit_chunks_in_parallel(config, vcov_variant, truth, chunks) -> list:
    """_fit_chunks over every chunk, spread over W = min(chunks, usable CPUs)
    processes: one worker forked per extra CPU fits chunks w::W and sends them
    back through its own pipe, while the calling process fits chunks 0::W and
    then reads the pipes in order.  When this returns or raises, every pipe is
    closed and every worker reaped; on a raise, workers still running are
    killed first.  With one worker, or without os.fork, the chunks run
    serially and nothing is forked."""
    workers = min(len(chunks), _usable_cpus()) if hasattr(os, "fork") else 1
    outcomes, reads, pids = [None] * len(chunks), [], []
    try:
        for w in range(1, workers):
            read, write = os.pipe()
            reads.append(read)
            try:
                # a forked worker would write out a copy of anything still buffered
                sys.stdout.flush()
                sys.stderr.flush()
                pid = os.fork()
                if pid == 0:
                    _fit_chunks_in_worker(write, config, vcov_variant, truth, chunks[w::workers])
            finally:
                # closed here at once: while this process, or a worker forked
                # later, holds it open, a dead worker's pipe never reads as EOF
                os.close(write)
            pids.append(pid)
        outcomes[0::workers] = _fit_chunks(config, vcov_variant, truth, chunks[0::workers])
        for w, read in enumerate(reads, 1):
            outcomes[w::workers] = _received(read)
    except BaseException:
        for pid in pids:  # their replications are no longer wanted
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for read in reads:
            os.close(read)
        for pid in pids:
            os.waitpid(pid, 0)
    return outcomes


def monte_carlo(
    config: DgpConfig, reps: int, vcov_variant: str = heckman.HECKMAN_CORRECTED
) -> RecoveryReport:
    """Repeated generate-and-fit with per-parameter bias, RMSE and coverage.

    Each replication runs on its own jumped Philox stream, so the report
    is a pure function of (config, reps), whichever process fits it.
    Replications whose fit fails to estimate are counted as failed, by
    error class in RecoveryReport.failures, and excluded from the
    summaries; a ValueError is raised when none is left, and a
    WorkerError when a worker process dies.
    """
    if reps < 50:
        raise ValueError("need at least 50 replications for a meaningful report")
    heckman.check_vcov_variant(vcov_variant)

    names = _labels(config)[1] + [heckman.IMR_LABEL]
    truth = np.array(list(config.outcome_coef) + [config.rho * config.sigma_u])

    size = max(1, MC_CHUNK_ROWS // config.n)
    chunks = [range(start, min(start + size, reps)) for start in range(0, reps, size)]
    fitted = [o for chunk in _fit_chunks_in_parallel(config, vcov_variant, truth, chunks)
              for o in chunk]
    estimates = [o[0] for o in fitted if not isinstance(o, str)]
    covered = [o[1] for o in fitted if not isinstance(o, str)]
    failures = Counter(o for o in fitted if isinstance(o, str))

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
        vcov_variant=vcov_variant,
        parameters=params,
        failures=dict(failures.most_common()),
    )

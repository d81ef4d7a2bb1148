"""vaxsel benchmark: run one workload for a fixed time and print its metrics.

Run from the repository root:

    python3 benchmark/run.py --workload replicate --seed 1 --seconds 30 --trace 0

Each operation is one in-process ``vaxsel.cli.main([...])`` call writing
to a fresh directory under .bench_out/.  With --trace 0 the run reports
the end-to-end metrics of BENCHMARK.json; with --trace 1 it spends half
its time untraced and half with every layer's public functions wrapped
(see layers.py), and reports the per-layer metrics.  Every operation's
output passes through the correctness gate in gate.py.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
A fuller record (environment, samples, problems) goes to
.bench_out/results/, and the spans of a traced run to .bench_out/spans/.

No CPU pinning, cache dropping or other machine tuning is done.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gzip
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, process_time

import numpy as np
from scipy.special import erfc

import gate
import layers
from spans import Tracer

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MC_REPS = 50
SETUP_SPAWNS = 7  # measured fresh processes per run, after one warm-up spawn
SETUP_ARGV = ["fit", "--model", "1"]
SPAWN_TIMEOUT_S = 120
PROBE_ROUNDS = 120
PROBE_NOMINAL_S = 0.04  # scaled times: wall time at the speed where the probe takes this long
_PROBE_X = np.column_stack([np.linspace(-3.0, 3.0, 2000), np.cos(np.arange(2000.0)),
                            np.sin(np.arange(2000.0)), np.ones(2000)])


@dataclass(frozen=True)
class Workload:
    name: str
    simulate: bool
    extra_args: tuple = ()
    coverage_bound: bool = False

    def argv(self, seed):
        if not self.simulate:
            return ["replicate"]
        return ["simulate", *self.extra_args, "--reps", str(MC_REPS), "--seed", str(seed)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("replicate", simulate=False),
        Workload("mc_paper", simulate=True, extra_args=("--n", "189", "--vcov", "robust")),
        Workload("mc_large", simulate=True, coverage_bound=True),
    )
}


def _fail(message):
    print(f"benchmark: {message}", file=sys.stderr)
    sys.exit(2)


def _import_vaxsel():
    if not (SRC / "vaxsel" / "cli.py").is_file():
        _fail(f"no vaxsel sources under {SRC}")
    sys.path.insert(0, str(SRC))
    try:
        import vaxsel.cli
    except ImportError as exc:
        _fail(f"cannot import vaxsel from {SRC}: {exc}")
    if Path(vaxsel.cli.__file__).resolve().parent != (SRC / "vaxsel").resolve():
        _fail(f"vaxsel was imported from {vaxsel.cli.__file__}, not from {SRC}")
    return vaxsel.cli


# ------------------------------------------------------------ environment


def _git_sha():
    """HEAD commit read from .git without running git; None outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest():
    h = hashlib.sha256()
    for p in sorted((SRC / "vaxsel").rglob("*")):
        if p.is_file() and "__pycache__" not in p.parts:
            h.update(p.relative_to(SRC).as_posix().encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def _blas_threads(numpy):
    """Thread count of numpy's bundled OpenBLAS, or None if not found."""
    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*.so")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment():
    import numpy
    import scipy
    import yaml

    def blas(config):
        dep = config["Build Dependencies"]["blas"]
        return f"{dep.get('name')} {dep.get('version')}"

    nproc = len(os.sched_getaffinity(0))
    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "pyyaml": yaml.__version__,
        "numpy_blas": blas(numpy.show_config(mode="dicts")),
        "scipy_blas": blas(scipy.show_config(mode="dicts")),
        "blas_threads": _blas_threads(numpy),
        "nproc": nproc,
        "machine": platform.machine(),
        "tuning": "none: no CPU pinning, no cache dropping, no machine tuning",
        "load": f"one benchmark process (one set-up child at a time, waited for) "
                f"with BLAS threads <= nproc = {nproc}",
    }


# ------------------------------------------------------------ measurement


def speed_probe():
    """Wall time of a fixed piece of reference work, run next to each sample.

    The work resembles vaxsel's own: normal-tail kernels and weighted
    cross-products on a 2000 x 4 design (as in one probit Newton step),
    then dict, list and string handling in plain Python.  It calls no
    BLAS and no vaxsel code, so no change to vaxsel can change its cost.
    On a shared machine the speed of the CPU drifts by tens of percent
    over seconds to minutes; the probe slows with it, so a sample divided
    by its neighbouring probes does not.
    """
    X, coef = _PROBE_X, np.array([0.3, -0.2, 0.1, 0.05])
    acc = 0.0
    t0 = perf_counter()
    for _ in range(PROBE_ROUNDS):
        idx = (X * coef).sum(axis=1)
        log_cdf = np.log(0.5 * erfc(-idx / math.sqrt(2.0)))
        lam = np.exp(-0.5 * idx * idx - log_cdf) / math.sqrt(2.0 * math.pi)
        w = lam * (lam + idx)
        acc += float(((X * w[:, None])[:, :, None] * X[:, None, :]).sum())
        rows = [{"code": f"v{k}", "value": k * 0.5} for k in range(60)]
        acc += len(",".join(f"{r['code']}={r['value']:.3f}" for r in rows))
    return perf_counter() - t0


def scaled(samples, probes):
    """Samples at nominal machine speed.

    probes[i] and probes[i + 1] bracket samples[i]; each sample is
    multiplied by PROBE_NOMINAL_S over the mean of its two probes.
    """
    return [s * 2.0 * PROBE_NOMINAL_S / (probes[i] + probes[i + 1])
            for i, s in enumerate(samples)]


def measure_setup(scratch):
    """Wall times of fresh `python -m vaxsel.cli fit` processes, and problems.

    One unmeasured spawn first warms the file cache and writes bytecode.
    These times are not scaled by the speed probe: a process start-up
    does not slow in step with it.
    """
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = str(SRC)
    times, problems = [], []
    for i in range(SETUP_SPAWNS + 1):
        out = Path(tempfile.mkdtemp(dir=scratch))
        cmd = [sys.executable, "-m", "vaxsel.cli", *SETUP_ARGV, "--out", str(out)]
        t0 = perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=SPAWN_TIMEOUT_S)
        elapsed = perf_counter() - t0
        table = out / "tables" / "fit_1.csv"
        if proc.returncode != 0:
            problems.append(f"set-up process exit {proc.returncode}: "
                            f"{proc.stderr.decode(errors='replace')[-300:]}")
        elif not table.is_file() or "\nerror," in table.read_text(encoding="utf-8"):
            problems.append("set-up process wrote no usable fit table")
        shutil.rmtree(out)
        if i:
            times.append(elapsed)
    return times, problems


class Runner:
    """Runs and gates operations of one workload; tallies units."""

    def __init__(self, cli, workload, seed, scratch):
        self.cli = cli
        self.workload = workload
        self.argv = workload.argv(seed)
        self.scratch = scratch
        self.reference = None if workload.simulate else gate.load_reference()
        self.first_csv = None
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def op(self):
        """One gated operation; returns (wall seconds, cpu seconds)."""
        out = Path(tempfile.mkdtemp(dir=self.scratch))
        sink = io.StringIO()
        error = None
        c0, t0 = process_time(), perf_counter()
        try:
            with contextlib.redirect_stderr(sink):
                code = self.cli.main([*self.argv, "--out", str(out)])
        except Exception as exc:  # a raising operation is a counted failure
            code, error = None, f"raised {type(exc).__name__}: {exc}"
        wall, cpu = perf_counter() - t0, process_time() - c0
        if code not in (0, None):
            error = f"exit code {code}: {sink.getvalue().strip()[-300:]}"
        self._check(out, error)
        shutil.rmtree(out)
        return wall, cpu

    def _check(self, out, error):
        problems = [error] if error else []
        if not self.workload.simulate:
            if not problems:
                problems = gate.check_replicate(out, self.reference)
            self.attempted += 1
            self.failed += bool(problems)
        else:
            reps_failed = 0
            if not problems:
                try:
                    raw, rows, used, reps_failed = gate.read_recovery(out)
                    if self.first_csv is None:
                        self.first_csv = raw
                    problems = gate.check_recovery(
                        raw, rows, used, self.first_csv, self.workload.coverage_bound)
                except (OSError, ValueError, KeyError) as exc:
                    problems = [f"unreadable recovery report: {exc!r}"]
            self.attempted += MC_REPS
            self.failed += MC_REPS if problems else reps_failed
        self.problems.extend(problems[:5])


def timed_loop(runner, seconds, after_op=None):
    """Gated operations for `seconds`, each bracketed by speed probes.

    Returns (wall samples, cpu samples, probes); `after_op`, if given,
    runs after each operation, outside its timing.
    """
    walls, cpus, probes = [], [], [speed_probe()]
    start = perf_counter()
    while not walls or perf_counter() - start < seconds:
        wall, cpu = runner.op()
        walls.append(wall)
        cpus.append(cpu)
        if after_op is not None:
            after_op()
        probes.append(speed_probe())
    return walls, cpus, probes


def traced_loop(runner, seconds):
    """timed_loop with every layer wrapped; adds per-op metrics and the tracer."""
    tracer = Tracer()
    per_op = []

    def collect():
        per_op.append(layers.op_metrics(tracer.take_op()))
        tracer.op = len(per_op)

    try:
        originals = layers.install(tracer)
        walls, _, probes = timed_loop(runner, seconds, after_op=collect)
    finally:
        tracer.restore()
    for module, attribute, fn in originals:
        if layers.resolve(module, attribute)[1] is not fn:
            raise RuntimeError(f"{module}.{attribute} was not restored after tracing")
    return walls, probes, per_op, tracer


def _median_metrics(rows):
    """Median over operations; median_low keeps a count a whole number."""
    return {k: statistics.median_low(r[k] for r in rows) for k in rows[0]}


def main(argv=None):
    parser = argparse.ArgumentParser(description="vaxsel benchmark: one workload, one seed")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True,
                        help="simulate --seed for the mc_* workloads; replicate has no seed")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    cli = _import_vaxsel()
    workload = WORKLOADS[args.workload]
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=OUT, prefix="ops-"))
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seed_used": workload.simulate,
        "argv": workload.argv(args.seed),
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
    }
    try:
        runner = Runner(cli, workload, args.seed, scratch)
        if not args.trace:
            setup, setup_problems = measure_setup(scratch)
            runner.problems.extend(setup_problems)
            runner.op()  # warm-up: excluded from the timings, still gated
            walls, _, probes = timed_loop(runner, args.seconds)
            values = {
                "setup_s": statistics.median(setup),
                "op_p50_s": statistics.median(scaled(walls, probes)),
                "ok_share": 1.0 - runner.failed / runner.attempted,
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            record["setup_samples_s"] = setup
            spec = declared["end_to_end"]
        else:
            runner.op()
            walls, cpus, probes = timed_loop(runner, args.seconds / 2)
            traced, traced_probes, per_op, tracer = traced_loop(runner, args.seconds / 2)
            values = _median_metrics(per_op)
            values["proc.cpu_s_per_op"] = statistics.median(cpus)
            values["trace.overhead_ratio"] = (statistics.median(scaled(traced, traced_probes))
                                              / statistics.median(scaled(walls, probes)))
            (OUT / "spans").mkdir(exist_ok=True)
            spans_path = OUT / "spans" / f"{workload.name}-seed{args.seed}-{os.getpid()}.jsonl.gz"
            with gzip.open(spans_path, "wt", encoding="utf-8") as handle:
                tracer.write_jsonl(handle)
            record.update(spans_file=spans_path.relative_to(ROOT).as_posix(),
                          traced_op_s=traced, traced_probe_s=traced_probes)
            spec = declared["per_layer"]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if set(values) != {m["name"] for m in spec}:
        raise RuntimeError(f"metrics {sorted(set(values) ^ {m['name'] for m in spec})} "
                           "do not match BENCHMARK.json")
    result = {
        "correct": not runner.problems and runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec},
    }
    record.update(result, op_s=walls, probe_s=probes, problems=runner.problems)
    results_path = (OUT / "results"
                    / f"{workload.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json")
    results_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"# {len(walls)} timed ops; environment and samples in "
          f"{results_path.relative_to(ROOT).as_posix()}")
    print("# environment " + json.dumps(record["environment"]))
    for problem in runner.problems[:10]:
        print(f"# problem: {problem}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

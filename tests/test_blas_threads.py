"""vaxsel.cli defaults OPENBLAS_NUM_THREADS to 1 when it is imported before numpy, and
the number of BLAS threads moves no output byte.  Each check runs a fresh interpreter,
because OpenBLAS reads the variable only once, when numpy loads it."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def fresh_env(**extra):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    return dict(env, PYTHONPATH=str(SRC), **extra)


def run_python(code, env):
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    return proc.stdout.split()


def test_importing_the_cli_first_runs_one_blas_thread():
    value, threads = run_python(
        "import os, vaxsel.cli; print(os.environ.get('OPENBLAS_NUM_THREADS'), "
        "len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else '-')",
        fresh_env())
    assert value == "1"
    if threads != "-":  # no per-thread directory to count on this platform
        assert threads == "1"


def test_a_thread_count_the_caller_set_is_kept():
    assert run_python("import os, vaxsel.cli; print(os.environ['OPENBLAS_NUM_THREADS'])",
                      fresh_env(OPENBLAS_NUM_THREADS="2")) == ["2"]


def test_a_host_that_loaded_numpy_first_is_left_alone():
    code = "import os, numpy, vaxsel.cli; print('OPENBLAS_NUM_THREADS' in os.environ)"
    assert run_python(code, fresh_env()) == ["False"]


def tree_bytes(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


# n=189 fits its 50 reps as one chunk in this process; n=2000 makes 7 chunks, which
# are forked over the usable CPUs
@pytest.mark.parametrize("argv", [
    ["replicate"],
    ["simulate", "--n", "189", "--vcov", "robust", "--reps", "50", "--seed", "7"],
    ["simulate", "--reps", "50", "--seed", "7"],
])
def test_blas_threads_move_no_output_byte(tmp_path, argv):
    trees = {}
    for threads in (None, "2"):
        out = tmp_path / f"threads_{threads}"
        env = fresh_env() if threads is None else fresh_env(OPENBLAS_NUM_THREADS=threads)
        subprocess.run([sys.executable, "-m", "vaxsel.cli", *argv, "--out", str(out)],
                       env=env, capture_output=True, check=True)
        trees[threads] = tree_bytes(out)
    assert trees[None] and trees[None] == trees["2"]

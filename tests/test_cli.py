"""Command-line behaviour: exit codes, determinism, input immutability."""

import argparse
import contextlib
import errno
import hashlib
import io
import json
import math
import os
import signal
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vaxsel import heckman, probit, render, synth
from vaxsel.cli import build_parser, main
from vaxsel.panel import save_panel
from vaxsel.probit import ProbitError
from tests.conftest import examples, packaged

REPO = Path(__file__).resolve().parents[1]
REPLICATE_REFERENCE = REPO / "benchmark" / "replicate_reference.json"


def tree_digest(root: Path) -> dict:
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file():
            out[str(p.relative_to(root))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


def tree_state(root: Path) -> dict:
    """Every path under root, hidden ones too, with its bytes, or None for a directory."""
    return {p: p.read_bytes() if p.is_file() else None for p in root.rglob("*")}


def test_replicate_happy_path(tmp_path):
    out = tmp_path / "out"
    assert main(["replicate", "--out", str(out)]) == 0
    files = {str(p.relative_to(out)) for p in out.rglob("*") if p.is_file()}
    expected = {
        "tables/table1.md", "tables/table1.csv",
        "tables/table2.md", "tables/table2.csv",
        "tables/table3.md", "tables/table3.csv",
        "tables/table4.md", "tables/table4.csv",
        "figures/fig1.csv", "figures/fig1.svg",
        "figures/fig2.csv", "figures/fig2.svg",
        "figures/fig3.csv", "figures/fig3.svg",
        "figures/figA1.csv", "figures/figA1.svg",
        "report/replication_diff.md", "report/audit.log",
    }
    assert files == expected


def test_replicate_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["replicate", "--out", str(out1)]) == 0
    assert main(["replicate", "--out", str(out2)]) == 0
    assert tree_digest(out1) == tree_digest(out2)


def test_replicate_matches_reference_digests(tmp_path):
    out = tmp_path / "out"
    assert main(["replicate", "--out", str(out)]) == 0
    reference = json.loads(REPLICATE_REFERENCE.read_text(encoding="utf-8"))
    assert tree_digest(out) == reference["files"]


OUTPUT_REFERENCE = json.loads((REPO / "tests" / "output_reference.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("run", OUTPUT_REFERENCE["runs"], ids=lambda run: run["command"])
def test_output_tree_matches_reference_digests(tmp_path, run):
    # sha256 of every file each command writes, recorded with the library
    # versions CI pins; a refactor that moves a bit of any output fails here
    out = tmp_path / "out"
    assert main(run["command"].split()[1:] + ["--out", str(out)]) == 0
    assert tree_digest(out) == run["files"]


def test_in_process_calls_share_one_parser_and_keep_every_byte(tmp_path, monkeypatch):
    # the benchmark calls main over and over in one interpreter: no call may leave state
    # that moves a byte of a later call's output, and the parser is built only once
    built, init = [], argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        if kwargs.get("prog") == "vaxsel":  # not a subcommand's parser
            built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    build_parser.cache_clear()
    replicate = json.loads(REPLICATE_REFERENCE.read_text(encoding="utf-8"))
    pinned = {run["command"]: run["files"] for run in [*OUTPUT_REFERENCE["runs"], replicate]}
    commands = ["vaxsel replicate", "vaxsel replicate", "vaxsel replicate --vcov heckman",
                "vaxsel simulate --n 189 --vcov robust --reps 50 --seed 7"]
    for i, command in enumerate(commands):
        assert main(command.split()[1:] + ["--out", str(tmp_path / str(i))]) == 0
        assert tree_digest(tmp_path / str(i)) == pinned[command], command
    assert len(built) == 1


@pytest.mark.parametrize("command", ["describe", "replicate"])
def test_a_byte_order_mark_before_the_header_changes_no_output(tmp_path, command):
    # a spreadsheet's "CSV UTF-8" export writes one; the header read as '\ufeffiso3', name
    data = tmp_path / "bom.csv"
    data.write_bytes(b"\xef\xbb\xbf" + packaged("snapshot.csv").read_bytes())
    assert main([command, "--out", str(tmp_path / "plain")]) == 0
    assert main([command, "--data", str(data), "--out", str(tmp_path / "bom")]) == 0
    assert tree_digest(tmp_path / "bom") == tree_digest(tmp_path / "plain")


def test_replicate_fits_each_cell_once(tmp_path, monkeypatch):
    frames = []
    fit_two_step = heckman.fit_two_step

    def counting(frame, *args, **kwargs):
        frames.append(hashlib.sha256(
            frame.selection_X.tobytes() + frame.outcome_X.tobytes()
            + frame.outcome_y.tobytes()).hexdigest())
        return fit_two_step(frame, *args, **kwargs)

    monkeypatch.setattr(heckman, "fit_two_step", counting)
    assert main(["replicate", "--out", str(tmp_path / "out")]) == 0
    assert len(frames) == 13
    assert len(set(frames)) == 13


def test_a_failing_covariance_is_a_column_error_of_replicate(tmp_path, monkeypatch, capsys):
    def singular(*args):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(heckman, "heckman_corrected_vcov", singular)
    out = tmp_path / "out"
    assert main(["replicate", "--out", str(out)]) == 0
    assert "error:" not in capsys.readouterr().err
    for table in ("table2", "table3", "table4"):
        text = (out / "tables" / f"{table}.md").read_text(encoding="utf-8")
        assert "- model1:outcome: estimation failed: Singular matrix" in text
    report = (out / "report" / "replication_diff.md").read_text(encoding="utf-8")
    rows = [line for line in report.splitlines() if line.startswith(("| table2", "| table3",
                                                                    "| table4"))]
    assert rows and all("| (model failed) | (model failed) | no | no |" in r for r in rows)


def forced_second_stage_errors(monkeypatch, error_of):
    """Patch heckman.second_stages so that sample r of each chunk fails with
    error_of(r) wherever that is an exception rather than None."""
    second_stages = heckman.second_stages

    def forcing(*args, **kwargs):
        stages = second_stages(*args, **kwargs)
        errors = [error_of(r) or err for r, err in enumerate(stages.errors)]
        return stages._replace(errors=errors)

    monkeypatch.setattr(heckman, "second_stages", forcing)


def test_simulate_with_every_fit_failing_exits_1(tmp_path, monkeypatch, capsys):
    forced_second_stage_errors(
        monkeypatch, lambda r: ProbitError("first-stage probit did not converge"))
    code = main(["simulate", "--n", "100", "--reps", "50", "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert errors == ["error: all 50 replications failed to estimate"]


@pytest.mark.parametrize("death", ["exit", "kill"])
def test_simulate_worker_death_exits_1(tmp_path, monkeypatch, capsys, deadline, death):
    # 50 reps at n=2000 make seven chunks; the forked worker dies in its first
    parent = os.getpid()
    fit_many = probit.fit_many

    def dying_in_worker(*args, **kwargs):
        if os.getpid() != parent:
            if death == "exit":
                os._exit(1)
            os.kill(os.getpid(), signal.SIGKILL)
        return fit_many(*args, **kwargs)

    monkeypatch.setattr(probit, "fit_many", dying_in_worker)
    monkeypatch.setattr(synth, "_usable_cpus", lambda: 2)
    code = main(["simulate", "--reps", "50", "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert errors == ["error: a Monte Carlo worker process ended abruptly "
                      "before returning its replications"]
    with pytest.raises(ChildProcessError):  # the dead worker is reaped, and no other is left
        os.waitpid(-1, os.WNOHANG)
    assert not (tmp_path / "out").exists()


def test_simulate_names_the_failed_replications_on_stderr(tmp_path, monkeypatch, capsys):
    # the 50 replications at n=189 are one chunk; three of them are made to fail
    forced = {0: ProbitError("forced"), 1: heckman.CollinearMillsError("forced"),
              2: ProbitError("forced")}
    forced_second_stage_errors(monkeypatch, forced.get)
    out = tmp_path / "out"
    assert main(["simulate", "--n", "189", "--reps", "50", "--out", str(out)]) == 0
    assert capsys.readouterr().err.splitlines() == [
        "simulate: 50 replications at n=189, rho=0.5",
        "simulate: 3 replications failed (ProbitError 2, CollinearMillsError 1)",
        f"simulate: wrote recovery report under {out}",
    ]
    assert "- replications: 47 used, 3 failed (of 50)" in (out / "recovery.md").read_text()


@pytest.mark.parametrize("seed", ["-1", str(2**128)])
def test_simulate_seed_out_of_range_exits_1(tmp_path, capsys, seed):
    code = main(["simulate", "--seed", seed, "--reps", "50", "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.splitlines() == [f"error: seed must lie in [0, 2**128); got {seed}"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("sigma_u", ["nan", "inf"])
def test_simulate_non_finite_sigma_exits_1(tmp_path, capsys, sigma_u):
    code = main(["simulate", "--sigma-u", sigma_u, "--reps", "50", "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert errors == ["error: sigma_u must be positive and finite"]
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("sigma_u", ["1e200", "1e154", "1e-16", "1e-300", "5e-324"])
def test_simulate_sigma_beyond_float_range_or_resolution_exits_1(tmp_path, capsys, sigma_u):
    # 1e200 died with an OverflowError traceback, 1e154 reported coverage 0 for
    # every parameter, and the small scales reported coverages of rounding noise
    out = tmp_path / "out"
    code = main(["simulate", "--sigma-u", sigma_u, "--n", "189", "--reps", "50", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and errors[0].startswith("error: sigma_u must lie in [")
    assert not out.exists()


def test_simulate_sigma_inside_the_bounds_runs(tmp_path):
    # the estimator is scale-equivariant, so coverage does not move with sigma_u
    coverages = []
    for sigma_u in ("1", "1e-6", "1e100"):
        out = tmp_path / sigma_u
        args = ["simulate", "--sigma-u", sigma_u, "--n", "189", "--reps", "50", "--seed", "7"]
        assert main(args + ["--out", str(out)]) == 0
        rows = (out / "recovery.csv").read_text().splitlines()[1:]
        coverages.append([row.rsplit(",", 1)[1] for row in rows])
    assert coverages[1] == coverages[2] == coverages[0]


NEAR_ONE = 1.0 - 1e-12


@settings(max_examples=examples(60), deadline=None)
@given(
    n=st.integers(50, 320),  # at most 320 rows: 50 replications make one chunk, so no fork
    rho=st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True)
    | st.sampled_from([NEAR_ONE, -NEAR_ONE]),
    log_sigma=st.floats(-320.0, 300.0),
    seed=st.integers(-1, 2**128),  # one past each end of the valid range included
    vcov=st.sampled_from(["robust", "heckman"]),
)
def test_simulate_gives_finite_numbers_or_one_error_line(n, rho, log_sigma, seed, vcov):
    argv = ["simulate", "--n", str(n), "--rho", repr(rho), "--sigma-u", repr(10.0**log_sigma),
            "--seed", str(seed), "--reps", "50", "--vcov", vcov]
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(io.StringIO()) as err:
        out = Path(tmp) / "out"
        code = main(argv + ["--out", str(out)])
        report = (out / "recovery.csv").read_text() if code == 0 else ""
    assert "Traceback" not in err.getvalue()
    errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
    if code == 1:
        assert len(errors) == 1
        return
    assert code == 0 and errors == []
    numbers = [cell for row in report.splitlines()[1:] for cell in row.split(",")[1:]]
    assert len(numbers) == 4 * 5 and all(math.isfinite(float(x)) for x in numbers), report


@pytest.mark.parametrize("flag", ["--rho", "--sigma-u"])
@pytest.mark.parametrize("value", ["-1e-05", "-6.103515625e-05", "-1.5e+16", "-0.25", "-3",
                                   "-inf"])
def test_simulate_reads_a_negative_float_in_repr_form(flag, value):
    # argparse's own pattern misses an exponent and took "-1e-05" for an option
    args = build_parser().parse_args(["simulate", flag, value, "--out", "out"])
    assert getattr(args, flag[2:].replace("-", "_")) == float(value)


def test_simulate_small_negative_rho_runs(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["simulate", "--rho", "-1e-05", "--n", "60", "--reps", "50", "--out", str(out)]) == 0
    assert (out / "recovery.csv").exists()
    code = main(["simulate", "--sigma-u", "-1e-05", "--reps", "50", "--out", str(out)])
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert (code, errors) == (1, ["error: sigma_u must be positive and finite"])


def test_simulate_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    args = ["simulate", "--rho", "0.5", "--n", "500", "--reps", "60", "--seed", "7"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert tree_digest(out1) == tree_digest(out2)
    assert (out1 / "recovery.csv").exists()
    assert (out1 / "recovery.md").exists()


def test_describe(tmp_path):
    out = tmp_path / "out"
    assert main(["describe", "--out", str(out)]) == 0
    text = (out / "tables" / "table1.md").read_text()
    assert "Descriptive statistics" in text


def test_fit_single_model_with_filter(tmp_path):
    out = tmp_path / "out"
    assert main(["fit", "--model", "2", "--filter", "table4", "--out", str(out)]) == 0
    text = (out / "tables" / "fit_2.csv").read_text()
    assert "observations,model2:selection,184" in text


def test_fit_heckman_vcov(tmp_path):
    out = tmp_path / "out"
    assert main(["fit", "--model", "1", "--vcov", "heckman", "--out", str(out)]) == 0
    assert "heckman_corrected" in (out / "tables" / "fit_1.md").read_text()


def test_missing_data_file_exits_1(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["replicate", "--data", "/nonexistent/snapshot.csv", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "/nonexistent/snapshot.csv" in err


def test_nonfinite_data_cell_exits_1(tmp_path, capsys):
    lines = packaged("snapshot.csv").read_text(encoding="utf-8").splitlines()
    gdp = lines[0].split(",").index("gdp")
    cells = lines[1].split(",")
    cells[gdp] = "inf"
    data = tmp_path / "snapshot.csv"
    data.write_text("\n".join([lines[0], ",".join(cells), *lines[2:]]) + "\n", encoding="utf-8")
    code = main(["replicate", "--data", str(data), "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert errors == ["error: non-finite number 'inf' (row 2, column 'gdp')"]


def test_duplicate_header_column_exits_1(tmp_path, capsys):
    # a second cases column, all 5s, must not replace the first
    lines = packaged("snapshot.csv").read_text(encoding="utf-8").splitlines()
    data = tmp_path / "dup.csv"
    data.write_text("\n".join([lines[0] + ",cases"] + [line + ",5" for line in lines[1:]]) + "\n",
                    encoding="utf-8")
    code = main(["describe", "--data", str(data), "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert errors == ["error: columns named more than once in header: ['cases']"]


def test_malformed_schema_exits_1(tmp_path, capsys):
    schema = tmp_path / "bad.csv"
    schema.write_text("code,transform\ncases,log\n", encoding="utf-8")
    code = main(["describe", "--schema", str(schema), "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert errors == ["error: schema header must be code,transform,source_label; "
                      "got ['code', 'transform']"]


# every estimation error class the CLI catches; `vaxsel figures` fits the
# start-probability probit outside any per-model handler, so an error raised
# by that fit reaches cli.main
ESTIMATION_FAILURES = [
    probit.SeparationError("the classes appear perfectly separated"),
    probit.RankDeficientError(["gdp"]),
    heckman.CollinearMillsError("Mills column is collinear with the outcome design"),
    probit.ProbitError("singular Hessian at iteration 3"),
]


@pytest.mark.parametrize("failure", ESTIMATION_FAILURES, ids=lambda exc: type(exc).__name__)
def test_estimation_error_exits_1(tmp_path, monkeypatch, capsys, failure):
    def fail(*args, **kwargs):
        raise failure

    monkeypatch.setattr(probit, "fit", fail)
    code = main(["figures", "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert errors == [f"error: {failure}"]


def test_unconverged_start_probit_exits_1(tmp_path, monkeypatch, capsys):
    # without step-halving the start-probability probit stops short of the
    # optimum; figure 2 must not be drawn from that fit
    monkeypatch.setattr(probit, "MAX_STEP_HALVINGS", 0)
    out = tmp_path / "out"
    code = main(["figures", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1
    assert errors[0].startswith("error: probit on ['gdp', 'const'] did not converge: "
                                "line search failed at iteration 1 (score norm ")
    assert not list(out.rglob("fig2*"))


@pytest.mark.parametrize("failure, message", [
    (MemoryError("Unable to allocate 1.46 TiB for an array with shape (100000000000, 2)"),
     "Unable to allocate 1.46 TiB for an array with shape (100000000000, 2)"),
    (MemoryError(), "MemoryError"),
], ids=["numpy", "bare"])
def test_out_of_memory_exits_1(tmp_path, monkeypatch, capsys, failure, message):
    # stands in for the first allocation of a sample too large to draw
    def exhausted(*args, **kwargs):
        raise failure

    monkeypatch.setattr(synth, "_draw", exhausted)
    code = main(["simulate", "--n", "100", "--reps", "50", "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert [line for line in err.splitlines() if line.startswith("error:")] == [f"error: {message}"]


def test_degenerate_fit_is_labelled_with_the_covariance_it_uses(tmp_path, snapshot):
    # on the started countries alone every row is selected: least squares
    # with HC1 and no selection stage, whatever --vcov asks for
    data = tmp_path / "started.csv"
    save_panel(snapshot.take(snapshot.column("started") == 1.0), data)
    outs = {}
    for flag in ("robust", "heckman"):
        outs[flag] = tmp_path / flag
        argv = ["fit", "--model", "2", "--vcov", flag, "--data", str(data), "--out", str(outs[flag])]
        assert main(argv) == 0
    note = ("Note: model2: every row is selected, so there is no selection stage or Mills "
            "column; second-stage covariance: plain_robust")
    for out in outs.values():
        assert note in (out / "tables" / "fit_2.md").read_text(encoding="utf-8").splitlines()
    csvs = [(out / "tables" / "fit_2.csv").read_bytes() for out in outs.values()]
    assert csvs[0] == csvs[1]


def test_unwritable_out_exits_1(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory\n", encoding="utf-8")
    code = main(["describe", "--out", str(blocker / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and str(blocker) in errors[0]


def test_output_files_take_their_mode_from_the_umask(tmp_path):
    # each file was made by mkstemp, mode 0600 whatever the umask
    previous = os.umask(0o022)
    try:
        assert main(["replicate", "--out", str(tmp_path / "out")]) == 0
    finally:
        os.umask(previous)
    modes = {str(p): p.stat().st_mode & 0o777 for p in tmp_path.rglob("*") if p.is_file()}
    assert len(modes) == 18 and set(modes.values()) == {0o644}, modes


@pytest.mark.parametrize("k", [1, 9, 18])
def test_a_write_failing_partway_leaves_the_earlier_tree(tmp_path, monkeypatch, capsys, k):
    # over a tree of another run, whose tables differ, so any file renamed early shows
    out = tmp_path / "out"
    assert main(["replicate", "--vcov", "heckman", "--out", str(out)]) == 0
    before = tree_state(out)
    calls = []
    write = render.write_text_atomic

    def full_disk(path, text):
        calls.append(path)
        if len(calls) == k:
            raise OSError(errno.ENOSPC, "No space left on device", str(path))
        write(path, text)

    monkeypatch.setattr(render, "write_text_atomic", full_disk)
    capsys.readouterr()
    assert main(["replicate", "--out", str(out)]) == 1
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and "No space left on device" in errors[0], errors
    assert len(calls) == k
    assert tree_state(out) == before


def test_a_write_failing_into_a_fresh_out_leaves_no_directory(tmp_path, monkeypatch, capsys):
    # both E and E/sub are made by the run; tmp_path was there before it
    out = tmp_path / "E" / "sub"

    def full_disk(path, text):
        raise OSError(errno.ENOSPC, "No space left on device", str(path))

    monkeypatch.setattr(render, "write_text_atomic", full_disk)
    assert main(["describe", "--out", str(out)]) == 1
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert errors == [f"error: [Errno {errno.ENOSPC}] No space left on device: "
                      f"'{out / 'tables' / 'table1.md'}'"]
    assert list(tmp_path.iterdir()) == []


def test_usage_error_exits_2(capsys):
    assert main(["replicate"]) == 2  # --out is required
    assert main(["frobnicate"]) == 2


@pytest.mark.parametrize("command", ["replicate", "figures"])
def test_grid_is_not_an_option(tmp_path, capsys, command):
    # figure 2's curve has one resolution, 100 points
    assert main([command, "--grid", "7", "--out", str(tmp_path / "out")]) == 2
    assert "error: unrecognized arguments: --grid 7" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_inputs_not_mutated(tmp_path):
    data = packaged("snapshot.csv")
    before = data.read_bytes()
    assert main(["replicate", "--out", str(tmp_path / "out")]) == 0
    assert data.read_bytes() == before


def test_figures_only(tmp_path):
    out = tmp_path / "out"
    assert main(["figures", "--out", str(out)]) == 0
    lines = (out / "figures" / "fig2.csv").read_text().splitlines()
    points = [l for l in lines[1:] if l and not l.startswith("#")]
    assert len(points) == 100

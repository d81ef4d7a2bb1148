"""Command-line behaviour: exit codes, determinism, input immutability."""

import hashlib
import json
import multiprocessing
import os
import signal
from pathlib import Path

import pytest

from vaxsel import heckman, probit, synth
from vaxsel.cli import main
from vaxsel.probit import ProbitError
from tests.conftest import packaged

REPO = Path(__file__).resolve().parents[1]
REPLICATE_REFERENCE = REPO / "benchmark" / "replicate_reference.json"


def tree_digest(root: Path) -> dict:
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file():
            out[str(p.relative_to(root))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


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


def test_simulate_with_every_fit_failing_exits_1(tmp_path, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise ProbitError("first-stage probit did not converge")

    monkeypatch.setattr(heckman, "fit_two_step", fail)
    code = main(["simulate", "--n", "100", "--reps", "50", "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert errors == ["error: all 50 replications failed to estimate"]


@pytest.mark.parametrize("death", ["exit", "kill"])
def test_simulate_worker_death_exits_1(tmp_path, monkeypatch, capsys, death):
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
    assert multiprocessing.active_children() == []
    assert not (tmp_path / "out").exists()


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


def test_malformed_schema_yaml_exits_1(tmp_path, capsys):
    schema = tmp_path / "bad.yaml"
    schema.write_text("a: [1, 2\n", encoding="utf-8")
    code = main(["describe", "--schema", str(schema), "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert errors == [f"error: schema file {schema} is not valid YAML (line 2, column 1)"]


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
    assert errors[0].startswith("error: start-probability probit did not converge (score norm ")
    assert not list(out.rglob("fig2*"))


def test_unwritable_out_exits_1(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory\n", encoding="utf-8")
    code = main(["describe", "--out", str(blocker / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and str(blocker) in errors[0]


def test_usage_error_exits_2(capsys):
    assert main(["replicate"]) == 2  # --out is required
    assert main(["frobnicate"]) == 2


def test_inputs_not_mutated(tmp_path):
    data = packaged("snapshot.csv")
    before = data.read_bytes()
    assert main(["replicate", "--out", str(tmp_path / "out")]) == 0
    assert data.read_bytes() == before


def test_figures_only(tmp_path):
    out = tmp_path / "out"
    assert main(["figures", "--grid", "25", "--out", str(out)]) == 0
    lines = (out / "figures" / "fig2.csv").read_text().splitlines()
    points = [l for l in lines[1:] if l and not l.startswith("#")]
    assert len(points) == 25

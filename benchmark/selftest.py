"""Self-tests of the benchmark: its gate, its span arithmetic, its clean-up.

    python3 -m pytest -q benchmark/selftest.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gate
import layers
import run
from spans import Span, Tracer, self_times

cli = run._import_vaxsel()


def _op_tree(runner, tmp_path, name):
    out = tmp_path / name
    assert cli.main([*runner.argv, "--out", str(out)]) == 0
    return out


@pytest.fixture
def replicate_runner(tmp_path):
    return run.Runner(cli, run.WORKLOADS["replicate"], seed=0, scratch=tmp_path)


@pytest.fixture
def mc_runner(tmp_path):
    return run.Runner(cli, run.WORKLOADS["mc_paper"], seed=3, scratch=tmp_path)


def test_replicate_output_matches_reference(replicate_runner):
    replicate_runner.op()
    assert (replicate_runner.attempted, replicate_runner.failed) == (1, 0)
    assert replicate_runner.problems == []


def test_flipped_byte_in_replicate_table_counts_as_failure(replicate_runner, tmp_path):
    out = _op_tree(replicate_runner, tmp_path, "tree")
    table = out / "tables" / "table2.csv"
    data = bytearray(table.read_bytes())
    data[len(data) // 2] ^= 0x01
    table.write_bytes(bytes(data))
    replicate_runner._check(out, None)
    assert (replicate_runner.attempted, replicate_runner.failed) == (1, 1)
    assert any("table2.csv" in p for p in replicate_runner.problems)


def test_column_error_in_replicate_table_counts_as_failure(tmp_path):
    (tmp_path / "tables").mkdir()
    (tmp_path / "tables" / "table3.csv").write_text('error,model1:outcome,"singular",,\n')
    assert any("column error" in p for p in gate.check_replicate(tmp_path, {}))


def test_perturbed_recovery_value_counts_as_failure(mc_runner, tmp_path):
    mc_runner.op()  # sets the run's reference recovery.csv
    assert (mc_runner.attempted, mc_runner.failed) == (run.MC_REPS, 0)
    out = _op_tree(mc_runner, tmp_path, "tree")
    csv_path = out / "recovery.csv"
    lines = csv_path.read_text().splitlines()
    fields = lines[1].split(",")
    fields[3] = f"{float(fields[3]) + 1e-6:.6f}"  # mean_bias of the first parameter
    lines[1] = ",".join(fields)
    csv_path.write_text("\n".join(lines) + "\n")
    mc_runner._check(out, None)
    assert (mc_runner.attempted, mc_runner.failed) == (2 * run.MC_REPS, run.MC_REPS)
    assert any("differs" in p for p in mc_runner.problems)


def test_recovery_bounds():
    rows = [{"parameter": "x1", "mean_bias": "-0.039", "rmse": "0.1", "coverage": "0.95"}]
    assert gate.check_recovery(b"a", rows, 100, b"a", coverage_bound=True) == []
    rows[0]["mean_bias"] = "0.041"  # 4 * 0.1 / sqrt(100) = 0.04
    assert gate.check_recovery(b"a", rows, 100, b"a", coverage_bound=False)
    rows[0].update(mean_bias="0.0", coverage="0.86")  # 0.95 - 4 * sqrt(0.0475 / 100) = 0.8628
    assert gate.check_recovery(b"a", rows, 100, b"a", coverage_bound=True)
    assert gate.check_recovery(b"a", rows, 100, b"a", coverage_bound=False) == []


def test_self_times_of_nested_spans():
    spans = [
        Span(0, "root", None, 0, start=0.0, end=10.0),
        Span(1, "a", 0, 0, start=1.0, end=4.0),
        Span(2, "b", 0, 0, start=3.0, end=6.0),  # overlaps a: union 1..6
        Span(3, "a.child", 1, 0, start=2.0, end=3.0),
        Span(4, "late", 0, 0, start=9.0, end=12.0),  # clipped at the parent's end
    ]
    assert self_times(spans) == pytest.approx({0: 4.0, 1: 2.0, 2: 3.0, 3: 1.0, 4: 3.0})


def test_op_metrics_on_hand_built_spans():
    fit = Span(0, "probit.fit", None, 0, 0.0, 10.0, attrs={"iterations": 2, "accepted": 2})
    spans = [fit] + [Span(i, "probit.loglik", 0, 0, float(i), i + 0.5) for i in range(1, 5)]
    spans.append(Span(5, "stdnorm.inverse_mills", None, 0, 11.0, 12.0, attrs={"elements": 8}))
    spans.append(Span(6, "stdnorm.log_normal_cdf", 5, 0, 11.0, 11.5, attrs={"elements": 8}))
    m = layers.op_metrics(spans)
    assert m["probit.newton_accept_ratio"] == pytest.approx(2 / 3)
    assert m["probit.fit.self_s"] == pytest.approx(8.0)
    assert (m["stdnorm.calls"], m["stdnorm.elements"], m["stdnorm.bytes_computed"]) == (2, 16, 256)
    assert m["stdnorm.self_s"] == pytest.approx(1.0)


def _bindings():
    import vaxsel.panel

    found = {
        (name, attr): value
        for name, module in sys.modules.items()
        if name == "vaxsel" or name.startswith("vaxsel.")
        for attr, value in vars(module).items()
        if callable(value)
    }
    found[("Panel", "column")] = vaxsel.panel.Panel.column
    return found


def test_traced_run_restores_every_function(replicate_runner):
    before = _bindings()
    walls, _, per_op, _ = run.traced_loop(replicate_runner, seconds=0)
    assert len(walls) == len(per_op) == 1
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert per_op[0]["heckman.fit_two_step.calls"] == 39
    assert per_op[0]["heckman.distinct_fit_ratio"] == pytest.approx(13 / 39)
    assert per_op[0]["panel.column.calls"] == 603


def test_tracer_restores_after_a_raising_call():
    import vaxsel.stdnorm

    original = vaxsel.stdnorm.normal_cdf
    tracer = Tracer()
    tracer.install("cdf", original)
    with pytest.raises(TypeError):
        vaxsel.stdnorm.normal_cdf(object())
    tracer.restore()
    assert vaxsel.stdnorm.normal_cdf is original
    (span,) = tracer.take_op()
    assert span.failed


def test_run_without_program_sources_fails(tmp_path):
    root = Path(run.__file__).resolve().parents[1]
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    shutil.copytree(root / "benchmark", tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "replicate", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_end_to_end_result_line(capsys):
    assert run.main(["--workload", "replicate", "--seed", "1", "--seconds", "0.1"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in declared["end_to_end"]}

"""scripts/make_snapshot.py: the builder reproduces the shipped snapshot and
the calibration checks pass on it and catch a broken copy."""

import importlib.util
from dataclasses import replace
from importlib import resources
from pathlib import Path

import pytest

from vaxsel import replicate, specs
from vaxsel.panel import save_panel
from tests.test_acceptance import unmet_anchors

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "make_snapshot.py"


@pytest.fixture(scope="module")
def make_snapshot():
    spec = importlib.util.spec_from_file_location("make_snapshot", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_default_seed_rebuilds_the_shipped_snapshot(make_snapshot, schema, tmp_path):
    candidate = make_snapshot.candidate_panel(make_snapshot.SEED, schema)
    save_panel(candidate, tmp_path / "snapshot.csv")
    shipped = resources.files("vaxsel").joinpath("data", "snapshot.csv").read_bytes()
    assert (tmp_path / "snapshot.csv").read_bytes() == shipped


def test_verify_passes_the_snapshot_and_fails_negated_gov_eff(make_snapshot, snapshot):
    failures, _ = make_snapshot.verify(snapshot, verbose=False)
    assert failures == []

    negated = replace(snapshot, values={**snapshot.values, "gov_eff": -snapshot.values["gov_eff"]})
    failures, _ = make_snapshot.verify(negated, verbose=False)
    failed = {label for label, _, _ in failures}
    assert {
        "gov_eff group means",
        "corr(gov_eff, gdp_pc_ppp) = 0.83",
        "table2 model2 outcome gov_eff ***",
    } <= failed


def test_verify_and_the_acceptance_tests_read_the_one_anchor_pattern(
        make_snapshot, snapshot, monkeypatch):
    # the shipped snapshot has t = 1.28 at this cell, so a "***" rule fails it
    at = ("table2", "model5", "outcome", "gov_eff")
    anchors = [replace(a, rule="***") if (a.table, a.model, a.stage, a.variable) == at else a
               for a in specs.ANCHOR_CELLS]
    monkeypatch.setattr(specs, "ANCHOR_CELLS", tuple(anchors))
    failures, _ = make_snapshot.verify(snapshot, verbose=False)
    assert [label for label, _, _ in failures] == ["table2 model5 outcome gov_eff ***"]
    unmet = unmet_anchors(replicate.replication_tables(snapshot), ("table2",))
    assert [(a.table, a.model, a.stage, a.variable) for a, _ in unmet] == [at]

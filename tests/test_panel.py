"""Datastore tests: ingestion, transforms, quantiles, filters, frames."""

import math
from datetime import date

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vaxsel import heckman, panel
from vaxsel.panel import (
    FrameError,
    ParseError,
    Panel,
    SchemaError,
    VariableDef,
    apply_log,
    average_gov_response,
    build_model_frame,
    days_since_first_vaccination,
    filter_percentile,
    load_panel,
    quantile,
    save_panel,
)
from vaxsel.specs import ModelSpec, builtin_specs

MINI_SCHEMA = [
    VariableDef("cases", "log"),
    VariableDef("gov_eff", "none"),
    VariableDef("started", "binary"),
    VariableDef("vac_php", "log"),
    VariableDef("days", "none"),
    VariableDef("soft_power_30", "binary"),
    VariableDef("west", "binary"),
    VariableDef("china", "binary"),
    VariableDef("russia", "binary"),
]

MINI_HEADER = "iso3,name,cases,gov_eff,started,vac_php,days,soft_power_30,west,china,russia"


def write_mini(tmp_path, rows, header=MINI_HEADER):
    p = tmp_path / "mini.csv"
    p.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")
    return p


class TestLoadPanel:
    def test_snapshot_counts(self, snapshot):
        assert snapshot.n_records == 189
        assert snapshot.n_started == 56

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("", encoding="utf-8")
        with pytest.raises(ParseError):
            load_panel(p, MINI_SCHEMA)

    def test_header_only(self, tmp_path):
        p = write_mini(tmp_path, [])
        with pytest.raises(ParseError):
            load_panel(p, MINI_SCHEMA)

    def test_single_complete_row(self, tmp_path):
        p = write_mini(tmp_path, ["ABW,Aruba,1200.0,0.4,1,2.5,20,0,1,0,0"])
        pan = load_panel(p, MINI_SCHEMA)
        assert pan.n_records == 1
        rec = pan.records[0]
        assert rec.values["cases"] == pytest.approx(math.log(1200.0))
        assert rec.raw["cases"] == 1200.0

    def test_missing_file(self, tmp_path):
        with pytest.raises(panel.PanelError) as err:
            load_panel(tmp_path / "nope.csv", MINI_SCHEMA)
        assert "nope.csv" in str(err.value)

    def test_unknown_column_is_schema_error(self, tmp_path):
        header = MINI_HEADER + ",mystery"
        p = write_mini(tmp_path, ["ABW,Aruba,1,0.0,0,,,0,0,0,0,5"], header=header)
        with pytest.raises(SchemaError) as err:
            load_panel(p, MINI_SCHEMA)
        assert "mystery" in str(err.value)

    def test_missing_schema_column(self, tmp_path):
        header = MINI_HEADER.rsplit(",", 1)[0]  # drop russia
        p = write_mini(tmp_path, ["ABW,Aruba,1,0.0,0,,,0,0,0"], header=header)
        with pytest.raises(SchemaError) as err:
            load_panel(p, MINI_SCHEMA)
        assert "russia" in str(err.value)

    def test_malformed_number_names_row_and_column(self, tmp_path):
        # non-finite values are malformed too: none may enter a fit
        for text in ("xyz", "nan", "inf", "-inf", "1e999"):
            p = write_mini(tmp_path, [f"ABW,Aruba,{text},0.4,0,,,0,0,0,0"])
            with pytest.raises(ParseError) as err:
                load_panel(p, MINI_SCHEMA)
            assert err.value.row == 2
            assert err.value.column == "cases"

    def test_ragged_row(self, tmp_path):
        p = write_mini(tmp_path, ["ABW,Aruba,1.0,0.4"])
        with pytest.raises(ParseError) as err:
            load_panel(p, MINI_SCHEMA)
        assert err.value.row == 2

    def test_binary_must_be_01(self, tmp_path):
        p = write_mini(tmp_path, ["ABW,Aruba,1.0,0.4,2,,,0,0,0,0"])
        with pytest.raises(ParseError):
            load_panel(p, MINI_SCHEMA)

    def test_vac_for_nonstarter_rejected(self, tmp_path):
        p = write_mini(tmp_path, ["ABW,Aruba,1.0,0.4,0,2.5,,0,0,0,0"])
        with pytest.raises(ParseError) as err:
            load_panel(p, MINI_SCHEMA)
        assert "vac_php" in str(err.value)

    def test_nonpositive_log_becomes_missing_with_audit(self, tmp_path):
        p = write_mini(tmp_path, ["ABW,Aruba,0,0.4,0,,,0,0,0,0"])
        pan = load_panel(p, MINI_SCHEMA)
        assert pan.records[0].values["cases"] is None
        assert pan.records[0].raw["cases"] == 0.0
        assert any("ABW:cases" in line for line in pan.audit)


class TestTransforms:
    def test_apply_log_basics(self):
        assert apply_log(1.0) == 0.0
        assert apply_log(math.e) == pytest.approx(1.0)

    def test_apply_log_zero_is_missing_and_audited(self):
        audit = []
        assert apply_log(0.0, audit, context="X:military_exp") is None
        assert audit and "X:military_exp" in audit[0]

    def test_average_gov_response_constant(self):
        series = {date(2020, 3, 1 + i): 50.0 for i in range(10)}
        assert average_gov_response(series, date(2020, 3, 1), date(2020, 3, 10)) == 50.0

    def test_average_gov_response_two_days(self):
        series = [(date(2020, 3, 1), 40.0), (date(2020, 3, 2), 60.0)]
        assert average_gov_response(series, date(2020, 3, 1), date(2020, 3, 2)) == 50.0

    def test_average_gov_response_empty_window(self):
        assert average_gov_response({}, date(2020, 3, 1), date(2020, 3, 2)) is None

    def test_snapshot_gov_response_raw_mean(self, snapshot):
        raw = snapshot.raw_column("gov_response")
        # the reference table labels this row as a log but prints the raw
        # index mean; the snapshot follows the raw-mean reading
        assert np.nanmean(raw) == pytest.approx(57.22, abs=0.1)

    def test_days_since_first_vaccination(self):
        assert days_since_first_vaccination(date(2020, 12, 15), date(2021, 1, 30)) == 46
        assert days_since_first_vaccination(date(2021, 1, 30), date(2021, 1, 30)) == 0

    def test_days_reversed_dates(self):
        with pytest.raises(ValueError):
            days_since_first_vaccination(date(2021, 2, 1), date(2021, 1, 30))

    def test_snapshot_days_mean(self, snapshot):
        days = snapshot.column("days")
        assert np.nanmean(days) == pytest.approx(27.11, abs=0.05)


class TestQuantile:
    def test_median_odd(self):
        assert quantile([3, 1, 2], 0.5) == 2.0

    def test_median_even_interpolates(self):
        assert quantile([1, 2, 3, 4], 0.5) == 2.5

    def test_p_zero_is_minimum(self):
        assert quantile([5.0, -1.0, 2.0], 0.0) == -1.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            quantile([], 0.5)

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50),
           st.floats(0, 1))
    def test_matches_numpy_type7(self, values, p):
        assert quantile(values, p) == pytest.approx(
            float(np.quantile(np.array(values), p)), rel=1e-12, abs=1e-9
        )


class TestFilterPercentile:
    def test_identity_filter(self, snapshot):
        same = filter_percentile(snapshot, "gov_eff", 0.0, 1.0)
        assert same.n_records == snapshot.n_records

    def test_retains_missing(self, snapshot):
        filtered = filter_percentile(snapshot, "gdp", 0.05, 0.95)
        missing_before = sum(1 for r in snapshot.records if r.values.get("gdp") is None)
        missing_after = sum(1 for r in filtered.records if r.values.get("gdp") is None)
        assert missing_before == missing_after > 0

    def test_table3_model1_rows(self, snapshot):
        t3 = filter_percentile(
            filter_percentile(snapshot, "gov_eff", 0.05, 0.95), "gdp", 0.05, 0.95
        )
        frame = build_model_frame(t3, builtin_specs()[0])
        assert frame.n_selection_rows == 131

    def test_table4_model1_rows(self, snapshot):
        t4 = filter_percentile(snapshot, "vac_php", 0.0, 0.95)
        frame = build_model_frame(t4, builtin_specs()[0])
        assert frame.n_selection_rows == 162

    def test_bad_bounds(self, snapshot):
        with pytest.raises(ValueError):
            filter_percentile(snapshot, "gov_eff", 0.9, 0.1)


class TestBuildModelFrame:
    def test_snapshot_row_counts(self, snapshot):
        expected = {"model1": 165, "model2": 187, "model3": 151, "model4": 148, "model5": 148}
        for spec in builtin_specs():
            frame = build_model_frame(snapshot, spec)
            assert frame.n_selection_rows == expected[spec.name]
            assert frame.n_outcome_rows == 56

    def test_outcome_rows_are_selected_rows(self, snapshot):
        frame = build_model_frame(snapshot, builtin_specs()[1])
        selected = [
            lbl for lbl, v in zip(frame.row_labels, frame.selection_y) if v == 1.0
        ]
        assert frame.outcome_row_labels == selected

    def test_absent_variable_is_error(self, snapshot):
        spec = ModelSpec("bad", ("cases", "mystery"), ("cases", "days"))
        with pytest.raises(SchemaError):
            build_model_frame(snapshot, spec)

    def test_collinear_columns_named(self, tmp_path):
        schema = MINI_SCHEMA + [VariableDef("cases_twin", "log")]
        rows = []
        for i in range(30):
            started = i % 2
            vac = f"{1.0 + i / 10}" if started else ""
            days = "10" if started else ""
            rows.append(
                f"C{i:02d},Land{i},{100 + i},{i / 10},{started},{vac},{days},0,"
                f"{started},0,0,{100 + i}"
            )
        p = write_mini(tmp_path, rows, header=MINI_HEADER + ",cases_twin")
        pan = load_panel(p, schema)
        spec = ModelSpec("twin", ("cases", "cases_twin"), ("cases",),
                         include_vaccine_dummies=False)
        with pytest.raises(FrameError) as err:
            build_model_frame(pan, spec)
        assert "cases_twin" in str(err.value)

    def test_listwise_deletion_is_monotone(self, snapshot):
        base = ModelSpec("base", ("cases",), ("cases", "days"))
        wider = ModelSpec("wider", ("cases", "gov_response"), ("cases", "days"))
        widest = ModelSpec(
            "widest", ("cases", "gov_response", "military_exp"), ("cases", "days")
        )
        ns = [
            build_model_frame(snapshot, s).n_selection_rows
            for s in (base, wider, widest)
        ]
        assert ns[0] >= ns[1] >= ns[2]

    def test_order_invariance(self, snapshot, schema):
        rng = np.random.default_rng(13)
        perm = rng.permutation(snapshot.n_records)
        shuffled = Panel(
            records=[snapshot.records[i] for i in perm],
            defs=snapshot.defs,
            snapshot_date=snapshot.snapshot_date,
            audit=snapshot.audit,
        )
        spec = builtin_specs()[1]
        f1 = build_model_frame(snapshot, spec)
        f2 = build_model_frame(shuffled, spec)
        assert sorted(f1.row_labels) == sorted(f2.row_labels)
        fit1 = heckman.fit_two_step(f1)
        fit2 = heckman.fit_two_step(f2)
        np.testing.assert_allclose(fit2.outcome_coef, fit1.outcome_coef, atol=1e-10)
        np.testing.assert_allclose(
            fit2.first_stage.coef, fit1.first_stage.coef, atol=1e-10
        )


class TestRoundTrip:
    def test_snapshot_round_trips_bit_exactly(self, snapshot, tmp_path):
        out = tmp_path / "copy.csv"
        save_panel(snapshot, out)
        again = load_panel(out, snapshot.defs)
        assert again.n_records == snapshot.n_records
        for a, b in zip(snapshot.records, again.records):
            assert a.iso3 == b.iso3
            assert a.name == b.name
            assert a.raw == b.raw
            assert a.values == b.values

    @given(rows=st.lists(
        st.tuples(
            st.floats(1e-6, 1e6, allow_nan=False),
            st.floats(-5, 5, allow_nan=False),
            st.booleans(),
        ),
        min_size=1, max_size=12,
    ))
    @settings(max_examples=60, deadline=None)
    def test_random_panels_round_trip(self, rows, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("rt")
        lines = []
        for i, (cases, gov, started) in enumerate(rows):
            sflag = 1 if started else 0
            vac = "1.5" if started else ""
            days = "7" if started else ""
            lines.append(
                f"C{i:02d},Land{i},{cases!r},{gov!r},{sflag},{vac},{days},0,0,0,0"
            )
        p = write_mini(tmp, lines)
        pan = load_panel(p, MINI_SCHEMA)
        out = tmp / "again.csv"
        save_panel(pan, out)
        again = load_panel(out, MINI_SCHEMA)
        for a, b in zip(pan.records, again.records):
            assert a.raw == b.raw
            assert a.values == b.values

    def test_soft_power_started_share(self, snapshot):
        sp = snapshot.column("soft_power_30")
        st_col = snapshot.column("started")
        assert int(sp.sum()) == 30
        assert int((sp * st_col).sum()) == 26

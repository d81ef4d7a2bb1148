"""Datastore tests: ingestion, transforms, quantiles, filters, frames."""

import math

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
    build_model_frame,
    filter_percentile,
    load_panel,
    load_schema,
    quantile,
    save_panel,
)
from vaxsel.specs import ModelSpec, apply_outlier_filter, builtin_specs
from tests.conftest import examples, packaged
from tests.rowwise_loader import load_panel as load_panel_rowwise

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


def assert_panels_equal(a, b):
    assert a.codes == b.codes
    assert a.iso3.tolist() == b.iso3.tolist()
    assert a.name.tolist() == b.name.tolist()
    for code in a.codes:
        assert np.array_equal(a.values[code], b.values[code], equal_nan=True), code
        assert np.array_equal(a.raw[code], b.raw[code], equal_nan=True), code
    # audit lines follow the file's column order, which save_panel may change
    assert sorted(a.audit) == sorted(b.audit)


class TestLoadPanel:
    def test_snapshot_counts(self, snapshot):
        assert snapshot.n_records == 189
        assert int((snapshot.column("started") == 1.0).sum()) == 56

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
        assert pan.column("cases")[0] == pytest.approx(math.log(1200.0))
        assert pan.raw["cases"][0] == 1200.0

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

    def test_nonpositive_vac_for_nonstarter_rejected(self, tmp_path):
        # the rule reads the raw cell: a 0 or negative vac_php, which the log
        # turns into a missing value, is still a value for a non-starter
        for cell in ("0", "-1.5"):
            p = write_mini(tmp_path, [f"ABW,Aruba,1.0,0.4,0,{cell},,0,0,0,0"])
            with pytest.raises(ParseError) as err:
                load_panel(p, MINI_SCHEMA)
            assert err.value.column == "vac_php"

    def test_nonpositive_log_becomes_missing_with_audit(self, tmp_path):
        p = write_mini(tmp_path, ["ABW,Aruba,0,0.4,0,,,0,0,0,0"])
        pan = load_panel(p, MINI_SCHEMA)
        assert np.isnan(pan.column("cases")[0])
        assert pan.raw["cases"][0] == 0.0
        assert any("ABW:cases" in line for line in pan.audit)

    def test_duplicate_header_column_is_schema_error(self, tmp_path):
        # the second cases column must not silently replace the first
        p = write_mini(tmp_path, ["ABW,Aruba,1200.0,0.4,0,,,0,0,0,0,5"],
                       header=MINI_HEADER + ",cases")
        with pytest.raises(SchemaError) as err:
            load_panel(p, MINI_SCHEMA)
        assert "more than once" in str(err.value)
        assert "'cases'" in str(err.value)

    def test_unreadable_data_file_names_path(self, tmp_path):
        good = "ABW,Aruba,1,0.4,0,,,0,0,0,0"
        for body in (
            (MINI_HEADER + "\n" + good.replace("Aruba", "Ar\xfcba") + "\n").encode("latin-1"),
            (MINI_HEADER + "\n" + good.replace("ABW", "ABW\0") + "\n").encode("utf-8"),
            (MINI_HEADER + "\n" + good.replace("Aruba", "x" * 200_000) + "\n").encode("utf-8"),
        ):
            p = tmp_path / "odd.csv"
            p.write_bytes(body)
            with pytest.raises(ParseError) as err:
                load_panel(p, MINI_SCHEMA)
            assert str(p) in str(err.value)

    def test_non_utf8_schema_names_path(self, tmp_path):
        p = tmp_path / "schema.csv"
        p.write_bytes("code,transform,source_label\npa\xeds,none,\n".encode("latin-1"))
        with pytest.raises(ParseError) as err:
            load_schema(p)
        assert str(err.value) == f"schema file {p} is not UTF-8 text (byte 30)"


SCHEMA_HEADER = "code,transform,source_label"


def write_schema(tmp_path, rows, header=SCHEMA_HEADER):
    p = tmp_path / "schema.csv"
    p.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")
    return p


class TestLoadSchema:
    def test_shipped_schema_lists_the_snapshot_columns_in_order(self):
        defs = load_schema(packaged("schema.csv"))
        header = packaged("snapshot.csv").read_text(encoding="utf-8").split("\n", 1)[0]
        assert [d.code for d in defs] == header.split(",")[2:]
        # a label holding commas is one quoted cell
        gdp = next(d for d in defs if d.code == "gdp")
        assert (gdp.transform, gdp.source_label) == (
            "log", "GDP at purchaser's prices, current USD (World Bank WDI)")

    def test_cells_are_stripped_and_the_label_may_be_empty(self, tmp_path):
        p = write_schema(tmp_path, [" cases , log ,", "started,binary,Started"],
                         header=" code , transform,source_label ")
        assert load_schema(p) == [VariableDef("cases", "log", ""),
                                  VariableDef("started", "binary", "Started")]

    @pytest.mark.parametrize("header, rows, message", [
        ("code,transform", ["cases,log"],
         "schema header must be code,transform,source_label; got ['code', 'transform']"),
        (SCHEMA_HEADER, ["cases,log,Cases", "gdp,log"], "schema row 3: expected 3 cells, got 2"),
        (SCHEMA_HEADER, ["cases,log,Cases", "", "gdp,log,GDP"],
         "schema row 3: expected 3 cells, got 0"),
        (SCHEMA_HEADER, ["cases,log,Cases", "cases,none,Again"],
         "schema row 3: duplicate variable code 'cases'"),
        (SCHEMA_HEADER, [" ,log,Nothing"], "schema row 2: empty variable code"),
        (SCHEMA_HEADER, ["cases,sqrt,Cases"], "unknown transform 'sqrt' for 'cases'"),
    ])
    def test_malformed_schema_is_a_schema_error(self, tmp_path, header, rows, message):
        with pytest.raises(SchemaError) as err:
            load_schema(write_schema(tmp_path, rows, header=header))
        assert str(err.value) == message

    def test_header_only_schema_has_no_variables(self, tmp_path):
        p = write_schema(tmp_path, [])
        with pytest.raises(SchemaError) as err:
            load_schema(p)
        assert str(err.value) == f"schema file {p} has no variables"

    def test_missing_or_nul_holding_schema_is_a_panel_error(self, tmp_path):
        with pytest.raises(panel.PanelError) as err:
            load_schema(tmp_path / "nope.csv")
        assert str(err.value) == f"schema file not found: {tmp_path / 'nope.csv'}"
        p = write_schema(tmp_path, ["ca\0es,log,Cases"])
        with pytest.raises(ParseError) as err:
            load_schema(p)
        assert str(err.value) == f"schema file {p} contains a NUL character"


# cells a numeric column may hold, and junk cells
NUMBER_CELLS = st.one_of(
    st.sampled_from(["", "0", "-2", " 3.5 ", "1e-300", "7"]),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
)
JUNK_CELLS = st.one_of(
    st.sampled_from(["", " ", "nan", "inf", "-inf", "1e999", "x", "2", '"', '""', '"1.5"',
                     '"1,5"', "1,5", '"a""b"', "1_0", "\t3\t"]),
    st.text(max_size=4),
)
CODES = [d.code for d in MINI_SCHEMA]
BINARY = {d.code for d in MINI_SCHEMA if d.transform == "binary"}


@st.composite
def snapshot_like_csv(draw):
    """A CSV text in the mini schema's format, with malformed parts: a
    header with permuted, duplicated, dropped or unknown codes, and rows
    that are ragged or hold junk, quoted or non-finite cells."""
    if draw(st.integers(0, 3)):
        codes = draw(st.permutations(CODES))
    else:
        codes = draw(st.lists(st.sampled_from(CODES + ["mystery"]), max_size=len(CODES) + 2))
    lines = [",".join(["iso3", "name"] + list(codes))]
    for i in range(draw(st.integers(0, 6))):
        iso3 = draw(st.sampled_from([f"C{i}"] * 4 + ["C0", "", '"D,E"', " C9 "]))
        name = draw(st.one_of(st.sampled_from(["Land", '"Korea, Rep."', 'say "hi"', ""]),
                              st.text(max_size=5)))
        started = draw(st.sampled_from(["0", "1"]))
        cells = {}
        for code in codes:
            if code in BINARY:
                cells[code] = started if code == "started" else draw(st.sampled_from("01"))
            elif code in ("vac_php", "days") and started == "0":
                cells[code] = ""
            else:
                cells[code] = draw(NUMBER_CELLS)
        row = [iso3, name] + [cells[c] for c in codes]
        if draw(st.integers(0, 3)) == 0:
            row[draw(st.integers(0, len(row) - 1))] = draw(JUNK_CELLS)
        if draw(st.integers(0, 9)) == 0:
            row = row[:-1] if draw(st.booleans()) else row + [draw(JUNK_CELLS)]
        lines.append(",".join(row))
    return ("\n".join(lines) + "\n").encode("utf-8")


@st.composite
def malformed_csv(draw):
    """Snapshot-like CSV bytes, the same with a few bytes spliced in, or any bytes."""
    kind = draw(st.sampled_from(["csv", "csv", "csv", "spliced", "bytes"]))
    if kind == "bytes":
        return draw(st.binary(max_size=300))
    data = draw(snapshot_like_csv())
    if kind == "spliced":
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.binary(min_size=1, max_size=3)) + data[at:]
    return data


class TestMalformedCsv:
    @given(data=malformed_csv())
    @settings(max_examples=examples(200), deadline=None)
    def test_loads_or_raises_panel_error(self, data, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("fuzz")
        p = tmp / "fuzz.csv"
        p.write_bytes(data)
        try:
            pan = load_panel(p, MINI_SCHEMA)
        except panel.PanelError:
            return
        n = pan.n_records
        assert pan.iso3.shape == pan.name.shape == (n,)
        for code in pan.codes:
            assert pan.values[code].shape == pan.raw[code].shape == (n,)
        out = tmp / "again.csv"
        save_panel(pan, out)
        assert_panels_equal(load_panel(out, MINI_SCHEMA), pan)


# values a mutation writes into a cell: blanks, zero and negative values
# (missing under log), and faults
MUTATIONS = st.sampled_from(["", " ", "0", "-0.0", "-2.5", "1e-300", "4", "1", "2", "x", "inf"])
# cells of a log column, half of them missing under log
LOG_CELLS = st.one_of(st.sampled_from(["", "0", "-0.0", "-2.5"]), NUMBER_CELLS)


@st.composite
def mutated_csv(draw):
    """A valid mini-schema CSV, then some cells overwritten: blanked, set to 0
    or a negative value, a non-starter given a vac_php value, or several
    faults in one file."""
    codes = draw(st.permutations(CODES))
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        started = draw(st.sampled_from("01"))
        cells = {c: draw(st.sampled_from("01")) for c in BINARY}
        cells.update(started=started, cases=draw(LOG_CELLS), gov_eff=draw(NUMBER_CELLS),
                     vac_php=draw(LOG_CELLS) if started == "1" else "",
                     days=draw(NUMBER_CELLS) if started == "1" else "")
        rows.append(cells)
    for _ in range(draw(st.integers(0, 4))):
        cells = draw(st.sampled_from(rows))
        if draw(st.integers(0, 4)):
            cells[draw(st.sampled_from(CODES))] = draw(MUTATIONS)
        else:
            cells.update(started="0", vac_php=draw(MUTATIONS))
    lines = [",".join(["iso3", "name"] + list(codes))]
    lines += [",".join([f"C{i}", "Land"] + [cells[c] for c in codes])
              for i, cells in enumerate(rows)]
    return ("\n".join(lines) + "\n").encode("utf-8")


def load_outcome(loader, path):
    """A loader's result on a file: the panel's columns as bytes, its audit
    lines and labels, or the exception's class, message, row and column."""
    try:
        pan = loader(path, MINI_SCHEMA)
    except panel.PanelError as exc:
        return type(exc), str(exc), getattr(exc, "row", None), getattr(exc, "column", None)
    columns = [(c, pan.values[c].tobytes(), pan.raw[c].tobytes()) for c in pan.codes]
    return pan.iso3.tolist(), pan.name.tolist(), columns, pan.audit


class TestColumnWiseLoader:
    """load_panel parses by column; the row-wise oracle stops at the first
    fault in row-major order, and both must make the same of every file."""

    @given(data=st.one_of(malformed_csv(), mutated_csv()))
    @settings(max_examples=examples(300), deadline=None)
    def test_agrees_with_rowwise_loader(self, data, tmp_path_factory):
        p = tmp_path_factory.mktemp("oracle") / "panel.csv"
        p.write_bytes(data)
        assert load_outcome(load_panel, p) == load_outcome(load_panel_rowwise, p)

    @pytest.mark.parametrize("rows, message, row, column", [
        # a later column in an earlier row goes first
        (["A,Aland,10,0.5,1,20,30,0,0,0,0", "B,Bland,10,0.5,1,20,x,0,0,0,0",
          "C,Cland,y,0.5,1,20,30,0,0,0,0"], "unparseable number 'x'", 3, "days"),
        # a started rule goes before a ragged row below it
        (["A,Aland,10,0.5,0,-1,,0,0,0,0", "B,Bland,10"],
         "vac_php present for a country with started=0", 2, "vac_php"),
        # in one row a bad cell goes before the row's started rules
        (["A,Aland,10,0.5,0,20,,0,2,0,0", "A,Bland,10"],
         "binary variable must be 0 or 1, got '2'", 2, "west"),
    ])
    def test_reports_the_first_fault_in_row_major_order(self, tmp_path, rows, message, row,
                                                         column):
        p = write_mini(tmp_path, rows)
        with pytest.raises(ParseError) as err:
            load_panel(p, MINI_SCHEMA)
        assert (str(err.value), err.value.row, err.value.column) == (
            f"{message} (row {row}, column {column!r})", row, column)
        assert load_outcome(load_panel, p) == load_outcome(load_panel_rowwise, p)


class TestColumnar:
    def test_a_code_outside_the_schema_is_a_schema_error_naming_it(self, snapshot):
        with pytest.raises(SchemaError, match="variable 'mystery' is not in the panel schema"):
            snapshot.column("mystery")

    @pytest.mark.parametrize("name", ["table3", "table4"])
    def test_outlier_filters_keep_rows_whole_and_in_order(self, snapshot, name):
        filtered = apply_outlier_filter(snapshot, name)
        position = {iso: i for i, iso in enumerate(snapshot.iso3.tolist())}
        rows = [position[iso] for iso in filtered.iso3.tolist()]
        assert 0 < len(rows) < snapshot.n_records
        assert rows == sorted(set(rows))
        assert filtered.name.tolist() == snapshot.name[rows].tolist()
        for code in snapshot.codes:
            assert np.array_equal(filtered.values[code], snapshot.values[code][rows],
                                  equal_nan=True), code
            assert np.array_equal(filtered.raw[code], snapshot.raw[code][rows],
                                  equal_nan=True), code

    def test_columns_are_read_only(self, snapshot):
        for read in (snapshot.column, snapshot.raw.__getitem__):
            col = read("gdp")
            before = col.copy()
            with pytest.raises(ValueError):
                col[0] = 1.0
            assert np.array_equal(read("gdp"), before, equal_nan=True)

    def test_wrong_length_or_missing_column_is_frame_error(self):
        defs = [VariableDef("gdp", "none"), VariableDef("started", "binary")]
        good = {"gdp": [1.0, np.nan], "started": [1.0, 0.0]}
        Panel(iso3=["A", "B"], name=["a", "b"], values=good, raw=good, defs=defs)
        for bad in (
            {"gdp": [1.0], "started": [1.0, 0.0]},
            {"gdp": [[1.0, 2.0], [3.0, 4.0]], "started": [1.0, 0.0]},
            {"started": [1.0, 0.0]},
        ):
            with pytest.raises(FrameError):
                Panel(iso3=["A", "B"], name=["a", "b"], values=bad, raw=good, defs=defs)
            with pytest.raises(FrameError):
                Panel(iso3=["A", "B"], name=["a", "b"], values=good, raw=bad, defs=defs)


class TestTransforms:
    def test_apply_log_basics(self, tmp_path):
        rows = ["A,Aland,1,0.4,0,,,0,0,0,0", f"B,Bland,{math.e!r},0.4,0,,,0,0,0,0"]
        p = write_mini(tmp_path, rows)
        assert load_panel(p, MINI_SCHEMA).column("cases").tolist() == [0.0, pytest.approx(1.0)]

    def test_apply_log_zero_is_missing_and_audited(self, tmp_path):
        p = write_mini(tmp_path, ["X,Xland,0,0.4,0,,,0,0,0,0"])
        pan = load_panel(p, MINI_SCHEMA)
        assert np.isnan(pan.column("cases")[0]) and pan.raw["cases"][0] == 0.0
        assert pan.audit == ["X:cases: non-positive value 0.0 treated as missing under log"]

    def test_snapshot_gov_response_raw_mean(self, snapshot):
        raw = snapshot.raw["gov_response"]
        # the reference table labels this row as a log but prints the raw
        # index mean; the snapshot follows the raw-mean reading
        assert np.nanmean(raw) == pytest.approx(57.22, abs=0.1)

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
        missing_before = int(np.isnan(snapshot.column("gdp")).sum())
        missing_after = int(np.isnan(filtered.column("gdp")).sum())
        assert missing_before == missing_after > 0

    def test_table3_model1_rows(self, snapshot):
        t3 = filter_percentile(
            filter_percentile(snapshot, "gov_eff", 0.05, 0.95), "gdp", 0.05, 0.95
        )
        frame = build_model_frame(t3, builtin_specs()[0])
        assert frame.selection_y.shape == (131,)

    def test_table4_model1_rows(self, snapshot):
        t4 = filter_percentile(snapshot, "vac_php", 0.0, 0.95)
        frame = build_model_frame(t4, builtin_specs()[0])
        assert frame.selection_y.shape == (162,)

    def test_bad_bounds(self, snapshot):
        with pytest.raises(ValueError):
            filter_percentile(snapshot, "gov_eff", 0.9, 0.1)


class TestBuildModelFrame:
    def test_snapshot_row_counts(self, snapshot):
        expected = {"model1": 165, "model2": 187, "model3": 151, "model4": 148, "model5": 148}
        for spec in builtin_specs():
            frame = build_model_frame(snapshot, spec)
            assert frame.selection_y.shape == (expected[spec.name],)
            assert frame.outcome_y.shape == (56,)

    def test_outcome_rows_are_selected_rows(self, snapshot):
        frame = build_model_frame(snapshot, builtin_specs()[1])
        # row i of the outcome design is the i-th selected row: the column the two
        # stages share, whose values are distinct, holds the same values, row for row
        assert frame.outcome_keep.all()
        rows = frame.selection_X[frame.selection_y == 1.0]
        cases = rows[:, frame.selection_labels.index("cases")]
        assert len(set(cases.tolist())) == cases.size == frame.outcome_y.size == 56
        assert np.array_equal(cases, frame.outcome_X[:, frame.outcome_labels.index("cases")])

    def test_absent_variable_is_error(self, snapshot):
        spec = ModelSpec("bad", ("cases", "mystery"), ("cases", "days"))
        with pytest.raises(SchemaError):
            build_model_frame(snapshot, spec)

    def test_listwise_deletion_is_monotone(self, snapshot):
        base = ModelSpec("base", ("cases",), ("cases", "days"))
        wider = ModelSpec("wider", ("cases", "gov_response"), ("cases", "days"))
        widest = ModelSpec(
            "widest", ("cases", "gov_response", "military_exp"), ("cases", "days")
        )
        ns = [
            build_model_frame(snapshot, s).selection_y.size
            for s in (base, wider, widest)
        ]
        assert ns[0] >= ns[1] >= ns[2]

    def test_order_invariance(self, snapshot, schema):
        rng = np.random.default_rng(13)
        perm = rng.permutation(snapshot.n_records)
        shuffled = snapshot.take(perm)
        spec = builtin_specs()[1]
        f1 = build_model_frame(snapshot, spec)
        f2 = build_model_frame(shuffled, spec)
        # the same rows in another order, in both stages
        for y, X in (("selection_y", "selection_X"), ("outcome_y", "outcome_X")):
            rows = [sorted(np.column_stack([getattr(f, y), getattr(f, X)]).tolist())
                    for f in (f1, f2)]
            assert rows[0] == rows[1]
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
        assert_panels_equal(again, snapshot)

    def test_resaved_snapshot_is_byte_equal(self, snapshot, tmp_path):
        # the snapshot script writes through save_panel: '37' stays '37', not '37.0'
        out = tmp_path / "copy.csv"
        save_panel(snapshot, out)
        assert out.read_bytes() == packaged("snapshot.csv").read_bytes()

    @given(rows=st.lists(
        st.tuples(
            st.floats(1e-6, 1e6, allow_nan=False),
            st.floats(-5, 5, allow_nan=False),
            st.booleans(),
        ),
        min_size=1, max_size=12,
    ))
    @settings(max_examples=examples(60), deadline=None)
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
        assert_panels_equal(again, pan)

    def test_a_quoted_line_break_survives_a_load(self, tmp_path):
        p = write_mini(tmp_path, ['AAA,"Line\nBreak",10,0.5,0,,,0,0,0,0'])
        assert load_panel(p, MINI_SCHEMA).name.tolist() == ["Line\nBreak"]

    @pytest.mark.parametrize("brk", ["\n", "\r\n", "\u2028"], ids=["LF", "CRLF", "U+2028"])
    def test_a_name_holding_a_line_break_round_trips(self, snapshot, tmp_path, brk):
        names = snapshot.name.tolist()
        names[0] = f"Line{brk}Break"
        pan = Panel(snapshot.iso3, names, snapshot.values, snapshot.raw, snapshot.defs,
                    snapshot.audit)
        out = tmp_path / "copy.csv"
        save_panel(pan, out)
        assert_panels_equal(load_panel(out, snapshot.defs), pan)

    def test_soft_power_started_share(self, snapshot):
        sp = snapshot.column("soft_power_30")
        st_col = snapshot.column("started")
        assert int(sp.sum()) == 30
        assert int((sp * st_col).sum()) == 26

"""Replication-layer tests: tables, figures, diff report, rendering."""

import csv
import math
from collections import Counter
from decimal import ROUND_HALF_UP, Context, Decimal
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vaxsel import heckman, render, replicate
from vaxsel.cli import main
from vaxsel.panel import Panel, VariableDef, filter_percentile, load_panel
from vaxsel.specs import (ANCHOR_CELLS, OUTLIER_FILTERS, REPLICATION_TABLES, AnchorCell,
                          ModelSpec, apply_outlier_filter, builtin_specs)
from tests.conftest import examples
from tests.test_cli import tree_state
from tests.test_cli_panels import COLUMN, blanked


@pytest.fixture(scope="module")
def table2(snapshot):
    return replicate.run_model_suite(snapshot)


@pytest.fixture(scope="module")
def tables(snapshot):
    return replicate.replication_tables(snapshot)


def diff_text(tables):
    return render.render_replication_diff(replicate.replication_diff(tables))


def with_column(panel, vdef, values, raw):
    """panel with one more variable."""
    return Panel(
        iso3=panel.iso3,
        name=panel.name,
        values={**panel.values, vdef.code: values},
        raw={**panel.raw, vdef.code: raw},
        defs=panel.defs + [vdef],
        audit=panel.audit,
    )


class TestSpecs:
    def test_five_builtins(self):
        specs = builtin_specs()
        assert [s.name for s in specs] == [f"model{i}" for i in range(1, 6)]

    def test_days_never_in_selection(self):
        with pytest.raises(ValueError):
            ModelSpec("bad", ("cases", "days"), ("cases",))

    def test_soft_power_never_in_outcome(self):
        with pytest.raises(ValueError):
            ModelSpec("bad", ("cases",), ("soft_power_30",))

    def test_gov_eff_never_in_selection(self):
        with pytest.raises(ValueError):
            ModelSpec("bad", ("gov_eff",), ("cases",))

    def test_every_anchor_is_a_cell_of_a_registry_table(self):
        specs = {s.name: s for s in builtin_specs()}
        for a in ANCHOR_CELLS:
            assert a.table in REPLICATION_TABLES, a
            _, outlier_filter, n_models = REPLICATION_TABLES[a.table]
            assert outlier_filter in OUTLIER_FILTERS
            assert a.model in list(specs)[:n_models], a
            # a mistyped variable would read "(no selection stage)" in the diff report
            assert a.variable in getattr(specs[a.model], f"{a.stage}_vars"), a
            assert a.rule in ("***", "**+", "+", "ns"), a
            assert a.min_t is None or a.min_t > 0, a
        assert len({(a.table, a.model, a.stage, a.variable) for a in ANCHOR_CELLS}) == len(
            ANCHOR_CELLS)

    # (rule, min_t, coef and t with se 1, stars, whether the rule is met)
    @pytest.mark.parametrize("rule, min_t, t, stars, met", [
        ("***", None, 2.5, "**", False), ("**+", None, 2.5, "**", True),
        ("+", None, -5.0, "***", False),
        ("ns", None, 1.39, "", True), ("ns", None, -1.39, "", True),
        ("ns", None, 1.41, "", False), ("ns", None, -1.41, "", False),
        ("***", 2.9, 3.0, "***", True), ("***", 2.9, 2.8, "***", False),
    ])
    def test_anchor_rule_at_its_boundary(self, rule, min_t, t, stars, met):
        anchor = AnchorCell("table2", "model1", "outcome", "days", 0.0, 1.0, "", rule, min_t)
        assert anchor.met_by(t, 1.0, stars) == met


class TestDescriptiveTable:
    def test_counts_row(self, snapshot):
        table = replicate.descriptive_table(snapshot)
        assert table.observations == {"all": 189, "not_started": 133, "started": 56}

    def test_reference_means(self, snapshot):
        table = replicate.descriptive_table(snapshot)
        for code, want in (
            (("cases", "all"), 8.47),
            (("cases", "not_started"), 7.75),
            (("cases", "started"), 10.21),
            (("gov_eff", "all"), -0.05),
            (("gov_eff", "not_started"), -0.43),
            (("gov_eff", "started"), 0.83),
            (("pop_65", "all"), 0.55),
        ):
            assert table.cells[code].value == pytest.approx(want, abs=0.05)

    def test_single_record_group_has_blank_sd(self, snapshot):
        one = snapshot.take([0])
        table = replicate.descriptive_table(one)
        for (row, col), cell in table.cells.items():
            assert cell.spread is None


class TestRunModelSuite:
    def test_observations_row(self, table2, tables):
        assert table2.observations["model1:selection"] == 165
        assert table2.observations["model2:selection"] == 187
        assert table2.observations["model5:selection"] == 148
        assert tables["table3"].observations["model1:selection"] == 131
        assert tables["table4"].observations["model1:selection"] == 162

    def test_cells_equal_fit_fields_exactly(self, snapshot, table2):
        fit = table2.fits["model2"]
        cell = table2.cell("gov_eff", "model2:outcome")
        j = fit.outcome_labels.index("gov_eff")
        assert cell.value == float(fit.outcome_coef[j])
        assert cell.spread == float(np.sqrt(fit.vcov[heckman.PLAIN_ROBUST][0][j, j]))

    def test_both_halves_rendered_from_the_fit(self, table2):
        for name, fit in table2.fits.items():
            outcome_vcov, selection_vcov = fit.vcov[heckman.PLAIN_ROBUST]
            halves = [("outcome", fit.outcome_labels, outcome_vcov)]
            if fit.first_stage is not None:
                halves.append(("selection", fit.first_stage.labels, selection_vcov))
            for stage, labels, vcov in halves:
                for j, label in enumerate(labels):
                    spread = table2.cell(label, f"{name}:{stage}").spread
                    assert spread == float(np.sqrt(vcov[j, j]))
        assert len(table2.fits) == 5 and all(f.first_stage for f in table2.fits.values())

    def test_bad_spec_reported_in_cell_others_run(self, snapshot):
        specs = [
            builtin_specs()[0],
            ModelSpec("broken", ("cases", "mystery_var"), ("cases", "days")),
        ]
        table = replicate.run_model_suite(snapshot, specs)
        assert "broken:outcome" in table.column_errors
        assert "mystery_var" in table.column_errors["broken:outcome"]
        assert table.cell("cases", "model1:selection") is not None

    @pytest.mark.parametrize("stage", ["selection", "outcome"])
    def test_collinear_columns_named(self, snapshot, stage):
        # rank is judged by the estimator that fits each design, not by build_model_frame
        pan = with_column(snapshot, VariableDef("cases_twin", "log"), snapshot.values["cases"],
                          snapshot.raw["cases"])
        twin = (("cases", "cases_twin"), ("cases", "days")) if stage == "selection" else (
            ("cases",), ("cases", "cases_twin", "days"))
        table = replicate.run_model_suite(pan, [builtin_specs()[0], ModelSpec("twin", *twin)])
        for half in ("outcome", "selection"):
            assert table.column_errors[f"twin:{half}"] == (
                "design matrix is rank deficient; collinear columns: ['cases_twin']")
        assert table.cell("cases", "model1:selection") is not None

    def test_programming_error_propagates(self, snapshot, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("bug inside the fit")

        monkeypatch.setattr(heckman.probit, "fit", broken)
        with pytest.raises(TypeError):
            replicate.run_model_suite(snapshot, builtin_specs()[:1])

    def test_failing_covariance_is_a_column_error(self, snapshot, monkeypatch):
        def singular(*args):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(heckman, "heckman_corrected_vcov", singular)
        specs = builtin_specs()[:2]
        table = replicate.run_model_suite(snapshot, specs, heckman.HECKMAN_CORRECTED)
        assert table.column_errors == {
            f"{s.name}:{stage}": "Singular matrix" for s in specs for stage in ("outcome", "selection")}
        assert table.fits == {} and table.cells == {}
        # a fit computes both variants, so the failure is a column error under either
        assert replicate.run_model_suite(snapshot, specs).column_errors == table.column_errors

    def test_unknown_variant_raises_instead_of_column_errors(self, snapshot):
        with pytest.raises(ValueError, match="'hc3'"):
            replicate.run_model_suite(snapshot, vcov_variant="hc3")

    def test_rerun_is_identical(self, snapshot, table2):
        again = replicate.run_model_suite(snapshot)
        assert render.render_table_csv(again) == render.render_table_csv(table2)
        assert render.render_table_markdown(again) == render.render_table_markdown(table2)


class TestOutlierSuites:
    def test_identity_filters_reproduce_table2(self, snapshot, table2):
        same = filter_percentile(
            filter_percentile(snapshot, "gov_eff", 0.0, 1.0), "gdp", 0.0, 1.0
        )
        t = replicate.run_model_suite(same, builtin_specs())
        assert render.render_table_csv(t) == render.render_table_csv(table2)

    def test_filter_registry(self, snapshot):
        assert apply_outlier_filter(snapshot, "none") is snapshot
        t4 = apply_outlier_filter(snapshot, "table4")
        assert t4.n_records == filter_percentile(snapshot, "vac_php", 0.0, 0.95).n_records
        with pytest.raises(ValueError, match="unknown filter"):
            apply_outlier_filter(snapshot, "table5")


@st.composite
def holed_panel(draw):
    """A panel of 2 to 5 float columns at scales from 1e-5 to 1e5, with NaN
    holes: the first a multiple of the second, then one made constant."""
    n, k = draw(st.integers(1, 25)), draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cols = [rng.standard_normal(n) * 10.0 ** rng.integers(-5, 6) + rng.choice([0.0, 1.0, -3e4])
            for _ in range(k)]
    cols[0] = cols[1] * draw(st.sampled_from([1.0, -1.0, 1e-5, 3.0]))
    cols[draw(st.integers(0, k - 1))] = np.full(n, draw(st.sampled_from([0.0, 2.5, -1e5])))
    for col in cols:
        col[rng.random(n) < draw(st.sampled_from([0.0, 0.2, 0.5]))] = np.nan
    codes = [f"v{j}" for j in range(k)]
    return Panel(iso3=[f"C{i}" for i in range(n)], name=[""] * n,
                 values=dict(zip(codes, cols)), raw=dict(zip(codes, cols)),
                 defs=[VariableDef(c, "none") for c in codes])


class TestCorrelationMatrix:
    def test_self_correlation_is_one(self, snapshot):
        fig = replicate.correlation_matrix(snapshot, ["gov_eff", "gdp_pc_ppp"])
        lookup = {(a, b): v for a, b, v in fig.rows}
        assert lookup[("gov_eff", "gov_eff")] == pytest.approx(1.0, abs=1e-12)

    def test_negated_column_gives_minus_one(self, snapshot):
        neg = -snapshot.column("gov_eff")
        pan = with_column(snapshot, VariableDef("neg_gov_eff", "none"), neg, neg)
        fig = replicate.correlation_matrix(pan, ["gov_eff", "neg_gov_eff"])
        lookup = {(a, b): v for a, b, v in fig.rows}
        assert lookup[("gov_eff", "neg_gov_eff")] == pytest.approx(-1.0, abs=1e-12)

    def test_reference_correlation_anchor(self, snapshot):
        fig = replicate.correlation_matrix(snapshot, ["gov_eff", "gdp_pc_ppp"])
        lookup = {(a, b): v for a, b, v in fig.rows}
        assert lookup[("gov_eff", "gdp_pc_ppp")] == pytest.approx(0.83, abs=0.03)

    @given(pan=holed_panel())
    @settings(max_examples=examples(150), deadline=None)
    def test_rows_are_corrcoef_of_each_ordered_pair(self, pan):
        fig = replicate.correlation_matrix(pan, pan.codes)
        assert [(a, b) for a, b, _ in fig.rows] == [(a, b) for a in pan.codes for b in pan.codes]
        for a, b, value in fig.rows:
            ok = ~np.isnan(pan.column(a)) & ~np.isnan(pan.column(b))
            xa, xb = pan.column(a)[ok], pan.column(b)[ok]
            if ok.sum() >= 2 and xa.std() != 0.0 and xb.std() != 0.0:
                assert value.hex() == float(np.corrcoef(xa, xb)[0, 1]).hex(), (a, b)
            else:
                assert value is None, (a, b)

    @pytest.mark.xfail(strict=True, reason="each ordered pair takes its own value, which "
                       "can differ from its mirror's in the last bit (ROADMAP item 5: the "
                       "symmetry fix)")
    def test_matrix_is_symmetric_with_a_unit_diagonal(self, snapshot):
        # 48 of the 110 off-diagonal entries differed from their mirror, and the
        # diagonal of health_exp and military_exp read 0.9999999999999999
        corr = {(a, b): v for a, b, v in replicate.correlation_matrix(snapshot).rows}
        assert [ab for ab, v in corr.items() if v != corr[ab[::-1]]] == []
        assert [a for (a, b), v in corr.items() if a == b and v is not None and v != 1.0] == []

    def test_constant_column_is_blank(self, snapshot):
        flat = np.ones(snapshot.n_records)
        pan = with_column(snapshot, VariableDef("flat", "none"), flat, flat)
        fig = replicate.correlation_matrix(pan, ["gov_eff", "flat"])
        lookup = {(a, b): v for a, b, v in fig.rows}
        assert lookup[("gov_eff", "flat")] is None


class TestFigures:
    def test_boxplot_reference_claims(self, snapshot):
        fig = replicate.gdp_boxplot_stats(snapshot)
        stats = {row[0]: row[1:] for row in fig.rows}
        mn, q1, med, q3, mx = stats["started"]
        mn0, q10, med0, q30, mx0 = stats["not_started"]
        assert med > med0
        assert q1 >= q30 - 0.5
        assert mn <= q1 <= med <= q3 <= mx

    def test_boxplot_single_value_group(self):
        defs = [VariableDef("gdp", "log"), VariableDef("started", "binary")]
        pan = Panel(
            iso3=["AAA", "BBB"],
            name=["A", "B"],
            values={"gdp": [25.0, 22.0], "started": [1.0, 0.0]},
            raw={"gdp": [np.exp(25.0), np.exp(22.0)], "started": [1.0, 0.0]},
            defs=defs,
        )
        fig = replicate.gdp_boxplot_stats(pan)
        stats = {row[0]: row[1:] for row in fig.rows}
        assert stats["started"] == (25.0, 25.0, 25.0, 25.0, 25.0)
        assert stats["not_started"] == (22.0, 22.0, 22.0, 22.0, 22.0)

    def test_curve_monotone_and_banded(self, snapshot):
        fig = replicate.conditional_start_curve(snapshot, n_points=50)
        probs = np.array([r[1] for r in fig.rows])
        lowers = np.array([r[2] for r in fig.rows])
        uppers = np.array([r[3] for r in fig.rows])
        assert np.all(np.diff(probs) > 0)  # positive slope
        assert np.all(lowers <= probs) and np.all(probs <= uppers)
        t = fig.meta["slope"] / fig.meta["se"]
        assert fig.meta["slope"] > 0 and t > 2.575829

    def test_scatter_fit(self, snapshot):
        fig = replicate.goveff_scatter_fit(snapshot)
        assert len(fig.rows) == 56
        assert fig.meta["slope"] > 0
        assert fig.meta["p"] < 0.01

    def test_scatter_perfect_line(self):
        # perfectly collinear synthetic points: exact slope, p ~ 0
        defs = [
            VariableDef("gov_eff", "none"),
            VariableDef("vac_php", "log"),
            VariableDef("started", "binary"),
        ]
        x = np.arange(8.0)
        pan = Panel(
            iso3=[f"C{i:02d}" for i in range(8)],
            name=[f"Land{i}" for i in range(8)],
            values={"gov_eff": x, "vac_php": 1.0 + 2.0 * x, "started": np.ones(8)},
            raw={"gov_eff": x, "vac_php": np.exp(1.0 + 2.0 * x), "started": np.ones(8)},
            defs=defs,
        )
        fig = replicate.goveff_scatter_fit(pan)
        assert fig.meta["slope"] == pytest.approx(2.0, abs=1e-9)
        assert fig.meta["p"] < 1e-12


class TestDiffReport:
    def test_deterministic(self, snapshot, tables):
        again = replicate.replication_tables(snapshot)
        assert diff_text(again) == diff_text(tables)

    def test_fits_each_cell_once(self, snapshot, monkeypatch):
        calls = []
        fit_two_step = heckman.fit_two_step

        def counting(frame, *args, **kwargs):
            calls.append(frame)
            return fit_two_step(frame, *args, **kwargs)

        monkeypatch.setattr(heckman, "fit_two_step", counting)
        tables = replicate.replication_tables(snapshot)
        assert len(calls) == 13
        # the report reads the tables' fits and refits none of them
        diff_text(tables)
        assert len(calls) == 13

    def test_tables_fitted_under_either_variant_give_the_same_report(self, snapshot, tables):
        corrected = replicate.replication_tables(snapshot, heckman.HECKMAN_CORRECTED)
        assert diff_text(corrected) == diff_text(tables)

    def test_cells_round_as_the_tables_round(self, snapshot, monkeypatch):
        # 0.0625 is a tie: f"{v:.3f}" rounds it to even, 0.062, and the tables print 0.063;
        # the tables and the report make every cell through _cell
        cell = replicate._cell

        def tied(*estimate):
            out = cell(*estimate)
            out.value = out.spread = 0.0625
            return out

        monkeypatch.setattr(replicate, "_cell", tied)
        tables = replicate.replication_tables(snapshot)
        report = diff_text(tables)
        table = render.render_table_markdown(tables["table2"])
        assert "0.063*** (0.063) |" in table and "0.062" not in table + report
        assert report.count(" (0.063) |") == 2 * len(ANCHOR_CELLS)


def tabulated_diff(tables):
    """The replication diff as read from both variants' tabulate tables of every table,
    the way replication_diff read it before it read the fits itself; the reference."""
    tabled = {(name, variant): replicate.tabulate(table, variant)
              for name, table in tables.items() for variant in heckman.VCOV_VARIANTS}
    rows = []
    for a in ANCHOR_CELLS:
        col = f"{a.model}:{a.stage}"
        robust = tabled[(a.table, heckman.PLAIN_ROBUST)].cell(a.variable, col)
        corrected = tabled[(a.table, heckman.HECKMAN_CORRECTED)].cell(a.variable, col)
        anchor = (a.table, a.model, a.stage, a.variable,
                  replicate.Cell(a.ref_coef, a.ref_se, a.ref_stars))
        if robust is None:
            failed = col in tabled[(a.table, heckman.PLAIN_ROBUST)].column_errors
            reason = "model failed" if failed else "no selection stage"
            rows.append(replicate.DiffRow(*anchor, reason, reason, False, False))
            continue
        same_sign = math.copysign(1, robust.value) == math.copysign(1, a.ref_coef)
        rows.append(replicate.DiffRow(*anchor, robust, corrected,
                                      same_sign if a.ref_stars else None,
                                      robust.stars == a.ref_stars))
    return rows


@pytest.fixture(scope="module")
def diff_panels(snapshot, schema, tmp_path_factory):
    """The snapshot; the snapshot with every soft_power_30 cell blank, where models 2-5
    fail; and the one with every non-starter's cases cell blank, where no fit has a
    selection stage."""
    panels = {"snapshot": snapshot}
    for name, rows in (("no_soft_power", blanked("soft_power_30")),
                       ("all_selected", blanked("cases", lambda r: r[COLUMN["started"]] == "0"))):
        path = tmp_path_factory.mktemp(name) / "panel.csv"
        with open(path, "w", encoding="utf-8", newline="") as f:
            csv.writer(f, lineterminator="\n").writerows(rows)
        panels[name] = load_panel(path, schema)
    return panels


@pytest.mark.parametrize("variant", heckman.VCOV_VARIANTS)
@pytest.mark.parametrize("panel, reasons", [("snapshot", set()),
                                            ("no_soft_power", {"model failed"}),
                                            ("all_selected", {"no selection stage"})])
def test_the_diff_reads_the_tabulated_cells_without_tabulating(diff_panels, monkeypatch, variant,
                                                                panel, reasons):
    tables = replicate.replication_tables(diff_panels[panel], variant)
    calls = []
    monkeypatch.setattr(replicate, "tabulate", lambda *args: calls.append(args))
    rows = replicate.replication_diff(tables)
    monkeypatch.undo()
    assert calls == []
    want = tabulated_diff(tables)
    # repr also tells a numpy scalar from the float the tables hold
    assert rows == want and repr(rows) == repr(want)
    assert {r.robust for r in rows if isinstance(r.robust, str)} == reasons


def test_tabulate_rejects_a_non_finite_spread_naming_the_variable(snapshot):
    table = replicate.run_model_suite(snapshot, builtin_specs()[:1])
    fit = table.fits["model1"]
    vcov, selection_vcov = fit.vcov[heckman.PLAIN_ROBUST]
    vcov = vcov.copy()
    vcov[1, 1] = np.inf  # an overflowed variance
    fit.vcov[heckman.PLAIN_ROBUST] = vcov, selection_vcov
    with pytest.raises(ValueError, match=f"model1: outcome estimate of {fit.outcome_labels[1]} "
                                         "is not finite"):
        replicate.tabulate(table, heckman.PLAIN_ROBUST)


class TestRender:
    def test_round3_half_away_from_zero(self):
        assert render.round3(0.0005) == "0.001"
        assert render.round3(-0.0005) == "-0.001"
        assert render.round3(2.1285) == "2.129"
        assert render.round3(0.718) == "0.718"

    def test_round3_renders_every_finite_double(self):
        # the default 28-digit decimal context raised InvalidOperation from 1e25 up
        assert render.round3(1e25) == "1" + "0" * 25 + ".000"
        assert render.round3(-1.7976931348623157e308) == "-17976931348623157" + "0" * 292 + ".000"
        assert render.round3(5e-324) == "0.000"

    @staticmethod
    def decimal_round3(x):
        """round3 as it was written before its quantize arguments were built once."""
        return str(Decimal(repr(float(x))).quantize(Decimal("0.001"), ROUND_HALF_UP,
                                                      Context(312)))

    @pytest.mark.parametrize("x", [0.0005, -0.0005, 2.0005, -2.0015, -0.0, 5e-324, 1e308,
                                   -1e308])
    def test_round3_matches_the_decimal_expression(self, x):
        assert render.round3(x) == self.decimal_round3(x)

    @settings(max_examples=examples(500), deadline=None)
    @given(x=st.floats(allow_nan=False, allow_infinity=False))
    def test_round3_matches_the_decimal_expression_on_any_finite_double(self, x):
        assert render.round3(x) == self.decimal_round3(x)

    def test_atomic_write_writes_the_utf8_bytes_as_given(self, tmp_path):
        text = "naïve – 日本\r\nsecond line\nthird\r"
        render.write_text_atomic(tmp_path / "sub" / "out.md", text)
        assert (tmp_path / "sub" / "out.md").read_bytes() == text.encode("utf-8")

    def test_a_failed_atomic_write_leaves_no_temp_file(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        assert main(["describe", "--out", str(out)]) == 0
        before = tree_state(out)
        # a lone surrogate, which UTF-8 cannot encode
        monkeypatch.setattr(render, "render_table_csv", lambda table: "new \ud800\n")
        assert main(["describe", "--out", str(out)]) == 1  # UnicodeEncodeError is a ValueError
        assert tree_state(out) == before

    def test_markdown_contains_stars_and_parens(self, table2):
        text = render.render_table_markdown(table2)
        assert "| cases |" in text
        assert "***" in text and "(" in text
        assert "observations" in text

    def test_csv_full_precision(self, table2):
        text = render.render_table_csv(table2)
        cell = table2.cell("cases", "model2:selection")
        assert repr(cell.value) in text

    def test_svg_rendering_is_deterministic(self, snapshot):
        figs = replicate.all_figures(snapshot, grid_points=40)
        for fig in figs:
            assert render.render_figure_svg(fig) == render.render_figure_svg(fig)
            assert render.render_figure_svg(fig).startswith("<svg")

    def test_svg_elements_match_the_figure_data(self, snapshot):
        # the sha256 pins of the output tree hold only on some CPUs; the element counts on all
        figs = {fig.figure_id: fig for fig in replicate.all_figures(snapshot, grid_points=7)}
        tags = {fid: Counter(el.tag.split("}")[1] for el in
                             ElementTree.fromstring(render.render_figure_svg(fig)).iter())
                for fid, fig in figs.items()}
        assert tags["fig1"]["rect"] == 3  # the background and the two boxes
        assert (tags["fig2"]["polygon"], tags["fig2"]["polyline"]) == (1, 1)
        assert tags["fig3"]["circle"] == len(figs["fig3"].rows)
        assert tags["figA1"]["rect"] == 1 + len(figs["figA1"].meta["codes"]) ** 2

    def test_figure_notes_are_written_from_meta(self):
        def notes(figure_id, meta):
            text = render.render_figure_csv(replicate.FigureData(figure_id, ["a"], [(1.5,)], meta))
            return [line for line in text.splitlines() if line.startswith("#")]

        assert notes("fig1", {}) == []
        assert notes("fig2", {"slope": 0.25, "se": 0.0625, "p": 6.334248366623996e-05}) == [
            "# probit slope 0.250000 (se 0.062500), two-sided p 6.33e-05"]
        assert notes("fig3", {"slope": 2.0, "intercept": 1.0, "se": 0.0, "p": 0.0}) == [
            "# ols slope 2.000000 (se 0.000000), two-sided p 0"]
        assert notes("figA1", {"codes": ["a"]}) == [
            "# pairwise-complete observations; blank where a column is constant"]

    def test_diff_rows_print_as_the_tables_print(self):
        at = ("table2", "model1", "selection", "cases")
        ref = replicate.Cell(0.525, 0.130, "***")
        tie = replicate.Cell(0.0625, 0.0625, "")
        rows = [replicate.DiffRow(*at, ref, tie, replicate.Cell(-0.5, 0.1, "***"), True, False),
                replicate.DiffRow(*at, replicate.Cell(0.335, 0.525, ""), tie, tie, None, True),
                replicate.DiffRow(*at, ref, "model failed", "model failed", False, False),
                replicate.DiffRow(*at, ref, "no selection stage", "no selection stage",
                                  False, False)]
        text = render.render_replication_diff(rows)
        where = "| table2 | model1 | selection | cases |"
        assert text.startswith("# Replication diff\n\n")
        # 0.0625 is a tie: the tables print 0.063, where f"{v:.3f}" gives 0.062
        assert text.endswith(
            f"{where} 0.525*** (0.130) | 0.063 (0.063) | -0.500*** (0.100) | yes | no |\n"
            f"{where} 0.335 (0.525) | 0.063 (0.063) | 0.063 (0.063) | n/a | yes |\n"
            f"{where} 0.525*** (0.130) | (model failed) | (model failed) | no | no |\n"
            f"{where} 0.525*** (0.130) | (no selection stage) | (no selection stage) | no | no |"
            "\n\n")

    def test_unknown_figure_id(self):
        with pytest.raises(ValueError):
            render.render_figure_svg(replicate.FigureData("figX", [], []))

"""Country panel: schema, ingestion, transforms and design-matrix assembly.

The panel is a single flat CSV snapshot, one row per country, raw values
only, empty cell for missing.  Variable handling is driven by a schema
(code, transform, source_label); log transforms are applied at load time
and the raw value is kept alongside for audit.  Every transformation that
turns a value into a missing one is recorded on the panel's audit list.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path

import numpy as np
import yaml

from vaxsel.probit import collinear_columns

SNAPSHOT_DATE = date(2021, 1, 30)

CODE_STARTED = "started"
CODE_VAC = "vac_php"
CODE_DAYS = "days"
DUMMY_CODES = ("west", "china", "russia")

TRANSFORMS = ("log", "none", "binary")


class PanelError(Exception):
    """Base class for data-layer failures."""


class SchemaError(PanelError):
    pass


class ParseError(PanelError):
    def __init__(self, message, row=None, column=None):
        self.row = row
        self.column = column
        where = ""
        if row is not None:
            where = f" (row {row}" + (f", column {column!r})" if column else ")")
        super().__init__(f"{message}{where}")


class FrameError(PanelError):
    pass


@dataclass(frozen=True)
class VariableDef:
    code: str
    transform: str
    source_label: str = ""

    def __post_init__(self):
        if self.transform not in TRANSFORMS:
            raise SchemaError(f"unknown transform {self.transform!r} for {self.code!r}")


@dataclass
class CountryRecord:
    """One country's values: transformed storage plus the raw originals."""

    iso3: str
    name: str
    values: dict
    raw: dict


@dataclass
class Panel:
    records: list
    defs: list
    snapshot_date: date = SNAPSHOT_DATE
    audit: list = field(default_factory=list)

    @property
    def codes(self):
        return [d.code for d in self.defs]

    @property
    def n_records(self):
        return len(self.records)

    @property
    def n_started(self):
        return int(sum(1 for r in self.records if r.values.get(CODE_STARTED) == 1.0))

    def def_for(self, code):
        for d in self.defs:
            if d.code == code:
                return d
        raise SchemaError(f"variable {code!r} is not in the panel schema")

    def column(self, code):
        """Transformed values as a float array, NaN where missing."""
        return self._floats(code, "values")

    def raw_column(self, code):
        return self._floats(code, "raw")

    def _floats(self, code, store):
        self.def_for(code)
        values = (getattr(r, store).get(code) for r in self.records)
        return np.array([np.nan if v is None else v for v in values], dtype=float)


def load_schema(path) -> list:
    """Read the variable schema (YAML list of code/transform/source_label)."""
    raw = Path(path).read_text(encoding="utf-8")
    try:
        entries = yaml.safe_load(raw)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" (line {mark.line + 1}, column {mark.column + 1})" if mark else ""
        raise SchemaError(f"schema file {path} is not valid YAML{where}") from exc
    if not isinstance(entries, list) or not entries:
        raise SchemaError(f"schema file {path} must hold a non-empty list of variables")
    defs = []
    seen = set()
    for e in entries:
        try:
            d = VariableDef(
                code=str(e["code"]),
                transform=str(e["transform"]),
                source_label=str(e.get("source_label", "")),
            )
        except (KeyError, TypeError) as exc:
            raise SchemaError(f"malformed schema entry {e!r}") from exc
        if d.code in seen:
            raise SchemaError(f"duplicate variable code {d.code!r}")
        seen.add(d.code)
        defs.append(d)
    return defs


def apply_log(value, audit=None, context=""):
    """Natural log for positive values; non-positive becomes missing.

    A missing result is recorded on the audit list instead of raising, so
    rows degrade exactly the way the varying per-model sample sizes do.
    """
    if value is None:
        return None
    if value <= 0.0:
        if audit is not None:
            audit.append(f"{context}: non-positive value {value!r} treated as missing under log")
        return None
    return math.log(value)


def average_gov_response(daily_index, first_case_date, end_date):
    """Mean of a daily index over [first_case_date, end_date].

    daily_index maps dates to index values (a mapping or a sequence of
    (date, value) pairs).  Returns None for an empty window.
    """
    if hasattr(daily_index, "items"):
        items = daily_index.items()
    else:
        items = daily_index
    window = [v for d, v in items if first_case_date <= d <= end_date]
    if not window:
        return None
    return float(sum(window) / len(window))


def days_since_first_vaccination(first_vaccination_date, end_date) -> int:
    """Whole-day difference; raises on reversed dates."""
    if first_vaccination_date > end_date:
        raise ValueError(
            f"first vaccination {first_vaccination_date} is after the end date {end_date}"
        )
    return (end_date - first_vaccination_date).days


def _parse_cell(text, vdef, row_no, audit, iso3):
    text = text.strip()
    if text == "":
        return None, None
    if vdef.transform == "binary":
        if text not in ("0", "1"):
            raise ParseError(
                f"binary variable must be 0 or 1, got {text!r}", row=row_no, column=vdef.code
            )
        v = float(text)
        return v, v
    try:
        raw = float(text)
    except ValueError as exc:
        raise ParseError(
            f"unparseable number {text!r}", row=row_no, column=vdef.code
        ) from exc
    if not math.isfinite(raw):
        raise ParseError(f"non-finite number {text!r}", row=row_no, column=vdef.code)
    if vdef.transform == "log":
        return apply_log(raw, audit, context=f"{iso3}:{vdef.code}"), raw
    return raw, raw


def _validate_record(rec, codes, row_no):
    started = rec.values.get(CODE_STARTED)
    if CODE_STARTED in codes:
        if started is None:
            raise ParseError("started flag missing", row=row_no, column=CODE_STARTED)
        for code in (CODE_VAC, CODE_DAYS):
            if code in codes and started == 0.0 and rec.values.get(code) is not None:
                raise ParseError(
                    f"{code} present for a country with started=0", row=row_no, column=code
                )


def load_panel(path, schema, snapshot_date=SNAPSHOT_DATE) -> Panel:
    """Load the flat CSV snapshot into a Panel.

    The header must be iso3,name followed by exactly the schema codes in
    any order.  Cells are raw values; log transforms are applied here and
    failures land on the audit list, not in exceptions.
    """
    path = Path(path)
    if not path.exists():
        raise PanelError(f"data file not found: {path}")
    text = path.read_text(encoding="utf-8")
    reader = csv.reader(text.splitlines())
    rows = list(reader)
    if not rows:
        raise ParseError(f"{path} is empty (no header row)")

    header = [h.strip() for h in rows[0]]
    if header[:2] != ["iso3", "name"]:
        raise SchemaError(f"header must start with iso3,name; got {header[:2]}")
    codes = header[2:]
    schema_codes = [d.code for d in schema]
    unknown = [c for c in codes if c not in schema_codes]
    missing = [c for c in schema_codes if c not in codes]
    if unknown:
        raise SchemaError(f"columns not in schema: {unknown}")
    if missing:
        raise SchemaError(f"schema variables missing from header: {missing}")
    def_map = {d.code: d for d in schema}

    if len(rows) == 1:
        raise ParseError(f"{path} has a header but no data rows")

    audit = []
    records = []
    seen_iso = set()
    for row_no, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise ParseError(
                f"expected {len(header)} cells, got {len(row)}", row=row_no
            )
        iso3 = row[0].strip()
        name = row[1].strip()
        if not iso3:
            raise ParseError("empty iso3", row=row_no, column="iso3")
        if iso3 in seen_iso:
            raise ParseError(f"duplicate country {iso3}", row=row_no, column="iso3")
        seen_iso.add(iso3)
        values, raw = {}, {}
        for code, cell in zip(codes, row[2:]):
            v, r = _parse_cell(cell, def_map[code], row_no, audit, iso3)
            values[code] = v
            raw[code] = r
        rec = CountryRecord(iso3=iso3, name=name, values=values, raw=raw)
        _validate_record(rec, set(codes), row_no)
        records.append(rec)

    return Panel(records=records, defs=list(schema), snapshot_date=snapshot_date, audit=audit)


def save_panel(panel: Panel, path) -> None:
    """Write the panel back to CSV (raw values, shortest round-trip reprs)."""
    lines = [",".join(["iso3", "name"] + panel.codes)]
    for rec in panel.records:
        cells = [rec.iso3, _csv_quote(rec.name)]
        for d in panel.defs:
            v = rec.raw.get(d.code)
            if v is None:
                cells.append("")
            elif d.transform == "binary":
                cells.append(str(int(v)))
            else:
                cells.append(repr(v))
        lines.append(",".join(cells))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _csv_quote(text):
    if "," in text or '"' in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def quantile(values, p):
    """Linear-interpolation quantile between order statistics (type 7)."""
    vals = np.asarray(sorted(float(v) for v in values), dtype=float)
    if vals.size == 0:
        raise ValueError("quantile of an empty collection")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    h = (vals.size - 1) * p
    lo = int(math.floor(h))
    hi = min(lo + 1, vals.size - 1)
    frac = h - lo
    return float(vals[lo] * (1.0 - frac) + vals[hi] * frac)


def filter_percentile(panel: Panel, variable, low_p, high_p) -> Panel:
    """Restrict to records whose value lies inside the quantile band.

    Quantiles are computed over the records where the variable is present;
    records missing the variable are retained untouched.
    """
    if not low_p < high_p:
        raise ValueError("low_p must be below high_p")
    col = panel.column(variable)
    present = col[~np.isnan(col)]
    lo = quantile(present, low_p)
    hi = quantile(present, high_p)
    kept = [
        rec
        for rec, v in zip(panel.records, col)
        if np.isnan(v) or (lo <= v <= hi)
    ]
    return Panel(
        records=kept, defs=panel.defs, snapshot_date=panel.snapshot_date, audit=panel.audit
    )


@dataclass
class ModelFrame:
    """Aligned design matrices for the two stages.

    Outcome rows are the selection rows with the indicator equal to 1,
    restricted (via outcome_keep) to those complete on the outcome-stage
    variables; for a fully observed snapshot the mask is all-True and the
    stated row identity holds exactly.
    """

    selection_y: np.ndarray
    selection_X: np.ndarray
    selection_labels: list
    outcome_y: np.ndarray
    outcome_X: np.ndarray
    outcome_labels: list
    outcome_keep: np.ndarray
    spec_name: str = ""
    # country codes of the selection and outcome rows; empty for frames
    # not assembled from a panel
    row_labels: list = field(default_factory=list)
    outcome_row_labels: list = field(default_factory=list)

    @property
    def n_selection_rows(self):
        return int(self.selection_y.shape[0])

    @property
    def n_outcome_rows(self):
        return int(self.outcome_y.shape[0])


def _check_full_rank(X, labels, stage):
    collinear = collinear_columns(X, labels)
    if collinear:
        raise FrameError(f"{stage} matrix is rank deficient; collinear columns: {collinear}")


def build_model_frame(panel: Panel, spec) -> ModelFrame:
    """Assemble the two-stage design for one model specification.

    Listwise deletion over the selection-stage variables drops rows from
    both stages; the selected subset is further restricted to rows
    complete on the outcome-stage variables (including the vaccine
    provider dummies, which enter the outcome stage only).
    """
    sel_vars = list(spec.selection_vars)
    out_vars = list(spec.outcome_vars)
    dummies = list(DUMMY_CODES) if spec.include_vaccine_dummies else []
    for code in sel_vars + out_vars + dummies + [CODE_STARTED, CODE_VAC]:
        panel.def_for(code)

    started = panel.column(CODE_STARTED)
    sel_cols = {c: panel.column(c) for c in sel_vars}
    keep_sel = ~np.isnan(started)
    for c in sel_vars:
        keep_sel &= ~np.isnan(sel_cols[c])
    if not keep_sel.any():
        raise FrameError(f"{spec.name}: no usable rows after listwise deletion")

    idx = np.where(keep_sel)[0]
    row_labels = [panel.records[i].iso3 for i in idx]
    selection_y = started[idx]
    selection_X = np.column_stack([sel_cols[c][idx] for c in sel_vars] + [np.ones(idx.size)])
    selection_labels = sel_vars + ["const"]
    _check_full_rank(selection_X, selection_labels, f"{spec.name} selection")

    out_cols = {c: panel.column(c) for c in out_vars + dummies}
    vac = panel.column(CODE_VAC)
    sel_rows = idx[selection_y == 1.0]
    keep_out = ~np.isnan(vac[sel_rows])
    for c in out_vars + dummies:
        keep_out &= ~np.isnan(out_cols[c][sel_rows])
    out_rows = sel_rows[keep_out]
    if out_rows.size == 0:
        raise FrameError(f"{spec.name}: no selected rows with complete outcome data")

    outcome_y = vac[out_rows]
    outcome_X = np.column_stack(
        [out_cols[c][out_rows] for c in out_vars + dummies] + [np.ones(out_rows.size)]
    )
    outcome_labels = out_vars + dummies + ["const"]
    _check_full_rank(outcome_X, outcome_labels, f"{spec.name} outcome")

    return ModelFrame(
        selection_y=selection_y,
        selection_X=selection_X,
        selection_labels=selection_labels,
        outcome_y=outcome_y,
        outcome_X=outcome_X,
        outcome_labels=outcome_labels,
        row_labels=row_labels,
        outcome_row_labels=[panel.records[i].iso3 for i in out_rows],
        outcome_keep=keep_out,
        spec_name=spec.name,
    )

"""Country panel: schema, ingestion, transforms and design-matrix assembly.

The panel is a single flat CSV snapshot, one row per country, raw values
only, empty cell for missing.  Variable handling is driven by a schema
(code, transform, source_label); log transforms are applied at load time
and the raw value is kept alongside for audit.  In memory the panel is
held by column, as every reader reads it one variable at a time.  Every
transformation that turns a value into a missing one is recorded on the
panel's audit list.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import yaml

from vaxsel.render import csv_quote

CODE_STARTED = "started"
CODE_VAC = "vac_php"
CODE_DAYS = "days"
DUMMY_CODES = ("west", "china", "russia")
# libyaml's loader builds the same objects about ten times faster than the pure one
YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

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


@dataclass(eq=False)
class Panel:
    """The panel stored by column, one row per country.

    values and raw map each code to a read-only float64 array (transformed
    and as read), NaN where the value is missing; iso3 and name are string
    arrays of the same length.
    """

    iso3: np.ndarray
    name: np.ndarray
    values: dict
    raw: dict
    defs: list
    audit: list = field(default_factory=list)

    def __post_init__(self):
        n = len(self.iso3)
        self.iso3 = _read_only(self.iso3, str, n, "iso3")
        self.name = _read_only(self.name, str, n, "name")
        for store in ("values", "raw"):
            columns = getattr(self, store)
            missing = [c for c in self.codes if c not in columns]
            if missing:
                raise FrameError(f"panel {store} have no column for {missing}")
            setattr(self, store, {c: _read_only(columns[c], float, n, f"{store} column {c!r}")
                                  for c in self.codes})

    @property
    def codes(self):
        return [d.code for d in self.defs]

    @property
    def n_records(self):
        return len(self.iso3)

    def column(self, code):
        """Transformed values as a read-only float array, NaN where missing."""
        if code not in self.values:
            raise SchemaError(f"variable {code!r} is not in the panel schema")
        return self.values[code]

    def take(self, rows):
        """The panel restricted to rows (a boolean mask or index array)."""
        return replace(
            self, iso3=self.iso3[rows], name=self.name[rows],
            values={c: v[rows] for c, v in self.values.items()},
            raw={c: v[rows] for c, v in self.raw.items()},
        )


def _read_only(values, dtype, n, what):
    """values as a read-only view of n entries (the caller's array keeps its flags)."""
    array = np.asarray(values, dtype=dtype).view()
    if array.shape != (n,):
        raise FrameError(f"{what} has shape {array.shape}, expected ({n},)")
    array.flags.writeable = False
    return array


def load_schema(path) -> list:
    """Read the variable schema (YAML list of code/transform/source_label)."""
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaError(f"schema file {path} is not UTF-8 text (byte {exc.start})") from exc
    try:
        entries = yaml.load(raw, Loader=YAML_LOADER)
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


def _parse_column(texts, transform):
    """One column's cells as (transformed, raw) float lists, None where missing,
    and its first bad cell as (index, message) or None; the lists stop before it."""
    raw, fault = [], None
    try:
        for text in map(str.strip, texts):
            if transform == "binary" and text not in ("", "0", "1"):
                fault = (len(raw), f"binary variable must be 0 or 1, got {text!r}")
                break
            raw.append(float(text) if text else None)
    except ValueError:
        fault = (len(raw), f"unparseable number {text!r}")
    bad = next((i for i, r in enumerate(raw) if r is not None and not math.isfinite(r)), None)
    if bad is not None:
        fault, raw = (bad, f"non-finite number {texts[bad].strip()!r}"), raw[:bad]
    if transform != "log":
        return raw, raw, fault
    return [math.log(r) if r is not None and r > 0.0 else None for r in raw], raw, fault


def load_panel(path, schema) -> Panel:
    """Load the flat CSV snapshot into a Panel.

    The header must be iso3,name followed by exactly the schema codes in
    any order.  Cells are raw values; log transforms are applied here and
    failures land on the audit list, not in exceptions.
    """
    path = Path(path)
    if not path.exists():
        raise PanelError(f"data file not found: {path}")
    try:
        # decoded without newline translation, so a quoted CR LF keeps its CR; the BOM of
        # a "CSV UTF-8" export is dropped after decoding, so a bad byte's offset counts it
        text = path.read_bytes().decode("utf-8").removeprefix("\ufeff")
        rows = list(csv.reader(io.StringIO(text, newline="")))
    except UnicodeDecodeError as exc:
        raise ParseError(f"data file {path} is not UTF-8 text (byte {exc.start})") from exc
    except csv.Error as exc:
        raise ParseError(f"data file {path} is not readable as CSV: {exc}") from exc
    if "\0" in text:  # numpy string arrays drop trailing NULs: "A\0" would read as "A"
        raise ParseError(f"data file {path} contains a NUL character")
    if not rows:
        raise ParseError(f"{path} is empty (no header row)")

    header = [h.strip() for h in rows[0]]
    if header[:2] != ["iso3", "name"]:
        raise SchemaError(f"header must start with iso3,name; got {header[:2]}")
    codes = header[2:]
    duplicated = sorted({c for c in codes if codes.count(c) > 1})
    if duplicated:
        raise SchemaError(f"columns named more than once in header: {duplicated}")
    transforms = {d.code: d.transform for d in schema}
    unknown = [c for c in codes if c not in transforms]
    missing = [c for c in transforms if c not in codes]
    if unknown:
        raise SchemaError(f"columns not in schema: {unknown}")
    if missing:
        raise SchemaError(f"schema variables missing from header: {missing}")

    if len(rows) == 1:
        raise ParseError(f"{path} has a header but no data rows")

    # Faults are noted as (row index, place in the row: row checks, cells by
    # column, started rules; message, column); the first of them is reported.
    faults, iso3s, names, seen_iso = [], [], [], set()
    for i, row in enumerate(rows[1:]):
        iso3 = row[0].strip() if row else ""
        if len(row) != len(header):
            faults.append((i, -1, f"expected {len(header)} cells, got {len(row)}", None))
        elif not iso3 or iso3 in seen_iso:
            faults.append((i, -1, f"duplicate country {iso3}" if iso3 else "empty iso3", "iso3"))
        if faults:
            break
        seen_iso.add(iso3)
        iso3s.append(iso3)
        names.append(row[1].strip())
    # one list per code; a missing cell is None, which becomes NaN in Panel
    values, raw = {}, {}
    for j, (code, texts) in enumerate(zip(codes, list(zip(*rows[:len(iso3s) + 1]))[2:])):
        values[code], raw[code], bad = _parse_column(texts[1:], transforms[code])
        if bad:
            faults.append((bad[0], j, bad[1], code))
    if CODE_STARTED in raw:
        flags = raw[CODE_STARTED]
        faults += [(i, len(codes), "started flag missing", CODE_STARTED)
                   for i, f in enumerate(flags) if f is None]
        faults += [(i, len(codes) + k, f"{c} present for a country with started=0", c)
                   for k, c in enumerate((CODE_VAC, CODE_DAYS), start=1) if c in raw
                   for i, (f, v) in enumerate(zip(flags, raw[c])) if f == 0.0 and v is not None]
    if faults:
        i, _, message, column = min(faults)
        raise ParseError(message, row=i + 2, column=column)
    audit = sorted((i, j, f"{iso3s[i]}:{c}: non-positive value {r!r} treated as missing under log")
                   for j, c in enumerate(codes) if transforms[c] == "log"
                   for i, r in enumerate(raw[c]) if r is not None and r <= 0.0)
    return Panel(iso3=iso3s, name=names, values=values, raw=raw, defs=list(schema),
                 audit=[line for _, _, line in audit])


def format_number(value: float) -> str:
    """Shortest repr of a raw value, without the '.0' of an integral one ('37', '0', '1.5')."""
    text = repr(value)
    return text[:-2] if text.endswith(".0") else text


def save_panel(panel: Panel, path) -> None:
    """Write the panel back to CSV (raw values through format_number, NaN as an empty cell)."""
    columns = [[csv_quote(s) for s in panel.iso3.tolist()],
               [csv_quote(s) for s in panel.name.tolist()]]
    for d in panel.defs:
        columns.append(["" if math.isnan(v) else format_number(v)
                        for v in panel.raw[d.code].tolist()])
    lines = [",".join(["iso3", "name"] + panel.codes)] + [",".join(r) for r in zip(*columns)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


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
    if present.size == 0:
        return panel
    lo = quantile(present, low_p)
    hi = quantile(present, high_p)
    return panel.take(np.isnan(col) | ((lo <= col) & (col <= hi)))


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
    # country codes of the selection and outcome rows; empty for frames
    # not assembled from a panel
    row_labels: list = field(default_factory=list)
    outcome_row_labels: list = field(default_factory=list)


def build_model_frame(panel: Panel, spec) -> ModelFrame:
    """Assemble the two-stage design for one model specification.

    Listwise deletion over the selection-stage variables drops rows from
    both stages; the selected subset is further restricted to rows
    complete on the outcome-stage variables (including the vaccine
    provider dummies, which enter the outcome stage only).  The designs' rank
    is judged where they are fitted, by probit.fit and heckman.fit_two_step.
    """
    sel_vars = list(spec.selection_vars)
    out_vars = list(spec.outcome_vars)
    dummies = list(DUMMY_CODES)
    # every column is read before any is used: the first code the panel lacks is the error
    cols = {c: panel.column(c) for c in sel_vars + out_vars + dummies + [CODE_STARTED, CODE_VAC]}
    started = cols[CODE_STARTED]
    keep_sel = ~np.isnan(started)
    for c in sel_vars:
        keep_sel &= ~np.isnan(cols[c])
    if not keep_sel.any():
        raise FrameError(f"{spec.name}: no usable rows after listwise deletion")

    idx = np.where(keep_sel)[0]
    selection_y = started[idx]
    selection_X = np.column_stack([cols[c][idx] for c in sel_vars] + [np.ones(idx.size)])
    selection_labels = sel_vars + ["const"]

    vac = cols[CODE_VAC]
    sel_rows = idx[selection_y == 1.0]
    keep_out = ~np.isnan(vac[sel_rows])
    for c in out_vars + dummies:
        keep_out &= ~np.isnan(cols[c][sel_rows])
    out_rows = sel_rows[keep_out]
    if out_rows.size == 0:
        raise FrameError(f"{spec.name}: no selected rows with complete outcome data")

    outcome_y = vac[out_rows]
    outcome_X = np.column_stack(
        [cols[c][out_rows] for c in out_vars + dummies] + [np.ones(out_rows.size)]
    )
    outcome_labels = out_vars + dummies + ["const"]

    return ModelFrame(
        selection_y=selection_y,
        selection_X=selection_X,
        selection_labels=selection_labels,
        outcome_y=outcome_y,
        outcome_X=outcome_X,
        outcome_labels=outcome_labels,
        row_labels=panel.iso3[idx].tolist(),
        outcome_row_labels=panel.iso3[out_rows].tolist(),
        outcome_keep=keep_out,
    )

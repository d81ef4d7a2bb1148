"""A row-wise CSV panel loader, kept as an oracle for vaxsel.panel.load_panel.

It parses and checks one row at a time, cell by cell, and raises at the
first fault it meets, so its report is by construction the first fault in
row-major order.  The column-wise loader must agree with it on every file:
the same values and raw bits, the same audit lines, or the same exception.
"""

import csv
import io
import math
from pathlib import Path

from vaxsel.panel import (
    CODE_DAYS,
    CODE_STARTED,
    CODE_VAC,
    Panel,
    PanelError,
    ParseError,
    SchemaError,
)


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
    if vdef.transform != "log":
        return raw, raw
    if raw <= 0.0:
        audit.append(f"{iso3}:{vdef.code}: non-positive value {raw!r} treated as missing under log")
        return None, raw
    return math.log(raw), raw


def _validate_row(values, row_no):
    """Check the row last appended to the per-code raw cell lists."""
    if CODE_STARTED in values:
        started = values[CODE_STARTED][-1]
        if started is None:
            raise ParseError("started flag missing", row=row_no, column=CODE_STARTED)
        for code in (CODE_VAC, CODE_DAYS):
            if code in values and started == 0.0 and values[code][-1] is not None:
                raise ParseError(
                    f"{code} present for a country with started=0", row=row_no, column=code
                )


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
    iso3s, names = [], []
    # one list per code; a missing cell is None, which becomes NaN in Panel
    values = {c: [] for c in codes}
    raw = {c: [] for c in codes}
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
        for code, cell in zip(codes, row[2:]):
            v, r = _parse_cell(cell, def_map[code], row_no, audit, iso3)
            values[code].append(v)
            raw[code].append(r)
        _validate_row(raw, row_no)
        iso3s.append(iso3)
        names.append(name)

    return Panel(iso3=iso3s, name=names, values=values, raw=raw, defs=list(schema), audit=audit)

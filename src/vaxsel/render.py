"""Rendering: the text of the output files, and the writer of one new file.

Tables, figure CSVs with their notes, SVGs, the replication diff and the
recovery report are formatted here, and every markdown table goes through
markdown_table.  Numbers are rounded for print only here.  Table cells round
to 3 decimals, ties away from zero (cell_text); CSV tables and figure data
keep shortest-roundtrip precision.  SVGs are written by hand, one
writer per element kind, so the output tree is byte-identical across runs: no
timestamps, no generator metadata, fixed coordinate formatting.
"""

from __future__ import annotations

from decimal import ROUND_HALF_UP, Context, Decimal
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from vaxsel.replicate import DiffRow, FigureData, TableResult
    from vaxsel.synth import RecoveryReport


# round3's quantize arguments: 312 digits hold a double's 309 integer digits and 3 decimals
_ROUND3 = Decimal("0.001"), ROUND_HALF_UP, Context(312)


def round3(x: float) -> str:
    """Three decimals, ties rounded away from zero, for any finite double."""
    return str(Decimal(repr(float(x))).quantize(*_ROUND3))


def write_text_atomic(path, text: str) -> None:
    """Write text's UTF-8 bytes to path as a new file, making its directory; the
    file's mode follows the umask.  cli.main writes each output file this way into
    its stage and renames it into place only once every file is written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "xb") as handle:
        handle.write(text.encode("utf-8"))


_CSV_SPECIAL = frozenset(',"\n\r')


def csv_quote(text):
    """text as one CSV field: quoted, with doubled quotes, when it holds , " CR or LF."""
    if not _CSV_SPECIAL.isdisjoint(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def markdown_table(header, rows):
    """The lines of a markdown table: header, rule, and one line per row of strings."""
    lines = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    lines += ["| " + " | ".join(row) + " |" for row in rows]
    return lines


# ---------------------------------------------------------------- tables


def cell_text(cell) -> str:
    """A table cell as printed: 'value', or 'value<stars> (spread)', each
    through round3; '' for no cell."""
    if cell is None:
        return ""
    if cell.spread is None:
        return round3(cell.value)
    return f"{round3(cell.value)}{cell.stars} ({round3(cell.spread)})"


def render_table_markdown(table: TableResult) -> str:
    cols = table.column_labels
    rows = [[row] + [cell_text(table.cell(row, col)) for col in cols] for row in table.row_labels]
    rows.append(["observations"] + [str(table.observations.get(col, "")) for col in cols])
    lines = [f"# {table.title}", "", *markdown_table(["variable", *cols], rows)]
    if table.column_errors:
        lines.append("")
        for col, msg in sorted(table.column_errors.items()):
            lines.append(f"- {col}: estimation failed: {msg}")
    if table.notes:
        lines.append("")
        for note in table.notes:
            lines.append(f"Note: {note}")
    return "\n".join(lines) + "\n"


def render_table_csv(table: TableResult) -> str:
    lines = ["row,column,value,spread,stars"]
    for row in table.row_labels:
        for col in table.column_labels:
            cell = table.cell(row, col)
            if cell is None:
                continue
            spread = "" if cell.spread is None else repr(cell.spread)
            lines.append(f"{row},{col},{cell.value!r},{spread},{cell.stars}")
    for col in table.column_labels:
        if col in table.observations:
            lines.append(f"observations,{col},{table.observations[col]},,")
    for col, msg in sorted(table.column_errors.items()):
        safe = msg.replace('"', "'")
        lines.append(f'error,{col},"{safe}",,')
    return "\n".join(lines) + "\n"


def render_replication_diff(rows: list[DiffRow]) -> str:
    """Markdown report: each anchor's reference cell beside its computed cells,
    printed as the tables print them, or the reason in parentheses."""
    verdict = {True: "yes", False: "no", None: "n/a"}
    body = [[r.table, r.model, r.stage, r.variable, cell_text(r.reference),
             *(f"({c})" if isinstance(c, str) else cell_text(c) for c in (r.robust, r.corrected)),
             verdict[r.sign_match], verdict[r.stars_match]] for r in rows]
    lines = ["# Replication diff", "",
             "Reference estimates beside computed values for every anchor cell.",
             "Acceptance is pattern-level (sign and significance stars); exact",
             "coefficient equality is not expected because the underlying data",
             "snapshot cannot be reconstructed bit-for-bit.", "",
             *markdown_table(["table", "model", "stage", "variable", "reference",
                              "computed (robust)", "computed (corrected)", "sign match",
                              "stars match"], body), ""]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- recovery report


def render_recovery_csv(report: RecoveryReport) -> str:
    lines = ["parameter,truth,mean_estimate,mean_bias,rmse,coverage"]
    for p in report.parameters:
        lines.append(f"{p.name},{p.truth:.6f},{p.mean_estimate:.6f},"
                     f"{p.mean_bias:.6f},{p.rmse:.6f},{p.coverage:.6f}")
    return "\n".join(lines) + "\n"


def render_recovery_markdown(report: RecoveryReport) -> str:
    c = report.config
    rows = [[p.name, f"{p.truth:.4f}", f"{p.mean_estimate:.4f}", f"{p.mean_bias:.4f}",
             f"{p.rmse:.4f}", f"{p.coverage:.3f}"] for p in report.parameters]
    lines = ["# Parameter recovery", "",
             f"- n = {c.n}, rho = {c.rho}, sigma_u = {c.sigma_u}, seed = {c.seed}",
             f"- replications: {report.reps_requested - report.reps_failed} used, "
             f"{report.reps_failed} failed (of {report.reps_requested})",
             f"- interval coverage from the {report.vcov_variant} covariance at 95%", "",
             *markdown_table(["parameter", "truth", "mean estimate", "mean bias", "rmse",
                              "coverage"], rows)]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- figures


_SLOPE = " slope {slope:.6f} (se {se:.6f}), two-sided p {p:.3g}"
# the note line under a figure CSV's rows, filled in from the figure's meta
_FIGURE_NOTES = {"fig2": "probit" + _SLOPE, "fig3": "ols" + _SLOPE,
                 "figA1": "pairwise-complete observations; blank where a column is constant"}


def render_figure_csv(fig: FigureData) -> str:
    lines = [",".join(map(csv_quote, fig.columns))]
    lines += [",".join("" if v is None else repr(v) if isinstance(v, float)
                       else csv_quote(str(v)) for v in row) for row in fig.rows]
    if fig.figure_id in _FIGURE_NOTES:
        lines.append("# " + _FIGURE_NOTES[fig.figure_id].format(**fig.meta))
    return "\n".join(lines) + "\n"


_W, _H = 640, 480
_ML, _MR, _MT, _MB = 70, 20, 30, 50


def _sx(x, lo, hi):
    span = (hi - lo) or 1.0
    return _ML + (_W - _ML - _MR) * (x - lo) / span


def _sy(y, lo, hi):
    span = (hi - lo) or 1.0
    return _H - _MB - (_H - _MT - _MB) * (y - lo) / span


def _fmt(v):  # 2 decimals; a str is one of the few coordinates printed unrounded
    return v if isinstance(v, str) else f"{v:.2f}"


def _line(x1, y1, x2, y2, stroke, extra=""):
    return (f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="{stroke}"{extra}/>')


def _text(x, y, size, anchor, body, extra=""):
    return (f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-size="{size}" '
            f'text-anchor="{anchor}"{extra}>{body}</text>')


def _rect(x, y, width, height, fill, stroke):
    return (f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(width)}" '
            f'height="{_fmt(height)}" fill="{fill}" stroke="{stroke}"/>')


def _axes(xlo, xhi, ylo, yhi, xlabel, ylabel, title):
    x0, y0 = _sx(xlo, xlo, xhi), _sy(ylo, ylo, yhi)
    x1, y1 = _sx(xhi, xlo, xhi), _sy(yhi, ylo, yhi)
    parts = [_line(x0, y0, x1, y0, "black"), _line(x0, y0, x0, y1, "black")]
    for i in range(5):
        xv = xlo + (xhi - xlo) * i / 4
        yv = ylo + (yhi - ylo) * i / 4
        parts.append(_text(_sx(xv, xlo, xhi), y0 + 18, 11, "middle", f"{xv:.1f}"))
        parts.append(_text(x0 - 8, _sy(yv, ylo, yhi) + 4, 11, "end", f"{yv:.1f}"))
    ym = (y0 + y1) / 2
    parts.append(_text((x0 + x1) / 2, str(_H - 12), 13, "middle", xlabel))
    parts.append(_text("16", ym, 13, "middle", ylabel, f' transform="rotate(-90 16 {_fmt(ym)})"'))
    parts.append(_text(str(_W / 2), "18", 14, "middle", title))
    return parts


def _svg(parts) -> str:
    body = "\n".join(parts)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">\n<rect width="100%" height="100%" fill="white"/>\n'
        f"{body}\n</svg>\n"
    )


def _render_boxplot(fig: FigureData) -> str:
    stats = {row[0]: row[1:] for row in fig.rows}
    ylo = min(s[0] for s in stats.values())
    yhi = max(s[4] for s in stats.values())
    pad = 0.05 * (yhi - ylo)
    ylo, yhi = ylo - pad, yhi + pad
    parts = _axes(0, 1, ylo, yhi, "", "log GDP", "GDP by vaccination start status")
    centers = {"not_started": 0.3, "started": 0.7}
    half = 50
    for group, five in stats.items():
        cx = _sx(centers[group], 0, 1)
        mn, q1, med, q3, mx = (_sy(v, ylo, yhi) for v in five)
        parts += [
            _line(cx, mn, cx, q1, "black"),
            _line(cx, q3, cx, mx, "black"),
            _rect(cx - half, q3, str(2 * half), q1 - q3, "#9ecae1", "black"),
            _line(cx - half, med, cx + half, med, "black", ' stroke-width="2"'),
            _text(cx, str(_H - 32), 12, "middle", group),
        ]
    return _svg(parts)


def _render_curve(fig: FigureData) -> str:
    xs = [r[0] for r in fig.rows]
    probs = [r[1] for r in fig.rows]
    lowers = [r[2] for r in fig.rows]
    uppers = [r[3] for r in fig.rows]
    xlo, xhi = min(xs), max(xs)
    parts = _axes(xlo, xhi, 0.0, 1.0, "log GDP", "start probability",
                  "Probability of starting vaccination")
    band = [f"{_fmt(_sx(x, xlo, xhi))},{_fmt(_sy(u, 0, 1))}" for x, u in zip(xs, uppers)]
    band += [
        f"{_fmt(_sx(x, xlo, xhi))},{_fmt(_sy(l, 0, 1))}"
        for x, l in zip(reversed(xs), reversed(lowers))
    ]
    parts.append(f'<polygon points="{" ".join(band)}" fill="#c6dbef" stroke="none"/>')
    line = [f"{_fmt(_sx(x, xlo, xhi))},{_fmt(_sy(p, 0, 1))}" for x, p in zip(xs, probs)]
    parts.append(
        f'<polyline points="{" ".join(line)}" fill="none" stroke="#08519c" stroke-width="2"/>'
    )
    return _svg(parts)


def _render_scatter(fig: FigureData) -> str:
    xs = [r[1] for r in fig.rows]
    ys = [r[2] for r in fig.rows]
    xlo, xhi = min(xs), max(xs)
    ylo, yhi = min(ys), max(ys)
    padx, pady = 0.05 * (xhi - xlo), 0.05 * (yhi - ylo)
    xlo, xhi, ylo, yhi = xlo - padx, xhi + padx, ylo - pady, yhi + pady
    parts = _axes(xlo, xhi, ylo, yhi, "government effectiveness", "log vaccinations per hundred",
                  "Government effectiveness and vaccination rate")
    slope = fig.meta["slope"]
    intercept = fig.meta["intercept"]
    y0, y1 = intercept + slope * xlo, intercept + slope * xhi
    parts.append(_line(_sx(xlo, xlo, xhi), _sy(y0, ylo, yhi), _sx(xhi, xlo, xhi),
                       _sy(y1, ylo, yhi), "#a63603", ' stroke-width="2"'))
    for x, y in zip(xs, ys):
        parts.append(
            f'<circle cx="{_fmt(_sx(x, xlo, xhi))}" cy="{_fmt(_sy(y, ylo, yhi))}" '
            f'r="3" fill="#08519c" fill-opacity="0.7"/>'
        )
    return _svg(parts)


def _corr_color(v: float) -> str:
    # blue (-1) .. white (0) .. red (+1)
    v = max(-1.0, min(1.0, v))
    if v >= 0:
        g = int(round(255 * (1 - v)))
        return f"rgb(255,{g},{g})"
    g = int(round(255 * (1 + v)))
    return f"rgb({g},{g},255)"


def _render_heatmap(fig: FigureData) -> str:
    codes = fig.meta["codes"]
    k = len(codes)
    cell = min((_W - _ML - _MR) / k, (_H - _MT - _MB) / k)
    parts = [_text(str(_W / 2), "18", 14, "middle", "Correlation matrix")]
    lookup = {(a, b): v for a, b, v in fig.rows}
    for i, a in enumerate(codes):
        for j, b in enumerate(codes):
            v = lookup.get((a, b))
            x = _ML + j * cell
            y = _MT + i * cell
            parts.append(_rect(x, y, cell, cell, "#eeeeee" if v is None else _corr_color(v),
                               "white"))
            if v is not None:
                parts.append(_text(x + cell / 2, y + cell / 2 + 3, 9, "middle", f"{v:.2f}"))
    for i, a in enumerate(codes):
        parts.append(_text(_ML - 6, _MT + i * cell + cell / 2 + 3, 9, "end", a))
        parts.append(_text(_ML + i * cell + cell / 2, _MT + k * cell + 12, 9, "middle", a))
    return _svg(parts)


def render_figure_svg(fig: FigureData) -> str:
    renderers = {
        "fig1": _render_boxplot,
        "fig2": _render_curve,
        "fig3": _render_scatter,
        "figA1": _render_heatmap,
    }
    try:
        renderer = renderers[fig.figure_id]
    except KeyError:
        raise ValueError(f"no SVG renderer for figure {fig.figure_id!r}") from None
    return renderer(fig)

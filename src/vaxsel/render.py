"""Rendering: markdown and CSV tables, figure CSVs, small static SVGs.

Numbers are rounded only here (3 decimals, ties away from zero) for the
human-readable markdown; CSV carries full shortest-roundtrip precision.
SVGs are written by hand so the output tree is byte-identical across
runs: no timestamps, no generator metadata, fixed coordinate formatting.
"""

from __future__ import annotations

import os
import tempfile
from decimal import ROUND_HALF_UP, Context, Decimal
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from vaxsel.replicate import FigureData, TableResult


def round3(x: float) -> str:
    """Three decimals, ties rounded away from zero, for any finite double: 312
    digits hold its 309 integer digits and 3 decimals."""
    return str(Decimal(repr(float(x))).quantize(Decimal("0.001"), ROUND_HALF_UP, Context(312)))


def write_text_atomic(path, text: str) -> None:
    """Write via a sibling temp file and rename, so readers never see a
    partial file and a failed run leaves no truncated output."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".tmp_", suffix=path.suffix)
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


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
    lines = [f"# {table.title}", ""]
    header = ["variable"] + list(table.column_labels)
    lines.append("| " + " | ".join(header) + " |")
    lines.append("|" + "---|" * len(header))
    for row in table.row_labels:
        cells = [cell_text(table.cell(row, col)) for col in table.column_labels]
        lines.append("| " + " | ".join([row] + cells) + " |")
    obs = [str(table.observations.get(col, "")) for col in table.column_labels]
    lines.append("| " + " | ".join(["observations"] + obs) + " |")
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


# ---------------------------------------------------------------- figures


def render_figure_csv(fig: FigureData) -> str:
    lines = [",".join(fig.columns)]
    for row in fig.rows:
        lines.append(",".join("" if v is None else repr(v) if isinstance(v, float) else str(v)
                              for v in row))
    for note in fig.notes:
        lines.append(f"# {note}")
    return "\n".join(lines) + "\n"


_W, _H = 640, 480
_ML, _MR, _MT, _MB = 70, 20, 30, 50


def _sx(x, lo, hi):
    span = (hi - lo) or 1.0
    return _ML + (_W - _ML - _MR) * (x - lo) / span


def _sy(y, lo, hi):
    span = (hi - lo) or 1.0
    return _H - _MB - (_H - _MT - _MB) * (y - lo) / span


def _fmt(v):
    return f"{v:.2f}"


def _axes(xlo, xhi, ylo, yhi, xlabel, ylabel, title):
    parts = []
    x0, y0 = _sx(xlo, xlo, xhi), _sy(ylo, ylo, yhi)
    x1, y1 = _sx(xhi, xlo, xhi), _sy(yhi, ylo, yhi)
    parts.append(
        f'<line x1="{_fmt(x0)}" y1="{_fmt(y0)}" x2="{_fmt(x1)}" y2="{_fmt(y0)}" stroke="black"/>'
    )
    parts.append(
        f'<line x1="{_fmt(x0)}" y1="{_fmt(y0)}" x2="{_fmt(x0)}" y2="{_fmt(y1)}" stroke="black"/>'
    )
    for i in range(5):
        xv = xlo + (xhi - xlo) * i / 4
        yv = ylo + (yhi - ylo) * i / 4
        xs, ys = _sx(xv, xlo, xhi), _sy(yv, ylo, yhi)
        parts.append(
            f'<text x="{_fmt(xs)}" y="{_fmt(y0 + 18)}" font-size="11" '
            f'text-anchor="middle">{xv:.1f}</text>'
        )
        parts.append(
            f'<text x="{_fmt(x0 - 8)}" y="{_fmt(ys + 4)}" font-size="11" '
            f'text-anchor="end">{yv:.1f}</text>'
        )
    parts.append(
        f'<text x="{_fmt((x0 + x1) / 2)}" y="{_H - 12}" font-size="13" '
        f'text-anchor="middle">{xlabel}</text>'
    )
    parts.append(
        f'<text x="16" y="{_fmt((y0 + y1) / 2)}" font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 16 {_fmt((y0 + y1) / 2)})">{ylabel}</text>'
    )
    parts.append(
        f'<text x="{_W / 2}" y="18" font-size="14" text-anchor="middle">{title}</text>'
    )
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
    for group, (mn, q1, med, q3, mx) in stats.items():
        cx = _sx(centers[group], 0, 1)
        half = 50
        ys = {k: _sy(v, ylo, yhi) for k, v in
              (("mn", mn), ("q1", q1), ("med", med), ("q3", q3), ("mx", mx))}
        parts.append(
            f'<line x1="{_fmt(cx)}" y1="{_fmt(ys["mn"])}" x2="{_fmt(cx)}" '
            f'y2="{_fmt(ys["q1"])}" stroke="black"/>'
        )
        parts.append(
            f'<line x1="{_fmt(cx)}" y1="{_fmt(ys["q3"])}" x2="{_fmt(cx)}" '
            f'y2="{_fmt(ys["mx"])}" stroke="black"/>'
        )
        parts.append(
            f'<rect x="{_fmt(cx - half)}" y="{_fmt(ys["q3"])}" width="{2 * half}" '
            f'height="{_fmt(ys["q1"] - ys["q3"])}" fill="#9ecae1" stroke="black"/>'
        )
        parts.append(
            f'<line x1="{_fmt(cx - half)}" y1="{_fmt(ys["med"])}" x2="{_fmt(cx + half)}" '
            f'y2="{_fmt(ys["med"])}" stroke="black" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{_fmt(cx)}" y="{_H - 32}" font-size="12" '
            f'text-anchor="middle">{group}</text>'
        )
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
    parts.append(
        f'<line x1="{_fmt(_sx(xlo, xlo, xhi))}" y1="{_fmt(_sy(y0, ylo, yhi))}" '
        f'x2="{_fmt(_sx(xhi, xlo, xhi))}" y2="{_fmt(_sy(y1, ylo, yhi))}" '
        f'stroke="#a63603" stroke-width="2"/>'
    )
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
    parts = [f'<text x="{_W / 2}" y="18" font-size="14" text-anchor="middle">'
             "Correlation matrix</text>"]
    lookup = {(a, b): v for a, b, v in fig.rows}
    for i, a in enumerate(codes):
        for j, b in enumerate(codes):
            v = lookup.get((a, b))
            x = _ML + j * cell
            y = _MT + i * cell
            fill = "#eeeeee" if v is None else _corr_color(v)
            parts.append(
                f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(cell)}" '
                f'height="{_fmt(cell)}" fill="{fill}" stroke="white"/>'
            )
            if v is not None:
                parts.append(
                    f'<text x="{_fmt(x + cell / 2)}" y="{_fmt(y + cell / 2 + 3)}" '
                    f'font-size="9" text-anchor="middle">{v:.2f}</text>'
                )
    for i, a in enumerate(codes):
        parts.append(
            f'<text x="{_fmt(_ML - 6)}" y="{_fmt(_MT + i * cell + cell / 2 + 3)}" '
            f'font-size="9" text-anchor="end">{a}</text>'
        )
        parts.append(
            f'<text x="{_fmt(_ML + i * cell + cell / 2)}" y="{_fmt(_MT + len(codes) * cell + 12)}" '
            f'font-size="9" text-anchor="middle">{a}</text>'
        )
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

"""Descriptive statistics, estimation suites, robustness runs and figure data.

Everything here is a pure function of the loaded panel: re-running any
suite on an unchanged snapshot yields identical numbers, and table cells
carry full-precision floats and figures carry their fitted numbers in meta;
render turns all of them into text.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from vaxsel import heckman, probit
from vaxsel.panel import Panel, PanelError, build_model_frame, quantile
from vaxsel.specs import (ANCHOR_CELLS, REPLICATION_TABLES, TABLE_ROW_ORDER, apply_outlier_filter,
                          builtin_specs)
from vaxsel.stdnorm import normal_cdf

DESCRIPTIVE_ORDER = (
    "vac_php",
    "cases",
    "days",
    "gov_response",
    "gdp",
    "gdp_pc_ppp",
    "exports",
    "health_exp",
    "military_exp",
    "gov_eff",
    "pop_65",
)


@dataclass
class Cell:
    value: float
    spread: float | None = None
    stars: str = ""


@dataclass
class TableResult:
    title: str
    column_labels: list
    row_labels: list
    cells: dict = field(default_factory=dict)  # (row, column) -> Cell
    observations: dict = field(default_factory=dict)  # column -> int
    column_errors: dict = field(default_factory=dict)  # column -> message
    notes: list = field(default_factory=list)
    fits: dict = field(default_factory=dict, repr=False)  # spec name -> HeckmanFit

    def cell(self, row, column):
        return self.cells.get((row, column))


@dataclass
class FigureData:
    figure_id: str
    columns: list
    rows: list
    meta: dict = field(default_factory=dict)


def two_sided_p(t_stat):
    """Two-sided tail probability of a standard normal test statistic."""
    return float(2.0 * normal_cdf(-abs(t_stat)))


@np.errstate(over="ignore", invalid="ignore")  # an overflow is reported as not finite
def descriptive_table(panel: Panel) -> TableResult:
    """Mean and standard deviation per variable, overall and by start status;
    ValueError naming the variable when one of them is not finite."""
    st = panel.column("started")
    groups = (
        ("all", np.ones(panel.n_records, dtype=bool)),
        ("not_started", st == 0.0),
        ("started", st == 1.0),
    )
    out = TableResult(
        title="Descriptive statistics",
        column_labels=[g for g, _ in groups],
        row_labels=[c for c in DESCRIPTIVE_ORDER if c in panel.codes],
        notes=["cell: mean (standard deviation) of the stored, transformed values"],
    )
    for code in out.row_labels:
        col = panel.column(code)
        for gname, gmask in groups:
            vals = col[gmask & ~np.isnan(col)]
            if vals.size == 0:
                continue
            mean, sd = float(vals.mean()), float(vals.std(ddof=1)) if vals.size > 1 else None
            if not all(map(math.isfinite, (mean, sd or 0.0))):
                raise ValueError(f"{code}: mean or standard deviation is not finite")
            out.cells[(code, gname)] = Cell(mean, sd)
    for gname, gmask in groups:
        out.observations[gname] = int(gmask.sum())
    return out


def _stages(fit, vcov_variant):
    """Stage -> (labels, coefficients, covariance) of fit under vcov_variant."""
    first, (outcome_vcov, selection_vcov) = fit.first_stage, fit.vcov[vcov_variant]
    return {"outcome": (fit.outcome_labels, fit.outcome_coef, outcome_vcov),
            **({} if first is None else {"selection": (first.labels, first.coef, selection_vcov)})}


def _cell(name, stage, label, coef, se):
    """The table cell of one estimate of fit name; ValueError when it is not finite."""
    if not (math.isfinite(coef) and math.isfinite(se)):
        raise ValueError(f"{name}: {stage} estimate of {label} is not finite")
    return Cell(coef, se, heckman.significance_stars(coef, se))


def run_model_suite(
    panel: Panel,
    specs=None,
    vcov_variant: str = heckman.PLAIN_ROBUST,
    title: str = "Estimated selection models",
) -> TableResult:
    """One two-step fit per specification, as paired columns under vcov_variant.  A model
    that fails to estimate contributes an error message for its columns; the remaining
    models still run.  An all-selected fit has no selection stage and is read under
    plain_robust whatever the variant, which a note of its own says."""
    heckman.check_vcov_variant(vcov_variant)
    specs = list(builtin_specs() if specs is None else specs)
    out = TableResult(
        title=title,
        column_labels=[f"{s.name}:{stage}" for s in specs for stage in ("outcome", "selection")],
        row_labels=list(TABLE_ROW_ORDER),
        notes=[
            f"second-stage covariance: {vcov_variant}; "
            "stars: *** 1%, ** 5%, * 10% (two-sided normal)",
            "every model includes the three vaccine provider dummies in the outcome stage",
        ],
    )
    for s in specs:
        try:
            out.fits[s.name] = heckman.fit_two_step(build_model_frame(panel, s))
        except (*heckman.ESTIMATION_ERRORS, PanelError) as exc:  # in-table, suite continues
            out.column_errors[f"{s.name}:outcome"] = str(exc)
            out.column_errors[f"{s.name}:selection"] = str(exc)
    out.notes += [f"{name}: every row is selected, so there is no selection stage or Mills "
                  f"column; second-stage covariance: {heckman.PLAIN_ROBUST}"
                  for name, fit in out.fits.items() if fit.first_stage is None]
    for name, fit in out.fits.items():
        for stage, (labels, coefs, vcov) in _stages(fit, vcov_variant).items():
            for label, coef, se in zip(labels, coefs.tolist(), np.sqrt(np.diag(vcov)).tolist()):
                out.cells[(label, f"{name}:{stage}")] = _cell(name, stage, label, coef, se)
        out.observations[f"{name}:outcome"] = out.observations[f"{name}:selection"] = fit.n_total
    used = {r for (r, _) in out.cells}
    out.row_labels = [r for r in out.row_labels if r in used]
    return out


def replication_tables(panel: Panel, vcov_variant: str = heckman.PLAIN_ROBUST) -> dict:
    """Tables 2-4 keyed by table id, each cell fitted once: per REPLICATION_TABLES
    entry, its first n specifications on the panel under its outlier filter."""
    specs = builtin_specs()
    return {
        table: run_model_suite(apply_outlier_filter(panel, name), specs[:n], vcov_variant, title)
        for table, (title, name, n) in REPLICATION_TABLES.items()
    }


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # checked as non-finite below
def correlation_matrix(panel: Panel, codes=None) -> FigureData:
    """Pairwise-complete Pearson correlations; blank where undefined;
    ValueError naming a column whose variance is out of the float range."""
    codes = list(DESCRIPTIVE_ORDER if codes is None else codes)
    if len(codes) < 2:
        raise ValueError("need at least two variables for a correlation matrix")
    cols = {c: panel.column(c) for c in codes}
    corr = {}
    for i, a in enumerate(codes):
        for b in codes[i:]:
            ok = ~np.isnan(cols[a]) & ~np.isnan(cols[b])
            xa, xb = cols[a][ok], cols[b][ok]
            corr[a, b] = corr[b, a] = None
            if ok.sum() < 2:
                continue
            c = np.cov(xa, xb)  # np.corrcoef's steps follow; c[1, 0] is its (xb, xa) value
            sd = np.sqrt(np.diag(c))
            if (sd != 0.0).all():
                c = np.clip(c / sd[:, None] / sd[None, :], -1, 1)
                if not np.isfinite(c).all():
                    bad = next((v for v, s in zip((a, b), sd) if not 0.0 < s < math.inf), a)
                    raise ValueError(f"correlation figure: variance of {bad} out of float range")
                corr[a, b], corr[b, a] = float(c[0, 1]), float(c[1, 0])
    return FigureData(
        figure_id="figA1",
        columns=["var_row", "var_col", "corr"],
        rows=[(a, b, corr[a, b]) for a in codes for b in codes],
        meta={"codes": codes},
    )


def gdp_boxplot_stats(panel: Panel) -> FigureData:
    """Five-number summary of log GDP for starters and non-starters."""
    gdp = panel.column("gdp")
    st = panel.column("started")
    rows = []
    for label, mask in (("not_started", st == 0.0), ("started", st == 1.0)):
        vals = gdp[mask & ~np.isnan(gdp)]
        if vals.size == 0:
            raise ValueError(f"figure 1: no gdp value among the {label} countries")
        rows.append((label, *(quantile(vals, p) for p in (0.0, 0.25, 0.5, 0.75, 1.0))))
    return FigureData(
        figure_id="fig1",
        columns=["group", "min", "q1", "median", "q3", "max"],
        rows=rows,
    )


def conditional_start_curve(panel: Panel) -> FigureData:
    """Start probability at 100 points of log GDP, with a 95% delta-method band.

    Univariate probit of the start indicator on log GDP; the band is the
    index confidence interval mapped through the normal cdf, so it always
    contains the point estimate.
    """
    gdp = panel.column("gdp")
    st = panel.column("started")
    ok = ~np.isnan(gdp)
    grid = np.linspace(float(gdp[ok].min()), float(gdp[ok].max()), 100)

    X = np.column_stack([gdp[ok], np.ones(int(ok.sum()))])
    fit = probit.fit(st[ok], X, labels=["gdp", "const"])
    G = np.column_stack([grid, np.ones(grid.size)])
    index = G @ fit.coef
    se_index = np.sqrt(np.einsum("ij,jk,ik->i", G, fit.vcov, G))
    prob = normal_cdf(index)
    lower = normal_cdf(index - heckman.Z_95 * se_index)
    upper = normal_cdf(index + heckman.Z_95 * se_index)
    if not (np.all(upper >= prob) and np.all(prob >= lower)):
        raise AssertionError("confidence band must bracket the point estimate")
    slope, se = float(fit.coef[0]), float(np.sqrt(fit.vcov[0, 0]))
    return FigureData(
        figure_id="fig2",
        columns=["log_gdp", "prob", "lower", "upper"],
        rows=[(float(g), float(p), float(l), float(u))
              for g, p, l, u in zip(grid, prob, lower, upper)],
        meta={"slope": slope, "se": se, "p": two_sided_p(slope / se)},
    )


def goveff_scatter_fit(panel: Panel) -> FigureData:
    """Government effectiveness against the log vaccination rate, with an
    OLS line and its slope p-value, over the countries that started."""
    ge = panel.column("gov_eff")
    vac = panel.column("vac_php")
    started = panel.column("started") == 1.0
    mask = started & ~np.isnan(ge) & ~np.isnan(vac)
    n = int(mask.sum())
    if n < 3:  # the column, or both, with too few values among the starters
        few = [c for c, v in (("gov_eff", ge), ("vac_php", vac))
               if (~np.isnan(v[started])).sum() < 3]
        raise ValueError("figure 3: fewer than three started countries with a "
                         f"{' and '.join(few or ['gov_eff', 'vac_php'])} value")
    X = np.column_stack([ge[mask], np.ones(n)])
    coef, resid = heckman.ols(vac[mask], X, ["gov_eff", "const"])
    s2 = float(resid @ resid) / (n - 2)
    se = math.sqrt(s2 * np.linalg.inv(X.T @ X)[0, 0])
    pval = two_sided_p(coef[0] / se) if se > 0 else 0.0
    rows = list(zip(panel.iso3[mask].tolist(), ge[mask].tolist(), vac[mask].tolist()))
    return FigureData(
        figure_id="fig3",
        columns=["iso3", "gov_eff", "log_vac_php"],
        rows=rows,
        meta={"slope": float(coef[0]), "intercept": float(coef[1]), "se": se, "p": pval},
    )


def all_figures(panel: Panel):
    return [
        gdp_boxplot_stats(panel),
        conditional_start_curve(panel),
        goveff_scatter_fit(panel),
        correlation_matrix(panel),
    ]


# One anchor of the diff report: where it lives, its reference Cell, the robust and
# corrected Cells or, where the table has none, the reason, and the verdicts; sign_match is
# None where the reference has no stars, as the sign of a noise-level estimate says nothing
DiffRow = namedtuple("DiffRow", "table model stage variable reference robust corrected "
                                "sign_match stars_match")


def replication_diff(tables) -> list:
    """One DiffRow per anchor under both second-stage covariance variants, its cells
    read from the fits of replication_tables' tables as run_model_suite reads them."""
    rows = []
    for a in ANCHOR_CELLS:
        fit = tables[a.table].fits.get(a.model)
        anchor = (a.table, a.model, a.stage, a.variable, Cell(a.ref_coef, a.ref_se, a.ref_stars))
        stages = [_stages(fit, v).get(a.stage) for v in heckman.VCOV_VARIANTS] if fit else [None]
        if stages[0] is None or a.variable not in stages[0][0]:  # then under neither variant
            failed = f"{a.model}:{a.stage}" in tables[a.table].column_errors
            reason = "model failed" if failed else "no selection stage"
            rows.append(DiffRow(*anchor, reason, reason, False, False))
            continue
        j = stages[0][0].index(a.variable)
        robust, corrected = (_cell(a.model, a.stage, a.variable, coefs[j].item(),
                                   np.sqrt(vcov[j, j]).item()) for _, coefs, vcov in stages)
        same_sign = math.copysign(1, robust.value) == math.copysign(1, a.ref_coef)
        rows.append(DiffRow(*anchor, robust, corrected, same_sign if a.ref_stars else None,
                            robust.stars == a.ref_stars))
    return rows

"""Built-in model specifications and the reference cells they are checked against.

Five specifications, each a pair of variable lists: the selection stage
models whether a country started vaccinating, the outcome stage models
the log vaccination rate among starters.  The vaccine provider dummies
enter the outcome stage of every model; days since first vaccination is
outcome-only; soft-power membership is selection-only and government
effectiveness outcome-only (the exclusion pattern that identifies the
correction term).  The named outlier filters, the registry of tables
2-4 that run on them and the anchor cells with their rules live here too.
"""

from __future__ import annotations

from dataclasses import dataclass

from vaxsel.panel import filter_percentile


@dataclass(frozen=True)
class ModelSpec:
    name: str
    selection_vars: tuple
    outcome_vars: tuple

    def __post_init__(self):
        if "days" in self.selection_vars:
            raise ValueError(f"{self.name}: days is an outcome-stage variable only")
        if "soft_power_30" in self.outcome_vars:
            raise ValueError(f"{self.name}: soft_power_30 is a selection-stage variable only")
        if "gov_eff" in self.selection_vars:
            raise ValueError(f"{self.name}: gov_eff is an outcome-stage variable only")


def _sized_spec(name, size):
    """Models 4 and 5 differ only in their measure of economic size."""
    return ModelSpec(
        name=name,
        selection_vars=(
            "cases",
            "gov_response",
            size,
            "exports",
            "health_exp",
            "military_exp",
            "soft_power_30",
        ),
        outcome_vars=(
            "cases",
            "days",
            "gov_response",
            size,
            "health_exp",
            "military_exp",
            "gov_eff",
            "pop_65",
        ),
    )


def builtin_specs() -> list:
    return [
        ModelSpec(
            name="model1",
            selection_vars=("cases", "gov_response"),
            outcome_vars=("cases", "days", "gov_response"),
        ),
        ModelSpec(
            name="model2",
            selection_vars=("cases", "soft_power_30"),
            outcome_vars=("cases", "days", "gov_eff"),
        ),
        ModelSpec(
            name="model3",
            selection_vars=(
                "cases",
                "gov_response",
                "exports",
                "health_exp",
                "military_exp",
                "soft_power_30",
            ),
            outcome_vars=("cases", "days", "gov_response", "health_exp", "military_exp"),
        ),
        _sized_spec("model4", "gdp"),
        _sized_spec("model5", "gdp_pc_ppp"),
    ]


# Named outlier filters: (variable, low quantile, high quantile) bands
# applied in order, so each band's quantiles are taken over the records
# the previous bands kept.
OUTLIER_FILTERS = {
    "none": (),
    "table3": (("gov_eff", 0.05, 0.95), ("gdp", 0.05, 0.95)),
    "table4": (("vac_php", 0.0, 0.95),),
}


# The estimation tables of a replication run, in output order: table id ->
# (title, outlier filter, how many of builtin_specs it fits, from the first).
REPLICATION_TABLES = {
    "table2": ("Estimated selection models", "none", 5),
    "table3": ("Estimated selection models (gov. effectiveness and GDP outliers excluded)",
               "table3", 4),
    "table4": ("Estimated selection models (vaccination rate outliers excluded)", "table4", 4),
}


def apply_outlier_filter(panel, name):
    """The panel restricted by the named outlier filter's bands."""
    if name not in OUTLIER_FILTERS:
        raise ValueError(f"unknown filter {name!r}; choose from {tuple(OUTLIER_FILTERS)}")
    for variable, low_p, high_p in OUTLIER_FILTERS[name]:
        panel = filter_percentile(panel, variable, low_p, high_p)
    return panel


# Display order for estimation-table rows (variables absent from a model
# simply render blank), mirroring the reference layout.
TABLE_ROW_ORDER = (
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
    "soft_power_30",
    "west",
    "china",
    "russia",
    "imr_lambda",
    "const",
)


@dataclass(frozen=True)
class AnchorCell:
    """One reference cell: where it lives, the published estimate and the rule it is held to."""

    table: str
    model: str
    stage: str  # "selection" | "outcome"
    variable: str
    ref_coef: float
    ref_se: float
    ref_stars: str
    rule: str  # "***" | "**+" | "+" | "ns", see met_by
    min_t: float | None = None
    soft: bool = False  # a soft cell that misses its rule is only noted

    def met_by(self, coef, se, stars):
        """Whether an estimate holds the rule: "+" is a positive estimate, "***" and "**+" one at
        1% and at 5% or better, "ns" |t| < 1.4, a margin below the 10% threshold, with no sign (a
        noise-level estimate has none); min_t adds a margin on the t statistic."""
        t = coef / se
        return {"+": coef > 0, "***": coef > 0 and stars == "***",
                "**+": coef > 0 and stars in ("**", "***"),
                "ns": abs(t) < 1.4}[self.rule] and (self.min_t is None or t > self.min_t)


# The anchor cells: the diff report reads their reference estimates, and the acceptance tests
# and scripts/make_snapshot.py their rules, so the anchor pattern is written only here.
ANCHOR_CELLS = (
    # table2 selection stage
    AnchorCell("table2", "model1", "selection", "cases", 0.525, 0.130, "***", "***"),
    AnchorCell("table2", "model2", "selection", "cases", 0.504, 0.096, "***", "***"),
    AnchorCell("table2", "model3", "selection", "cases", 0.567, 0.145, "***", "***"),
    AnchorCell("table2", "model4", "selection", "cases", 0.469, 0.120, "***", "***"),
    AnchorCell("table2", "model5", "selection", "cases", 0.387, 0.150, "**", "+"),
    AnchorCell("table2", "model2", "selection", "soft_power_30", 2.129, 0.352, "***", "***"),
    AnchorCell("table2", "model3", "selection", "soft_power_30", 2.337, 0.435, "***", "***"),
    AnchorCell("table2", "model4", "selection", "soft_power_30", 1.224, 0.487, "**", "**+"),
    AnchorCell("table2", "model5", "selection", "soft_power_30", 1.286, 0.368, "***", "**+"),
    AnchorCell("table2", "model4", "selection", "gdp", 0.400, 0.127, "***", "***"),
    AnchorCell("table2", "model5", "selection", "gdp_pc_ppp", 0.737, 0.281, "***", "***"),
    # table2 outcome stage
    AnchorCell("table2", "model1", "outcome", "days", 0.087, 0.018, "***", "***", 2.9),
    AnchorCell("table2", "model2", "outcome", "days", 0.069, 0.015, "***", "***", 2.9),
    AnchorCell("table2", "model3", "outcome", "days", 0.085, 0.020, "***", "***", 2.9),
    AnchorCell("table2", "model4", "outcome", "days", 0.071, 0.018, "***", "***", 2.9),
    AnchorCell("table2", "model5", "outcome", "days", 0.068, 0.019, "***", "***", 2.9),
    AnchorCell("table2", "model2", "outcome", "gov_eff", 0.718, 0.217, "***", "***"),
    AnchorCell("table2", "model4", "outcome", "gov_eff", 0.782, 0.255, "***", "***"),
    AnchorCell("table2", "model5", "outcome", "gov_eff", 0.335, 0.525, "", "ns"),
    AnchorCell("table2", "model5", "outcome", "gdp_pc_ppp", 0.574, 0.697, "", "ns", soft=True),
    # table3: government-effectiveness and GDP outliers excluded
    AnchorCell("table3", "model2", "outcome", "gov_eff", 1.405, 0.454, "***", "***", 2.75),
    AnchorCell("table3", "model4", "outcome", "gov_eff", 1.447, 0.535, "***", "***", 2.75),
    AnchorCell("table3", "model2", "selection", "soft_power_30", 1.735, 0.307, "***", "***"),
    AnchorCell("table3", "model3", "selection", "soft_power_30", 1.599, 0.355, "***", "+"),
    AnchorCell("table3", "model4", "selection", "soft_power_30", 0.879, 0.525, "*", "+"),
    # table4: vaccination-rate outliers excluded
    AnchorCell("table4", "model2", "outcome", "gov_eff", 0.573, 0.182, "***", "***"),
    AnchorCell("table4", "model4", "outcome", "gov_eff", 0.519, 0.217, "**", "**+"),
    AnchorCell("table4", "model2", "selection", "soft_power_30", 2.197, 0.352, "***", "+"),
    AnchorCell("table4", "model3", "selection", "soft_power_30", 2.407, 0.416, "***", "+"),
    AnchorCell("table4", "model4", "selection", "soft_power_30", 1.191, 0.488, "**", "+"),
)

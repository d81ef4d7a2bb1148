#!/usr/bin/env python3
"""Generate the frozen 189-country snapshot shipped with the package.

The snapshot is synthetic but calibrated: group moments match the
reference descriptive table, the missingness pattern reproduces the
per-model sample sizes, the pooled correlation between government
effectiveness and GDP per capita is pinned exactly, and the latent
outcome process is tuned so the built-in model suite reproduces the
reference sign and significance-star pattern, including the robustness
filters.  Every one of those properties is checked before a single byte
is written, and every number checked comes from the functions behind
`vaxsel replicate`: the cells, sample sizes and fits of its tables 2-4,
its descriptive table and its figure data.

Usage:
    python scripts/make_snapshot.py [--seed N] [--check-only] [--quiet]

Reads the variable schema from src/vaxsel/data/schema.csv, the one source
of the variable list (this script never writes it), and writes
src/vaxsel/data/snapshot.csv through vaxsel.panel.save_panel, so that a
re-save of the loaded panel gives the same bytes.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
DATA_DIR = REPO / "src" / "vaxsel" / "data"
sys.path.insert(0, str(REPO / "src"))

from vaxsel import panel, replicate, specs  # noqa: E402

SEED = 11

# outcome process tuning (all on within-started z-scales except days)
THETA_CAPACITY = 0.72   # loading on each of gov_eff and gdp_pc_ppp
CASES_OUT = 0.30
WEST_OUT = 0.10
DAYS_OUT = 0.12
SIGMA_EPS = 1.25
R_WITHIN_STARTED = 0.95  # gov_eff / gdp_pc correlation inside the started group

# group moment targets: code -> ((mean_no, sd_no), (mean_yes, sd_yes));
# log-scale except gov_eff (level) and gov_response (raw index)
MOMENTS = {
    "cases": ((7.75, 2.28), (10.21, 1.17)),
    "gov_response": ((56.83, 12.76), (58.00, 8.70)),
    "gdp": ((24.32, 2.04), (26.67, 1.76)),
    "gdp_pc_ppp": ((8.92, 1.02), (10.49, 0.61)),
    "exports": ((3.45, 0.58), (3.84, 0.61)),
    "health_exp": ((1.69, 0.44), (1.97, 0.36)),
    "military_exp": ((0.33, 1.03), (0.51, 0.67)),
    "gov_eff": ((-0.43, 0.84), (0.83, 0.74)),
    "pop_65": ((0.41, 0.38), (0.86, 0.48)),
}
VAC_MEAN, VAC_SD = 0.55, 1.57
DAYS_TARGET_SUM = 1518  # 56 countries, mean 27.107
CORR_TARGET = 0.83
# quantile band of each variable under the table-3 robustness filter
TABLE3_BANDS = {code: (lo, hi) for code, lo, hi in specs.OUTLIER_FILTERS["table3"]}

STARTED_SP30 = [
    ("FRA", "France"), ("GBR", "United Kingdom"), ("DEU", "Germany"),
    ("SWE", "Sweden"), ("USA", "United States"), ("CHE", "Switzerland"),
    ("CAN", "Canada"), ("NLD", "Netherlands"), ("ITA", "Italy"),
    ("NOR", "Norway"), ("ESP", "Spain"), ("DNK", "Denmark"),
    ("FIN", "Finland"), ("CHN", "China"), ("SGP", "Singapore"),
    ("AUT", "Austria"), ("BEL", "Belgium"), ("IRL", "Ireland"),
    ("PRT", "Portugal"), ("RUS", "Russia"), ("POL", "Poland"),
    ("GRC", "Greece"), ("HUN", "Hungary"), ("CZE", "Czechia"),
    ("TUR", "Turkey"), ("BRA", "Brazil"),
]
NONSTARTED_SP30 = [
    ("AUS", "Australia"), ("NZL", "New Zealand"), ("JPN", "Japan"),
    ("KOR", "South Korea"),
]
STARTED_OTHER = [
    ("ISR", "Israel"), ("ARE", "United Arab Emirates"), ("BHR", "Bahrain"),
    ("CHL", "Chile"), ("ARG", "Argentina"), ("MEX", "Mexico"),
    ("CRI", "Costa Rica"), ("SRB", "Serbia"), ("ISL", "Iceland"),
    ("MLT", "Malta"), ("ROU", "Romania"), ("BGR", "Bulgaria"),
    ("HRV", "Croatia"), ("SVK", "Slovakia"), ("SVN", "Slovenia"),
    ("LTU", "Lithuania"), ("LVA", "Latvia"), ("EST", "Estonia"),
    ("LUX", "Luxembourg"), ("CYP", "Cyprus"), ("IND", "India"),
    ("IDN", "Indonesia"), ("SAU", "Saudi Arabia"), ("KWT", "Kuwait"),
    ("OMN", "Oman"), ("QAT", "Qatar"), ("MAR", "Morocco"),
    ("ECU", "Ecuador"), ("PAN", "Panama"), ("MMR", "Myanmar"),
]
NONSTARTED_OTHER = [
    ("DZA", "Algeria"), ("AGO", "Angola"), ("BEN", "Benin"),
    ("BWA", "Botswana"), ("BFA", "Burkina Faso"), ("BDI", "Burundi"),
    ("CPV", "Cabo Verde"), ("CMR", "Cameroon"), ("CAF", "Central African Republic"),
    ("TCD", "Chad"), ("COM", "Comoros"), ("COG", "Congo"),
    ("COD", "DR Congo"), ("CIV", "Cote d'Ivoire"), ("DJI", "Djibouti"),
    ("EGY", "Egypt"), ("GNQ", "Equatorial Guinea"), ("ERI", "Eritrea"),
    ("SWZ", "Eswatini"), ("ETH", "Ethiopia"), ("GAB", "Gabon"),
    ("GMB", "Gambia"), ("GHA", "Ghana"), ("GIN", "Guinea"),
    ("GNB", "Guinea-Bissau"), ("KEN", "Kenya"), ("LSO", "Lesotho"),
    ("LBR", "Liberia"), ("LBY", "Libya"), ("MDG", "Madagascar"),
    ("MWI", "Malawi"), ("MLI", "Mali"), ("MRT", "Mauritania"),
    ("MUS", "Mauritius"), ("MOZ", "Mozambique"), ("NAM", "Namibia"),
    ("NER", "Niger"), ("NGA", "Nigeria"), ("RWA", "Rwanda"),
    ("STP", "Sao Tome and Principe"), ("SEN", "Senegal"), ("SYC", "Seychelles"),
    ("SLE", "Sierra Leone"), ("SOM", "Somalia"), ("ZAF", "South Africa"),
    ("SSD", "South Sudan"), ("SDN", "Sudan"), ("TZA", "Tanzania"),
    ("TGO", "Togo"), ("TUN", "Tunisia"), ("UGA", "Uganda"),
    ("ZMB", "Zambia"), ("ZWE", "Zimbabwe"),
    ("ATG", "Antigua and Barbuda"), ("BHS", "Bahamas"), ("BRB", "Barbados"),
    ("BLZ", "Belize"), ("BOL", "Bolivia"), ("COL", "Colombia"),
    ("CUB", "Cuba"), ("DMA", "Dominica"), ("DOM", "Dominican Republic"),
    ("SLV", "El Salvador"), ("GRD", "Grenada"), ("GTM", "Guatemala"),
    ("GUY", "Guyana"), ("HTI", "Haiti"), ("HND", "Honduras"),
    ("JAM", "Jamaica"), ("NIC", "Nicaragua"), ("PRY", "Paraguay"),
    ("PER", "Peru"), ("KNA", "Saint Kitts and Nevis"), ("LCA", "Saint Lucia"),
    ("VCT", "Saint Vincent"), ("SUR", "Suriname"), ("TTO", "Trinidad and Tobago"),
    ("URY", "Uruguay"), ("VEN", "Venezuela"),
    ("AFG", "Afghanistan"), ("ARM", "Armenia"), ("AZE", "Azerbaijan"),
    ("BGD", "Bangladesh"), ("BTN", "Bhutan"), ("BRN", "Brunei"),
    ("KHM", "Cambodia"), ("GEO", "Georgia"), ("IRN", "Iran"),
    ("IRQ", "Iraq"), ("JOR", "Jordan"), ("KAZ", "Kazakhstan"),
    ("KGZ", "Kyrgyzstan"), ("LAO", "Laos"), ("LBN", "Lebanon"),
    ("MYS", "Malaysia"), ("MDV", "Maldives"), ("MNG", "Mongolia"),
    ("NPL", "Nepal"), ("PAK", "Pakistan"), ("PHL", "Philippines"),
    ("LKA", "Sri Lanka"), ("SYR", "Syria"), ("TJK", "Tajikistan"),
    ("THA", "Thailand"), ("TLS", "Timor-Leste"), ("TKM", "Turkmenistan"),
    ("UZB", "Uzbekistan"), ("VNM", "Vietnam"), ("YEM", "Yemen"),
    ("ALB", "Albania"), ("BLR", "Belarus"), ("BIH", "Bosnia and Herzegovina"),
    ("MKD", "North Macedonia"), ("MDA", "Moldova"), ("MNE", "Montenegro"),
    ("UKR", "Ukraine"),
    ("FJI", "Fiji"), ("KIR", "Kiribati"), ("PNG", "Papua New Guinea"),
    ("WSM", "Samoa"), ("SLB", "Solomon Islands"), ("TON", "Tonga"),
    ("VUT", "Vanuatu"), ("FSM", "Micronesia"), ("MHL", "Marshall Islands"),
    ("PLW", "Palau"), ("NRU", "Nauru"), ("TUV", "Tuvalu"), ("AND", "Andorra"),
]


def standardize_exact(values, mean, sd):
    """Affine-map a sample to the exact target mean and ddof=1 sd."""
    v = np.asarray(values, dtype=float)
    z = (v - v.mean()) / v.std(ddof=1)
    return mean + sd * z


def unit_centered(v):
    c = v - v.mean()
    return c / np.linalg.norm(c)


def correlated_exact(base, noise, r, mean, sd):
    """Sample with exact Pearson correlation r against base (and exact moments)."""
    a = unit_centered(base)
    b = noise - noise.mean()
    b = b - (a @ b) * a
    b = b / np.linalg.norm(b)
    y_unit = r * a + np.sqrt(1.0 - r * r) * b
    n = base.shape[0]
    return mean + sd * np.sqrt(n - 1) * y_unit


class Builder:
    def __init__(self, seed):
        self.rng = np.random.Generator(np.random.Philox(key=seed))
        roster = (
            [(i, n, 1, 1) for i, n in STARTED_SP30]
            + [(i, n, 1, 0) for i, n in STARTED_OTHER]
            + [(i, n, 0, 1) for i, n in NONSTARTED_SP30]
            + [(i, n, 0, 0) for i, n in NONSTARTED_OTHER]
        )
        roster.sort(key=lambda t: t[0])
        self.iso = np.array([t[0] for t in roster])
        self.name = {t[0]: t[1] for t in roster}
        self.started = np.array([t[2] for t in roster], dtype=float)
        self.sp30 = np.array([t[3] for t in roster], dtype=float)
        self.n = len(roster)
        assert self.n == 189, self.n
        assert int(self.started.sum()) == 56
        assert int(self.sp30.sum()) == 30
        assert int((self.sp30 * self.started).sum()) == 26
        assert len(set(self.iso)) == 189
        self.yes = self.started == 1.0
        self.no = ~self.yes
        self.cols = {}      # transformed values, np.nan = missing

    def idx(self, iso3):
        return int(np.where(self.iso == iso3)[0][0])

    def group_standardize(self, code, raw_z, present=None):
        """Exact per-group moments over the present entries."""
        (m0, s0), (m1, s1) = MOMENTS[code]
        out = np.full(self.n, np.nan)
        present = np.ones(self.n, dtype=bool) if present is None else present
        for mask, m, s in ((self.no & present, m0, s0), (self.yes & present, m1, s1)):
            out[mask] = standardize_exact(raw_z[mask], m, s)
        self.cols[code] = out
        return out

    def build(self):
        rng = self.rng
        f = rng.standard_normal(self.n)  # latent development factor

        # --- government effectiveness (present for every country) ---
        raw = 0.88 * f + np.sqrt(1 - 0.88**2) * rng.standard_normal(self.n)
        gov_eff = self.group_standardize("gov_eff", raw)

        # the ten lowest values must all be never-started countries, and the
        # never-started Soft-Power members that survive the robustness
        # filter need mid-band values
        order = np.argsort(gov_eff)
        assert not self.started[order[:10]].any(), "low gov_eff tail contains starters"
        self._pull_into_band("gov_eff", ["AUS", "KOR"])
        # the high-governance never-started countries occupy the top of the
        # never-started range, keeping more starters inside the filter band
        self._pull_to_group_top("gov_eff", ["JPN", "NZL"])

        # --- countries missing both GDP variables (kept mid-band) ---
        lo, hi = (panel.quantile(gov_eff, p) for p in TABLE3_BANDS["gov_eff"])
        eligible = [
            i
            for i in np.argsort(np.abs(gov_eff - np.median(gov_eff)))
            if self.no[i]
            and self.sp30[i] == 0
            and lo < gov_eff[i] < hi
        ]
        self.gdp_missing = set(self.iso[eligible[:3]])
        gdp_present = np.array([c not in self.gdp_missing for c in self.iso])

        # --- GDP per capita: exact pooled correlation with gov_eff ---
        noise = rng.standard_normal(self.n)
        (m0, s0), (m1, s1) = MOMENTS["gdp_pc_ppp"]

        def assemble(r0):
            out = np.full(self.n, np.nan)
            for mask, r, m, s in (
                (self.no & gdp_present, r0, m0, s0),
                (self.yes & gdp_present, R_WITHIN_STARTED, m1, s1),
            ):
                out[mask] = correlated_exact(gov_eff[mask], noise[mask], r, m, s)
            return out

        def pooled_corr(r0):
            out = assemble(r0)
            ok = ~np.isnan(out)
            return np.corrcoef(gov_eff[ok], out[ok])[0, 1]

        lo_r, hi_r = 0.2, 0.95
        for _ in range(80):
            mid = 0.5 * (lo_r + hi_r)
            if pooled_corr(mid) < CORR_TARGET:
                lo_r = mid
            else:
                hi_r = mid
        self.r_nonstarted = 0.5 * (lo_r + hi_r)
        gdp_pc = assemble(self.r_nonstarted)
        self.cols["gdp_pc_ppp"] = gdp_pc

        # --- total GDP: mostly economy size, partly development ---
        size = rng.standard_normal(self.n)
        gdppc_dev = np.where(np.isnan(gdp_pc), 0.0, gdp_pc)
        zsrc = np.full(self.n, np.nan)
        for mask in (self.no & gdp_present, self.yes & gdp_present):
            zpc = standardize_exact(gdppc_dev[mask], 0.0, 1.0)
            zsrc[mask] = 0.5 * zpc + np.sqrt(1 - 0.25) * size[mask]
        gdp = self.group_standardize("gdp", np.where(np.isnan(zsrc), 0.0, zsrc), gdp_present)
        gdp[~gdp_present] = np.nan
        self.cols["gdp"] = gdp
        self._pull_into_band("gdp", ["AUS", "KOR"], present=gdp_present)

        # --- robustness drop set and the missingness pattern ---
        dropped = self._table3_drop_set()
        d_total = len(dropped)
        dropped_nonstarted = [c for c in dropped if self.no[self.idx(c)]]
        need_overlap = d_total - 34
        assert 0 <= need_overlap <= len(dropped_nonstarted), (d_total, len(dropped_nonstarted))

        protected = set(self.gdp_missing) | {"AUS", "KOR", "JPN", "NZL"}
        cases_missing = []
        for iso3 in ("TKM", "NRU"):
            if iso3 not in dropped and iso3 not in protected:
                cases_missing.append(iso3)
        pool = [
            c
            for c in self.iso[np.argsort(self.cols["gov_eff"])]
            if self.no[self.idx(c)] and c not in dropped and c not in protected
            and c not in cases_missing
        ]
        while len(cases_missing) < 2:
            cases_missing.append(pool.pop(0))
        self.cases_missing = set(cases_missing)

        # government response tracker coverage: absent for the weakest
        # states inside the drop set (to pin the filtered sample size) and
        # for the weakest eligible states outside it
        by_gov_eff = list(self.iso[np.argsort(self.cols["gov_eff"])])
        in_drop = [
            c for c in by_gov_eff
            if c in dropped_nonstarted and c not in self.cases_missing and c not in protected
        ]
        out_drop = [
            c for c in by_gov_eff
            if self.no[self.idx(c)] and c not in dropped and c not in protected
            and c not in self.cases_missing
        ]
        self.gov_resp_missing = set(in_drop[:need_overlap]) | set(out_drop[: 22 - need_overlap])
        assert len(self.gov_resp_missing) == 22

        # military zeros and health gaps among otherwise-complete rows
        used = self.cases_missing | self.gov_resp_missing | protected
        remaining = [c for c in by_gov_eff if self.no[self.idx(c)] and c not in used]
        self.military_zero = set(remaining[:10])
        self.health_missing = set(remaining[10:14])

        # --- remaining covariates ---
        def present_mask(missing_set):
            return np.array([c not in missing_set for c in self.iso])

        self.cases_present = present_mask(self.cases_missing)
        raw = 0.4 * f + np.sqrt(1 - 0.16) * rng.standard_normal(self.n)
        cases = self.group_standardize("cases", raw, self.cases_present)
        cases[~self.cases_present] = np.nan

        self.gov_resp_present = present_mask(self.gov_resp_missing)
        raw = 0.2 * f + np.sqrt(1 - 0.04) * rng.standard_normal(self.n)
        gov_resp_raw = self.group_standardize("gov_response", raw, self.gov_resp_present)
        gov_resp_raw[~self.gov_resp_present] = np.nan
        assert np.nanmin(gov_resp_raw) > 5.0
        # stored column is the log; the raw index is written to the CSV
        self.gov_resp_raw = gov_resp_raw
        self.cols["gov_response"] = np.log(gov_resp_raw)

        raw = 0.30 * f + np.sqrt(1 - 0.30**2) * rng.standard_normal(self.n)
        self.group_standardize("exports", raw)

        self.health_present = present_mask(self.health_missing)
        raw = 0.30 * f + np.sqrt(1 - 0.30**2) * rng.standard_normal(self.n)
        health = self.group_standardize("health_exp", raw, self.health_present)
        health[~self.health_present] = np.nan

        self.military_present = present_mask(self.military_zero)
        raw = 0.15 * f + np.sqrt(1 - 0.15**2) * rng.standard_normal(self.n)
        military = self.group_standardize("military_exp", raw, self.military_present)
        military[~self.military_present] = np.nan

        raw = 0.35 * f + np.sqrt(1 - 0.35**2) * rng.standard_normal(self.n)
        self.group_standardize("pop_65", raw)

        # --- started-only block: dummies, days, outcome ---
        ys = np.where(self.yes)[0]
        n1 = ys.size
        west = (rng.uniform(size=n1) < 0.78).astype(float)
        china = (rng.uniform(size=n1) < 0.25).astype(float)
        russia = (rng.uniform(size=n1) < 0.18).astype(float)
        none_mask = (west + china + russia) == 0
        russia[none_mask] = 1.0
        for arr, label in ((west, "west"), (china, "china"), (russia, "russia")):
            assert 5 <= arr.sum() <= n1 - 5, f"dummy {label} lacks variation"
            col = np.zeros(self.n)
            col[ys] = arr
            self.cols[label] = col

        days = np.clip(np.round(rng.normal(27.107, 10.6, size=n1)), 1, 46)
        gap = int(DAYS_TARGET_SUM - days.sum())
        step = 1 if gap > 0 else -1
        i = 0
        while gap != 0:
            j = i % n1
            cand = days[j] + step
            if 1 <= cand <= 46:
                days[j] = cand
                gap -= step
            i += 1
        assert days.sum() == DAYS_TARGET_SUM
        col = np.full(self.n, np.nan)
        col[ys] = days
        self.cols["days"] = col

        z = lambda v: standardize_exact(v, 0.0, 1.0)
        lvac = (
            DAYS_OUT * days
            + THETA_CAPACITY * (z(self.cols["gov_eff"][ys]) + z(self.cols["gdp_pc_ppp"][ys]))
            + CASES_OUT * z(self.cols["cases"][ys])
            + WEST_OUT * west
            + SIGMA_EPS * rng.standard_normal(n1)
        )
        lvac = standardize_exact(lvac, VAC_MEAN, VAC_SD)
        col = np.full(self.n, np.nan)
        col[ys] = lvac
        self.cols["vac_php"] = col

        self.cols["started"] = self.started.copy()
        self.cols["soft_power_30"] = self.sp30.copy()

    def _pull_into_band(self, code, iso_list, present=None):
        """Swap values among never-started countries so the named ones sit
        strictly inside the table-3 filter band (multiset unchanged)."""
        col = self.cols[code]
        present = ~np.isnan(col) if present is None else present
        lo, hi = (panel.quantile(col[present], p) for p in TABLE3_BANDS[code])
        pool = [
            i
            for i in range(self.n)
            if self.no[i] and present[i] and self.sp30[i] == 0
            and lo + 0.1 * (hi - lo) < col[i] < hi - 0.1 * (hi - lo)
        ]
        for iso3 in iso_list:
            i = self.idx(iso3)
            if lo < col[i] < hi:
                continue
            j = pool.pop()
            col[i], col[j] = col[j], col[i]

    def _pull_to_group_top(self, code, iso_list):
        """Swap values among never-started countries so the named ones hold
        the largest never-started values (multiset unchanged)."""
        col = self.cols[code]
        named = [self.idx(i) for i in iso_list]
        candidates = [
            i for i in np.argsort(-col)
            if self.no[i] and not np.isnan(col[i]) and i not in named
        ][: len(named)]
        for i, j in zip(named, candidates):
            if col[i] < col[j]:
                col[i], col[j] = col[j], col[i]

    def _table3_drop_set(self):
        """Countries the library's table-3 outlier filter removes."""
        cols = {code: self.cols[code] for code in TABLE3_BANDS}
        bands = panel.Panel(iso3=self.iso, name=self.iso, values=cols, raw=cols,
                            defs=[panel.VariableDef(code, "none") for code in cols])
        return set(self.iso) - set(specs.apply_outlier_filter(bands, "table3").iso3)

    # ----- serialization -----

    def raw_panel(self, schema):
        """The candidate as a panel of its raw columns, in the schema's order."""
        raw = {}
        for d in schema:
            v = self.cols[d.code]
            if d.code == "gov_response":
                v = np.where(np.isnan(v), v, self.gov_resp_raw)
            elif d.transform == "log":
                v = np.exp(v)
            if d.code == "military_exp":
                v = np.where(np.isin(self.iso, sorted(self.military_zero)), 0.0, v)
            raw[d.code] = v
        return panel.Panel(iso3=self.iso, name=[self.name[i] for i in self.iso], values=raw,
                           raw=raw, defs=list(schema))


# --------------------------------------------------------------------------
# verification battery


def verify(pan, verbose=True):
    """(failed checks, unmet soft preferences) of every calibration anchor
    on the loaded panel, each number read from `vaxsel replicate`'s functions."""
    checks = []
    soft_failures = []

    def check(label, ok, detail="", soft=False):
        """Record a check; a soft one that fails is only noted."""
        (soft_failures if soft and not ok else checks).append((label, bool(ok), detail))
        if verbose:
            print(f"  [{'ok' if ok else 'soft-fail' if soft else 'FAIL'}] {label} {detail}")

    check("counts 189/133/56", pan.n_records == 189 and (pan.column("started") == 1.0).sum() == 56)
    sp = pan.column("soft_power_30")
    st = pan.column("started")
    check("soft-power started share 26/30", int((sp * st).sum()) == 26 and int(sp.sum()) == 30)

    desc = replicate.descriptive_table(pan)
    for code in ("cases", "gov_eff", "pop_65"):
        (m0, _), (m1, _) = MOMENTS[code]
        m_all, m_no, m_yes = (desc.cell(code, g).value for g in ("all", "not_started", "started"))
        ok = ~np.isnan(pan.column(code))
        pooled = (m0 * (ok & (st == 0)).sum() + m1 * (ok & (st == 1)).sum()) / ok.sum()
        check(f"{code} group means", abs(m_no - m0) < 1e-9 and abs(m_yes - m1) < 1e-9
              and abs(m_all - pooled) < 1e-9, f"all={m_all:.4f}")

    grr = float(np.nanmean(pan.raw["gov_response"]))
    check("gov_response raw mean ~57.2", abs(grr - 57.22) < 0.1, f"{grr:.3f}")
    days = desc.cell("days", "all").value
    check("days mean ~27.11", abs(days - 27.11) < 0.05, f"{days:.3f}")

    # rows: (gov_eff, gov_eff), (gov_eff, gdp_pc_ppp), ...
    corr = replicate.correlation_matrix(pan, ["gov_eff", "gdp_pc_ppp"]).rows[1][2]
    check("corr(gov_eff, gdp_pc_ppp) = 0.83", abs(corr - CORR_TARGET) < 1e-6, f"{corr:.6f}")

    # replicate's tables 2-4; a model that fails to estimate, through a
    # first stage that does not converge too, is a column error there
    tables = replicate.replication_tables(pan)
    selection_rows = {
        ("table2", "model1"): 165, ("table2", "model2"): 187, ("table2", "model3"): 151,
        ("table2", "model4"): 148, ("table2", "model5"): 148,
        ("table3", "model1"): 131, ("table4", "model1"): 162,
    }
    for (table, m), n in selection_rows.items():
        n_sel = tables[table].observations.get(f"{m}:selection")
        check(f"{table} {m} selection rows = {n}", n_sel == n, str(n_sel))
    models = [s.name for s in specs.builtin_specs()]
    for m in models:
        fit = tables["table2"].fits.get(m)
        n_out = len(fit.residuals) if fit else None
        check(f"table2 {m} outcome rows = 56", n_out == 56, str(n_out))
    for table, result in tables.items():
        errors = sorted(set(result.column_errors.values()))
        check(f"{table} every model estimated", not errors, "; ".join(errors))

    # the anchor pattern, each cell held to its rule in specs.ANCHOR_CELLS
    for a in specs.ANCHOR_CELLS:
        label = f"{a.table} {a.model} {a.stage} {a.variable} {a.rule}" + (
            f" t>{a.min_t}" if a.min_t else "")
        cell = tables[a.table].cell(a.variable, f"{a.model}:{a.stage}")
        if cell is None:
            check(label, False, "(not estimated)", a.soft)
            continue
        coef, se, stars = cell.value, cell.spread, cell.stars
        check(label, a.met_by(coef, se, stars),
              f"coef={coef:.3f} se={se:.3f} t={coef / se:.2f} [{stars}]", a.soft)

    # figure-level claims; box rows: group, min, q1, median, q3, max
    box = {row[0]: row[1:] for row in replicate.gdp_boxplot_stats(pan).rows}
    check("gdp boxplot medians ordered", box["started"][2] > box["not_started"][2])
    check("gdp started Q1 vs not-started Q3",
          box["started"][1] >= box["not_started"][3] - 0.5)

    curve = replicate.conditional_start_curve(pan).meta
    slope_t = curve["slope"] / curve["se"]
    check("start-probability slope positive, 1%", curve["slope"] > 0 and slope_t > 2.575829,
          f"t={slope_t:.2f}")

    scatter = replicate.goveff_scatter_fit(pan)
    slope, se = scatter.meta["slope"], scatter.meta["se"]
    check("gov_eff/vac scatter slope positive, 1%", slope > 0 and slope / se > 2.575829,
          f"n={len(scatter.rows)} t={slope / se:.2f}")
    check("scatter has 56 points", len(scatter.rows) == 56)

    failures = [c for c in checks if not c[1]]
    return failures, soft_failures


def candidate_panel(seed, schema):
    """The snapshot built at seed, written to a temporary CSV and loaded back."""
    b = Builder(seed)
    b.build()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "snapshot.csv"
        panel.save_panel(b.raw_panel(schema), path)
        return panel.load_panel(path, schema)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=SEED)
    ap.add_argument("--check-only", action="store_true")
    ap.add_argument("--quiet", action="store_true")
    args = ap.parse_args()

    pan = candidate_panel(args.seed, panel.load_schema(DATA_DIR / "schema.csv"))
    print(f"seed {args.seed}: verifying calibration anchors")
    failures, soft = verify(pan, verbose=not args.quiet)
    for label, _, detail in soft:
        print(f"  note: soft preference unmet: {label} {detail}")
    if failures:
        print(f"FAILED {len(failures)} checks:")
        for label, _, detail in failures:
            print(f"  - {label} {detail}")
        return 1
    if args.check_only:
        print("all checks pass (check-only, nothing written)")
        return 0

    panel.save_panel(pan, DATA_DIR / "snapshot.csv")
    print(f"wrote {DATA_DIR / 'snapshot.csv'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Generate the frozen 189-country snapshot shipped with the package.

The snapshot is synthetic but calibrated: group moments match the
reference descriptive table, the missingness pattern reproduces the
per-model sample sizes, the pooled correlation between government
effectiveness and GDP per capita is pinned exactly, and the latent
outcome process is tuned so the built-in model suite reproduces the
reference sign and significance-star pattern, including the robustness
filters.  Every one of those properties is asserted here against the
real library code paths before a single byte is written.

Usage:
    python scripts/make_snapshot.py [--seed N] [--check-only]

Writes src/vaxsel/data/snapshot.csv, through vaxsel.panel.save_panel so that
a re-save of the loaded panel gives the same bytes, and src/vaxsel/data/schema.yaml.
"""

from __future__ import annotations

import argparse
import sys
from datetime import timedelta
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from vaxsel import heckman, panel, probit, specs  # noqa: E402
from vaxsel.panel import SNAPSHOT_DATE  # noqa: E402

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

SCHEMA_YAML = """\
# Variable schema for the country snapshot: one entry per CSV column
# beyond iso3,name.  transform=log is applied at load time (raw kept
# for audit); binary columns take 0/1 only.
- code: cases
  transform: log
  source_label: Confirmed COVID-19 cases per million population (Our World in Data)
- code: gov_response
  transform: log
  source_label: Average daily government response index since the first case (Oxford tracker)
- code: days
  transform: none
  source_label: Days between first vaccination and the snapshot date
- code: gdp
  transform: log
  source_label: GDP at purchaser's prices, current USD (World Bank WDI)
- code: gdp_pc_ppp
  transform: log
  source_label: GDP per capita, PPP, current international dollars (World Bank WDI)
- code: exports
  transform: log
  source_label: Exports of goods and services, percent of GDP (World Bank WDI)
- code: health_exp
  transform: log
  source_label: Current health expenditure, percent of GDP (World Bank WDI)
- code: military_exp
  transform: log
  source_label: Military expenditure, percent of GDP (World Bank WDI / SIPRI)
- code: gov_eff
  transform: none
  source_label: Government effectiveness indicator (World Bank WGI)
- code: pop_65
  transform: log
  source_label: Population ages 65 and above, percent of total (World Bank WDI)
- code: soft_power_30
  transform: binary
  source_label: Membership in the Soft Power 30 ranking
- code: started
  transform: binary
  source_label: Whether vaccination started by the snapshot date (Our World in Data)
- code: vac_php
  transform: log
  source_label: Vaccination doses administered per hundred people (Our World in Data)
- code: west
  transform: binary
  source_label: Western-block vaccine present in the country
- code: china
  transform: binary
  source_label: Chinese vaccine present in the country
- code: russia
  transform: binary
  source_label: Russian vaccine present in the country
"""


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
        self.raw_override = {}  # code -> {iso: raw value} for audit rows

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
        """Countries removed by the table-3 percentile filter bands in
        order, computed with the library quantile convention."""
        keep = np.ones(self.n, dtype=bool)
        for code, (low_p, high_p) in TABLE3_BANDS.items():
            col = self.cols[code]
            present = keep & ~np.isnan(col)
            lo = panel.quantile(col[present], low_p)
            hi = panel.quantile(col[present], high_p)
            keep &= np.isnan(col) | ((col >= lo) & (col <= hi))
        return set(self.iso[~keep])

    # ----- serialization -----

    def csv_text(self):
        codes = [
            "cases", "gov_response", "days", "gdp", "gdp_pc_ppp", "exports",
            "health_exp", "military_exp", "gov_eff", "pop_65",
            "soft_power_30", "started", "vac_php", "west", "china", "russia",
        ]
        log_codes = {
            "cases", "gdp", "gdp_pc_ppp", "exports", "health_exp",
            "military_exp", "pop_65", "vac_php",
        }
        lines = [",".join(["iso3", "name"] + codes)]
        for i in range(self.n):
            iso3 = self.iso[i]
            name = self.name[iso3]
            if "," in name:
                name = f'"{name}"'
            cells = [iso3, name]
            for code in codes:
                v = self.cols[code][i]
                if code == "military_exp" and iso3 in self.military_zero:
                    v = 0.0
                elif code == "gov_response" and not np.isnan(v):
                    v = self.gov_resp_raw[i]
                elif code in log_codes:
                    v = np.exp(v)
                cells.append("" if np.isnan(v) else panel.format_number(float(v)))
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# verification battery


def stars_of(fit, stage, var):
    if stage == "outcome":
        j = fit.outcome_labels.index(var)
        coef = float(fit.outcome_coef[j])
        se = float(np.sqrt(fit.outcome_vcov[j, j]))
    else:
        j = fit.first_stage.labels.index(var)
        coef = float(fit.first_stage.coef[j])
        se = float(np.sqrt(fit.selection_vcov[j, j]))
    return coef, se, heckman.significance_stars(coef, se)


def verify(pan, verbose=True):
    """Assert every calibration anchor against the loaded panel."""
    checks = []

    def check(label, ok, detail=""):
        checks.append((label, bool(ok), detail))
        if verbose:
            print(f"  [{'ok' if ok else 'FAIL'}] {label} {detail}")
        return ok

    check("counts 189/133/56", pan.n_records == 189 and pan.n_started == 56)
    sp = pan.column("soft_power_30")
    st = pan.column("started")
    check("soft-power started share 26/30", int((sp * st).sum()) == 26 and int(sp.sum()) == 30)

    for code, col_idx in (("cases", 0), ("gov_eff", 0), ("pop_65", 0)):
        col = pan.column(code)
        (m0, s0), (m1, s1) = MOMENTS[code]
        ok = ~np.isnan(col)
        m_all = col[ok].mean()
        m_no = col[ok & (st == 0)].mean()
        m_yes = col[ok & (st == 1)].mean()
        pooled = (m0 * (ok & (st == 0)).sum() + m1 * (ok & (st == 1)).sum()) / ok.sum()
        check(
            f"{code} group means",
            abs(m_no - m0) < 1e-9 and abs(m_yes - m1) < 1e-9 and abs(m_all - pooled) < 1e-9,
            f"all={m_all:.4f}",
        )

    grr = pan.raw_column("gov_response")
    check("gov_response raw mean ~57.2", abs(np.nanmean(grr) - 57.22) < 0.1,
          f"{np.nanmean(grr):.3f}")
    d = pan.column("days")
    check("days mean ~27.11", abs(np.nanmean(d) - 27.11) < 0.05, f"{np.nanmean(d):.3f}")

    ge, gp = pan.column("gov_eff"), pan.column("gdp_pc_ppp")
    ok = ~np.isnan(ge) & ~np.isnan(gp)
    corr = float(np.corrcoef(ge[ok], gp[ok])[0, 1])
    check("corr(gov_eff, gdp_pc_ppp) = 0.83", abs(corr - CORR_TARGET) < 1e-6, f"{corr:.6f}")

    # per-model sample sizes
    model_specs = specs.builtin_specs()
    frames = {s.name: panel.build_model_frame(pan, s) for s in model_specs}
    expected_n = {"model1": 165, "model2": 187, "model3": 151, "model4": 148, "model5": 148}
    for name, n in expected_n.items():
        check(f"{name} selection rows = {n}", frames[name].n_selection_rows == n,
              str(frames[name].n_selection_rows))
        check(f"{name} outcome rows = 56", frames[name].n_outcome_rows == 56,
              str(frames[name].n_outcome_rows))

    fits = {name: heckman.fit_two_step(fr) for name, fr in frames.items()}
    for name, fit in fits.items():
        check(f"{name} first stage converged", fit.first_stage.converged)

    soft_failures = []

    def expect(table, fit, stage, var, sign, stars_req, label, soft=False):
        coef, se, stars = stars_of(fit, stage, var)
        ok = (coef > 0) if sign == "+" else True
        if stars_req == "***":
            ok = ok and stars == "***"
        elif stars_req == "**+":
            ok = ok and stars in ("**", "***")
        elif stars_req == "ns":
            # no sign requirement on a noise-level coefficient, and keep a
            # margin below the 10% threshold so the pattern is draw-robust
            ok = abs(coef / se) < 1.4
        t = coef / se
        detail = f"coef={coef:.3f} se={se:.3f} t={t:.2f} [{stars}]"
        if soft:
            if not ok:
                soft_failures.append((f"{table} {label}", detail))
            if verbose:
                print(f"  [{'ok' if ok else 'soft-fail'}] {table} {label} {detail}")
        else:
            check(f"{table} {label}", ok, detail)

    for m in ("model1", "model2", "model3", "model4"):
        expect("table2", fits[m], "selection", "cases", "+", "***", f"{m} sel cases ***")
    c, s, _ = stars_of(fits["model5"], "selection", "cases")
    check("table2 model5 sel cases positive", c > 0, f"coef={c:.3f} t={c / s:.2f}")
    expect("table2", fits["model2"], "selection", "soft_power_30", "+", "***", "m2 sel sp30 ***")
    expect("table2", fits["model3"], "selection", "soft_power_30", "+", "***", "m3 sel sp30 ***")
    expect("table2", fits["model4"], "selection", "soft_power_30", "+", "**+", "m4 sel sp30 sig")
    expect("table2", fits["model5"], "selection", "soft_power_30", "+", "**+", "m5 sel sp30 sig")
    expect("table2", fits["model4"], "selection", "gdp", "+", "***", "m4 sel gdp ***")
    expect("table2", fits["model5"], "selection", "gdp_pc_ppp", "+", "***", "m5 sel gdp_pc ***")
    for m in ("model1", "model2", "model3", "model4", "model5"):
        c, s_, stars = stars_of(fits[m], "outcome", "days")
        check(f"table2 {m} out days *** with margin",
              c > 0 and stars == "***" and c / s_ > 2.9,
              f"coef={c:.3f} se={s_:.3f} t={c / s_:.2f} [{stars}]")
    expect("table2", fits["model2"], "outcome", "gov_eff", "+", "***", "m2 out gov_eff ***")
    expect("table2", fits["model4"], "outcome", "gov_eff", "+", "***", "m4 out gov_eff ***")
    expect("table2", fits["model5"], "outcome", "gov_eff", "any", "ns", "m5 out gov_eff ns")
    expect(
        "table2", fits["model5"], "outcome", "gdp_pc_ppp", "any", "ns",
        "m5 out gdp_pc ns", soft=True,
    )

    # robustness suites
    t3_panel = specs.apply_outlier_filter(pan, "table3")
    t4_panel = specs.apply_outlier_filter(pan, "table4")
    f3 = {s.name: heckman.fit_two_step(panel.build_model_frame(t3_panel, s))
          for s in model_specs[:4]}
    f4 = {s.name: heckman.fit_two_step(panel.build_model_frame(t4_panel, s))
          for s in model_specs[:4]}
    check("table3 model1 selection rows = 131",
          panel.build_model_frame(t3_panel, model_specs[0]).n_selection_rows == 131,
          str(panel.build_model_frame(t3_panel, model_specs[0]).n_selection_rows))
    check("table4 model1 selection rows = 162",
          panel.build_model_frame(t4_panel, model_specs[0]).n_selection_rows == 162,
          str(panel.build_model_frame(t4_panel, model_specs[0]).n_selection_rows))

    for m in ("model2", "model4"):
        c, s_, stars = stars_of(f3[m], "outcome", "gov_eff")
        check(f"table3 {m} out gov_eff *** with margin",
              c > 0 and stars == "***" and c / s_ > 2.75,
              f"coef={c:.3f} se={s_:.3f} t={c / s_:.2f} [{stars}]")
    expect("table3", f3["model2"], "selection", "soft_power_30", "+", "***", "m2 sel sp30 ***")
    for m in ("model3", "model4"):
        c, s, _ = stars_of(f3[m], "selection", "soft_power_30")
        check(f"table3 {m} sel sp30 positive", c > 0, f"coef={c:.3f} t={c / s:.2f}")
    expect("table4", f4["model2"], "outcome", "gov_eff", "+", "***", "m2 out gov_eff ***")
    expect("table4", f4["model4"], "outcome", "gov_eff", "+", "**+", "m4 out gov_eff sig")
    for m in ("model2", "model3", "model4"):
        c, s, _ = stars_of(f4[m], "selection", "soft_power_30")
        check(f"table4 {m} sel sp30 positive", c > 0, f"coef={c:.3f} t={c / s:.2f}")

    # figure-level claims
    gdp = pan.column("gdp")
    g1 = gdp[(st == 1) & ~np.isnan(gdp)]
    g0 = gdp[(st == 0) & ~np.isnan(gdp)]
    check("gdp boxplot medians ordered", np.median(g1) > np.median(g0))
    check("gdp started Q1 vs not-started Q3",
          panel.quantile(g1, 0.25) >= panel.quantile(g0, 0.75) - 0.5)

    ok = ~np.isnan(gdp)
    pf = probit.fit(st[ok], np.column_stack([gdp[ok], np.ones(int(ok.sum()))]))
    slope_t = pf.coef[0] / np.sqrt(pf.vcov[0, 0])
    check("start-probability slope positive, 1%", pf.coef[0] > 0 and slope_t > 2.575829,
          f"t={slope_t:.2f}")

    vac = pan.column("vac_php")
    sel = (st == 1) & ~np.isnan(vac) & ~np.isnan(ge)
    X = np.column_stack([ge[sel], np.ones(int(sel.sum()))])
    coef, resid = heckman.ols(vac[sel], X)
    dof = int(sel.sum()) - 2
    s2 = resid @ resid / dof
    se = float(np.sqrt(s2 * np.linalg.inv(X.T @ X)[0, 0]))
    check("gov_eff/vac scatter slope positive, 1%",
          coef[0] > 0 and coef[0] / se > 2.575829,
          f"n={int(sel.sum())} t={coef[0] / se:.2f}")
    check("scatter has 56 points", int(sel.sum()) == 56)

    failures = [c for c in checks if not c[1]]
    return failures, soft_failures


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=SEED)
    ap.add_argument("--check-only", action="store_true")
    ap.add_argument("--quiet", action="store_true")
    args = ap.parse_args()

    b = Builder(args.seed)
    b.build()
    csv_text = b.csv_text()

    tmp = REPO / "scripts" / ".snapshot_candidate.csv"
    tmp.write_text(csv_text, encoding="utf-8")
    schema_path = REPO / "scripts" / ".schema_candidate.yaml"
    schema_path.write_text(SCHEMA_YAML, encoding="utf-8")
    schema = panel.load_schema(schema_path)
    pan = panel.load_panel(tmp, schema)

    print(f"seed {args.seed}: verifying calibration anchors")
    failures, soft = verify(pan, verbose=not args.quiet)
    tmp.unlink()
    schema_path.unlink()
    for label, detail in soft:
        print(f"  note: soft preference unmet: {label} {detail}")
    if failures:
        print(f"FAILED {len(failures)} checks:")
        for label, _, detail in failures:
            print(f"  - {label} {detail}")
        return 1
    if args.check_only:
        print("all checks pass (check-only, nothing written)")
        return 0

    data_dir = REPO / "src" / "vaxsel" / "data"
    data_dir.mkdir(parents=True, exist_ok=True)
    panel.save_panel(pan, data_dir / "snapshot.csv")
    (data_dir / "schema.yaml").write_text(SCHEMA_YAML, encoding="utf-8")
    print(f"wrote {data_dir / 'snapshot.csv'} and schema.yaml")
    return 0


if __name__ == "__main__":
    sys.exit(main())

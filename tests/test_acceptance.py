"""Acceptance suite: every criterion at its stated tolerance.

Each test exercises one acceptance criterion end to end and prints a
single PASS line (visible under pytest -s or on failure).  Run with:

    pytest tests/test_acceptance.py -v -s
"""

import hashlib
import math
import time

import numpy as np
import pytest

from vaxsel import heckman, probit, render, replicate, specs, synth
from vaxsel.cli import main
from vaxsel.panel import filter_percentile
from vaxsel.stdnorm import inverse_mills, inverse_mills_delta, log_normal_cdf, normal_cdf


def report(n, text):
    print(f"[criterion {n}] PASS: {text}")


def test_criterion_1_monte_carlo_recovery():
    """Parameter recovery: bias below 0.05 and corrected-covariance
    coverage inside [0.93, 0.97] for every outcome slope and the Mills
    coefficient, 200 replications of n=2000 in under 60 seconds."""
    config = synth.DgpConfig(
        selection_coef=(1.0, -0.5, 1.0, 0.0),  # selection intercept 0, one instrument
        outcome_coef=(1.0, 0.5, 1.0),
        rho=0.5,
        sigma_u=1.0,
        n=2000,
        seed=5,
    )
    t0 = time.monotonic()
    rep = synth.monte_carlo(config, 200, vcov_variant=heckman.HECKMAN_CORRECTED)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s"
    assert rep.reps_failed == 0
    checked = []
    for name in ("x1", "x2", "imr_lambda"):
        p = rep.parameter(name)
        assert abs(p.mean_bias) < 0.05, f"{name} bias {p.mean_bias:+.4f}"
        assert 0.93 <= p.coverage <= 0.97, f"{name} coverage {p.coverage:.3f}"
        checked.append(f"{name} bias {p.mean_bias:+.3f} cov {p.coverage:.3f}")
    assert abs(rep.parameter("const").mean_bias) < 0.05
    report(1, f"recovery in {elapsed:.1f}s: " + "; ".join(checked))


def test_criterion_2_probit_correctness():
    """Intercept MLE, fixture-vs-grid-search oracle, analytic score."""
    # intercept-only MLE equals the normal quantile of the mean
    y = np.array([1.0, 1.0, 1.0, 0.0] * 25)
    fit = probit.fit(y, np.ones((100, 1)))
    assert abs(fit.coef[0] - 0.6744897501960817) < 1e-8

    # 6-point fixture against an independent grid-search oracle
    X = np.column_stack([np.ones(6), np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])])
    yf = np.array([0.0, 0.0, 1.0, 0.0, 1.0, 1.0])

    def oracle_ll(a, b):
        total = 0.0
        for yi, xi in zip(yf, X):
            p = normal_cdf(a * xi[0] + b * xi[1])
            q = p if yi == 1 else 1.0 - p
            total += math.log(q) if q > 0 else -math.inf
        return total

    best = (-math.inf, 0.0, 0.0)
    for a in np.linspace(-5, 5, 201):
        for b in np.linspace(-5, 5, 201):
            ll = oracle_ll(a, b)
            if ll > best[0]:
                best = (ll, a, b)
    _, a, b = best
    width = 0.05
    for _ in range(10):
        for ai in np.linspace(a - width, a + width, 21):
            for bi in np.linspace(b - width, b + width, 21):
                ll = oracle_ll(ai, bi)
                if ll > best[0]:
                    best = (ll, ai, bi)
        _, a, b = best
        width /= 10
    fitf = probit.fit(yf, X)
    assert abs(fitf.coef[0] - a) < 1e-4 and abs(fitf.coef[1] - b) < 1e-4

    # analytic score against central differences on 100 random points
    rng = np.random.default_rng(2)
    Xr = np.column_stack([np.ones(50), rng.normal(size=(50, 2))])
    yr = (rng.uniform(size=50) < 0.5).astype(float)
    h = 1e-6
    for _ in range(100):
        coef = rng.uniform(-1.5, 1.5, size=3)
        g = probit.score(coef, yr, Xr)
        for j in range(3):
            e = np.zeros(3)
            e[j] = h
            fd = (probit.loglik(coef + e, yr, Xr) - probit.loglik(coef - e, yr, Xr)) / (2 * h)
            assert abs(fd - g[j]) <= 1e-6 * max(1.0, abs(g[j]))
    report(2, "intercept MLE 1e-8, fixture vs grid oracle 1e-4, score vs FD 1e-6")


def test_criterion_3_numerics():
    """Mills-ratio bounds, derivative identity, deep-tail log cdf."""
    zs = np.linspace(-30.0, 30.0, 6001)
    lam = inverse_mills(zs)
    assert np.all(lam > 0.0)
    assert np.all(lam > -zs)
    h = 1e-5
    fd = (inverse_mills(zs + h) - inverse_mills(zs - h)) / (2 * h)
    delta = inverse_mills_delta(zs)
    rel = np.abs(fd + delta) / np.abs(delta)
    assert np.max(rel) < 1e-6

    got = log_normal_cdf(-30.0)
    assert math.isfinite(got)
    # independent asymptotic-series oracle
    z = -30.0
    u = 1.0 / (z * z)
    total, term, k = 0.0, 1.0, 0
    while True:
        k += 1
        new = term * -(2 * k - 1) * u
        if abs(new) >= abs(term):
            break
        term = new
        total += term
        if abs(term) < 1e-25:
            break
    oracle = -0.5 * z * z - math.log(-z * math.sqrt(2 * math.pi)) + math.log1p(total)
    assert abs(got - oracle) / abs(oracle) < 1e-9
    report(3, "lambda bounds + derivative identity on [-30,30]; log cdf(-30) to 1e-9")


def test_criterion_4_snapshot_descriptives(snapshot):
    """Counts 189/133/56, reference means within 0.05, soft-power share."""
    t0 = time.monotonic()
    table = replicate.descriptive_table(snapshot)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    assert table.observations == {"all": 189, "not_started": 133, "started": 56}
    targets = {
        ("cases", "all"): 8.47, ("cases", "not_started"): 7.75, ("cases", "started"): 10.21,
        ("gov_eff", "all"): -0.05, ("gov_eff", "not_started"): -0.43,
        ("gov_eff", "started"): 0.83,
        ("pop_65", "all"): 0.55, ("pop_65", "not_started"): 0.41,
        ("pop_65", "started"): 0.86,
    }
    for key, want in targets.items():
        assert abs(table.cells[key].value - want) <= 0.05, (key, table.cells[key].value)
    sp = snapshot.column("soft_power_30")
    started = snapshot.column("started")
    assert int(sp.sum()) == 30 and int((sp * started).sum()) == 26
    report(4, f"counts 189/133/56, means within 0.05, soft-power share 26/30 ({elapsed:.2f}s)")


def unmet_anchors(tables, table_ids):
    """(anchor, cell) of each anchor of the tables named that is missing or, not
    being soft, misses its rule in specs.ANCHOR_CELLS, read at call time."""
    unmet = []
    for a in specs.ANCHOR_CELLS:
        if a.table in table_ids:
            cell = tables[a.table].cell(a.variable, f"{a.model}:{a.stage}")
            if cell is None or not (a.soft or a.met_by(cell.value, cell.spread, cell.stars)):
                unmet.append((a, cell))
    return unmet


@pytest.fixture(scope="module")
def tables(snapshot):
    return replicate.replication_tables(snapshot)


def test_criterion_5_table2_pattern(tables):
    """Sign and star pattern of the table-2 anchor cells; diff report lists the
    reference value beside the computed value for every anchor."""
    assert unmet_anchors(tables, ("table2",)) == []
    diff = render.render_replication_diff(replicate.replication_diff(tables))
    for a in specs.ANCHOR_CELLS:
        reference = f"{render.round3(a.ref_coef)}{a.ref_stars} ({render.round3(a.ref_se)})"
        assert f"| {a.table} | {a.model} | {a.stage} | {a.variable} | {reference} |" in diff
    report(5, "table2 sign/star pattern holds; diff report covers all anchor cells")


def test_criterion_6_robustness_suites(snapshot, tables):
    """Outlier suites preserve the patterns; identity filters change nothing."""
    assert unmet_anchors(tables, ("table3", "table4")) == []

    base = replicate.run_model_suite(snapshot)
    same = filter_percentile(
        filter_percentile(snapshot, "gov_eff", 0.0, 1.0), "vac_php", 0.0, 1.0
    )
    identical = replicate.run_model_suite(same)
    assert render.render_table_csv(identical) == render.render_table_csv(base)
    report(6, "outlier suites keep gov_eff/soft-power patterns; identity filter is a no-op")


def _tree_digest(root):
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file():
            out[str(p.relative_to(root))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


def test_criterion_7_determinism(tmp_path):
    """Byte-identical output trees for identical invocations."""
    r1, r2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["replicate", "--out", str(r1)]) == 0
    assert main(["replicate", "--out", str(r2)]) == 0
    assert _tree_digest(r1) == _tree_digest(r2)

    s1, s2 = tmp_path / "s1", tmp_path / "s2"
    args = ["simulate", "--rho", "0.5", "--n", "2000", "--reps", "60", "--seed", "7"]
    assert main(args + ["--out", str(s1)]) == 0
    assert main(args + ["--out", str(s2)]) == 0
    assert _tree_digest(s1) == _tree_digest(s2)
    report(7, "replicate and simulate --seed 7 both byte-identical across reruns")


def test_criterion_8_correlation_anchor(snapshot):
    """Pairwise correlation of governance and income per head near 0.83."""
    fig = replicate.correlation_matrix(snapshot, ["gov_eff", "gdp_pc_ppp"])
    lookup = {(a, b): v for a, b, v in fig.rows}
    got = lookup[("gov_eff", "gdp_pc_ppp")]
    assert abs(got - 0.83) <= 0.03
    report(8, f"corr(gov_eff, gdp_pc_ppp) = {got:.4f} within 0.83 +- 0.03")

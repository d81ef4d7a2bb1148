#!/usr/bin/env python3
"""Show the selection bias the two-step estimator removes.

Draws replications from the latent-offer process at several error
correlations and compares naive least squares on the selected rows with
the two-step estimates: the naive slope drifts with rho while the
corrected slope stays on the truth.  The process is the simulate
subcommand's default one (cli.SIM_SELECTION_COEF and SIM_OUTCOME_COEF).  Each replication is drawn and fitted
on its own, through the one-sample cases of the stacked Monte Carlo code:
synth.generate draws one replication's sample, and fit_two_step runs the second
stage on a stack of one sample.

Usage:
    python scripts/selection_bias_demo.py [--n 2000] [--reps 200] [--seed 5]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from vaxsel import cli, heckman, synth  # noqa: E402

TRUE_SLOPE = cli.SIM_OUTCOME_COEF[0]


def run(rho, n, reps, seed):
    config = synth.DgpConfig(
        selection_coef=cli.SIM_SELECTION_COEF,
        outcome_coef=cli.SIM_OUTCOME_COEF,
        rho=rho,
        sigma_u=1.0,
        n=n,
        seed=seed,
    )
    naive, corrected = [], []
    for rep in range(reps):
        sample = synth.generate(config, rep)
        fit = heckman.fit_two_step(sample.frame)
        ols_coef, _ = heckman.ols(sample.frame.outcome_y, sample.frame.outcome_X)
        naive.append(ols_coef[0])
        corrected.append(fit.outcome_coef[0])
    return np.mean(naive) - TRUE_SLOPE, np.mean(corrected) - TRUE_SLOPE


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=2000)
    ap.add_argument("--reps", type=int, default=200)
    ap.add_argument("--seed", type=int, default=5)
    args = ap.parse_args()

    print(f"n={args.n}, reps={args.reps}, true slope {TRUE_SLOPE}")
    print(f"{'rho':>6} {'naive bias':>12} {'two-step bias':>14}")
    for rho in (0.0, 0.25, 0.5, 0.75):
        nb, cb = run(rho, args.n, args.reps, args.seed)
        print(f"{rho:6.2f} {nb:12.4f} {cb:14.4f}")


if __name__ == "__main__":
    main()

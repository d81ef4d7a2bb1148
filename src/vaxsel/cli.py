"""Command-line front end: reproducible runs from CSV snapshot to outputs.

Five subcommands: describe, fit, replicate, simulate, figures.  Each
command computes its whole output tree as {relative path: text}, and main
alone writes it: every file into a stage directory inside --out, then each
renamed into place.  So a failed run changes no file under --out (one that
fails before writing creates no --out), files the run does not write are
kept, and file modes follow the umask.  Progress and
diagnostics go to stderr; exit status is 0 on success, 1 on data,
estimation, file-system or out-of-memory errors, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import shutil
import sys
import tempfile
from importlib import resources
from pathlib import Path

from vaxsel import heckman, render, replicate, synth
from vaxsel.panel import PanelError, load_panel, load_schema
from vaxsel.specs import OUTLIER_FILTERS, apply_outlier_filter, builtin_specs

VCOV_BY_FLAG = {"robust": heckman.PLAIN_ROBUST, "heckman": heckman.HECKMAN_CORRECTED}

# defaults for the simulate subcommand's data-generating process:
# two shared covariates, one excluded instrument, intercepts 0 and 1
SIM_SELECTION_COEF = (1.0, -0.5, 1.0, 0.0)
SIM_OUTCOME_COEF = (1.0, 0.5, 1.0)


def _packaged(name):
    return resources.files("vaxsel").joinpath("data").joinpath(name)


def _progress(message):
    print(message, file=sys.stderr)


def _grid_points(text):
    try:
        points = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"grid needs an integer, got {text!r}") from None
    if points < 2:
        raise argparse.ArgumentTypeError(f"grid needs at least 2 points, got {points}")
    return points


def _add_data_args(p):
    p.add_argument("--data", default=None,
                   help="panel CSV (default: built-in snapshot)")
    p.add_argument("--schema", default=None,
                   help="variable schema CSV (default: built-in schema)")
    p.add_argument("--out", required=True, help="output directory")


def _load(args):
    schema = load_schema(args.schema or _packaged("schema.csv"))
    return load_panel(args.data or _packaged("snapshot.csv"), schema)


def _selected_specs(model):
    specs = builtin_specs()
    if model == "all":
        return specs
    return [specs[int(model) - 1]]


def _output_files(tables, figures=()):
    """{relative path: text} of tables ({stem: TableResult}) and figures."""
    files = {}
    for stem, table in tables.items():
        files[f"tables/{stem}.md"] = render.render_table_markdown(table)
        files[f"tables/{stem}.csv"] = render.render_table_csv(table)
    for fig in figures:
        files[f"figures/{fig.figure_id}.csv"] = render.render_figure_csv(fig)
        files[f"figures/{fig.figure_id}.svg"] = render.render_figure_svg(fig)
    return files


# each cmd_* returns its files and the end of its last progress line


def cmd_describe(args):
    return _output_files({"table1": replicate.descriptive_table(_load(args))}), "wrote table1"


def cmd_fit(args):
    panel = apply_outlier_filter(_load(args), args.filter)
    table = replicate.run_model_suite(panel, _selected_specs(args.model), VCOV_BY_FLAG[args.vcov])
    return _output_files({f"fit_{args.model}": table}), f"wrote fit_{args.model}"


def cmd_replicate(args):
    panel = _load(args)
    _progress("replicate: descriptive table")
    table1 = replicate.descriptive_table(panel)
    _progress("replicate: estimation and robustness suites")
    tables = replicate.replication_tables(panel, VCOV_BY_FLAG[args.vcov])
    _progress("replicate: figures")
    figures = replicate.all_figures(panel, grid_points=args.grid)
    _progress("replicate: diff report")
    files = _output_files({"table1": table1, **tables}, figures)
    files["report/replication_diff.md"] = render.render_replication_diff(
        replicate.replication_diff(tables))
    files["report/audit.log"] = "".join(line + "\n" for line in panel.audit)
    return files, "output tree complete"


def cmd_figures(args):
    figures = replicate.all_figures(_load(args), grid_points=args.grid)
    return _output_files({}, figures), "wrote figure data and svg"


def cmd_simulate(args):
    config = synth.DgpConfig(
        selection_coef=SIM_SELECTION_COEF,
        outcome_coef=SIM_OUTCOME_COEF,
        rho=args.rho,
        sigma_u=args.sigma_u,
        n=args.n,
        seed=args.seed,
    )
    _progress(f"simulate: {args.reps} replications at n={args.n}, rho={args.rho}")
    report = synth.monte_carlo(config, args.reps, vcov_variant=VCOV_BY_FLAG[args.vcov])
    if report.reps_failed:
        tally = ", ".join(f"{name} {count}" for name, count in report.failures.items())
        _progress(f"simulate: {report.reps_failed} replications failed ({tally})")
    files = {"recovery.csv": render.render_recovery_csv(report),
             "recovery.md": render.render_recovery_markdown(report)}
    return files, "wrote recovery report"


@functools.cache  # built once per process and shared by every main call: never change it
def build_parser():
    parser = argparse.ArgumentParser(
        prog="vaxsel",
        description="Selection-model toolkit for cross-country vaccination rollout data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("describe", help="descriptive statistics table")
    _add_data_args(p)
    p.set_defaults(func=cmd_describe)

    p = sub.add_parser("fit", help="fit one or all model specifications")
    _add_data_args(p)
    p.add_argument("--model", default="all", choices=["1", "2", "3", "4", "5", "all"],
                   help="model specification to fit (default: all)")
    p.add_argument("--vcov", default="robust", choices=["robust", "heckman"],
                   help="second-stage covariance (default: robust)")
    p.add_argument("--filter", default="none", choices=list(OUTLIER_FILTERS),
                   help="outlier filter applied before fitting (default: none)")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("replicate", help="full run: tables, figures, diff report")
    _add_data_args(p)
    p.add_argument("--vcov", default="robust", choices=["robust", "heckman"],
                   help="second-stage covariance (default: robust)")
    p.add_argument("--grid", type=_grid_points, default=100,
                   help="grid resolution for the start-probability curve (default: 100)")
    p.set_defaults(func=cmd_replicate)

    p = sub.add_parser("figures", help="figure data and svg renderings only")
    _add_data_args(p)
    p.add_argument("--grid", type=_grid_points, default=100,
                   help="grid resolution for the start-probability curve (default: 100)")
    p.set_defaults(func=cmd_figures)

    p = sub.add_parser("simulate", help="Monte Carlo parameter-recovery report")
    # argparse reads "-1e-05", the repr of a small negative float, as an option
    p._negative_number_matcher = re.compile(r"-(\d*\.?\d+|\d+\.)(e[-+]?\d+)?$|-(inf|nan)$")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--rho", type=float, default=0.5,
                   help="error correlation of the generating process (default: 0.5)")
    p.add_argument("--sigma-u", type=float, default=1.0, dest="sigma_u",
                   help="outcome error scale (default: 1.0)")
    p.add_argument("--n", type=int, default=2000,
                   help="sample size per replication (default: 2000)")
    p.add_argument("--reps", type=int, default=200,
                   help="number of replications (default: 200)")
    p.add_argument("--seed", type=int, default=5,
                   help="base seed for the replication streams (default: 5)")
    p.add_argument("--vcov", default="heckman", choices=["robust", "heckman"],
                   help="covariance for the coverage intervals (default: heckman)")
    p.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    out = Path(args.out)
    try:
        files, done = args.func(args)
        out.mkdir(parents=True, exist_ok=True)
        stage = Path(tempfile.mkdtemp(dir=out, prefix=".stage-"))
        try:  # a failed write leaves the old tree: nothing is renamed until every file is staged
            for name, text in files.items():
                render.write_text_atomic(stage / name, text)
            for name in files:
                (out / name).parent.mkdir(parents=True, exist_ok=True)
                os.replace(stage / name, out / name)
        finally:
            shutil.rmtree(stage, ignore_errors=True)
    except (*heckman.ESTIMATION_ERRORS, PanelError, synth.WorkerError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    _progress(f"{args.command}: {done} under {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

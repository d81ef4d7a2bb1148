"""Which vaxsel functions the traced run wraps, and the per-layer metrics.

Layers are the modules of src/vaxsel.  Every metric is computed per
operation from that operation's spans; the run reports the median over
its traced operations.  Counts repeat exactly from one operation to the
next, so their median is the per-operation count.
"""

from __future__ import annotations

import hashlib
import importlib

import numpy as np

from spans import self_times

STDNORM = ("normal_pdf", "normal_cdf", "log_normal_cdf", "inverse_mills", "inverse_mills_delta")
RENDER_FORMAT = ("render_table_markdown", "render_table_csv", "render_figure_csv",
                 "render_figure_svg")
LOADERS = ("panel.load_schema", "panel.load_panel")
VCOV = ("heckman.plain_robust_vcov", "heckman.heckman_corrected_vcov")
BYTES_PER_ELEMENT = 16  # one float64 read and one written


def _elements(span, args, kwargs):
    span.attrs = {"elements": int(np.size(args[0]))}


def _frame_digest(span, args, kwargs):
    frame = args[0] if args else kwargs["frame"]
    h = hashlib.blake2b(digest_size=16)
    for arr in (frame.selection_y, frame.selection_X, frame.outcome_y, frame.outcome_X,
                frame.outcome_keep):
        a = np.ascontiguousarray(arr)
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    span.attrs = {"frame": h.hexdigest()}


def _probit_fit(span, fit):
    span.attrs = {"iterations": int(fit.iterations), "accepted": len(fit.loglik_path) - 1}


def _text_bytes(span, args, kwargs):
    text = args[1] if len(args) > 1 else kwargs["text"]
    span.attrs = {"bytes": len(text.encode("utf-8"))}


def _recovery(span, report):
    span.attrs = {"reps": int(report.reps_requested), "reps_failed": int(report.reps_failed)}


# (span name, module, attribute, hook before the call, hook on the result)
TARGETS = (
    ("cli.main", "vaxsel.cli", "main", None, None),
    ("panel.load_schema", "vaxsel.panel", "load_schema", None, None),
    ("panel.load_panel", "vaxsel.panel", "load_panel", None, None),
    ("panel.column", "vaxsel.panel", "Panel.column", None, None),
    ("panel.build_model_frame", "vaxsel.panel", "build_model_frame", None, None),
    ("panel.filter_percentile", "vaxsel.panel", "filter_percentile", None, None),
    ("specs.builtin_specs", "vaxsel.specs", "builtin_specs", None, None),
    ("replicate.run_model_suite", "vaxsel.replicate", "run_model_suite", None, None),
    ("replicate.descriptive_table", "vaxsel.replicate", "descriptive_table", None, None),
    ("replicate.all_figures", "vaxsel.replicate", "all_figures", None, None),
    ("replicate.replication_diff", "vaxsel.replicate", "replication_diff", None, None),
    ("heckman.fit_two_step", "vaxsel.heckman", "fit_two_step", _frame_digest, None),
    ("heckman.plain_robust_vcov", "vaxsel.heckman", "plain_robust_vcov", None, None),
    ("heckman.heckman_corrected_vcov", "vaxsel.heckman", "heckman_corrected_vcov", None, None),
    ("heckman.ols", "vaxsel.heckman", "ols", None, None),
    ("probit.fit", "vaxsel.probit", "fit", None, _probit_fit),
    ("probit.loglik", "vaxsel.probit", "loglik", None, None),
    ("probit.score", "vaxsel.probit", "score", None, None),
    ("probit.hessian", "vaxsel.probit", "hessian", None, None),
    ("probit.sandwich_vcov", "vaxsel.probit", "sandwich_vcov", None, None),
    *((f"stdnorm.{f}", "vaxsel.stdnorm", f, _elements, None) for f in STDNORM),
    ("synth.monte_carlo", "vaxsel.synth", "monte_carlo", None, _recovery),
    ("render.write_text_atomic", "vaxsel.render", "write_text_atomic", _text_bytes, None),
    *((f"render.{f}", "vaxsel.render", f, None, None) for f in RENDER_FORMAT),
)


def resolve(module, attribute):
    """(owner class or None, original function) for a TARGETS entry."""
    obj = importlib.import_module(module)
    owner = None
    for part in attribute.split("."):
        owner, obj = obj, getattr(obj, part)
    return (owner if isinstance(owner, type) else None), obj


def install(tracer):
    """Wrap every target; returns [(module, attribute, original)] for checks."""
    originals = []
    for name, module, attribute, before, after in TARGETS:
        owner, fn = resolve(module, attribute)
        tracer.install(name, fn, before=before, after=after, owner=owner)
        originals.append((module, attribute, fn))
    return originals


def op_metrics(spans) -> dict:
    """Per-layer metrics of one operation's spans."""
    own = self_times(spans)
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def calls(*names):
        return sum(len(by_name.get(n, ())) for n in names)

    def self_s(*names):
        return sum(own[s.id] for n in names for s in by_name.get(n, ()))

    def failures(name):
        return sum(s.failed for s in by_name.get(name, ()))

    def attr_sum(name, key):
        return sum(s.attrs[key] for s in by_name.get(name, ()) if s.attrs)

    fits = by_name.get("heckman.fit_two_step", [])
    probit_fits = {s.id for s in by_name.get("probit.fit", ())}
    line_search = {}
    for s in by_name.get("probit.loglik", ()):
        if s.parent in probit_fits:
            line_search[s.parent] = line_search.get(s.parent, 0) + 1
    # the first loglik of each fit evaluates the zero start, not a step
    ls_evals = sum(max(k - 1, 0) for k in line_search.values())
    stdnorm = tuple(f"stdnorm.{f}" for f in STDNORM)
    elements = sum(attr_sum(n, "elements") for n in stdnorm)
    n_std = calls(*stdnorm)
    render_format = tuple(f"render.{f}" for f in RENDER_FORMAT)

    return {
        "cli.main.calls": calls("cli.main"),
        "cli.main.self_s": self_s("cli.main"),
        "panel.load.self_s": self_s(*LOADERS),
        "panel.column.calls": calls("panel.column"),
        "panel.column.self_s": self_s("panel.column"),
        "panel.build_model_frame.calls": calls("panel.build_model_frame"),
        "panel.build_model_frame.self_s": self_s("panel.build_model_frame"),
        "panel.filter_percentile.calls": calls("panel.filter_percentile"),
        "specs.builtin_specs.calls": calls("specs.builtin_specs"),
        "replicate.run_model_suite.calls": calls("replicate.run_model_suite"),
        "replicate.run_model_suite.self_s": self_s("replicate.run_model_suite"),
        "replicate.descriptive_table.self_s": self_s("replicate.descriptive_table"),
        "replicate.all_figures.self_s": self_s("replicate.all_figures"),
        "replicate.replication_diff.self_s": self_s("replicate.replication_diff"),
        "heckman.fit_two_step.calls": len(fits),
        "heckman.fit_two_step.self_s": self_s("heckman.fit_two_step"),
        "heckman.fit_two_step.failures": failures("heckman.fit_two_step"),
        "heckman.distinct_fit_ratio": (
            len({s.attrs["frame"] for s in fits}) / len(fits) if fits else 0.0
        ),
        "heckman.vcov.calls": calls(*VCOV),
        "heckman.vcov.self_s": self_s(*VCOV),
        "heckman.ols.calls": calls("heckman.ols"),
        "probit.fit.calls": calls("probit.fit"),
        "probit.fit.self_s": self_s("probit.fit"),
        "probit.fit.failures": failures("probit.fit"),
        "probit.newton_iters": attr_sum("probit.fit", "iterations"),
        "probit.loglik.calls": calls("probit.loglik"),
        "probit.score.calls": calls("probit.score"),
        "probit.hessian.calls": calls("probit.hessian"),
        "probit.newton_accept_ratio": (
            attr_sum("probit.fit", "accepted") / ls_evals if ls_evals else 0.0
        ),
        "probit.sandwich_vcov.calls": calls("probit.sandwich_vcov"),
        "stdnorm.calls": n_std,
        "stdnorm.elements": elements,
        "stdnorm.elements_per_call": elements / n_std if n_std else 0.0,
        "stdnorm.self_s": self_s(*stdnorm),
        "stdnorm.bytes_computed": elements * BYTES_PER_ELEMENT,
        "synth.reps": attr_sum("synth.monte_carlo", "reps"),
        "synth.reps_failed": attr_sum("synth.monte_carlo", "reps_failed"),
        "synth.self_s": self_s("synth.monte_carlo"),
        "render.files_written": calls("render.write_text_atomic"),
        "render.bytes_written": attr_sum("render.write_text_atomic", "bytes"),
        "render.write_s": self_s("render.write_text_atomic"),
        "render.format.self_s": self_s(*render_format),
    }

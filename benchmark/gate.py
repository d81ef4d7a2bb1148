"""Correctness gates on each operation's output tree.

replicate: the tree must match, file for file and byte for byte, the
reference digest in replicate_reference.json, and no table may carry a
per-model estimation error.

simulate: every operation of a run must write the same recovery.csv
bytes as the run's first operation; each parameter's mean bias must lie
within 4 Monte Carlo standard errors (|bias| <= 4 rmse / sqrt(reps_used));
where a coverage bound is asked for, coverage must lie within 4 binomial
standard errors of 0.95.

Each check returns a list of problems; an empty list is a pass.

Re-record the replicate reference (only when the output is meant to
change) with:

    python3 benchmark/gate.py --record
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import re
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "replicate_reference.json"
NOMINAL_COVERAGE = 0.95
SIGMAS = 4.0
_REPS_LINE = re.compile(r"replications: (\d+) used, (\d+) failed")


def tree_digest(root) -> dict:
    """Relative path -> sha256 of every file under root."""
    root = Path(root)
    return {
        p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text(encoding="utf-8"))["files"]


def check_replicate(out_dir, reference) -> list:
    out_dir = Path(out_dir)
    problems = []
    for table in sorted(out_dir.glob("tables/*.csv")):
        for line in table.read_text(encoding="utf-8").splitlines():
            if line.startswith("error,"):
                problems.append(f"{table.name}: column error {line}")
    got = tree_digest(out_dir)
    for name in sorted(set(reference) | set(got)):
        if name not in got:
            problems.append(f"{name}: missing")
        elif name not in reference:
            problems.append(f"{name}: not in the reference tree")
        elif got[name] != reference[name]:
            problems.append(f"{name}: differs from the reference")
    return problems


def read_recovery(out_dir):
    """(csv bytes, parameter rows, reps_used, reps_failed)."""
    out_dir = Path(out_dir)
    raw = (out_dir / "recovery.csv").read_bytes()
    rows = list(csv.DictReader(io.StringIO(raw.decode("utf-8"))))
    match = _REPS_LINE.search((out_dir / "recovery.md").read_text(encoding="utf-8"))
    if match is None:
        raise ValueError("recovery.md has no replication count line")
    used, failed = (int(g) for g in match.groups())
    return raw, rows, used, failed


def check_recovery(raw, rows, reps_used, expected_raw, coverage_bound) -> list:
    problems = []
    if raw != expected_raw:
        problems.append("recovery.csv differs from the run's first operation")
    if reps_used < 1 or not rows:
        return problems + ["no replication was used"]
    cov_tol = SIGMAS * math.sqrt(NOMINAL_COVERAGE * (1 - NOMINAL_COVERAGE) / reps_used)
    for row in rows:
        name = row["parameter"]
        bias, rmse = float(row["mean_bias"]), float(row["rmse"])
        if not abs(bias) <= SIGMAS * rmse / math.sqrt(reps_used):
            problems.append(f"{name}: |mean_bias| {abs(bias)} > 4 rmse/sqrt(reps)")
        coverage = float(row["coverage"])
        if coverage_bound and not abs(coverage - NOMINAL_COVERAGE) <= cov_tol:
            problems.append(f"{name}: coverage {coverage} outside 0.95 +- {cov_tol:.4f}")
    return problems


def _record():
    import sys
    import tempfile

    root = REFERENCE.parents[1]
    sys.path.insert(0, str(root / "src"))
    from vaxsel.cli import main

    with tempfile.TemporaryDirectory(dir=root) as tmp:
        if main(["replicate", "--out", tmp]) != 0:
            raise SystemExit("replicate failed; reference not recorded")
        files = tree_digest(tmp)
    REFERENCE.write_text(json.dumps({"command": "vaxsel replicate", "files": files},
                                    indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(files)} files to {REFERENCE.name}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--record", action="store_true",
                        help="re-record the replicate reference digest")
    if parser.parse_args().record:
        _record()
    else:
        parser.print_help()

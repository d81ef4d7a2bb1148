#!/usr/bin/env bash
# Byte-identity check of vaxsel's output trees between two source trees.
#
#   scripts/diff_output_trees.sh BASE [WORKDIR]
#
# Runs the reference commands below once with BASE/src (another checkout,
# such as the parent commit) and once with this checkout's src, each into
# its own tree under WORKDIR (default: a new temporary directory), saves
# the stdout of each tree's scripts/selection_bias_demo.py --n 500
# --reps 50 into that tree, runs replicate --data on a perturbed copy of
# the shipped snapshot (blank cells, zero and negative values in log
# columns: missing values and audit lines the snapshot does not have), on a
# copy with every soft_power_30 cell blank (models 2-5 fail, so the tables
# and the diff report print their failed-model text) and on a copy with the
# cases cell of every non-starter blank (every selection sample holds only
# starters, so each fit takes fit_two_step's all-selected least-squares
# branch and the diff report prints its "(no selection stage)" rows), reruns
# replicate into its already-written tree and requires the same bytes as the
# fresh run (each file is then renamed over an existing one, and a stage left
# behind shows as "Only in"), and compares the two trees with diff -r.  It
# also runs the reference commands with this checkout's src through
# vaxsel.cli.main, one after another in a single Python process as
# benchmark/run.py calls it, and compares that tree with BASE's per-process
# one, so any state one in-process call leaves to the next shows as a
# difference.
# Exits 0 when every file is byte-identical and 1 when any differs.  All
# runs use the same machine, so the check holds on any CPU.
set -euo pipefail

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
    echo "usage: $0 BASE [WORKDIR]" >&2
    exit 2
fi
base=$(cd "$1" && pwd)
here=$(cd "$(dirname "$0")/.." && pwd)
work=${2:-$(mktemp -d)}
mkdir -p "$work"

# one vaxsel argv per line, without --out; the two seed-101 simulate lines are the
# benchmark's mc_paper and mc_large operations
ARGVS='replicate
replicate --vcov heckman
fit --filter table3
fit --filter table4 --vcov heckman
simulate --reps 50 --seed 7
simulate --n 189 --vcov robust --reps 50 --seed 7
simulate --n 189 --vcov robust --reps 50 --seed 202
simulate --n 189 --vcov robust --reps 50 --seed 101
simulate --reps 50 --seed 101
simulate --reps 200
describe
figures --grid 7'

# the shipped snapshot with holes, the same on every run: every 7th row
# loses its gov_eff and pop_65, and log columns get zero and negative values
# (vac_php only where a value is present, as only starters may have one);
# the snapshot with every soft_power_30 cell blank; and the snapshot with
# the cases cell of every non-starter blank
perturb() {  # perturb SNAPSHOT PERTURBED NO_SOFT_POWER ALL_SELECTED
    python3 - "$1" "$2" "$3" "$4" <<'PY'
import csv, sys
with open(sys.argv[1], encoding="utf-8", newline="") as f:
    rows = list(csv.reader(f))
col = {code: j for j, code in enumerate(rows[0])}
def blanked(path, code, where=lambda row: True):
    out = [[*r[:col[code]], "" if where(r) else r[col[code]], *r[col[code] + 1:]]
           for r in rows[1:]]
    with open(path, "w", encoding="utf-8", newline="") as f:
        csv.writer(f, lineterminator="\n").writerows([rows[0], *out])
blanked(sys.argv[3], "soft_power_30")
blanked(sys.argv[4], "cases", lambda r: r[col["started"]] == "0")
for i, row in enumerate(rows[1:]):
    if i % 7 == 0:
        row[col["gov_eff"]] = row[col["pop_65"]] = ""
    if i % 11 == 3:
        row[col["gdp"]] = "0"
    if i % 13 == 5:
        row[col["health_exp"]] = "-2.5"
    if i % 5 == 1 and row[col["vac_php"]]:
        row[col["vac_php"]] = "0" if i % 2 else "-1"
with open(sys.argv[2], "w", encoding="utf-8", newline="") as f:
    csv.writer(f, lineterminator="\n").writerows(rows)
PY
}

run_all() {  # run_all SOURCE_TREE OUTPUT_ROOT
    local argv
    while read -r argv; do
        # word splitting of $argv is wanted: it is the command line
        # shellcheck disable=SC2086
        PYTHONPATH="$1/src" python3 -m vaxsel.cli $argv --out "$2/${argv// /_}"
    done <<< "$ARGVS"
    PYTHONPATH="$1/src" python3 -m vaxsel.cli replicate --data "$work/perturbed.csv" \
        --out "$2/replicate_perturbed"
    PYTHONPATH="$1/src" python3 -m vaxsel.cli replicate --data "$work/no_soft_power.csv" \
        --out "$2/replicate_no_soft_power"
    PYTHONPATH="$1/src" python3 -m vaxsel.cli replicate --data "$work/all_selected.csv" \
        --out "$2/replicate_all_selected"
    cp -R "$2/replicate" "$2.fresh_replicate"
    PYTHONPATH="$1/src" python3 -m vaxsel.cli replicate --out "$2/replicate"
    diff -r "$2.fresh_replicate" "$2/replicate"
    # the demo puts its own tree's src on the path
    python3 "$1/scripts/selection_bias_demo.py" --n 500 --reps 50 > "$2/selection_bias_demo.txt"
}

in_process() {  # in_process SOURCE_TREE OUTPUT_ROOT
    ARGVS="$ARGVS" PYTHONPATH="$1/src" python3 - "$2" <<'PY'
import os, sys
from vaxsel import cli
for argv in os.environ["ARGVS"].splitlines():
    code = cli.main([*argv.split(), "--out", os.path.join(sys.argv[1], argv.replace(" ", "_"))])
    if code:
        sys.exit(f"vaxsel {argv}: exit status {code}")
PY
}

rm -rf "$work/base" "$work/head" "$work/in_process" "$work/base.fresh_replicate" \
    "$work/head.fresh_replicate"
perturb "$here/src/vaxsel/data/snapshot.csv" "$work/perturbed.csv" "$work/no_soft_power.csv" \
    "$work/all_selected.csv"
run_all "$base" "$work/base"
run_all "$here" "$work/head"
in_process "$here" "$work/in_process"
status=0
diff -r "$work/base" "$work/head" || status=1
while read -r argv; do
    diff -r "$work/base/${argv// /_}" "$work/in_process/${argv// /_}" || status=1
done <<< "$ARGVS"
if [ "$status" -ne 0 ]; then
    exit 1
fi
echo "output trees are byte-identical: $(find "$work/head" -type f | wc -l) files per process," \
    "$(find "$work/in_process" -type f | wc -l) in one process"

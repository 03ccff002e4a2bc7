#!/usr/bin/env bash
# A/B benchmark: runs perfbench on a parent revision and on this checkout,
# pair by pair, and compares every end-to-end metric of BENCHMARK.json
# against its bound.
#
#   scripts/ab.sh <parent-rev> [pairs] [seconds] [extra perfbench flags]
#
#   scripts/ab.sh HEAD~1 10 15            # the A/B a speed claim needs
#   scripts/ab.sh HEAD 1 1 --size tiny    # smoke: HEAD against itself
#
# The parent is exported with git archive into a temporary directory.
# The change is this checkout's working tree, uncommitted edits included.
# Each side builds from its own sources through perfbench/run.sh, which
# keeps its build cache in that side's .bench_build/. Pair i runs every
# workload with seed 100+i on both sides, parent first on odd pairs and
# change first on even ones, each run with --trace 0 and the extra flags.
#
# For each workload and metric it prints both sides' median and
# quartiles, the change's relative difference, how many pairs the change
# won, and each side's failed/attempted operations. A metric is
#   WORSE       when the change's median is worse than the parent's by
#               more than the metric's bound;
#   UNRESOLVED  when the parent's interquartile range is wider than the
#               bound times its median, or fewer than 3 pairs ran, so
#               the spread cannot be told from a difference. Such a
#               metric is never flagged WORSE.
# The exit status is 1 when a metric is WORSE, when a run exits non-zero
# or reports correct=false or no result, or when the change's share of
# failed operations on a workload exceeds the parent's. It is 0
# otherwise. The script changes neither BENCHMARK.json nor perfbench/.
set -euo pipefail

if [ $# -lt 1 ]; then
  sed -n '2,10p' "$0" >&2
  exit 2
fi
parent_rev=$1
pairs=${2:-10}
seconds=${3:-15}
shift $(($# < 3 ? $# : 3))
extra=("$@")

root=$(git rev-parse --show-toplevel)
cd "$root"
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/parent"
git archive "$parent_rev" | tar -x -C "$work/parent"

workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
results=$work/results.jsonl
: > "$results"

for ((i = 1; i <= pairs; i++)); do
  seed=$((100 + i))
  if ((i % 2)); then order="parent change"; else order="change parent"; fi
  for w in $workloads; do
    for side in $order; do
      dir=$root
      [ "$side" = parent ] && dir=$work/parent
      out=$work/run.out
      status=0
      (cd "$dir" && bash perfbench/run.sh --workload "$w" --seed "$seed" \
        --seconds "$seconds" --trace 0 ${extra[@]+"${extra[@]}"}) \
        > "$out" 2> "$work/run.err" || status=$?
      last=$(tail -n 1 "$out")
      echo "pair $i/$pairs seed $seed $w $side: exit $status" >&2
      if [ "$status" -ne 0 ]; then tail -n 20 "$work/run.err" "$out" >&2 || true; fi
      python3 -c 'import json, sys
w, side, pair, status, last = sys.argv[1:]
try:
    res = json.loads(last)
except ValueError:
    res = None
print(json.dumps({"workload": w, "side": side, "pair": int(pair), "exit": int(status), "result": res}))' \
        "$w" "$side" "$i" "$status" "$last" >> "$results"
    done
  done
done

python3 - "$results" <<'EOF'
import json, statistics, sys

spec = json.load(open("BENCHMARK.json"))
runs = [json.loads(line) for line in open(sys.argv[1])]
bad = False

def quartiles(v):
    v = sorted(v)
    if len(v) == 1:
        return v[0], v[0], v[0]
    q1, med, q3 = statistics.quantiles(v, n=4, method="inclusive")
    return q1, med, q3

for run in runs:
    res = run["result"]
    if run["exit"] != 0 or res is None or not res.get("correct"):
        got = "no result" if res is None else "correct=%s failed=%s/%s" % (res.get("correct"), res.get("failed"), res.get("attempted"))
        print(f"FAILED  {run['workload']} {run['side']} pair {run['pair']}: exit {run['exit']}, {got}")
        bad = True

for wl in spec["workloads"]:
    name = wl["name"]
    by = {(r["side"], r["pair"]): r["result"] for r in runs if r["workload"] == name and r["result"]}
    pairs = sorted({p for (_, p) in by})
    npairs = sum(1 for p in pairs if ("parent", p) in by and ("change", p) in by)
    print(f"\n{name}: {npairs} pairs")
    print(f"  {'metric':<16}{'parent median [q1, q3]':>34}{'change median [q1, q3]':>34}{'diff':>9}{'bound':>7}{'wins':>7}  status")
    for m in spec["end_to_end"]:
        key, bound, lower = m["name"], m["bound"], m["better"] == "lower"
        par, chg, wins = [], [], 0
        for p in pairs:
            a, b = by.get(("parent", p)), by.get(("change", p))
            if not a or not b or key not in a["metrics"] or key not in b["metrics"]:
                continue
            va, vb = a["metrics"][key]["value"], b["metrics"][key]["value"]
            par.append(va)
            chg.append(vb)
            wins += (vb < va) if lower else (vb > va)
        if not par:
            print(f"  {key:<16} missing")
            bad = True
            continue
        pq1, pmed, pq3 = quartiles(par)
        cq1, cmed, cq3 = quartiles(chg)
        diff = (cmed - pmed) / pmed if pmed else 0.0
        worse = diff > bound if lower else -diff > bound
        if len(par) < 3 or (pmed and (pq3 - pq1) / pmed > bound):
            status = "UNRESOLVED"
        elif worse:
            status = "WORSE"
            bad = True
        else:
            status = "ok"
        fmt = lambda med, q1, q3: f"{med:.4g} [{q1:.4g}, {q3:.4g}]"
        print(f"  {key:<16}{fmt(pmed, pq1, pq3):>34}{fmt(cmed, cq1, cq3):>34}{diff:>+9.1%}{bound:>7}{f'{wins}/{len(par)}':>7}  {status}")
    ops = {}
    for s in ("parent", "change"):
        side_runs = [r for (side, _), r in by.items() if side == s]
        ops[s] = (sum(r["failed"] for r in side_runs), sum(r["attempted"] for r in side_runs))
    share = {s: f / a if a else 0.0 for s, (f, a) in ops.items()}
    status = "ok"
    if share["change"] > share["parent"]:
        status = "WORSE"
        bad = True
    counts = {s: "%d/%d" % ops[s] for s in ops}
    print(f"  {'failed/attempted':<16}{counts['parent']:>34}{counts['change']:>34}{'':>23}  {status}")

sys.exit(1 if bad else 0)
EOF

#!/usr/bin/env bash
# Checks that perfbench's classify workloads still do exactly the work
# pinned in scripts/pinned_work.json:
#
#   scripts/pinned_work.sh
#
# For a fixed seed, training and answering do the same work on every
# run, so each workload's kernel, node, grid and sampling counts repeat
# exactly. Each pinned workload runs once with
# --size tiny --seed 1 --seconds 1 --trace 1, and every pinned metric in
# its last JSON line must equal the pin. A change that alters the
# algorithmic work then shows up as a pin diff it has to own: re-record
# the pins from a run of the change and say why they moved.
# refresh-gauss2 is not pinned: its number of retrains depends on
# elapsed time. The pins were recorded on amd64; other architectures may
# fuse multiply-adds and round differently.
#
# The exit status is 1 when a run fails, reports correct=false, or any
# metric differs from its pin. The script changes neither BENCHMARK.json
# nor perfbench/.
set -euo pipefail

root=$(git rev-parse --show-toplevel)
cd "$root"
pins=scripts/pinned_work.json
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

for w in $(python3 -c 'import json, sys; print(" ".join(json.load(open(sys.argv[1]))))' "$pins"); do
  bash perfbench/run.sh --workload "$w" --size tiny --seed 1 --seconds 1 --trace 1 > "$work/$w.out"
done

python3 - "$pins" "$work" <<'PY'
import json, sys

pins, work = sys.argv[1:]
bad = False
for w, want in json.load(open(pins)).items():
    lines = open(f"{work}/{w}.out").read().splitlines()
    res = json.loads(lines[-1]) if lines else {}
    if not res.get("correct"):
        print(f"{w}: no correct result")
        bad = True
        continue
    for key, pin in want.items():
        got = res["metrics"].get(key, {}).get("value")
        status = "ok" if got == pin else "DIFF"
        bad |= got != pin
        print(f"{w:<14} {key:<26} pinned {pin!r:<16} got {got!r:<16} {status}")
sys.exit(1 if bad else 0)
PY

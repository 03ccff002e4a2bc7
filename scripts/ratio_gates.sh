#!/usr/bin/env bash
# Checks the benchmark ratio gates pinned in scripts/ratio_gates.json:
#
#   scripts/ratio_gates.sh
#
# Each gate names a package, a benchmark, a pair count and a bound. The benchmark times its two sides in one process:
# each iteration runs a fixed chunk of base calls and one of test calls,
# alternating which runs first, so both sides of a pair share the
# machine's speed of that moment. It reports the median pair's test/base
# time ratio as its "ratio" metric, and the gate passes when that is at
# most the bound. The gates are generous (shared CI hardware is noisy):
# they exist to catch a path that should cost nothing growing real
# work, such as an allocation or a lock.
#
#   telemetry-overhead  Score with a registry and a switched-off flight
#                       recorder (the production hot path when
#                       -trace-slow is not set) against no recorder, on
#                       one classifier whose recorder SetRecorder swaps.
#
# The exit status is 1 when a benchmark run fails, reports no ratio, or
# reports a ratio above its bound.
set -euo pipefail

root=$(git rev-parse --show-toplevel)
cd "$root"

python3 - scripts/ratio_gates.json <<'PY'
import json, re, subprocess, sys

bad = False
for name, g in json.load(open(sys.argv[1])).items():
    pattern = "/".join(f"^{part}$" for part in g["benchmark"].split("/"))
    cmd = ["go", "test", "-run", "^$", "-bench", pattern,
           "-benchtime", f"{g['pairs']}x", "-count", "1"]
    cmd.append(g["package"])
    print("$", " ".join(cmd), flush=True)
    run = subprocess.run(cmd, capture_output=True, text=True)
    print(run.stdout, run.stderr, sep="", end="", flush=True)
    m = re.search(r"([\d.]+) ratio", run.stdout)
    if run.returncode != 0 or not m:
        print(f"{name}: benchmark run failed or reported no ratio")
        bad = True
        continue
    ratio = float(m.group(1))
    status = "ok" if ratio <= g["bound"] else "OVER"
    bad |= ratio > g["bound"]
    print(f"{name}: median pair ratio {ratio:.3f} over {g['pairs']} pairs  bound {g['bound']:.2f}  {status}")
sys.exit(1 if bad else 0)
PY

#!/usr/bin/env bash
# Checks the benchmark ratio gates pinned in scripts/ratio_gates.json:
#
#   scripts/ratio_gates.sh
#
# Each gate names a package, two sibling sub-benchmarks ("base" and
# "test"), -benchtime, -count, an optional -cpu list and a bound. Both
# run in one go test invocation, so they share the machine and the job;
# the gate passes when the median ns/op of test over its runs, divided
# by the median of base, is at most the bound. The gates are generous (shared CI hardware
# is noisy): they exist to catch a path that should cost nothing growing
# real work, such as an allocation or a lock.
#
#   telemetry-overhead  Score with a registry and a switched-off flight
#                       recorder (the production hot path when
#                       -trace-slow is not set) against no recorder.
#   sharded-ingest-k1   64-row batch ingest through Ingestor.Add at K=1
#                       against one bare shard (validate, lock, ingest
#                       loop); Add adds the row-width check and the
#                       ticket-counter shard pick. It runs at -cpu 1:
#                       with more procs both variants contend on one
#                       mutex and the ratio swings with the scheduler.
#
# The exit status is 1 when a benchmark run fails, a sub-benchmark is
# missing from its output, or a ratio exceeds its bound.
set -euo pipefail

root=$(git rev-parse --show-toplevel)
cd "$root"

python3 - scripts/ratio_gates.json <<'PY'
import json, re, statistics, subprocess, sys

bad = False
for name, g in json.load(open(sys.argv[1])).items():
    base, test = g["base"].split("/"), g["test"].split("/")
    if len(base) < 2 or base[:-1] != test[:-1]:
        sys.exit(f"{name}: base and test must be sub-benchmarks of one benchmark")
    pattern = "/".join(base[:-1]) + f"/({base[-1]}|{test[-1]})$"
    cmd = ["go", "test", "-run", "^$", "-bench", pattern,
           "-benchtime", g["benchtime"], "-count", str(g["count"])]
    if "cpu" in g:
        cmd += ["-cpu", str(g["cpu"])]
    cmd.append(g["package"])
    print("$", " ".join(cmd), flush=True)
    run = subprocess.run(cmd, capture_output=True, text=True)
    print(run.stdout, run.stderr, sep="", end="", flush=True)
    if run.returncode != 0:
        print(f"{name}: benchmark run failed")
        bad = True
        continue
    runs = {g["base"]: [], g["test"]: []}
    for line in run.stdout.splitlines():
        m = re.match(r"(\S+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op", line)
        if m and m.group(1) in runs:
            runs[m.group(1)].append(float(m.group(2)))
    if not all(runs.values()):
        print(f"{name}: benchmark output is missing {[k for k, v in runs.items() if not v]}")
        bad = True
        continue
    b, t = statistics.median(runs[g["base"]]), statistics.median(runs[g["test"]])
    ratio = t / b
    status = "ok" if ratio <= g["bound"] else "OVER"
    bad |= ratio > g["bound"]
    print(f"{name}: base {b:.1f} ns/op  test {t:.1f} ns/op  ratio {ratio:.3f}  bound {g['bound']:.2f}  {status}")
sys.exit(1 if bad else 0)
PY

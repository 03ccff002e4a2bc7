#!/usr/bin/env bash
# Replication smoke test: a real trainer process and a real follower
# process over loopback HTTP. The follower must converge to the leader's
# generation, classify bit-for-bit identically and advertise the same
# snapshot SHA-256, including across a retrain-driven generation bump.
# CI runs this; it is also handy locally:
#
#   ./scripts/replication_smoke.sh
set -euo pipefail

LEADER_ADDR=127.0.0.1:18080
FOLLOWER_ADDR=127.0.0.1:18081
LEADER=http://$LEADER_ADDR
FOLLOWER=http://$FOLLOWER_ADDR

workdir=$(mktemp -d)
pids=()
cleanup() {
  for pid in "${pids[@]-}"; do kill "$pid" 2>/dev/null || true; done
  wait 2>/dev/null || true
  rm -rf "$workdir"
}
trap cleanup EXIT

echo "== build"
go build -o "$workdir/tkdc" ./cmd/tkdc
go run ./cmd/tkdc-gen -dataset gauss -n 2000 -seed 7 -o "$workdir/data.csv"
go run ./cmd/tkdc-gen -dataset gauss -n 400 -seed 8 -o "$workdir/extra.csv"
head -50 "$workdir/data.csv" > "$workdir/queries.csv"

# json FILE KEY — extract one field from a JSON response body.
json() {
  python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))[sys.argv[2]])' "$1" "$2"
}

# wait_until DESCRIPTION CMD... — retry CMD up to 30s.
wait_until() {
  local what=$1; shift
  for _ in $(seq 1 150); do
    if "$@" >/dev/null 2>&1; then return 0; fi
    sleep 0.2
  done
  echo "timeout waiting for $what" >&2
  exit 1
}

# synced — fetch both /model bodies; true once the follower has applied
# the generation the leader serves.
synced() {
  curl -sf "$LEADER/model" > "$workdir/lsync.json" &&
    curl -sf "$FOLLOWER/model" > "$workdir/fsync.json" &&
    [ "$(json "$workdir/fsync.json" applied_generation)" = "$(json "$workdir/lsync.json" generation)" ]
}

# same_snapshot STAGE — once the follower has applied the leader's
# generation, both must advertise one snapshot SHA-256. The follower
# re-encodes the model it loaded, so a mismatch means loading changed
# the model's bytes.
same_snapshot() {
  wait_until "follower at the leader's generation ($1)" synced
  local lsha fsha
  lsha=$(json "$workdir/lsync.json" snapshot_sha256)
  fsha=$(json "$workdir/fsync.json" snapshot_sha256)
  [ "$lsha" = "$fsha" ] || {
    echo "snapshot SHA-256 differs $1: leader $lsha, follower $fsha" >&2; exit 1; }
  echo "snapshot_sha256 $lsha on both ($1)"
}

echo "== start leader (trainer) on $LEADER_ADDR"
"$workdir/tkdc" -train "$workdir/data.csv" -serve "$LEADER_ADDR" \
  -stream -retrain-every 100 -save "$workdir/model.tkdc" &
pids+=($!)
wait_until "leader /healthz" curl -sf "$LEADER/healthz"

echo "== start follower on $FOLLOWER_ADDR"
"$workdir/tkdc" -follow "$LEADER" -serve "$FOLLOWER_ADDR" -poll-every 200ms &
pids+=($!)
wait_until "follower /healthz" curl -sf "$FOLLOWER/healthz"

echo "== compare answers (generation 1)"
curl -sf -X POST --data-binary "@$workdir/queries.csv" "$LEADER/classify?density=1" > "$workdir/leader1.json"
curl -sf -X POST --data-binary "@$workdir/queries.csv" "$FOLLOWER/classify?density=1" > "$workdir/follower1.json"
cmp "$workdir/leader1.json" "$workdir/follower1.json" || {
  echo "follower answers diverge from leader at generation 1" >&2; exit 1; }
same_snapshot "generation 1"

curl -sf "$FOLLOWER/model" > "$workdir/fmodel.json"
[ "$(json "$workdir/fmodel.json" role)" = follower ] || {
  echo "follower /model does not report role=follower" >&2; exit 1; }
gen_before=$(json "$workdir/fmodel.json" applied_generation)

echo "== ingest to trigger a retrain (generation bump)"
curl -sf -X POST --data-binary "@$workdir/extra.csv" "$LEADER/ingest" > /dev/null

leader_advanced() {
  curl -sf "$LEADER/model" > "$workdir/lmodel.json" &&
    [ "$(json "$workdir/lmodel.json" generation)" -gt 1 ]
}
wait_until "leader retrain" leader_advanced

follower_advanced() {
  curl -sf "$FOLLOWER/model" > "$workdir/fmodel.json" &&
    [ "$(json "$workdir/fmodel.json" applied_generation)" -gt "$gen_before" ]
}
wait_until "follower sync of new generation" follower_advanced

echo "== compare answers (after generation bump)"
curl -sf -X POST --data-binary "@$workdir/queries.csv" "$LEADER/classify?density=1" > "$workdir/leader2.json"
curl -sf -X POST --data-binary "@$workdir/queries.csv" "$FOLLOWER/classify?density=1" > "$workdir/follower2.json"
cmp "$workdir/leader2.json" "$workdir/follower2.json" || {
  echo "follower answers diverge from leader after retrain" >&2; exit 1; }
same_snapshot "after retrain"
cmp -s "$workdir/leader1.json" "$workdir/leader2.json" && {
  echo "retrain did not change the model; the bump proved nothing" >&2; exit 1; }

echo "== saved snapshot loads back"
"$workdir/tkdc" -load "$workdir/model.tkdc" -query "$workdir/queries.csv" > /dev/null

echo "replication smoke: OK (follower converged $gen_before -> $(json "$workdir/fmodel.json" applied_generation), answers and snapshot SHA-256 identical)"

#!/usr/bin/env bash
# Byte-identity check between two `ldp-cli` builds: a change that keeps
# the wire format, the accumulator states and the query output must
# write exactly the bytes its parent writes.
#
# For each of the ten protocols at d=8 k=2 (CMS and HCMS at 5×256),
# and each --batch of 1, 7 and 1024, on 5000 taxi rows from
# `ldp-cli rows`, it `cmp`s:
#   1. both builds' `encode` streams,
#   2. both builds' `ingest` snapshots,
#   3. the change's `merge` of the parent's snapshot against the
#      change's own snapshot (the change loads and re-serializes it),
#   4. both builds' `query` outputs.
# 30 cases; the script fails on the first difference.
#
# Usage: scripts/snapshot_identity.sh <parent-ldp-cli> <change-ldp-cli>
# (CI runs it with the same binary on both sides, so it keeps working.)
set -euo pipefail

PARENT=$1
CHANGE=$2

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT
# The subcommands' progress lines go to a log, shown if a step fails.
LOG=$WORK/log
fail() { echo "FAIL $1"; cat "$LOG"; exit 1; }

"$PARENT" rows --d 8 --n 5000 --seed 42 --generate taxi --output "$WORK/rows.csv"

cases=0
for protocol in InpRR InpPS InpHT MargRR MargPS MargHT InpEM OLH CMS HCMS; do
  for batch in 1 7 1024; do
    name="$protocol --batch $batch"
    flags=(--protocol "$protocol" --d 8 --k 2 --eps 1.1 --seed 7
      --hashes 5 --width 256 --family-seed 1 --batch "$batch")
    for side in parent change; do
      if [ "$side" = parent ]; then bin=$PARENT; else bin=$CHANGE; fi
      "$bin" encode "${flags[@]}" --input "$WORK/rows.csv" --output "$WORK/$side.enc" 2>>"$LOG" ||
        fail "$name: $side encode"
      "$bin" ingest --input "$WORK/$side.enc" --output "$WORK/$side.snap" 2>>"$LOG" ||
        fail "$name: $side ingest"
      "$bin" query --input "$WORK/$side.snap" --output "$WORK/$side.query" 2>>"$LOG" ||
        fail "$name: $side query"
    done
    "$CHANGE" merge "$WORK/parent.snap" --output "$WORK/merged.snap" 2>>"$LOG" ||
      fail "$name: merge of the parent's snapshot"
    cmp "$WORK/parent.enc" "$WORK/change.enc" || fail "$name: encode streams differ"
    cmp "$WORK/parent.snap" "$WORK/change.snap" || fail "$name: ingest snapshots differ"
    cmp "$WORK/merged.snap" "$WORK/change.snap" || fail "$name: merge of the parent's snapshot differs"
    cmp "$WORK/parent.query" "$WORK/change.query" || fail "$name: query outputs differ"
    [ -s "$WORK/change.query" ] || fail "$name: empty query output"
    : >"$LOG"
    echo "ok $name"
    cases=$((cases + 1))
  done
done
echo "snapshot identity ok: $cases cases"

#!/usr/bin/env bash
# Smoke test for the ablation binaries and the online-monitoring example —
# the only non-test callers of the selection / jump-model / incremental-reuse
# ablation knobs and of the resident engine's online mode. Runs each at a
# small size and fails on a non-zero exit or on output without its result
# table (the example: without one top-k line per batch).
#
# Wired into ctest as `ablation_smoke`.
#
# Usage: ablation_smoke.sh <bench dir> <examples dir> <scratch dir>
set -euo pipefail

if [[ $# -ne 3 ]]; then
  echo "usage: $0 <bench dir> <examples dir> <scratch dir>" >&2
  exit 2
fi

bench="$1"
examples="$2"
scratch="$3"
mkdir -p "$scratch"

# run <name> <binary> [flags...]: runs the binary, keeping its stdout.
run() {
  local name="$1"
  shift
  local out="$scratch/$name.out"
  if ! "$@" > "$out" 2> "$scratch/$name.err"; then
    echo "FAIL: $name exited non-zero" >&2
    tail -5 "$scratch/$name.err" >&2
    exit 1
  fi
}

# expect_table <name> <tables>: the output holds <tables> result tables
# (ResultTable: header row, |---| separator, at least one data row).
expect_table() {
  local name="$1" tables="$2"
  local found
  found=$(awk '/^\|[-|]+\|$/ { sep = 1; next }
               sep && /^\| / { rows++; sep = 0 }
               END { print rows + 0 }' "$scratch/$name.out")
  if [[ "$found" -ne "$tables" ]]; then
    echo "FAIL: $name printed $found result tables, expected $tables" >&2
    cat "$scratch/$name.out" >&2
    exit 1
  fi
}

run selection "$bench/ablation_selection" --k=5
expect_table selection 2
run incremental "$bench/ablation_incremental" --k=5
expect_table incremental 2
run streaming "$bench/ablation_streaming" --k=5 --checkpoints=3
expect_table streaming 1
run jump_model "$bench/ablation_jump_model" --records=2000
expect_table jump_model 1

run monitor "$examples/streaming_monitor" --k=3 --batches=3
lines=$(grep -c '^after [0-9]* arrivals, top-3 stories:' \
          "$scratch/monitor.out" || true)
if [[ "$lines" -ne 3 ]] || ! grep -q '^stream metrics:' \
       "$scratch/monitor.out"; then
  echo "FAIL: streaming_monitor printed $lines of 3 top-k lines" >&2
  cat "$scratch/monitor.out" >&2
  exit 1
fi

echo "ablation_smoke OK: 4 ablation benches and streaming_monitor"

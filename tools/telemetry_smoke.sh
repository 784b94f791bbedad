#!/usr/bin/env bash
# Smoke test for the serve-mode telemetry plane (docs/observability.md):
# runs a serve session with the periodic metrics exporter, trace recorder,
# and slow-op watchdog enabled, paced so at least two export ticks fire, and
# asserts the exports are well-formed — the JSONL snapshots carry the
# adalsh-metrics-v1 schema with monotone seq and monotone counters, the
# mutation-latency histogram's count equals exactly the number of mutations
# the session issued, the Prometheus exposition parses (every line is a
# comment or an adalsh_ sample, the +Inf bucket equals _count), and the
# Chrome trace lands on disk. The same exactness is re-checked through the
# sharded engine, where one protocol mutation fans out to per-shard
# sub-batches and must still be observed exactly once.
#
# Wired into ctest as `telemetry_smoke` (mirrors tools/engine_smoke.sh).
#
# Usage: telemetry_smoke.sh <adalsh_cli binary> <scratch dir>
set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 <adalsh_cli binary> <scratch dir>" >&2
  exit 2
fi

cli="$1"
scratch="$2"
mkdir -p "$scratch"

# Paced session: 4 mutations (2 commits, 1 remove, 1 flush) with sleeps long
# enough that the 50ms exporter ticks at least twice before shutdown.
session() {
  printf '%s\n' \
    "add alpha beta gamma delta epsilon zeta eta theta" \
    "add alpha beta gamma delta epsilon zeta eta iota" \
    "commit"
  sleep 0.15
  printf '%s\n' \
    "add red orange yellow green blue indigo violet pink" \
    "commit" \
    "remove 2"
  sleep 0.15
  printf '%s\n' "flush" "metrics" "quit"
}
mutations_issued=4

check_exports() {
  local tag="$1" jsonl="$2" prom="$3"

  local lines
  lines=$(wc -l < "$jsonl")
  if (( lines < 2 )); then
    echo "FAIL($tag): expected >= 2 periodic snapshots, got $lines" >&2
    exit 1
  fi

  # Every line is a complete adalsh-metrics-v1 document with monotone seq.
  if grep -cv '^{"schema":"adalsh-metrics-v1","seq":' "$jsonl" \
      | grep -qv '^0$'; then
    echo "FAIL($tag): malformed snapshot line in $jsonl" >&2
    exit 1
  fi
  local prev_seq=0 prev_mut=0 seq mut
  while IFS= read -r line; do
    seq=$(sed -n 's/.*"seq":\([0-9]*\).*/\1/p' <<< "$line")
    if (( seq <= prev_seq )); then
      echo "FAIL($tag): seq not monotone ($prev_seq -> $seq)" >&2
      exit 1
    fi
    prev_seq=$seq
    # Counters are cumulative: serve_mutations must never decrease (absent
    # before the first mutation counts as 0).
    mut=$(sed -n 's/.*"serve_mutations":\([0-9]*\).*/\1/p' <<< "$line")
    mut=${mut:-0}
    if (( mut < prev_mut )); then
      echo "FAIL($tag): serve_mutations went backwards" >&2
      exit 1
    fi
    prev_mut=$mut
  done < "$jsonl"

  # Exactness: the final snapshot's mutation-latency histogram counts every
  # protocol mutation the session issued — no more, no fewer.
  local final hist_count
  final=$(tail -n 1 "$jsonl")
  if (( prev_mut != mutations_issued )); then
    echo "FAIL($tag): serve_mutations=$prev_mut, issued $mutations_issued" >&2
    exit 1
  fi
  hist_count=$(sed -n \
    's/.*"serve_mutation_seconds":{"count":\([0-9]*\).*/\1/p' <<< "$final")
  if [[ "$hist_count" != "$mutations_issued" ]]; then
    echo "FAIL($tag): serve_mutation_seconds count=$hist_count," \
         "issued $mutations_issued" >&2
    exit 1
  fi

  # The Prometheus exposition: only comments and adalsh_-prefixed samples,
  # a histogram family for the mutation latency, and a +Inf bucket equal to
  # the family count.
  if grep -qEv '^(# |adalsh_)' "$prom"; then
    echo "FAIL($tag): non-exposition line in $prom" >&2
    exit 1
  fi
  if ! grep -q '^# TYPE adalsh_serve_mutation_seconds histogram$' "$prom"; then
    echo "FAIL($tag): missing histogram family in $prom" >&2
    exit 1
  fi
  local inf count
  inf=$(grep -F 'adalsh_serve_mutation_seconds_bucket{le="+Inf"}' "$prom" \
        | awk '{print $2}')
  count=$(grep -E '^adalsh_serve_mutation_seconds_count ' "$prom" \
          | awk '{print $2}')
  if [[ -z "$inf" || "$inf" != "$count" ]]; then
    echo "FAIL($tag): +Inf bucket ($inf) != _count ($count) in $prom" >&2
    exit 1
  fi
}

for shards in 1 2; do
  tag="shards=$shards"
  jsonl="$scratch/metrics_s$shards.jsonl"
  prom="$jsonl.prom"
  trace="$scratch/trace_s$shards.json"
  stderr="$scratch/serve_s$shards.err"
  rm -f "$jsonl" "$prom" "$trace"

  session | "$cli" serve --columns=text "--rule=leaf(0;0.5)" --k=3 \
    --threads=2 --seed=3 --cost-model=1e-8,1e-6 --shards="$shards" \
    --metrics-out="$jsonl" --metrics-interval-ms=50 \
    --trace-out="$trace" --trace-max-spans=10000 \
    --watchdog-factor=50 > "$scratch/transcript_s$shards.txt" 2> "$stderr"

  # The `metrics` command answered inline with the same schema.
  if ! grep -q '"schema":"adalsh-metrics-v1"' \
      "$scratch/transcript_s$shards.txt"; then
    echo "FAIL($tag): metrics command reply missing from transcript" >&2
    exit 1
  fi
  check_exports "$tag" "$jsonl" "$prom"

  if [[ ! -s "$trace" ]] || ! grep -q '"traceEvents"' "$trace"; then
    echo "FAIL($tag): trace file missing or malformed: $trace" >&2
    exit 1
  fi
  if ! grep -q '^trace: ' "$stderr"; then
    echo "FAIL($tag): trace summary line missing from stderr" >&2
    exit 1
  fi
done

echo "telemetry_smoke OK: $scratch"

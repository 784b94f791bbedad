#!/usr/bin/env bash
# Smoke test for the resident serve mode (docs/engine.md): drives
# `adalsh_cli serve` through a scripted session covering every protocol verb
# — staged adds, commits, queries, an update that moves a record between
# clusters, removals, error replies, input-hardening rejections (an oversized
# line and a line with control bytes, docs/robustness.md), and a flush — and
# diffs the transcript against tests/golden/engine_smoke.golden
# byte-for-byte, at the default shape and with an explicit --shards=1, each
# at 1 and 8 worker threads. The session pins the cost model and seed, so
# the transcript is reproducible at any thread count. A refused --shards=0,
# refused --cost-model values (not finite, or not > 0), refused negative
# --deadline-ms / --max-pairwise / --max-hashes limits, refused
# --deadline-ms / --metrics-interval-ms values the clock cannot hold, a
# second session checking that the (wall-clock-bearing, so not
# byte-diffable) `stats` report carries the engine-report schema and that
# each of its commands answers exactly one line, a third checking the
# protocol's integer edge cases, integer flags that do not fit in an int
# (refused before the data dir is touched), and a session checking that CSV
# parse errors cite the session's input line follow.
#
# Wired into ctest as `engine_smoke` (mirrors tools/trace_smoke.sh).
#
# Usage: engine_smoke.sh <adalsh_cli binary> <golden file> <scratch dir>
set -euo pipefail

if [[ $# -ne 3 ]]; then
  echo "usage: $0 <adalsh_cli binary> <golden file> <scratch dir>" >&2
  exit 2
fi

cli="$1"
golden="$2"
scratch="$3"
mkdir -p "$scratch"
transcript="$scratch/engine_smoke_transcript.txt"
rm -f "$transcript"

serve=("$cli" serve --columns=text "--rule=leaf(0;0.5)" --k=3 --threads=1
       --seed=3 --cost-model=1e-8,1e-6 --max-line-bytes=256)

# Input-hardening probes: a line past --max-line-bytes and a line carrying a
# control byte. Both must answer `err` and leave the session serving.
long_line="add $(printf 'x%.0s' $(seq 1 300))"
ctrl_line=$'add alpha\x01beta'

session=(
  "topk"
  "add alpha beta gamma delta epsilon zeta eta theta"
  "add alpha beta gamma delta epsilon zeta eta iota"
  "add alpha beta kappa delta epsilon zeta eta theta"
  "add red orange yellow green blue indigo violet pink"
  "add red orange yellow green blue indigo violet black"
  "commit"
  "topk"
  "cluster 1"
  "add red orange cyan green blue indigo violet pink"
  "add lonely solitary single unique alone only sole one"
  "commit"
  "topk"
  "update 4 alpha beta gamma delta epsilon zeta kappa theta"
  "topk"
  "remove 0 1"
  "topk"
  "remove 99"
  "bogus"
  "$long_line"
  "$ctrl_line"
  "topk"
  "flush"
  "quit"
)

# replay <transcript> <extra serve flags...> — runs the session and diffs
# its transcript against the golden byte-for-byte.
replay() {
  local out="$1"
  shift
  printf '%s\n' "${session[@]}" | "${serve[@]}" "$@" > "$out"
  if ! diff -u "$golden" "$out"; then
    echo "FAIL: serve transcript with [$*] deviates from $golden" >&2
    exit 1
  fi
}

# The default shape, then an explicit --shards=1 (the same engine: one shard
# certifies continuously). The transcript must also be thread-count
# independent: the same bytes at 8 worker threads.
replay "$transcript"
replay "$transcript.s1" --shards=1
replay "$transcript.t8" --threads=8
replay "$transcript.s1t8" --shards=1 --threads=8

# There is no engine shape below one shard: --shards=0 is refused.
if printf 'quit\n' | "${serve[@]}" --shards=0 > /dev/null 2> "$scratch/s0.err"
then
  echo "FAIL: serve accepted --shards=0" >&2
  exit 1
fi
if ! grep -q -- '--shards must be >= 1' "$scratch/s0.err"; then
  echo "FAIL: serve --shards=0 did not explain its refusal" >&2
  exit 1
fi

# A cost model that is not two finite costs > 0 is refused before the data
# dir is touched, so it never reaches a WAL or checkpoint.
for bad in nan,1e-6 -1,1e-6 0,0 1e-8,inf; do
  rm -rf "$scratch/bad_model_dir"
  rc=0
  printf 'quit\n' | "${serve[@]}" --cost-model="$bad" \
      --data-dir="$scratch/bad_model_dir" > /dev/null \
      2> "$scratch/cost_model.err" || rc=$?
  if [[ $rc -ne 1 ]] || ! grep -q -- '--cost-model' "$scratch/cost_model.err"
  then
    echo "FAIL: serve --cost-model=$bad gave exit $rc, want a refusal" >&2
    cat "$scratch/cost_model.err" >&2
    exit 1
  fi
  if [[ -n "$(ls -A "$scratch/bad_model_dir" 2> /dev/null)" ]]; then
    echo "FAIL: serve --cost-model=$bad wrote to its data dir" >&2
    exit 1
  fi
done

# A negative anytime limit is refused the same way (0 means no limit): it
# would otherwise lift the limit it asks for. So is a millisecond value the
# clock cannot hold (over 1e12, or not a number): a 1e300 ms deadline
# overflowed the clock and stopped every mutation at once, and an infinite
# export interval spun the exporter so that quit never returned (hence the
# timeout).
for bad in --deadline-ms=-5 --max-pairwise=-1 --max-hashes=-1 \
           --deadline-ms=1e300 --deadline-ms=nan --metrics-interval-ms=inf \
           --metrics-interval-ms=1e300; do
  rm -rf "$scratch/bad_limit_dir"
  rc=0
  printf 'quit\n' | timeout 60 "${serve[@]}" "$bad" \
      --metrics-out="$scratch/bad_limit.jsonl" \
      --data-dir="$scratch/bad_limit_dir" > /dev/null \
      2> "$scratch/limit.err" || rc=$?
  if [[ $rc -ne 1 ]] || ! grep -q -- "${bad%%=*}" "$scratch/limit.err"; then
    echo "FAIL: serve $bad gave exit $rc, want a refusal" >&2
    cat "$scratch/limit.err" >&2
    exit 1
  fi
  if [[ -n "$(ls -A "$scratch/bad_limit_dir" 2> /dev/null)" ]]; then
    echo "FAIL: serve $bad wrote to its data dir" >&2
    exit 1
  fi
done

# `stats` embeds wall-clock seconds, so it is checked by shape, not bytes.
# Each command answers one line: staged, ok, the report, the metrics line
# and bye.
printf 'add a b c\ncommit\nstats\nmetrics\nquit\n' | "${serve[@]}" \
    > "$scratch/stats.txt"
lines=$(wc -l < "$scratch/stats.txt")
if [[ $lines -ne 5 || "$(tail -n 1 "$scratch/stats.txt")" != bye ]]; then
  echo "FAIL: add/commit/stats/metrics/quit answered $lines lines," \
       "want 5 ending in bye" >&2
  exit 1
fi
stats=$(sed -n 3p "$scratch/stats.txt")
for key in adalsh-engine-report-v1 counters snapshot refinement; do
  if ! grep -q "\"$key\"" <<< "$stats"; then
    echo "FAIL: stats report lacks \"$key\"" >&2
    exit 1
  fi
done

# Integer edge cases: an id past 2^64-1 is refused, not clamped to
# UINT64_MAX, and a k of 2^32 saturates at the snapshot size instead of
# narrowing to 0.
edges=$(printf 'add a b c\nadd a b c\ncommit\nremove 18446744073709551616\ntopk 4294967296\nquit\n' |
        "${serve[@]}")
if ! grep -qx "err bad record id '18446744073709551616'" <<< "$edges"; then
  echo "FAIL: remove of an out-of-range id was not refused" >&2
  exit 1
fi
if ! grep -q '^ok gen=[0-9]* clusters=1 ' <<< "$edges"; then
  echo "FAIL: topk 4294967296 did not serve the snapshot's cluster" >&2
  exit 1
fi

# An integer flag outside int is refused before the data dir is touched,
# not narrowed (--k=4294967298 would otherwise serve a top-2).
for bad in --k=4294967298 --threads=4294967297 --shards=4294967298; do
  rm -rf "$scratch/bad_int_dir"
  rc=0
  printf 'quit\n' | "${serve[@]}" "$bad" \
      --data-dir="$scratch/bad_int_dir" > /dev/null \
      2> "$scratch/int.err" || rc=$?
  if [[ $rc -ne 1 ]] || ! grep -q -- "$bad does not fit" "$scratch/int.err"
  then
    echo "FAIL: serve $bad gave exit $rc, want a refusal" >&2
    cat "$scratch/int.err" >&2
    exit 1
  fi
  if [[ -n "$(ls -A "$scratch/bad_int_dir" 2> /dev/null)" ]]; then
    echo "FAIL: serve $bad wrote to its data dir" >&2
    exit 1
  fi
done

# A row that does not parse is refused citing the session's input line: a
# column-count mismatch on line 2, an unterminated quote on line 3.
rejects=$(printf 'topk\nadd a\nadd "x\nquit\n' |
          "$cli" serve --columns=text,text "--rule=leaf(0;0.5)")
if ! grep -qx 'err line 2: expected 2 columns, got 1' <<< "$rejects" ||
   ! grep -qx 'err unterminated quote at line 3' <<< "$rejects"; then
  echo "FAIL: serve parse errors do not cite the session's line:" >&2
  echo "$rejects" >&2
  exit 1
fi

echo "engine_smoke OK: $transcript"

#!/usr/bin/env bash
# Kill-point matrix for the durability plane (docs/durability.md): runs a
# scripted durable serve session with --crash-at=SITE:N so the process dies
# (_Exit(42)) between two specific bytes reaching the disk, restarts on the
# same --data-dir, and byte-diffs the recovered query transcript against a
# reference session that executed exactly the mutations the kill point made
# durable — acknowledged-and-synced mutations must survive, and a torn tail
# must never corrupt the surviving prefix.
#
# Sites covered: wal_append (frame lost before the write), wal_sync (frame
# written, fsync never ran), checkpoint_write before the temp write and
# before the rename (old checkpoint must stay visible), recovery_replay (a
# crash during recovery must leave the log replayable), plus a non-crash
# torn-tail case cut with truncate(1) and a cross-shard kill that loses one
# sub-frame of a multi-shard ingest group.
#
# Wired into ctest as `crash_smoke` (mirrors tools/engine_smoke.sh).
#
# Usage: crash_smoke.sh <adalsh_cli binary> <scratch dir>
set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 <adalsh_cli binary> <scratch dir>" >&2
  exit 2
fi

cli="$1"
scratch="$2"
rm -rf "$scratch"
mkdir -p "$scratch"

base=("$cli" serve --columns=text "--rule=leaf(0;0.5)" --k=3 --threads=1
      --seed=3 --cost-model=1e-8,1e-6 --sync=always)

fail() {
  echo "FAIL: $*" >&2
  exit 1
}

# serve_session <data dir> <stdout file> <stderr file> <shards> <crash spec
# or ''> <protocol lines...> — returns the CLI's exit status.
serve_session() {
  local dir=$1 out=$2 errf=$3 shards=$4 crash=$5
  shift 5
  local cmd=("${base[@]}" "--data-dir=$dir" "--shards=$shards")
  if [[ -n "$crash" ]]; then cmd+=("--crash-at=$crash"); fi
  local status=0
  printf '%s\n' "$@" | "${cmd[@]}" > "$out" 2> "$errf" || status=$?
  return "$status"
}

# The deterministic mutation stream. With --shards=1 and the cost model
# pinned on the command line, each mutation appends exactly one WAL frame:
#   frame 1  commit  (ingest ids 0,1)
#   frame 2  commit  (ingest id 2)
#   frame 3  update 0
#   frame 4  remove 1
#   frame 5  flush
mutations=(
  "add alpha beta gamma delta epsilon zeta eta theta"
  "add alpha beta gamma delta epsilon zeta eta iota"
  "commit"
  "add red orange yellow green blue indigo violet pink"
  "commit"
  "update 0 alpha beta kappa delta epsilon zeta eta theta"
  "remove 1"
  "flush"
)

# Read-only probe replayed after every restart; `flush` first so a sharded
# engine publishes its merged snapshot before topk.
query=("flush" "topk" "cluster 0" "quit")

# make_reference <name> <shards> <mutation lines...> — clean run of a
# mutation prefix, clean quit, then a reopen running the query probe. The
# probe transcript is what every crashed-and-recovered session must match.
make_reference() {
  local name=$1 shards=$2
  shift 2
  local dir="$scratch/ref_$name"
  mkdir -p "$dir"
  serve_session "$dir" "$scratch/ref_$name.mut" "$scratch/ref_$name.muterr" \
    "$shards" "" "$@" "quit" \
    || fail "reference $name mutation session exited non-zero"
  serve_session "$dir" "$scratch/ref_$name.query" "$scratch/ref_$name.qerr" \
    "$shards" "" "${query[@]}" \
    || fail "reference $name query session exited non-zero"
}

# crash_case <name> <shards> <crash spec> <reference name> <mutation
# lines...> — run the mutations under --crash-at, demand exit 42, restart on
# the same dir, and byte-diff the query transcript against the reference.
crash_case() {
  local name=$1 shards=$2 crash=$3 ref=$4
  shift 4
  local dir="$scratch/case_$name"
  mkdir -p "$dir"
  local status=0
  serve_session "$dir" "$scratch/case_$name.mut" "$scratch/case_$name.muterr" \
    "$shards" "$crash" "$@" "quit" || status=$?
  if [[ "$status" -ne 42 ]]; then
    fail "case $name: expected _Exit(42) at $crash, got exit $status"
  fi
  serve_session "$dir" "$scratch/case_$name.query" "$scratch/case_$name.qerr" \
    "$shards" "" "${query[@]}" \
    || fail "case $name: restart after crash exited non-zero"
  grep -q '^recovered ' "$scratch/case_$name.qerr" \
    || fail "case $name: restart printed no recovered line"
  if ! diff -u "$scratch/ref_$ref.query" "$scratch/case_$name.query"; then
    fail "case $name: recovered state deviates from reference $ref"
  fi
  echo "crash_smoke: $name OK (crash at $crash, matches $ref)"
}

# References: the full state and the two prefixes the single-shard kill points
# land on.
make_reference full 1 "${mutations[@]}"
make_reference prefix2 1 "${mutations[@]:0:5}"   # through the second commit
make_reference prefix4 1 "${mutations[@]:0:7}"   # through the remove

# --- Kill-point matrix, one shard -------------------------------------------

# The trigger fires before the pwrite: frame 3 (the update) is never
# written, frames 1-2 survive.
crash_case append3 1 wal_append:3 prefix2 "${mutations[@]}"

# The trigger fires before the fsync: frame 4 (the remove) is already in
# the file and a process kill does not empty the page cache, so frames 1-4
# survive.
crash_case sync4 1 wal_sync:4 prefix4 "${mutations[@]}"

# Checkpoint kill points: the crash lands inside the `checkpoint` command
# after every mutation frame is durable, so recovery replays the full log.
# Hit 1 is before the temp file is written (no trace may remain), hit 2 is
# after the temp fsync but before the rename (the half-baked temp must be
# ignored and pruned).
crash_case ckpt_temp 1 checkpoint_write:1 full "${mutations[@]}" "checkpoint"
crash_case ckpt_rename 1 checkpoint_write:2 full "${mutations[@]}" "checkpoint"
# The orphaned .tmp may survive until the next successful checkpoint prunes
# it, but no completed checkpoint may have become visible.
if find "$scratch/case_ckpt_rename" -name 'checkpoint-*' ! -name '*.tmp' \
    | grep -q .; then
  fail "ckpt_rename: a checkpoint became visible despite the pre-rename crash"
fi

# --- Crash during recovery itself -------------------------------------------

# First restart dies mid-replay (recovery applies to memory only, the log is
# untouched), second restart must recover the full state.
dir="$scratch/case_replay"
mkdir -p "$dir"
status=0
serve_session "$dir" "$scratch/case_replay.mut" "$scratch/case_replay.muterr" \
  1 "" "${mutations[@]}" "quit" || fail "replay case: mutation session failed"
serve_session "$dir" "$scratch/case_replay.crash" \
  "$scratch/case_replay.crasherr" 1 recovery_replay:2 "${query[@]}" \
  || status=$?
if [[ "$status" -ne 42 ]]; then
  fail "replay case: expected _Exit(42) during replay, got exit $status"
fi
serve_session "$dir" "$scratch/case_replay.query" "$scratch/case_replay.qerr" \
  1 "" "${query[@]}" || fail "replay case: second restart failed"
if ! diff -u "$scratch/ref_full.query" "$scratch/case_replay.query"; then
  fail "replay case: state after crash-during-recovery deviates"
fi
echo "crash_smoke: replay OK (crash at recovery_replay:2, matches full)"

# --- Torn tail cut with truncate(1) -----------------------------------------

# A clean full run, then the last 7 bytes of the log are sliced off — the
# flush frame (frame 5) is torn. Recovery must warn, truncate the tail, and
# serve the frames 1-4 state.
dir="$scratch/case_torn"
mkdir -p "$dir"
serve_session "$dir" "$scratch/case_torn.mut" "$scratch/case_torn.muterr" \
  1 "" "${mutations[@]}" "quit" || fail "torn case: mutation session failed"
[[ -s "$dir/wal-0.log" ]] || fail "torn case: wal-0.log missing or empty"
truncate -s -7 "$dir/wal-0.log"
serve_session "$dir" "$scratch/case_torn.query" "$scratch/case_torn.qerr" \
  1 "" "${query[@]}" || fail "torn case: restart after truncate failed"
grep -q 'invalid frame' "$scratch/case_torn.qerr" \
  || fail "torn case: restart printed no torn-tail warning"
if ! diff -u "$scratch/ref_prefix4.query" "$scratch/case_torn.query"; then
  fail "torn case: recovered state deviates from prefix4"
fi
echo "crash_smoke: torn OK (truncated tail, matches prefix4)"

# --- Cross-shard kill inside a multi-shard ingest group ---------------------

# With --shards=2, ids route by SplitMix64(id) % 2: id 0 lands on shard 1,
# ids 1 and 2 split across shards 1 and 0, so the second commit appends a
# two-part group (wal_append hits 2 and 3). Killing at hit 3 persists only
# one sub-frame; recovery must discard the incomplete group and serve the
# first-commit state.
sharded_mutations=(
  "add red orange yellow green blue indigo violet pink"
  "commit"
  "add alpha beta gamma delta epsilon zeta eta theta"
  "add alpha beta gamma delta epsilon zeta eta iota"
  "commit"
)
make_reference shard_prefix1 2 "${sharded_mutations[@]:0:2}"
crash_case shard_group 2 wal_append:3 shard_prefix1 "${sharded_mutations[@]}"
grep -q 'frames_discarded=1' "$scratch/case_shard_group.qerr" \
  || fail "shard_group: recovered line does not report the discarded group"

echo "crash_smoke OK: $scratch"

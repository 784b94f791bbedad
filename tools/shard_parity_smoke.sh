#!/usr/bin/env bash
# Smoke test for the sharded execution contract (docs/sharding.md): the
# shard count must be invisible in output. Feeds the same CSV rows to
# `adalsh_cli serve` (one `add` per row, `commit`, `flush`, `topk 5`) at
# S in {1,2,4} x threads in {1,8} with the cost model pinned, and byte-diffs
# the six `topk` blocks (S=2 is the narrowest cross-shard merge). Serve
# assigns ids 0..n-1 in row order, so its ids are the record indices: the
# blocks' member lists must also equal the batch filter's cluster CSV
# (AdaptiveLsh::Run, the one batch path) at threads 1 and 8. Also checks
# that batch mode refuses --shards, rule thresholds and weights that are not
# finite, integer flags that do not fit in an int, --cost-model values that
# are not finite and > 0, negative --deadline-ms / --max-pairwise /
# --max-hashes limits, and --deadline-ms / --cancel-after-ms values the
# clock cannot hold, each with exit 1 and a message naming the problem
# before the input is loaded.
#
# Wired into ctest as `shard_parity` (mirrors tools/simd_parity_smoke.sh).
#
# Usage: shard_parity_smoke.sh <adalsh_cli binary> <scratch dir>
set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 <adalsh_cli binary> <scratch dir>" >&2
  exit 2
fi

cli="$1"
scratch="$2"
mkdir -p "$scratch"
csv="$scratch/shard_parity_records.csv"
rm -f "$csv" "$scratch"/shard_parity_*

# Same synthetic shape as the SIMD parity smoke: planted entities plus
# singleton noise, mixing token text and dense vectors. A different RNG seed
# keeps the two smokes from sharing exact inputs.
python3 - "$csv" <<'EOF'
import random, sys
random.seed(13)
vocab = [f"w{i}" for i in range(260)]
rows = []
for e in range(10):
    base_words = random.sample(vocab, 24)
    base_vec = [random.gauss(0.0, 1.0) for _ in range(32)]
    for r in range(random.randint(3, 9)):
        words = list(base_words)
        for _ in range(random.randint(0, 4)):
            words[random.randrange(len(words))] = random.choice(vocab)
        vec = [v + random.gauss(0.0, 0.05) for v in base_vec]
        rows.append((f"e{e}", " ".join(words),
                     ";".join(f"{v:.5f}" for v in vec)))
for s in range(30):
    rows.append((f"s{s}", " ".join(random.sample(vocab, 24)),
                 ";".join(f"{random.gauss(0.0, 1.0):.5f}" for _ in range(32))))
random.shuffle(rows)
open(sys.argv[1], "w").writelines(f"{e},{t},{v}\n" for e, t, v in rows)
EOF

rule="and(leaf(0;0.5), leaf(1;0.6))"
columns=entity,text,vector
pinned=(--k=5 --seed=11 --cost-model=1e-8,1e-6)
common=(--input="$csv" --columns="$columns" --rule="$rule" "${pinned[@]}")

# One serve session: every row staged, one commit, the flush that certifies
# at S >= 2, and the top 5.
session="$scratch/shard_parity_session.txt"
{ sed 's/^/add /' "$csv"; printf 'commit\nflush\ntopk 5\nquit\n'; } \
    > "$session"

# serve_topk <shards> <threads> <out> — runs the session and keeps its topk
# block's cluster lines. Every reply must be ok, the flush a completed one.
serve_topk() {
  local replies="$scratch/shard_parity_replies_s$1_t$2.txt"
  "$cli" serve --columns="$columns" --rule="$rule" "${pinned[@]}" \
         --shards="$1" --threads="$2" < "$session" > "$replies"
  if grep -q '^err' "$replies" ||
     ! grep -q '^ok gen=[0-9]* reason=completed$' "$replies"; then
    echo "FAIL: serve --shards=$1 --threads=$2 did not answer ok" >&2
    grep '^err\|^ok' "$replies" | head -5 >&2
    exit 1
  fi
  grep '^cluster rank=' "$replies" > "$3"
  if [[ ! -s "$3" ]]; then
    echo "FAIL: serve --shards=$1 --threads=$2 listed no clusters" >&2
    exit 1
  fi
}

reference="$scratch/shard_parity_topk_s1_t1.txt"
serve_topk 1 1 "$reference"
for shards in 1 2 4; do
  for threads in 1 8; do
    out="$scratch/shard_parity_topk_s${shards}_t${threads}.txt"
    serve_topk "$shards" "$threads" "$out"
    if ! cmp -s "$reference" "$out"; then
      echo "FAIL: serve --shards=$shards --threads=$threads diverged" >&2
      diff "$reference" "$out" | head -5 >&2
      exit 1
    fi
  done
done

# The batch filter's clusters, as `<rank> <members ascending>` lines from
# its CSV (cluster_rank,record_index,label) and from serve's cluster lines.
members_of_csv() {
  python3 - "$1" <<'EOF'
import csv, sys
ranks = {}
with open(sys.argv[1]) as f:
    for row in list(csv.reader(f))[1:]:
        ranks.setdefault(int(row[0]), []).append(int(row[1]))
for rank in sorted(ranks):
    print(rank, ",".join(str(m) for m in sorted(ranks[rank])))
EOF
}
serve_members="$scratch/shard_parity_members_serve.txt"
sed 's/^cluster rank=\([0-9]*\) v=[^ ]* members=/\1 /' "$reference" \
    > "$serve_members"
for threads in 1 8; do
  out="$scratch/shard_parity_batch_t${threads}.csv"
  "$cli" "${common[@]}" --threads="$threads" --output="$out" 2> /dev/null
  if ! diff -u "$serve_members" <(members_of_csv "$out") > /dev/null; then
    echo "FAIL: batch --threads=$threads clusters differ from serve's" >&2
    diff "$serve_members" <(members_of_csv "$out") | head -5 >&2
    exit 1
  fi
done

# expect_refused <stderr needle> <batch flags...> — the batch CLI must exit 1
# with a message containing the needle, before loading the input.
expect_refused() {
  local needle="$1"
  shift
  local rc=0
  "$cli" "${common[@]}" "$@" > /dev/null 2> "$scratch/shard_parity.err" ||
      rc=$?
  if [[ $rc -ne 1 ]] || ! grep -q -- "$needle" "$scratch/shard_parity.err" ||
     grep -q '^loaded ' "$scratch/shard_parity.err"; then
    echo "FAIL: [$*] gave exit $rc, want a refusal naming '$needle'" \
         "before loading" >&2
    cat "$scratch/shard_parity.err" >&2
    exit 1
  fi
}

# Run is the one batch path: --shards is not a batch flag (serve keeps it).
expect_refused 'unknown flag --shards' --shards=2

# A rule number that is not finite is refused (a NaN threshold fails every
# comparison and would silently cluster nothing); so is it in serve mode.
for bad in "leaf(0;nan)" "leaf(0;inf)" "wavg(0,1;nan,0.5;0.6)" \
           "and(leaf(0;0.5), leaf(1;nan))"; do
  expect_refused 'finite' --rule="$bad"
done
rc=0
printf 'quit\n' | "$cli" serve --columns="$columns" --rule="leaf(0;nan)" \
    > /dev/null 2> "$scratch/shard_parity.err" || rc=$?
if [[ $rc -ne 1 ]] || ! grep -q 'finite' "$scratch/shard_parity.err"; then
  echo "FAIL: serve --rule=leaf(0;nan) gave exit $rc, want a refusal" >&2
  exit 1
fi

# An integer flag outside int is refused, not narrowed: each of these would
# otherwise read as a small number (--k=4294967297 as a top-1 filter).
expect_refused '--k=4294967297' --k=4294967297
expect_refused '--bk=4294967306' --bk=4294967306
expect_refused '--threads=4294967297' --threads=4294967297
expect_refused '--lsh_x=4294967297' --method=lsh --lsh_x=4294967297
# A malformed integer is a usage error too, not an abort.
expect_refused '--k=abc is not an integer' --k=abc

# --cost-model takes two finite unit costs > 0; anything else is refused
# (a later flag overrides the pinned one in ${common[@]}).
for bad in nan,1e-6 -1,1e-6 0,0 1e-8,inf; do
  expect_refused '--cost-model' --cost-model="$bad"
done

# A negative anytime limit is refused; 0 keeps meaning "no limit". So is a
# millisecond value the clock cannot hold: at 1e300 ms the deadline
# overflowed and the canceller's wait read as expired, cancelling the run
# before its first round.
for bad in --deadline-ms=-5 --max-pairwise=-1 --max-hashes=-1 \
           --deadline-ms=1e300 --cancel-after-ms=1e300 --cancel-after-ms=nan; do
  expect_refused "${bad%%=*}" "$bad"
done

echo "shard_parity OK: serve topk at S=1 == S=2 == S=4 at 1 and 8 threads" \
     "== batch Run's clusters; batch refusals hold"

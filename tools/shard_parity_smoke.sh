#!/usr/bin/env bash
# Smoke test for the sharded execution contract (docs/sharding.md): the
# shard count must be invisible in output. Runs adalsh_cli --method=adalsh
# through the sharded executor at S in {1,2,4} x threads in {1,8} with the
# cost model pinned, and byte-diffs the emitted cluster CSVs against the
# S=1/threads=1 reference (S=2 is the narrowest cross-shard merge). The
# batch filter (--shards=0, AdaptiveLsh::Run) drives the same round loop
# with record ids as the tie-break key, so its CSV must match the reference
# too, at threads 1 and 8. Also checks that --shards rejects non-adalsh
# methods and negative counts, that --cost-model rejects costs that are not
# finite and > 0, and that --deadline-ms, --max-pairwise and --max-hashes
# reject negative limits before the input is loaded.
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
rm -f "$csv" "$scratch"/shard_parity_clusters_*.csv

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
common=(--input="$csv" --columns=entity,text,vector --rule="$rule" --k=5
        --seed=11 --cost-model=1e-8,1e-6)

reference="$scratch/shard_parity_clusters_s1_t1.csv"
"$cli" "${common[@]}" --shards=1 --threads=1 --output="$reference" \
       2> /dev/null

for shards in 0 1 2 4; do
  for threads in 1 8; do
    out="$scratch/shard_parity_clusters_s${shards}_t${threads}.csv"
    "$cli" "${common[@]}" --shards="$shards" --threads="$threads" \
           --output="$out" 2> /dev/null
    if ! cmp -s "$reference" "$out"; then
      echo "FAIL: --shards=$shards --threads=$threads diverged" >&2
      diff "$reference" "$out" | head -5 >&2
      exit 1
    fi
  done
done

# --shards is the sharded adalsh executor; other methods must reject it.
if "$cli" "${common[@]}" --method=lsh --shards=2 > /dev/null 2>&1; then
  echo "FAIL: --method=lsh --shards=2 was accepted" >&2
  exit 1
fi
if "$cli" "${common[@]}" --shards=-1 > /dev/null 2>&1; then
  echo "FAIL: --shards=-1 was accepted" >&2
  exit 1
fi

# --cost-model takes two finite unit costs > 0; anything else is refused
# with exit 1 and a message naming the flag (a later flag overrides the
# pinned one in ${common[@]}).
for bad in nan,1e-6 -1,1e-6 0,0 1e-8,inf; do
  rc=0
  "$cli" "${common[@]}" --cost-model="$bad" > /dev/null \
         2> "$scratch/cost_model.err" || rc=$?
  if [[ $rc -ne 1 ]] || ! grep -q -- '--cost-model' "$scratch/cost_model.err"
  then
    echo "FAIL: --cost-model=$bad gave exit $rc, want a refusal (exit 1)" >&2
    cat "$scratch/cost_model.err" >&2
    exit 1
  fi
done

# A negative anytime limit is refused with exit 1 and a message naming the
# flag, before the input is loaded; 0 keeps meaning "no limit".
for bad in --deadline-ms=-5 --max-pairwise=-1 --max-hashes=-1; do
  rc=0
  "$cli" "${common[@]}" "$bad" > /dev/null 2> "$scratch/limit.err" || rc=$?
  if [[ $rc -ne 1 ]] || ! grep -q -- "${bad%%=*}" "$scratch/limit.err" ||
     grep -q '^loaded ' "$scratch/limit.err"; then
    echo "FAIL: $bad gave exit $rc, want a refusal before loading" >&2
    cat "$scratch/limit.err" >&2
    exit 1
  fi
done

echo "shard_parity OK: batch == S=1 == S=2 == S=4 at 1 and 8 threads"

#!/usr/bin/env bash
# Smoke test for deadline-aware anytime execution (docs/robustness.md): runs
# adalsh_cli with a deadline far below the full run's wall-clock cost on a
# Cora-like synthetic dataset, and validates that
#
#   * the CLI still exits 0 and emits a best-effort cluster CSV;
#   * stderr announces the early termination;
#   * the --stats-json report carries termination_reason != "completed",
#     a cluster_verification entry per returned cluster, and per-round
#     counters that still sum exactly to the totals (interrupted rounds
#     included);
#   * a second run with --max-pairwise trips the budget path the same way.
#
# Wired into ctest as `deadline_smoke` (mirrors tools/trace_smoke.sh).
#
# Usage: deadline_smoke.sh <adalsh_cli binary> <scratch dir>
set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 <adalsh_cli binary> <scratch dir>" >&2
  exit 2
fi

cli="$1"
scratch="$2"
mkdir -p "$scratch"
csv="$scratch/deadline_smoke_records.csv"
report="$scratch/deadline_smoke_report.json"
budget_report="$scratch/deadline_smoke_budget_report.json"
clusters="$scratch/deadline_smoke_clusters.csv"
stderr_log="$scratch/deadline_smoke_stderr.txt"
rm -f "$csv" "$report" "$budget_report" "$clusters" "$stderr_log"

# Cora-like synthetic dataset, sized so the full run takes well over the
# deadline: many large entities whose rows share most words, so
# verification needs real hashing and pairwise work. About 18k rows; the run
# without a deadline filters for 1.8-2.2 s at --threads=2 on a 4-vCPU x86
# host, 36-43x the deadline below.
python3 - "$csv" <<'EOF'
import random, sys
random.seed(7)
vocab = [f"tok{i}" for i in range(2000)]
rows = []
for e in range(60):
    base = random.sample(vocab, 40)
    for r in range(random.randint(200, 400)):
        words = list(base)
        for _ in range(random.randint(0, 8)):
            words[random.randrange(len(words))] = random.choice(vocab)
        rows.append((f"e{e}", " ".join(words)))
for s in range(400):
    rows.append((f"s{s}", " ".join(random.sample(vocab, 40))))
random.shuffle(rows)
open(sys.argv[1], "w").writelines(f"{e},{t}\n" for e, t in rows)
EOF

check_report() {
  local file="$1" want_reason="$2"
  python3 - "$file" "$want_reason" <<'EOF'
import json, sys
report = json.load(open(sys.argv[1]))
want = sys.argv[2]
reason = report["termination_reason"]
assert reason == want, f"termination_reason {reason!r}, want {want!r}"
# Anytime invariants hold in the partial report too: the per-round counters
# (interrupted rounds included) sum to the totals, and every treated record
# is counted exactly once.
totals = report["totals"]
rounds = report["rounds_detail"]
assert len(rounds) == totals["rounds"], (len(rounds), totals["rounds"])
for field in ("hashes_computed", "pairwise_similarities"):
    per_round = sum(r[field] for r in rounds)
    assert per_round == totals[field], (field, per_round, totals[field])
treated = sum(report["records_last_hashed_at"]) + \
    totals["records_finished_by_pairwise"]
assert treated == report["num_records"], (treated, report["num_records"])
assert isinstance(report["cluster_verification"], list)
EOF
}

# --- Deadline run: 50ms against a multi-second workload. ---
"$cli" --input="$csv" --columns=entity,text --rule="leaf(0;0.5)" \
       --k=5 --threads=2 --deadline-ms=50 --stats-json="$report" \
       --output="$clusters" 2> "$stderr_log"

if ! grep -q "terminated early (deadline)" "$stderr_log"; then
  echo "FAIL: stderr does not announce the deadline termination" >&2
  cat "$stderr_log" >&2
  exit 1
fi
if [[ ! -s "$clusters" ]]; then
  echo "FAIL: no best-effort cluster CSV written" >&2
  exit 1
fi
check_report "$report" deadline

# --- Budget run: a pairwise allowance the calibration alone can't respect
# staying under for long. ---
"$cli" --input="$csv" --columns=entity,text --rule="leaf(0;0.5)" \
       --k=5 --threads=2 --max-pairwise=2000 --stats-json="$budget_report" \
       > /dev/null 2> "$stderr_log"

if ! grep -q "terminated early (budget_exhausted)" "$stderr_log"; then
  echo "FAIL: stderr does not announce the budget termination" >&2
  cat "$stderr_log" >&2
  exit 1
fi
check_report "$budget_report" budget_exhausted

echo "deadline_smoke OK: $report $budget_report"

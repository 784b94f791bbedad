#!/usr/bin/env python3
"""Smoke test of the benchmark itself: tiny sizes, every workload,
untraced and traced, in well under a minute once built.

    python3 perfbench/smoke_test.py

Fails unless each run exits 0 with a well-formed result line whose metrics
are exactly BENCHMARK.json's (end-to-end untraced, per-layer traced) with
their units, the run is correct with no failed operation, every output
check ran and passed, the layers the workload exercises report values
above 0, and the traced accounting is sound: no layer's summed self time
and no residual is negative, and the residual is at most half of the
traced end-to-end time.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 7

CHECKS = {
    "batch": {"counts_repeat", "topk_repeat", "matches_resident_engine",
              "counts_match_seed"},
    "serve": {"replies_ok", "replay_replies_ok", "topk_repeat",
              "topk_matches_replay", "replay_matches_from_scratch",
              "counts_repeat", "counts_match_seed"},
}
# Per-layer metrics each workload must measure (non-zero), per the layer
# table in perfbench/README.md.
EXERCISED = {
    "batch_images10k": [
        "io.load_ms", "core.calibrate_ms", "core.sequence_build_ms",
        "core.hash_ms", "core.pairwise_ms", "clustering.select_merge_ms",
        "core.run_overhead_ms", "core.hashes", "core.similarities",
        "core.rounds", "core.hashes_per_topk_record",
        "lsh.hashes_per_s_serial", "lsh.hashes_per_s_parallel",
        "distance.similarities_per_s", "obs.trace_overhead_ratio"],
    "serve_bulk": [
        "core.hash_ms", "core.hashes", "core.rounds", "io.parse_us_per_row",
        "io.wal_append_us_p50", "io.wal_sync_ms_p50", "io.wal_frames",
        "io.wal_bytes_per_user_byte", "io.recovery_read_ms", "engine.open_s",
        "engine.ingest_ms_p50", "engine.update_ms_p50",
        "engine.remove_ms_p50", "engine.flush_ms_p50",
        "engine.flush_refined_per_delta", "engine.topk_us_p50",
        "engine.cluster_us_p50", "engine.snapshots", "serve.query_ms_p50",
        "serve.residual_ms_p50", "lsh.hashes_per_s_serial",
        "lsh.hashes_per_s_parallel", "obs.trace_overhead_ratio"],
}
RESIDUAL_SHARE_MAX = 0.5


def accounting_problems(table):
    """Problems with one accounting table: {"end_to_end_s", "layers_s",
    "residual_name"}, where layers_s holds each layer's summed self time and
    the residual. Rounding can leave an exact zero at -1e-18, hence the
    tolerance."""
    problems = [f"{name} self time {own:.3g} s < 0"
                for name, own in table["layers_s"].items() if own < -1e-9]
    residual = table["layers_s"].get(table["residual_name"])
    if residual is None:
        problems.append(f"no residual {table['residual_name']}")
    elif residual > RESIDUAL_SHARE_MAX * table["end_to_end_s"]:
        problems.append(f"residual {residual:.3g} s is over "
                        f"{RESIDUAL_SHARE_MAX} of "
                        f"{table['end_to_end_s']:.3g} s")
    return problems


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for name in EXERCISED:
        kind = "batch" if name.startswith("batch") else "serve"
        for trace in (0, 1):
            step = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", name,
                 "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
                 "--smoke"], cwd=ROOT, stdout=subprocess.PIPE, text=True)
            where = f"{name} trace={trace}"
            lines = step.stdout.strip().splitlines()
            if step.returncode != 0 or not lines:
                problems.append(f"{where}: exit {step.returncode}")
                continue
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] != 0 or \
                    result["attempted"] < 1:
                problems.append(f"{where}: correct={result['correct']} "
                                f"failed={result['failed']}")
            wanted = spec["per_layer" if trace else "end_to_end"]
            got = result["metrics"]
            if set(got) != {m["name"] for m in wanted}:
                problems.append(f"{where}: metric names differ")
            for metric in wanted:
                entry = got.get(metric["name"], {})
                if entry.get("unit") != metric["unit"]:
                    problems.append(f"{where}: {metric['name']} unit")
                if not trace and not entry.get("value", 0) > 0:
                    problems.append(f"{where}: {metric['name']} is not > 0")
            if trace:
                wall = [m["name"] for m in wanted
                        if m["name"].startswith("wall.")]
                for layer in EXERCISED[name] + wall:
                    if not got.get(layer, {}).get("value", 0) > 0:
                        problems.append(f"{where}: {layer} not measured")
            detail = json.loads((ROOT / ".bench_work" / "results" /
                                 f"{name}-smoke-s{SEED}-t{trace}.json")
                                .read_text())
            if set(detail["checks"]) != CHECKS[kind] or \
                    not all(detail["checks"].values()):
                problems.append(f"{where}: checks {detail['checks']}")
            if trace:
                acct = detail["accounting"]
                tables = [acct] + ([acct["setup"]]
                                   if "layers_s" in acct["setup"] else [])
                for table in tables:
                    problems += [f"{where}: accounting: {p}"
                                 for p in accounting_problems(table)]
            print(f"ok {where}" if not problems else f".. {where}",
                  flush=True)
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Summarize one result set, or compare two, under BENCHMARK.json's bounds.

    python3 perfbench/compare.py BASE.jsonl            # spread check
    python3 perfbench/compare.py BASE.jsonl NEW.jsonl  # before/after table

A result set is the JSONL file `run.py --record` (or `sweep.py`) appends to:
one {"workload", "seed", "trace", "result", "wall"} object per run. Only
untraced runs (trace 0) carry end-to-end metrics; their wall-clock `wall.*`
metrics and all traced (per-layer) metrics have no bound and get no
verdict.

Spread is the distance between the first and third quartile
(statistics.quantiles, n=4) as a share of the median. The comparison
pairs runs by seed (in recorded order when a seed repeats) and gives each
side's median and quartiles, the share of pairs the new side won (ties
count for neither), and a verdict:
  better      new wins >= 90% of pairs and the medians differ by more
              than the base's quartile distance
  worse       new median worse than the base median by more than the bound
  unresolved  the base spread exceeds the bound and not every new run
              reads better than every base run
  same        otherwise
"""

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path):
    runs = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            row = json.loads(line)
            metrics = row["result"]["metrics"]
            for name, value in row.get("wall", {}).items():
                metrics.setdefault(name, {"value": value})
            runs.setdefault((row["workload"], row["trace"]), []).append(row)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def metric_specs():
    spec = json.loads(BENCHMARK.read_text())
    specs = {m["name"]: dict(m, traces=(0,)) for m in spec["end_to_end"]}
    specs.update({m["name"]: dict(m, traces=(0, 1) if m["name"].startswith(
        "wall.") else (1,)) for m in spec["per_layer"]})
    return specs


def values_of(rows, name):
    return [r["result"]["metrics"][name]["value"] for r in rows
            if name in r["result"]["metrics"]]


def fmt(v):
    return f"{v:.4g}"


def summarize(base):
    specs = metric_specs()
    worst = 0.0
    print(f"{'workload':<18} {'metric':<32} {'n':>3} {'median':>11} "
          f"{'q1':>11} {'q3':>11} {'spread':>7} {'bound':>6}")
    for (workload, trace), rows in sorted(base.items()):
        bad = sum(1 for r in rows if not r["result"]["correct"])
        if bad:
            print(f"{workload:<18} {bad} of {len(rows)} runs not correct")
        for name, spec in specs.items():
            if trace not in spec["traces"]:
                continue
            values = values_of(rows, name)
            if not values:
                continue
            q1, mid, q3 = quartiles(values)
            spread = (q3 - q1) / mid if mid else 0.0
            bound = spec.get("bound")
            if bound is not None and name != "setup_s":
                worst = max(worst, spread / bound)
            print(f"{workload:<18} {name:<32} {len(values):>3} {fmt(mid):>11} "
                  f"{fmt(q1):>11} {fmt(q3):>11} {spread:>7.3f} "
                  f"{'' if bound is None else bound:>6}")
    print(f"\nlargest spread / bound (end-to-end, setup_s excluded): "
          f"{worst:.2f}")


def paired(base_rows, new_rows):
    queue = {}
    for row in new_rows:
        queue.setdefault(row["seed"], []).append(row)
    pairs = []
    for row in base_rows:
        if queue.get(row["seed"]):
            pairs.append((row, queue[row["seed"]].pop(0)))
    return pairs


def compare(base, new):
    specs = metric_specs()
    print(f"{'workload':<18} {'metric':<30} {'base median [q1,q3]':>30} "
          f"{'new median [q1,q3]':>30} {'change':>8} {'won':>5} verdict")
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        for name, spec in specs.items():
            if trace not in spec["traces"]:
                continue
            b, n = values_of(base[key], name), values_of(new[key], name)
            if not b or not n:
                continue
            bq1, bmid, bq3 = quartiles(b)
            nq1, nmid, nq3 = quartiles(n)
            lower = spec["better"] == "lower"
            pairs = [(values_of([x], name)[0], values_of([y], name)[0])
                     for x, y in paired(base[key], new[key])]
            wins = sum(1 for x, y in pairs if (y < x if lower else y > x))
            won = wins / len(pairs) if pairs else 0.0
            change = (nmid - bmid) / bmid if bmid else 0.0
            verdict = "-"
            bound = spec.get("bound")
            if bound is not None:
                worse_by = change if lower else -change
                if won >= 0.9 and abs(nmid - bmid) > (bq3 - bq1) and \
                        worse_by < 0:
                    verdict = "better"
                elif worse_by > bound:
                    verdict = "worse"
                elif bmid and (bq3 - bq1) / bmid > bound and not (
                        max(n) < min(b) if lower else min(n) > max(b)):
                    verdict = "unresolved"
                else:
                    verdict = "same"
            print(f"{workload:<18} {name:<30} "
                  f"{fmt(bmid) + ' [' + fmt(bq1) + ',' + fmt(bq3) + ']':>30} "
                  f"{fmt(nmid) + ' [' + fmt(nq1) + ',' + fmt(nq3) + ']':>30} "
                  f"{change:>+8.1%} {won:>5.0%} {verdict}")


def main():
    if len(sys.argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    base = load(sys.argv[1])
    if len(sys.argv) == 2:
        summarize(base)
    else:
        compare(base, load(sys.argv[2]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run the benchmark over many seeds and record a result set per checkout.

    python3 perfbench/sweep.py --seeds 1-10 --out results/ [--seconds S] \
        [--workloads a,b] [--trace 0] [--checkout PARENT --checkout CHANGE]

--seconds and --workloads default to BENCHMARK.json's run_seconds and
workloads.

Each checkout (default: the one holding this script) gets
`<out>/<label>.jsonl`, labelled by the checkout directory's name (prefixed
with its position when two names clash). With two
checkouts every seed runs on both, alternating which side goes first, as
perfbench/README.md's comparison procedure asks. Feed the files to
perfbench/compare.py.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=int,
                        default=BENCHMARK["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workloads", default=",".join(
        w["name"] for w in BENCHMARK["workloads"]))
    parser.add_argument("--checkout", action="append", default=[])
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    checkouts = [Path(c).resolve() for c in args.checkout] or [HERE.parent]
    labels = [c.name for c in checkouts]
    if len(set(labels)) < len(labels):
        labels = [f"{i}-{name}" for i, name in enumerate(labels)]
    label_of = dict(zip(checkouts, labels))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    failures = 0
    for workload in args.workloads.split(","):
        for i, seed in enumerate(args.seeds):
            order = checkouts if i % 2 == 0 else checkouts[::-1]
            for checkout in order:
                record = (out / f"{label_of[checkout]}.jsonl").resolve()
                step = subprocess.run(
                    [sys.executable, "perfbench/run.py", "--workload",
                     workload, "--seed", str(seed), "--seconds",
                     str(args.seconds), "--trace", str(args.trace),
                     "--record", str(record)],
                    cwd=checkout, stdout=subprocess.PIPE, text=True)
                last = (step.stdout.strip().splitlines() or ["(no output)"])[-1]
                print(f"{label_of[checkout]} {workload} seed={seed}: "
                      f"{last[:160]}",
                      flush=True)
                failures += step.returncode != 0
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

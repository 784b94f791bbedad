#!/usr/bin/env python3
"""Benchmark entry point for adalsh (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the library, `adalsh_cli` and the harness from source into
`.bench_build` (or $CARGO_TARGET_DIR), generates the workload's inputs for
the seed in an untimed step (cached under `.bench_work`), measures for S
seconds, checks every output, and prints one JSON object as the last line
of stdout: the end-to-end metrics with --trace 0, the per-layer metrics
with --trace 1.

Further options:
    --smoke          tiny sizes (perfbench/smoke_test.py)
    --record FILE    append {"workload", "seed", "trace", "result", "wall"}
                     to FILE (the result sets perfbench/compare.py reads)
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"
NPROC = os.cpu_count() or 1
THREADS = min(4, NPROC)  # engine threads: at most nproc, 4 on a 4-vCPU host
SERVE_RULE = "and(wavg(0,1;0.5,0.5;0.3), leaf(2;0.8))"
SERVE_COLUMNS = "text,text,text"
SERVE_SHARDS = 4
K = 10
ENGINE_SEED = 1  # hash-function seed; --seed drives the inputs only
MIN_SETUPS = 3  # serve set-up samples per run (setup_s is their median)
BATCH_PROBES = 5  # batch set-up/memory probe processes per run
BATCH_TIMERS = 4  # batch timing processes per run, seconds/4 each
TIMER_SETUPS = 3  # set-ups per batch timing process
CHILD_TIMEOUT_S = 120

# Each workload's shape and its pinned jump-to-P cost model. "smoke"
# overrides shrink them for perfbench/smoke_test.py.
WORKLOADS = {
    "batch_images10k": {
        "kind": "batch",
        "cost_model": "5e-8,5.5e-8",  # near this host's calibration median
        "records": 10000, "entities": 500, "zipf": 1.2, "degrees": 3.0,
        "smoke": {"records": 1000, "entities": 50},
    },
    "serve_bulk": {
        "kind": "serve",
        "cost_model": "1e-8,1e-6",  # the repo's established Cora-rule pin
        "preload": 4000, "entities": 3000, "pool": 26000, "tail": 2,
        "mutations": 80, "flush_every": 32, "mix": "8,1,1",
        "ingest_min": 256, "ingest_max": 512,
        "smoke": {"preload": 400, "entities": 300, "pool": 1500,
                  "mutations": 8, "flush_every": 4, "ingest_min": 32,
                  "ingest_max": 64},
    },
}

# name -> (unit, better); BENCHMARK.json carries the same lists. The
# bounded end-to-end metrics are CPU time of the measured process: on a
# shared 4-vCPU host, wall-clock medians of identical ten-seed sets moved by
# 30-50% with the host's load while CPU per operation moved 7%
# (perfbench/README.md, "Noise"). Wall-clock latencies stay as the
# unbounded wall.* metrics.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "records_per_cpu_s": ("1/s", "higher"),
    "op_cpu_ms_p50": ("ms", "lower"),
    "op_cpu_ms_p90": ("ms", "lower"),
    "certify_cpu_ms": ("ms", "lower"),
}
WALL = {
    "wall.setup_s": ("s", "lower"),
    "wall.records_per_s": ("1/s", "higher"),
    "wall.op_ms_p50": ("ms", "lower"),
    "wall.op_ms_p90": ("ms", "lower"),
    "wall.visible_ms_p50": ("ms", "lower"),
    "wall.visible_ms_p90": ("ms", "lower"),
}
PER_LAYER = {
    **WALL,
    "io.load_ms": ("ms", "lower"),
    "core.calibrate_ms": ("ms", "lower"),
    "core.sequence_build_ms": ("ms", "lower"),
    "core.hash_ms": ("ms", "lower"),
    "core.pairwise_ms": ("ms", "lower"),
    "clustering.select_merge_ms": ("ms", "lower"),
    "core.run_overhead_ms": ("ms", "lower"),
    "core.hashes": ("count", "lower"),
    "core.similarities": ("count", "lower"),
    "core.rounds": ("count", "lower"),
    "core.hashes_per_topk_record": ("count", "lower"),
    "lsh.hashes_per_s_serial": ("1/s", "higher"),
    "lsh.hashes_per_s_2threads": ("1/s", "higher"),
    "lsh.hashes_per_s_parallel": ("1/s", "higher"),
    "distance.similarities_per_s": ("1/s", "higher"),
    "io.parse_us_per_row": ("us", "lower"),
    "io.wal_append_us_p50": ("us", "lower"),
    "io.wal_sync_ms_p50": ("ms", "lower"),
    "io.wal_frames": ("count", "lower"),
    "io.wal_bytes_per_user_byte": ("ratio", "lower"),
    "io.wal_retries": ("count", "lower"),
    "io.recovery_read_ms": ("ms", "lower"),
    "engine.open_s": ("s", "lower"),
    "engine.ingest_ms_p50": ("ms", "lower"),
    "engine.update_ms_p50": ("ms", "lower"),
    "engine.remove_ms_p50": ("ms", "lower"),
    "engine.flush_ms_p50": ("ms", "lower"),
    "engine.flush_refined_per_delta": ("ratio", "lower"),
    "engine.lock_wait_ms": ("ms", "lower"),
    "engine.topk_us_p50": ("us", "lower"),
    "engine.cluster_us_p50": ("us", "lower"),
    "engine.snapshots": ("count", "lower"),
    "serve.query_ms_p50": ("ms", "lower"),
    "serve.residual_ms_p50": ("ms", "lower"),
    "obs.trace_overhead_ratio": ("ratio", "lower"),
}


class BenchError(Exception):
    """A failure that must end the run without a result line."""


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, q):
    """Nearest-rank percentile (q in 0..100) of a non-empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


# --- Build -------------------------------------------------------------


def build_dir():
    """This checkout's build tree. $CARGO_TARGET_DIR may be one absolute
    directory shared by several checkouts, so each checkout builds in its
    own subdirectory, named after its source directory."""
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    base = target if target.is_absolute() else ROOT / target
    tag = hashlib.sha1(str(BENCH).encode()).hexdigest()[:8]
    return base / f"perfbench-{tag}"


def cached_source_dir(out):
    """The source directory the build tree's CMake cache was made from."""
    for line in (out / "CMakeCache.txt").read_text().splitlines():
        if line.startswith("CMAKE_HOME_DIRECTORY:"):
            return Path(line.split("=", 1)[1]).resolve()
    return None


def build():
    """Configures and builds perfbench/CMakeLists.txt; returns the binaries."""
    for needed in (ROOT / "src" / "CMakeLists.txt",
                   ROOT / "tools" / "adalsh_cli.cc"):
        if not needed.exists():
            raise BenchError(f"source tree incomplete: {needed} is missing")
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    build_log = out / "perfbench-build.log"
    with open(build_log, "w") as logf:
        # Configure every time: cmake refuses a cache made from another
        # source directory instead of building that directory's code.
        generator = [] if (out / "CMakeCache.txt").exists() else \
            ["-G", "Ninja"] if shutil.which("ninja") else []
        step = subprocess.run(
            ["cmake", "-S", str(BENCH), "-B", str(out),
             "-DCMAKE_BUILD_TYPE=Release", *generator],
            stdout=logf, stderr=subprocess.STDOUT)
        if step.returncode != 0:
            raise BenchError(f"cmake configure failed; see {build_log}")
        if cached_source_dir(out) != BENCH:
            raise BenchError(f"{out} was configured for "
                             f"{cached_source_dir(out)}, not {BENCH}")
        step = subprocess.run(
            ["cmake", "--build", str(out), "-j", str(NPROC)],
            stdout=logf, stderr=subprocess.STDOUT)
        if step.returncode != 0:
            raise BenchError(f"build failed; see {build_log}")
    cli, harness = out / "adalsh_cli", out / "perfbench_harness"
    digest = hashlib.sha1()
    for binary in (cli, harness):
        digest.update(binary.read_bytes())
    return cli, harness, digest.hexdigest()[:12]


def run_harness(harness, args, timeout=CHILD_TIMEOUT_S):
    step = subprocess.run([str(harness), *args], stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=timeout,
                          cwd=ROOT)
    if step.returncode != 0:
        raise BenchError(f"harness {args[0]} failed: {step.stderr.strip()}")


# --- Inputs (untimed, cached per seed and build) ------------------------


def prepare_inputs(tag, shape, seed, cli, harness, build_key):
    """Generates the workload's inputs once per (seed, build)."""
    final = WORK / "inputs" / f"{tag}-s{seed}-{build_key}"
    if (final / "done").exists():
        return final
    staging = final.with_name(final.name + f".tmp{os.getpid()}")
    shutil.rmtree(staging, ignore_errors=True)
    staging.mkdir(parents=True)
    if shape["kind"] == "batch":
        run_harness(harness, [
            "gen-images", f"--seed={seed}", f"--records={shape['records']}",
            f"--entities={shape['entities']}", f"--zipf={shape['zipf']}",
            f"--degrees={shape['degrees']}",
            f"--out={staging / 'images.csv'}"])
    else:
        run_harness(harness, [
            "gen-serve", f"--seed={seed}", f"--out={staging}",
            *(f"--{key.replace('_', '-')}={shape[key]}" for key in (
                "preload", "pool", "entities", "tail", "mutations",
                "flush_every", "mix", "ingest_min", "ingest_max"))])
        # The measured build writes the data dir itself: preload commit,
        # checkpoint, a short WAL tail, then a clean quit.
        with open(staging / "preload.txt", "rb") as preload:
            step = subprocess.run(
                serve_command(cli, shape, staging / "data"), stdin=preload,
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                timeout=CHILD_TIMEOUT_S, cwd=ROOT)
        replies = step.stdout.decode().splitlines()
        if step.returncode != 0 or any(r.startswith("err") for r in replies):
            raise BenchError(f"preparing the {tag} data dir failed")
    (staging / "done").write_text("ok\n")
    shutil.rmtree(final, ignore_errors=True)
    staging.rename(final)
    return final


def serve_command(cli, shape, data_dir):
    return [str(cli), "serve", f"--columns={SERVE_COLUMNS}",
            f"--rule={SERVE_RULE}", f"--k={K}", f"--seed={ENGINE_SEED}",
            f"--threads={THREADS}", f"--shards={SERVE_SHARDS}", "--sync=batch",
            f"--cost-model={shape['cost_model']}", f"--data-dir={data_dir}"]


# --- Determinism guard ---------------------------------------------------


def check_counts(tag, seed, build_key, fingerprint):
    """Compares this run's exact work counts with earlier runs of the seed.

    The first run of a (workload, seed, build) records them; any later run
    whose counts differ is a failed run.
    """
    path = WORK / "counts" / f"{tag}-s{seed}-{build_key}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.exists():
        recorded = json.loads(path.read_text())
        if recorded["counts"] != fingerprint["counts"]:
            log(f"work counts differ from earlier runs of seed {seed}: "
                f"{recorded['counts']} vs {fingerprint['counts']}")
            return False
        return True
    path.write_text(json.dumps(fingerprint, sort_keys=True) + "\n")
    return True


# --- Batch workload --------------------------------------------------------


def run_batch(tag, shape, seed, seconds, trace, cli, harness, build_key):
    inputs = prepare_inputs(tag, shape, seed, cli, harness, build_key)
    out = WORK / "runs" / f"{tag}-{os.getpid()}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    common = [f"--csv={inputs / 'images.csv'}", f"--threads={THREADS}",
              f"--cost-model={shape['cost_model']}", f"--k={K}",
              f"--seed={ENGINE_SEED}", f"--degrees={shape['degrees']}",
              f"--out={out}"]

    def harness_batch(*args, timeout=CHILD_TIMEOUT_S):
        run_harness(harness, ["batch", *common, *args], timeout=timeout)
        data = json.loads(out.read_text())
        out.unlink()
        return data

    # Memory: each probe is a fresh process that loads the CSV, builds
    # AdaptiveLsh and runs once (a long process's peak RSS grows with its
    # Runs). A process-level effect (layout, vCPU placement) shifts a whole
    # process, so peak RSS is a median across processes rather than across
    # repeats inside one.
    probes = [harness_batch("--seconds=0", "--min-runs=1", "--setups=1",
                            "--check=0")
              for _ in range(BATCH_PROBES)]
    # Timing: the same split, for the same reason. Every process's Runs are
    # pooled; the last one also runs the output checks (and, traced, the
    # spans and lsh probes).
    timers = [harness_batch(f"--seconds={seconds / BATCH_TIMERS}",
                            f"--setups={TIMER_SETUPS}", "--check=0")
              for _ in range(BATCH_TIMERS - 1)]
    data = harness_batch(f"--seconds={seconds / BATCH_TIMERS}",
                         f"--trace={int(trace)}", f"--setups={TIMER_SETUPS}",
                         timeout=seconds + CHILD_TIMEOUT_S)
    timers.append(data)
    # One set-up takes about 0.1 s and back-to-back set-ups in one process
    # differ by up to 30%, so setup_s is the median of every set-up of the
    # run: one per probe, TIMER_SETUPS per timing process.
    setup_cpu_s = [t for p in probes + timers for t in p["setup_cpu_s"]]
    setup_s = [t for p in probes + timers for t in p["setup_s"]]

    counts = dict(data["counts"], wal_frames=0, wal_bytes=0, snapshots=0)
    fingerprint = {"counts": counts, "cost_model": shape["cost_model"],
                   "nproc": data["nproc"], "threads": data["threads"],
                   "simd_dot": data["simd_dot"],
                   "simd_minhash": data["simd_minhash"]}
    # Every Run of every process must do the same work and return the same
    # top-k: each process compares its Runs with its first, and the digests
    # of those first top-k's must agree with the one the last process
    # checked against the resident engine.
    checks = dict(data["checks"])
    checks["counts_repeat"] &= all(
        p["counts"] == data["counts"] and p["checks"]["counts_repeat"]
        for p in probes + timers)
    checks["topk_repeat"] &= all(
        p["topk_digest"] == data["topk_digest"] and p["checks"]["topk_repeat"]
        for p in probes + timers)
    checks["counts_match_seed"] = check_counts(tag, seed, build_key,
                                               fingerprint)
    run_s = [s for t in timers for s in t["run_s"]]
    cpu_s = [s for t in timers for s in t["cpu_s"]]
    runs_ms = [s * 1e3 for s in run_s]
    cpu_ms = [s * 1e3 for s in cpu_s]
    attempted = len(runs_ms) + len(checks)
    failed = sum(1 for ok in checks.values() if not ok)
    end_to_end = {
        "setup_s": median(setup_cpu_s),
        "peak_rss_mb": median([p["peak_rss_mb"] for p in probes]),
        "records_per_cpu_s": data["records"] / statistics.fmean(cpu_s),
        "op_cpu_ms_p50": percentile(cpu_ms, 50),
        "op_cpu_ms_p90": percentile(cpu_ms, 90),
        # A batch Run is itself the certification pass.
        "certify_cpu_ms": statistics.fmean(cpu_ms),
    }
    wall = {
        "wall.setup_s": median(setup_s),
        "wall.records_per_s": data["records"] / statistics.fmean(run_s),
        "wall.op_ms_p50": percentile(runs_ms, 50),
        "wall.op_ms_p90": percentile(runs_ms, 90),
        # A batch Run hands back the certified top-k: visible at return.
        "wall.visible_ms_p50": percentile(runs_ms, 50),
        "wall.visible_ms_p90": percentile(runs_ms, 90),
    }
    detail = {"fingerprint": fingerprint, "checks": checks,
              "samples": {"runs": len(runs_ms), "setups": len(setup_s)},
              "topk_sizes": data["topk_sizes"]}
    layers = {}
    if trace:
        layers, detail["accounting"] = batch_layers(data)
        layers.update(wall)
    return end_to_end, wall, layers, attempted, failed, detail


def hash_rates(rates):
    """lsh.hashes_per_s_* from the harness probe at 1, 2 and nproc workers."""
    names = ("lsh.hashes_per_s_serial", "lsh.hashes_per_s_2threads",
             "lsh.hashes_per_s_parallel")
    return dict(zip(names, rates))


def self_times(spans):
    """Self time per span index: duration minus the children's durations."""
    self_s = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            self_s[parent] -= end - start
    return self_s


def batch_layers(data):
    spans = data["spans"]
    self_s = self_times(spans)
    by_name = {}
    for (name, _, _, _, _), own in zip(spans, self_s):
        by_name.setdefault(name, []).append(own)
    hashes = data["counts"]["hashes"]
    sims = data["counts"]["similarities"]
    pairwise_ms = median(by_name.get("core.pairwise", [])) * 1e3
    layers = {
        "io.load_ms": median(by_name["io.load"]) * 1e3,
        "core.calibrate_ms": median(by_name["core.calibrate"]) * 1e3,
        "core.sequence_build_ms": median(by_name["core.sequence_build"]) * 1e3,
        "core.hash_ms": median(by_name["core.hash"]) * 1e3,
        "core.pairwise_ms": pairwise_ms,
        "clustering.select_merge_ms":
            median(by_name["clustering.select_merge"]) * 1e3,
        "core.run_overhead_ms": median(by_name["request"]) * 1e3,
        "core.hashes": hashes,
        "core.similarities": sims,
        "core.rounds": data["counts"]["rounds"],
        "core.hashes_per_topk_record": hashes / data["topk_records"],
        **hash_rates(data["hashes_per_s"]),
        "distance.similarities_per_s":
            sims / (pairwise_ms / 1e3) if pairwise_ms > 0 else 0.0,
        "obs.trace_overhead_ratio":
            median(data["traced_s"]) / median(data["untraced_s"]),
    }
    # Accounting identity over the traced Runs: layer self times plus the
    # residual (Run overhead) add up to the traced end-to-end time. The same
    # holds for the set-up spans (load + sequence build + calibration).
    accounting = {}
    for phase, root, residual in (("run", "request", "core.run_overhead"),
                                  ("setup", "setup", "setup.residual")):
        parts = {}
        total = 0.0
        for (name, start, end, _, request), own in zip(spans, self_s):
            if (request >= 0) != (phase == "run"):
                continue
            key = residual if name == root else name
            parts[key] = parts.get(key, 0.0) + own
            total += end - start if name == root else 0.0
        accounting[phase] = {"end_to_end_s": total, "layers_s": parts,
                             "residual_name": residual,
                             "sum_s": sum(parts.values())}
    return layers, dict(accounting["run"], setup=accounting["setup"])


# --- Serve workload ---------------------------------------------------------


def read_requests(script):
    """Groups script lines into requests exactly like `replay` does."""
    requests, ingest = [], []
    for line in script.read_text().splitlines():
        cmd = line.split(" ", 1)[0]
        if cmd in ("add", "commit"):
            ingest.append(line)
            if cmd == "commit":
                requests.append(("ingest", ingest))
                ingest = []
        else:
            requests.append((cmd, [line]))
    return requests


class ServeSession:
    """One adalsh_cli serve child on a fresh data-dir copy, one request in
    flight. Reads its peak RSS from wait4 when it exits."""

    def __init__(self, cli, shape, data_dir, stderr_path):
        self.spawned = time.perf_counter()
        self.stderr = open(stderr_path, "wb")
        self.proc = subprocess.Popen(
            serve_command(cli, shape, data_dir), stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, stderr=self.stderr, cwd=ROOT)
        self.timer = threading.Timer(CHILD_TIMEOUT_S, self.proc.kill)
        self.timer.daemon = True
        self.timer.start()
        self.peak_rss_mb = 0.0
        # The child's process-wide CPU clock (all threads, exited ones
        # included): Linux's MAKE_PROCESS_CPUCLOCK(pid, CPUCLOCK_SCHED).
        self.cpu_clock = (~self.proc.pid << 3) | 2

    def cpu_s(self):
        return time.clock_gettime(self.cpu_clock)

    def send(self, *lines):
        self.proc.stdin.write("".join(f"{line}\n" for line in lines).encode())
        self.proc.stdin.flush()

    def reply(self, cmd):
        """Reads one command's reply lines; returns (ok, lines)."""
        lines = []
        while True:
            raw = self.proc.stdout.readline()
            if not raw:
                raise BenchError("serve child closed its output")
            line = raw.decode().rstrip("\n")
            lines.append(line)
            if line.startswith("err"):
                return False, lines
            if cmd in ("topk", "cluster") and not line.startswith("ok"):
                continue
            return True, lines

    def close(self):
        try:
            if self.proc.poll() is None:
                self.send("quit")
                self.reply("quit")
                self.proc.stdin.close()
        except (BenchError, OSError):
            self.proc.kill()
        finally:
            _, status, usage = os.wait4(self.proc.pid, 0)
            self.proc.returncode = os.waitstatus_to_exitcode(status)
            self.peak_rss_mb = usage.ru_maxrss / 1024.0
            self.timer.cancel()
            self.proc.stdout.close()
            self.stderr.close()

    def request(self, op, lines):
        """Sends one request and reads every reply line; returns (ok, last
        reply). An ingest streams its `add` rows and `commit` in one write:
        one request in flight, each line answered by one reply line."""
        self.send(*lines)
        ok, last = True, []
        for line in lines:
            line_ok, last = self.reply(line.split(" ", 1)[0])
            ok &= line_ok
        return ok, last


def serve_pass(cli, shape, data, requests, scratch, setup_only=False,
               traced=False):
    """Runs the script once on a fresh copy of the data dir. Traced passes
    also keep one client span per request."""
    copy = scratch / "data"
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(data, copy)
    session = ServeSession(cli, shape, copy, scratch / "serve.stderr")
    result = {"errors": 0, "requests": 0, "op_ms": [], "visible_ms": [],
              "query_ms": [], "op_cpu_ms": [], "certify_cpu_ms": [],
              "spans": [], "records": 0}
    try:
        last_topk = []
        pending = []
        script_start = None
        for index, (op, lines) in enumerate(requests):
            if setup_only and index > 0:
                break
            if op == "cluster":
                # `cluster @R`: first member of rank R in the latest topk.
                rank = int(lines[0].split("@", 1)[1])
                pick = last_topk[rank - 1] if rank <= len(last_topk) \
                    else (last_topk[0] if last_topk else "0")
                lines = [f"cluster {pick}"]
            c0 = session.cpu_s()
            t0 = time.perf_counter()
            ok, reply = session.request(op, lines)
            t1 = time.perf_counter()
            cpu_ms = (session.cpu_s() - c0) * 1e3
            result["requests"] += 1
            if traced:
                result["spans"].append((op, t0, t1))
            if not ok:
                result["errors"] += 1
                log(f"err reply to {op}: {reply[-1][:200]}")
            if index == 0:
                # Request 0 is the first flush: set-up ends at its reply.
                result["setup_s"] = t1 - session.spawned
                result["setup_cpu_s"] = session.cpu_s()
                script_start = t1
                continue
            if op in ("ingest", "update", "remove"):
                result["op_ms"].append((t1 - t0) * 1e3)
                result["op_cpu_ms"].append(cpu_ms)
                pending.append(t0)
                result["records"] += (len(lines) - 1 if op == "ingest"
                                      else len(lines[0].split()) - 1
                                      if op == "remove" else 1)
            elif op == "flush":
                result["certify_cpu_ms"].append(cpu_ms)
                result["visible_ms"] += [(t1 - s) * 1e3 for s in pending]
                pending = []
            elif op == "topk":
                last_topk = [r.split("members=", 1)[1].split(",", 1)[0]
                             for r in reply if r.startswith("cluster ")]
                result["final_topk"] = "".join(
                    r + "\n" for r in reply if r.startswith("cluster "))
            if op in ("topk", "cluster"):
                result["query_ms"].append((t1 - t0) * 1e3)
        if not setup_only:
            result["wall_s"] = time.perf_counter() - script_start
            result["cpu_s"] = session.cpu_s() - result["setup_cpu_s"]
            session.send("stats")
            ok, reply = session.reply("stats")
            report = json.loads(reply[-1]) if ok else {}
            result["report"] = report
    finally:
        session.close()
        shutil.rmtree(copy, ignore_errors=True)
    if session.proc.returncode != 0:
        result["errors"] += 1
        log(f"serve child exited with {session.proc.returncode}")
    result["peak_rss_mb"] = session.peak_rss_mb
    return result


def child_counts(report):
    counters = report.get("counters", {})
    durability = report.get("durability", {})
    return {"hashes": counters.get("total_hashes"),
            "similarities": counters.get("total_similarities"),
            "snapshots": counters.get("generation"),
            "wal_frames": durability.get("wal_frames_appended"),
            "wal_bytes": durability.get("wal_bytes_appended")}


def run_serve(tag, shape, seed, seconds, trace, cli, harness, build_key):
    inputs = prepare_inputs(tag, shape, seed, cli, harness, build_key)
    requests = read_requests(inputs / "script.txt")
    scratch = WORK / "runs" / f"{tag}-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    try:
        return serve_measure(tag, shape, seed, seconds, trace, cli, harness,
                             build_key, inputs, requests, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def serve_measure(tag, shape, seed, seconds, trace, cli, harness, build_key,
                  inputs, requests, scratch):
    # Closed loop: whole script passes until the time is up (at least one;
    # with --trace 1, alternate untraced and traced client passes).
    passes = []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline or \
            (trace and len(passes) < 2):
        passes.append(serve_pass(cli, shape, inputs / "data", requests,
                                 scratch, traced=trace and len(passes) % 2))
    setups = passes[:]
    while len(setups) < MIN_SETUPS:
        setups.append(serve_pass(cli, shape, inputs / "data", requests,
                                 scratch, setup_only=True))

    # Second pass: in-process replay on another fresh copy, then the
    # from-scratch reference inside the harness.
    copy = scratch / "replay"
    shutil.copytree(inputs / "data", copy)
    wal_scratch = scratch / "wal"
    wal_scratch.mkdir()
    replay_out = scratch / "replay.json"
    run_harness(harness, [
        "replay", f"--dir={copy}", f"--script={inputs / 'script.txt'}",
        f"--columns={SERVE_COLUMNS}", f"--rule={SERVE_RULE}",
        f"--threads={THREADS}", f"--shards={SERVE_SHARDS}", f"--k={K}",
        f"--seed={ENGINE_SEED}", f"--cost-model={shape['cost_model']}",
        f"--trace={int(trace)}", f"--scratch={wal_scratch}",
        f"--out={replay_out}"], timeout=CHILD_TIMEOUT_S)
    replay = json.loads(replay_out.read_text())

    pass_counts = [child_counts(p.get("report", {})) for p in passes]
    fingerprint = {"counts": dict(replay["counts"],
                                  rounds=replay["script_work"]["rounds"]),
                   "cost_model": shape["cost_model"], "nproc": replay["nproc"],
                   "threads": replay["threads"],
                   "simd_dot": replay["simd_dot"],
                   "simd_minhash": replay["simd_minhash"]}
    checks = {
        "replies_ok": all(p["errors"] == 0 for p in passes),
        "replay_replies_ok": replay["failed"] == 0,
        "topk_repeat": len({p.get("final_topk") for p in passes}) == 1,
        "topk_matches_replay":
            all(p.get("final_topk") == replay["final_topk"] for p in passes),
        "replay_matches_from_scratch":
            replay["final_topk"] == replay["from_scratch_topk"] != "",
        "counts_repeat": all(c == replay["counts"] for c in pass_counts),
        "counts_match_seed": check_counts(tag, seed, build_key, fingerprint),
    }
    attempted = sum(p["requests"] for p in passes) + len(checks)
    failed = sum(p["errors"] for p in passes) + \
        sum(1 for ok in checks.values() if not ok)

    def pooled(key):
        return [v for p in passes for v in p[key]]

    records = sum(p["records"] for p in passes)
    op_cpu_ms = pooled("op_cpu_ms")
    end_to_end = {
        "setup_s": median([p["setup_cpu_s"] for p in setups]),
        "peak_rss_mb": median([p["peak_rss_mb"] for p in passes]),
        "records_per_cpu_s": records / sum(p["cpu_s"] for p in passes),
        "op_cpu_ms_p50": percentile(op_cpu_ms, 50),
        "op_cpu_ms_p90": percentile(op_cpu_ms, 90),
        # Mean per flush, median over passes: a pass's flushes certify
        # different deltas, so a percentile would jump between flush kinds
        # as the pass count changes.
        "certify_cpu_ms": median([statistics.fmean(p["certify_cpu_ms"])
                                  for p in passes]),
    }
    op_ms, visible_ms = pooled("op_ms"), pooled("visible_ms")
    wall = {
        "wall.setup_s": median([p["setup_s"] for p in setups]),
        "wall.records_per_s": records / sum(p["wall_s"] for p in passes),
        "wall.op_ms_p50": percentile(op_ms, 50),
        "wall.op_ms_p90": percentile(op_ms, 90),
        "wall.visible_ms_p50": percentile(visible_ms, 50),
        "wall.visible_ms_p90": percentile(visible_ms, 90),
    }
    detail = {"fingerprint": fingerprint, "checks": checks,
              "samples": {"passes": len(passes), "setups": len(setups),
                          "mutations": len(op_ms),
                          "visible": len(visible_ms)}}
    layers = {}
    if trace:
        layers, detail["accounting"] = serve_layers(passes, replay)
        layers.update(wall)
    return end_to_end, wall, layers, attempted, failed, detail


def serve_layers(passes, replay):
    # Passes alternate untraced (even) and traced (odd) client passes; the
    # traced one supplies the request spans the replay's layers fill.
    untraced = [p["wall_s"] for p in passes[0::2]]
    traced_passes = passes[1::2]
    client = traced_passes[0]["spans"]
    spans = replay["spans"]
    self_s = self_times(spans)
    by_name, per_request = {}, {}
    for (name, start, end, parent, request), own in zip(spans, self_s):
        by_name.setdefault(name, []).append(own)
        if request >= 0 and parent < 0:
            per_request[request] = per_request.get(request, 0.0) + end - start
    by_request_name = {}
    for (name, _, _, _, request), own in zip(spans, self_s):
        key = (request, name)
        by_request_name[key] = by_request_name.get(key, 0.0) + own

    residual_ms = []
    parts = {}
    for request, (op, t0, t1) in enumerate(client):
        covered = per_request.get(request, 0.0)
        residual_ms.append((t1 - t0 - covered) * 1e3)
    for (request, name), own in by_request_name.items():
        if request >= 0:
            parts[name] = parts.get(name, 0.0) + own
    end_to_end_s = sum(t1 - t0 for _, t0, t1 in client)
    parts["serve.residual"] = end_to_end_s - sum(parts.values())

    def appends_per_mutation():
        per = {}
        for (name, _, _, _, request), own in zip(spans, self_s):
            if name == "io.wal_append":
                per[request] = per.get(request, 0.0) + own
        return list(per.values())

    work = replay["script_work"]
    counts = replay["counts"]
    pairwise_s = work["pairwise_s"]
    rows = len(by_name.get("io.parse", []))
    topk_records = sum(
        len(line.split("members=", 1)[1].split(","))
        for line in replay["final_topk"].splitlines())
    query_ms = [v for p in traced_passes for v in p["query_ms"]]
    retries = max(
        (p.get("report", {}).get("durability", {}).get("wal_append_retries", 0)
         + p.get("report", {}).get("durability", {}).get("wal_sync_retries", 0)
         for p in passes), default=0)
    layers = {
        "core.hash_ms": work["hash_s"] * 1e3,
        "core.pairwise_ms": pairwise_s * 1e3,
        "clustering.select_merge_ms": work["select_merge_s"] * 1e3,
        "core.hashes": work["hashes"],
        "core.similarities": work["similarities"],
        "core.rounds": work["rounds"],
        "core.hashes_per_topk_record": work["hashes"] / max(1, topk_records),
        **hash_rates(replay["hashes_per_s"]),
        "distance.similarities_per_s":
            work["similarities"] / pairwise_s if pairwise_s > 0 else 0.0,
        "io.parse_us_per_row":
            sum(by_name.get("io.parse", [])) / rows * 1e6 if rows else 0.0,
        "io.wal_append_us_p50": median(appends_per_mutation()) * 1e6,
        "io.wal_sync_ms_p50": median(by_name.get("io.wal_sync", [])) * 1e3,
        "io.wal_frames": counts["wal_frames"],
        "io.wal_bytes_per_user_byte":
            counts["wal_bytes"] / replay["row_bytes"]
            if replay["row_bytes"] else 0.0,
        "io.wal_retries": retries + replay["wal_retries"],
        "io.recovery_read_ms": median(by_name["io.recovery_read"]) * 1e3,
        "engine.open_s": median(by_name["engine.open"]),
        "engine.ingest_ms_p50": median(by_name.get("engine.ingest", [])) * 1e3,
        "engine.update_ms_p50": median(by_name.get("engine.update", [])) * 1e3,
        "engine.remove_ms_p50": median(by_name.get("engine.remove", [])) * 1e3,
        "engine.flush_ms_p50": median(by_name.get("engine.flush", [])) * 1e3,
        "engine.flush_refined_per_delta":
            work["flush_refined"] / work["flush_deltas"]
            if work["flush_deltas"] else 0.0,
        "engine.lock_wait_ms": work["lock_wait_s"] * 1e3,
        "engine.topk_us_p50": median(by_name.get("engine.topk", [])) * 1e6,
        "engine.cluster_us_p50":
            median(by_name.get("engine.cluster", [])) * 1e6,
        "engine.snapshots": counts["snapshots"],
        "serve.query_ms_p50": percentile(query_ms, 50),
        "serve.residual_ms_p50": percentile(residual_ms, 50),
        "obs.trace_overhead_ratio":
            median([p["wall_s"] for p in traced_passes]) / median(untraced),
    }
    accounting = {"end_to_end_s": end_to_end_s, "layers_s": parts,
                  "residual_name": "serve.residual",
                  "sum_s": sum(parts.values()),
                  "setup": {"io.recovery_read_s":
                            median(by_name["io.recovery_read"]),
                            "engine.open_s": median(by_name["engine.open"])}}
    return layers, accounting


# --- Entry point ---------------------------------------------------------------


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record")
    args = parser.parse_args()

    shape = dict(WORKLOADS[args.workload])
    smoke = shape.pop("smoke")
    tag = args.workload
    if args.smoke:
        shape.update(smoke)
        tag += "-smoke"
    try:
        cli, harness, build_key = build()
        runner = run_batch if shape["kind"] == "batch" else run_serve
        end_to_end, wall, layers, attempted, failed, detail = runner(
            tag, shape, args.seed, args.seconds, bool(args.trace), cli,
            harness, build_key)
    except (BenchError, subprocess.TimeoutExpired, OSError, KeyError,
            ValueError) as error:
        log(f"error: {error}")
        return 1

    table = PER_LAYER if args.trace else END_TO_END
    values = layers if args.trace else end_to_end
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
               for name, (unit, _) in table.items()}
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    detail_path = WORK / "results" / f"{tag}-s{args.seed}-t{args.trace}.json"
    detail_path.parent.mkdir(parents=True, exist_ok=True)
    detail_path.write_text(json.dumps(
        {"end_to_end": end_to_end, "wall": wall, "per_layer": layers,
         **detail}, indent=1, sort_keys=True) + "\n")
    if args.record:
        with open(args.record, "a") as record:
            record.write(json.dumps({"workload": args.workload,
                                     "seed": args.seed, "trace": args.trace,
                                     "result": result, "wall": wall}) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

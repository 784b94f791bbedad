#!/usr/bin/env bash
# Build and run the test suite under a sanitizer.
#
#   tools/run_sanitized_tests.sh thread     # ThreadSanitizer   -> build-thread/
#   tools/run_sanitized_tests.sh address    # AddressSanitizer  -> build-address/
#   tools/run_sanitized_tests.sh undefined  # UBSanitizer       -> build-undefined/
#
# Every sanitizer build also defines ADALSH_ENABLE_DCHECKS (CMakeLists.txt),
# so ADALSH_DCHECK runs there and the death tests gated on it
# (CosineDistanceDeathTest) are compiled in; Release compiles both out.
#
# Extra arguments are forwarded to ctest, e.g. restrict to the concurrency
# suites while iterating:
#
#   tools/run_sanitized_tests.sh thread -R 'thread_pool|parallel_equivalence'
#   tools/run_sanitized_tests.sh thread -R 'metrics_registry|trace_recorder'
#
# The TSan run is the certification required by docs/threading.md for any
# change to the hash hot path (ThreadPool, HashEngine, HashCache,
# TransitiveHashFunction, CostModel::Calibrate) and by docs/observability.md
# for the obs layer (MetricsRegistry shards, TraceRecorder, the ParallelFor
# tracer hook). The UBSan run is required by docs/robustness.md for the
# anytime-execution machinery (RunController, the interrupted-sweep paths,
# FaultInjector):
#
#   tools/run_sanitized_tests.sh undefined -R 'run_controller|deadline_smoke'
#
# docs/engine.md requires the TSan run for any change to the resident engine
# (snapshot publication and the query read path run concurrently with
# mutations; the cross-shard merge, ResidentEngine::Merge, takes every
# shard's lock and reads its state while writers queue on those locks):
#
#   tools/run_sanitized_tests.sh thread -R 'resident_engine|engine_equivalence|shard_equivalence|engine_walk'
#
# A change to forest compaction (ParentPointerForest::Compact and the resident
# engine's remap of its refinement paths), to the arrival walk (which grows,
# splits and pends the trees on those paths), or to the merge's borrow of its
# shards' hash slots (HashCache::SwapSlot, HashEngine::SwapRecordHashes) needs
# the thread run over the engine suites — the merge writes shard caches under
# the shard locks while writers queue on them — and the address and
# undefined runs over the memory suites, where a stale NodeId or a slot that
# was never returned shows as a use-after-free or an out-of-bounds read:
#
#   tools/run_sanitized_tests.sh thread -R 'resident_engine|engine_equivalence|shard_equivalence|engine_soak|engine_walk'
#   tools/run_sanitized_tests.sh address -R 'parent_pointer_forest|hash_cache|shard_equivalence|engine_soak|engine_walk'
#   tools/run_sanitized_tests.sh undefined -R 'parent_pointer_forest|hash_cache|shard_equivalence|engine_soak|engine_walk'
#
# docs/sharding.md requires the TSan run for any change to the sharded
# executor (engine/sharded_executor.cc) or the cross-shard merge
# (ResidentEngine::Merge in engine/resident_engine.cc): shard locks are taken
# in bulk at Flush while per-shard mutations and global queries proceed
# concurrently, and the first ingest builds the shards while readers and
# other writers race it — ShardEquivalenceTest.FirstIngestRacesWithReaders
# in shard_equivalence:
#
#   tools/run_sanitized_tests.sh thread -R 'shard_equivalence|shard_parity'
#
# docs/observability.md requires the TSan run for any change to the
# telemetry plane (histogram shards, the serve-mode exporter thread, the
# trace ring) — the thread run finishes with a dedicated second pass over
# the telemetry suites, which exercise 4 concurrent writers against a shared
# registry and the exporter thread racing the serve loop:
#
#   tools/run_sanitized_tests.sh thread -R 'obs_histogram|engine_telemetry'
#
# docs/durability.md requires the address and undefined runs for any change
# to the WAL, checkpoint, or recovery code (src/io/wal.cc,
# src/io/checkpoint.cc, src/engine/durability.cc) — the frame decoder and
# replay paths parse attacker-shaped bytes (torn tails, bit flips, hostile
# length fields), which is exactly ASan/UBSan territory:
#
#   tools/run_sanitized_tests.sh address -R 'wal_test|wal_recovery|crash_smoke'
#
# docs/simd.md requires the address and undefined runs for any change to the
# vector kernels (util/simd_kernels.cc) or the SoA layouts feeding them
# (FeatureCache, RandomHyperplaneFamily): the main ctest pass runs unpinned,
# at the widest level the machine supports; the kernel suites then rerun
# pinned to scalar (ADALSH_SIMD=scalar) and to the widest level
# (ADALSH_SIMD=native), so out-of-bounds tail reads and misaligned vector
# loads show on both paths even when the main pass is filtered with -R.

set -euo pipefail

sanitizer="${1:-}"
case "${sanitizer}" in
  thread|address|undefined) shift ;;
  *)
    echo "usage: $0 <thread|address|undefined> [ctest args...]" >&2
    exit 2
    ;;
esac

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${repo_root}/build-${sanitizer}"

cmake -S "${repo_root}" -B "${build_dir}" -DADALSH_SANITIZE="${sanitizer}"
cmake --build "${build_dir}" -j "$(nproc)"

# halt_on_error makes a single race/report fail the test immediately instead
# of scrolling past inside otherwise-green output.
export TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}"
export ASAN_OPTIONS="halt_on_error=1 ${ASAN_OPTIONS:-}"
export UBSAN_OPTIONS="halt_on_error=1 print_stacktrace=1 ${UBSAN_OPTIONS:-}"

ctest --test-dir "${build_dir}" --output-on-failure "$@"

# Telemetry matrix (thread only): rerun the telemetry suites after the main
# pass. They are the races-by-construction set — per-thread histogram
# shards merged under concurrent writers, the serve exporter thread
# snapshotting mid-mutation, the capped trace ring — and a second pass gives
# a different interleaving a chance to surface under TSan.
if [[ "${sanitizer}" == "thread" ]]; then
  telemetry_suites='obs_histogram|engine_telemetry|metrics_registry|trace_recorder|telemetry_smoke'
  echo "=== telemetry suites under thread sanitizer (second pass) ==="
  ctest --test-dir "${build_dir}" --output-on-failure -R "${telemetry_suites}"
fi

# Durability matrix (address/undefined only — the WAL is serialized under
# the durable mutation lock, so the value here is memory safety of the frame
# decoder and replay paths, not interleavings): rerun the WAL, recovery, and
# kill-point suites after the main pass.
if [[ "${sanitizer}" != "thread" ]]; then
  durability_suites='wal_test|wal_recovery|crash_smoke'
  echo "=== durability suites under ${sanitizer} (second pass) ==="
  ctest --test-dir "${build_dir}" --output-on-failure -R "${durability_suites}"
fi

# Memory matrix (address/undefined only): rerun the suites that compact
# forests and borrow hash slots — forest compaction, the slot swap, the
# cross-shard merge, the churn soak and the arrival walk — so a stale NodeId
# or an unreturned slot shows even when the main pass is filtered with -R.
if [[ "${sanitizer}" != "thread" ]]; then
  memory_suites='parent_pointer_forest|hash_cache|shard_equivalence|engine_soak|engine_walk'
  echo "=== memory suites under ${sanitizer} (second pass) ==="
  ctest --test-dir "${build_dir}" --output-on-failure -R "${memory_suites}"
fi

# SIMD dispatch matrix (address/undefined only — the kernels hold no shared
# state worth a TSan pass): rerun the suites that drive the vector kernels
# with dispatch pinned to scalar and to the widest supported level.
if [[ "${sanitizer}" != "thread" ]]; then
  simd_suites='simd_kernels|simd_equivalence|cosine|rule_evaluator|hash_family|hash_cache|hyperplane_blocks|hash_engine|simd_parity'
  for level in scalar native; do
    echo "=== ADALSH_SIMD=${level}: kernel suites under ${sanitizer} ==="
    ADALSH_SIMD="${level}" \
      ctest --test-dir "${build_dir}" --output-on-failure -R "${simd_suites}"
  done
fi

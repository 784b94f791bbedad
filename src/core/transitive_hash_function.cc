#include "core/transitive_hash_function.h"

#include <algorithm>
#include <span>
#include <unordered_set>

#include "obs/metrics_registry.h"
#include "obs/trace_recorder.h"
#include "util/check.h"
#include "util/fault_injection.h"
#include "util/timer.h"

namespace adalsh {
namespace {

/// Records per fork/join region of the key phase, and the grain of its
/// cooperative checks and of the forest phase's kMerge site: large enough
/// to amortize the join, and the same input-deterministic boundaries at any
/// thread count.
constexpr size_t kKeyBlock = 8192;

/// Empty bucket, and "no predecessor" in the key buffer after phase 2.
constexpr RecordId kNoRecord = ~RecordId{0};

}  // namespace

TransitiveHasher::TransitiveHasher(HashEngine* engine,
                                   ParentPointerForest* forest,
                                   size_t num_records, ThreadPool* pool,
                                   Instrumentation instr,
                                   RunController* controller)
    : engine_(engine),
      forest_(forest),
      pool_(pool),
      instr_(instr),
      controller_(controller) {
  ADALSH_CHECK(engine != nullptr && forest != nullptr);
  leaf_of_.assign(num_records, kInvalidNode);
  leaf_epoch_.assign(num_records, 0);
}

void TransitiveHasher::GrowTo(size_t num_records) {
  if (num_records <= leaf_of_.size()) return;
  leaf_of_.resize(num_records, kInvalidNode);
  leaf_epoch_.resize(num_records, 0);
}

void TransitiveHasher::LinkBucketPredecessors(
    const std::vector<RecordId>& records, size_t num_tables) {
  const size_t m = records.size();
  size_t capacity = 2;
  while (capacity < 2 * m) capacity <<= 1;
  buckets_.resize(capacity);
  const size_t mask = capacity - 1;
  for (size_t t = 0; t < num_tables; ++t) {
    // Fresh buckets for every table of every invocation (Appendix B.2).
    std::fill(buckets_.begin(), buckets_.end(), Bucket{0, kNoRecord});
    uint64_t* keys = keys_.data() + t * m;
    for (size_t i = 0; i < m; ++i) {
      const uint64_t key = keys[i];
      // Keys are SplitMix64 outputs, so their low bits index uniformly.
      size_t s = key & mask;
      while (buckets_[s].last != kNoRecord && buckets_[s].key != key) {
        s = (s + 1) & mask;
      }
      Bucket& bucket = buckets_[s];
      keys[i] = bucket.last;  // the record this bucket held before records[i]
      bucket.key = key;
      bucket.last = records[i];  // buckets remember only the last-added record
    }
  }
}

std::vector<NodeId> TransitiveHasher::Apply(
    const std::vector<RecordId>& records, const SchemePlan& plan,
    int producer) {
  if (++epoch_ == 0) {
    // Wrapped: clear every stamp so no stale leaf can match the new epoch.
    std::fill(leaf_epoch_.begin(), leaf_epoch_.end(), 0);
    epoch_ = 1;
  }
  interrupted_ = false;

  const bool observed = instr_.enabled();
  const uint64_t hashes_before = engine_->total_hashes_computed();
  Timer timer;  // read only when observed
  TraceRecorder::Span span(instr_.trace, "hash_pass", "hash");

  const size_t m = records.size();
  const size_t num_tables = plan.tables.size();
  engine_->PreparePlan(plan);
  keys_.resize(m * num_tables);

  // Phase 1, keys: the hot path, fanned out over the pool. Each record's
  // cache slots and key column are touched by exactly one worker; the
  // fork/join orders these writes before the later phases read them.
  for (size_t base = 0; base < m; base += kKeyBlock) {
    // Block-boundary cooperative check, on the driving thread at
    // input-deterministic boundaries (fault-injection site kHashApply).
    FaultInjectionPoint(FaultSite::kHashApply);
    if (controller_ != nullptr) {
      controller_->ReportHashes(engine_->total_hashes_computed());
      if (controller_->ShouldStop()) {
        interrupted_ = true;
        break;
      }
    }
    const size_t count = std::min(kKeyBlock, m - base);
    // The block's slots grow here, in this thread's allocator arena (the
    // incremental-reuse ablation clears them on the workers instead).
    if (reuse_hashes_) {
      engine_->ReserveHashes(
          std::span<const RecordId>(records).subspan(base, count), plan);
    }
    ParallelFor(pool_, count, [&](size_t begin, size_t end) {
      for (size_t i = base + begin; i < base + end; ++i) {
        if (!reuse_hashes_) engine_->ClearHashes(records[i]);
        engine_->EnsureHashes(records[i], plan);
        engine_->TableKeys(records[i], plan, keys_.data() + i, m);
      }
    });
  }

  std::vector<NodeId> roots;
  if (!interrupted_) {
    // Phase 2, buckets: table by table.
    {
      TraceRecorder::Span buckets_span(instr_.trace, "buckets", "hash");
      buckets_span.AddArg("entries", static_cast<double>(m * num_tables));
      LinkBucketPredecessors(records, num_tables);
    }

    // Phase 3, forest: Fig. 19's cases, strictly serial and in record
    // order, so any thread count reproduces the single-threaded forest.
    auto has_leaf = [this](RecordId r) { return leaf_epoch_[r] == epoch_; };
    for (size_t base = 0; base < m; base += kKeyBlock) {
      FaultInjectionPoint(FaultSite::kMerge);
      const size_t count = std::min(kKeyBlock, m - base);
      TraceRecorder::Span merge_span(instr_.trace, "merge", "hash");
      merge_span.AddArg("records", static_cast<double>(count));
      for (size_t i = base; i < base + count; ++i) {
        const RecordId r = records[i];
        NodeId my_root = has_leaf(r) ? forest_->FindRoot(leaf_of_[r])
                                     : kInvalidNode;
        for (size_t t = 0; t < num_tables; ++t) {
          const uint64_t other = keys_[t * m + i];
          if (other == kNoRecord) {
            // Cases 1/2 (Fig. 19a): empty bucket. Create r's tree if it has
            // none; either way r is now the bucket's last-added record.
            if (my_root == kInvalidNode) {
              my_root = forest_->MakeTree(r, producer, &leaf_of_[r]);
              leaf_epoch_[r] = epoch_;
            }
            continue;
          }
          ADALSH_CHECK(has_leaf(static_cast<RecordId>(other)));
          const NodeId other_root = forest_->FindRoot(leaf_of_[other]);
          if (my_root == kInvalidNode) {
            // Case 3 (Fig. 19b): join the bucket's tree as a fresh leaf.
            leaf_of_[r] = forest_->AddLeaf(other_root, r);
            leaf_epoch_[r] = epoch_;
            my_root = other_root;
          } else if (my_root != other_root) {
            // Case 4 (Fig. 19c): merge the two trees.
            my_root = forest_->Merge(my_root, other_root);
          }
        }
        if (my_root == kInvalidNode) {
          // Degenerate plan with no tables: every record is its own cluster.
          forest_->MakeTree(r, producer, &leaf_of_[r]);
          leaf_epoch_[r] = epoch_;
        }
      }
    }

    // Collect the distinct roots of the invocation's trees.
    std::unordered_set<NodeId> seen;
    seen.reserve(m);
    for (RecordId r : records) {
      ADALSH_CHECK(has_leaf(r));
      NodeId root = forest_->FindRoot(leaf_of_[r]);
      if (seen.insert(root).second) roots.push_back(root);
    }
  }

  if (observed) {
    const uint64_t hashes = engine_->total_hashes_computed() - hashes_before;
    span.AddArg("function_index", static_cast<double>(producer));
    span.AddArg("records", static_cast<double>(m));
    span.AddArg("hashes", static_cast<double>(hashes));
    span.AddArg("clusters_out", static_cast<double>(roots.size()));
    if (instr_.metrics != nullptr) {
      instr_.metrics->AddCounter("hashes_computed", hashes);
      instr_.metrics->AddCounter("hash_passes", 1);
      // Bucket work: a completed pass inserts every record into every table.
      if (!interrupted_) {
        instr_.metrics->AddCounter("hash_table_entries", m * num_tables);
      }
      instr_.metrics->RecordValue("hash_pass_records",
                                  static_cast<double>(m));
    }
    if (instr_.observer != nullptr) {
      FunctionApplyInfo info;
      info.function_index = producer;
      info.records = m;
      info.hashes_computed = hashes;
      info.clusters_out = roots.size();
      info.seconds = timer.ElapsedSeconds();
      instr_.observer->OnFunctionApplied(info);
    }
  }
  return roots;
}

}  // namespace adalsh

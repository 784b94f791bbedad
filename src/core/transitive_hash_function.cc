#include "core/transitive_hash_function.h"

#include <algorithm>
#include <span>
#include <unordered_map>
#include <unordered_set>

#include "obs/metrics_registry.h"
#include "obs/trace_recorder.h"
#include "util/check.h"
#include "util/fault_injection.h"
#include "util/timer.h"

namespace adalsh {
namespace {

/// Records whose keys are computed per fork/join region. Bounds the key
/// buffer to kKeyBlock * num_tables values no matter how large the dataset
/// is, while keeping each fork large enough to amortize the join.
constexpr size_t kKeyBlock = 8192;

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

std::vector<NodeId> TransitiveHasher::Apply(
    const std::vector<RecordId>& records, const SchemePlan& plan,
    int producer) {
  ++epoch_;
  ADALSH_CHECK_NE(epoch_, 0u) << "epoch counter wrapped";
  interrupted_ = false;

  const bool observed = instr_.enabled();
  const uint64_t hashes_before = engine_->total_hashes_computed();
  Timer timer;  // read only when observed
  TraceRecorder::Span span(instr_.trace, "hash_pass", "hash");

  // Fresh tables for this invocation; buckets remember only the last-added
  // record (Appendix B.2).
  std::vector<std::unordered_map<uint64_t, RecordId>> tables(
      plan.tables.size());
  for (auto& table : tables) table.reserve(records.size() * 2);

  auto has_leaf = [this](RecordId r) { return leaf_epoch_[r] == epoch_; };

  const size_t num_tables = plan.tables.size();
  engine_->PreparePlan(plan);

  for (size_t base = 0; base < records.size(); base += kKeyBlock) {
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
    const size_t count = std::min(kKeyBlock, records.size() - base);
    std::span<const RecordId> block(records.data() + base, count);

    // Hot path, fanned out over the pool: per-record hash prefixes and all
    // bucket keys of the block. Each record's cache slots are touched by
    // exactly one worker; the fork/join below orders these writes before the
    // merge reads them.
    key_block_.resize(count * num_tables);
    ParallelFor(pool_, count, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        if (!reuse_hashes_) engine_->ClearHashes(block[i]);
        engine_->EnsureHashes(block[i], plan);
        for (size_t t = 0; t < num_tables; ++t) {
          key_block_[i * num_tables + t] =
              engine_->TableKey(block[i], plan.tables[t]);
        }
      }
    });

    // Stateful merge over precomputed keys: strictly serial, in record order,
    // so any thread count reproduces the single-threaded forest exactly.
    FaultInjectionPoint(FaultSite::kMerge);
    TraceRecorder::Span merge_span(instr_.trace, "merge", "hash");
    merge_span.AddArg("records", static_cast<double>(count));
    for (size_t i = 0; i < count; ++i) {
      RecordId r = block[i];
      for (size_t t = 0; t < num_tables; ++t) {
        uint64_t key = key_block_[i * num_tables + t];
        auto [it, inserted] = tables[t].try_emplace(key, r);
        if (inserted) {
          // Cases 1/2 (Fig. 19a): empty bucket. Create r's tree if it has
          // none; either way r is now the bucket's last-added record.
          if (!has_leaf(r)) {
            NodeId leaf = kInvalidNode;
            forest_->MakeTree(r, producer, &leaf);
            leaf_of_[r] = leaf;
            leaf_epoch_[r] = epoch_;
          }
          continue;
        }
        RecordId other = it->second;
        ADALSH_CHECK(has_leaf(other));
        NodeId other_root = forest_->FindRoot(leaf_of_[other]);
        if (!has_leaf(r)) {
          // Case 3 (Fig. 19b): join the bucket's tree as a fresh leaf.
          leaf_of_[r] = forest_->AddLeaf(other_root, r);
          leaf_epoch_[r] = epoch_;
        } else {
          // Case 4 (Fig. 19c): merge the two trees if they differ.
          NodeId my_root = forest_->FindRoot(leaf_of_[r]);
          if (my_root != other_root) forest_->Merge(my_root, other_root);
        }
        it->second = r;  // r is now the record last added to this bucket
      }
      if (plan.tables.empty() && !has_leaf(r)) {
        // Degenerate plan with no tables: every record is its own cluster.
        NodeId leaf = kInvalidNode;
        forest_->MakeTree(r, producer, &leaf);
        leaf_of_[r] = leaf;
        leaf_epoch_[r] = epoch_;
      }
    }
  }

  // Collect the distinct roots of the invocation's trees. Skipped on an
  // interrupted pass: records in unprocessed blocks have no leaf, and the
  // empty root set tells callers the round must be discarded.
  std::vector<NodeId> roots;
  if (!interrupted_) {
    std::unordered_set<NodeId> seen;
    seen.reserve(records.size());
    for (RecordId r : records) {
      ADALSH_CHECK(has_leaf(r));
      NodeId root = forest_->FindRoot(leaf_of_[r]);
      if (seen.insert(root).second) roots.push_back(root);
    }
  }

  if (observed) {
    const uint64_t hashes = engine_->total_hashes_computed() - hashes_before;
    span.AddArg("function_index", static_cast<double>(producer));
    span.AddArg("records", static_cast<double>(records.size()));
    span.AddArg("hashes", static_cast<double>(hashes));
    span.AddArg("clusters_out", static_cast<double>(roots.size()));
    if (instr_.metrics != nullptr) {
      instr_.metrics->AddCounter("hashes_computed", hashes);
      instr_.metrics->AddCounter("hash_passes", 1);
      instr_.metrics->RecordValue("hash_pass_records",
                                  static_cast<double>(records.size()));
    }
    if (instr_.observer != nullptr) {
      FunctionApplyInfo info;
      info.function_index = producer;
      info.records = records.size();
      info.hashes_computed = hashes;
      info.clusters_out = roots.size();
      info.seconds = timer.ElapsedSeconds();
      instr_.observer->OnFunctionApplied(info);
    }
  }
  return roots;
}

}  // namespace adalsh

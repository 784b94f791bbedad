#ifndef ADALSH_LSH_HASH_CACHE_H_
#define ADALSH_LSH_HASH_CACHE_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "lsh/hash_family.h"
#include "record/record.h"
#include "util/rng.h"

namespace adalsh {

/// Per-record cache of one hash family's raw values — the mechanism behind
/// the sequence's incremental-computation property (Section 2.2, Property 4
/// and Appendix B.2): "the computation of hashes is incremental and uses the
/// hashes computed from the previous function in the sequence".
///
/// Each record owns a growing prefix of the family's function stream. A
/// transitive hashing function asks the cache to Ensure() the prefix it
/// needs; anything already computed by earlier functions is reused for free.
///
/// Storage is compressed: binary families (random hyperplanes) pack one bit
/// per value; wide families (MinHash) keep 32 mixed bits per value, which
/// preserves equality semantics with 2^-32 per-function false-collision
/// probability — negligible next to the LSH scheme's own design error.
///
/// Concurrency contract (docs/threading.md): distinct records are independent
/// slots — Ensure/CombineRange/FoldRange for different RecordIds may run on
/// different threads concurrently, provided no two threads touch the same
/// record inside one fork/join region. The only cross-record state is the cost counter,
/// which is a relaxed atomic (its total is order-independent, so parallel and
/// serial runs report identical hash counts).
class HashCache {
 public:
  HashCache(std::unique_ptr<HashFamily> family, size_t num_records);

  HashCache(const HashCache&) = delete;
  HashCache& operator=(const HashCache&) = delete;
  HashCache(HashCache&& other) noexcept;

  /// Ensures values [0, count) are computed for record r. `record` must be
  /// the dataset record with id r.
  void Ensure(const Record& record, RecordId r, size_t count);

  /// Materializes the family's parameters for function indices [0, count).
  /// Must be called (from one thread) before Ensure runs concurrently for
  /// prefixes up to `count` — see HashFamily::Prepare.
  void Prepare(size_t count) { family_->Prepare(count); }

  /// Extends the per-record slot tables to `num_records` (no-op when already
  /// at least that large) so long-lived engines can ingest records appended
  /// to the dataset after construction. New slots start with an empty prefix;
  /// existing slots — and every cached value — are untouched, which is what
  /// makes cross-batch hash reuse sound: values depend only on record content
  /// and the family seed, never on when the record arrived. Call from the
  /// ingesting thread only, outside any concurrent Ensure region.
  void GrowTo(size_t num_records);

  /// Forgets record r's computed prefix: the next Ensure recomputes (and
  /// counts) every value from scratch. Same concurrency contract as Ensure.
  void Clear(RecordId r);

  /// Number of values computed so far for record r.
  size_t computed_count(RecordId r) const { return computed_[r]; }

  /// Copies record `src_record`'s computed prefix from `src` (a cache built
  /// over the same family seed and function stream) into this cache's slot
  /// for `dst_record`, replacing whatever shorter prefix it held. Hash
  /// values depend only on record content and the family seed, so when both
  /// caches index the same underlying record the copied prefix is exactly
  /// what this cache would have computed itself — the cross-shard merge uses
  /// this to assemble a global cache from shard caches without recomputing a
  /// single hash. Does NOT count toward total_hashes_computed(): adoption
  /// moves already-paid-for work. Call from one thread, outside any
  /// concurrent Ensure region.
  void AdoptPrefix(const HashCache& src, RecordId src_record,
                   RecordId dst_record);

  /// Folds values [begin, end) of record r into a running bucket key,
  /// word-at-a-time: binary families fold 64 packed bits per mix round, wide
  /// families two 32-bit values. Requires Ensure(record, r, end) to have
  /// happened (checked). Two records receive equal results iff (with
  /// overwhelming probability) their raw values agree on the whole range —
  /// this builds the AND-construction's concatenated bucket index.
  uint64_t CombineRange(RecordId r, size_t begin, size_t end,
                        uint64_t key) const {
    CheckComputed(r, end);
    return FoldRange(r, begin, end, key);
  }

  /// Aborts unless record r's computed prefix covers values [0, count).
  void CheckComputed(RecordId r, size_t count) const;

  /// CombineRange without its check, for callers that ran CheckComputed(r,
  /// end) once for many folds of the same record (HashEngine::TableKeys).
  uint64_t FoldRange(RecordId r, size_t begin, size_t end,
                     uint64_t key) const {
    if (binary_) {
      const uint64_t* blocks = bits_[r].data();
      // Fold whole and partial 64-bit blocks of the bit range.
      for (size_t j = begin; j < end;) {
        const size_t bit = j % 64;
        const size_t take = std::min<size_t>(64 - bit, end - j);
        uint64_t chunk = blocks[j / 64] >> bit;
        if (take < 64) chunk &= (uint64_t{1} << take) - 1;
        key = SplitMix64(key ^ chunk);
        j += take;
      }
      return key;
    }
    // Wide values fold word-at-a-time: two 32-bit mixed values pack into one
    // 64-bit word per SplitMix64 round, halving the mix chain that dominates
    // bucket-key construction. Packing is relative to `begin`, so two
    // records combining the same range get equal keys iff their values agree
    // on the whole range — the same equality semantics as the
    // value-at-a-time fold.
    const uint32_t* vals = values_[r].data();
    size_t j = begin;
    for (; j + 2 <= end; j += 2) {
      const uint64_t word = static_cast<uint64_t>(vals[j]) |
                            (static_cast<uint64_t>(vals[j + 1]) << 32);
      key = SplitMix64(key ^ word);
    }
    if (j < end) key = SplitMix64(key ^ vals[j]);
    return key;
  }

  /// Total raw hash evaluations performed through this cache (cost metric:
  /// the "number of hash functions applied" the paper's cost model counts).
  uint64_t total_hashes_computed() const {
    return total_computed_.load(std::memory_order_relaxed);
  }

  bool is_binary() const { return binary_; }

  /// Direct value access for tests: the stored (packed/mixed) value of
  /// function j for record r.
  uint64_t ValueForTest(RecordId r, size_t j) const;

 private:
  std::unique_ptr<HashFamily> family_;
  bool binary_;
  /// binary: bit-packed blocks per record; wide: 32-bit mixed values.
  std::vector<std::vector<uint64_t>> bits_;
  std::vector<std::vector<uint32_t>> values_;
  std::vector<size_t> computed_;
  std::atomic<uint64_t> total_computed_{0};
};

}  // namespace adalsh

#endif  // ADALSH_LSH_HASH_CACHE_H_

#include "lsh/hash_cache.h"

#include <algorithm>
#include <utility>

#include "util/check.h"
#include "util/rng.h"

namespace adalsh {

HashCache::HashCache(std::unique_ptr<HashFamily> family, size_t num_records)
    : family_(std::move(family)) {
  ADALSH_CHECK(family_ != nullptr);
  binary_ = family_->is_binary();
  if (binary_) {
    bits_.resize(num_records);
  } else {
    values_.resize(num_records);
  }
  computed_.assign(num_records, 0);
}

HashCache::HashCache(HashCache&& other) noexcept
    : family_(std::move(other.family_)),
      binary_(other.binary_),
      bits_(std::move(other.bits_)),
      values_(std::move(other.values_)),
      computed_(std::move(other.computed_)),
      total_computed_(
          other.total_computed_.load(std::memory_order_relaxed)) {}

void HashCache::GrowTo(size_t num_records) {
  if (num_records <= computed_.size()) return;
  if (binary_) {
    bits_.resize(num_records);
  } else {
    values_.resize(num_records);
  }
  computed_.resize(num_records, 0);
}

void HashCache::Ensure(const Record& record, RecordId r, size_t count) {
  ADALSH_CHECK_LT(r, computed_.size());
  size_t have = computed_[r];
  if (have >= count) return;
  if (binary_) {
    // The values up to the end of the block holding index have - 1 were
    // packed with it: only what lies past them is evaluated.
    const size_t packed = family_->PackEnd(have);
    if (count > packed) {
      std::vector<uint64_t>& words = bits_[r];
      words.resize((family_->PackEnd(count) + 63) / 64, 0);
      family_->PackRange(record, packed, count, words.data());
    }
  } else {
    // Per-thread scratch, not a member: Ensure runs concurrently for
    // distinct records, and only this buffer would be shared between them.
    thread_local std::vector<uint64_t> scratch;
    scratch.resize(count - have);
    family_->HashRange(record, have, count, scratch.data());
    std::vector<uint32_t>& vals = values_[r];
    vals.resize(count);
    for (size_t j = have; j < count; ++j) {
      vals[j] = static_cast<uint32_t>(SplitMix64(scratch[j - have]));
    }
  }
  total_computed_.fetch_add(count - have, std::memory_order_relaxed);
  computed_[r] = count;
}

void HashCache::Reserve(RecordId r, size_t count) {
  ADALSH_CHECK_LT(r, computed_.size());
  if (binary_) {
    bits_[r].reserve((family_->PackEnd(count) + 63) / 64);
  } else {
    values_[r].reserve(count);
  }
}

void HashCache::Clear(RecordId r) {
  ADALSH_CHECK_LT(r, computed_.size());
  if (binary_) {
    std::vector<uint64_t>().swap(bits_[r]);
  } else {
    std::vector<uint32_t>().swap(values_[r]);
  }
  computed_[r] = 0;
}

size_t HashCache::cached_values() const {
  size_t total = 0;
  for (size_t count : computed_) total += count;
  return total;
}

void HashCache::SwapSlot(RecordId r, HashCache* other, RecordId other_r) {
  ADALSH_CHECK_LT(r, computed_.size());
  ADALSH_CHECK_LT(other_r, other->computed_.size());
  ADALSH_CHECK_EQ(binary_, other->binary_);
  if (binary_) {
    bits_[r].swap(other->bits_[other_r]);
  } else {
    values_[r].swap(other->values_[other_r]);
  }
  std::swap(computed_[r], other->computed_[other_r]);
}

void HashCache::CheckComputed(RecordId r, size_t count) const {
  ADALSH_CHECK_LT(r, computed_.size());
  ADALSH_CHECK_LE(count, computed_[r]) << "fold past computed prefix";
}

uint64_t HashCache::ValueForTest(RecordId r, size_t j) const {
  ADALSH_CHECK_LT(r, computed_.size());
  ADALSH_CHECK_LT(j, computed_[r]);
  if (binary_) return (bits_[r][j / 64] >> (j % 64)) & 1;
  return values_[r][j];
}

}  // namespace adalsh

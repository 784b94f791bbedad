#include "lsh/hash_family.h"

namespace adalsh {

void HashFamily::PackRange(const Record& record, size_t begin, size_t end,
                           uint64_t* words) {
  // Per thread: HashCache::Ensure runs concurrently for distinct records.
  thread_local std::vector<uint64_t> values;
  values.resize(end - begin);
  HashRange(record, begin, end, values.data());
  for (size_t j = begin; j < end; ++j) {
    if (values[j - begin] & 1) words[j / 64] |= uint64_t{1} << (j % 64);
  }
}

void HashFamily::HashIndices(const Record& record, const size_t* indices,
                             size_t count, uint64_t* out) {
  for (size_t i = 0; i < count; ++i) {
    HashRange(record, indices[i], indices[i] + 1, &out[i]);
  }
}

}  // namespace adalsh

#ifndef ADALSH_LSH_HASH_FAMILY_H_
#define ADALSH_LSH_HASH_FAMILY_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "record/record.h"

namespace adalsh {

/// An indexed locality-sensitive hash family (Appendix A, Definition 4):
/// an unbounded stream of hash functions h_0, h_1, ... drawn deterministically
/// from the family's seed. The stream view is what makes the sequence's
/// *incremental computation* property (Section 2.2, Property 4) natural:
/// function H_i consumes the first w_i*z_i raw hashes of each record and
/// H_{i+1} extends the same stream, so earlier work is never repeated.
class HashFamily {
 public:
  virtual ~HashFamily() = default;

  /// Computes raw hash values for function indices [begin, end) applied to
  /// `record`, writing end-begin values into `out`. Implementations lazily
  /// materialize per-index function parameters, so indices may grow without
  /// bound.
  virtual void HashRange(const Record& record, size_t begin, size_t end,
                         uint64_t* out) = 0;

  /// Packs the values of function indices [begin, PackEnd(end)) of a binary
  /// family: ORs value j into bit j % 64 of words[j / 64] and leaves every
  /// other bit as it was, so `words` must cover (PackEnd(end) + 63) / 64
  /// words. This is the one way HashCache stores binary values. Default:
  /// HashRange into a per-thread buffer, then pack.
  virtual void PackRange(const Record& record, size_t begin, size_t end,
                         uint64_t* words);

  /// Indices per evaluation block: a family whose kernel evaluates
  /// pack_block() consecutive indices at once packs the whole block holding
  /// index end - 1, so later requests inside it cost nothing. Default 1.
  virtual size_t pack_block() const { return 1; }

  /// Where PackRange(record, begin, end, words) stops: `end` rounded up to a
  /// multiple of pack_block().
  size_t PackEnd(size_t end) const {
    const size_t block = pack_block();
    return (end + block - 1) / block * block;
  }

  /// Computes the values of `count` strictly ascending function indices:
  /// out[i] is the value HashRange gives index indices[i]. Default: one
  /// HashRange call per index. WeightedFieldFamily hands each per-field
  /// family its picked indices through this.
  virtual void HashIndices(const Record& record, const size_t* indices,
                           size_t count, uint64_t* out);

  /// Materializes per-index function parameters for indices [0, count).
  /// After Prepare(c), concurrent HashRange calls with end <= c are safe:
  /// they only read parameter state. Parameters are derived per index, so
  /// preparing in a different batching than lazy materialization yields the
  /// same functions. Default: no parameter state, nothing to do.
  virtual void Prepare(size_t count) { (void)count; }

  /// True when every raw hash value is a single bit (random hyperplanes).
  /// Callers may then pack cached values.
  virtual bool is_binary() const = 0;
};

}  // namespace adalsh

#endif  // ADALSH_LSH_HASH_FAMILY_H_

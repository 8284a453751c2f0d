// Blocked generated storage. A BlockSource produces the rows of one
// fixed-size block on demand from a per-block seed, building only the rows
// a caller wants. That lets Table expose 10^7-10^8-row datasets that are
// scanned one block at a time — peak memory is O(block), never O(table) —
// and sampled at the cost of the sampled rows' Values, while staying
// bit-deterministic: block b's contents depend only on (table seed, b), not
// on scan order, thread count or which rows are kept.
#ifndef CAPD_STORAGE_BLOCK_H_
#define CAPD_STORAGE_BLOCK_H_

#include <cstdint>
#include <vector>

#include "storage/value.h"

namespace capd {

// Rows per generated block. Small enough that one resident block of a wide
// schema stays in the low megabytes, large enough to amortize per-block
// generator setup.
inline constexpr uint64_t kDefaultBlockRows = 8192;

// Generates the rows of one block. Implementations MUST be deterministic
// per block — block b always yields the identical rows for a given source,
// typically by seeding a fresh Random with BlockSeed(table_seed, b) — and
// thread-safe for concurrent GenerateRows calls on distinct blocks
// (parallel materialization fans blocks across a ThreadPool).
class BlockSource {
 public:
  virtual ~BlockSource() = default;

  // Block `block_index` holds global rows [first_row, first_row + count).
  // Appends to *out the rows at the block-local offsets in *wanted (strictly
  // ascending, each < count), or all `count` rows when `wanted` is null.
  // Every row takes its full draw sequence whether it is kept or not, so a
  // kept row's bytes never depend on which other rows are wanted; only kept
  // rows pay for building their Values.
  virtual void GenerateRows(uint64_t block_index, uint64_t first_row,
                            uint64_t count, const std::vector<uint32_t>* wanted,
                            std::vector<Row>* out) const = 0;
};

// splitmix64 mix of (seed, block): decorrelates per-block RNG streams so
// neighboring blocks do not see shifted copies of one stream.
uint64_t BlockSeed(uint64_t seed, uint64_t block_index);

}  // namespace capd

#endif  // CAPD_STORAGE_BLOCK_H_

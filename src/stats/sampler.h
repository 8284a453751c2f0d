// Uniform and filtered samples (Section 4.1 / Appendix B.1). The Sample
// Manager amortizes the expensive part — drawing a uniform random sample —
// by taking ONE sample per table and reusing it for every index on that
// table; filtered samples for partial indexes are derived from it.
#ifndef CAPD_STATS_SAMPLER_H_
#define CAPD_STATS_SAMPLER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/random.h"
#include "index/index_def.h"
#include "storage/table.h"

namespace capd {

// Row count of a uniform sample of fraction f from n rows: round(n * f),
// floored at min_rows, never more than n. CreateUniformSample draws exactly
// this many rows, so a caller that needs only the count (a cost probe) can
// price a sample without drawing it.
uint64_t UniformSampleRows(uint64_t n, double f, uint64_t min_rows);

// Draws a uniform row sample of fraction f (UniformSampleRows rows). The
// sample is itself a Table, so every consumer (index builder, stats) works
// on it unchanged.
std::unique_ptr<Table> CreateUniformSample(const Table& table, double f,
                                           uint64_t min_rows, Random* rng);

// Applies a partial-index predicate to an existing sample (Appendix B.1:
// "SELECT * INTO SI1 FROM S_LINEITEM WHERE ...").
std::unique_ptr<Table> CreateFilteredSample(const Table& sample,
                                            const ColumnFilter& filter);

// Caches one uniform sample per (table, f) and filtered variants on top.
// Tracks how many base-table rows were scanned to build samples, the
// dominant cost the paper's Section 4.1 amortizes away.
//
// Thread-safe: the parallel estimation engine calls GetSample from pool
// workers. Each sample is drawn from its own RNG seeded by (seed, cache
// key), so sample contents are independent of creation order and the
// parallel path is bit-identical to the serial one. Returned Table
// references stay valid for the manager's lifetime (entries are never
// evicted).
class SampleManager {
 public:
  explicit SampleManager(uint64_t seed) : seed_(seed) {}

  // Returns the cached sample of `table` at fraction f, creating it on
  // first use.
  const Table& GetSample(const Table& table, double f);

  // Row count of GetSample(table, f), computed without drawing it: scans
  // nothing and leaves rows_scanned() and num_samples() unchanged.
  uint64_t SampleRows(const Table& table, double f) const;

  // Filtered sample for a partial index (cached by filter signature).
  const Table& GetFilteredSample(const Table& table, double f,
                                 const ColumnFilter& filter);

  // Total base-table rows scanned to materialize samples so far.
  uint64_t rows_scanned() const;
  size_t num_samples() const;

 private:
  // Both require mu_ held.
  const Table& GetSampleLocked(const Table& table, double f);
  Random RngFor(const std::string& key) const;

  // Smallest sample drawn from a table that has at least this many rows.
  static constexpr uint64_t kMinSampleRows = 50;

  const uint64_t seed_;
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Table>> samples_;
  uint64_t rows_scanned_ = 0;
};

}  // namespace capd

#endif  // CAPD_STATS_SAMPLER_H_

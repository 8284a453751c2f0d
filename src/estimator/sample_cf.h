// SampleCF (Section 2.2 / [11]) with the Section 4.1 extension: one shared
// uniform sample per table (via SampleManager), reused for every index on
// that table; filtered samples for partial indexes; MV samples supplied by
// a pluggable SampleSource (implemented over join synopses in src/mv).
#ifndef CAPD_ESTIMATOR_SAMPLE_CF_H_
#define CAPD_ESTIMATOR_SAMPLE_CF_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "catalog/database.h"
#include "index/index_builder.h"
#include "stats/sampler.h"

namespace capd {

// Resolves the sample (and full-size scaling info) for a named object.
// Base tables are served from the SampleManager; MVs from synopsis-derived
// MV samples (src/mv).
class SampleSource {
 public:
  virtual ~SampleSource() = default;

  // The sample table for `object` at sampling fraction f.
  virtual const Table& Sample(const std::string& object, double f) = 0;
  // Row count of Sample(object, f). Sources that know the count without
  // drawing (uniform samples of base tables) override this; the default
  // draws the sample.
  virtual uint64_t SampleRows(const std::string& object, double f) {
    return Sample(object, f).num_rows();
  }
  // Estimated number of tuples in the full object (for MVs this is the
  // Adaptive-Estimator prediction, Appendix B.3).
  virtual double FullTuples(const std::string& object) = 0;
  // Schema of the object (MVs may exist only as samples, not in the
  // catalog, so schema resolution goes through the source).
  virtual const Schema& ObjectSchema(const std::string& object) = 0;
};

// SampleSource over base tables.
class TableSampleSource : public SampleSource {
 public:
  TableSampleSource(const Database& db, SampleManager* samples)
      : db_(&db), samples_(samples) {}

  const Table& Sample(const std::string& object, double f) override {
    return samples_->GetSample(db_->table(object), f);
  }
  uint64_t SampleRows(const std::string& object, double f) override {
    return samples_->SampleRows(db_->table(object), f);
  }
  double FullTuples(const std::string& object) override {
    return static_cast<double>(db_->table(object).num_rows());
  }
  const Schema& ObjectSchema(const std::string& object) override {
    return db_->table(object).schema();
  }

 private:
  const Database* db_;
  SampleManager* samples_;
};

struct SampleCfResult {
  double cf = 1.0;           // compressed/uncompressed size ratio on sample
  double est_bytes = 0.0;    // estimated full compressed size
  double est_tuples = 0.0;   // estimated full entry count
  double est_uncompressed_bytes = 0.0;
  // Estimated full size under plain null suppression. For ORD-DEP methods
  // this isolates the order-independent share of the reduction, which the
  // ORD-DEP deduction must NOT rescale by the fragmentation ratio.
  double est_ns_bytes = 0.0;
  // The paper's estimation-cost metric: uncompressed data pages of the
  // index built on the sample (Section 5.1).
  double cost_pages = 0.0;
};

class SampleCfEstimator {
 public:
  SampleCfEstimator(const Database& db, SampleSource* source)
      : db_(&db), source_(source) {}

  // Runs SampleCF for `def` at sampling fraction f: builds the index (and
  // its uncompressed twin) on the object's sample and scales up.
  SampleCfResult Estimate(const IndexDef& def, double f);

  // SampleCF for several compression variants of ONE structure (all defs
  // must share StructureSignature()): the materialized sample rows, the
  // uncompressed reference pack and the null-suppression pack are computed
  // once and shared, so a group of N variants costs one materialize +
  // one plain pack + N compressed packs instead of N of each. Results are
  // bit-identical to calling Estimate() per def. Output in input order.
  std::vector<SampleCfResult> EstimateGroup(const std::vector<IndexDef>& defs,
                                            double f);

  // Deterministic uncompressed full size (no sampling needed: fixed row
  // width). `tuples` defaults to the full object row count adjusted by the
  // partial-index filter measured on the sample.
  double UncompressedFullBytes(const IndexDef& def, double tuples) const;
  double EstimateFullTuples(const IndexDef& def, double f);

  // Cost (in pages) that Estimate() would incur, without running it: the
  // uncompressed pages of the sample's rows. An index without a filter is
  // priced from SampleSource::SampleRows, which draws nothing for a base
  // table; a partial index draws the sample to count its filter hits.
  double PredictCostPages(const IndexDef& def, double f);

 private:
  const Database* db_;
  SampleSource* source_;
};

// Physically stored schema of `def` over a base schema (keys, then includes
// or remaining columns, plus the row locator for secondary indexes).
Schema StoredSchemaFor(const IndexDef& def, const Schema& base);

}  // namespace capd

#endif  // CAPD_ESTIMATOR_SAMPLE_CF_H_

#include "estimator/sample_cf.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "common/logging.h"

namespace capd {

SampleCfResult SampleCfEstimator::Estimate(const IndexDef& def, double f) {
  return EstimateGroup({def}, f).front();
}

SampleCfResult SampleCfEstimator::EstimateSortOrderDeduced(const IndexDef& def,
                                                           double f) {
  SampleCfResult r = Estimate(def, f);
  r.cost_pages = 0.0;  // the donor's sampled build already paid for the sample
  return r;
}

std::vector<SampleCfResult> SampleCfEstimator::EstimateGroup(
    const std::vector<IndexDef>& defs, double f) {
  CAPD_CHECK(!defs.empty());
  const Table& sample = source_->Sample(defs.front().object, f);
  IndexBuilder builder(sample);
  // The estimation path must never hold more than the sample: enforce it.
  builder.set_max_materialize_rows(sample.num_rows());

  // The structure (object/keys/includes/filter/clustered-ness) is shared,
  // so the materialized rows, their flat rendering and the uncompressed
  // reference pack are too.
  const std::vector<Row> rows = builder.MaterializeRows(defs.front());
  const FlatPage flat = FlatPage::FromRows(
      rows, builder.StoredSchema(defs.front()), 0, rows.size());
  const IndexPhysical plain = builder.Pack(
      defs.front().WithCompression(CompressionKind::kNone), rows, flat);
  // The ORD-DEP estimate needs the null-suppression (kRow) pack as its
  // order-independent baseline; computed once for the whole group, lazily.
  std::optional<IndexPhysical> ns;

  const double sample_rows = static_cast<double>(sample.num_rows());
  const double full_rows = source_->FullTuples(defs.front().object);

  std::vector<SampleCfResult> results;
  results.reserve(defs.size());
  for (const IndexDef& def : defs) {
    CAPD_CHECK(def.StructureSignature() == defs.front().StructureSignature())
        << def.ToString() << " vs " << defs.front().ToString();
    const IndexPhysical compressed = builder.Pack(def, rows, flat);

    SampleCfResult result;
    // Byte-granularity ratio: page counts quantize to 1 page on small
    // samples and would hide the compression entirely.
    result.cf = static_cast<double>(compressed.fine_bytes()) /
                static_cast<double>(std::max<uint64_t>(plain.fine_bytes(), 1));
    result.cost_pages = static_cast<double>(plain.data_pages);

    // Scale tuples: the filter's hit rate on the sample applied to the full
    // object's (estimated) tuple count.
    double filter_frac = 1.0;
    if (def.filter.has_value() && sample_rows > 0) {
      filter_frac = static_cast<double>(rows.size()) / sample_rows;
    }
    result.est_tuples = full_rows * filter_frac;

    result.est_uncompressed_bytes =
        UncompressedFullBytes(def, result.est_tuples);
    result.est_bytes = result.est_uncompressed_bytes * result.cf;
    if (IsOrderDependent(def.compression)) {
      if (!ns.has_value()) {
        ns = builder.Pack(def.WithCompression(CompressionKind::kRow), rows,
                          flat);
      }
      const double cf_ns =
          static_cast<double>(ns->fine_bytes()) /
          static_cast<double>(std::max<uint64_t>(plain.fine_bytes(), 1));
      result.est_ns_bytes = result.est_uncompressed_bytes * cf_ns;
    } else {
      result.est_ns_bytes = result.est_bytes;
    }
    results.push_back(result);
  }
  return results;
}

double SampleCfEstimator::UncompressedFullBytes(const IndexDef& def,
                                                double tuples) const {
  // Byte granularity throughout (page-count quantization would bury the
  // sampling error on laptop-scale data); consumers derive pages from it.
  const Schema stored =
      StoredSchemaFor(def, source_->ObjectSchema(def.object));
  const double row_bytes = stored.RowWidth() + kRowOverhead;
  return std::max(static_cast<double>(kPageCapacity), tuples * row_bytes);
}

double SampleCfEstimator::EstimateFullTuples(const IndexDef& def, double f) {
  const double full_rows = source_->FullTuples(def.object);
  if (!def.filter.has_value()) return full_rows;
  const Table& sample = source_->Sample(def.object, f);
  if (sample.num_rows() == 0) return 0.0;
  uint64_t hits = 0;
  for (const Row& r : sample.rows()) {
    if (def.filter->Matches(r, sample.schema())) ++hits;
  }
  return full_rows * static_cast<double>(hits) /
         static_cast<double>(sample.num_rows());
}

double SampleCfEstimator::PredictCostPages(const IndexDef& def, double f) {
  double sample_tuples = 0.0;
  if (!def.filter.has_value()) {
    sample_tuples = static_cast<double>(source_->SampleRows(def.object, f));
  } else {
    const Table& sample = source_->Sample(def.object, f);
    uint64_t hits = 0;
    for (const Row& r : sample.rows()) {
      if (def.filter->Matches(r, sample.schema())) ++hits;
    }
    sample_tuples = static_cast<double>(hits);
  }
  const Schema stored =
      StoredSchemaFor(def, source_->ObjectSchema(def.object));
  const double row_bytes = stored.RowWidth() + kRowOverhead;
  return std::max(1.0, std::ceil(sample_tuples * row_bytes / kPageCapacity));
}

Schema StoredSchemaFor(const IndexDef& def, const Schema& base) {
  std::vector<Column> cols;
  for (const std::string& name : def.StoredColumns(base)) {
    cols.push_back(base.column(base.ColumnIndex(name)));
  }
  if (!def.clustered) cols.push_back(Column{"__rowid", ValueType::kInt64, 8});
  return Schema(std::move(cols));
}

}  // namespace capd

#include "index/index_builder.h"

#include <algorithm>

#include "common/logging.h"
#include "compress/codec_factory.h"
#include "compress/flat_page.h"
#include "storage/encoding.h"

namespace capd {
namespace {

// Implicit row locator appended to secondary (non-clustered) indexes.
Column RowLocatorColumn() {
  return Column{"__rowid", ValueType::kInt64, 8};
}

// Locator values are page:slot style pointers in a real engine — high
// entropy, incompressible, and (critically for SampleCF) with the same
// entropy in a sample as in the full index. A sequential id would compress
// better in small samples and bias every size estimate low.
int64_t MixLocator(int64_t rowid) {
  uint64_t x = static_cast<uint64_t>(rowid) * 0x9E3779B97F4A7C15ull;
  return static_cast<int64_t>(x >> 16);  // 48-bit positive value
}

}  // namespace

Schema IndexBuilder::StoredSchema(const IndexDef& def) const {
  const Schema& base = table_->schema();
  std::vector<Column> cols;
  for (const std::string& name : def.StoredColumns(base)) {
    cols.push_back(base.column(base.ColumnIndex(name)));
  }
  if (!def.clustered) cols.push_back(RowLocatorColumn());
  return Schema(std::move(cols));
}

std::vector<Row> IndexBuilder::MaterializeRows(const IndexDef& def) const {
  const Schema& base = table_->schema();
  const std::vector<std::string> stored = def.StoredColumns(base);
  std::vector<size_t> positions;
  positions.reserve(stored.size());
  for (const std::string& name : stored) {
    positions.push_back(base.ColumnIndex(name));
  }

  std::vector<Row> rows;
  // Pre-size only when the table is already resident; for generated tables
  // the reservation would itself be the O(n) allocation we are avoiding.
  if (table_->materialized()) rows.reserve(table_->num_rows());
  table_->ScanRows([&](uint64_t global_idx, const Row& r) {
    // rowid stays the historical 1-based position so MixLocator emits the
    // exact locator stream the goldens pin.
    const int64_t rowid = static_cast<int64_t>(global_idx) + 1;
    if (def.filter.has_value() && !def.filter->Matches(r, base)) return;
    Row projected;
    projected.reserve(positions.size() + 1);
    for (size_t p : positions) projected.push_back(r[p]);
    if (!def.clustered) projected.push_back(Value::Int64(MixLocator(rowid)));
    rows.push_back(std::move(projected));
    CAPD_CHECK(max_materialize_rows_ == 0 ||
               rows.size() <= max_materialize_rows_)
        << "index materialization exceeded its memory budget of "
        << max_materialize_rows_ << " rows (table " << table_->name() << ")";
  });

  const size_t num_keys = def.key_columns.size();
  std::sort(rows.begin(), rows.end(), [num_keys](const Row& a, const Row& b) {
    for (size_t k = 0; k < num_keys; ++k) {
      const int c = a[k].Compare(b[k]);
      if (c != 0) return c < 0;
    }
    return false;
  });
  return rows;
}

IndexPhysical IndexBuilder::Build(const IndexDef& def) const {
  return Pack(def, MaterializeRows(def));
}

IndexPhysical IndexBuilder::Pack(const IndexDef& def,
                                 const std::vector<Row>& rows) const {
  return Pack(def, rows,
              FlatPage::FromRows(rows, StoredSchema(def), 0, rows.size()));
}

IndexPhysical IndexBuilder::Pack(const IndexDef& def,
                                 const std::vector<Row>& rows,
                                 const FlatPage& flat) const {
  CAPD_CHECK_EQ(flat.num_rows(), rows.size());
  std::unique_ptr<Codec> codec =
      MakeCodec(def.compression, StoredSchema(def), rows);
  IndexPhysical phys;
  phys.tuples = rows.size();
  const PackResult packed = PackPages(flat, *codec);
  phys.data_pages = packed.pages;
  phys.payload_bytes = packed.payload_bytes;
  phys.overhead_bytes = codec->IndexOverheadBytes();
  return phys;
}

double IndexBuilder::TrueCompressionFraction(const IndexDef& def) const {
  const std::vector<Row> rows = MaterializeRows(def);
  const FlatPage flat =
      FlatPage::FromRows(rows, StoredSchema(def), 0, rows.size());
  const IndexPhysical compressed = Pack(def, rows, flat);
  const IndexPhysical plain =
      Pack(def.WithCompression(CompressionKind::kNone), rows, flat);
  CAPD_CHECK_GT(plain.fine_bytes(), 0u);
  // Byte granularity: page counts quantize small indexes to CF = 1.
  return static_cast<double>(compressed.fine_bytes()) /
         static_cast<double>(plain.fine_bytes());
}

PackResult PackPages(const FlatPage& flat, const Codec& codec) {
  PackResult result;
  const size_t n = flat.num_rows();
  if (n == 0) {
    result.pages = 1;  // an index always has at least its root page
    return result;
  }
  uint64_t pages = 0;
  uint64_t payload = 0;
  size_t begin = 0;
  while (begin < n) {
    // One sizer per page answers every probe below; PAGE's answers by
    // lookup after one incremental pass over at most about twice the rows
    // the page takes. The probe sequence assumes nothing about how size
    // grows with the row count.
    const std::unique_ptr<PrefixSizer> sizer =
        codec.NewPrefixSizer(flat.span(begin, n));
    auto blob_size = [&](size_t rows) {
      return static_cast<size_t>(sizer->SizeOf(rows));
    };
    // Exponential probe for an upper bound on rows that fit.
    size_t lo = 1;  // we always place at least one row per page
    size_t hi = 1;
    while (begin + hi <= n && blob_size(hi) <= kPageCapacity) {
      if (begin + hi == n) break;
      lo = hi;
      hi = hi * 2;
    }
    size_t take;
    if (blob_size(std::min(hi, n - begin)) <= kPageCapacity) {
      take = std::min(hi, n - begin);
    } else {
      // Binary search in (lo, hi): lo fits, hi does not.
      size_t bad = std::min(hi, n - begin);
      size_t good = lo;
      while (good + 1 < bad) {
        const size_t mid = good + (bad - good) / 2;
        if (blob_size(mid) <= kPageCapacity) {
          good = mid;
        } else {
          bad = mid;
        }
      }
      take = good;
    }
    const size_t sz = blob_size(take);
    payload += sz;
    if (take == 1 && sz > kPageCapacity) {
      // One giant row: spill across multiple pages.
      pages += (sz + kPageCapacity - 1) / kPageCapacity;
    } else {
      pages += 1;
    }
    begin += take;
  }
  result.pages = pages;
  result.payload_bytes = payload;
  return result;
}

}  // namespace capd

#include "storage/table.h"

#include <algorithm>

#include "common/logging.h"
#include "common/thread_pool.h"

namespace capd {

Table::Table(std::string name, Schema schema, uint64_t num_rows,
             std::shared_ptr<const BlockSource> source, uint64_t block_rows)
    : name_(std::move(name)),
      schema_(std::move(schema)),
      source_(std::move(source)),
      generated_rows_(num_rows),
      block_rows_(block_rows) {
  CAPD_CHECK(source_ != nullptr) << "table " << name_;
  CAPD_CHECK_GT(block_rows_, 0u);
  // GenerateRows addresses rows by 32-bit block-local offsets.
  CAPD_CHECK_LE(block_rows_, uint64_t{UINT32_MAX});
}

const std::vector<Row>& Table::rows() const {
  CAPD_CHECK(materialized())
      << "table " << name_
      << " is generated; use ScanRows/CollectRows or Materialize()";
  return rows_;
}

void Table::AddRow(Row row) {
  CAPD_CHECK(materialized()) << "table " << name_;
  CAPD_CHECK_EQ(row.size(), schema_.num_columns()) << "table " << name_;
  rows_.push_back(std::move(row));
}

void Table::ScanRows(
    const std::function<void(uint64_t, const Row&)>& fn) const {
  if (materialized()) {
    for (uint64_t i = 0; i < rows_.size(); ++i) fn(i, rows_[i]);
    return;
  }
  std::vector<Row> block;
  const uint64_t n = num_rows();
  for (uint64_t b = 0; b < num_blocks(); ++b) {
    const uint64_t first = b * block_rows_;
    const uint64_t count = std::min(block_rows_, n - first);
    block.clear();
    source_->GenerateRows(b, first, count, /*wanted=*/nullptr, &block);
    CAPD_CHECK_EQ(block.size(), count) << "table " << name_ << " block " << b;
    for (uint64_t r = 0; r < count; ++r) fn(first + r, block[r]);
  }
}

std::vector<Row> Table::CollectRows(
    const std::vector<uint64_t>& sorted_indices) const {
  const uint64_t n = num_rows();
  for (size_t i = 0; i < sorted_indices.size(); ++i) {
    CAPD_CHECK_LT(sorted_indices[i], n) << "table " << name_;
    if (i > 0) {
      CAPD_CHECK_GT(sorted_indices[i], sorted_indices[i - 1])
          << "table " << name_ << ": indices must be strictly ascending";
    }
  }
  std::vector<Row> out;
  out.reserve(sorted_indices.size());
  if (materialized()) {
    for (uint64_t idx : sorted_indices) out.push_back(rows_[idx]);
    return out;
  }
  std::vector<uint32_t> wanted;
  size_t i = 0;
  while (i < sorted_indices.size()) {
    const uint64_t b = sorted_indices[i] / block_rows_;
    const uint64_t first = b * block_rows_;
    const uint64_t count = std::min(block_rows_, n - first);
    // Gather every requested index that falls inside this block.
    wanted.clear();
    for (; i < sorted_indices.size() && sorted_indices[i] < first + count;
         ++i) {
      wanted.push_back(static_cast<uint32_t>(sorted_indices[i] - first));
    }
    const size_t before = out.size();
    source_->GenerateRows(b, first, count, &wanted, &out);
    CAPD_CHECK_EQ(out.size() - before, wanted.size())
        << "table " << name_ << " block " << b;
  }
  return out;
}

std::unique_ptr<Table> Table::Materialize(ThreadPool* pool) const {
  auto out = std::make_unique<Table>(name_, schema_);
  out->Reserve(num_rows());
  if (materialized()) {
    for (const Row& r : rows_) out->AddRow(r);
    return out;
  }
  const uint64_t n = num_rows();
  const uint64_t blocks = num_blocks();
  // Each block is generated independently from its own seed, so the fan-out
  // is embarrassingly parallel and the block-order splice below makes the
  // result identical at any thread count.
  std::vector<std::vector<Row>> per_block(blocks);
  ParallelFor(pool, blocks, [&](size_t b) {
    const uint64_t first = static_cast<uint64_t>(b) * block_rows_;
    const uint64_t count = std::min(block_rows_, n - first);
    source_->GenerateRows(b, first, count, /*wanted=*/nullptr, &per_block[b]);
    CAPD_CHECK_EQ(per_block[b].size(), count)
        << "table " << name_ << " block " << b;
  });
  for (std::vector<Row>& rows : per_block) {
    for (Row& r : rows) out->AddRow(std::move(r));
  }
  return out;
}

uint64_t Table::HeapPages() const {
  const uint64_t row_bytes = schema_.RowWidth() + kRowOverhead;
  const uint64_t rows_per_page = kPageCapacity / row_bytes;
  CAPD_CHECK_GT(rows_per_page, 0u) << "row wider than a page";
  return (num_rows() + rows_per_page - 1) / rows_per_page;
}

}  // namespace capd

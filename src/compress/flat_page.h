// Flat columnar page representation: the one page format of the
// compression codecs, both their input and DecompressPage's output. A
// FlatPage renders a batch of rows into ONE arena-backed byte buffer laid
// out column-major (all of column 0's fixed-width cells, then column 1's,
// ...), with a per-column offset array into the arena. Cells are addressed
// as string_view FieldViews straight into the arena — building a page
// costs a handful of allocations total (arena + offset vectors) instead of
// one std::string per field, and a FlatSpan lets the page packer probe any
// contiguous row range without copying or re-encoding anything.
#ifndef CAPD_COMPRESS_FLAT_PAGE_H_
#define CAPD_COMPRESS_FLAT_PAGE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "storage/schema.h"

namespace capd {

// A field rendered to its fixed column width, viewed in place inside a
// FlatPage arena. Never owns memory; valid while the FlatPage lives.
using FieldView = std::string_view;

class FlatPage;

// Cheap view of the contiguous row range [begin, begin+rows) of a FlatPage.
// This is what the codecs consume: slicing is O(1), so the page packer can
// hand each page's remaining rows to a codec's prefix sizer
// (Codec::NewPrefixSizer) without copying or re-encoding a field.
class FlatSpan {
 public:
  FlatSpan() = default;
  FlatSpan(const FlatPage* page, size_t begin, size_t rows)
      : page_(page), begin_(begin), rows_(rows) {}

  size_t num_rows() const { return rows_; }
  size_t num_columns() const;
  uint32_t width(size_t c) const;
  const std::vector<uint32_t>& widths() const;

  // View of the span's first k rows (k <= num_rows()).
  FlatSpan first(size_t k) const;

  // Cell (span-local row r, column c) as a view into the page arena.
  FieldView field(size_t r, size_t c) const;

  // First byte of column c's first cell within the span. Column cells are
  // contiguous: cell r lives at column_data(c) + r * width(c). This is the
  // entry point for the SWAR/memcmp kernels.
  const char* column_data(size_t c) const;

 private:
  const FlatPage* page_ = nullptr;
  size_t begin_ = 0;
  size_t rows_ = 0;
};

class FlatPage {
 public:
  // Encodes rows[begin, end) under `schema` straight into the arena,
  // column-major. The arena is reserved to its exact final size up front:
  // one allocation regardless of row count or column widths.
  static FlatPage FromRows(const std::vector<Row>& rows, const Schema& schema,
                           size_t begin, size_t end);

  // A page of `rows` all-zero rows, to be filled through SetField: the
  // codecs decode into one of these.
  static FlatPage Zeroed(std::vector<uint32_t> widths, size_t rows);

  size_t num_rows() const { return rows_; }
  size_t num_columns() const { return widths_.size(); }
  uint32_t width(size_t c) const { return widths_[c]; }
  const std::vector<uint32_t>& widths() const { return widths_; }
  // Bytes per row across all columns (fields only, no row overhead).
  size_t row_width() const { return row_width_; }

  FieldView field(size_t r, size_t c) const {
    return FieldView(arena_.data() + col_offsets_[c] + r * widths_[c],
                     widths_[c]);
  }
  const char* column_data(size_t c) const {
    return arena_.data() + col_offsets_[c];
  }

  FlatSpan span() const { return FlatSpan(this, 0, rows_); }
  // View of rows [begin, end).
  FlatSpan span(size_t begin, size_t end) const;

  // Whole-page view; lets FlatPage be passed wherever a FlatSpan is taken.
  operator FlatSpan() const { return span(); }  // NOLINT(runtime/explicit)

  // Overwrites cell (r, c): the one write path into a page after it is
  // built. The cell must be exactly width(c) bytes, so a malformed blob
  // fails a CHECK instead of writing past its cell or the arena.
  void SetField(size_t r, size_t c, std::string_view cell);

  // Same widths, row count and cell bytes.
  friend bool operator==(const FlatPage& a, const FlatPage& b) {
    return a.rows_ == b.rows_ && a.widths_ == b.widths_ &&
           a.arena_ == b.arena_;
  }

 private:
  FlatPage(std::vector<uint32_t> widths, size_t rows);

  std::vector<uint32_t> widths_;
  std::vector<size_t> col_offsets_;  // arena byte offset of column c
  size_t rows_ = 0;
  size_t row_width_ = 0;
  std::string arena_;  // column-major cell bytes, one buffer for the page
};

// Widths vector for a schema (helper for page/codec construction).
std::vector<uint32_t> ColumnWidths(const Schema& schema);

inline size_t FlatSpan::num_columns() const { return page_->num_columns(); }
inline uint32_t FlatSpan::width(size_t c) const { return page_->width(c); }
inline const std::vector<uint32_t>& FlatSpan::widths() const {
  return page_->widths();
}
inline FieldView FlatSpan::field(size_t r, size_t c) const {
  return page_->field(begin_ + r, c);
}
inline const char* FlatSpan::column_data(size_t c) const {
  return page_->column_data(c) + begin_ * page_->width(c);
}

}  // namespace capd

#endif  // CAPD_COMPRESS_FLAT_PAGE_H_

#include "compress/page_codec.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <map>
#include <string_view>
#include <utility>

#include "common/logging.h"
#include "compress/null_suppression.h"
#include "compress/varint.h"

namespace capd {
namespace {

// Longest common prefix (in bytes) of a column's values within the span.
size_t CommonPrefixLen(const FlatSpan& span, size_t col) {
  const size_t n = span.num_rows();
  if (n == 0) return 0;
  const FieldView anchor = span.field(0, col);
  size_t len = anchor.size();
  for (size_t i = 1; i < n && len > 0; ++i) {
    const FieldView v = span.field(i, col);
    size_t k = 0;
    while (k < len && v[k] == anchor[k]) ++k;
    len = k;
  }
  return len;
}

// Per-column compression plan, shared between CompressPage and MeasurePage
// so the two can never disagree on a byte. Keys are views into the span's
// arena: counting, id assignment and per-cell probing all run on interned
// slices without copying a field.
struct ColumnPlan {
  size_t anchor_len = 0;
  // remainder -> dictionary id + 1 for repeated values, 0 for literals.
  // std::map gives deterministic (lexicographic) entry order.
  std::map<FieldView, uint32_t> code;
  std::vector<FieldView> dict;  // dictionary entries in id order

  ColumnPlan(const FlatSpan& span, size_t col) {
    anchor_len = CommonPrefixLen(span, col);
    const size_t n = span.num_rows();
    for (size_t i = 0; i < n; ++i) {
      ++code[span.field(i, col).substr(anchor_len)];  // count occurrences
    }
    // Values occurring >= 2 times go to the local dictionary; the rest are
    // stored literally (code 0).
    for (auto& [rem, entry] : code) {
      if (entry >= 2) {
        dict.push_back(rem);
        entry = static_cast<uint32_t>(dict.size());  // id + 1
      } else {
        entry = 0;
      }
    }
  }
};

// One column's share of MeasurePage, kept up to date as rows are appended.
// Values are counted by their full field bytes: under a shared anchor,
// equality and lexicographic order of the remainders match those of the
// full values, so only the remainders' NS sizes depend on the anchor. The
// anchor length only shrinks; each shrink recomputes those sizes over the
// column's distinct values.
class ColumnSizer {
 public:
  void Append(FieldView v) {
    if (distinct_.empty()) {
      anchor_ = v;
      anchor_len_ = v.size();
    } else {
      size_t len = 0;
      while (len < anchor_len_ && v[len] == anchor_[len]) ++len;
      if (len < anchor_len_) ShrinkAnchor(len);
    }
    if (2 * (distinct_.size() + 1) > slots_.size()) {
      Rehash(std::max<size_t>(16, 2 * slots_.size()));
    }
    uint32_t& slot = Slot(v);
    if (slot == 0) {  // first occurrence: a literal cell
      const auto ns =
          static_cast<uint32_t>(NsFieldSize(v.substr(anchor_len_)));
      distinct_.push_back({v, 1, ns});
      slot = static_cast<uint32_t>(distinct_.size());
      ++literals_;
      literal_ns_ += ns;
      return;
    }
    const uint32_t index = slot - 1;
    Distinct& d = distinct_[index];
    if (d.count == 1) {  // second occurrence: joins the dictionary
      --literals_;
      literal_ns_ -= d.ns;
      dict_ns_ += d.ns;
      const size_t rank = Rank(v);
      dict_.insert(dict_.begin() + rank, index);
      code_bytes_ += 2 * VarintSize(rank + 1);
      // Entries after `rank` moved up one id; the one that moved onto id
      // t + 1 = 128^j now needs one more varint byte in each of its cells.
      for (uint64_t t = 127; t < dict_.size(); t = 128 * t + 127) {
        if (rank < t) code_bytes_ += distinct_[dict_[t]].count;
      }
    } else {  // one more cell of an entry; ids below 128 take one byte
      code_bytes_ += dict_.size() < 128 ? 1 : VarintSize(Rank(v) + 1);
    }
    ++d.count;
  }

  // This column's bytes in MeasurePage of the rows appended so far.
  uint64_t Size() const {
    return VarintSize(anchor_len_) + anchor_len_ + VarintSize(dict_.size()) +
           dict_ns_ + literals_ * VarintSize(0) + literal_ns_ + code_bytes_;
  }

 private:
  struct Distinct {
    FieldView value;
    uint32_t count;
    uint32_t ns;  // NsFieldSize of the post-anchor remainder
  };

  void ShrinkAnchor(size_t len) {
    anchor_len_ = len;
    literal_ns_ = 0;
    dict_ns_ = 0;
    for (Distinct& d : distinct_) {
      d.ns = static_cast<uint32_t>(NsFieldSize(d.value.substr(len)));
      (d.count == 1 ? literal_ns_ : dict_ns_) += d.ns;
    }
  }

  // Number of dictionary entries lexicographically below v (v's id - 1 if
  // v is an entry).
  size_t Rank(FieldView v) const {
    return std::lower_bound(dict_.begin(), dict_.end(), v,
                            [this](uint32_t i, FieldView x) {
                              return distinct_[i].value < x;
                            }) -
           dict_.begin();
  }

  // Open-addressed slot holding v's distinct index + 1, or the empty (0)
  // slot where it belongs. The table is at most half full.
  uint32_t& Slot(FieldView v) {
    const size_t mask = slots_.size() - 1;
    for (size_t i = std::hash<FieldView>{}(v) & mask;; i = (i + 1) & mask) {
      uint32_t& s = slots_[i];
      if (s == 0 || distinct_[s - 1].value == v) return s;
    }
  }

  void Rehash(size_t capacity) {
    slots_.assign(capacity, 0);
    for (size_t i = 0; i < distinct_.size(); ++i) {
      Slot(distinct_[i].value) = static_cast<uint32_t>(i + 1);
    }
  }

  FieldView anchor_;  // the first value appended
  size_t anchor_len_ = 0;
  std::vector<Distinct> distinct_;  // in first-occurrence order
  std::vector<uint32_t> slots_;     // hash table over distinct_
  std::vector<uint32_t> dict_;      // distinct_ indices, count >= 2, by value
  uint64_t literals_ = 0;           // values seen once: one cell each
  uint64_t literal_ns_ = 0;         // their NS remainder bytes
  uint64_t dict_ns_ = 0;            // NS bytes of the dictionary entries
  uint64_t code_bytes_ = 0;         // varint id bytes of dictionary cells
};

// Records MeasurePage of every prefix of the span, appending rows only as
// far as the largest k queried.
class PagePrefixSizer : public PrefixSizer {
 public:
  explicit PagePrefixSizer(const FlatSpan& span)
      : span_(span), columns_(span.num_columns()) {
    Record();
  }

  uint64_t SizeOf(size_t k) override {
    CAPD_CHECK_LE(k, span_.num_rows());
    while (sizes_.size() <= k) {
      const size_t r = sizes_.size() - 1;
      for (size_t c = 0; c < columns_.size(); ++c) {
        columns_[c].Append(span_.field(r, c));
      }
      Record();
    }
    return sizes_[k];
  }

 private:
  void Record() {
    uint64_t total = VarintSize(sizes_.size());  // the row count
    for (const ColumnSizer& col : columns_) total += col.Size();
    sizes_.push_back(total);
  }

  FlatSpan span_;
  std::vector<ColumnSizer> columns_;
  std::vector<uint64_t> sizes_;  // sizes_[k]: MeasurePage of the first k rows
};

}  // namespace

// Blob layout:
//   varint n_rows
//   for each column:
//     varint anchor_len, anchor bytes
//     varint dict_count, dict entries (each: NS of the post-anchor remainder)
//     n_rows cells: varint code; code==0 -> literal NS remainder follows,
//                   code>=1  -> dictionary entry code-1.
std::string PageCodec::CompressPage(const FlatSpan& span) const {
  ValidateSpan(span);
  std::string blob;
  const size_t n = span.num_rows();
  PutVarint(n, &blob);
  for (size_t c = 0; c < num_columns(); ++c) {
    const ColumnPlan plan(span, c);
    PutVarint(plan.anchor_len, &blob);
    if (n > 0) blob.append(span.field(0, c).data(), plan.anchor_len);

    PutVarint(plan.dict.size(), &blob);
    for (const FieldView rem : plan.dict) NsCompressField(rem, &blob);

    for (size_t i = 0; i < n; ++i) {
      const FieldView rem = span.field(i, c).substr(plan.anchor_len);
      const uint32_t code = plan.code.find(rem)->second;
      PutVarint(code, &blob);
      if (code == 0) NsCompressField(rem, &blob);
    }
  }
  return blob;
}

uint64_t PageCodec::MeasurePage(const FlatSpan& span) const {
  ValidateSpan(span);
  const size_t n = span.num_rows();
  uint64_t total = VarintSize(n);
  for (size_t c = 0; c < num_columns(); ++c) {
    const ColumnPlan plan(span, c);
    total += VarintSize(plan.anchor_len) + plan.anchor_len;
    total += VarintSize(plan.dict.size());
    for (const FieldView rem : plan.dict) total += NsFieldSize(rem);

    for (size_t i = 0; i < n; ++i) {
      const FieldView rem = span.field(i, c).substr(plan.anchor_len);
      const uint32_t code = plan.code.find(rem)->second;
      total += VarintSize(code);
      if (code == 0) total += NsFieldSize(rem);
    }
  }
  return total;
}

std::unique_ptr<PrefixSizer> PageCodec::NewPrefixSizer(
    const FlatSpan& span) const {
  ValidateSpan(span);
  return std::make_unique<PagePrefixSizer>(span);
}

FlatPage PageCodec::DecompressPage(std::string_view blob) const {
  size_t offset = 0;
  const uint64_t n = GetVarint(blob, &offset);
  FlatPage page = FlatPage::Zeroed(widths_, n);
  std::vector<std::string> dict;  // reused across columns
  std::string cell;
  for (size_t c = 0; c < num_columns(); ++c) {
    const uint64_t anchor_len = GetVarint(blob, &offset);
    CAPD_CHECK_LE(anchor_len, widths_[c]) << "anchor longer than its column";
    CAPD_CHECK_LE(offset + anchor_len, blob.size());
    const std::string_view anchor = blob.substr(offset, anchor_len);
    offset += anchor_len;
    const uint32_t rem_width = widths_[c] - static_cast<uint32_t>(anchor_len);

    const uint64_t dict_count = GetVarint(blob, &offset);
    dict.clear();
    dict.reserve(dict_count);
    for (uint64_t d = 0; d < dict_count; ++d) {
      std::string rem;
      rem.reserve(rem_width);
      NsDecompressField(blob, &offset, rem_width, &rem);
      dict.push_back(std::move(rem));
    }

    for (uint64_t i = 0; i < n; ++i) {
      const uint64_t code = GetVarint(blob, &offset);
      cell.assign(anchor);
      if (code == 0) {
        NsDecompressField(blob, &offset, rem_width, &cell);
      } else {
        CAPD_CHECK_LE(code, dict.size());
        cell.append(dict[code - 1]);
      }
      page.SetField(i, c, cell);
    }
  }
  return page;
}

}  // namespace capd

#include "compress/codec.h"

#include "common/logging.h"
#include "compress/null_suppression.h"
#include "compress/varint.h"

namespace capd {
namespace {

// The default sizer: every query is a full MeasurePage of the prefix.
class MeasuringPrefixSizer : public PrefixSizer {
 public:
  MeasuringPrefixSizer(const Codec& codec, const FlatSpan& span)
      : codec_(&codec), span_(span) {}

  uint64_t SizeOf(size_t k) override {
    return codec_->MeasurePage(span_.first(k));
  }

 private:
  const Codec* codec_;
  FlatSpan span_;
};

}  // namespace

std::unique_ptr<PrefixSizer> Codec::NewPrefixSizer(const FlatSpan& span) const {
  return std::make_unique<MeasuringPrefixSizer>(*this, span);
}

void Codec::ValidateSpan(const FlatSpan& span) const {
  CAPD_CHECK_EQ(span.num_columns(), num_columns());
  for (size_t c = 0; c < num_columns(); ++c) {
    CAPD_CHECK_EQ(span.width(c), widths_[c]);
  }
}

std::string NoneCodec::CompressPage(const FlatSpan& span) const {
  ValidateSpan(span);
  const size_t n = span.num_rows();
  std::string blob;
  blob.reserve(MeasurePage(span));
  PutVarint(n, &blob);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < num_columns(); ++c) blob.append(span.field(r, c));
    blob.append(kRowOverhead, '\0');  // slot-array cost of the row format
  }
  return blob;
}

uint64_t NoneCodec::MeasurePage(const FlatSpan& span) const {
  ValidateSpan(span);
  const uint64_t n = span.num_rows();
  return VarintSize(n) + n * (row_width() + kRowOverhead);
}

FlatPage NoneCodec::DecompressPage(std::string_view blob) const {
  size_t offset = 0;
  const uint64_t n = GetVarint(blob, &offset);
  FlatPage page = FlatPage::Zeroed(widths_, n);
  for (uint64_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < num_columns(); ++c) {
      CAPD_CHECK_LE(offset + widths_[c], blob.size());
      page.SetField(r, c, blob.substr(offset, widths_[c]));
      offset += widths_[c];
    }
    offset += kRowOverhead;
  }
  return page;
}

std::string RowCodec::CompressPage(const FlatSpan& span) const {
  ValidateSpan(span);
  const size_t n = span.num_rows();
  std::string blob;
  blob.reserve(MeasurePage(span));
  PutVarint(n, &blob);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < num_columns(); ++c) {
      NsCompressField(span.field(r, c), &blob);
    }
  }
  return blob;
}

uint64_t RowCodec::MeasurePage(const FlatSpan& span) const {
  ValidateSpan(span);
  const uint64_t n = span.num_rows();
  uint64_t total = VarintSize(n);
  // Column-major: each column's cells are contiguous, so the SWAR
  // CountLeadingZeros kernel streams straight through the arena. Stored NS
  // bytes per cell are 1 + width - leading_zeros.
  for (size_t c = 0; c < num_columns(); ++c) {
    const uint32_t w = widths_[c];
    CAPD_CHECK_LE(w, 255u);
    const char* base = span.column_data(c);
    uint64_t zeros = 0;
    for (uint64_t r = 0; r < n; ++r) {
      zeros += CountLeadingZeros(FieldView(base + r * w, w));
    }
    total += n * (1 + static_cast<uint64_t>(w)) - zeros;
  }
  return total;
}

FlatPage RowCodec::DecompressPage(std::string_view blob) const {
  size_t offset = 0;
  const uint64_t n = GetVarint(blob, &offset);
  FlatPage page = FlatPage::Zeroed(widths_, n);
  std::string cell;  // reused: capacity sticks at the widest column
  for (uint64_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < num_columns(); ++c) {
      cell.clear();
      NsDecompressField(blob, &offset, widths_[c], &cell);
      page.SetField(r, c, cell);
    }
  }
  return page;
}

}  // namespace capd

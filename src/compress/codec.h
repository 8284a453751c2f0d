// Page codec interface plus the trivial (NONE) and ROW (null suppression)
// codecs. A codec turns one flat columnar span (FlatSpan: rows with fixed
// width fields in a single arena) into a self-describing byte blob and back
// into a FlatPage; blob size is what the index builder packs against the
// 8 KiB page capacity.
//
// Two entry points per codec, with a pinned contract:
//   - CompressPage(span): materializes the blob (round-trips through
//     DecompressPage);
//   - MeasurePage(span):  the exact blob size in bytes WITHOUT building it.
//     MeasurePage(s) == CompressPage(s).size() for every codec and span —
//     the size-only path is what SampleCF drives, so the estimation hot
//     loop never materializes compressed output at all.
// The page packer sizes prefixes of one span through NewPrefixSizer, whose
// SizeOf(k) equals MeasurePage of the span's first k rows.
#ifndef CAPD_COMPRESS_CODEC_H_
#define CAPD_COMPRESS_CODEC_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "compress/compression_kind.h"
#include "compress/flat_page.h"

namespace capd {

// Exact sizes of the prefixes of one span, for the page packer's probes.
// SizeOf(k) == MeasurePage(span.first(k)) for every k in [0, rows], queried
// in any order. Not thread-safe; valid while the span's FlatPage lives.
class PrefixSizer {
 public:
  virtual ~PrefixSizer() = default;
  virtual uint64_t SizeOf(size_t k) = 0;
};

class Codec {
 public:
  explicit Codec(std::vector<uint32_t> widths) : widths_(std::move(widths)) {
    for (uint32_t w : widths_) row_width_ += w;
  }
  virtual ~Codec() = default;

  Codec(const Codec&) = delete;
  Codec& operator=(const Codec&) = delete;

  virtual CompressionKind kind() const = 0;

  // Serializes the span. The blob must round-trip through DecompressPage.
  virtual std::string CompressPage(const FlatSpan& span) const = 0;

  // Exact size in bytes of CompressPage(span), computed without
  // materializing the blob. Size-only kernels: no output buffer, no
  // per-field copies.
  virtual uint64_t MeasurePage(const FlatSpan& span) const = 0;

  // Rebuilds the page a blob was compressed from: DecompressPage(
  // CompressPage(span)) equals FlatPage::FromRows of the span's rows.
  // Malformed blobs fail a CHECK.
  virtual FlatPage DecompressPage(std::string_view blob) const = 0;

  // Sizer over the prefixes of `span`. The default calls MeasurePage per
  // query; codecs whose size can be kept up row by row override it.
  virtual std::unique_ptr<PrefixSizer> NewPrefixSizer(
      const FlatSpan& span) const;

  // Storage charged once per index regardless of page count (e.g. the
  // global dictionary). Zero for page-local codecs.
  virtual uint64_t IndexOverheadBytes() const { return 0; }

  bool order_dependent() const { return IsOrderDependent(kind()); }
  const std::vector<uint32_t>& widths() const { return widths_; }
  size_t num_columns() const { return widths_.size(); }
  // Bytes per row across all columns (fields only, no row overhead).
  size_t row_width() const { return row_width_; }

 protected:
  // Aborts unless the span's column widths match the codec's. O(columns):
  // field widths are structural in a FlatPage, so there is nothing
  // per-cell to validate.
  void ValidateSpan(const FlatSpan& span) const;

  std::vector<uint32_t> widths_;
  size_t row_width_ = 0;
};

// No compression: fields stored verbatim plus the per-row slot overhead.
class NoneCodec : public Codec {
 public:
  explicit NoneCodec(std::vector<uint32_t> widths) : Codec(std::move(widths)) {}

  CompressionKind kind() const override { return CompressionKind::kNone; }
  std::string CompressPage(const FlatSpan& span) const override;
  uint64_t MeasurePage(const FlatSpan& span) const override;
  FlatPage DecompressPage(std::string_view blob) const override;
};

// ROW compression: every field null-suppressed independently. Order
// independent: the page size depends only on the multiset of values.
class RowCodec : public Codec {
 public:
  explicit RowCodec(std::vector<uint32_t> widths) : Codec(std::move(widths)) {}

  CompressionKind kind() const override { return CompressionKind::kRow; }
  std::string CompressPage(const FlatSpan& span) const override;
  uint64_t MeasurePage(const FlatSpan& span) const override;
  FlatPage DecompressPage(std::string_view blob) const override;
};

}  // namespace capd

#endif  // CAPD_COMPRESS_CODEC_H_

// Tests for Codec::NewPrefixSizer and the page packer built on it:
// SizeOf(k) == MeasurePage(first k rows) for every codec, every k and any
// query order (including spans that start mid-page and the PAGE corner
// shapes of page_shapes.h); PackPages equals the probe-over-MeasurePage
// packer it replaced, kept here as the reference; and oversized rows spill.
#include <algorithm>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "compress/codec_factory.h"
#include "compress/flat_page.h"
#include "index/index_builder.h"
#include "page_shapes.h"

namespace capd {
namespace {

// The packer as it was before prefix sizers: every exponential and
// binary-search probe re-measures its row range with MeasurePage.
PackResult ReferencePackPages(const FlatPage& flat, const Codec& codec) {
  PackResult result;
  if (flat.num_rows() == 0) {
    result.pages = 1;
    return result;
  }
  uint64_t pages = 0;
  uint64_t payload = 0;
  size_t begin = 0;
  const size_t n = flat.num_rows();
  auto blob_size = [&](size_t b, size_t e) {
    return static_cast<size_t>(codec.MeasurePage(flat.span(b, e)));
  };
  while (begin < n) {
    size_t lo = 1;
    size_t hi = 1;
    while (begin + hi <= n && blob_size(begin, begin + hi) <= kPageCapacity) {
      if (begin + hi == n) break;
      lo = hi;
      hi = hi * 2;
    }
    size_t take;
    if (blob_size(begin, begin + std::min(hi, n - begin)) <= kPageCapacity) {
      take = std::min(hi, n - begin);
    } else {
      size_t bad = std::min(hi, n - begin);
      size_t good = lo;
      while (good + 1 < bad) {
        const size_t mid = good + (bad - good) / 2;
        if (blob_size(begin, begin + mid) <= kPageCapacity) {
          good = mid;
        } else {
          bad = mid;
        }
      }
      take = good;
    }
    const size_t sz = blob_size(begin, begin + take);
    payload += sz;
    if (take == 1 && sz > kPageCapacity) {
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

const std::vector<CompressionKind>& AllKinds() {
  static const std::vector<CompressionKind> kinds = {
      CompressionKind::kNone,       CompressionKind::kRow,
      CompressionKind::kPage,       CompressionKind::kGlobalDict,
      CompressionKind::kRle,        CompressionKind::kBitmap};
  return kinds;
}

Schema MixedSchema() {
  return Schema({{"k", ValueType::kInt64, 8},
                 {"s", ValueType::kString, 12},
                 {"d", ValueType::kDouble, 8},
                 {"t", ValueType::kString, 40},
                 {"b", ValueType::kInt64, 8}});
}

// Sorted on the first column, like an index's rows; `distinct` bounds the
// number of distinct values per column.
std::vector<Row> RandomRows(size_t n, int64_t distinct, Random* rng) {
  const char* kWords[] = {"alpha", "beta", "gamma", "delta", "", "omega"};
  std::vector<Row> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const int64_t v = rng->Uniform(0, distinct - 1);
    rows.push_back(
        {Value::Int64(rng->Uniform(0, distinct - 1)),
         Value::String(kWords[v % 6]), Value::Double(0.25 * (v % 40)),
         Value::String(std::string(static_cast<size_t>(v % 37),
                                   static_cast<char>('a' + v % 3))),
         Value::Int64(rng->Uniform(0, 1 << 30))});
  }
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return a[0].Compare(b[0]) < 0;
  });
  return rows;
}

// Every k in [0, rows], once ascending and once in a shuffled order (the
// packer's probes are not monotone), each on a fresh sizer.
void ExpectSizerMatchesMeasure(const Codec& codec, const FlatSpan& span,
                               Random* rng, const std::string& label) {
  const size_t n = span.num_rows();
  std::vector<uint64_t> expected(n + 1);
  for (size_t k = 0; k <= n; ++k) {
    expected[k] = codec.MeasurePage(span.first(k));
  }
  const std::unique_ptr<PrefixSizer> ascending = codec.NewPrefixSizer(span);
  for (size_t k = 0; k <= n; ++k) {
    ASSERT_EQ(ascending->SizeOf(k), expected[k]) << label << " k=" << k;
  }
  std::vector<size_t> order(n + 1);
  std::iota(order.begin(), order.end(), 0);
  for (size_t i = order.size() - 1; i > 0; --i) {
    std::swap(order[i], order[rng->Next(i + 1)]);
  }
  const std::unique_ptr<PrefixSizer> shuffled = codec.NewPrefixSizer(span);
  for (const size_t k : order) {
    ASSERT_EQ(shuffled->SizeOf(k), expected[k]) << label << " k=" << k;
  }
}

void ExpectPackMatchesReference(const Codec& codec, const FlatPage& flat,
                                const std::string& label) {
  const PackResult got = PackPages(flat, codec);
  const PackResult want = ReferencePackPages(flat, codec);
  EXPECT_EQ(got.pages, want.pages) << label;
  EXPECT_EQ(got.payload_bytes, want.payload_bytes) << label;
}

TEST(PrefixSizerTest, EveryPrefixOfRandomSpans) {
  Random rng(41);
  const Schema schema = MixedSchema();
  for (const int64_t distinct : {3, 40, 1000}) {
    const std::vector<Row> rows = RandomRows(260, distinct, &rng);
    const FlatPage flat = FlatPage::FromRows(rows, schema, 0, rows.size());
    for (const CompressionKind kind : AllKinds()) {
      const std::unique_ptr<Codec> codec = MakeCodec(kind, schema, rows);
      const size_t spans[][2] = {{0, 260}, {1, 2}, {37, 200}, {259, 260},
                                 {100, 100}};
      for (const auto& range : spans) {
        ExpectSizerMatchesMeasure(
            *codec, flat.span(range[0], range[1]), &rng,
            std::string(CompressionKindName(kind)) +
                " distinct=" + std::to_string(distinct) + " span=[" +
                std::to_string(range[0]) + "," + std::to_string(range[1]) +
                ")");
      }
    }
  }
}

TEST(PrefixSizerTest, EveryPrefixOfPageShapes) {
  Random rng(42);
  for (const PageShape& shape : PageShapes()) {
    const FlatPage flat =
        FlatPage::FromRows(shape.rows, shape.schema, 0, shape.rows.size());
    const size_t n = flat.num_rows();
    for (const CompressionKind kind : AllKinds()) {
      const std::unique_ptr<Codec> codec =
          MakeCodec(kind, shape.schema, shape.rows);
      for (const size_t begin : {size_t{0}, n / 3}) {
        ExpectSizerMatchesMeasure(*codec, flat.span(begin, n), &rng,
                                  shape.name + " " +
                                      CompressionKindName(kind) +
                                      " begin=" + std::to_string(begin));
      }
    }
  }
}

TEST(PrefixSizerTest, ThreeByteDictionaryIds) {
  // 16,500 values twice each in random order: the PAGE dictionary passes
  // 16,383 entries (three-byte varint ids) while entries still join it at
  // random ranks, shifting an entry across the two/three-byte boundary.
  const Schema schema({{"v", ValueType::kInt64, 8}});
  Random rng(43);
  std::vector<Row> rows;
  for (int64_t v = 0; v < 16500; ++v) {
    rows.push_back({Value::Int64(v * 7919)});
    rows.push_back({Value::Int64(v * 7919)});
  }
  for (size_t i = rows.size() - 1; i > 0; --i) {
    std::swap(rows[i], rows[rng.Next(i + 1)]);
  }
  const FlatPage flat = FlatPage::FromRows(rows, schema, 0, rows.size());
  const std::unique_ptr<Codec> codec =
      MakeCodec(CompressionKind::kPage, schema, rows);
  const std::unique_ptr<PrefixSizer> sizer = codec->NewPrefixSizer(flat);
  const size_t n = rows.size();
  std::vector<size_t> ks = {n, n - 1, n / 2, 1, 0};
  for (int i = 0; i < 40; ++i) ks.push_back(n - 1 - rng.Next(n / 20));
  for (const size_t k : ks) {
    EXPECT_EQ(sizer->SizeOf(k), codec->MeasurePage(flat.span(0, k)))
        << "k=" << k;
  }
}

TEST(PackPagesTest, MatchesReferencePacker) {
  Random rng(44);
  const Schema schema = MixedSchema();
  for (const int64_t distinct : {2, 50, 5000}) {
    const std::vector<Row> rows = RandomRows(3000, distinct, &rng);
    const FlatPage flat = FlatPage::FromRows(rows, schema, 0, rows.size());
    for (const CompressionKind kind : AllKinds()) {
      const std::unique_ptr<Codec> codec = MakeCodec(kind, schema, rows);
      ExpectPackMatchesReference(*codec, flat,
                                 std::string(CompressionKindName(kind)) +
                                     " distinct=" + std::to_string(distinct));
    }
  }
}

TEST(PackPagesTest, PageShapesMatchReferencePacker) {
  for (const PageShape& shape : PageShapes()) {
    const FlatPage flat =
        FlatPage::FromRows(shape.rows, shape.schema, 0, shape.rows.size());
    for (const CompressionKind kind : AllKinds()) {
      const std::unique_ptr<Codec> codec =
          MakeCodec(kind, shape.schema, shape.rows);
      ExpectPackMatchesReference(
          *codec, flat, shape.name + " " + CompressionKindName(kind));
    }
  }
}

TEST(PackPagesTest, OversizedSingleRowsSpill) {
  // 40 columns of 250 varied bytes: where a codec stores the fields in the
  // page (all but the global dictionary), one row's blob exceeds the page
  // capacity, so each row takes a page of its own and spills across
  // ceil(size / capacity) of them.
  std::vector<Column> cols;
  for (int c = 0; c < 40; ++c) {
    cols.push_back({"s" + std::to_string(c), ValueType::kString, 250});
  }
  const Schema schema(cols);
  std::vector<Row> rows;
  for (int i = 0; i < 6; ++i) {
    Row row;
    for (int c = 0; c < 40; ++c) {
      std::string s(250, 'a');
      for (size_t j = 0; j < s.size(); ++j) {
        s[j] = static_cast<char>('a' + (i * 7 + c * 3 + j) % 26);
      }
      row.push_back(Value::String(s));
    }
    rows.push_back(std::move(row));
  }
  const FlatPage flat = FlatPage::FromRows(rows, schema, 0, rows.size());
  for (const CompressionKind kind : AllKinds()) {
    const std::unique_ptr<Codec> codec = MakeCodec(kind, schema, rows);
    ExpectPackMatchesReference(*codec, flat, CompressionKindName(kind));
    if (kind == CompressionKind::kGlobalDict) continue;
    uint64_t pages = 0;
    uint64_t payload = 0;
    for (size_t r = 0; r < rows.size(); ++r) {
      const uint64_t sz = codec->MeasurePage(flat.span(r, r + 1));
      ASSERT_GT(sz, kPageCapacity) << CompressionKindName(kind);
      pages += (sz + kPageCapacity - 1) / kPageCapacity;
      payload += sz;
    }
    const PackResult packed = PackPages(flat, *codec);
    EXPECT_EQ(packed.pages, pages) << CompressionKindName(kind);
    EXPECT_EQ(packed.payload_bytes, payload) << CompressionKindName(kind);
  }
}

}  // namespace
}  // namespace capd

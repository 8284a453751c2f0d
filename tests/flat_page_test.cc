// Tests for the zero-copy compression path: FlatPage/FlatSpan layout, the
// width-checked SetField write path, the SWAR CountLeadingZeros kernel, the
// pinned MeasurePage(s) == CompressPage(s).size() contract for every codec
// across widths and null densities (including width-255 and all-zero
// fields), and the randomized compress->decompress round-trip property on
// the same matrix, plus the PAGE corner shapes of page_shapes.h. Also the
// NS width>255 CHECK death tests.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "compress/codec_factory.h"
#include "compress/flat_page.h"
#include "compress/null_suppression.h"
#include "page_shapes.h"
#include "storage/encoding.h"

namespace capd {
namespace {

Schema WideSchema() {
  // One compressible int, one short string, one width-255 string, one int.
  return Schema({{"a", ValueType::kInt64, 8},
                 {"s", ValueType::kString, 12},
                 {"w", ValueType::kString, 255},
                 {"b", ValueType::kInt64, 8}});
}

// Rows with a tunable fraction of "zero" fields (Int64(0) / empty string
// encode to all-0x00 fixed-width fields).
std::vector<Row> RandomRows(size_t n, double zero_density, Random* rng) {
  std::vector<Row> rows;
  rows.reserve(n);
  const char* kWords[] = {"alpha", "beta", "gamma", "delta"};
  for (size_t i = 0; i < n; ++i) {
    const bool zero = rng->NextDouble() < zero_density;
    std::string wide;
    if (!zero) {
      const size_t len = rng->Next(250);
      wide.assign(len, static_cast<char>('a' + rng->Next(26)));
    }
    rows.push_back(
        {zero ? Value::Int64(0) : Value::Int64(rng->Uniform(0, 50)),
         zero ? Value::String("") : Value::String(kWords[rng->Next(4)]),
         Value::String(wide),
         zero ? Value::Int64(0) : Value::Int64(rng->Uniform(0, 1 << 30))});
  }
  return rows;
}

TEST(FlatPageTest, LayoutMatchesEncodeField) {
  Random rng(11);
  const Schema schema = WideSchema();
  const std::vector<Row> rows = RandomRows(37, 0.3, &rng);
  const FlatPage page = FlatPage::FromRows(rows, schema, 0, rows.size());
  ASSERT_EQ(page.num_rows(), rows.size());
  ASSERT_EQ(page.num_columns(), schema.num_columns());
  EXPECT_EQ(page.row_width(), static_cast<size_t>(schema.RowWidth()));
  for (size_t r = 0; r < rows.size(); ++r) {
    for (size_t c = 0; c < schema.num_columns(); ++c) {
      EXPECT_EQ(page.field(r, c),
                EncodeFieldToString(rows[r][c], schema.column(c)))
          << "row " << r << " col " << c;
    }
  }
}

TEST(FlatPageTest, ColumnDataIsContiguous) {
  Random rng(12);
  const Schema schema = WideSchema();
  const std::vector<Row> rows = RandomRows(20, 0.0, &rng);
  const FlatPage page = FlatPage::FromRows(rows, schema, 0, rows.size());
  for (size_t c = 0; c < page.num_columns(); ++c) {
    const char* base = page.column_data(c);
    for (size_t r = 0; r < page.num_rows(); ++r) {
      EXPECT_EQ(FieldView(base + r * page.width(c), page.width(c)),
                page.field(r, c));
    }
  }
}

TEST(FlatPageTest, SpanSlicesAddressSubranges) {
  Random rng(13);
  const Schema schema = WideSchema();
  const std::vector<Row> rows = RandomRows(50, 0.2, &rng);
  const FlatPage page = FlatPage::FromRows(rows, schema, 0, rows.size());
  const FlatSpan span = page.span(10, 35);
  ASSERT_EQ(span.num_rows(), 25u);
  for (size_t r = 0; r < span.num_rows(); ++r) {
    for (size_t c = 0; c < span.num_columns(); ++c) {
      EXPECT_EQ(span.field(r, c), page.field(10 + r, c));
    }
  }
  // Slicing matches FromRows over the same subrange.
  const FlatPage sub = FlatPage::FromRows(rows, schema, 10, 35);
  for (size_t r = 0; r < span.num_rows(); ++r) {
    for (size_t c = 0; c < span.num_columns(); ++c) {
      EXPECT_EQ(span.field(r, c), sub.field(r, c));
    }
  }
}

TEST(FlatPageTest, SetFieldFillsAZeroedPage) {
  Random rng(14);
  const Schema schema = WideSchema();
  const std::vector<Row> rows = RandomRows(30, 0.25, &rng);
  const FlatPage want = FlatPage::FromRows(rows, schema, 0, rows.size());
  FlatPage page = FlatPage::Zeroed(ColumnWidths(schema), rows.size());
  EXPECT_FALSE(page == want);
  // Cells land at their own (row, column) whatever the write order.
  for (size_t c = page.num_columns(); c-- > 0;) {
    for (size_t r = page.num_rows(); r-- > 0;) {
      page.SetField(r, c, want.field(r, c));
    }
  }
  EXPECT_TRUE(page == want);
  // Equality covers shape as well as bytes.
  EXPECT_FALSE(FlatPage::Zeroed({8}, 0) == FlatPage::Zeroed({4, 4}, 0));
  EXPECT_FALSE(FlatPage::Zeroed({8}, 1) == FlatPage::Zeroed({8}, 2));
}

TEST(FlatPageDeathTest, SetFieldRejectsWrongWidthAndOutOfRange) {
  FlatPage page = FlatPage::Zeroed({8, 4}, 2);
  EXPECT_DEATH(page.SetField(0, 0, std::string(9, 'x')), "CHECK failed");
  EXPECT_DEATH(page.SetField(0, 1, std::string(3, 'x')), "CHECK failed");
  EXPECT_DEATH(page.SetField(2, 0, std::string(8, 'x')), "CHECK failed");
  EXPECT_DEATH(page.SetField(0, 2, std::string(4, 'x')), "CHECK failed");
}

TEST(CountLeadingZerosTest, MatchesScalarReference) {
  Random rng(16);
  for (int trial = 0; trial < 500; ++trial) {
    const size_t len = rng.Next(41);  // 0..40 covers SWAR body + tail
    std::string s(len, '\0');
    // First nonzero byte at a random position (possibly none).
    const size_t pos = rng.Next(static_cast<uint32_t>(len) + 2);
    for (size_t i = pos; i < len; ++i) {
      s[i] = static_cast<char>(rng.Next(256));
    }
    if (pos < len) s[pos] = static_cast<char>(1 + rng.Next(255));
    size_t expected = 0;
    while (expected < s.size() && s[expected] == '\0') ++expected;
    EXPECT_EQ(CountLeadingZeros(s), expected)
        << "len=" << len << " pos=" << pos;
  }
}

TEST(CountLeadingZerosTest, WordBoundaries) {
  for (size_t len : {0u, 1u, 7u, 8u, 9u, 15u, 16u, 17u, 255u}) {
    const std::string zeros(len, '\0');
    EXPECT_EQ(CountLeadingZeros(zeros), len);
    for (size_t pos = 0; pos < len; ++pos) {
      std::string s = zeros;
      s[pos] = 'x';
      EXPECT_EQ(CountLeadingZeros(s), pos) << "len=" << len;
    }
  }
}

TEST(NullSuppressionDeathTest, FieldWiderThan255Aborts) {
  const std::string too_wide(256, 'x');
  std::string out;
  EXPECT_DEATH(NsCompressField(too_wide, &out), "CHECK failed");
  EXPECT_DEATH(NsFieldSize(too_wide), "CHECK failed");
}

// The pinned contract: MeasurePage(s) == CompressPage(s).size() for every
// codec, span, width mix, and null density.
class MeasureEqualsCompress
    : public ::testing::TestWithParam<CompressionKind> {};

TEST_P(MeasureEqualsCompress, AcrossSpansAndNullDensities) {
  Random rng(17);
  const Schema schema = WideSchema();
  for (const double density : {0.0, 0.4, 1.0}) {
    const std::vector<Row> rows = RandomRows(60, density, &rng);
    const std::unique_ptr<Codec> codec = MakeCodec(GetParam(), schema, rows);
    const FlatPage flat = FlatPage::FromRows(rows, schema, 0, rows.size());
    const size_t n = flat.num_rows();
    const size_t spans[][2] = {{0, n}, {0, 1}, {n / 3, 2 * n / 3}, {n, n}};
    for (const auto& range : spans) {
      const FlatSpan span = flat.span(range[0], range[1]);
      const std::string blob = codec->CompressPage(span);
      EXPECT_EQ(codec->MeasurePage(span), blob.size())
          << CompressionKindName(GetParam()) << " density=" << density
          << " span=[" << range[0] << "," << range[1] << ")";
    }
  }
}

TEST_P(MeasureEqualsCompress, RoundTripIdentity) {
  Random rng(18);
  const Schema schema = WideSchema();
  for (const double density : {0.0, 0.4, 1.0}) {
    for (int trial = 0; trial < 5; ++trial) {
      const std::vector<Row> rows =
          RandomRows(1 + rng.Next(80), density, &rng);
      const std::unique_ptr<Codec> codec = MakeCodec(GetParam(), schema, rows);
      const size_t n = rows.size();
      const FlatPage flat = FlatPage::FromRows(rows, schema, 0, n);
      EXPECT_TRUE(codec->DecompressPage(codec->CompressPage(flat)) == flat)
          << CompressionKindName(GetParam()) << " density=" << density;
      const size_t b = rng.Next(static_cast<uint32_t>(n));
      const std::string tail = codec->CompressPage(flat.span(b, n));
      EXPECT_TRUE(codec->DecompressPage(tail) ==
                  FlatPage::FromRows(rows, schema, b, n))
          << CompressionKindName(GetParam()) << " density=" << density
          << " begin=" << b;
    }
  }
}

TEST_P(MeasureEqualsCompress, AllZeroFields) {
  const Schema schema = WideSchema();
  std::vector<Row> rows;
  for (int i = 0; i < 40; ++i) {
    rows.push_back({Value::Int64(0), Value::String(""), Value::String(""),
                    Value::Int64(0)});
  }
  const std::unique_ptr<Codec> codec = MakeCodec(GetParam(), schema, rows);
  const FlatPage flat = FlatPage::FromRows(rows, schema, 0, rows.size());
  const std::string blob = codec->CompressPage(flat);
  EXPECT_EQ(codec->MeasurePage(flat), blob.size());
  EXPECT_TRUE(codec->DecompressPage(blob) == flat);
}

TEST_P(MeasureEqualsCompress, PageShapes) {
  const char* kind = CompressionKindName(GetParam());
  for (const PageShape& s : PageShapes()) {
    const std::unique_ptr<Codec> codec =
        MakeCodec(GetParam(), s.schema, s.rows);
    const size_t n = s.rows.size();
    const FlatPage flat = FlatPage::FromRows(s.rows, s.schema, 0, n);
    const size_t spans[][2] = {{0, n}, {0, n - 3}, {n / 3, n}, {n - 6, n}};
    for (const auto& range : spans) {
      const size_t b = range[0];
      const size_t e = range[1];
      const std::string blob = codec->CompressPage(flat.span(b, e));
      EXPECT_EQ(codec->MeasurePage(flat.span(b, e)), blob.size())
          << s.name << " " << kind << " span=[" << b << "," << e << ")";
      const FlatPage want = FlatPage::FromRows(s.rows, s.schema, b, e);
      EXPECT_TRUE(codec->DecompressPage(blob) == want)
          << s.name << " " << kind << " span=[" << b << "," << e << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, MeasureEqualsCompress,
    ::testing::Values(CompressionKind::kNone, CompressionKind::kRow,
                      CompressionKind::kPage, CompressionKind::kGlobalDict,
                      CompressionKind::kRle, CompressionKind::kBitmap),
    [](const auto& info) {
      std::string n = CompressionKindName(info.param);
      n.erase(std::remove_if(n.begin(), n.end(),
                             [](char c) {
                               return !std::isalnum(
                                   static_cast<unsigned char>(c));
                             }),
              n.end());
      return n;
    });

}  // namespace
}  // namespace capd

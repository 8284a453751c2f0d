// Row sets that push the PAGE codec into corners the random tables miss:
// dictionaries past 127 entries (two-byte varint ids), a sorted key whose
// anchor shrinks late in the span, and width-1 columns. Shared by the
// MeasurePage == CompressPage contract tests and the prefix sizer tests.
#ifndef CAPD_TESTS_PAGE_SHAPES_H_
#define CAPD_TESTS_PAGE_SHAPES_H_

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "storage/schema.h"

namespace capd {

struct PageShape {
  std::string name;
  Schema schema;
  std::vector<Row> rows;
};

inline std::vector<PageShape> PageShapes() {
  std::vector<PageShape> shapes;
  Random rng(29);
  {
    // 300 sorted keys twice each: ids up to 300, appended in order. The
    // unsorted column repeats ~200 values, so entries join the dictionary
    // at random ranks once it holds more than 127.
    PageShape s{"repeated_ids",
                Schema({{"k", ValueType::kInt64, 8},
                        {"c", ValueType::kInt64, 8}}),
                {}};
    for (int64_t i = 0; i < 600; ++i) {
      s.rows.push_back(
          {Value::Int64(i / 2), Value::Int64(rng.Uniform(0, 199))});
    }
    shapes.push_back(std::move(s));
  }
  {
    // A sorted key equal on all but its last rows: the whole field is the
    // anchor until the end, where it shrinks to a few bytes. The string
    // key's anchor shrinks as its digits roll over and again at the end.
    PageShape s{"late_anchor_shrink",
                Schema({{"k", ValueType::kInt64, 8},
                        {"s", ValueType::kString, 16}}),
                {}};
    const int64_t n = 300;
    for (int64_t i = 0; i < n; ++i) {
      const int64_t k = i < n - 5 ? 7 : (int64_t{1} << 40) + i;
      char buf[16];
      std::snprintf(buf, sizeof(buf), "%s%06lld", i < n - 3 ? "cust" : "dust",
                    static_cast<long long>(i));
      s.rows.push_back({Value::Int64(k), Value::String(buf)});
    }
    shapes.push_back(std::move(s));
  }
  {
    // Width-1 columns: one over a few letters (and the empty string, which
    // encodes to a 0x00 byte), one over every byte value, which fills a
    // dictionary past 127 entries with one-byte fields.
    PageShape s{"width1",
                Schema({{"a", ValueType::kString, 1},
                        {"b", ValueType::kString, 1},
                        {"k", ValueType::kInt64, 8}}),
                {}};
    const char* kLetters[] = {"", "a", "b", "c"};
    for (int64_t i = 0; i < 700; ++i) {
      s.rows.push_back(
          {Value::String(kLetters[rng.Next(4)]),
           Value::String(std::string(1, static_cast<char>(rng.Next(256)))),
           Value::Int64(i)});
    }
    shapes.push_back(std::move(s));
  }
  return shapes;
}

}  // namespace capd

#endif  // CAPD_TESTS_PAGE_SHAPES_H_

// Tests for the query IR and the SQL-subset parser.
#include <gtest/gtest.h>

#include "query/sql_parser.h"
#include "workloads/tpch.h"

namespace capd {
namespace {

class QueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tpch::Options opt;
    opt.lineitem_rows = 400;
    tpch::Build(&db_, opt);
  }
  Database db_;
};

TEST_F(QueryTest, ParseSimpleSelect) {
  std::string err;
  auto stmt = ParseSql("SELECT l_orderkey, SUM(l_quantity) FROM lineitem "
                       "WHERE l_shipdate >= DATE '1995-06-01' GROUP BY l_orderkey",
                       db_, &err);
  ASSERT_TRUE(stmt.has_value()) << err;
  EXPECT_EQ(stmt->type, StatementType::kSelect);
  const SelectQuery& q = stmt->select;
  EXPECT_EQ(q.table, "lineitem");
  ASSERT_EQ(q.projected.size(), 1u);
  EXPECT_EQ(q.projected[0], "l_orderkey");
  ASSERT_EQ(q.aggregates.size(), 1u);
  EXPECT_EQ(q.aggregates[0].column, "l_quantity");
  ASSERT_EQ(q.predicates.size(), 1u);
  EXPECT_EQ(q.predicates[0].op, FilterOp::kGe);
  ASSERT_EQ(q.group_by.size(), 1u);
}

TEST_F(QueryTest, ParseJoinResolvesDirection) {
  std::string err;
  auto stmt = ParseSql(
      "SELECT p_brand, SUM(l_extendedprice) FROM lineitem "
      "JOIN part ON l_partkey = p_partkey GROUP BY p_brand",
      db_, &err);
  ASSERT_TRUE(stmt.has_value()) << err;
  ASSERT_EQ(stmt->select.joins.size(), 1u);
  EXPECT_EQ(stmt->select.joins[0].dim_table, "part");
  EXPECT_EQ(stmt->select.joins[0].fk_column, "l_partkey");
  EXPECT_EQ(stmt->select.joins[0].dim_key, "p_partkey");
}

TEST_F(QueryTest, ParseJoinReversedOperands) {
  std::string err;
  auto stmt = ParseSql(
      "SELECT SUM(l_extendedprice) FROM lineitem JOIN part ON p_partkey = l_partkey",
      db_, &err);
  ASSERT_TRUE(stmt.has_value()) << err;
  EXPECT_EQ(stmt->select.joins[0].fk_column, "l_partkey");
}

TEST_F(QueryTest, ParseBetweenAndString) {
  std::string err;
  auto stmt = ParseSql(
      "SELECT COUNT(*) FROM lineitem WHERE l_quantity BETWEEN 5 AND 10 "
      "AND l_returnflag = 'R'",
      db_, &err);
  ASSERT_TRUE(stmt.has_value()) << err;
  ASSERT_EQ(stmt->select.predicates.size(), 2u);
  EXPECT_EQ(stmt->select.predicates[0].op, FilterOp::kBetween);
  EXPECT_EQ(stmt->select.predicates[1].lo.AsString(), "R");
}

TEST_F(QueryTest, ParseInsert) {
  std::string err;
  auto stmt = ParseSql("INSERT INTO lineitem VALUES 500 ROWS", db_, &err);
  ASSERT_TRUE(stmt.has_value()) << err;
  EXPECT_EQ(stmt->type, StatementType::kInsert);
  EXPECT_EQ(stmt->insert.table, "lineitem");
  EXPECT_EQ(stmt->insert.num_rows, 500u);
}

TEST_F(QueryTest, ParseErrorsReported) {
  std::string err;
  EXPECT_FALSE(ParseSql("DELETE FROM lineitem", db_, &err).has_value());
  EXPECT_FALSE(err.empty());
  EXPECT_FALSE(ParseSql("SELECT FROM", db_, &err).has_value());
  EXPECT_FALSE(
      ParseSql("SELECT nosuchcol FROM lineitem WHERE nosuch = 3", db_, &err)
          .has_value());
}

// A malformed date is an error status from ParseSql, never an abort and
// never a silently invented date.
void ExpectInvalidDate(const std::string& sql, const Database& db) {
  std::string err;
  EXPECT_FALSE(ParseSql(sql, db, &err).has_value()) << sql;
  EXPECT_NE(err.find("invalid date"), std::string::npos) << sql << ": " << err;
}

TEST_F(QueryTest, ShortDateKeywordLiteralIsAnError) {
  ExpectInvalidDate(
      "SELECT COUNT(*) FROM lineitem WHERE l_shipdate >= DATE '95-1-1'", db_);
}

TEST_F(QueryTest, ShortDateStringOnDateColumnIsAnError) {
  ExpectInvalidDate(
      "SELECT COUNT(*) FROM lineitem WHERE l_shipdate >= '95-1-1'", db_);
}

TEST_F(QueryTest, OutOfRangeDateIsAnError) {
  ExpectInvalidDate(
      "SELECT COUNT(*) FROM lineitem WHERE l_shipdate < DATE '1995/13/45'",
      db_);
}

TEST_F(QueryTest, NonNumericDateIsAnError) {
  ExpectInvalidDate(
      "SELECT COUNT(*) FROM lineitem WHERE l_shipdate = DATE 'abcdefghij'",
      db_);
}

// A malformed number or a literal of the wrong type is an error status
// from ParseSql, never an abort and never a silently changed value.
void ExpectParseError(const std::string& sql, const std::string& message,
                      const Database& db) {
  std::string err;
  EXPECT_FALSE(ParseSql(sql, db, &err).has_value()) << sql;
  EXPECT_NE(err.find(message), std::string::npos) << sql << ": " << err;
}

TEST_F(QueryTest, NegativeInsertRowCountIsAnError) {
  ExpectParseError("INSERT INTO lineitem VALUES -5 ROWS",
                   "invalid row count '-5'", db_);
}

TEST_F(QueryTest, OverflowingInsertRowCountIsAnError) {
  // 2^64: one past the largest uint64_t.
  ExpectParseError("INSERT INTO lineitem VALUES 18446744073709551616 ROWS",
                   "row count '18446744073709551616' is out of range", db_);
}

TEST_F(QueryTest, MalformedNumberIsAnError) {
  ExpectParseError("SELECT COUNT(*) FROM lineitem WHERE l_quantity < 1.2.3",
                   "invalid number '1.2.3'", db_);
}

TEST_F(QueryTest, FractionalNumberOnIntColumnIsAnError) {
  ExpectParseError("SELECT COUNT(*) FROM lineitem WHERE l_quantity < 2.5",
                   "number '2.5' is not an integer", db_);
  // A double column takes the same literal.
  std::string err;
  EXPECT_TRUE(ParseSql("SELECT COUNT(*) FROM lineitem WHERE l_discount < 2.5",
                       db_, &err)
                  .has_value())
      << err;
}

TEST_F(QueryTest, StringOnNumericColumnIsAnError) {
  ExpectParseError("SELECT COUNT(*) FROM lineitem WHERE l_quantity < 'abc'",
                   "string 'abc' compared with a column of type INT64", db_);
}

TEST_F(QueryTest, NumberOnStringColumnIsAnError) {
  // Parsed, this predicate aborted the tuning run on a cross-type compare.
  ExpectParseError("SELECT COUNT(*) FROM lineitem WHERE l_returnflag = 5",
                   "number '5' compared with a column of type STRING", db_);
}

TEST_F(QueryTest, TryParseDateLiteralChecksTheCalendar) {
  EXPECT_EQ(TryParseDateLiteral("1970-01-02"), 1);
  EXPECT_TRUE(TryParseDateLiteral("2000-02-29").has_value());  // leap year
  for (const char* bad : {"", "95-1-1", "1995/01/01", "1995-13-01", "1995-00-10",
                          "1995-01-00", "1995-04-31", "1900-02-29", "1995-1-011",
                          "+995-01-01", "1995-01-1x", "abcdefghij"}) {
    EXPECT_FALSE(TryParseDateLiteral(bad).has_value()) << bad;
  }
}

TEST_F(QueryTest, DateLiteralRoundTrip) {
  for (const char* d : {"1970-01-01", "1994-01-01", "1998-09-02", "2000-02-29"}) {
    EXPECT_EQ(FormatDate(ParseDateLiteral(d)), d);
  }
  EXPECT_EQ(ParseDateLiteral("1970-01-01"), 0);
  EXPECT_EQ(ParseDateLiteral("1970-01-02"), 1);
}

TEST_F(QueryTest, ColumnsUsedOnSeparatesTables) {
  std::string err;
  auto stmt = ParseSql(
      "SELECT p_brand, SUM(l_extendedprice) FROM lineitem "
      "JOIN part ON l_partkey = p_partkey WHERE l_shipdate >= DATE '1997-01-01' "
      "GROUP BY p_brand",
      db_, &err);
  ASSERT_TRUE(stmt.has_value()) << err;
  const auto on_lineitem = stmt->select.ColumnsUsedOn("lineitem", db_);
  const auto on_part = stmt->select.ColumnsUsedOn("part", db_);
  EXPECT_NE(std::find(on_lineitem.begin(), on_lineitem.end(), "l_shipdate"),
            on_lineitem.end());
  EXPECT_NE(std::find(on_lineitem.begin(), on_lineitem.end(), "l_partkey"),
            on_lineitem.end());
  EXPECT_NE(std::find(on_part.begin(), on_part.end(), "p_brand"), on_part.end());
  EXPECT_EQ(std::find(on_part.begin(), on_part.end(), "l_shipdate"), on_part.end());
}

TEST_F(QueryTest, PredicatesOnFiltersByOwner) {
  std::string err;
  auto stmt = ParseSql(
      "SELECT SUM(l_extendedprice) FROM lineitem JOIN part ON l_partkey = p_partkey "
      "WHERE p_brand = 'Brand#23' AND l_quantity < 10",
      db_, &err);
  ASSERT_TRUE(stmt.has_value()) << err;
  EXPECT_EQ(stmt->select.PredicatesOn("lineitem", db_).size(), 1u);
  EXPECT_EQ(stmt->select.PredicatesOn("part", db_).size(), 1u);
}

TEST_F(QueryTest, WorkloadInsertWeighting) {
  tpch::Options opt;
  opt.lineitem_rows = 400;
  Workload w = tpch::MakeWorkload(db_, opt);
  EXPECT_EQ(w.statements.size(), 24u);  // 22 queries + 2 bulk loads
  const Workload insert_heavy = w.WithInsertWeight(10.0);
  double select_w = 0, insert_w = 0, insert_w_orig = 0;
  for (size_t i = 0; i < w.statements.size(); ++i) {
    if (w.statements[i].type == StatementType::kInsert) {
      insert_w_orig += w.statements[i].weight;
      insert_w += insert_heavy.statements[i].weight;
    } else {
      select_w += insert_heavy.statements[i].weight;
    }
  }
  EXPECT_DOUBLE_EQ(insert_w, 10.0 * insert_w_orig);
  EXPECT_DOUBLE_EQ(select_w, 22.0);
}

TEST_F(QueryTest, TpchWorkloadParsesAndTouchesAllTables) {
  tpch::Options opt;
  opt.lineitem_rows = 400;
  const Workload w = tpch::MakeWorkload(db_, opt);
  std::set<std::string> roots;
  for (const Statement& s : w.statements) {
    if (s.type == StatementType::kSelect) roots.insert(s.select.table);
  }
  EXPECT_TRUE(roots.count("lineitem"));
  EXPECT_TRUE(roots.count("orders"));
  EXPECT_TRUE(roots.count("customer"));
  EXPECT_TRUE(roots.count("supplier"));
  EXPECT_TRUE(roots.count("part"));
}

TEST_F(QueryTest, StatementToStringMentionsShape) {
  std::string err;
  auto stmt = ParseSql(
      "SELECT l_shipmode, SUM(l_extendedprice) FROM lineitem GROUP BY l_shipmode",
      db_, &err);
  ASSERT_TRUE(stmt.has_value());
  const std::string s = stmt->select.ToString();
  EXPECT_NE(s.find("GROUP BY"), std::string::npos);
  EXPECT_NE(s.find("lineitem"), std::string::npos);
}

}  // namespace
}  // namespace capd

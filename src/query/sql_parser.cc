#include "query/sql_parser.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <vector>

#include "common/logging.h"

namespace capd {
namespace {

struct Token {
  enum Kind { kIdent, kNumber, kString, kPunct, kEnd } kind = kEnd;
  std::string text;  // identifiers upper-cased keywords preserved as written
};

class Lexer {
 public:
  explicit Lexer(const std::string& sql) : sql_(sql) {}

  Token Next() {
    while (pos_ < sql_.size() && std::isspace(static_cast<unsigned char>(sql_[pos_]))) {
      ++pos_;
    }
    Token t;
    if (pos_ >= sql_.size()) return t;
    const char c = sql_[pos_];
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      t.kind = Token::kIdent;
      while (pos_ < sql_.size() &&
             (std::isalnum(static_cast<unsigned char>(sql_[pos_])) ||
              sql_[pos_] == '_')) {
        t.text.push_back(sql_[pos_++]);
      }
      return t;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '-' && pos_ + 1 < sql_.size() &&
         std::isdigit(static_cast<unsigned char>(sql_[pos_ + 1])))) {
      t.kind = Token::kNumber;
      t.text.push_back(sql_[pos_++]);
      while (pos_ < sql_.size() &&
             (std::isdigit(static_cast<unsigned char>(sql_[pos_])) ||
              sql_[pos_] == '.')) {
        t.text.push_back(sql_[pos_++]);
      }
      return t;
    }
    if (c == '\'') {
      t.kind = Token::kString;
      ++pos_;
      while (pos_ < sql_.size() && sql_[pos_] != '\'') t.text.push_back(sql_[pos_++]);
      if (pos_ < sql_.size()) ++pos_;  // closing quote
      return t;
    }
    t.kind = Token::kPunct;
    t.text.push_back(sql_[pos_++]);
    // two-char operators
    if ((t.text == "<" || t.text == ">") && pos_ < sql_.size() &&
        sql_[pos_] == '=') {
      t.text.push_back(sql_[pos_++]);
    }
    return t;
  }

 private:
  const std::string& sql_;
  size_t pos_ = 0;
};

std::string Upper(const std::string& s) {
  std::string out = s;
  for (char& c : out) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  return out;
}

class Parser {
 public:
  Parser(const std::string& sql, const Database& db) : lexer_(sql), db_(&db) {
    Advance();
  }

  std::optional<Statement> Parse(std::string* error) {
    const std::string kw = Upper(cur_.text);
    std::optional<Statement> result;
    if (kw == "SELECT") {
      result = ParseSelect();
    } else if (kw == "INSERT") {
      result = ParseInsert();
    } else {
      error_ = "expected SELECT or INSERT";
    }
    if (!error_.empty()) {
      *error = error_;
      return std::nullopt;
    }
    return result;
  }

 private:
  void Advance() { cur_ = lexer_.Next(); }

  bool AcceptKeyword(const std::string& kw) {
    if (cur_.kind == Token::kIdent && Upper(cur_.text) == kw) {
      Advance();
      return true;
    }
    return false;
  }

  bool ExpectKeyword(const std::string& kw) {
    if (AcceptKeyword(kw)) return true;
    error_ = "expected " + kw + " near '" + cur_.text + "'";
    return false;
  }

  bool ExpectPunct(const std::string& p) {
    if (cur_.kind == Token::kPunct && cur_.text == p) {
      Advance();
      return true;
    }
    error_ = "expected '" + p + "' near '" + cur_.text + "'";
    return false;
  }

  std::string ExpectIdent() {
    if (cur_.kind == Token::kIdent) {
      std::string s = cur_.text;
      Advance();
      return s;
    }
    error_ = "expected identifier near '" + cur_.text + "'";
    return "";
  }

  // Resolves the type of `column` across the query's tables.
  ValueType ColumnType(const SelectQuery& q, const std::string& column) {
    if (db_->table(q.table).schema().HasColumn(column)) {
      const Schema& s = db_->table(q.table).schema();
      return s.column(s.ColumnIndex(column)).type;
    }
    for (const JoinClause& j : q.joins) {
      const Schema& s = db_->table(j.dim_table).schema();
      if (s.HasColumn(column)) return s.column(s.ColumnIndex(column)).type;
    }
    error_ = "unknown column " + column;
    return ValueType::kInt64;
  }

  Value DateLiteral(const std::string& text) {
    const std::optional<int64_t> days = TryParseDateLiteral(text);
    if (!days.has_value()) {
      error_ = "invalid date '" + text + "', expected YYYY-MM-DD";
      return Value();
    }
    return Value::Date(*days);
  }

  // A number token must parse whole (`1.2.3` is not a number) and in range,
  // an integer or date column takes no fractional part, and a string
  // column takes no number (a cross-type compare would abort the tuning).
  Value NumberLiteral(const std::string& text, ValueType type) {
    if (type == ValueType::kString) {
      error_ = "number '" + text + "' compared with a column of type " +
               ValueTypeName(type);
      return Value();
    }
    char* end = nullptr;
    errno = 0;
    Value value = Value::Double(std::strtod(text.c_str(), &end));
    if (*end != '\0') {
      error_ = "invalid number '" + text + "'";
      return Value();
    }
    if (type != ValueType::kDouble) {
      const long long v = std::strtoll(text.c_str(), &end, 10);
      if (*end != '\0') {
        error_ = "number '" + text + "' is not an integer";
        return Value();
      }
      value = type == ValueType::kDate ? Value::Date(v) : Value::Int64(v);
    }
    if (errno == ERANGE) {
      error_ = "number '" + text + "' is out of range";
      return Value();
    }
    return value;
  }

  Value ParseLiteral(ValueType type) {
    if (AcceptKeyword("DATE")) {
      if (cur_.kind != Token::kString) {
        error_ = "expected date string";
        return Value();
      }
      const Value date = DateLiteral(cur_.text);
      Advance();
      return date;
    }
    if (cur_.kind == Token::kNumber) {
      const std::string text = cur_.text;
      Advance();
      return NumberLiteral(text, type);
    }
    if (cur_.kind == Token::kString) {
      std::string text = cur_.text;
      Advance();
      if (type == ValueType::kDate) return DateLiteral(text);
      if (type != ValueType::kString) {
        error_ = "string '" + text + "' compared with a column of type " +
                 ValueTypeName(type);
        return Value();
      }
      return Value::String(std::move(text));
    }
    error_ = "expected literal near '" + cur_.text + "'";
    return Value();
  }

  std::optional<Statement> ParseSelect() {
    ExpectKeyword("SELECT");
    SelectQuery q;
    // Projections / aggregates. Table not yet known, so buffer the items.
    struct Item {
      std::string func;  // empty for plain columns
      std::string column;
    };
    std::vector<Item> items;
    while (error_.empty()) {
      std::string first = ExpectIdent();
      if (!error_.empty()) break;
      const std::string up = Upper(first);
      if ((up == "SUM" || up == "AVG" || up == "MIN" || up == "MAX" ||
           up == "COUNT") &&
          cur_.kind == Token::kPunct && cur_.text == "(") {
        Advance();
        std::string col = cur_.kind == Token::kPunct && cur_.text == "*"
                              ? (Advance(), std::string("*"))
                              : ExpectIdent();
        if (!ExpectPunct(")")) break;
        items.push_back({up, std::move(col)});
      } else {
        items.push_back({"", std::move(first)});
      }
      if (cur_.kind == Token::kPunct && cur_.text == ",") {
        Advance();
        continue;
      }
      break;
    }
    if (!ExpectKeyword("FROM")) return std::nullopt;
    q.table = ExpectIdent();
    while (error_.empty() && AcceptKeyword("JOIN")) {
      JoinClause j;
      j.dim_table = ExpectIdent();
      if (!ExpectKeyword("ON")) return std::nullopt;
      std::string a = ExpectIdent();
      if (!ExpectPunct("=")) return std::nullopt;
      std::string b = ExpectIdent();
      // Figure out which side is the root's FK column.
      if (db_->table(q.table).schema().HasColumn(a)) {
        j.fk_column = a;
        j.dim_key = b;
      } else {
        j.fk_column = b;
        j.dim_key = a;
      }
      q.joins.push_back(std::move(j));
    }
    if (error_.empty() && AcceptKeyword("WHERE")) {
      do {
        ColumnFilter p;
        p.column = ExpectIdent();
        if (!error_.empty()) break;
        const ValueType type = ColumnType(q, p.column);
        if (!error_.empty()) break;
        if (AcceptKeyword("BETWEEN")) {
          p.op = FilterOp::kBetween;
          p.lo = ParseLiteral(type);
          if (!ExpectKeyword("AND")) break;
          p.hi = ParseLiteral(type);
        } else if (cur_.kind == Token::kPunct) {
          const std::string op = cur_.text;
          Advance();
          if (op == "=") {
            p.op = FilterOp::kEq;
          } else if (op == "<") {
            p.op = FilterOp::kLt;
          } else if (op == "<=") {
            p.op = FilterOp::kLe;
          } else if (op == ">") {
            p.op = FilterOp::kGt;
          } else if (op == ">=") {
            p.op = FilterOp::kGe;
          } else {
            error_ = "unknown operator " + op;
            break;
          }
          p.lo = ParseLiteral(type);
        } else {
          error_ = "expected operator near '" + cur_.text + "'";
          break;
        }
        q.predicates.push_back(std::move(p));
      } while (error_.empty() && AcceptKeyword("AND"));
    }
    if (error_.empty() && AcceptKeyword("GROUP")) {
      if (!ExpectKeyword("BY")) return std::nullopt;
      do {
        q.group_by.push_back(ExpectIdent());
      } while (error_.empty() && cur_.kind == Token::kPunct &&
               cur_.text == "," && (Advance(), true));
    }
    if (error_.empty() && AcceptKeyword("ORDER")) {
      if (!ExpectKeyword("BY")) return std::nullopt;
      do {
        q.order_by.push_back(ExpectIdent());
      } while (error_.empty() && cur_.kind == Token::kPunct &&
               cur_.text == "," && (Advance(), true));
    }
    if (!error_.empty()) return std::nullopt;
    for (Item& item : items) {
      if (item.func.empty()) {
        q.projected.push_back(std::move(item.column));
      } else if (item.column != "*") {
        q.aggregates.push_back(AggExpr{std::move(item.column), item.func});
      }
    }
    return Statement::Select("", std::move(q));
  }

  std::optional<Statement> ParseInsert() {
    ExpectKeyword("INSERT");
    if (!ExpectKeyword("INTO")) return std::nullopt;
    InsertStatement ins;
    ins.table = ExpectIdent();
    if (!ExpectKeyword("VALUES")) return std::nullopt;
    if (cur_.kind != Token::kNumber) {
      error_ = "expected row count";
      return std::nullopt;
    }
    // strtoull would wrap a negative count and stop at a '.', so the token
    // must be digits only.
    const std::string& text = cur_.text;
    for (const char c : text) {
      if (!std::isdigit(static_cast<unsigned char>(c))) {
        error_ = "invalid row count '" + text + "'";
        return std::nullopt;
      }
    }
    errno = 0;
    ins.num_rows = std::strtoull(text.c_str(), nullptr, 10);
    if (errno == ERANGE) {
      error_ = "row count '" + text + "' is out of range";
      return std::nullopt;
    }
    Advance();
    if (!ExpectKeyword("ROWS")) return std::nullopt;
    return Statement::Insert("", std::move(ins));
  }

  Lexer lexer_;
  const Database* db_;
  Token cur_;
  std::string error_;
};

}  // namespace

std::optional<Statement> ParseSql(const std::string& sql, const Database& db,
                                  std::string* error) {
  Parser parser(sql, db);
  return parser.Parse(error);
}

std::optional<int64_t> TryParseDateLiteral(const std::string& ymd) {
  if (ymd.size() != 10 || ymd[4] != '-' || ymd[7] != '-') return std::nullopt;
  for (size_t i : {0, 1, 2, 3, 5, 6, 8, 9}) {
    if (!std::isdigit(static_cast<unsigned char>(ymd[i]))) return std::nullopt;
  }
  const int64_t y = std::strtoll(ymd.substr(0, 4).c_str(), nullptr, 10);
  const int64_t m = std::strtoll(ymd.substr(5, 2).c_str(), nullptr, 10);
  const int64_t d = std::strtoll(ymd.substr(8, 2).c_str(), nullptr, 10);
  const bool leap = (y % 4 == 0 && y % 100 != 0) || y % 400 == 0;
  static constexpr int64_t kMonthDays[] = {31, 28, 31, 30, 31, 30,
                                           31, 31, 30, 31, 30, 31};
  if (m < 1 || m > 12) return std::nullopt;
  if (d < 1 || d > kMonthDays[m - 1] + (m == 2 && leap ? 1 : 0)) {
    return std::nullopt;
  }
  // Days from civil (Howard Hinnant's algorithm).
  const int64_t yy = y - (m <= 2 ? 1 : 0);
  const int64_t era = (yy >= 0 ? yy : yy - 399) / 400;
  const int64_t yoe = yy - era * 400;
  const int64_t doy = (153 * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d - 1;
  const int64_t doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  return era * 146097 + doe - 719468;
}

int64_t ParseDateLiteral(const std::string& ymd) {
  const std::optional<int64_t> days = TryParseDateLiteral(ymd);
  CAPD_CHECK(days.has_value()) << "date literal must be YYYY-MM-DD: " << ymd;
  return *days;
}

std::string FormatDate(int64_t days) {
  int64_t z = days + 719468;
  const int64_t era = (z >= 0 ? z : z - 146096) / 146097;
  const int64_t doe = z - era * 146097;
  const int64_t yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const int64_t yy = yoe + era * 400;
  const int64_t doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  const int64_t mp = (5 * doy + 2) / 153;
  const int64_t d = doy - (153 * mp + 2) / 5 + 1;
  const int64_t m = mp + (mp < 10 ? 3 : -9);
  const int64_t y = yy + (m <= 2 ? 1 : 0);
  // Worst-case width of three full int64 fields plus separators.
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%04lld-%02lld-%02lld",
                static_cast<long long>(y), static_cast<long long>(m),
                static_cast<long long>(d));
  return buf;
}

}  // namespace capd

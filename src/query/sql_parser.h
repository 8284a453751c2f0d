// A small SQL-subset parser so the examples can express workloads as text.
// Grammar (case-insensitive keywords):
//   SELECT item {, item} FROM ident {JOIN ident ON ident = ident}
//     [WHERE cond {AND cond}] [GROUP BY ident {, ident}]
//     [ORDER BY ident {, ident}]
//   item  := ident | (SUM|AVG|MIN|MAX|COUNT) '(' ident ')'
//   cond  := ident (= | < | <= | > | >=) literal
//          | ident BETWEEN literal AND literal
//   INSERT INTO ident VALUES <n> ROWS
// Literals: integers, doubles, 'strings', DATE 'YYYY-MM-DD'. A 'string'
// compares only with a string or date column, a number never with a
// string column, a fractional number only with a double column, and <n>
// is an unsigned 64-bit integer.
#ifndef CAPD_QUERY_SQL_PARSER_H_
#define CAPD_QUERY_SQL_PARSER_H_

#include <cstdint>
#include <optional>
#include <string>

#include "catalog/database.h"
#include "query/query.h"

namespace capd {

// Parses one statement. Returns std::nullopt and fills *error on failure.
// `db` resolves column types for literals and join directions.
std::optional<Statement> ParseSql(const std::string& sql, const Database& db,
                                  std::string* error);

// Converts 'YYYY-MM-DD' to days since 1970-01-01 (proleptic Gregorian).
// Returns std::nullopt unless `ymd` is exactly four year digits, '-', two
// month digits, '-' and two day digits naming a real calendar date.
std::optional<int64_t> TryParseDateLiteral(const std::string& ymd);
// TryParseDateLiteral for literals known to be valid; CHECK-fails otherwise.
int64_t ParseDateLiteral(const std::string& ymd);
std::string FormatDate(int64_t days);

}  // namespace capd

#endif  // CAPD_QUERY_SQL_PARSER_H_

// Parser for the SQL dialect of paper Appendix B: standard single-table /
// multi-table SELECT (WHERE, GROUP BY, HAVING, ORDER BY, LIMIT) extended
// with the INSPECT clause:
//
//   SELECT M.epoch, S.uid
//   INSPECT U.uid AND H.h USING corr OVER D.seq AS S
//   FROM models M, units U, hypotheses H, inputs D
//   WHERE M.mid = U.mid AND M.mid = 'sqlparser' AND
//         U.layer = 0 AND H.name = 'keywords'
//   GROUP BY M.epoch
//   HAVING S.unit_score > 0.8
//
// The parser produces an AST only; execution lives in sql_executor.{h,cc}
// (plain SELECT) and src/sql (INSPECT statements, which need the core
// engine).

#pragma once

#include <optional>
#include <string>
#include <vector>

#include "relational/expr.h"

namespace deepbase {

/// \brief One item of the SELECT list.
struct SelectItem {
  ExprPtr expr;        // null when star == true
  std::string alias;   // AS name, or "" to derive from the expression
  bool star = false;   // SELECT *
};

/// \brief One table in the FROM list: `name [alias]`.
struct TableRef {
  std::string name;
  std::string alias;  // defaults to name
};

/// \brief One ORDER BY key.
struct OrderItem {
  ExprPtr expr;
  bool descending = false;
};

/// \brief The INSPECT clause (paper Appendix B). Unit/hypothesis/dataset
/// references are column expressions over the FROM relations.
struct InspectClause {
  ExprPtr unit_expr;                   // e.g. U.uid
  ExprPtr hypothesis_expr;             // e.g. H.h
  std::vector<std::string> measures;   // USING corr, logreg_l1 (may be empty)
  ExprPtr over_expr;                   // e.g. D.seq
  std::string alias = "S";             // AS S
};

/// \brief A parsed SELECT (possibly with an embedded INSPECT clause).
struct SelectStmt {
  bool distinct = false;
  std::vector<SelectItem> items;
  std::optional<InspectClause> inspect;
  std::vector<TableRef> from;
  ExprPtr where;                     // may be null
  std::vector<ExprPtr> group_by;
  ExprPtr having;                    // may be null
  std::vector<OrderItem> order_by;
  long long limit = -1;              // -1 = no limit
};

/// \brief How deep NOT, unary minus, parentheses, call arguments and IN
/// items may nest in one expression; deeper input is kInvalidArgument, so
/// no statement can overflow the parser's stack.
inline constexpr int kMaxSqlNesting = 200;

/// \brief Parse one statement. Keywords are case-insensitive; identifiers
/// and string literals are case-sensitive.
Result<SelectStmt> ParseSql(const std::string& sql);

/// \brief Parse a standalone expression (used by tests).
Result<ExprPtr> ParseSqlExpr(const std::string& text);

}  // namespace deepbase

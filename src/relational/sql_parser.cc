#include "relational/sql_parser.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>

namespace deepbase {

namespace {

std::string Lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

enum class TokenKind { kIdent, kNumber, kString, kSymbol, kEnd };

struct Token {
  TokenKind kind = TokenKind::kEnd;
  std::string text;   // raw text; for kString, the unquoted contents
  size_t offset = 0;  // for error messages
};

class Lexer {
 public:
  static Result<std::vector<Token>> Tokenize(const std::string& sql) {
    std::vector<Token> tokens;
    size_t i = 0;
    while (i < sql.size()) {
      const char c = sql[i];
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++i;
        continue;
      }
      if (c == '\'') {
        // String literal; '' escapes a quote (SQL style).
        std::string value;
        size_t j = i + 1;
        bool closed = false;
        while (j < sql.size()) {
          if (sql[j] == '\'') {
            if (j + 1 < sql.size() && sql[j + 1] == '\'') {
              value += '\'';
              j += 2;
              continue;
            }
            closed = true;
            ++j;
            break;
          }
          value += sql[j++];
        }
        if (!closed) {
          return Status::Invalid("unterminated string literal at offset " +
                                 std::to_string(i));
        }
        tokens.push_back({TokenKind::kString, std::move(value), i});
        i = j;
        continue;
      }
      if (std::isdigit(static_cast<unsigned char>(c)) ||
          (c == '.' && i + 1 < sql.size() &&
           std::isdigit(static_cast<unsigned char>(sql[i + 1])))) {
        size_t j = i;
        while (j < sql.size() &&
               (std::isdigit(static_cast<unsigned char>(sql[j])) ||
                sql[j] == '.' || sql[j] == 'e' || sql[j] == 'E' ||
                ((sql[j] == '+' || sql[j] == '-') && j > i &&
                 (sql[j - 1] == 'e' || sql[j - 1] == 'E')))) {
          ++j;
        }
        tokens.push_back({TokenKind::kNumber, sql.substr(i, j - i), i});
        i = j;
        continue;
      }
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        // Identifier, possibly qualified (a.b); the dot stays part of the
        // token so column references survive tokenization.
        size_t j = i;
        while (j < sql.size() &&
               (std::isalnum(static_cast<unsigned char>(sql[j])) ||
                sql[j] == '_' || sql[j] == '.')) {
          ++j;
        }
        tokens.push_back({TokenKind::kIdent, sql.substr(i, j - i), i});
        i = j;
        continue;
      }
      // Multi-char operators first.
      if ((c == '<' || c == '>' || c == '!') && i + 1 < sql.size() &&
          (sql[i + 1] == '=' || (c == '<' && sql[i + 1] == '>'))) {
        tokens.push_back({TokenKind::kSymbol, sql.substr(i, 2), i});
        i += 2;
        continue;
      }
      if (std::string("(),*=<>+-/;").find(c) != std::string::npos) {
        tokens.push_back({TokenKind::kSymbol, std::string(1, c), i});
        ++i;
        continue;
      }
      return Status::Invalid("unexpected character '" + std::string(1, c) +
                             "' at offset " + std::to_string(i));
    }
    tokens.push_back({TokenKind::kEnd, "", sql.size()});
    return tokens;
  }
};

class SqlParser {
 public:
  explicit SqlParser(std::vector<Token> tokens)
      : tokens_(std::move(tokens)) {}

  Result<SelectStmt> ParseStatement() {
    DB_RETURN_NOT_OK(ExpectKeyword("select"));
    SelectStmt stmt;
    stmt.distinct = TryKeyword("distinct");
    DB_RETURN_NOT_OK(ParseSelectList(&stmt));
    if (TryKeyword("inspect")) {
      DB_ASSIGN_OR_RETURN(stmt.inspect, ParseInspectClause());
    }
    DB_RETURN_NOT_OK(ExpectKeyword("from"));
    DB_RETURN_NOT_OK(ParseFromList(&stmt));
    if (TryKeyword("where")) {
      DB_ASSIGN_OR_RETURN(stmt.where, ParseExpr());
    }
    if (TryKeyword("group")) {
      DB_RETURN_NOT_OK(ExpectKeyword("by"));
      do {
        DB_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
        stmt.group_by.push_back(std::move(e));
      } while (TrySymbol(","));
    }
    if (TryKeyword("having")) {
      DB_ASSIGN_OR_RETURN(stmt.having, ParseExpr());
    }
    if (TryKeyword("order")) {
      DB_RETURN_NOT_OK(ExpectKeyword("by"));
      do {
        OrderItem item;
        DB_ASSIGN_OR_RETURN(item.expr, ParseExpr());
        if (TryKeyword("desc")) {
          item.descending = true;
        } else {
          TryKeyword("asc");
        }
        stmt.order_by.push_back(std::move(item));
      } while (TrySymbol(","));
    }
    if (TryKeyword("limit")) {
      const Token t = Next();
      if (t.kind != TokenKind::kNumber) {
        return Status::Invalid("LIMIT expects a number, got '" + t.text +
                               "'");
      }
      stmt.limit = std::strtoll(t.text.c_str(), nullptr, 10);
      if (stmt.limit < 0) return Status::Invalid("negative LIMIT");
    }
    TrySymbol(";");
    if (Peek().kind != TokenKind::kEnd) {
      return Status::Invalid("unexpected trailing token: '" + Peek().text +
                             "'");
    }
    return stmt;
  }

  Result<ExprPtr> ParseBareExpr() {
    DB_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr());
    if (Peek().kind != TokenKind::kEnd) {
      return Status::Invalid("unexpected trailing token: '" + Peek().text +
                             "'");
    }
    return e;
  }

 private:
  const Token& Peek() const { return tokens_[pos_]; }
  Token Next() {
    Token t = tokens_[pos_];
    if (tokens_[pos_].kind != TokenKind::kEnd) ++pos_;
    return t;
  }
  bool TryKeyword(const std::string& kw) {
    if (Peek().kind == TokenKind::kIdent && Lower(Peek().text) == kw) {
      ++pos_;
      return true;
    }
    return false;
  }
  Status ExpectKeyword(const std::string& kw) {
    if (TryKeyword(kw)) return Status::OK();
    return Status::Invalid("expected '" + kw + "' near '" + Peek().text +
                           "' (offset " + std::to_string(Peek().offset) +
                           ")");
  }
  bool TrySymbol(const std::string& sym) {
    if (Peek().kind == TokenKind::kSymbol && Peek().text == sym) {
      ++pos_;
      return true;
    }
    return false;
  }
  Status ExpectSymbol(const std::string& sym) {
    if (TrySymbol(sym)) return Status::OK();
    return Status::Invalid("expected '" + sym + "' near '" + Peek().text +
                           "'");
  }
  bool PeekKeyword(const std::string& kw) const {
    return Peek().kind == TokenKind::kIdent && Lower(Peek().text) == kw;
  }

  static bool IsReserved(const std::string& lower) {
    static const char* kReserved[] = {
        "select", "inspect", "from",  "where", "group", "by",
        "having", "order",   "limit", "and",   "or",    "not",
        "as",     "using",   "over",  "asc",   "desc",  "distinct",
        "like",   "in"};
    for (const char* kw : kReserved) {
      if (lower == kw) return true;
    }
    return false;
  }

  Status ParseSelectList(SelectStmt* stmt) {
    do {
      SelectItem item;
      if (TrySymbol("*")) {
        item.star = true;
      } else {
        DB_ASSIGN_OR_RETURN(item.expr, ParseExpr());
        if (TryKeyword("as")) {
          const Token t = Next();
          if (t.kind != TokenKind::kIdent) {
            return Status::Invalid("expected alias after AS");
          }
          item.alias = t.text;
        }
      }
      stmt->items.push_back(std::move(item));
    } while (TrySymbol(","));
    return Status::OK();
  }

  Result<InspectClause> ParseInspectClause() {
    InspectClause clause;
    DB_ASSIGN_OR_RETURN(clause.unit_expr, ParsePrimary());
    DB_RETURN_NOT_OK(ExpectKeyword("and"));
    DB_ASSIGN_OR_RETURN(clause.hypothesis_expr, ParsePrimary());
    if (TryKeyword("using")) {
      do {
        const Token t = Next();
        if (t.kind != TokenKind::kIdent) {
          return Status::Invalid("expected measure name in USING");
        }
        clause.measures.push_back(t.text);
      } while (TrySymbol(","));
    }
    DB_RETURN_NOT_OK(ExpectKeyword("over"));
    DB_ASSIGN_OR_RETURN(clause.over_expr, ParsePrimary());
    if (TryKeyword("as")) {
      const Token t = Next();
      if (t.kind != TokenKind::kIdent) {
        return Status::Invalid("expected alias after AS");
      }
      clause.alias = t.text;
    }
    return clause;
  }

  Status ParseFromList(SelectStmt* stmt) {
    do {
      const Token t = Next();
      if (t.kind != TokenKind::kIdent || IsReserved(Lower(t.text))) {
        return Status::Invalid("expected table name in FROM, got '" +
                               t.text + "'");
      }
      TableRef ref;
      ref.name = t.text;
      ref.alias = t.text;
      if (Peek().kind == TokenKind::kIdent && !IsReserved(Lower(Peek().text))) {
        ref.alias = Next().text;
      }
      stmt->from.push_back(std::move(ref));
    } while (TrySymbol(","));
    return Status::OK();
  }

  // Precedence climbing: or < and < not < comparison < additive <
  // multiplicative < unary < primary.
  Result<ExprPtr> ParseExpr() { return ParseOr(); }

  // Every recursive descent (NOT, unary minus, parentheses, call arguments
  // and IN items) goes through here, so the parser's stack depth is
  // bounded by kMaxSqlNesting instead of by the statement.
  Result<ExprPtr> Nested(Result<ExprPtr> (SqlParser::*parse)()) {
    if (nesting_ == kMaxSqlNesting) {
      return Status::Invalid("expression nests deeper than " +
                             std::to_string(kMaxSqlNesting) + " levels");
    }
    ++nesting_;
    Result<ExprPtr> e = (this->*parse)();
    --nesting_;
    return e;
  }

  Result<ExprPtr> ParseOr() {
    DB_ASSIGN_OR_RETURN(ExprPtr left, ParseAnd());
    while (TryKeyword("or")) {
      DB_ASSIGN_OR_RETURN(ExprPtr right, ParseAnd());
      left = Expr::Binary("or", std::move(left), std::move(right));
    }
    return left;
  }

  Result<ExprPtr> ParseAnd() {
    DB_ASSIGN_OR_RETURN(ExprPtr left, ParseNot());
    while (TryKeyword("and")) {
      DB_ASSIGN_OR_RETURN(ExprPtr right, ParseNot());
      left = Expr::Binary("and", std::move(left), std::move(right));
    }
    return left;
  }

  Result<ExprPtr> ParseNot() {
    if (TryKeyword("not")) {
      DB_ASSIGN_OR_RETURN(ExprPtr operand, Nested(&SqlParser::ParseNot));
      return Expr::Unary("not", std::move(operand));
    }
    return ParseComparison();
  }

  Result<ExprPtr> ParseComparison() {
    DB_ASSIGN_OR_RETURN(ExprPtr left, ParseAdditive());
    for (const char* op : {"<=", ">=", "<>", "!=", "=", "<", ">"}) {
      if (TrySymbol(op)) {
        DB_ASSIGN_OR_RETURN(ExprPtr right, ParseAdditive());
        return Expr::Binary(op, std::move(left), std::move(right));
      }
    }
    const bool negated = TryKeyword("not");
    if (TryKeyword("like")) {
      DB_ASSIGN_OR_RETURN(ExprPtr right, ParseAdditive());
      ExprPtr like = Expr::Binary("like", std::move(left), std::move(right));
      return negated ? Expr::Unary("not", std::move(like)) : std::move(like);
    }
    if (TryKeyword("in")) {
      DB_RETURN_NOT_OK(ExpectSymbol("("));
      // Desugar `x IN (a, b, c)` to a chain of equality ORs: same
      // semantics, no new evaluator machinery.
      ExprPtr chain;
      do {
        DB_ASSIGN_OR_RETURN(ExprPtr item, Nested(&SqlParser::ParseExpr));
        ExprPtr eq = Expr::Binary("=", left->Clone(), std::move(item));
        chain = chain ? Expr::Binary("or", std::move(chain), std::move(eq))
                      : std::move(eq);
      } while (TrySymbol(","));
      DB_RETURN_NOT_OK(ExpectSymbol(")"));
      return negated ? Expr::Unary("not", std::move(chain))
                     : std::move(chain);
    }
    if (negated) {
      return Status::Invalid("expected LIKE or IN after NOT in comparison");
    }
    return left;
  }

  Result<ExprPtr> ParseAdditive() {
    DB_ASSIGN_OR_RETURN(ExprPtr left, ParseMultiplicative());
    while (true) {
      if (TrySymbol("+")) {
        DB_ASSIGN_OR_RETURN(ExprPtr right, ParseMultiplicative());
        left = Expr::Binary("+", std::move(left), std::move(right));
      } else if (TrySymbol("-")) {
        DB_ASSIGN_OR_RETURN(ExprPtr right, ParseMultiplicative());
        left = Expr::Binary("-", std::move(left), std::move(right));
      } else {
        return left;
      }
    }
  }

  Result<ExprPtr> ParseMultiplicative() {
    DB_ASSIGN_OR_RETURN(ExprPtr left, ParseUnary());
    while (true) {
      if (TrySymbol("*")) {
        DB_ASSIGN_OR_RETURN(ExprPtr right, ParseUnary());
        left = Expr::Binary("*", std::move(left), std::move(right));
      } else if (TrySymbol("/")) {
        DB_ASSIGN_OR_RETURN(ExprPtr right, ParseUnary());
        left = Expr::Binary("/", std::move(left), std::move(right));
      } else {
        return left;
      }
    }
  }

  Result<ExprPtr> ParseUnary() {
    if (TrySymbol("-")) {
      DB_ASSIGN_OR_RETURN(ExprPtr operand, Nested(&SqlParser::ParseUnary));
      return Expr::Unary("-", std::move(operand));
    }
    return ParsePrimary();
  }

  Result<ExprPtr> ParsePrimary() {
    const Token t = Next();
    switch (t.kind) {
      case TokenKind::kNumber:
        return Expr::Literal(Datum::Number(std::strtod(t.text.c_str(),
                                                       nullptr)));
      case TokenKind::kString:
        return Expr::Literal(Datum::Str(t.text));
      case TokenKind::kSymbol:
        if (t.text == "(") {
          DB_ASSIGN_OR_RETURN(ExprPtr inner, Nested(&SqlParser::ParseExpr));
          DB_RETURN_NOT_OK(ExpectSymbol(")"));
          return inner;
        }
        if (t.text == "*") return Expr::Star();
        return Status::Invalid("unexpected '" + t.text + "' in expression");
      case TokenKind::kIdent: {
        if (IsReserved(Lower(t.text))) {
          return Status::Invalid("unexpected keyword '" + t.text +
                                 "' in expression");
        }
        if (TrySymbol("(")) {
          std::vector<ExprPtr> args;
          // COUNT(DISTINCT x) — encoded as the function "count_distinct".
          bool distinct_arg = TryKeyword("distinct");
          if (!TrySymbol(")")) {
            do {
              if (Peek().kind == TokenKind::kSymbol && Peek().text == "*") {
                ++pos_;
                args.push_back(Expr::Star());
              } else {
                DB_ASSIGN_OR_RETURN(ExprPtr arg,
                                    Nested(&SqlParser::ParseExpr));
                args.push_back(std::move(arg));
              }
            } while (TrySymbol(","));
            DB_RETURN_NOT_OK(ExpectSymbol(")"));
          }
          std::string func = t.text;
          if (distinct_arg) {
            std::string lowered = Lower(func);
            if (lowered != "count" || args.size() != 1) {
              return Status::Invalid(
                  "DISTINCT is only supported in count(DISTINCT x)");
            }
            func = "count_distinct";
          }
          return Expr::Call(std::move(func), std::move(args));
        }
        return Expr::Column(t.text);
      }
      case TokenKind::kEnd:
        return Status::Invalid("expression ends unexpectedly");
    }
    return Status::Invalid("bad token");
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  int nesting_ = 0;
};

}  // namespace

Result<SelectStmt> ParseSql(const std::string& sql) {
  DB_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lexer::Tokenize(sql));
  SqlParser parser(std::move(tokens));
  return parser.ParseStatement();
}

Result<ExprPtr> ParseSqlExpr(const std::string& text) {
  DB_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lexer::Tokenize(text));
  SqlParser parser(std::move(tokens));
  return parser.ParseBareExpr();
}

}  // namespace deepbase

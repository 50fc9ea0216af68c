// Tests for the SQL layer: Datum semantics, schema resolution, expression
// evaluation, the parser, the plain-SELECT executor (joins, aggregation,
// ordering), and the Appendix-B INSPECT statement through SqlSession.

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <set>
#include <utility>
#include <vector>

#include "core/extractor.h"
#include "hypothesis/hypothesis.h"
#include "measures/scores.h"
#include "relational/sql_executor.h"
#include "sql/sql_session.h"
#include "util/rng.h"

namespace deepbase {
namespace {

// ---------------------------------------------------------------------------
// Datum.
// ---------------------------------------------------------------------------

TEST(DatumTest, OrderingAndEquality) {
  EXPECT_TRUE(Datum::Number(1) < Datum::Number(2));
  EXPECT_TRUE(Datum::Str("a") < Datum::Str("b"));
  EXPECT_TRUE(Datum::Null() < Datum::Number(0));    // NULL sorts first
  EXPECT_TRUE(Datum::Number(9) < Datum::Str(""));   // numbers before strings
  EXPECT_EQ(Datum::Number(2), Datum::Number(2));
  EXPECT_EQ(Datum::Null(), Datum::Null());
}

TEST(DatumTest, TruthinessAndDisplay) {
  EXPECT_FALSE(Datum::Null().Truthy());
  EXPECT_FALSE(Datum::Number(0).Truthy());
  EXPECT_TRUE(Datum::Number(0.5).Truthy());
  EXPECT_FALSE(Datum::Str("").Truthy());
  EXPECT_TRUE(Datum::Str("x").Truthy());
  EXPECT_EQ(Datum::Number(3).ToString(), "3");
  EXPECT_EQ(Datum::Str("hi").ToString(), "hi");
  EXPECT_EQ(Datum::Null().ToString(), "NULL");
}

// ---------------------------------------------------------------------------
// Schema resolution.
// ---------------------------------------------------------------------------

TEST(DbSchemaTest, ExactAndSuffixResolution) {
  DbSchema schema({"U.uid", "U.mid", "H.h"});
  EXPECT_EQ(*schema.Resolve("U.uid"), 0u);
  EXPECT_EQ(*schema.Resolve("uid"), 0u);  // unique suffix
  EXPECT_EQ(*schema.Resolve("h"), 2u);
  EXPECT_EQ(schema.Resolve("nope").status().code(), StatusCode::kNotFound);
}

TEST(DbSchemaTest, AmbiguousSuffixIsAnError) {
  DbSchema schema({"A.x", "B.x"});
  EXPECT_EQ(schema.Resolve("x").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(schema.Resolve("A.x").ok());
}

TEST(DbTableTest, AppendRejectsWrongArity) {
  DbTable t({"a", "b"});
  EXPECT_TRUE(t.AppendRow({Datum::Number(1), Datum::Number(2)}).ok());
  EXPECT_FALSE(t.AppendRow({Datum::Number(1)}).ok());
  EXPECT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.At(0, "b")->num, 2.0);
}

TEST(DbTableTest, CsvExportQuotesSpecialFields) {
  DbTable t({"name", "note"});
  ASSERT_TRUE(
      t.AppendRow({Datum::Str("plain"), Datum::Str("a,b")}).ok());
  ASSERT_TRUE(
      t.AppendRow({Datum::Str("quo\"te"), Datum::Null()}).ok());
  const std::string csv = t.ToCsv();
  EXPECT_EQ(csv,
            "name,note\n"
            "plain,\"a,b\"\n"
            "\"quo\"\"te\",\n");
}

// ---------------------------------------------------------------------------
// Expressions.
// ---------------------------------------------------------------------------

Datum EvalOn(const std::string& text, const DbSchema& schema,
             const DbRow& row) {
  Result<ExprPtr> e = ParseSqlExpr(text);
  EXPECT_TRUE(e.ok()) << text << ": " << e.status().ToString();
  Result<Datum> v = EvalScalar(**e, schema, row);
  EXPECT_TRUE(v.ok()) << text << ": " << v.status().ToString();
  return *v;
}

TEST(ExprTest, ArithmeticPrecedence) {
  DbSchema schema({"x"});
  DbRow row = {Datum::Number(10)};
  EXPECT_EQ(EvalOn("1 + 2 * 3", schema, row).num, 7.0);
  EXPECT_EQ(EvalOn("(1 + 2) * 3", schema, row).num, 9.0);
  EXPECT_EQ(EvalOn("-x + 1", schema, row).num, -9.0);
  EXPECT_EQ(EvalOn("x / 4", schema, row).num, 2.5);
}

TEST(ExprTest, ComparisonAndLogic) {
  DbSchema schema({"x", "name"});
  DbRow row = {Datum::Number(5), Datum::Str("abc")};
  EXPECT_TRUE(EvalOn("x > 3 AND name = 'abc'", schema, row).Truthy());
  EXPECT_FALSE(EvalOn("x > 3 AND name = 'xyz'", schema, row).Truthy());
  EXPECT_TRUE(EvalOn("x <= 5 OR 1 = 2", schema, row).Truthy());
  EXPECT_TRUE(EvalOn("NOT (x <> 5)", schema, row).Truthy());
  EXPECT_TRUE(EvalOn("x >= 5", schema, row).Truthy());
}

TEST(ExprTest, NullPropagation) {
  DbSchema schema({"x"});
  DbRow row = {Datum::Null()};
  EXPECT_TRUE(EvalOn("x + 1", schema, row).is_null());
  EXPECT_TRUE(EvalOn("x = 0", schema, row).is_null());
  EXPECT_EQ(EvalOn("coalesce(x, 7)", schema, row).num, 7.0);
  EXPECT_TRUE(EvalOn("1 / 0", schema, row).is_null());  // SQL-style
}

TEST(ExprTest, ScalarFunctions) {
  DbSchema schema({"x"});
  DbRow row = {Datum::Number(-2.71)};
  EXPECT_FLOAT_EQ(EvalOn("abs(x)", schema, row).num, 2.71);
  EXPECT_EQ(EvalOn("round(x)", schema, row).num, -3.0);
  EXPECT_FLOAT_EQ(EvalOn("round(x, 1)", schema, row).num, -2.7);
  EXPECT_EQ(EvalOn("length('hello')", schema, row).num, 5.0);
  EXPECT_EQ(EvalOn("'a' + 'b'", schema, row).str, "ab");
}

TEST(ExprTest, LikePatterns) {
  DbSchema schema({"name"});
  DbRow row = {Datum::Str("table_59")};
  EXPECT_TRUE(EvalOn("name LIKE 'table%'", schema, row).Truthy());
  EXPECT_TRUE(EvalOn("name LIKE '%59'", schema, row).Truthy());
  EXPECT_TRUE(EvalOn("name LIKE 'table__9'", schema, row).Truthy());
  EXPECT_TRUE(EvalOn("name LIKE '%able%'", schema, row).Truthy());
  EXPECT_FALSE(EvalOn("name LIKE 'table'", schema, row).Truthy());
  EXPECT_FALSE(EvalOn("name LIKE '_'", schema, row).Truthy());
  EXPECT_TRUE(EvalOn("name LIKE '%'", schema, row).Truthy());
  EXPECT_TRUE(EvalOn("name NOT LIKE 'col%'", schema, row).Truthy());
  EXPECT_TRUE(EvalOn("'' LIKE '%'", schema, row).Truthy());
  EXPECT_FALSE(EvalOn("'' LIKE '_'", schema, row).Truthy());
}

TEST(ExprTest, InListDesugarsToEqualities) {
  DbSchema schema({"x", "name"});
  DbRow row = {Datum::Number(3), Datum::Str("eng")};
  EXPECT_TRUE(EvalOn("x IN (1, 2, 3)", schema, row).Truthy());
  EXPECT_FALSE(EvalOn("x IN (1, 2)", schema, row).Truthy());
  EXPECT_TRUE(EvalOn("name IN ('hr', 'eng')", schema, row).Truthy());
  EXPECT_TRUE(EvalOn("x NOT IN (7, 8)", schema, row).Truthy());
  EXPECT_FALSE(EvalOn("x NOT IN (3)", schema, row).Truthy());
}

TEST(ExprTest, LikeOnNumbersIsAnError) {
  DbSchema schema({"x"});
  DbRow row = {Datum::Number(3)};
  Result<ExprPtr> e = ParseSqlExpr("x LIKE '3%'");
  ASSERT_TRUE(e.ok());
  EXPECT_FALSE(EvalScalar(**e, schema, row).ok());
}

TEST(ExprTest, AggregateOverGroup) {
  DbSchema schema({"x", "y"});
  std::vector<DbRow> rows = {{Datum::Number(1), Datum::Number(2)},
                             {Datum::Number(2), Datum::Number(4)},
                             {Datum::Number(3), Datum::Number(6)}};
  std::vector<const DbRow*> group;
  for (const DbRow& r : rows) group.push_back(&r);

  auto eval = [&](const std::string& text) {
    Result<ExprPtr> e = ParseSqlExpr(text);
    EXPECT_TRUE(e.ok()) << text;
    Result<Datum> v = EvalAggregate(**e, schema, group);
    EXPECT_TRUE(v.ok()) << text << ": " << v.status().ToString();
    return *v;
  };
  EXPECT_EQ(eval("count(*)").num, 3.0);
  EXPECT_EQ(eval("sum(x)").num, 6.0);
  EXPECT_EQ(eval("avg(y)").num, 4.0);
  EXPECT_EQ(eval("min(x)").num, 1.0);
  EXPECT_EQ(eval("max(y)").num, 6.0);
  EXPECT_NEAR(eval("corr(x, y)").num, 1.0, 1e-12);  // y = 2x exactly
  EXPECT_EQ(eval("sum(x) + count(*)").num, 9.0);    // mixed expression
  EXPECT_EQ(eval("abs(corr(x, 0 - y))").num, 1.0);  // scalar over aggregate
}

TEST(ExprTest, AggregateInScalarContextFails) {
  DbSchema schema({"x"});
  DbRow row = {Datum::Number(1)};
  Result<ExprPtr> e = ParseSqlExpr("sum(x)");
  ASSERT_TRUE(e.ok());
  EXPECT_FALSE(EvalScalar(**e, schema, row).ok());
}

// ---------------------------------------------------------------------------
// Parser.
// ---------------------------------------------------------------------------

TEST(SqlParserTest, FullStatementRoundTrip) {
  Result<SelectStmt> stmt = ParseSql(
      "SELECT M.epoch, S.uid "
      "INSPECT U.uid AND H.h USING corr, logreg_l1 OVER D.seq AS S "
      "FROM models M, units U, hypotheses H, inputs D "
      "WHERE M.mid = U.mid AND U.layer = 0 AND H.name = 'keywords' "
      "GROUP BY M.epoch "
      "HAVING S.unit_score > 0.8 "
      "ORDER BY S.unit_score DESC LIMIT 10");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_EQ(stmt->items.size(), 2u);
  ASSERT_TRUE(stmt->inspect.has_value());
  EXPECT_EQ(stmt->inspect->unit_expr->column, "U.uid");
  EXPECT_EQ(stmt->inspect->hypothesis_expr->column, "H.h");
  EXPECT_EQ(stmt->inspect->measures,
            (std::vector<std::string>{"corr", "logreg_l1"}));
  EXPECT_EQ(stmt->inspect->over_expr->column, "D.seq");
  EXPECT_EQ(stmt->inspect->alias, "S");
  EXPECT_EQ(stmt->from.size(), 4u);
  EXPECT_EQ(stmt->from[0].name, "models");
  EXPECT_EQ(stmt->from[0].alias, "M");
  ASSERT_NE(stmt->where, nullptr);
  EXPECT_EQ(stmt->group_by.size(), 1u);
  ASSERT_NE(stmt->having, nullptr);
  EXPECT_EQ(stmt->order_by.size(), 1u);
  EXPECT_TRUE(stmt->order_by[0].descending);
  EXPECT_EQ(stmt->limit, 10);
}

TEST(SqlParserTest, StringEscapes) {
  Result<SelectStmt> stmt =
      ParseSql("SELECT * FROM t WHERE name = 'it''s'");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->where->args[1]->literal.str, "it's");
}

TEST(SqlParserTest, SyntaxErrors) {
  for (const char* bad :
       {"", "SELECT", "SELECT x", "SELECT x FROM", "FROM t",
        "SELECT x FROM t WHERE", "SELECT x FROM t LIMIT -1",
        "SELECT x FROM t GROUP", "SELECT x FROM t trailing garbage",
        "SELECT x FROM t WHERE name = 'unterminated"}) {
    Result<SelectStmt> stmt = ParseSql(bad);
    EXPECT_FALSE(stmt.ok()) << "should fail: " << bad;
  }
}

TEST(SqlParserTest, RandomGarbageNeverCrashes) {
  // Fuzz-lite: random byte strings and random token shuffles must produce
  // a Status, never a crash or hang.
  Rng rng(77);
  const std::string charset =
      "SELECT FROM WHERE GROUP BY HAVING ORDER LIMIT INSPECT USING OVER "
      "AND OR NOT ( ) , * = < > ' ; 0 1 2 . x y _ \t\n";
  for (int trial = 0; trial < 500; ++trial) {
    const size_t len = 1 + rng.UniformInt(80);
    std::string input;
    for (size_t i = 0; i < len; ++i) {
      input += charset[rng.UniformInt(charset.size())];
    }
    ParseSql(input);     // must return; ok or error both fine
    ParseSqlExpr(input);
  }
}

std::string Repeat(const std::string& s, int n) {
  std::string out;
  for (int i = 0; i < n; ++i) out += s;
  return out;
}

// NOT, unary minus and parentheses recurse in the parser, so their depth
// is bounded: past kMaxSqlNesting the statement is kInvalidArgument, not a
// stack overflow, however deep the text nests.
TEST(SqlParserTest, NestingPastTheBoundIsInvalid) {
  const std::vector<std::pair<std::string, std::function<Status(int)>>>
      shapes = {
          {"ParseSql parentheses",
           [](int n) {
             return ParseSql("SELECT " + Repeat("(", n) + "1" +
                             Repeat(")", n) + " FROM t")
                 .status();
           }},
          {"ParseSql NOT",
           [](int n) {
             return ParseSql("SELECT a FROM t WHERE " + Repeat("NOT ", n) +
                             "a")
                 .status();
           }},
          {"ParseSql unary minus",
           [](int n) {
             return ParseSql("SELECT " + Repeat("- ", n) + "1 FROM t")
                 .status();
           }},
          {"ParseSqlExpr parentheses",
           [](int n) {
             return ParseSqlExpr(Repeat("(", n) + "1" + Repeat(")", n))
                 .status();
           }},
      };
  for (const auto& [name, parse] : shapes) {
    EXPECT_TRUE(parse(kMaxSqlNesting).ok()) << name;
    for (const int n : {kMaxSqlNesting + 1, 4000, 100000}) {
      EXPECT_EQ(parse(n).code(), StatusCode::kInvalidArgument)
          << name << " at " << n;
    }
  }
}

TEST(SqlParserTest, KeywordsAreCaseInsensitive) {
  EXPECT_TRUE(ParseSql("select x from t where x > 1 order by x desc").ok());
  EXPECT_TRUE(ParseSql("SELECT x FROM t LIMIT 3;").ok());
}

// Property: Expr::ToString round-trips through the parser with identical
// evaluation on random rows.
class ExprRoundTripTest : public ::testing::TestWithParam<const char*> {};

TEST_P(ExprRoundTripTest, ToStringReparsesToSameValue) {
  DbSchema schema({"x", "y", "name"});
  Result<ExprPtr> original = ParseSqlExpr(GetParam());
  ASSERT_TRUE(original.ok()) << GetParam();
  Result<ExprPtr> reparsed = ParseSqlExpr((*original)->ToString());
  ASSERT_TRUE(reparsed.ok()) << "reparse of: " << (*original)->ToString();
  Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    DbRow row = {Datum::Number(rng.Normal() * 5),
                 Datum::Number(rng.Normal() * 5),
                 Datum::Str(rng.Bernoulli(0.5) ? "abc" : "xyz")};
    Result<Datum> a = EvalScalar(**original, schema, row);
    Result<Datum> b = EvalScalar(**reparsed, schema, row);
    ASSERT_EQ(a.ok(), b.ok());
    if (a.ok()) {
      EXPECT_EQ(a->ToString(), b->ToString()) << GetParam();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Exprs, ExprRoundTripTest,
    ::testing::Values("x + y * 2", "(x + y) * 2", "-x - -y",
                      "x > 0 AND y < 1 OR NOT (name = 'abc')",
                      "abs(x) + round(y, 1)", "coalesce(x, y, 0)",
                      "x / (y + 100)", "length(name) = 3",
                      "name = 'abc' AND x <= y"));

// ---------------------------------------------------------------------------
// Plain-SELECT executor.
// ---------------------------------------------------------------------------

class ExecutorFixture : public ::testing::Test {
 protected:
  ExecutorFixture()
      : employees_({"name", "dept", "salary"}),
        departments_({"dept", "city"}) {
    auto add_emp = [&](const char* n, const char* d, double s) {
      DB_CHECK_OK(employees_.AppendRow(
          {Datum::Str(n), Datum::Str(d), Datum::Number(s)}));
    };
    add_emp("ann", "eng", 120);
    add_emp("bob", "eng", 100);
    add_emp("cat", "sales", 90);
    add_emp("dan", "sales", 80);
    add_emp("eve", "hr", 70);
    DB_CHECK_OK(departments_.AppendRow(
        {Datum::Str("eng"), Datum::Str("nyc")}));
    DB_CHECK_OK(departments_.AppendRow(
        {Datum::Str("sales"), Datum::Str("sf")}));
    catalog_.Register("employees", &employees_);
    catalog_.Register("departments", &departments_);
  }

  DbTable Run(const std::string& sql) {
    Result<DbTable> r = ExecuteSql(sql, catalog_);
    EXPECT_TRUE(r.ok()) << sql << ": " << r.status().ToString();
    return r.ok() ? std::move(*r) : DbTable();
  }

  DbTable employees_;
  DbTable departments_;
  DbCatalog catalog_;
};

TEST_F(ExecutorFixture, SelectStarAndWhere) {
  DbTable t = Run("SELECT * FROM employees WHERE salary >= 90");
  EXPECT_EQ(t.num_rows(), 3u);
  EXPECT_EQ(t.num_cols(), 3u);
}

TEST_F(ExecutorFixture, ProjectionAndAliases) {
  DbTable t = Run("SELECT name, salary * 2 AS double_pay FROM employees "
                  "WHERE name = 'ann'");
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.schema().name(1), "double_pay");
  EXPECT_EQ(t.At(0, "double_pay")->num, 240.0);
}

TEST_F(ExecutorFixture, HashJoinOnEquality) {
  DbTable t = Run(
      "SELECT E.name, D.city FROM employees E, departments D "
      "WHERE E.dept = D.dept ORDER BY E.name");
  ASSERT_EQ(t.num_rows(), 4u);  // eve's hr has no department row
  EXPECT_EQ(t.At(0, "name")->str, "ann");
  EXPECT_EQ(t.At(0, "city")->str, "nyc");
  EXPECT_EQ(t.At(2, "name")->str, "cat");
  EXPECT_EQ(t.At(2, "city")->str, "sf");
}

TEST_F(ExecutorFixture, CrossJoinWithoutEquality) {
  DbTable t = Run("SELECT E.name FROM employees E, departments D");
  EXPECT_EQ(t.num_rows(), 10u);  // 5 × 2
}

TEST_F(ExecutorFixture, GroupByWithAggregatesAndHaving) {
  DbTable t = Run(
      "SELECT dept, count(*) AS n, avg(salary) AS pay FROM employees "
      "GROUP BY dept HAVING count(*) >= 2 ORDER BY pay DESC");
  ASSERT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.At(0, "dept")->str, "eng");
  EXPECT_EQ(t.At(0, "n")->num, 2.0);
  EXPECT_EQ(t.At(0, "pay")->num, 110.0);
  EXPECT_EQ(t.At(1, "dept")->str, "sales");
}

TEST_F(ExecutorFixture, GlobalAggregateWithoutGroupBy) {
  DbTable t = Run("SELECT count(*), sum(salary) FROM employees");
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.row(0)[0].num, 5.0);
  EXPECT_EQ(t.row(0)[1].num, 460.0);
}

TEST_F(ExecutorFixture, OrderByAscAndLimit) {
  DbTable t = Run("SELECT name FROM employees ORDER BY salary LIMIT 2");
  ASSERT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.At(0, "name")->str, "eve");
  EXPECT_EQ(t.At(1, "name")->str, "dan");
}

TEST_F(ExecutorFixture, LikeAndInFiltersInWhere) {
  EXPECT_EQ(Run("SELECT * FROM employees WHERE name LIKE '%a%'").num_rows(),
            3u);  // ann, cat, dan
  EXPECT_EQ(Run("SELECT * FROM employees WHERE dept IN ('eng', 'hr')")
                .num_rows(),
            3u);
  EXPECT_EQ(Run("SELECT * FROM employees WHERE name NOT LIKE '_a_'")
                .num_rows(),
            3u);  // everyone except cat and dan
}

TEST_F(ExecutorFixture, DistinctDeduplicatesProjectedRows) {
  DbTable t = Run("SELECT DISTINCT dept FROM employees ORDER BY dept");
  ASSERT_EQ(t.num_rows(), 3u);
  EXPECT_EQ(t.At(0, "dept")->str, "eng");
  EXPECT_EQ(t.At(1, "dept")->str, "hr");
  EXPECT_EQ(t.At(2, "dept")->str, "sales");
  // Without DISTINCT all five rows come back.
  EXPECT_EQ(Run("SELECT dept FROM employees").num_rows(), 5u);
  // DISTINCT over multiple columns keys on the whole projected row.
  EXPECT_EQ(Run("SELECT DISTINCT dept, salary FROM employees").num_rows(),
            5u);
}

TEST_F(ExecutorFixture, CountDistinctAggregate) {
  DbTable t = Run("SELECT count(DISTINCT dept) AS depts, count(*) AS n "
                  "FROM employees");
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_EQ(t.At(0, "depts")->num, 3.0);
  EXPECT_EQ(t.At(0, "n")->num, 5.0);
  // Per group it collapses to the group's distinct values.
  DbTable g = Run("SELECT dept, count(DISTINCT salary) AS pays "
                  "FROM employees GROUP BY dept ORDER BY dept");
  ASSERT_EQ(g.num_rows(), 3u);
  EXPECT_EQ(g.At(0, "pays")->num, 2.0);  // eng: 120, 100
  // DISTINCT inside any other function is rejected.
  EXPECT_FALSE(
      ExecuteSql("SELECT sum(DISTINCT salary) FROM employees", catalog_)
          .ok());
}

TEST_F(ExecutorFixture, CorrAggregate) {
  DbTable t = Run("SELECT corr(salary, salary) FROM employees");
  ASSERT_EQ(t.num_rows(), 1u);
  EXPECT_NEAR(t.row(0)[0].num, 1.0, 1e-12);
}

TEST_F(ExecutorFixture, ExplainShowsJoinStrategyWithoutExecuting) {
  DbTable plan = Run(
      "EXPLAIN SELECT E.name, D.city FROM employees E, departments D "
      "WHERE E.dept = D.dept AND E.salary > 90 ORDER BY E.name LIMIT 3");
  ASSERT_GT(plan.num_rows(), 3u);
  EXPECT_EQ(plan.schema().name(0), "plan");
  std::string joined;
  for (size_t r = 0; r < plan.num_rows(); ++r) {
    joined += plan.row(r)[0].str;
    joined += '\n';
  }
  EXPECT_NE(joined.find("Scan employees AS E"), std::string::npos) << joined;
  EXPECT_NE(joined.find("HashJoin departments"), std::string::npos)
      << joined;
  EXPECT_NE(joined.find("Filter"), std::string::npos) << joined;
  EXPECT_NE(joined.find("OrderBy"), std::string::npos) << joined;
  EXPECT_NE(joined.find("Limit 3"), std::string::npos) << joined;
  // Without the join conjunct the plan degrades to a cross join.
  DbTable cross = Run(
      "EXPLAIN SELECT E.name FROM employees E, departments D");
  std::string cross_text;
  for (size_t r = 0; r < cross.num_rows(); ++r) {
    cross_text += cross.row(r)[0].str;
  }
  EXPECT_NE(cross_text.find("CrossJoin departments"), std::string::npos);
}

TEST_F(ExecutorFixture, ErrorsAreDescriptive) {
  EXPECT_EQ(ExecuteSql("SELECT * FROM nope", catalog_).status().code(),
            StatusCode::kNotFound);
  EXPECT_FALSE(ExecuteSql("SELECT nope FROM employees", catalog_).ok());
  EXPECT_FALSE(
      ExecuteSql("SELECT * FROM employees E, employees E", catalog_).ok());
  // Ambiguous bare column across two tables.
  EXPECT_FALSE(ExecuteSql("SELECT dept FROM employees E, departments D",
                          catalog_)
                   .ok());
}

// ---------------------------------------------------------------------------
// Property sweep: grouped aggregates against a hand-rolled oracle over
// randomized tables.
// ---------------------------------------------------------------------------

class AggregateOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AggregateOracleTest, GroupedAggregatesMatchOracle) {
  Rng rng(GetParam());
  const size_t n = 40 + rng.UniformInt(60);
  const int num_groups = 2 + static_cast<int>(rng.UniformInt(4));
  DbTable t({"g", "x"});
  std::map<int, std::vector<double>> oracle;
  for (size_t i = 0; i < n; ++i) {
    const int g = static_cast<int>(rng.UniformInt(num_groups));
    const double x = rng.Normal() * 10.0;
    ASSERT_TRUE(t.AppendRow({Datum::Number(g), Datum::Number(x)}).ok());
    oracle[g].push_back(x);
  }
  DbCatalog catalog;
  catalog.Register("t", &t);
  Result<DbTable> result = ExecuteSql(
      "SELECT g, count(*) AS n, sum(x) AS s, min(x) AS lo, max(x) AS hi, "
      "avg(x) AS mean FROM t GROUP BY g ORDER BY g",
      catalog);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->num_rows(), oracle.size());
  size_t r = 0;
  for (const auto& [g, xs] : oracle) {  // std::map: ascending g
    EXPECT_EQ(result->row(r)[0].num, g);
    EXPECT_EQ(result->row(r)[1].num, static_cast<double>(xs.size()));
    double sum = 0, lo = xs[0], hi = xs[0];
    for (double x : xs) {
      sum += x;
      lo = std::min(lo, x);
      hi = std::max(hi, x);
    }
    EXPECT_NEAR(result->row(r)[2].num, sum, 1e-9 * (1 + std::fabs(sum)));
    EXPECT_EQ(result->row(r)[3].num, lo);
    EXPECT_EQ(result->row(r)[4].num, hi);
    EXPECT_NEAR(result->row(r)[5].num, sum / xs.size(), 1e-9);
    ++r;
  }
}

TEST_P(AggregateOracleTest, WhereFilterMatchesOracleCount) {
  Rng rng(GetParam() + 1000);
  DbTable t({"x"});
  size_t expected = 0;
  for (size_t i = 0; i < 100; ++i) {
    const double x = rng.Normal();
    ASSERT_TRUE(t.AppendRow({Datum::Number(x)}).ok());
    expected += (x > 0.25);
  }
  DbCatalog catalog;
  catalog.Register("t", &t);
  Result<DbTable> result =
      ExecuteSql("SELECT count(*) FROM t WHERE x > 0.25", catalog);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->row(0)[0].num, static_cast<double>(expected));
}

TEST_P(AggregateOracleTest, OrderByProducesSortedOutput) {
  Rng rng(GetParam() + 2000);
  DbTable t({"x"});
  for (size_t i = 0; i < 50; ++i) {
    ASSERT_TRUE(t.AppendRow({Datum::Number(rng.Normal())}).ok());
  }
  DbCatalog catalog;
  catalog.Register("t", &t);
  for (const char* dir : {"ASC", "DESC"}) {
    Result<DbTable> result = ExecuteSql(
        std::string("SELECT x FROM t ORDER BY x ") + dir, catalog);
    ASSERT_TRUE(result.ok());
    ASSERT_EQ(result->num_rows(), 50u);
    for (size_t r = 1; r < result->num_rows(); ++r) {
      if (std::string(dir) == "ASC") {
        EXPECT_LE(result->row(r - 1)[0].num, result->row(r)[0].num);
      } else {
        EXPECT_GE(result->row(r - 1)[0].num, result->row(r)[0].num);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AggregateOracleTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// ---------------------------------------------------------------------------
// INSPECT statements through SqlSession.
// ---------------------------------------------------------------------------

// Planted model: unit 0 tracks 'a' (plus jitter), other units hash the
// whole record (noise).
class PlantedExtractor : public Extractor {
 public:
  explicit PlantedExtractor(size_t units = 4)
      : Extractor("planted"), units_(units) {}
  size_t num_units() const override { return units_; }
  Matrix ExtractRecord(const Record& rec,
                       const std::vector<int>& unit_ids) const override {
    size_t rec_hash = 1469598103u;
    for (int id : rec.ids) rec_hash = rec_hash * 1099511628211ull + id + 1;
    Matrix out(rec.size(), unit_ids.size());
    for (size_t t = 0; t < rec.size(); ++t) {
      const float jitter =
          0.01f * static_cast<float>((rec.ids[t] * 31 + t * 7) % 13);
      for (size_t j = 0; j < unit_ids.size(); ++j) {
        const int u = unit_ids[j];
        if (u == 0) {
          out(t, j) = (rec.tokens[t] == "a" ? 1.0f : 0.0f) + jitter;
        } else {
          out(t, j) = static_cast<float>(
                          (rec_hash * 40503u * (u + 1) + t * 2654435761u) %
                          997) /
                          498.5f -
                      1.0f;
        }
      }
    }
    return out;
  }

 private:
  size_t units_;
};

class SqlSessionFixture : public ::testing::Test {
 protected:
  SqlSessionFixture() : dataset_(Vocab::FromChars("ab"), 8) {
    Rng rng(3);
    for (int i = 0; i < 120; ++i) {
      std::string text;
      for (int t = 0; t < 8; ++t) text += rng.Bernoulli(0.4) ? 'a' : 'b';
      dataset_.AddText(text);
    }
    session_.mutable_options()->block_size = 32;
    session_.RegisterModel("sqlparser", &extractor_, /*layer_size=*/2,
                           {{"epoch", Datum::Number(4)}});
    session_.RegisterHypotheses(
        "keywords",
        {std::make_shared<FunctionHypothesis>(
            "is_a",
            [](const Record& rec) {
              std::vector<float> out(rec.size(), 0.0f);
              for (size_t i = 0; i < rec.size(); ++i) {
                if (rec.tokens[i] == "a") out[i] = 1.0f;
              }
              return out;
            })});
    session_.RegisterDataset("queries", &dataset_);
  }

  PlantedExtractor extractor_;
  Dataset dataset_;
  SqlSession session_;
};

TEST_F(SqlSessionFixture, CatalogTablesAreQueryable) {
  Result<DbTable> models = session_.Execute("SELECT * FROM models");
  ASSERT_TRUE(models.ok()) << models.status().ToString();
  ASSERT_EQ(models->num_rows(), 1u);
  EXPECT_EQ(models->At(0, "mid")->str, "sqlparser");
  EXPECT_EQ(models->At(0, "epoch")->num, 4.0);

  Result<DbTable> units = session_.Execute(
      "SELECT count(*) AS n FROM units WHERE layer = 1");
  ASSERT_TRUE(units.ok());
  EXPECT_EQ(units->At(0, "n")->num, 2.0);  // units 2, 3 in layer 1

  Result<DbTable> hyps = session_.Execute("SELECT * FROM hypotheses");
  ASSERT_TRUE(hyps.ok());
  ASSERT_EQ(hyps->num_rows(), 1u);
  EXPECT_EQ(hyps->At(0, "h")->str, "is_a");
  EXPECT_EQ(hyps->At(0, "name")->str, "keywords");

  Result<DbTable> inputs = session_.Execute("SELECT * FROM inputs");
  ASSERT_TRUE(inputs.ok());
  EXPECT_EQ(inputs->num_rows(), 1u);
}

TEST_F(SqlSessionFixture, AppendixBQueryFindsThePlantedUnit) {
  Result<DbTable> result = session_.Execute(
      "SELECT M.epoch, S.uid "
      "INSPECT U.uid AND H.h USING corr OVER D.seq AS S "
      "FROM models M, units U, hypotheses H, inputs D "
      "WHERE M.mid = U.mid AND M.mid = 'sqlparser' AND "
      "      U.layer = 0 AND H.name = 'keywords' "
      "GROUP BY M.epoch "
      "HAVING S.unit_score > 0.8");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->num_rows(), 1u);  // only the planted unit survives
  EXPECT_EQ(result->At(0, "epoch")->num, 4.0);
  EXPECT_EQ(result->At(0, "uid")->num, 0.0);
}

TEST_F(SqlSessionFixture, LayerFilterScopesTheInspection) {
  // Layer 1 contains only noise units; nothing passes the threshold.
  Result<DbTable> result = session_.Execute(
      "SELECT S.uid "
      "INSPECT U.uid AND H.h OVER D.seq AS S "
      "FROM units U, hypotheses H, inputs D "
      "WHERE U.layer = 1 AND H.name = 'keywords' "
      "HAVING S.unit_score > 0.8");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->num_rows(), 0u);
}

TEST_F(SqlSessionFixture, GroupByLayerRunsSeparateInspections) {
  Result<DbTable> result = session_.Execute(
      "SELECT U.layer, S.uid, S.unit_score "
      "INSPECT U.uid AND H.h OVER D.seq AS S "
      "FROM units U, hypotheses H, inputs D "
      "WHERE H.name = 'keywords' "
      "GROUP BY U.layer "
      "ORDER BY S.uid");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->num_rows(), 4u);  // all units scored, grouped by layer
  EXPECT_EQ(result->At(0, "U.layer")->num, 0.0);
  EXPECT_EQ(result->At(3, "U.layer")->num, 1.0);
  // The planted unit's correlation is near-perfect.
  EXPECT_GT(result->At(0, "S.unit_score")->num, 0.9);
}

TEST_F(SqlSessionFixture, MultiKeyGroupByPartitionsByBothColumns) {
  // Register a second model so (mid, layer) has four distinct groups.
  PlantedExtractor second(4);
  session_.RegisterModel("other", &second, /*layer_size=*/2);
  Result<DbTable> result = session_.Execute(
      "SELECT U.mid, U.layer, S.uid "
      "INSPECT U.uid AND H.h OVER D.seq AS S "
      "FROM units U, hypotheses H, inputs D "
      "WHERE H.name = 'keywords' "
      "GROUP BY U.mid, U.layer ORDER BY U.mid, U.layer, S.uid");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // 2 models × 4 units each, every unit scored exactly once.
  ASSERT_EQ(result->num_rows(), 8u);
  std::set<std::pair<std::string, double>> groups;
  for (size_t r = 0; r < result->num_rows(); ++r) {
    groups.emplace(result->At(r, "U.mid")->str,
                   result->At(r, "U.layer")->num);
  }
  EXPECT_EQ(groups.size(), 4u);  // (sqlparser|other) × (layer 0|1)
}

TEST_F(SqlSessionFixture, MultipleMeasuresEmitSeparateRows) {
  Result<DbTable> result = session_.Execute(
      "SELECT S.measure, S.uid "
      "INSPECT U.uid AND H.h USING corr, jaccard OVER D.seq AS S "
      "FROM units U, hypotheses H, inputs D "
      "WHERE H.name = 'keywords' AND U.uid = 0");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->num_rows(), 2u);
}

TEST_F(SqlSessionFixture, ExplainInspectStatementShowsInspectOperator) {
  Result<DbTable> plan = session_.Execute(
      "EXPLAIN SELECT S.uid INSPECT U.uid AND H.h OVER D.seq AS S "
      "FROM units U, hypotheses H, inputs D WHERE H.name = 'keywords'");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  std::string text;
  for (size_t r = 0; r < plan->num_rows(); ++r) {
    text += plan->row(r)[0].str;
    text += '\n';
  }
  EXPECT_NE(text.find("Inspect U.uid AND H.h OVER D.seq AS S"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("Scan units"), std::string::npos) << text;
}

TEST_F(SqlSessionFixture, InspectErrorsAreDescriptive) {
  // Unknown measure.
  EXPECT_FALSE(session_
                   .Execute("SELECT S.uid INSPECT U.uid AND H.h USING "
                            "vibes OVER D.seq AS S "
                            "FROM units U, hypotheses H, inputs D")
                   .ok());
  // OVER referencing a non-inputs table.
  EXPECT_FALSE(session_
                   .Execute("SELECT S.uid INSPECT U.uid AND H.h OVER "
                            "U.mid AS S "
                            "FROM units U, hypotheses H")
                   .ok());
  // Unit reference must be a column.
  EXPECT_FALSE(session_
                   .Execute("SELECT S.uid INSPECT 1 AND H.h OVER D.seq AS "
                            "S FROM hypotheses H, inputs D")
                   .ok());
}

TEST_F(SqlSessionFixture, SqlPathMatchesDirectApiScores) {
  // The INSPECT-in-SQL path must compute exactly the scores of the direct
  // C++ API on the same units/hypotheses/measure.
  Result<DbTable> via_sql = session_.Execute(
      "SELECT S.uid, S.unit_score "
      "INSPECT U.uid AND H.h USING corr OVER D.seq AS S "
      "FROM units U, hypotheses H, inputs D "
      "WHERE H.name = 'keywords' ORDER BY S.uid");
  ASSERT_TRUE(via_sql.ok()) << via_sql.status().ToString();

  InspectOptions opts;
  opts.block_size = 32;
  std::vector<HypothesisPtr> hyps = {std::make_shared<FunctionHypothesis>(
      "is_a", [](const Record& rec) {
        std::vector<float> out(rec.size(), 0.0f);
        for (size_t i = 0; i < rec.size(); ++i) {
          if (rec.tokens[i] == "a") out[i] = 1.0f;
        }
        return out;
      })};
  ResultTable direct = Inspect(
      {AllUnitsGroup(&extractor_)}, dataset_,
      {MeasureFactoryPtr(std::make_shared<CorrelationScore>("pearson"))},
      hyps, opts);

  ASSERT_EQ(via_sql->num_rows(), direct.size());
  for (size_t r = 0; r < via_sql->num_rows(); ++r) {
    const int unit = static_cast<int>(via_sql->At(r, "S.uid")->num);
    const float direct_score =
        direct.UnitScore("correlation_pearson", "is_a", unit);
    EXPECT_NEAR(via_sql->At(r, "S.unit_score")->num, direct_score, 1e-6)
        << "unit " << unit;
  }
}

TEST_F(SqlSessionFixture, ResultsAdapterEnablesSqlPostProcessing) {
  // Run an Inspect() through the C++ API, convert to a relation, and
  // post-process with SQL (the §4.1 "users post-process the table" idiom).
  InspectOptions opts;
  opts.block_size = 32;
  std::vector<HypothesisPtr> hyps = {std::make_shared<FunctionHypothesis>(
      "is_a", [](const Record& rec) {
        std::vector<float> out(rec.size(), 0.0f);
        for (size_t i = 0; i < rec.size(); ++i) {
          if (rec.tokens[i] == "a") out[i] = 1.0f;
        }
        return out;
      })};
  ResultTable results = Inspect(
      {AllUnitsGroup(&extractor_)}, dataset_,
      {MeasureFactoryPtr(std::make_shared<CorrelationScore>("pearson"))},
      hyps, opts);
  DbTable scores = ResultsToDbTable(results);
  EXPECT_EQ(scores.num_rows(), results.size());
  session_.RegisterTable("scores", &scores);
  Result<DbTable> top = session_.Execute(
      "SELECT unit, unit_score FROM scores "
      "WHERE abs(unit_score) > 0.8 ORDER BY unit_score DESC");
  ASSERT_TRUE(top.ok()) << top.status().ToString();
  ASSERT_EQ(top->num_rows(), 1u);
  EXPECT_EQ(top->At(0, "unit")->num, 0.0);
}

TEST_F(SqlSessionFixture, UserTablesJoinAgainstInspectionResults) {
  // Post-processing idiom: join the catalog against a user table.
  DbTable notes({"uid", "note"});
  DB_CHECK_OK(notes.AppendRow({Datum::Number(0), Datum::Str("planted")}));
  session_.RegisterTable("notes", &notes);
  Result<DbTable> result = session_.Execute(
      "SELECT U.uid, N.note FROM units U, notes N WHERE U.uid = N.uid");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->num_rows(), 1u);
  EXPECT_EQ(result->At(0, "note")->str, "planted");
}

}  // namespace
}  // namespace deepbase

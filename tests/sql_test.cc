#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "db/database.h"
#include "sql/lexer.h"
#include "sql/parser.h"
#include "sql/planner.h"

namespace etsqp::sql {
namespace {

using exec::AggFunc;
using exec::LogicalPlan;

TEST(LexerTest, TokenizesBasicQuery) {
  auto tokens = Lex("SELECT SUM(v) FROM ts;");
  ASSERT_TRUE(tokens.ok());
  const auto& t = tokens.value();
  ASSERT_EQ(t.size(), 9u);  // incl. kEnd
  EXPECT_EQ(t[0].kind, TokenKind::kSelect);
  EXPECT_EQ(t[1].kind, TokenKind::kIdent);
  EXPECT_EQ(t[1].text, "SUM");
  EXPECT_EQ(t[2].kind, TokenKind::kLParen);
  EXPECT_EQ(t[5].kind, TokenKind::kFrom);
  EXPECT_EQ(t[7].kind, TokenKind::kSemicolon);
}

TEST(LexerTest, KeywordsAreCaseInsensitive) {
  auto tokens = Lex("select from WHERE And sw UNION order BY time");
  ASSERT_TRUE(tokens.ok());
  const auto& t = tokens.value();
  EXPECT_EQ(t[0].kind, TokenKind::kSelect);
  EXPECT_EQ(t[1].kind, TokenKind::kFrom);
  EXPECT_EQ(t[2].kind, TokenKind::kWhere);
  EXPECT_EQ(t[3].kind, TokenKind::kAnd);
  EXPECT_EQ(t[4].kind, TokenKind::kSw);
  EXPECT_EQ(t[5].kind, TokenKind::kUnion);
  EXPECT_EQ(t[6].kind, TokenKind::kOrder);
  EXPECT_EQ(t[7].kind, TokenKind::kBy);
  EXPECT_EQ(t[8].kind, TokenKind::kTime);
}

TEST(LexerTest, NumbersAndComparisons) {
  auto tokens = Lex("time >= 100 AND value < -25");
  ASSERT_TRUE(tokens.ok());
  const auto& t = tokens.value();
  EXPECT_EQ(t[1].kind, TokenKind::kGe);
  EXPECT_EQ(t[2].number, 100);
  EXPECT_EQ(t[5].kind, TokenKind::kLt);
  EXPECT_EQ(t[6].number, -25);
}

TEST(LexerTest, RejectsGarbage) {
  EXPECT_FALSE(Lex("SELECT @ FROM ts").ok());
}

TEST(LexerTest, IntegerLiteralsStayInsideInt64) {
  auto edge = Lex("v < -9223372036854775808 AND v > 9223372036854775807");
  ASSERT_TRUE(edge.ok()) << edge.status().ToString();
  EXPECT_EQ(edge.value()[2].number, std::numeric_limits<int64_t>::min());
  EXPECT_EQ(edge.value()[6].number, std::numeric_limits<int64_t>::max());
  EXPECT_EQ(Lex("v > 99999999999999999999").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Lex("v > 9223372036854775808").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Lex("v < -9223372036854775809").status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ParserTest, Q1SlidingWindowSum) {
  auto stmt = Parse("SELECT SUM(A) FROM ts SW(0, 1000);");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  const SelectStatement& s = stmt.value();
  EXPECT_EQ(s.item.kind, SelectItem::Kind::kAggregate);
  EXPECT_EQ(s.item.func, "sum");
  ASSERT_EQ(s.tables.size(), 1u);
  EXPECT_EQ(s.tables[0], "ts");
  EXPECT_TRUE(s.has_window);
  EXPECT_EQ(s.window_t_min, 0);
  EXPECT_EQ(s.window_delta_t, 1000);
}

TEST(ParserTest, Q3ValueFilter) {
  auto stmt = Parse("SELECT SUM(A) FROM ts WHERE A > 42");
  ASSERT_TRUE(stmt.ok());
  ASSERT_EQ(stmt.value().predicates.size(), 1u);
  EXPECT_EQ(stmt.value().predicates[0].column, Comparison::Column::kValue);
  EXPECT_EQ(stmt.value().predicates[0].op, Comparison::Op::kGt);
  EXPECT_EQ(stmt.value().predicates[0].literal, 42);
}

TEST(ParserTest, TimeRangeConjunction) {
  auto stmt =
      Parse("SELECT AVG(v) FROM ts WHERE time >= 100 AND time <= 500;");
  ASSERT_TRUE(stmt.ok());
  ASSERT_EQ(stmt.value().predicates.size(), 2u);
  EXPECT_EQ(stmt.value().predicates[0].column, Comparison::Column::kTime);
  EXPECT_EQ(stmt.value().predicates[1].op, Comparison::Op::kLe);
}

TEST(ParserTest, Q4BinaryProjection) {
  auto stmt = Parse("SELECT ts1.A + ts2.A FROM ts1, ts2;");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  const SelectStatement& s = stmt.value();
  EXPECT_EQ(s.item.kind, SelectItem::Kind::kBinary);
  EXPECT_EQ(s.item.left_table, "ts1");
  EXPECT_EQ(s.item.right_table, "ts2");
  EXPECT_EQ(s.item.binary_op, '+');
  ASSERT_EQ(s.tables.size(), 2u);
}

TEST(ParserTest, Q5Union) {
  auto stmt = Parse("SELECT * FROM ts1 UNION ts2 ORDER BY TIME;");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_TRUE(stmt.value().is_union);
  EXPECT_EQ(stmt.value().tables[0], "ts1");
  EXPECT_EQ(stmt.value().union_right, "ts2");
}

TEST(ParserTest, Q6Join) {
  auto stmt = Parse("SELECT * FROM ts1, ts2;");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt.value().item.kind, SelectItem::Kind::kStar);
  ASSERT_EQ(stmt.value().tables.size(), 2u);
}

TEST(ParserTest, DottedSeriesNames) {
  auto stmt = Parse("SELECT SUM(v) FROM Sine.sine0 SW(0, 10000)");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_EQ(stmt.value().tables[0], "Sine.sine0");
}

TEST(ParserTest, Errors) {
  EXPECT_FALSE(Parse("FROM ts").ok());
  EXPECT_FALSE(Parse("SELECT SUM(A FROM ts").ok());
  EXPECT_FALSE(Parse("SELECT SUM(A) FROM ts SW(0)").ok());
  EXPECT_FALSE(Parse("SELECT SUM(A) FROM ts SW(0, 0)").ok());  // dt > 0
  EXPECT_FALSE(Parse("SELECT SUM(A) FROM ts WHERE").ok());
  EXPECT_FALSE(Parse("SELECT * FROM ts1 UNION ts2").ok());  // ORDER BY TIME
  EXPECT_FALSE(Parse("SELECT SUM(A) FROM ts extra").ok());
}

TEST(PlannerTest, AggregatePlan) {
  auto plan = PlanQuery(
      "SELECT AVG(v) FROM ts WHERE time >= 10 AND time < 100 SW(0, 50)");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  const LogicalPlan& p = plan.value();
  EXPECT_EQ(p.kind, LogicalPlan::Kind::kAggregate);
  EXPECT_EQ(p.func, AggFunc::kAvg);
  EXPECT_EQ(p.time_filter.lo, 10);
  EXPECT_EQ(p.time_filter.hi, 99);  // < 100 folded to inclusive 99
  EXPECT_TRUE(p.window.active);
  EXPECT_EQ(p.window.delta_t, 50);
}

TEST(PlannerTest, ValueFilterPlan) {
  auto plan = PlanQuery("SELECT SUM(v) FROM ts WHERE v > 5 AND v <= 20");
  ASSERT_TRUE(plan.ok());
  EXPECT_TRUE(plan.value().value_filter.active);
  EXPECT_EQ(plan.value().value_filter.lo, 6);
  EXPECT_EQ(plan.value().value_filter.hi, 20);
}

TEST(PlannerTest, EqualityFolds) {
  auto plan = PlanQuery("SELECT COUNT(v) FROM ts WHERE v = 7");
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan.value().value_filter.lo, 7);
  EXPECT_EQ(plan.value().value_filter.hi, 7);
}

TEST(PlannerTest, BoundsPastTheInt64EdgeFoldToEmptyRanges) {
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  for (const char* where : {"v > 9223372036854775807",
                            "v < -9223372036854775808",
                            "v > 9223372036854775807 AND v >= 0",
                            "v < -9223372036854775808 AND v <= 5"}) {
    auto plan =
        PlanQuery(std::string("SELECT COUNT(v) FROM ts WHERE ") + where);
    ASSERT_TRUE(plan.ok()) << where;
    const exec::ValueRange& r = plan.value().value_filter;
    EXPECT_TRUE(r.active) << where;
    EXPECT_GT(r.lo, r.hi) << where;
  }
  for (const char* where :
       {"time > 9223372036854775807", "time < -9223372036854775808"}) {
    auto plan =
        PlanQuery(std::string("SELECT COUNT(v) FROM ts WHERE ") + where);
    ASSERT_TRUE(plan.ok()) << where;
    EXPECT_GT(plan.value().time_filter.lo, plan.value().time_filter.hi)
        << where;
  }
  // One step inside the edge still folds to the single edge value.
  auto at_max =
      PlanQuery("SELECT COUNT(v) FROM ts WHERE v > 9223372036854775806");
  ASSERT_TRUE(at_max.ok());
  EXPECT_EQ(at_max.value().value_filter.lo, kMax);
  EXPECT_EQ(at_max.value().value_filter.hi, kMax);
  auto at_min =
      PlanQuery("SELECT COUNT(v) FROM ts WHERE v < -9223372036854775807");
  ASSERT_TRUE(at_min.ok());
  EXPECT_EQ(at_min.value().value_filter.lo, kMin);
  EXPECT_EQ(at_min.value().value_filter.hi, kMin);
}

// Through Database::Query, in the tail and on sealed pages: a bound past
// the int64 edge matches nothing, like any predicate that matches nothing,
// and a literal outside int64 is an error, not an exception.
TEST(SqlEdgeLiteralTest, DatabaseQueriesPastTheInt64Edge) {
  db::Database db(db::Database::Options{});
  ASSERT_TRUE(db.CreateTimeseries("s").ok());
  const int64_t times[] = {1, 2, 3};
  const int64_t values[] = {-5, 0, 5};
  ASSERT_TRUE(db.InsertBatch("s", times, values, 3).ok());
  for (int sealed = 0; sealed < 2; ++sealed) {
    if (sealed == 1) {
      ASSERT_TRUE(db.Flush().ok());
    }
    auto none = db.Query("SELECT COUNT(v) FROM s WHERE v > 1000");
    ASSERT_TRUE(none.ok()) << none.status().ToString();
    ASSERT_EQ(none.value().columns,
              std::vector<std::vector<double>>{{0.0}});
    for (const char* where :
         {"v > 9223372036854775807", "v < -9223372036854775808",
          "time > 9223372036854775807", "time < -9223372036854775808"}) {
      auto got =
          db.Query(std::string("SELECT COUNT(v) FROM s WHERE ") + where);
      ASSERT_TRUE(got.ok()) << where << ": " << got.status().ToString();
      EXPECT_EQ(got.value().columns, none.value().columns)
          << where << (sealed ? " (sealed)" : " (tail)");
    }
    auto bad =
        db.Query("SELECT COUNT(v) FROM s WHERE v > 99999999999999999999");
    EXPECT_FALSE(bad.ok());
  }
}

TEST(PlannerTest, AllAggregateNames) {
  for (auto [name, func] :
       std::vector<std::pair<const char*, AggFunc>>{
           {"SUM", AggFunc::kSum},
           {"AVG", AggFunc::kAvg},
           {"COUNT", AggFunc::kCount},
           {"MIN", AggFunc::kMin},
           {"MAX", AggFunc::kMax},
           {"VAR", AggFunc::kVariance}}) {
    auto plan = PlanQuery(std::string("SELECT ") + name + "(v) FROM ts");
    ASSERT_TRUE(plan.ok()) << name;
    EXPECT_EQ(plan.value().func, func) << name;
  }
  EXPECT_FALSE(PlanQuery("SELECT MEDIAN(v) FROM ts").ok());
}

TEST(PlannerTest, CorrelatePlan) {
  auto plan = PlanQuery("SELECT CORR(a.v, b.v) FROM a, b");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan.value().kind, LogicalPlan::Kind::kCorrelate);
  EXPECT_EQ(plan.value().series, "a");
  EXPECT_EQ(plan.value().series_right, "b");
  // Unqualified args are rejected.
  EXPECT_FALSE(PlanQuery("SELECT CORR(x, y) FROM a, b").ok());
}

TEST(PlannerTest, InterColumnPredicate) {
  auto plan = PlanQuery("SELECT * FROM a, b WHERE a.v > b.v");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan.value().kind, LogicalPlan::Kind::kJoin);
  EXPECT_EQ(plan.value().inter_column_op, '>');
  // Swapped table order flips the operator.
  auto swapped = PlanQuery("SELECT * FROM a, b WHERE b.v > a.v");
  ASSERT_TRUE(swapped.ok());
  EXPECT_EQ(swapped.value().inter_column_op, '<');
  // Mixed with a pushed-down single-column predicate (Eq. 1 separation).
  auto mixed = PlanQuery(
      "SELECT * FROM a, b WHERE a.v > b.v AND time >= 100");
  ASSERT_TRUE(mixed.ok());
  EXPECT_EQ(mixed.value().inter_column_op, '>');
  EXPECT_EQ(mixed.value().time_filter.lo, 100);
  // Unknown table and single-table FROM are rejected.
  EXPECT_FALSE(PlanQuery("SELECT * FROM a, b WHERE c.v > b.v").ok());
  EXPECT_FALSE(PlanQuery("SELECT * FROM a WHERE a.v > a.v").ok());
}

TEST(PlannerTest, UnionPlan) {
  auto plan = PlanQuery("SELECT * FROM a UNION b ORDER BY TIME");
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan.value().kind, LogicalPlan::Kind::kUnion);
  EXPECT_EQ(plan.value().series, "a");
  EXPECT_EQ(plan.value().series_right, "b");
}

TEST(PlannerTest, JoinPlan) {
  auto plan = PlanQuery("SELECT * FROM a, b");
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan.value().kind, LogicalPlan::Kind::kJoin);
}

TEST(PlannerTest, BinaryProjectionPlan) {
  auto plan = PlanQuery("SELECT a.v - b.v FROM a, b");
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan.value().kind, LogicalPlan::Kind::kProjectBinary);
  EXPECT_EQ(plan.value().binary_op, '-');
  EXPECT_EQ(plan.value().series, "a");
  EXPECT_EQ(plan.value().series_right, "b");
}


TEST(PlannerTest, InterColumnPredicateFollowsTheOperands) {
  // The plan applies left <op> right, its left input being the first
  // operand of the projection or CORR, whatever order FROM names.
  const std::pair<const char*, char> cases[] = {
      {"SELECT b.v - a.v FROM a, b WHERE a.v < b.v", '>'},
      {"SELECT b.v + a.v FROM a, b WHERE a.v > b.v", '<'},
      {"SELECT b.v * a.v FROM a, b WHERE a.v = b.v", '='},
      {"SELECT a.v - b.v FROM a, b WHERE b.v > a.v", '<'},
      {"SELECT CORR(b.v, a.v) FROM a, b WHERE a.v < b.v", '>'},
      {"SELECT CORR(a.v, b.v) FROM b, a WHERE a.v < b.v", '<'},
  };
  for (const auto& [sql, op] : cases) {
    auto plan = PlanQuery(sql);
    ASSERT_TRUE(plan.ok()) << sql << ": " << plan.status().ToString();
    EXPECT_EQ(plan.value().inter_column_op, op) << sql;
  }
  auto plan = PlanQuery("SELECT b.v - a.v FROM a, b WHERE a.v < b.v");
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan.value().series, "b");
  EXPECT_EQ(plan.value().series_right, "a");
}

TEST(PlannerTest, TableNamesMustBeFromTables) {
  for (const char* sql : {
           "SELECT a.v + b.v FROM c, d",
           "SELECT a.v + a.v FROM a, b",
           "SELECT CORR(a.v, b.v) FROM c, d",
           "SELECT CORR(a.v, b.v) FROM a",
           "SELECT SUM(v) FROM a WHERE b.v > 5",
           "SELECT * FROM a, b WHERE c.v > 5",
           "SELECT SUM(v) FROM Clim.temp WHERE temp.v > 5",
       }) {
    auto plan = PlanQuery(sql);
    ASSERT_FALSE(plan.ok()) << sql;
    EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument) << sql;
  }
  // The plan's one value filter applies to both inputs of a two-table
  // query, so a qualified one would filter the other table too.
  for (const char* sql : {
           "SELECT * FROM a, b WHERE b.v < 20",
           "SELECT a.v + b.v FROM a, b WHERE a.v > 5",
           "SELECT * FROM a UNION b ORDER BY TIME WHERE a.v > 5",
           "SELECT * FROM a, b WHERE a.v > b.v AND a.v < b.v",
       }) {
    auto plan = PlanQuery(sql);
    ASSERT_FALSE(plan.ok()) << sql;
    EXPECT_EQ(plan.status().code(), StatusCode::kNotSupported) << sql;
  }
  for (const char* sql : {
           "SELECT SUM(v) FROM a WHERE a.v > 5",
           "SELECT SUM(v) FROM Clim.temp WHERE Clim.temp.v > 5",
           "SELECT b.v + a.v FROM a, b",
           "SELECT CORR(b.v, a.v) FROM a, b",
           "SELECT * FROM a, b WHERE v < 20",
       }) {
    auto plan = PlanQuery(sql);
    ASSERT_TRUE(plan.ok()) << sql << ": " << plan.status().ToString();
  }
  EXPECT_EQ(PlanQuery("SELECT SUM(v) FROM a WHERE a.v > 5")
                .value()
                .value_filter.lo,
            6);
}

TEST(PlannerTest, QualifiedTimeIsATimePredicate) {
  auto plan = PlanQuery("SELECT COUNT(v) FROM a WHERE a.time > 2");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan.value().time_filter.lo, 3);
  EXPECT_FALSE(plan.value().value_filter.active);
  // A dotted series name qualifies its time column the same way, and a
  // keyword-named series keeps its text.
  auto dotted = PlanQuery(
      "SELECT COUNT(v) FROM Time.event WHERE Time.event.TIME <= 7");
  ASSERT_TRUE(dotted.ok()) << dotted.status().ToString();
  EXPECT_EQ(dotted.value().time_filter.hi, 7);
  EXPECT_FALSE(dotted.value().value_filter.active);
  auto value = PlanQuery("SELECT COUNT(v) FROM Time.event WHERE Time.event.v > 7");
  ASSERT_TRUE(value.ok()) << value.status().ToString();
  EXPECT_TRUE(value.value().time_filter.lo <= value.value().time_filter.hi);
  EXPECT_EQ(value.value().value_filter.lo, 8);
  // The table must be in FROM, and time compares with a literal only.
  for (const char* sql : {
           "SELECT COUNT(v) FROM a WHERE b.time > 2",
           "SELECT * FROM a, b WHERE c.time > 2",
           "SELECT * FROM a, b WHERE a.time > b.time",
           "SELECT * FROM a, b WHERE a.v > b.time",
       }) {
    auto bad = PlanQuery(sql);
    ASSERT_FALSE(bad.ok()) << sql;
    EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument) << sql;
  }
  // Like a qualified value predicate, it would filter both inputs of a
  // two-table query.
  auto two = PlanQuery("SELECT * FROM a, b WHERE a.time > 2");
  ASSERT_FALSE(two.ok());
  EXPECT_EQ(two.status().code(), StatusCode::kNotSupported);
}

TEST(PlannerTest, AggregateReadsOneTable) {
  for (const char* sql : {
           "SELECT SUM(v) FROM a, b",
           "SELECT COUNT(v) FROM a, b WHERE a.v > b.v",
           "SELECT AVG(v) FROM a, b WHERE time > 2",
       }) {
    auto plan = PlanQuery(sql);
    ASSERT_FALSE(plan.ok()) << sql;
    EXPECT_EQ(plan.status().code(), StatusCode::kInvalidArgument) << sql;
  }
  EXPECT_TRUE(PlanQuery("SELECT COV(a.v, b.v) FROM a, b").ok());
}

// a = {10, 20, 30, 40} at t = 1..4: the time and value predicates select
// different rows, so a qualified time predicate read as a value one shows.
TEST(SqlQualifiedTimeTest, CountsByTime) {
  db::Database db(db::Database::Options{});
  const int64_t times[] = {1, 2, 3, 4};
  const int64_t va[] = {10, 20, 30, 40};
  ASSERT_TRUE(db.CreateTimeseries("a").ok());
  ASSERT_TRUE(db.InsertBatch("a", times, va, 4).ok());
  for (const char* sql : {"SELECT COUNT(v) FROM a WHERE a.time > 2",
                          "SELECT COUNT(v) FROM a WHERE time > 2"}) {
    auto count = db.Query(sql);
    ASSERT_TRUE(count.ok()) << sql << ": " << count.status().ToString();
    ASSERT_EQ(count.value().num_rows(), 1u) << sql;
    EXPECT_EQ(count.value().columns[0][0], 2.0) << sql;
  }
}

// Series a = {10, 20, 30, 40} and b = {15, 15, 35, 35} at t = 1..4, queried
// in the tail and then sealed (one page each, on one clock).
TEST(SqlInterColumnTest, HandComputedAnswers) {
  db::Database db(db::Database::Options{});
  const int64_t times[] = {1, 2, 3, 4};
  const int64_t va[] = {10, 20, 30, 40};
  const int64_t vb[] = {15, 15, 35, 35};
  ASSERT_TRUE(db.CreateTimeseries("a").ok());
  ASSERT_TRUE(db.CreateTimeseries("b").ok());
  ASSERT_TRUE(db.InsertBatch("a", times, va, 4).ok());
  ASSERT_TRUE(db.InsertBatch("b", times, vb, 4).ok());
  using Columns = std::vector<std::vector<double>>;
  for (int sealed = 0; sealed < 2; ++sealed) {
    if (sealed == 1) {
      ASSERT_TRUE(db.Flush().ok());
    }
    // a < b at t = 1 and 3, where b - a = 5.
    auto diff = db.Query("SELECT b.v - a.v FROM a, b WHERE a.v < b.v");
    ASSERT_TRUE(diff.ok()) << diff.status().ToString();
    EXPECT_EQ(diff.value().columns, (Columns{{1, 3}, {5, 5}})) << sealed;
    // a > b at t = 2 and 4, where b + a = 35 and 75.
    auto sum = db.Query("SELECT b.v + a.v FROM a, b WHERE a.v > b.v");
    ASSERT_TRUE(sum.ok()) << sum.status().ToString();
    EXPECT_EQ(sum.value().columns, (Columns{{2, 4}, {35, 75}})) << sealed;
    // CORR over the a < b pairs (10, 15) and (30, 35): n = 2, cov = 100,
    // corr = 1.
    auto corr = db.Query("SELECT CORR(a.v, b.v) FROM a, b WHERE a.v < b.v");
    ASSERT_TRUE(corr.ok()) << corr.status().ToString();
    ASSERT_EQ(corr.value().num_rows(), 1u);
    EXPECT_NEAR(corr.value().columns[0][0], 1.0, 1e-12) << sealed;
    EXPECT_DOUBLE_EQ(corr.value().columns[1][0], 100.0) << sealed;
    EXPECT_DOUBLE_EQ(corr.value().columns[2][0], 2.0) << sealed;
  }
}

}  // namespace
}  // namespace etsqp::sql

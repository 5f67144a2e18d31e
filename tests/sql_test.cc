// Lexer, parser, expression evaluation, and fingerprinting tests.

#include <gtest/gtest.h>

#include <map>

#include "sql/expr.h"
#include "sql/fingerprint.h"
#include "sql/lexer.h"
#include "sql/parser.h"

namespace autoindex {
namespace {

TEST(Lexer, BasicTokens) {
  auto toks = Tokenize("SELECT a, b FROM t WHERE a = 5");
  ASSERT_TRUE(toks.ok());
  ASSERT_GE(toks->size(), 9u);
  EXPECT_EQ((*toks)[0].type, TokenType::kKeyword);
  EXPECT_EQ((*toks)[0].text, "SELECT");
  EXPECT_EQ((*toks)[1].type, TokenType::kIdentifier);
  EXPECT_EQ((*toks)[1].text, "a");
  EXPECT_EQ(toks->back().type, TokenType::kEnd);
}

TEST(Lexer, NormalizesCase) {
  auto toks = Tokenize("select FOO from BAR");
  ASSERT_TRUE(toks.ok());
  EXPECT_EQ((*toks)[0].text, "SELECT");
  EXPECT_EQ((*toks)[1].text, "foo");
  EXPECT_EQ((*toks)[3].text, "bar");
}

TEST(Lexer, NumbersAndStrings) {
  auto toks = Tokenize("x = -3 AND y = 2.75 AND z = 'a''b'");
  ASSERT_TRUE(toks.ok());
  EXPECT_EQ((*toks)[2].type, TokenType::kInteger);
  EXPECT_EQ((*toks)[2].text, "-3");
  EXPECT_EQ((*toks)[6].type, TokenType::kFloat);
  EXPECT_EQ((*toks)[10].type, TokenType::kString);
  EXPECT_EQ((*toks)[10].text, "a'b");
}

TEST(Lexer, Operators) {
  auto toks = Tokenize("a <= 1 AND b <> 2 AND c != 3 AND d >= 4");
  ASSERT_TRUE(toks.ok());
  EXPECT_EQ((*toks)[1].text, "<=");
  EXPECT_EQ((*toks)[5].text, "<>");
  EXPECT_EQ((*toks)[9].text, "<>");  // != normalizes to <>
  EXPECT_EQ((*toks)[13].text, ">=");
}

TEST(Lexer, RejectsGarbage) {
  EXPECT_FALSE(Tokenize("SELECT #").ok());
  EXPECT_FALSE(Tokenize("SELECT 'unterminated").ok());
}

TEST(Parser, SimpleSelect) {
  auto stmt = ParseSql("SELECT a, b FROM t WHERE a = 1 AND b > 2");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  ASSERT_EQ(stmt->kind, StatementKind::kSelect);
  const SelectStatement& s = *stmt->select;
  ASSERT_EQ(s.from.size(), 1u);
  EXPECT_EQ(s.from[0].table, "t");
  ASSERT_EQ(s.items.size(), 2u);
  EXPECT_EQ(s.items[0].column.column, "a");
  ASSERT_NE(s.where, nullptr);
  EXPECT_EQ(s.where->kind, ExprKind::kAnd);
  EXPECT_EQ(s.where->children.size(), 2u);
}

TEST(Parser, StarAndAggregates) {
  auto stmt =
      ParseSql("SELECT COUNT(*), SUM(x), AVG(y), MIN(z), MAX(w) FROM t");
  ASSERT_TRUE(stmt.ok());
  const SelectStatement& s = *stmt->select;
  ASSERT_EQ(s.items.size(), 5u);
  EXPECT_EQ(s.items[0].agg, AggFunc::kCount);
  EXPECT_TRUE(s.items[0].star);
  EXPECT_EQ(s.items[1].agg, AggFunc::kSum);
  EXPECT_EQ(s.items[1].column.column, "x");
  EXPECT_EQ(s.items[4].agg, AggFunc::kMax);
}

TEST(Parser, GroupOrderLimit) {
  auto stmt = ParseSql(
      "SELECT a, COUNT(*) FROM t GROUP BY a ORDER BY a DESC LIMIT 7");
  ASSERT_TRUE(stmt.ok());
  const SelectStatement& s = *stmt->select;
  ASSERT_EQ(s.group_by.size(), 1u);
  EXPECT_EQ(s.group_by[0].column, "a");
  ASSERT_EQ(s.order_by.size(), 1u);
  EXPECT_TRUE(s.order_by[0].desc);
  EXPECT_EQ(s.limit, 7);
}

TEST(Parser, ImplicitAndExplicitJoin) {
  auto implicit = ParseSql(
      "SELECT t1.a FROM t1, t2 WHERE t1.x = t2.y AND t1.a = 3");
  ASSERT_TRUE(implicit.ok());
  EXPECT_EQ(implicit->select->from.size(), 2u);

  auto join = ParseSql("SELECT a FROM t1 JOIN t2 ON t1.x = t2.y WHERE a = 1");
  ASSERT_TRUE(join.ok());
  EXPECT_EQ(join->select->from.size(), 2u);
  // ON predicate folded into WHERE.
  ASSERT_NE(join->select->where, nullptr);
  EXPECT_EQ(join->select->where->kind, ExprKind::kAnd);
}

TEST(Parser, ChainedJoins) {
  auto stmt = ParseSql(
      "SELECT COUNT(*) FROM a JOIN b ON a.x = b.x JOIN c ON b.y = c.y");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  EXPECT_EQ(stmt->select->from.size(), 3u);
}

TEST(Parser, TableAliases) {
  auto stmt = ParseSql("SELECT s.a FROM sales AS s WHERE s.a = 1");
  ASSERT_TRUE(stmt.ok());
  EXPECT_EQ(stmt->select->from[0].table, "sales");
  EXPECT_EQ(stmt->select->from[0].alias, "s");

  auto implicit_alias = ParseSql("SELECT s.a FROM sales s WHERE s.a = 1");
  ASSERT_TRUE(implicit_alias.ok());
  EXPECT_EQ(implicit_alias->select->from[0].alias, "s");
}

TEST(Parser, BetweenInIsNullLike) {
  auto stmt = ParseSql(
      "SELECT a FROM t WHERE a BETWEEN 1 AND 5 AND b IN (1, 2, 3) AND c IS "
      "NOT NULL AND d LIKE 'x%' AND e NOT IN (9)");
  ASSERT_TRUE(stmt.ok()) << stmt.status().ToString();
  const Expr& w = *stmt->select->where;
  ASSERT_EQ(w.kind, ExprKind::kAnd);
  ASSERT_EQ(w.children.size(), 5u);
  EXPECT_EQ(w.children[0]->kind, ExprKind::kBetween);
  EXPECT_EQ(w.children[1]->kind, ExprKind::kInList);
  EXPECT_EQ(w.children[1]->in_list.size(), 3u);
  EXPECT_EQ(w.children[2]->kind, ExprKind::kIsNull);
  EXPECT_TRUE(w.children[2]->negated);
  EXPECT_EQ(w.children[3]->op, CompareOp::kLike);
  EXPECT_TRUE(w.children[4]->negated);
}

TEST(Parser, OrPrecedenceBelowAnd) {
  auto stmt = ParseSql("SELECT a FROM t WHERE a = 1 AND b = 2 OR c = 3");
  ASSERT_TRUE(stmt.ok());
  // (a=1 AND b=2) OR c=3
  EXPECT_EQ(stmt->select->where->kind, ExprKind::kOr);
}

TEST(Parser, ParenthesesOverridePrecedence) {
  auto stmt = ParseSql("SELECT a FROM t WHERE a = 1 AND (b = 2 OR c = 3)");
  ASSERT_TRUE(stmt.ok());
  const Expr& w = *stmt->select->where;
  ASSERT_EQ(w.kind, ExprKind::kAnd);
  EXPECT_EQ(w.children[1]->kind, ExprKind::kOr);
}

TEST(Parser, InsertForms) {
  auto bare = ParseSql("INSERT INTO t VALUES (1, 'x', 2.5, NULL)");
  ASSERT_TRUE(bare.ok());
  ASSERT_EQ(bare->insert->rows.size(), 1u);
  EXPECT_EQ(bare->insert->rows[0].size(), 4u);
  EXPECT_TRUE(bare->insert->rows[0][3].is_null());

  auto cols = ParseSql("INSERT INTO t (a, b) VALUES (1, 2), (3, 4)");
  ASSERT_TRUE(cols.ok());
  EXPECT_EQ(cols->insert->columns.size(), 2u);
  EXPECT_EQ(cols->insert->rows.size(), 2u);
}

TEST(Parser, UpdateAndDelete) {
  auto upd = ParseSql("UPDATE t SET a = 5, b = 'x' WHERE c = 1");
  ASSERT_TRUE(upd.ok());
  EXPECT_EQ(upd->kind, StatementKind::kUpdate);
  EXPECT_EQ(upd->update->assignments.size(), 2u);
  ASSERT_NE(upd->update->where, nullptr);

  auto del = ParseSql("DELETE FROM t WHERE a = 1");
  ASSERT_TRUE(del.ok());
  EXPECT_EQ(del->kind, StatementKind::kDelete);
}

TEST(Parser, Errors) {
  EXPECT_FALSE(ParseSql("").ok());
  EXPECT_FALSE(ParseSql("SELEC a FROM t").ok());
  EXPECT_FALSE(ParseSql("SELECT a FROM").ok());
  EXPECT_FALSE(ParseSql("SELECT a FROM t WHERE").ok());
  EXPECT_FALSE(ParseSql("INSERT INTO t VALUES (1,)").ok());
  EXPECT_FALSE(ParseSql("SELECT a FROM t extra garbage").ok());
}

TEST(Parser, RoundTripThroughToString) {
  const char* queries[] = {
      "SELECT a, b FROM t WHERE a = 1 AND b > 2 ORDER BY a LIMIT 3",
      "SELECT COUNT(*) FROM t WHERE a BETWEEN 1 AND 5",
      "INSERT INTO t VALUES (1, 'x')",
      "UPDATE t SET a = 2 WHERE b = 3",
      "DELETE FROM t WHERE a IN (1, 2)",
  };
  for (const char* q : queries) {
    auto first = ParseSql(q);
    ASSERT_TRUE(first.ok()) << q;
    auto second = ParseSql(first->ToString());
    ASSERT_TRUE(second.ok()) << first->ToString();
    EXPECT_EQ(first->ToString(), second->ToString());
  }
}

// --- Expression evaluation ---

class MapResolver : public ColumnResolver {
 public:
  explicit MapResolver(std::map<std::string, Value> vals)
      : vals_(std::move(vals)) {}
  const Value* Resolve(const ColumnRef& col) const override {
    auto it = vals_.find(col.column);
    return it == vals_.end() ? nullptr : &it->second;
  }

 private:
  std::map<std::string, Value> vals_;
};

ExprPtr WhereOf(const std::string& sql) {
  auto stmt = ParseSql("SELECT a FROM t WHERE " + sql);
  EXPECT_TRUE(stmt.ok()) << sql;
  return std::move(stmt->select->where);
}

TEST(ExprEval, Comparisons) {
  MapResolver r({{"a", Value(int64_t(5))}, {"s", Value("abc")}});
  EXPECT_TRUE(EvaluatePredicate(*WhereOf("a = 5"), r));
  EXPECT_FALSE(EvaluatePredicate(*WhereOf("a = 6"), r));
  EXPECT_TRUE(EvaluatePredicate(*WhereOf("a <> 6"), r));
  EXPECT_TRUE(EvaluatePredicate(*WhereOf("a < 6"), r));
  EXPECT_TRUE(EvaluatePredicate(*WhereOf("a >= 5"), r));
  EXPECT_TRUE(EvaluatePredicate(*WhereOf("s = 'abc'"), r));
}

TEST(ExprEval, BooleanStructure) {
  MapResolver r({{"a", Value(int64_t(5))}, {"b", Value(int64_t(2))}});
  EXPECT_TRUE(EvaluatePredicate(*WhereOf("a = 5 AND b = 2"), r));
  EXPECT_FALSE(EvaluatePredicate(*WhereOf("a = 5 AND b = 3"), r));
  EXPECT_TRUE(EvaluatePredicate(*WhereOf("a = 9 OR b = 2"), r));
  EXPECT_TRUE(EvaluatePredicate(*WhereOf("NOT (a = 9)"), r));
  EXPECT_FALSE(EvaluatePredicate(*WhereOf("NOT (a = 5 OR b = 2)"), r));
}

TEST(ExprEval, BetweenInNull) {
  MapResolver r({{"a", Value(int64_t(5))}, {"n", Value()}});
  EXPECT_TRUE(EvaluatePredicate(*WhereOf("a BETWEEN 5 AND 9"), r));
  EXPECT_FALSE(EvaluatePredicate(*WhereOf("a BETWEEN 6 AND 9"), r));
  EXPECT_TRUE(EvaluatePredicate(*WhereOf("a IN (1, 5, 9)"), r));
  EXPECT_FALSE(EvaluatePredicate(*WhereOf("a NOT IN (1, 5)"), r));
  EXPECT_TRUE(EvaluatePredicate(*WhereOf("n IS NULL"), r));
  EXPECT_FALSE(EvaluatePredicate(*WhereOf("n IS NOT NULL"), r));
  // NULL operand in comparison -> false.
  EXPECT_FALSE(EvaluatePredicate(*WhereOf("n = 1"), r));
  EXPECT_FALSE(EvaluatePredicate(*WhereOf("n <> 1"), r));
}

TEST(ExprEval, Like) {
  MapResolver r({{"s", Value("hello world")}});
  EXPECT_TRUE(EvaluatePredicate(*WhereOf("s LIKE 'hello%'"), r));
  EXPECT_TRUE(EvaluatePredicate(*WhereOf("s LIKE '%world'"), r));
  EXPECT_TRUE(EvaluatePredicate(*WhereOf("s LIKE '%lo wo%'"), r));
  EXPECT_TRUE(EvaluatePredicate(*WhereOf("s LIKE 'hello _orld'"), r));
  EXPECT_FALSE(EvaluatePredicate(*WhereOf("s LIKE 'world%'"), r));
  EXPECT_FALSE(EvaluatePredicate(*WhereOf("s NOT LIKE 'hello%'"), r));
}

TEST(ExprEval, CloneAndEquals) {
  ExprPtr e = WhereOf("a = 1 AND (b > 2 OR c IN (3, 4))");
  ExprPtr clone = e->Clone();
  EXPECT_TRUE(e->Equals(*clone));
  clone->children[0]->op = CompareOp::kNe;
  EXPECT_FALSE(e->Equals(*clone));
}

TEST(ExprEval, CollectColumns) {
  ExprPtr e = WhereOf("a = 1 AND t2.b > 2 OR c IS NULL");
  std::vector<ColumnRef> cols;
  e->CollectColumns(&cols);
  ASSERT_EQ(cols.size(), 3u);
  EXPECT_EQ(cols[0].column, "a");
  EXPECT_EQ(cols[1].table, "t2");
  EXPECT_EQ(cols[2].column, "c");
}

// --- Fingerprinting ---

TEST(Fingerprint, LiteralsBecomePlaceholders) {
  EXPECT_EQ(FingerprintSql("SELECT a FROM t WHERE b = 5"),
            FingerprintSql("SELECT a FROM t WHERE b = 99"));
  EXPECT_EQ(FingerprintSql("SELECT a FROM t WHERE s = 'x'"),
            FingerprintSql("SELECT a FROM t WHERE s = 'completely other'"));
}

TEST(Fingerprint, CaseAndWhitespaceInsensitive) {
  EXPECT_EQ(FingerprintSql("select  A from T where B=1"),
            FingerprintSql("SELECT a FROM t WHERE b = 2"));
}

TEST(Fingerprint, DifferentShapesDiffer) {
  EXPECT_NE(FingerprintSql("SELECT a FROM t WHERE b = 1"),
            FingerprintSql("SELECT a FROM t WHERE c = 1"));
  EXPECT_NE(FingerprintSql("SELECT a FROM t WHERE b = 1"),
            FingerprintSql("SELECT a FROM t WHERE b > 1"));
  EXPECT_NE(FingerprintSql("SELECT a FROM t"),
            FingerprintSql("SELECT b FROM t"));
}

TEST(Fingerprint, InListsCollapse) {
  EXPECT_EQ(FingerprintSql("SELECT a FROM t WHERE b IN (1, 2, 3)"),
            FingerprintSql("SELECT a FROM t WHERE b IN (7)"));
}

TEST(Fingerprint, InsertRowsCollapse) {
  EXPECT_EQ(FingerprintSql("INSERT INTO t VALUES (1, 'a', 2.5)"),
            FingerprintSql("INSERT INTO t VALUES (9, 'zzz', 0.1)"));
}

TEST(Fingerprint, HashStable) {
  const uint64_t h1 = FingerprintHash("SELECT a FROM t WHERE b = 5");
  const uint64_t h2 = FingerprintHash("SELECT a FROM t WHERE b = 6");
  const uint64_t h3 = FingerprintHash("SELECT a FROM t WHERE c = 6");
  EXPECT_EQ(h1, h2);
  EXPECT_NE(h1, h3);
}

}  // namespace
}  // namespace autoindex

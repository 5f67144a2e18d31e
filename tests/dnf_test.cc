// DNF rewriter tests, including a property check: the DNF form is
// logically equivalent to the original expression over random assignments.

#include <gtest/gtest.h>

#include <map>

#include "sql/dnf.h"
#include "sql/parser.h"
#include "util/random.h"

namespace autoindex {
namespace {

ExprPtr WhereOf(const std::string& sql) {
  auto stmt = ParseSql("SELECT a FROM t WHERE " + sql);
  EXPECT_TRUE(stmt.ok()) << sql;
  return std::move(stmt->select->where);
}

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

// Evaluates a DNF (list of conjunctions) under a resolver.
bool EvalDnf(const std::vector<DnfConjunction>& dnf,
             const ColumnResolver& r) {
  for (const DnfConjunction& conj : dnf) {
    bool all = true;
    for (const ExprPtr& atom : conj) {
      if (!EvaluatePredicate(*atom, r)) {
        all = false;
        break;
      }
    }
    if (all) return true;
  }
  return false;
}

TEST(Dnf, AtomIsSingleton) {
  auto dnf = ToDnf(*WhereOf("a = 1"));
  ASSERT_EQ(dnf.size(), 1u);
  EXPECT_EQ(dnf[0].size(), 1u);
}

TEST(Dnf, ConjunctionStaysOne) {
  auto dnf = ToDnf(*WhereOf("a = 1 AND b = 2 AND c = 3"));
  ASSERT_EQ(dnf.size(), 1u);
  EXPECT_EQ(dnf[0].size(), 3u);
}

TEST(Dnf, DisjunctionSplits) {
  auto dnf = ToDnf(*WhereOf("a = 1 OR b = 2"));
  ASSERT_EQ(dnf.size(), 2u);
  EXPECT_EQ(dnf[0].size(), 1u);
}

TEST(Dnf, PaperExampleFactorization) {
  // "(a AND b) OR (a AND c)" -> two conjunctions {a,b}, {a,c} (Example 6).
  auto dnf = ToDnf(*WhereOf("(a = 1 AND b = 2) OR (a = 1 AND c = 3)"));
  ASSERT_EQ(dnf.size(), 2u);
  EXPECT_EQ(dnf[0].size(), 2u);
  EXPECT_EQ(dnf[1].size(), 2u);
  // "a AND (b OR c)" distributes to the same two-conjunction form.
  auto dnf2 = ToDnf(*WhereOf("a = 1 AND (b = 2 OR c = 3)"));
  ASSERT_EQ(dnf2.size(), 2u);
  EXPECT_EQ(dnf2[0].size(), 2u);
}

TEST(Dnf, NegationPushedIntoComparisons) {
  auto dnf = ToDnf(*WhereOf("NOT (a < 5)"));
  ASSERT_EQ(dnf.size(), 1u);
  ASSERT_EQ(dnf[0].size(), 1u);
  EXPECT_EQ(dnf[0][0]->kind, ExprKind::kCompare);
  EXPECT_EQ(dnf[0][0]->op, CompareOp::kGe);
}

TEST(Dnf, DeMorgan) {
  // NOT (a=1 AND b=2) -> (a<>1) OR (b<>2).
  auto dnf = ToDnf(*WhereOf("NOT (a = 1 AND b = 2)"));
  ASSERT_EQ(dnf.size(), 2u);
  EXPECT_EQ(dnf[0][0]->op, CompareOp::kNe);
}

TEST(Dnf, NotBetweenSplitsIntoRange) {
  auto dnf = ToDnf(*WhereOf("NOT (a BETWEEN 2 AND 5)"));
  ASSERT_EQ(dnf.size(), 2u);
  EXPECT_EQ(dnf[0][0]->op, CompareOp::kLt);
  EXPECT_EQ(dnf[1][0]->op, CompareOp::kGt);
}

TEST(Dnf, NotInFlipsFlag) {
  auto dnf = ToDnf(*WhereOf("NOT (a IN (1, 2))"));
  ASSERT_EQ(dnf.size(), 1u);
  EXPECT_EQ(dnf[0][0]->kind, ExprKind::kInList);
  EXPECT_TRUE(dnf[0][0]->negated);
}

TEST(Dnf, DoubleNegationCancels) {
  auto dnf = ToDnf(*WhereOf("NOT (NOT (a = 1))"));
  ASSERT_EQ(dnf.size(), 1u);
  EXPECT_EQ(dnf[0][0]->op, CompareOp::kEq);
}

TEST(Dnf, CapBoundsBlowup) {
  // (a1 OR a2) AND (b1 OR b2) AND ... expands exponentially; the cap must
  // bound the result.
  std::string sql = "(a = 1 OR a = 2)";
  for (char c = 'b'; c <= 'j'; ++c) {
    sql += std::string(" AND (") + c + " = 1 OR " + c + " = 2)";
  }
  auto dnf = ToDnf(*WhereOf(sql), 16);
  EXPECT_LE(dnf.size(), 16u);
  EXPECT_GE(dnf.size(), 1u);
}

TEST(Dnf, ExtractConjunctionAtomsFastPath) {
  std::vector<const Expr*> atoms;
  ExprPtr conj = WhereOf("a = 1 AND b > 2 AND c IS NULL");
  EXPECT_TRUE(ExtractConjunctionAtoms(*conj, &atoms));
  EXPECT_EQ(atoms.size(), 3u);

  atoms.clear();
  ExprPtr with_or = WhereOf("a = 1 AND (b = 2 OR c = 3)");
  EXPECT_FALSE(ExtractConjunctionAtoms(*with_or, &atoms));
}

// Property test: ToDnf(e) is logically equivalent to e on random
// assignments of small integer domains.
class DnfEquivalence : public ::testing::TestWithParam<const char*> {};

TEST_P(DnfEquivalence, EquivalentOnRandomAssignments) {
  ExprPtr expr = WhereOf(GetParam());
  auto dnf = ToDnf(*expr, 1024);
  Random rng(42);
  for (int trial = 0; trial < 300; ++trial) {
    MapResolver r({{"a", Value(rng.UniformInt(0, 4))},
                   {"b", Value(rng.UniformInt(0, 4))},
                   {"c", Value(rng.UniformInt(0, 4))},
                   {"d", Value(rng.UniformInt(0, 4))}});
    EXPECT_EQ(EvaluatePredicate(*expr, r), EvalDnf(dnf, r))
        << "expr: " << GetParam() << " trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Formulas, DnfEquivalence,
    ::testing::Values(
        "a = 1",
        "a = 1 AND b = 2",
        "a = 1 OR b = 2",
        "(a = 1 AND b = 2) OR (a = 1 AND c = 3)",
        "a = 1 AND (b = 2 OR c = 3)",
        "NOT (a = 1 AND b = 2)",
        "NOT (a = 1 OR (b = 2 AND c = 3))",
        "a BETWEEN 1 AND 3 OR NOT (b BETWEEN 0 AND 2)",
        "a IN (1, 2) AND NOT (b IN (2, 3))",
        "(a < 2 OR b > 3) AND (c <= 1 OR d >= 4)",
        "NOT (NOT (a = 1 OR b = 2))",
        "(a = 1 OR b = 2) AND (a = 2 OR c = 1) AND d <> 3"));

}  // namespace
}  // namespace autoindex

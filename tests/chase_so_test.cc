// Deeper tests for the SO chase engines (chase/chase_so.h): hand-built
// target instances, inverse-function consistency (the Safe/EnsureInv
// semantics), inconsistent branches, and resource limits.

#include <gtest/gtest.h>

#include "chase/chase_so.h"
#include "inversion/polyso.h"
#include "parser/parser.h"

namespace mapinv {
namespace {

SOTgdMapping Rule9() {
  return ParseSOTgdMapping("R(x,y,z) -> T(x, f(y), f(y), g(x,z))")
      .ValueOrDie();
}

TEST(ChaseSOInverseTest, HandBuiltCanonicalTargetRecovers) {
  // {T(1,a,a,b)} with labelled nulls a ≠ b — the paper's walkthrough input.
  SOTgdMapping m = Rule9();
  SOInverseMapping inv = PolySOInverse(m).ValueOrDie();
  Instance target =
      ParseInstance("{ T(1,_N0,_N0,_N1) }", *m.target).ValueOrDie();
  std::vector<Instance> worlds =
      ChaseSOInverseWorlds(inv, target).ValueOrDie();
  ASSERT_EQ(worlds.size(), 1u);
  RelationId r = worlds[0].schema().Find("R");
  ASSERT_EQ(worlds[0].TuplesCopy(r).size(), 1u);
  const Tuple t = worlds[0].TuplesCopy(r)[0];
  // R(1, ν_y, ν_z): u = x forces 1; f#1(a) and g#2(b) materialise as fresh
  // distinct nulls.
  EXPECT_EQ(t[0], Value::Int(1));
  EXPECT_TRUE(t[1].is_null());
  EXPECT_TRUE(t[2].is_null());
  EXPECT_NE(t[1], t[2]);
}

TEST(ChaseSOInverseTest, MismatchedEqualityPatternDoesNotTrigger) {
  // T(1,a,c,b) with a ≠ c does not match the premise T(u,v,v,w).
  SOTgdMapping m = Rule9();
  SOInverseMapping inv = PolySOInverse(m).ValueOrDie();
  Instance target =
      ParseInstance("{ T(1,_N0,_N2,_N1) }", *m.target).ValueOrDie();
  std::vector<Instance> worlds =
      ChaseSOInverseWorlds(inv, target).ValueOrDie();
  ASSERT_EQ(worlds.size(), 1u);
  EXPECT_EQ(worlds[0].TotalSize(), 0u);
}

TEST(ChaseSOInverseTest, NullAtConstantPositionBlocksTrigger) {
  // C(u) guards the first position: a null there cannot have come from the
  // variable x, so the rule does not fire.
  SOTgdMapping m = Rule9();
  SOInverseMapping inv = PolySOInverse(m).ValueOrDie();
  Instance target =
      ParseInstance("{ T(_N5,_N0,_N0,_N1) }", *m.target).ValueOrDie();
  std::vector<Instance> worlds =
      ChaseSOInverseWorlds(inv, target).ValueOrDie();
  ASSERT_EQ(worlds.size(), 1u);
  EXPECT_EQ(worlds[0].TotalSize(), 0u);
}

TEST(ChaseSOInverseTest, ConstantAtFunctionPositionIsAccepted) {
  // A constant where the canonical exchange would put an invented value is
  // allowed (the functions are arbitrary): f#1(2) materialises as a null.
  SOTgdMapping m = Rule9();
  SOInverseMapping inv = PolySOInverse(m).ValueOrDie();
  Instance target =
      ParseInstance("{ T(1,2,2,3) }", *m.target).ValueOrDie();
  std::vector<Instance> worlds =
      ChaseSOInverseWorlds(inv, target).ValueOrDie();
  ASSERT_EQ(worlds.size(), 1u);
  RelationId r = worlds[0].schema().Find("R");
  ASSERT_EQ(worlds[0].TuplesCopy(r).size(), 1u);
  EXPECT_EQ(worlds[0].TuplesCopy(r)[0][0], Value::Int(1));
  EXPECT_TRUE(worlds[0].TuplesCopy(r)[0][1].is_null());
}

TEST(ChaseSOInverseTest, SharedFunctionValueLinksTwoFacts) {
  // Two facts sharing the value at the f-position recover tuples sharing
  // the f#1 class: Takes-style co-enrolment.
  SOTgdMapping m =
      ParseSOTgdMapping("Takes(n,c) -> Enrollment(f(n),c)").ValueOrDie();
  SOInverseMapping inv = PolySOInverse(m).ValueOrDie();
  Instance target = ParseInstance(
      "{ Enrollment(_N0,'db'), Enrollment(_N0,'os'), Enrollment(_N1,'db') }",
      *m.target).ValueOrDie();
  std::vector<Instance> worlds =
      ChaseSOInverseWorlds(inv, target).ValueOrDie();
  ASSERT_EQ(worlds.size(), 1u);
  RelationId takes = worlds[0].schema().Find("Takes");
  ASSERT_EQ(worlds[0].TuplesCopy(takes).size(), 3u);
  std::vector<Value> db_students, os_students;
  for (const Tuple& t : worlds[0].TuplesCopy(takes)) {
    if (t[1] == Value::MakeConstant("os")) {
      os_students.push_back(t[0]);
    } else {
      db_students.push_back(t[0]);
    }
  }
  ASSERT_EQ(db_students.size(), 2u);
  ASSERT_EQ(os_students.size(), 1u);
  // Exactly one of the db students equals the os student.
  EXPECT_TRUE((db_students[0] == os_students[0]) !=
              (db_students[1] == os_students[0]));
}

TEST(ChaseSOInverseTest, GInverseConstraintPinsTheConstant) {
  // A(x) -> P(g(x), x): the inverse includes g#1(u) = x and u carries no C.
  // Recovering from P(k, 7) must pin the A-value to 7 via the second
  // position, not invent a null.
  SOTgdMapping m = ParseSOTgdMapping("A(x) -> P(g(x), x)").ValueOrDie();
  SOInverseMapping inv = PolySOInverse(m).ValueOrDie();
  Instance target = ParseInstance("{ P(_N0, 7) }", *m.target).ValueOrDie();
  std::vector<Instance> worlds =
      ChaseSOInverseWorlds(inv, target).ValueOrDie();
  ASSERT_EQ(worlds.size(), 1u);
  RelationId a = worlds[0].schema().Find("A");
  ASSERT_EQ(worlds[0].TuplesCopy(a).size(), 1u);
  EXPECT_EQ(worlds[0].TuplesCopy(a)[0][0], Value::Int(7));
}

TEST(ChaseSOInverseTest, ConflictingPinsKillTheBranch) {
  // With A(x) -> P(g(x), x), the two facts P(k,7), P(k,8) claim g#1(k) is
  // both 7 and 8 — the only branch is inconsistent, so no world survives.
  SOTgdMapping m = ParseSOTgdMapping("A(x) -> P(g(x), x)").ValueOrDie();
  SOInverseMapping inv = PolySOInverse(m).ValueOrDie();
  Instance target =
      ParseInstance("{ P(_N0, 7), P(_N0, 8) }", *m.target).ValueOrDie();
  std::vector<Instance> worlds =
      ChaseSOInverseWorlds(inv, target).ValueOrDie();
  EXPECT_TRUE(worlds.empty());
}

TEST(ChaseSOInverseTest, SafeInequalitySeparatesProducers) {
  // A(x) -> T(f(x)) and B(x) -> T(g(x)): on a single fact both branches are
  // individually consistent (2 worlds); the Q_s constraints forbid taking
  // *both* branches for the same value, which shows up as: no world
  // contains both an A-fact and a B-fact for the same T value... but
  // separate worlds may choose either.
  SOTgdMapping m =
      ParseSOTgdMapping("A(x) -> T(f(x))\nB(x) -> T(g(x))").ValueOrDie();
  SOInverseMapping inv = PolySOInverse(m).ValueOrDie();
  Instance target = ParseInstance("{ T(_N0) }", *m.target).ValueOrDie();
  std::vector<Instance> worlds =
      ChaseSOInverseWorlds(inv, target).ValueOrDie();
  ASSERT_EQ(worlds.size(), 2u);
  for (const Instance& w : worlds) {
    RelationId a = w.schema().Find("A");
    RelationId b = w.schema().Find("B");
    EXPECT_EQ(w.TuplesCopy(a).size() + w.TuplesCopy(b).size(), 1u);
  }
}

TEST(ChaseSOInverseTest, WorldCapIsEnforced) {
  SOTgdMapping m =
      ParseSOTgdMapping("A(x) -> T(f(x))\nB(x) -> T(g(x))").ValueOrDie();
  SOInverseMapping inv = PolySOInverse(m).ValueOrDie();
  Instance target(*m.target);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(target.Add("T", {Value::NullWithLabel(100 + i)}).ok());
  }
  ExecutionOptions tight;
  tight.max_worlds = 16;  // 2^8 = 256 branches
  EXPECT_EQ(ChaseSOInverseWorlds(inv, target, tight).status().code(),
            StatusCode::kResourceExhausted);
}

TEST(ChaseSOInverseTest, FactLimitIsEnforced) {
  // Each applied disjunct appends one symbolic fact: the third trigger
  // brings the total to 2 + 4 + 8 = 14 > 10.
  SOTgdMapping m =
      ParseSOTgdMapping("A(x) -> T(f(x))\nB(x) -> T(g(x))").ValueOrDie();
  SOInverseMapping inv = PolySOInverse(m).ValueOrDie();
  Instance target(*m.target);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(target.Add("T", {Value::NullWithLabel(100 + i)}).ok());
  }
  ExecutionOptions tight;
  tight.max_new_facts = 10;
  const Status status = ChaseSOInverseWorlds(inv, target, tight).status();
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(status.ToString().find("chase_so_inverse"), std::string::npos)
      << status.ToString();
  EXPECT_NE(status.ToString().find("max_new_facts = 10"), std::string::npos)
      << status.ToString();
}

TEST(ChaseSOTgdTest, FactLimitEnforced) {
  SOTgdMapping m = ParseSOTgdMapping("A(x,y) -> T(x,f(y))").ValueOrDie();
  Instance source(*m.source);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(source.AddInts("A", {i, i}).ok());
  }
  ExecutionOptions tight;
  tight.max_new_facts = 10;
  EXPECT_EQ(ChaseSOTgd(m, source, tight).status().code(),
            StatusCode::kResourceExhausted);
}

}  // namespace
}  // namespace mapinv

// The reverse chase's satisfaction probes. A disjunct whose variables are
// all premise variables is ground under a trigger: "a homomorphism exists"
// then means "every built conclusion row is already a fact", which the
// probe answers with one dedup lookup per atom instead of a hom search. The
// tests pin that equivalence against HomSearch, pin the recovered world
// sets of three round trips (storage order, null labels) to digests taken
// before the fast path existed, and gate the work counters it removes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "base/byte_codec.h"
#include "base/symbol_context.h"
#include "chase/chase_driver.h"
#include "chase/round_trip.h"
#include "engine/execution_options.h"
#include "engine/trace.h"
#include "eval/hom.h"
#include "inversion/cq_maximum_recovery.h"
#include "inversion/maximum_recovery.h"
#include "mapgen/generators.h"
#include "parser/parser.h"

namespace mapinv {
namespace {

// Every world's rows in storage order, null labels included.
std::string WorldsDump(const std::vector<Instance>& worlds) {
  std::string out;
  for (const Instance& world : worlds) {
    const auto& relations = world.schema().relations();
    for (RelationId r = 0; r < relations.size(); ++r) {
      for (const Tuple& row : world.TuplesCopy(r)) {
        out += relations[r].name + "(";
        for (const Value& v : row) out += v.ToString() + ",";
        out += ")";
      }
    }
    out += "|";
  }
  return out;
}

uint64_t Digest(const std::string& dump) {
  return Fnv1a(dump.data(), dump.size());
}

struct RoundTripCase {
  TgdMapping mapping;
  ReverseMapping recovery;
  Instance source;
};

// (a) of the E6 workload, scaled down: a copy mapping through its
// CQ-maximum recovery (20 one-disjunct ground dependencies).
RoundTripCase CopyCase() {
  TgdMapping m = CopyMapping(4, 3);
  ReverseMapping rec = CqMaximumRecovery(m).ValueOrDie();
  Instance source = GenerateInstance(*m.source, 40, 12, 5);
  return {std::move(m), std::move(rec), std::move(source)};
}

// (b) of the E6 workload: gen:exp:2,2 over four B facts, 7^4 worlds, every
// disjunct ground.
RoundTripCase ExpCase() {
  TgdMapping m = ExponentialFamilyMapping(2, 2);
  ReverseMapping rec = MaximumRecovery(m).ValueOrDie();
  Instance source(m.source);
  for (int64_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(source.AddInts("B", {3 + 7 * i}).ok());
  }
  return {std::move(m), std::move(rec), std::move(source)};
}

// A recovery with an existential disjunct: R(x,y) -> T(x) comes back as
// T(x), C(x) -> EXISTS y . R(x,y), whose probe is a hom search. The copy
// dependency U(x,y) -> R(x,y) runs first, so some of those probes hold.
RoundTripCase ExistentialCase() {
  TgdMapping m =
      ParseTgdMapping("R(x,y) -> U(x,y)\nR(x,y) -> T(x)").ValueOrDie();
  ReverseMapping rec = MaximumRecovery(m).ValueOrDie();
  Instance source = GenerateInstance(*m.source, 30, 8, 9);
  return {std::move(m), std::move(rec), std::move(source)};
}

std::vector<Instance> Worlds(const RoundTripCase& c, ExecStats* stats,
                             Tracer* tracer, bool vectorized = true,
                             bool oblivious = false) {
  SymbolContext symbols;
  ExecutionOptions options;
  options.threads = 1;
  options.symbols = &symbols;
  options.stats = stats;
  options.trace = tracer;
  options.vectorized = vectorized;
  options.oblivious = oblivious;
  return RoundTripWorlds(c.mapping, c.recovery, c.source, options)
      .ValueOrDie();
}

// Random worlds over P/2, Q/1 and the 0-ary Z, with constants and nulls.
Instance RandomWorld(const Schema& schema, const std::vector<Value>& domain,
                     std::mt19937& rng) {
  Instance world(schema);
  auto pick = [&] { return domain[rng() % domain.size()]; };
  for (size_t i = rng() % 6; i > 0; --i) {
    EXPECT_TRUE(world.Add("P", {pick(), pick()}).ok());
  }
  for (size_t i = rng() % 4; i > 0; --i) {
    EXPECT_TRUE(world.Add("Q", {pick()}).ok());
  }
  if (rng() % 2 == 0) {
    EXPECT_TRUE(world.Add("Z", {}).ok());
  }
  return world;
}

// A random conclusion over the trigger variables x, y, z (plus the unfixed w
// when `existential`), with constants, repeated variables and, now and then,
// a duplicated atom.
std::vector<Atom> RandomConclusion(bool existential, std::mt19937& rng) {
  const char* names[] = {"x", "y", "z", "w"};
  const size_t num_vars = existential ? 4 : 3;
  auto term = [&] {
    if (rng() % 4 == 0) return Term::Const(Value::Int(1 + rng() % 2));
    return Term::Var(names[rng() % num_vars]);
  };
  std::vector<Atom> atoms;
  for (size_t i = 1 + rng() % 3; i > 0; --i) {
    switch (rng() % 3) {
      case 0:
        atoms.emplace_back("P", std::vector<Term>{term(), term()});
        break;
      case 1:
        atoms.emplace_back("Q", std::vector<Term>{term()});
        break;
      default:
        atoms.emplace_back("Z", std::vector<Term>{});
        break;
    }
    if (rng() % 4 == 0) atoms.push_back(atoms.back());
  }
  if (existential) atoms.push_back(Atom::Vars("P", {"x", "w"}));
  return atoms;
}

// The ground probe's dedup lookups must answer exactly what a hom search
// with the same fixed values answers; so must the plan probe it falls back
// to when a variable is left free.
TEST(ReverseProbeTest, ProbeAgreesWithHomSearch) {
  const Schema schema{{"P", 2}, {"Q", 1}, {"Z", 0}};
  std::vector<VarId> trigger_vars = {InternVar("x"), InternVar("y"),
                                     InternVar("z")};
  std::sort(trigger_vars.begin(), trigger_vars.end());
  const std::vector<Value> domain = {Value::Int(1), Value::Int(2),
                                     Value::NullWithLabel(1000),
                                     Value::NullWithLabel(1001)};
  // The shapes named in the probe's contract, then random ones.
  std::vector<std::vector<Atom>> fixed_shapes = {
      {Atom::Vars("Q", {"x"}), Atom::Vars("Q", {"x"})},
      {Atom::Vars("P", {"x", "x"})},
      {Atom("Z", {})},
      {Atom("P", {Term::Var("y"), Term::Const(Value::Int(2))}),
       Atom::Vars("Q", {"z"})},
  };
  std::mt19937 rng(20061);
  size_t held[2] = {0, 0};
  size_t trials[2] = {0, 0};
  for (int round = 0; round < 400; ++round) {
    const Instance world = RandomWorld(schema, domain, rng);
    const bool existential = round % 4 == 3;
    const std::vector<Atom> atoms =
        round < static_cast<int>(fixed_shapes.size())
            ? fixed_shapes[round]
            : RandomConclusion(existential, rng);
    SCOPED_TRACE(::testing::Message() << "round " << round);
    const SatisfactionProbe probe =
        SatisfactionProbe::Compile(world, nullptr, atoms, trigger_vars,
                                   trigger_vars)
            .ValueOrDie();
    const bool ground = std::none_of(
        atoms.begin(), atoms.end(), [](const Atom& a) {
          return std::any_of(a.terms.begin(), a.terms.end(), [](const Term& t) {
            return t.is_variable() && t.var() == InternVar("w");
          });
        });
    ASSERT_EQ(probe.is_ground(), ground);
    HomSearch search(world);
    std::vector<Value> buffer;
    for (int t = 0; t < 8; ++t) {
      const std::vector<Value> row = {domain[rng() % domain.size()],
                                      domain[rng() % domain.size()],
                                      domain[rng() % domain.size()]};
      Assignment fixed;
      for (size_t c = 0; c < trigger_vars.size(); ++c) {
        fixed.emplace(trigger_vars[c], row[c]);
      }
      const bool want = search.ExistsHom(atoms, {}, fixed).ValueOrDie();
      EXPECT_EQ(probe.Holds(world, nullptr, row.data(), &buffer).ValueOrDie(),
                want);
      held[ground] += want;
      ++trials[ground];
    }
  }
  // Both answers, on both paths.
  for (int ground : {0, 1}) {
    EXPECT_GT(held[ground], 0u);
    EXPECT_LT(held[ground], trials[ground]);
  }
}

// The digests were recorded before reverse probes had a ground fast path;
// the world sets must not move by a byte, in either executor shape.
TEST(ReverseProbeTest, CopyRecoveryWorldsArePinned) {
  const RoundTripCase c = CopyCase();
  for (bool vectorized : {true, false}) {
    const std::vector<Instance> worlds = Worlds(c, nullptr, nullptr, vectorized);
    ASSERT_EQ(worlds.size(), 1u);
    EXPECT_EQ(worlds[0].TotalSize(), c.source.TotalSize());
    EXPECT_EQ(Digest(WorldsDump(worlds)), 5814292608889179266u) << vectorized;
  }
}

TEST(ReverseProbeTest, ExpRecoveryWorldsArePinned) {
  const RoundTripCase c = ExpCase();
  for (bool vectorized : {true, false}) {
    const std::vector<Instance> worlds = Worlds(c, nullptr, nullptr, vectorized);
    EXPECT_EQ(worlds.size(), 2401u);
    EXPECT_EQ(Digest(WorldsDump(worlds)), 18359680481374298497u) << vectorized;
  }
}

TEST(ReverseProbeTest, ExistentialRecoveryWorldsArePinned) {
  const RoundTripCase c = ExistentialCase();
  const std::vector<Instance> restricted = Worlds(c, nullptr, nullptr);
  const std::vector<Instance> oblivious =
      Worlds(c, nullptr, nullptr, true, /*oblivious=*/true);
  ASSERT_EQ(restricted.size(), 1u);
  ASSERT_EQ(oblivious.size(), 1u);
  // Satisfied probes skip triggers: the oblivious chase invents more.
  EXPECT_LT(restricted[0].TotalSize(), oblivious[0].TotalSize());
  EXPECT_EQ(Digest(WorldsDump(restricted)), 16761309388223069871u);
  EXPECT_EQ(Digest(WorldsDump(oblivious)), 4608234132115612913u);
}

const TraceSpan* Child(const TraceSpan& span, const std::string& name) {
  for (const auto& child : span.children) {
    if (child->name == name) return child.get();
  }
  return nullptr;
}

const TraceSpan& ReverseFireSpan(const Tracer& tracer) {
  const TraceSpan* round_trip = Child(tracer.root(), "round_trip");
  EXPECT_NE(round_trip, nullptr);
  const TraceSpan* reverse = Child(*round_trip, "chase_reverse");
  EXPECT_NE(reverse, nullptr);
  const TraceSpan* fire = Child(*reverse, "fire");
  EXPECT_NE(fire, nullptr);
  return *fire;
}

// Host-independent work counters of the reverse fire layer. Every disjunct
// of both recoveries is ground, so firing runs no hom search and never
// builds a value index over a world; world forking is unchanged.
TEST(ReverseProbeTest, GroundRecoveryFireRunsNoHomSearch) {
  const RoundTripCase copy = CopyCase();
  ExecStats stats;
  Tracer tracer;
  const std::vector<Instance> worlds = Worlds(copy, &stats, &tracer);
  ASSERT_EQ(worlds.size(), 1u);
  const TraceSpan& fire = ReverseFireSpan(tracer);
  EXPECT_EQ(fire.count, copy.recovery.deps.size());
  EXPECT_EQ(fire.stats.chase_steps, copy.source.TotalSize());
  EXPECT_EQ(fire.stats.hom_searches, 0u);
  EXPECT_EQ(fire.stats.index_catchup_rows, 0u);
  EXPECT_EQ(fire.stats.worlds_forked, 0u);
}

TEST(ReverseProbeTest, ExpRecoveryForksAsBefore) {
  const RoundTripCase exp = ExpCase();
  ExecStats stats;
  Tracer tracer;
  const std::vector<Instance> worlds = Worlds(exp, &stats, &tracer);
  EXPECT_EQ(worlds.size(), 2401u);
  const TraceSpan& fire = ReverseFireSpan(tracer);
  EXPECT_EQ(fire.stats.worlds_forked, 2400u);
  EXPECT_EQ(stats.worlds_forked.load(), 2400u);
  EXPECT_EQ(fire.stats.hom_searches, 0u);
  EXPECT_EQ(fire.stats.index_catchup_rows, 0u);
}

}  // namespace
}  // namespace mapinv

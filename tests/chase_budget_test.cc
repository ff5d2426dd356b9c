// Budget-edge equivalence of the chase executors. For every max_new_facts
// from 0 up to the unbounded output size, under on_exhausted = kPartial, the
// vectorized fire path (bulk batches, with the per-trigger fallback once a
// batch could cross the budget) must reproduce the scalar executor exactly:
// the same rows in the same storage order, the same null labels, the same
// chase_steps and partial flag, and for ChaseDelta the same provenance and
// return value. Batch sizes 1, 7 and 1024 put the budget edge at every
// position inside a batch.
//
// The world chases (ChaseReverseWorlds, ChaseSOInverseWorlds) stop at
// whole-trigger granularity instead: every cap from the smallest up to the
// unbounded size returns the worlds of a trigger-list prefix, pinned by the
// world-set digest (storage order, null labels), partial flag, chase_steps
// and worlds_forked at that cap.

#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "base/byte_codec.h"
#include "base/symbol_context.h"
#include "chase/chase_delta.h"
#include "chase/chase_reverse.h"
#include "chase/chase_so.h"
#include "chase/chase_tgd.h"
#include "engine/execution_options.h"
#include "inversion/maximum_recovery.h"
#include "inversion/polyso.h"
#include "mapgen/generators.h"
#include "parser/parser.h"

namespace mapinv {
namespace {

constexpr size_t kBatches[] = {1, 7, 1024};

// Everything a chase run can show: rows in storage order (null labels
// included), counters, status, and the delta-only provenance / completion.
struct RunResult {
  std::string status;
  std::string rows;
  size_t facts = 0;
  uint64_t chase_steps = 0;
  bool partial = false;
  std::string provenance;
  bool complete = true;

  bool operator==(const RunResult&) const = default;
};

std::ostream& operator<<(std::ostream& os, const RunResult& r) {
  return os << "status=" << r.status << " steps=" << r.chase_steps
            << " partial=" << r.partial << " complete=" << r.complete
            << "\nrows: " << r.rows << "\nprovenance: " << r.provenance;
}

std::string StorageOrder(const Instance& inst) {
  std::string out;
  const auto& relations = inst.schema().relations();
  for (RelationId r = 0; r < relations.size(); ++r) {
    for (const Tuple& row : inst.TuplesCopy(r)) {
      out += relations[r].name + "(";
      for (const Value& v : row) out += v.ToString() + ",";
      out += ") ";
    }
  }
  return out;
}

std::string ProvenanceDump(const Instance& target,
                           const ChaseProvenance& provenance) {
  std::string out;
  for (RelationId r = 0; r < target.schema().relations().size(); ++r) {
    for (TupleRef ref = 0; ref < target.NumRows(r); ++ref) {
      out += std::to_string(provenance.TgdFor(r, ref)) + " ";
    }
    out += "| ";
  }
  return out;
}

ExecutionOptions Options(size_t limit, size_t batch, bool oblivious,
                         ExecStats* stats, SymbolContext* symbols) {
  ExecutionOptions options;
  options.max_new_facts = limit;
  options.on_exhausted = OnExhausted::kPartial;
  options.vectorized = batch > 0;  // 0 selects the scalar executor
  if (batch > 0) options.vector_batch = batch;
  options.oblivious = oblivious;
  options.stats = stats;
  options.symbols = symbols;
  return options;
}

RunResult RunTgds(const TgdMapping& mapping, const Instance& source,
                  size_t limit, size_t batch, bool oblivious) {
  ExecStats stats;
  SymbolContext symbols;
  RunResult r;
  Result<Instance> out = ChaseTgds(
      mapping, source, Options(limit, batch, oblivious, &stats, &symbols));
  r.status = out.status().ToString();
  if (out.ok()) {
    r.rows = StorageOrder(*out);
    r.facts = out->TotalSize();
  }
  r.chase_steps = stats.chase_steps.load();
  r.partial = stats.partial.load();
  return r;
}

// Chases `base` without a limit, then absorbs `delta` under the limit.
RunResult RunDelta(const TgdMapping& mapping, const Instance& base,
                   const Instance& delta, size_t limit, size_t batch,
                   bool oblivious) {
  SymbolContext symbols;
  ExecutionOptions base_options;
  base_options.oblivious = oblivious;
  base_options.symbols = &symbols;
  Instance target = *ChaseTgds(mapping, base, base_options);
  Instance source = base.Fork();
  const DeltaWatermark mark = WatermarkOf(source);
  EXPECT_TRUE(source.UnionWith(delta).ok());
  ExecStats stats;
  ChaseProvenance provenance;
  RunResult r;
  Result<bool> complete =
      ChaseDelta(mapping, source, mark, &target, &provenance,
                 Options(limit, batch, oblivious, &stats, &symbols));
  r.status = complete.status().ToString();
  if (complete.ok()) r.complete = *complete;
  r.rows = StorageOrder(target);
  r.facts = target.TotalSize();
  r.provenance = ProvenanceDump(target, provenance);
  r.chase_steps = stats.chase_steps.load();
  r.partial = stats.partial.load();
  return r;
}

RunResult RunSO(const SOTgdMapping& mapping, const Instance& source,
                size_t limit, size_t batch) {
  ExecStats stats;
  SymbolContext symbols;
  RunResult r;
  Result<Instance> out = ChaseSOTgd(
      mapping, source, Options(limit, batch, false, &stats, &symbols));
  r.status = out.status().ToString();
  if (out.ok()) {
    r.rows = StorageOrder(*out);
    r.facts = out->TotalSize();
  }
  r.chase_steps = stats.chase_steps.load();
  r.partial = stats.partial.load();
  return r;
}

// Runs `run(limit, batch)` for every limit in [0, full] and every batch size,
// comparing each vectorized run with the scalar run (batch 0) at the same
// limit. `full` is the unbounded output size.
template <typename RunFn>
void SweepLimits(const std::string& label, size_t full, RunFn run) {
  ASSERT_GT(full, 0u) << label;
  for (size_t limit = 0; limit <= full; ++limit) {
    const RunResult scalar = run(limit, 0);
    EXPECT_EQ(scalar.partial, limit < full) << label << " limit=" << limit;
    for (size_t batch : kBatches) {
      EXPECT_EQ(run(limit, batch), scalar)
          << label << " limit=" << limit << " batch=" << batch;
    }
  }
}

using Pairs = std::vector<std::pair<int, int>>;

// The shared input: R and S rows for the full chases and the delta base, plus
// the rows a delta run appends.
const Pairs kBaseR = {{1, 2}, {1, 3}, {2, 2}, {3, 4}, {4, 4}, {5, 2}};
const Pairs kBaseS = {{2, 5}, {2, 6}, {4, 1}, {3, 3}};
const Pairs kDeltaR = {{6, 2}, {1, 4}};
const Pairs kDeltaS = {{2, 7}, {6, 6}};

void AddPairs(Instance* inst, const Pairs& r, const Pairs& s) {
  for (const auto& [a, b] : r) EXPECT_TRUE(inst->AddInts("R", {a, b}).ok());
  for (const auto& [a, b] : s) EXPECT_TRUE(inst->AddInts("S", {a, b}).ok());
}

TEST(ChaseBudgetEdgeTest, VectorizedMatchesScalarAtEveryLimit) {
  const TgdMapping existential_free =
      *ParseTgdMapping("R(x,y), S(y,z) -> T(x,z)\nR(x,y) -> U(x)\n"
                       "S(y,z) -> U(y), T(y,y)");
  const TgdMapping existential =
      *ParseTgdMapping("R(x,y) -> EXISTS z . T(x,z), V(z,y)\n"
                       "S(y,z) -> EXISTS w . T(y,w)\n"
                       "R(x,y), S(y,z) -> U(x)");
  for (const TgdMapping* mapping : {&existential_free, &existential}) {
    const std::string name = mapping == &existential ? "existential"
                                                     : "existential-free";
    Instance base(mapping->source);
    AddPairs(&base, kBaseR, kBaseS);
    Instance delta(mapping->source);
    AddPairs(&delta, kDeltaR, kDeltaS);
    Instance whole = base.Fork();
    ASSERT_TRUE(whole.UnionWith(delta).ok());
    for (bool oblivious : {false, true}) {
      const std::string label =
          name + (oblivious ? " oblivious" : " restricted");
      const size_t full_tgds =
          ChaseTgds(*mapping, whole, Options(SIZE_MAX, 0, oblivious, nullptr,
                                             nullptr))
              ->TotalSize();
      SweepLimits("ChaseTgds " + label, full_tgds,
                  [&](size_t limit, size_t batch) {
                    return RunTgds(*mapping, whole, limit, batch, oblivious);
                  });
      SymbolContext symbols;
      ExecutionOptions base_options;
      base_options.oblivious = oblivious;
      base_options.symbols = &symbols;
      const size_t base_size =
          ChaseTgds(*mapping, base, base_options)->TotalSize();
      const RunResult unbounded =
          RunDelta(*mapping, base, delta, SIZE_MAX, 0, oblivious);
      ASSERT_TRUE(unbounded.complete) << unbounded;
      // The delta run's target starts with the base chase, so its "full"
      // is what the delta adds on top.
      SweepLimits("ChaseDelta " + label, unbounded.facts - base_size,
                  [&](size_t limit, size_t batch) {
                    return RunDelta(*mapping, base, delta, limit, batch,
                                    oblivious);
                  });
    }
  }

  const SOTgdMapping so =
      *ParseSOTgdMapping("R(x,y) -> T(x,f(y)), U(x)\n"
                         "R(x,y), S(y,z) -> T(f(y),g(x,z))\n"
                         "S(y,z) -> U(f(z))");
  Instance so_source(*so.source);
  AddPairs(&so_source, kBaseR, kBaseS);
  const size_t full_so = ChaseSOTgd(so, so_source)->TotalSize();
  SweepLimits("ChaseSOTgd", full_so, [&](size_t limit, size_t batch) {
    return RunSO(so, so_source, limit, batch);
  });
}

// What a capped world chase shows: the world set's digest, and the
// counters. Every cap from `from_cap` up to the next step's gives this row,
// so a step list pins every cap of a sweep exactly.
struct WorldStep {
  size_t from_cap = 0;
  uint64_t digest = 0;
  bool partial = false;
  uint64_t chase_steps = 0;
  uint64_t worlds_forked = 0;

  bool operator==(const WorldStep&) const = default;
};

// Prints as the initializer the pinned tables below are written in.
std::ostream& operator<<(std::ostream& os, const WorldStep& s) {
  return os << "\n    {" << s.from_cap << ", " << s.digest << "u, "
            << (s.partial ? "true" : "false") << ", " << s.chase_steps << ", "
            << s.worlds_forked << "}";
}

uint64_t WorldsDigest(const std::vector<Instance>& worlds) {
  std::string dump;
  for (const Instance& world : worlds) dump += StorageOrder(world) + "|";
  return Fnv1a(dump.data(), dump.size());
}

enum class Cap { kWorlds, kFacts };

// Runs `chase(options)` with a fresh symbol scope and one cap set, the
// other budgets unbounded, under kPartial.
template <typename ChaseFn>
WorldStep RunWorlds(Cap cap, size_t value, ChaseFn chase) {
  ExecStats stats;
  SymbolContext symbols;
  ExecutionOptions options;
  options.threads = 1;
  options.on_exhausted = OnExhausted::kPartial;
  options.max_worlds = cap == Cap::kWorlds ? value : SIZE_MAX;
  options.max_new_facts = cap == Cap::kFacts ? value : SIZE_MAX;
  options.stats = &stats;
  options.symbols = &symbols;
  Result<std::vector<Instance>> worlds = chase(options);
  EXPECT_TRUE(worlds.ok()) << worlds.status().ToString();
  WorldStep step;
  step.from_cap = value;
  if (worlds.ok()) step.digest = WorldsDigest(*worlds);
  step.partial = stats.partial.load();
  step.chase_steps = stats.chase_steps.load();
  step.worlds_forked = stats.worlds_forked.load();
  return step;
}

// Runs every cap from `from` up to the first that does not cut the run
// short (at most `to`), collapsing equal consecutive rows into steps.
template <typename ChaseFn>
std::vector<WorldStep> SweepWorlds(Cap cap, size_t from, size_t to,
                                   ChaseFn chase) {
  std::vector<WorldStep> steps;
  for (size_t value = from; value <= to; ++value) {
    WorldStep step = RunWorlds(cap, value, chase);
    WorldStep same = step;
    if (!steps.empty()) same.from_cap = steps.back().from_cap;
    if (steps.empty() || !(same == steps.back())) steps.push_back(step);
    if (!step.partial) break;
  }
  return steps;
}

// The world count of an unbounded run, and its facts summed over worlds:
// when no world is dropped, a bound on the facts the run creates (a fact
// added before a fork is created once and shared).
template <typename ChaseFn>
std::pair<size_t, size_t> FullSize(ChaseFn chase) {
  ExecStats stats;
  SymbolContext symbols;
  ExecutionOptions options;
  options.threads = 1;
  options.stats = &stats;
  options.symbols = &symbols;
  Result<std::vector<Instance>> worlds = chase(options);
  EXPECT_TRUE(worlds.ok()) << worlds.status().ToString();
  size_t facts = 0;
  for (const Instance& world : *worlds) facts += world.TotalSize();
  return {worlds->size(), facts};
}

// gen:exp:2,2 over B(0..2) through its maximum recovery: 343 worlds, every
// disjunct ground.
TEST(WorldChaseBudgetTest, ReverseWorldsStopAtTriggerPrefixes) {
  const TgdMapping m = ExponentialFamilyMapping(2, 2);
  const ReverseMapping rec = *MaximumRecovery(m);
  Instance source(m.source);
  for (int64_t i = 0; i < 3; ++i) ASSERT_TRUE(source.AddInts("B", {i}).ok());
  SymbolContext forward_symbols;
  ExecutionOptions forward;
  forward.symbols = &forward_symbols;
  const Instance canonical = *ChaseTgds(m, source, forward);
  auto chase = [&](const ExecutionOptions& options) {
    return ChaseReverseWorlds(rec, canonical, options);
  };
  const auto [worlds, facts] = FullSize(chase);
  ASSERT_EQ(worlds, 343u);
  // From 147 worlds on, the ninth trigger's 343-world frontier is the only
  // overshoot; the six triggers after it fork nothing.
  const std::vector<WorldStep> by_worlds = {
      {1, 14702757777284237279u, true, 1, 2},
      {3, 2231892023149549614u, true, 2, 8},
      {9, 7454316802713974810u, true, 3, 26},
      {27, 7024338775565755188u, true, 7, 62},
      {63, 6497907155657597150u, true, 8, 146},
      {147, 16188312861922194436u, true, 9, 342},
      {343, 16188312861922194436u, false, 15, 342},
  };
  EXPECT_EQ(SweepWorlds(Cap::kWorlds, 1, worlds, chase), by_worlds);
  const std::vector<WorldStep> by_facts = {
      {0, 14702757777284237279u, true, 1, 2},
      {3, 2231892023149549614u, true, 2, 8},
      {12, 7454316802713974810u, true, 3, 26},
      {39, 7024338775565755188u, true, 7, 62},
      {93, 6497907155657597150u, true, 8, 146},
      {219, 16188312861922194436u, true, 9, 342},
      {513, 16188312861922194436u, false, 15, 342},
  };
  EXPECT_EQ(SweepWorlds(Cap::kFacts, 0, facts, chase), by_facts);
}

// A(x) -> T(f(x)); B(x) -> T(g(x)) inverted, over eight T nulls: every
// trigger forks each world into an A- and a B-branch, 256 worlds.
TEST(WorldChaseBudgetTest, SOInverseWorldsStopAtTriggerPrefixes) {
  const SOTgdMapping m = *ParseSOTgdMapping("A(x) -> T(f(x))\nB(x) -> T(g(x))");
  const SOInverseMapping inv = *PolySOInverse(m);
  Instance target(*m.target);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(target.Add("T", {Value::NullWithLabel(100 + i)}).ok());
  }
  auto chase = [&](const ExecutionOptions& options) {
    return ChaseSOInverseWorlds(inv, target, options);
  };
  const auto [worlds, facts] = FullSize(chase);
  ASSERT_EQ(worlds, 256u);
  const std::vector<WorldStep> by_worlds = {
      {1, 5080574189322536563u, true, 1, 1},
      {2, 11417913067889238063u, true, 2, 3},
      {4, 13217669262599287441u, true, 3, 7},
      {8, 3904051851372452709u, true, 4, 15},
      {16, 15429829617375202179u, true, 5, 31},
      {32, 2776885673554625921u, true, 6, 63},
      {64, 8571396889963709775u, true, 7, 127},
      {128, 8769021163306986921u, true, 8, 255},
      {256, 8769021163306986921u, false, 8, 255},
  };
  EXPECT_EQ(SweepWorlds(Cap::kWorlds, 1, worlds, chase), by_worlds);
  // Each applied disjunct appends one symbolic fact: 2^k per trigger k.
  const std::vector<WorldStep> by_facts = {
      {0, 5080574189322536563u, true, 1, 1},
      {2, 11417913067889238063u, true, 2, 3},
      {6, 13217669262599287441u, true, 3, 7},
      {14, 3904051851372452709u, true, 4, 15},
      {30, 15429829617375202179u, true, 5, 31},
      {62, 2776885673554625921u, true, 6, 63},
      {126, 8571396889963709775u, true, 7, 127},
      {254, 8769021163306986921u, true, 8, 255},
      {510, 8769021163306986921u, false, 8, 255},
  };
  EXPECT_EQ(SweepWorlds(Cap::kFacts, 0, facts, chase), by_facts);
}

}  // namespace
}  // namespace mapinv

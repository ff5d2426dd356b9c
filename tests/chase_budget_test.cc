// Budget-edge equivalence of the chase executors. For every max_new_facts
// from 0 up to the unbounded output size, under on_exhausted = kPartial, the
// vectorized fire path (bulk batches, with the per-trigger fallback once a
// batch could cross the budget) must reproduce the scalar executor exactly:
// the same rows in the same storage order, the same null labels, the same
// chase_steps and partial flag, and for ChaseDelta the same provenance and
// return value. Batch sizes 1, 7 and 1024 put the budget edge at every
// position inside a batch.

#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "chase/chase_delta.h"
#include "chase/chase_so.h"
#include "chase/chase_tgd.h"
#include "engine/execution_options.h"
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

}  // namespace
}  // namespace mapinv

// E6 — Chase-based data exchange with the inverse language costs the same
// as with plain tgds (Theorem 4.5: "the same good properties for data
// exchange as tgds").
//
// Compares facts/second of (a) the forward tgd chase, (b) the reverse chase
// whose premises carry C(·) and pairwise ≠, and (c) the SO-tgd chase, over
// the same growing instances. The `facts_per_sec` counters should be within
// small constant factors of each other.

#include <benchmark/benchmark.h>

#include "chase/chase_reverse.h"
#include "chase/chase_so.h"
#include "chase/chase_tgd.h"
#include "engine/trace.h"
#include "inversion/cq_maximum_recovery.h"
#include "mapgen/generators.h"
#include "rewrite/skolemize.h"

namespace mapinv {
namespace {

void BM_Chase_ForwardTgds(benchmark::State& state) {
  TgdMapping m = ChainJoinMapping(3);
  const int tuples = static_cast<int>(state.range(0));
  Instance source = GenerateInstance(*m.source, tuples, tuples / 4 + 2, 23);
  size_t produced = 0;
  for (auto _ : state) {
    Instance target = ChaseTgds(m, source).ValueOrDie();
    produced = target.TotalSize();
    benchmark::DoNotOptimize(target);
  }
  state.counters["tuples_in"] = tuples;
  state.counters["facts_out"] = static_cast<double>(produced);
  state.counters["facts_per_sec"] = benchmark::Counter(
      static_cast<double>(produced), benchmark::Counter::kIsIterationInvariantRate);
}

void BM_Chase_ReverseWithGuards(benchmark::State& state) {
  // Chase the canonical target back through the CQ-maximum recovery: the
  // reverse dependencies carry C(·) on every frontier variable and the full
  // pairwise inequality set.
  TgdMapping m = ChainJoinMapping(3);
  ReverseMapping rec = CqMaximumRecovery(m).ValueOrDie();
  const int tuples = static_cast<int>(state.range(0));
  Instance source = GenerateInstance(*m.source, tuples, tuples / 4 + 2, 23);
  Instance target = ChaseTgds(m, source).ValueOrDie();
  // Work counters alongside the wall time: hom searches (the satisfaction
  // probes and trigger collection) and value-index catch-up rows per
  // iteration do not depend on the host. An untimed warm-up run builds the
  // input's indexes first, so every counted iteration does the same work.
  ExecStats stats;
  ExecutionOptions options;
  options.stats = &stats;
  benchmark::DoNotOptimize(ChaseReverse(rec, target, options).ValueOrDie());
  stats.Reset();
  size_t produced = 0;
  for (auto _ : state) {
    Instance back = ChaseReverse(rec, target, options).ValueOrDie();
    produced = back.TotalSize();
    benchmark::DoNotOptimize(back);
  }
  const double iters = static_cast<double>(state.iterations());
  state.counters["tuples_in"] = static_cast<double>(target.TotalSize());
  state.counters["facts_out"] = static_cast<double>(produced);
  state.counters["hom_searches"] =
      static_cast<double>(stats.hom_searches.load()) / iters;
  state.counters["index_catchup_rows"] =
      static_cast<double>(stats.index_catchup_rows.load()) / iters;
  state.counters["facts_per_sec"] = benchmark::Counter(
      static_cast<double>(produced), benchmark::Counter::kIsIterationInvariantRate);
}

void BM_Chase_SOTgds(benchmark::State& state) {
  TgdMapping m = ChainJoinMapping(3);
  SOTgdMapping so = TgdsToPlainSOTgd(m).ValueOrDie();
  const int tuples = static_cast<int>(state.range(0));
  Instance source = GenerateInstance(*m.source, tuples, tuples / 4 + 2, 23);
  size_t produced = 0;
  for (auto _ : state) {
    Instance target = ChaseSOTgd(so, source).ValueOrDie();
    produced = target.TotalSize();
    benchmark::DoNotOptimize(target);
  }
  state.counters["tuples_in"] = tuples;
  state.counters["facts_out"] = static_cast<double>(produced);
  state.counters["facts_per_sec"] = benchmark::Counter(
      static_cast<double>(produced), benchmark::Counter::kIsIterationInvariantRate);
}

void BM_Chase_ObliviousVsStandard(benchmark::State& state) {
  // Ablation: the oblivious chase skips the satisfaction check but may
  // produce more facts.
  TgdMapping m = ProjectionMapping(4);
  const int tuples = static_cast<int>(state.range(0));
  Instance source = GenerateInstance(*m.source, tuples, tuples / 4 + 2, 29);
  ExecutionOptions options;
  options.oblivious = (state.range(1) == 1);
  size_t produced = 0;
  for (auto _ : state) {
    Instance target = ChaseTgds(m, source, options).ValueOrDie();
    produced = target.TotalSize();
    benchmark::DoNotOptimize(target);
  }
  state.counters["tuples_in"] = tuples;
  state.counters["oblivious"] = static_cast<double>(state.range(1));
  state.counters["facts_out"] = static_cast<double>(produced);
}

void BM_Chase_ThreadsSweep(benchmark::State& state) {
  // Parallel trigger enumeration: same chase, varying ExecutionOptions::
  // threads. Output is bit-identical across the sweep (engine_test asserts
  // this); here we measure throughput. Speedup requires real cores — on a
  // single-CPU host every point degenerates to sequential time plus a small
  // chunking overhead.
  TgdMapping m = ChainJoinMapping(3);
  const int tuples = static_cast<int>(state.range(0));
  Instance source = GenerateInstance(*m.source, tuples, tuples / 4 + 2, 23);
  ExecutionOptions options;
  options.threads = static_cast<int>(state.range(1));
  // Per-phase wall time via the trace layer: the chase splits into parallel
  // trigger enumeration (collect_triggers — the part the sweep scales) and
  // sequential firing (fire — the part it cannot).
  Tracer tracer;
  options.trace = &tracer;
  size_t produced = 0;
  for (auto _ : state) {
    Instance target = ChaseTgds(m, source, options).ValueOrDie();
    produced = target.TotalSize();
    benchmark::DoNotOptimize(target);
  }
  double collect_ms = 0;
  double fire_ms = 0;
  for (const auto& top : tracer.root().children) {
    for (const auto& child : top->children) {
      if (child->name == "collect_triggers") collect_ms += child->wall_ms;
      if (child->name == "fire") fire_ms += child->wall_ms;
    }
  }
  const double iters = static_cast<double>(state.iterations());
  state.counters["tuples_in"] = tuples;
  state.counters["threads"] = static_cast<double>(state.range(1));
  state.counters["facts_out"] = static_cast<double>(produced);
  state.counters["collect_ms_per_iter"] = collect_ms / iters;
  state.counters["fire_ms_per_iter"] = fire_ms / iters;
  state.counters["facts_per_sec"] = benchmark::Counter(
      static_cast<double>(produced), benchmark::Counter::kIsIterationInvariantRate);
}

BENCHMARK(BM_Chase_ForwardTgds)
    ->Arg(64)->Arg(256)->Arg(1024)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Chase_ReverseWithGuards)
    ->Arg(64)->Arg(256)->Arg(1024)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Chase_SOTgds)
    ->Arg(64)->Arg(256)->Arg(1024)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Chase_ObliviousVsStandard)
    ->Args({256, 0})->Args({256, 1})->Args({1024, 0})->Args({1024, 1})
    ->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_Chase_ThreadsSweep)
    ->Args({1024, 1})->Args({1024, 2})->Args({1024, 4})->Args({1024, 8})
    ->Unit(benchmark::kMicrosecond)->UseRealTime();

}  // namespace
}  // namespace mapinv

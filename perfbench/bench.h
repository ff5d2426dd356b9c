// Shared pieces of the benchmark driver: timing, seeded input generation,
// per-op tracing state, and the result every workload hands to the report.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "alloc_counter.h"
#include "base/symbol_context.h"
#include "engine/execution_options.h"
#include "engine/trace.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// Linear-interpolation quantile (q in [0, 1]) of unsorted values; 0 when
/// empty.
double Quantile(std::vector<double> values, double q);

/// 64-bit FNV-1a, used for input digests and work signatures.
uint64_t Fnv1a(std::string_view bytes, uint64_t hash = 1469598103934665603ull);

/// Seeded generator: the same (seed, salt) always yields the same stream.
class Rng {
 public:
  Rng(uint64_t seed, uint64_t salt)
      : gen_(seed * 0x9e3779b97f4a7c15ull ^ salt) {}
  uint64_t Below(uint64_t n) { return gen_() % n; }

 private:
  std::mt19937_64 gen_;
};

/// The exchange workload's input, also uploaded by the serve workload: four
/// ternary copy relations R0..R3 and a chain E1 ⋈ E2 ⋈ E3 over a small
/// domain, with the target size an independent hash join predicts.
struct ExchangeInput {
  std::string mapping_text;
  std::string source_text;
  size_t source_facts = 0;
  size_t expected_target_facts = 0;
};
ExchangeInput MakeExchangeInput(uint64_t seed);

/// Number of facts in a rendered instance ("{ T(1,2), P(3,4) }"): every fact
/// has exactly one '(' because constants are integers.
size_t CountFacts(std::string_view rendered);

/// One op's latency and when it ended, relative to the timed phase start.
struct Sample {
  double end_s = 0;
  double ms = 0;
};

/// A span tree recorded by one Tracer plus the allocation counts of the
/// driver's own spans in it (the library's spans cannot see allocations).
struct SpanTree {
  mapinv::Tracer tracer;
  mapinv::ExecStats stats;
  std::map<std::string, AllocCounts> allocs;

  /// Execution options that stream into this tree's tracer and stats sink.
  mapinv::ExecutionOptions Options(mapinv::SymbolContext* symbols) {
    mapinv::ExecutionOptions options;
    options.symbols = symbols;
    options.stats = &stats;
    options.trace = &tracer;
    return options;
  }
};

/// Tracing state of one traced op. `op` holds the spans of the timed call
/// sequence; `split` holds an untimed re-run of the same work through the
/// individual public layer calls, for ops (exchange) whose single public
/// call hides its layers. `tally` carries workload counts (facts, bytes,
/// rules, worlds) the per-layer ratios divide by.
struct OpTrace {
  SpanTree op;
  SpanTree split;
  std::map<std::string, double> tally;
};

/// Plain execution options of an untraced op.
inline mapinv::ExecutionOptions PlainOptions(mapinv::SymbolContext* symbols) {
  mapinv::ExecutionOptions options;
  options.symbols = symbols;
  return options;
}

/// Runs `fn` inside a driver span `name` of `tree` (just runs it when `tree`
/// is null), charging the allocations the calling thread makes meanwhile to
/// the span.
template <typename Fn>
auto InSpan(SpanTree* tree, const char* name, Fn&& fn) -> decltype(fn()) {
  if (tree == nullptr) return fn();
  tree->tracer.Begin(name, &tree->stats);
  const bool was_counting = CountAllocations(true);
  const AllocCounts before = AllocSnapshot();
  auto result = fn();
  tree->allocs[name] += AllocSnapshot() - before;
  CountAllocations(was_counting);
  tree->tracer.End();
  return result;
}

/// Sum of the span trees of every traced op, keyed by span path.
class TraceAgg {
 public:
  void Fold(const SpanTree& tree);
  bool empty() const { return nodes_.empty(); }

  /// Wall time of every span named `name`, or only of those directly under
  /// a span named `parent` when one is given.
  double Wall(std::string_view name, std::string_view parent = {}) const;
  /// Wall time of the span at `path` ("a/b/c" from a top-level span).
  double WallAt(std::string_view path) const;
  /// Wall time minus the wall time of the span's children.
  double Self(std::string_view name) const;
  /// A counter summed over every span named `name` (top-level spans when
  /// `name` is empty).
  uint64_t Stat(uint64_t mapinv::ExecStatsSnapshot::*field,
                std::string_view name = {}) const;
  uint64_t MaxStat(uint64_t mapinv::ExecStatsSnapshot::*field) const;
  uint64_t Allocs(std::string_view span) const;

 private:
  struct Node {
    std::string name;
    std::string parent;
    int depth = 0;
    double wall_ms = 0;
    double child_ms = 0;
    mapinv::ExecStatsSnapshot stats;
  };
  void FoldSpan(const mapinv::TraceSpan& span, const std::string& path,
                const std::string& parent, int depth);

  std::map<std::string, Node> nodes_;
  std::map<std::string, AllocCounts> allocs_;
};

/// Canonical text of a tree's work counters (span names, entry counts,
/// ExecStats deltas, driver-span allocations; no times). Two runs doing the
/// same work produce the same text.
std::string WorkSignature(const SpanTree& tree);

/// What a workload run hands to the report.
struct RunResult {
  std::vector<double> setup_s;     ///< one entry per repeated set-up
  std::vector<Sample> op;          ///< untraced op latencies
  std::vector<Sample> traced_op;   ///< traced op latencies (trace mode)
  std::vector<double> write_ms;    ///< serve: instance.append latencies
  double timed_s = 0;              ///< wall time of the timed phase
  uint64_t completed = 0;          ///< ops (serve: requests) that succeeded
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double peak_rss_mb = 0;
  uint64_t input_digest = 0;
  uint64_t work_signature = 0;
  uint64_t signature_mismatches = 0;
  TraceAgg op_agg;
  TraceAgg split_agg;
  /// Workload counts summed over traced ops; serve stores its serve.*
  /// per-layer metrics here under their metric names.
  std::map<std::string, double> tally;
  uint64_t traced_ops = 0;
};

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string serve_binary;
  std::string socket_path;
};

/// Number of repeated set-ups per run; setup_s is their median.
inline constexpr int kSetups = 5;

RunResult RunInProcess(const RunConfig& config);
RunResult RunServe(const RunConfig& config);

/// Records a failed op: counts it and reports the first few on stderr.
void NoteFailure(RunResult* result, const std::string& what);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_

// perfbench_driver — runs one workload of the mapinv benchmark and prints
// its metrics. See perfbench/README.md for the workloads and metrics.
//
//   perfbench_driver --workload exchange|reverse|invert|serve --seed N
//                    --seconds S --trace 0|1
//
// Untraced runs (--trace 0) print the end-to-end metrics; traced runs
// (--trace 1) print the per-layer metrics. Human-readable lines come first;
// the last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// A traced run also prints a `selftest` line with the input digest and the
// work signature of its first traced op (perfbench/selftest.py compares
// them across runs).
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench.h"
#include "engine/request.h"

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

uint64_t Fnv1a(std::string_view bytes, uint64_t hash) {
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 1099511628211ull;
  }
  return hash;
}

size_t CountFacts(std::string_view rendered) {
  return static_cast<size_t>(std::count(rendered.begin(), rendered.end(), '('));
}

ExchangeInput MakeExchangeInput(uint64_t seed) {
  constexpr int kCopyRelations = 4;
  constexpr int kCopyRows = 4500;
  constexpr int kChainEdges = 1000;
  constexpr uint64_t kChainDomain = 600;
  Rng rng(seed, 0x6578);
  ExchangeInput in;
  for (int r = 0; r < kCopyRelations; ++r) {
    const std::string i = std::to_string(r);
    in.mapping_text += "R" + i + "(a,b,c) -> T" + i + "(a,b,c)\n";
  }
  in.mapping_text += "E1(x,y), E2(y,z), E3(z,w) -> P(x,w)\n";

  std::string& text = in.source_text;
  text = "{ ";
  auto fact = [&](const std::string& rel,
                  std::initializer_list<uint64_t> values) {
    if (in.source_facts++ > 0) text += ", ";
    text += rel + "(";
    bool first = true;
    for (uint64_t v : values) {
      if (!first) text += ",";
      first = false;
      text += std::to_string(v);
    }
    text += ")";
  };
  // Copy rows are distinct by their first column.
  for (int r = 0; r < kCopyRelations; ++r) {
    const std::string rel = std::string("R") + std::to_string(r);
    const uint64_t base = rng.Below(1000000);
    for (uint64_t k = 0; k < kCopyRows; ++k) {
      fact(rel, {base + k, rng.Below(50000), rng.Below(50000)});
    }
  }
  std::set<std::pair<uint64_t, uint64_t>> edges[3];
  for (int e = 0; e < 3; ++e) {
    while (edges[e].size() < kChainEdges) {
      edges[e].insert({rng.Below(kChainDomain), rng.Below(kChainDomain)});
    }
    for (const auto& [from, to] : edges[e]) {
      fact(std::string("E") + std::to_string(e + 1), {from, to});
    }
  }
  text += " }";

  // Independent oracle for the join: distinct endpoints of 3-edge paths.
  std::unordered_map<uint64_t, std::vector<uint64_t>> next[3];
  for (int e = 0; e < 3; ++e) {
    for (const auto& [from, to] : edges[e]) next[e][from].push_back(to);
  }
  std::set<std::pair<uint64_t, uint64_t>> paths;
  for (const auto& [x, y] : edges[0]) {
    for (uint64_t z : next[1][y]) {
      for (uint64_t w : next[2][z]) paths.insert({x, w});
    }
  }
  in.expected_target_facts = kCopyRelations * kCopyRows + paths.size();
  return in;
}

void TraceAgg::Fold(const SpanTree& tree) {
  for (const auto& child : tree.tracer.root().children) {
    FoldSpan(*child, child->name, "", 1);
  }
  for (const auto& [name, counts] : tree.allocs) allocs_[name] += counts;
}

void TraceAgg::FoldSpan(const mapinv::TraceSpan& span, const std::string& path,
                        const std::string& parent, int depth) {
  Node& node = nodes_[path];
  node.name = span.name;
  node.parent = parent;
  node.depth = depth;
  node.wall_ms += span.wall_ms;
  const mapinv::ExecStatsSnapshot& s = span.stats;
  mapinv::ExecStatsSnapshot& t = node.stats;
  for (auto field : {&mapinv::ExecStatsSnapshot::chase_steps,
                     &mapinv::ExecStatsSnapshot::hom_searches,
                     &mapinv::ExecStatsSnapshot::hom_plans_compiled,
                     &mapinv::ExecStatsSnapshot::hom_bucket_candidates,
                     &mapinv::ExecStatsSnapshot::index_catchup_rows,
                     &mapinv::ExecStatsSnapshot::worlds_forked,
                     &mapinv::ExecStatsSnapshot::vector_rows_scanned,
                     &mapinv::ExecStatsSnapshot::vector_rows_selected,
                     &mapinv::ExecStatsSnapshot::bulk_rows_appended}) {
    t.*field += s.*field;
  }
  t.tuples_arena_bytes = std::max(t.tuples_arena_bytes, s.tuples_arena_bytes);
  for (const auto& child : span.children) {
    node.child_ms += child->wall_ms;
    FoldSpan(*child, path + "/" + child->name, span.name, depth + 1);
  }
}

double TraceAgg::Wall(std::string_view name, std::string_view parent) const {
  double sum = 0;
  for (const auto& [path, node] : nodes_) {
    if (node.name == name && (parent.empty() || node.parent == parent)) {
      sum += node.wall_ms;
    }
  }
  return sum;
}

double TraceAgg::WallAt(std::string_view path) const {
  auto it = nodes_.find(std::string(path));
  return it == nodes_.end() ? 0 : it->second.wall_ms;
}

double TraceAgg::Self(std::string_view name) const {
  double sum = 0;
  for (const auto& [path, node] : nodes_) {
    if (node.name == name) sum += node.wall_ms - node.child_ms;
  }
  return sum;
}

uint64_t TraceAgg::Stat(uint64_t mapinv::ExecStatsSnapshot::*field,
                        std::string_view name) const {
  uint64_t sum = 0;
  for (const auto& [path, node] : nodes_) {
    if (name.empty() ? node.depth == 1 : node.name == name) {
      sum += node.stats.*field;
    }
  }
  return sum;
}

uint64_t TraceAgg::MaxStat(uint64_t mapinv::ExecStatsSnapshot::*field) const {
  uint64_t max = 0;
  for (const auto& [path, node] : nodes_) {
    max = std::max(max, node.stats.*field);
  }
  return max;
}

uint64_t TraceAgg::Allocs(std::string_view span) const {
  auto it = allocs_.find(std::string(span));
  return it == allocs_.end() ? 0 : it->second.allocs;
}

namespace {

void SignatureOf(const mapinv::TraceSpan& span, std::string* out) {
  *out += span.name + "#" + std::to_string(span.count) +
          mapinv::StatsToJson(span.stats).Serialize() + "[";
  for (const auto& child : span.children) SignatureOf(*child, out);
  *out += "]";
}

}  // namespace

std::string WorkSignature(const SpanTree& tree) {
  std::string out;
  SignatureOf(tree.tracer.root(), &out);
  for (const auto& [name, counts] : tree.allocs) {
    out += name + ":" + std::to_string(counts.allocs) + "/" +
           std::to_string(counts.bytes) + ";";
  }
  return out;
}

void NoteFailure(RunResult* result, const std::string& what) {
  static std::atomic<int> printed{0};
  ++result->failed;
  if (printed.fetch_add(1) < 5) {
    std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  }
}

namespace {

double Ratio(double num, double den) { return den != 0 ? num / den : 0; }

std::vector<double> Latencies(const std::vector<Sample>& samples) {
  std::vector<double> out;
  out.reserve(samples.size());
  for (const Sample& s : samples) out.push_back(s.ms);
  return out;
}

/// Last-quarter over first-quarter median op latency.
double Stationarity(const std::vector<Sample>& samples, double timed_s) {
  std::vector<double> first;
  std::vector<double> last;
  for (const Sample& s : samples) {
    if (s.end_s < timed_s / 4) first.push_back(s.ms);
    if (s.end_s >= timed_s * 3 / 4) last.push_back(s.ms);
  }
  return Ratio(Quantile(last, 0.5), Quantile(first, 0.5));
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double Mean(const std::vector<double>& values) {
  double sum = 0;
  for (double v : values) sum += v;
  return Ratio(sum, static_cast<double>(values.size()));
}

// The central latency is the mean, not the median: on a host whose speed
// alternates between two modes, a run's median lands in one mode or the
// other, while the mean moves in proportion to the time spent in each.
std::vector<Metric> EndToEnd(const RunResult& r) {
  const std::vector<double> op = Latencies(r.op);
  return {
      {"setup_s", Quantile(r.setup_s, 0.5), "s"},
      {"ops_per_s", Ratio(r.completed, r.timed_s), "1/s"},
      {"op_ms.mean", Mean(op), "ms"},
      {"op_ms.p90", Quantile(op, 0.9), "ms"},
      {"peak_rss_mb", r.peak_rss_mb, "MB"},
  };
}

std::vector<Metric> PerLayer(const RunResult& r) {
  const double n = static_cast<double>(std::max<uint64_t>(r.traced_ops, 1));
  // Layers come from the split re-run when the workload records one (its
  // op is a single public call), otherwise from the op itself.
  const TraceAgg& a = r.split_agg.empty() ? r.op_agg : r.split_agg;
  auto tally = [&](const char* key) {
    auto it = r.tally.find(key);
    return it == r.tally.end() ? 0.0 : it->second;
  };
  using S = mapinv::ExecStatsSnapshot;
  auto stat = [&](uint64_t S::*field, std::string_view span = {}) {
    return static_cast<double>(a.Stat(field, span));
  };
  const double parse_ms = a.Wall("parse");
  const double forward_facts = tally("forward_facts");
  const double forks = stat(&S::worlds_forked, "chase_reverse");
  const double searches = stat(&S::hom_searches);
  const double scanned = stat(&S::vector_rows_scanned);
  const double rules = tally("rules_out");
  const double inversion_allocs =
      a.Allocs("cq_maxrec") + a.Allocs("maxrec") + a.Allocs("polyso");
  // E6 on the copy round trip: forward facts/s over reverse facts/s. Both
  // chases produce one fact per source row, so it is a ratio of wall times.
  const double copy_forward =
      a.WallAt("roundtrip_copy/round_trip/chase_tgds");
  const double copy_reverse =
      a.WallAt("roundtrip_copy/round_trip/chase_reverse");
  const double request_ms =
      r.op_agg.empty() || r.split_agg.empty()
          ? 0
          : r.op_agg.Wall("exchange_request") -
                (parse_ms + a.Wall("chase") + a.Wall("render"));
  return {
      {"parser.self_ms", a.Self("parse") / n, "ms"},
      {"parser.mb_per_s", Ratio(tally("parse_bytes") / 1e6, parse_ms / 1e3),
       "MB/s"},
      {"parser.allocs_per_fact",
       Ratio(a.Allocs("parse"), tally("parse_facts")), "count"},
      {"chase.collect_ms", a.Wall("collect_triggers", "chase_tgds") / n, "ms"},
      {"chase.fire_ms", a.Wall("fire", "chase_tgds") / n, "ms"},
      {"chase.facts_per_s",
       Ratio(forward_facts, a.Wall("chase_tgds") / 1e3), "1/s"},
      {"chase.steps", stat(&S::chase_steps, "chase_tgds") / n, "count"},
      {"chase.allocs_per_fact", Ratio(a.Allocs("chase"), forward_facts),
       "count"},
      {"data.bulk_rows", stat(&S::bulk_rows_appended) / n, "count"},
      {"data.index_catchup_rows", stat(&S::index_catchup_rows) / n, "count"},
      {"data.arena_bytes",
       static_cast<double>(a.MaxStat(&S::tuples_arena_bytes)), "bytes"},
      {"eval.rows_scanned",
       (scanned + stat(&S::hom_bucket_candidates)) / n, "count"},
      {"eval.selectivity", Ratio(stat(&S::vector_rows_selected), scanned),
       "ratio"},
      {"eval.hom_searches", searches / n, "count"},
      {"eval.plans_compiled", stat(&S::hom_plans_compiled) / n, "count"},
      {"eval.plan_reuse",
       searches > 0 ? 1 - stat(&S::hom_plans_compiled) / searches : 0,
       "ratio"},
      {"eval.minimize_ms", a.Wall("minimize") / n, "ms"},
      {"reverse.self_ms", a.Self("chase_reverse") / n, "ms"},
      {"reverse.collect_ms", a.Wall("collect_triggers", "chase_reverse") / n,
       "ms"},
      {"reverse.fire_ms", a.Wall("fire", "chase_reverse") / n, "ms"},
      {"reverse.probes", stat(&S::hom_searches, "chase_reverse") / n,
       "count"},
      {"reverse.worlds_forked", forks / n, "count"},
      {"reverse.worlds_out", tally("worlds_out") / n, "count"},
      {"reverse.world_yield", Ratio(tally("worlds_out"), forks), "ratio"},
      {"reverse.allocs_per_fork", Ratio(a.Allocs("roundtrip_exp"), forks),
       "count"},
      {"reverse.e6_ratio", Ratio(copy_reverse, copy_forward), "ratio"},
      {"inversion.maxrec_ms", a.Wall("maximum_recovery") / n, "ms"},
      {"rewrite.self_ms", a.Self("rewrite") / n, "ms"},
      {"inversion.elim_eq_ms", a.Wall("eliminate_equalities") / n, "ms"},
      {"inversion.elim_disj_ms", a.Wall("eliminate_disjunctions") / n, "ms"},
      {"inversion.polyso_ms", a.Wall("polyso_inverse") / n, "ms"},
      {"inversion.rules_out", rules / n, "count"},
      {"inversion.allocs_per_rule", Ratio(inversion_allocs, rules), "count"},
      {"engine.render_ms", a.Wall("render") / n, "ms"},
      {"engine.result_bytes", tally("result_bytes") / n, "bytes"},
      {"engine.request_ms", request_ms / n, "ms"},
      // Filled by the serve workload only.
      {"serve.exchange_ms.p50", tally("serve.exchange_ms.p50"), "ms"},
      {"serve.append_ms.p50", tally("serve.append_ms.p50"), "ms"},
      {"serve.rewrite_ms.p50", tally("serve.rewrite_ms.p50"), "ms"},
      {"serve.invert_ms.p50", tally("serve.invert_ms.p50"), "ms"},
      {"serve.ping_ms.p50", tally("serve.ping_ms.p50"), "ms"},
      {"serve.transport_ms", tally("serve.transport_ms"), "ms"},
      {"serve.response_mb_per_s", tally("serve.response_mb_per_s"), "MB/s"},
      {"serve.memo_hit_ratio", tally("serve.memo_hit_ratio"), "ratio"},
      {"serve.held_rows", tally("serve.held_rows"), "count"},
      {"trace.overhead",
       Ratio(Quantile(Latencies(r.traced_op), 0.5),
             Quantile(Latencies(r.op), 0.5)),
       "ratio"},
      {"stationarity.q4_q1", Stationarity(r.op, r.timed_s), "ratio"},
  };
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload "
               "exchange|reverse|invert|serve --seed N --seconds S "
               "--trace 0|1\n");
  return 2;
}

int Main(int argc, char** argv) {
  RunConfig config;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      config.trace = value == "1";
      if (value != "0" && value != "1") return Usage();
    } else {
      return Usage();
    }
    if (end != nullptr && *end != '\0') return Usage();
  }
  const std::set<std::string> workloads = {"exchange", "reverse", "invert",
                                           "serve"};
  if (argc % 2 != 1 || !have_workload ||
      workloads.count(config.workload) == 0 || !(config.seconds > 0)) {
    return Usage();
  }
  // mapinv_serve is built next to the driver; its socket goes there too,
  // under a short relative path (unix socket paths are limited to 108 bytes).
  const std::string self = argv[0];
  const size_t slash = self.rfind('/');
  const std::string dir =
      slash == std::string::npos ? "." : self.substr(0, slash);
  config.serve_binary = dir + "/mapinv_serve";
  config.socket_path =
      dir + "/perfbench-" + std::to_string(::getpid()) + ".sock";

  const RunResult r =
      config.workload == "serve" ? RunServe(config) : RunInProcess(config);
  const char* w = config.workload.c_str();

  std::printf("%s/op_ms samples %zu, traced samples %zu, timed phase %.3f s\n",
              w, r.op.size(), r.traced_op.size(), r.timed_s);
  std::printf("%s/op_ms.p50 %.6g ms\n", w, Quantile(Latencies(r.op), 0.5));
  std::printf("%s/error_rate %.6g ratio (%llu failed of %llu attempted)\n", w,
              Ratio(r.failed, r.attempted),
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(r.attempted));
  if (!r.write_ms.empty()) {
    std::printf("%s/write_ms.p50 %.6g ms\n%s/write_ms.p90 %.6g ms (n=%zu)\n",
                w, Quantile(r.write_ms, 0.5), w, Quantile(r.write_ms, 0.9),
                r.write_ms.size());
  }
  if (config.trace) {
    std::printf("{\"selftest\": {\"workload\": \"%s\", "
                "\"input_digest\": \"%016llx\", "
                "\"work_signature\": \"%016llx\", "
                "\"signature_mismatches\": %llu}}\n",
                w, static_cast<unsigned long long>(r.input_digest),
                static_cast<unsigned long long>(r.work_signature),
                static_cast<unsigned long long>(r.signature_mismatches));
  }

  const std::vector<Metric> metrics = config.trace ? PerLayer(r) : EndToEnd(r);
  std::string json = "{\"correct\": ";
  json += r.failed == 0 && r.attempted > 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::printf("%s/%s %.6g %s\n", w, m.name.c_str(), m.value, m.unit.c_str());
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + JsonNumber(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return r.attempted > 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }

// The three in-process workloads: exchange (one-shot request path),
// reverse (the E6 round trip on held inputs) and invert (the inversion
// algorithms). Each op is one fixed call sequence into public functions.
#include <sys/resource.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bench.h"
#include "chase/chase_tgd.h"
#include "chase/round_trip.h"
#include "engine/eval_cache.h"
#include "engine/request.h"
#include "inversion/cq_maximum_recovery.h"
#include "inversion/maximum_recovery.h"
#include "inversion/polyso.h"
#include "mapgen/generators.h"
#include "parser/parser.h"

namespace perfbench {
namespace {

using mapinv::ExecutionOptions;
using mapinv::Instance;
using mapinv::ReverseMapping;
using mapinv::SymbolContext;
using mapinv::TgdMapping;

/// An op's outcome: empty `error` when its output passed the check.
struct OpOutcome {
  double ms = 0;
  std::string error;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Generates the inputs from `seed` and parses them into held state.
  /// Returns a digest of the generated inputs.
  virtual uint64_t Prepare(uint64_t seed) = 0;
  /// Runs one op (traced when `trace` is set) and checks its output.
  virtual OpOutcome Run(OpTrace* trace) = 0;
};

// --- exchange ----------------------------------------------------------------

// One ExecuteRequest{exchange} with inline mapping text and a ~21k-fact
// source. A traced op also re-runs the request's layers one public call at
// a time (parse, chase, render) into the split tree.
class ExchangeWorkload : public Workload {
 public:
  uint64_t Prepare(uint64_t seed) override {
    input_ = MakeExchangeInput(seed);
    request_.command = "exchange";
    request_.mapping = input_.mapping_text;
    request_.instance = input_.source_text;
    return Fnv1a(input_.source_text, Fnv1a(input_.mapping_text));
  }

  OpOutcome Run(OpTrace* trace) override {
    OpOutcome out;
    ExecutionOptions base;
    if (trace != nullptr) {
      base.stats = &trace->op.stats;
      base.trace = &trace->op.tracer;
    }
    const Clock::time_point start = Clock::now();
    mapinv::EngineResponse response =
        InSpan(trace != nullptr ? &trace->op : nullptr, "exchange_request",
               [&] { return mapinv::ExecuteRequest(request_, base); });
    out.ms = MsBetween(start, Clock::now());
    if (!response.status.ok()) {
      out.error = "exchange: " + response.status.ToString();
      return out;
    }
    const size_t facts = CountFacts(response.result);
    if (facts != input_.expected_target_facts) {
      out.error = "exchange: " + std::to_string(facts) +
                  " target facts, want " +
                  std::to_string(input_.expected_target_facts);
      return out;
    }
    if (trace != nullptr) Split(trace, &out);
    return out;
  }

 private:
  void Split(OpTrace* trace, OpOutcome* out) {
    SpanTree* tree = &trace->split;
    SymbolContext symbols;
    ExecutionOptions options = tree->Options(&symbols);
    auto mapping = InSpan(tree, "parse", [&] {
      return mapinv::LoadMappingSpec(input_.mapping_text);
    });
    auto source = InSpan(tree, "parse", [&] {
      return mapinv::ParseInstance(input_.source_text, *mapping->source);
    });
    if (!mapping.ok() || !source.ok()) {
      out->error = "exchange split: parse failed";
      return;
    }
    auto target = InSpan(tree, "chase", [&] {
      return mapinv::ChaseTgds(*mapping, *source, options);
    });
    if (!target.ok()) {
      out->error = "exchange split: " + target.status().ToString();
      return;
    }
    const std::string rendered =
        InSpan(tree, "render", [&] { return target->ToString(); });
    trace->tally["parse_bytes"] +=
        input_.mapping_text.size() + input_.source_text.size();
    trace->tally["parse_facts"] += source->TotalSize();
    trace->tally["forward_facts"] += target->TotalSize();
    trace->tally["result_bytes"] += rendered.size() + 1;
  }

  ExchangeInput input_;
  mapinv::EngineRequest request_;
};

// --- reverse -----------------------------------------------------------------

// Two RoundTripWorlds calls on pre-parsed inputs: (a) a 4x5000-row copy
// mapping through its CQ-maximum recovery (one world, equal to the source),
// (b) gen:exp:2,2 over four B facts through its maximum recovery (7^4 worlds).
class ReverseWorkload : public Workload {
 public:
  static constexpr size_t kExpWorlds = 2401;

  uint64_t Prepare(uint64_t seed) override {
    Rng rng(seed, 0x7265);
    copy_ = std::make_unique<TgdMapping>(mapinv::CopyMapping(4, 3));
    copy_source_ = std::make_unique<Instance>(copy_->source);
    std::string digest;
    for (int r = 0; r < 4; ++r) {
      const std::string rel = "R" + std::to_string(r);
      const int64_t base = static_cast<int64_t>(rng.Below(1000000));
      for (int i = 0; i < 5000; ++i) {
        std::vector<int64_t> row = {base + i,
                                    static_cast<int64_t>(rng.Below(50000)),
                                    static_cast<int64_t>(rng.Below(50000))};
        copy_source_->AddInts(rel, row).ValueOrDie();
        digest += std::to_string(row[0] ^ row[1] ^ row[2]) + ",";
      }
    }
    copy_recovery_ = std::make_unique<ReverseMapping>(
        mapinv::CqMaximumRecovery(*copy_).ValueOrDie());

    exp_ = std::make_unique<TgdMapping>(mapinv::ExponentialFamilyMapping(2, 2));
    exp_source_ = std::make_unique<Instance>(exp_->source);
    const int64_t b0 = static_cast<int64_t>(rng.Below(1000000));
    for (int64_t i = 0; i < 4; ++i) {
      exp_source_->AddInts("B", {b0 + 7 * i}).ValueOrDie();
    }
    digest += std::to_string(b0);
    exp_recovery_ = std::make_unique<ReverseMapping>(
        mapinv::MaximumRecovery(*exp_).ValueOrDie());
    return Fnv1a(digest);
  }

  OpOutcome Run(OpTrace* trace) override {
    OpOutcome out;
    SpanTree* tree = trace != nullptr ? &trace->op : nullptr;
    SymbolContext symbols;
    ExecutionOptions options =
        tree != nullptr ? tree->Options(&symbols) : PlainOptions(&symbols);
    const Clock::time_point start = Clock::now();
    auto copy_worlds = InSpan(tree, "roundtrip_copy", [&] {
      return mapinv::RoundTripWorlds(*copy_, *copy_recovery_, *copy_source_,
                                     options);
    });
    auto exp_worlds = InSpan(tree, "roundtrip_exp", [&] {
      return mapinv::RoundTripWorlds(*exp_, *exp_recovery_, *exp_source_,
                                     options);
    });
    out.ms = MsBetween(start, Clock::now());
    if (!copy_worlds.ok() || !exp_worlds.ok()) {
      out.error = "reverse: " + (copy_worlds.ok() ? exp_worlds.status()
                                                  : copy_worlds.status())
                                    .ToString();
      return out;
    }
    // Copy is Fagin-invertible: the one recovered world is the source.
    if (copy_worlds->size() != 1 ||
        (*copy_worlds)[0].TotalSize() != copy_source_->TotalSize() ||
        !(*copy_worlds)[0].SubsetOf(*copy_source_)) {
      out.error = "reverse: copy round trip did not recover the source";
      return out;
    }
    if (exp_worlds->size() != kExpWorlds) {
      out.error = "reverse: " + std::to_string(exp_worlds->size()) +
                  " exp worlds, want " + std::to_string(kExpWorlds);
      return out;
    }
    if (trace != nullptr) {
      // (a) chases one fact per source row forward; (b) chases
      // B(x) -> T1(x), T2(x), two facts per B fact.
      trace->tally["forward_facts"] +=
          copy_source_->TotalSize() + 2 * exp_source_->TotalSize();
      trace->tally["worlds_out"] += copy_worlds->size() + exp_worlds->size();
    }
    return out;
  }

 private:
  std::unique_ptr<TgdMapping> copy_;
  std::unique_ptr<Instance> copy_source_;
  std::unique_ptr<ReverseMapping> copy_recovery_;
  std::unique_ptr<TgdMapping> exp_;
  std::unique_ptr<Instance> exp_source_;
  std::unique_ptr<ReverseMapping> exp_recovery_;
};

// --- invert ------------------------------------------------------------------

// The paper's algorithms with no instance: CQ-maximum recovery of
// gen:copy:2,8 (Bell-number partition expansion), maximum recovery of
// gen:exp:2,4 (rewrite + minimize by containment), and PolySOInverse of a
// seeded 64-tgd random mapping. The process-wide containment cache is
// cleared before every op so no op reuses another's work.
class InvertWorkload : public Workload {
 public:
  static constexpr size_t kBell8 = 4140;

  uint64_t Prepare(uint64_t seed) override {
    copy_ = std::make_unique<TgdMapping>(mapinv::CopyMapping(2, 8));
    exp_ = std::make_unique<TgdMapping>(mapinv::ExponentialFamilyMapping(2, 4));
    mapinv::RandomMappingConfig config;
    config.seed = seed;
    config.num_tgds = 64;
    config.source_relations = 4;
    config.target_relations = 4;
    config.arity = 2;
    config.premise_atoms = 2;
    config.conclusion_atoms = 1;
    config.premise_vars = 3;
    config.existential_vars = 1;
    random_ =
        std::make_unique<TgdMapping>(mapinv::GenerateRandomMapping(config));
    // PolySOInverse emits one rule per distinct conclusion-atom shape after
    // Skolemization: the relation plus, per position, whether the term is a
    // premise variable or an invented value, and which earlier position it
    // repeats.
    std::set<std::string> shapes;
    for (const mapinv::Tgd& tgd : random_->tgds) {
      const std::vector<mapinv::VarId> premise = tgd.PremiseVars();
      for (const mapinv::Atom& atom : tgd.conclusion) {
        std::string shape = std::to_string(atom.relation) + ":";
        for (size_t i = 0; i < atom.terms.size(); ++i) {
          const mapinv::VarId v = atom.terms[i].var();
          const bool invented =
              std::find(premise.begin(), premise.end(), v) == premise.end();
          size_t first = i;
          for (size_t j = 0; j < i; ++j) {
            if (atom.terms[j].var() == v) {
              first = j;
              break;
            }
          }
          shape += invented ? 'f' : 'v';
          shape += std::to_string(first) + ",";
        }
        shapes.insert(shape);
      }
    }
    expected_polyso_rules_ = shapes.size();
    return Fnv1a(random_->ToString());
  }

  OpOutcome Run(OpTrace* trace) override {
    OpOutcome out;
    mapinv::GlobalEvalCache().Clear();
    SpanTree* tree = trace != nullptr ? &trace->op : nullptr;
    SymbolContext symbols;
    ExecutionOptions options =
        tree != nullptr ? tree->Options(&symbols) : PlainOptions(&symbols);
    const Clock::time_point start = Clock::now();
    auto cq = InSpan(tree, "cq_maxrec", [&] {
      return mapinv::CqMaximumRecovery(*copy_, options);
    });
    auto maxrec = InSpan(tree, "maxrec", [&] {
      return mapinv::MaximumRecovery(*exp_, options);
    });
    auto polyso = InSpan(tree, "polyso", [&] {
      return mapinv::PolySOInverseOfTgds(*random_, options);
    });
    out.ms = MsBetween(start, Clock::now());
    if (!cq.ok() || !maxrec.ok() || !polyso.ok()) {
      out.error = "invert: a call failed";
      return out;
    }
    // E3: Bell(8) dependencies per copy tgd; one recovery dependency per
    // tgd; one inverse rule per conclusion shape.
    const size_t cq_rules = cq->deps.size();
    const size_t maxrec_rules = maxrec->deps.size();
    const size_t polyso_rules = polyso->inverse.rules.size();
    if (cq_rules != 2 * kBell8 || maxrec_rules != exp_->tgds.size() ||
        polyso_rules != expected_polyso_rules_) {
      out.error = "invert: rule counts " + std::to_string(cq_rules) + "/" +
                  std::to_string(maxrec_rules) + "/" +
                  std::to_string(polyso_rules);
      return out;
    }
    if (trace != nullptr) {
      trace->tally["rules_out"] += cq_rules + maxrec_rules + polyso_rules;
    }
    return out;
  }

 private:
  std::unique_ptr<TgdMapping> copy_;
  std::unique_ptr<TgdMapping> exp_;
  std::unique_ptr<TgdMapping> random_;
  size_t expected_polyso_rules_ = 0;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "exchange") return std::make_unique<ExchangeWorkload>();
  if (name == "reverse") return std::make_unique<ReverseWorkload>();
  return std::make_unique<InvertWorkload>();
}

constexpr int kWarmupOps = 3;

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MB
}

}  // namespace

RunResult RunInProcess(const RunConfig& config) {
  RunResult result;
  std::unique_ptr<Workload> workload;
  for (int s = 0; s < kSetups; ++s) {
    workload.reset();
    const Clock::time_point start = Clock::now();
    workload = MakeWorkload(config.workload);
    result.input_digest = workload->Prepare(config.seed);
    for (int i = 0; i < kWarmupOps; ++i) {
      OpOutcome warm = workload->Run(nullptr);
      if (!warm.error.empty()) NoteFailure(&result, "warm-up " + warm.error);
    }
    result.setup_s.push_back(MsBetween(start, Clock::now()) / 1000.0);
  }

  // Timed phase. In trace mode ops alternate traced/untraced, so both
  // latency series see the same host conditions.
  std::string first_signature;
  const Clock::time_point phase = Clock::now();
  for (uint64_t i = 0;; ++i) {
    const double elapsed = MsBetween(phase, Clock::now()) / 1000.0;
    if (elapsed >= config.seconds) break;
    const bool traced = config.trace && i % 2 == 0;
    OpTrace trace;
    OpOutcome outcome = workload->Run(traced ? &trace : nullptr);
    const double end_s = MsBetween(phase, Clock::now()) / 1000.0;
    ++result.attempted;
    if (!outcome.error.empty()) {
      NoteFailure(&result, outcome.error);
      continue;
    }
    ++result.completed;
    (traced ? result.traced_op : result.op).push_back({end_s, outcome.ms});
    if (!traced) continue;
    ++result.traced_ops;
    result.op_agg.Fold(trace.op);
    result.split_agg.Fold(trace.split);
    for (const auto& [key, value] : trace.tally) result.tally[key] += value;
    const std::string signature =
        WorkSignature(trace.op) + "|" + WorkSignature(trace.split);
    if (first_signature.empty()) {
      first_signature = signature;
      result.work_signature = Fnv1a(signature);
    } else if (signature != first_signature) {
      ++result.signature_mismatches;
    }
  }
  result.timed_s = MsBetween(phase, Clock::now()) / 1000.0;
  result.peak_rss_mb = PeakRssMb();
  return result;
}

}  // namespace perfbench

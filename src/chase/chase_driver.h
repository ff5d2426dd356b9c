/// \file chase_driver.h
/// \brief The two chase procedures: RunChase behind ChaseTgds, ChaseDelta
/// and ChaseSOTgd, and RunWorldChase behind the disjunctive world chases
/// ChaseReverseWorlds and ChaseSOInverseWorlds.
///
/// Theorem 4.5's "chases like tgds" is literal here: every forward chase is
/// RunChase, and a mapping language changes only two hooks —
///
///   * the trigger source: which premise homomorphisms a dependency has
///     (CollectTriggers over the whole source, or CollectTriggersDelta
///     pinned at a watermark), and
///   * the conclusion evaluator: how a fired trigger's conclusion rows are
///     built (ColumnConclusion / TgdConclusion mint one fresh null per
///     existential variable; the SO chase evaluates Skolem terms) and
///     whether a trigger whose conclusion already holds is skipped.
///
/// RunChase owns everything else: the collect / fire trace spans, the bulk
/// fire path (BulkFireScratch + FlushBulkFire, ExecutionOptions::vectorized),
/// the per-trigger path, interrupt and failpoint polls, kPartial
/// degradation, max_new_facts and the chase_steps / bulk_rows_appended
/// counters. FireTrigger, the per-trigger routine, is shared by the scalar
/// path, the budget-edge fallback of the bulk path and the reverse chase's
/// disjunct firing. The hooks are template parameters, so nothing on the
/// per-trigger or per-row path goes through an indirect call.
///
/// RunWorldChase is the same procedure over a frontier of worlds: the
/// inverse languages' disjunctive conclusions fork a world per branch, and
/// a variant supplies only its world type (with fork and checkpoint codec)
/// and a per-dependency branch step. The driver owns trigger collection,
/// the checkpointed job (open, resume, commit cadence), interrupts and
/// failpoints, forking, kPartial degradation and the budgets.

#ifndef MAPINV_CHASE_CHASE_DRIVER_H_
#define MAPINV_CHASE_CHASE_DRIVER_H_

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "base/status.h"
#include "base/symbol_context.h"
#include "chase/fire_plan.h"
#include "data/instance.h"
#include "engine/execution_options.h"
#include "engine/failpoint.h"
#include "engine/parallel_chase.h"
#include "engine/trace.h"
#include "eval/hom.h"
#include "eval/hom_plan.h"
#include "job/job.h"
#include "logic/dependency.h"

namespace mapinv {

/// The observable names of one chase variant.
struct ChaseSite {
  /// Phase named by interrupt and exhaustion errors ("chase_tgds", ...).
  const char* phase;
  /// Trace span around trigger collection.
  const char* collect_span;
  /// Hit once per bulk batch or per scalar trigger, never inside the
  /// budget-edge fallback.
  FailPoint* fire;
};

/// \brief A compiled satisfaction check: does a conclusion already map into
/// an instance with the trigger's values bound to `fixed_vars`? The probe
/// is instance-independent, so one probe serves every world of the reverse
/// chase.
///
/// A ground conclusion — every variable fixed — has exactly one candidate
/// image, the rows the trigger would fire, so the homomorphism exists iff
/// each of those rows is already a fact: one dedup lookup per atom
/// (Instance::ContainsRow; a 0-ary atom holds iff its relation is
/// non-empty), no join plan and no value index. Any other conclusion runs
/// its compiled HomPlan.
struct SatisfactionProbe {
  std::vector<FireAtomCols> ground_atoms;  ///< the atoms, when ground
  std::shared_ptr<const HomPlan> plan;  ///< null when ground
  std::vector<size_t> fixed_cols;  ///< plan->fixed_vars as trigger columns

  /// `world` supplies the schema and, for a non-ground conclusion, the
  /// relation sizes the plan's join order is chosen by; `stats` (may be
  /// null) counts the plan compile.
  static Result<SatisfactionProbe> Compile(
      const Instance& world, ExecStats* stats, const std::vector<Atom>& atoms,
      std::vector<VarId> fixed_vars, const std::vector<VarId>& trigger_vars) {
    SatisfactionProbe probe;
    std::sort(fixed_vars.begin(), fixed_vars.end());
    const std::vector<VarId> vars = CollectDistinctVars(atoms);
    if (std::all_of(vars.begin(), vars.end(), [&](VarId v) {
          return std::binary_search(fixed_vars.begin(), fixed_vars.end(), v);
        })) {
      MAPINV_ASSIGN_OR_RETURN(
          probe.ground_atoms,
          CompileFireAtomsCols(atoms, world.schema(), {}, trigger_vars));
      return probe;
    }
    HomSearch search(world);
    search.set_stats(stats);
    MAPINV_ASSIGN_OR_RETURN(
        probe.plan, search.GetPlanForVars(atoms, HomConstraints{},
                                          std::move(fixed_vars)));
    probe.fixed_cols.reserve(probe.plan->fixed_vars.size());
    for (VarId v : probe.plan->fixed_vars) {
      probe.fixed_cols.push_back(static_cast<size_t>(
          std::lower_bound(trigger_vars.begin(), trigger_vars.end(), v) -
          trigger_vars.begin()));
    }
    return probe;
  }

  bool is_ground() const { return plan == nullptr; }

  /// Whether the conclusion holds in `world` under trigger `row`. `values`
  /// is a reused row / fixed-value buffer; `stats` (may be null) counts the
  /// hom search of a non-ground probe.
  Result<bool> Holds(const Instance& world, ExecStats* stats, const Value* row,
                     std::vector<Value>* values) const {
    if (is_ground()) {
      for (const FireAtomCols& atom : ground_atoms) {
        BuildFireRowCols(atom, row, nullptr, values);
        if (!world.ContainsRow(atom.relation, *values)) return false;
      }
      return true;
    }
    values->clear();
    for (size_t col : fixed_cols) values->push_back(row[col]);
    HomSearch search(world);
    search.set_stats(stats);
    return search.ExistsHomWithPlanValues(*plan, *values);
  }
};

/// \brief Conclusion evaluator over column-compiled atoms: each fired
/// trigger gets one fresh null per existential variable, in declaration
/// order. Never probes satisfaction (see TgdConclusion for the restricted
/// tgd chase).
///
/// The evaluator interface RunChase and FireTrigger use:
///   size(), relation(i)     conclusion atoms and their relations
///   has_existentials()      whether firing invents values
///   restricted()            skip a trigger whose conclusion already holds
///   PrepareProbe(vars)      compile the probe (restricted, per-trigger path)
///   Satisfied(row)          run the probe
///   BeginTrigger()          once per fired trigger, before its rows
///   BuildRow(i, row, out)   assemble atom i's row for the trigger
class ColumnConclusion {
 public:
  /// `fresh` is a reused per-firing buffer owned by the caller.
  ColumnConclusion(std::vector<FireAtomCols> atoms, size_t num_existentials,
                   SymbolContext& symbols, std::vector<Value>* fresh)
      : atoms_(std::move(atoms)),
        num_existentials_(num_existentials),
        symbols_(&symbols),
        fresh_(fresh) {}

  size_t size() const { return atoms_.size(); }
  RelationId relation(size_t i) const { return atoms_[i].relation; }
  bool has_existentials() const { return num_existentials_ > 0; }
  bool restricted() const { return false; }
  Status PrepareProbe(const std::vector<VarId>&) { return Status::OK(); }
  Result<bool> Satisfied(const Value*) { return false; }

  void BeginTrigger() {
    fresh_->clear();
    for (size_t i = 0; i < num_existentials_; ++i) {
      fresh_->push_back(Value::FreshNull(*symbols_));
    }
  }

  Status BuildRow(size_t i, const Value* row, std::vector<Value>* out) const {
    BuildFireRowCols(atoms_[i], row, fresh_->data(), out);
    return Status::OK();
  }

 private:
  std::vector<FireAtomCols> atoms_;
  size_t num_existentials_;
  SymbolContext* symbols_;
  std::vector<Value>* fresh_;
};

/// \brief A tgd's conclusion: ColumnConclusion plus, unless the chase is
/// oblivious, the satisfaction probe against the growing target (compiled
/// on first need, against the frontier variables).
class TgdConclusion : public ColumnConclusion {
 public:
  static Result<TgdConclusion> Compile(const Tgd& tgd,
                                       const TriggerBatch& triggers,
                                       const Instance& target,
                                       ExecStats* stats,
                                       SymbolContext& symbols,
                                       std::vector<Value>* fresh,
                                       bool oblivious) {
    const std::vector<VarId> existential_vars = tgd.ExistentialVars();
    MAPINV_ASSIGN_OR_RETURN(
        std::vector<FireAtomCols> atoms,
        CompileFireAtomsCols(tgd.conclusion, target.schema(), existential_vars,
                             triggers.vars));
    return TgdConclusion(
        ColumnConclusion(std::move(atoms), existential_vars.size(), symbols,
                         fresh),
        oblivious ? nullptr : &tgd, target, stats);
  }

  bool restricted() const { return tgd_ != nullptr; }

  Status PrepareProbe(const std::vector<VarId>& trigger_vars) {
    MAPINV_ASSIGN_OR_RETURN(
        probe_, SatisfactionProbe::Compile(*target_, stats_, tgd_->conclusion,
                                           tgd_->FrontierVars(),
                                           trigger_vars));
    return Status::OK();
  }

  Result<bool> Satisfied(const Value* row) {
    return probe_.Holds(*target_, stats_, row, &probe_values_);
  }

 private:
  TgdConclusion(ColumnConclusion fire, const Tgd* tgd, const Instance& target,
                ExecStats* stats)
      : ColumnConclusion(std::move(fire)),
        tgd_(tgd),
        target_(&target),
        stats_(stats) {}

  const Tgd* tgd_;  // null in the oblivious chase
  const Instance* target_;
  ExecStats* stats_;
  SatisfactionProbe probe_;
  std::vector<Value> probe_values_;
};

/// \brief Fires one trigger of `conclusion` under `row` into `target`.
///
/// With `probe`, a trigger whose conclusion already holds is skipped before
/// anything is minted. Otherwise every conclusion row is built and added;
/// each genuinely new row bumps `*created` and reaches
/// `on_added(relation)` (the row is then the relation's last). `stats` (may
/// be null) gets the chase step: when probing, or when the conclusion is
/// not restricted (every trigger counts), it is counted up front; else only
/// if the trigger added a row — which, for an existential-free conclusion,
/// is exactly "the trigger was unsatisfied".
template <typename Conclusion, typename OnAdded>
Status FireTrigger(Conclusion& conclusion, const Value* row, bool probe,
                   Instance* target, std::vector<Value>* scratch,
                   size_t* created, ExecStats* stats, OnAdded&& on_added) {
  if (probe) {
    MAPINV_ASSIGN_OR_RETURN(const bool satisfied, conclusion.Satisfied(row));
    if (satisfied) return Status::OK();
  }
  const bool step_up_front = probe || !conclusion.restricted();
  if (step_up_front && stats != nullptr) {
    stats->chase_steps.fetch_add(1, std::memory_order_relaxed);
  }
  conclusion.BeginTrigger();
  bool any_added = false;
  for (size_t i = 0; i < conclusion.size(); ++i) {
    MAPINV_RETURN_NOT_OK(conclusion.BuildRow(i, row, scratch));
    const RelationId relation = conclusion.relation(i);
    MAPINV_ASSIGN_OR_RETURN(const bool added,
                            target->AddRow(relation, *scratch));
    if (added) {
      ++*created;
      any_added = true;
      on_added(relation);
    }
  }
  if (!step_up_front && any_added && stats != nullptr) {
    stats->chase_steps.fetch_add(1, std::memory_order_relaxed);
  }
  return Status::OK();
}

/// The row sink of chases that record nothing per added row.
struct NoRowSink {
  void operator()(size_t, RelationId, TupleRef) const {}
};

namespace chase_internal {

// kPartial turns an exhaustion into a clean stop (false); anything else is
// the error.
inline Result<bool> StopOrFail(const ExecutionOptions& options,
                               const Status& status) {
  if (DegradeToPartial(options, status)) return false;
  return status;
}

template <typename Collect, typename Compile, typename Sink>
Result<bool> FireAll(const ChaseSite& site, size_t num_deps,
                     const Instance& source, Instance* target,
                     const ExecutionOptions& options, Collect& collect,
                     Compile& compile, Sink& sink) {
  ExecDeadline entry_deadline(options.deadline_ms);
  const ExecDeadline& deadline = CarriedDeadline(options, entry_deadline);
  HomSearch search(source);
  search.set_stats(options.stats);
  search.set_vector_max_plan_steps(options.vector_max_plan_steps);
  ExecStats* const stats = options.stats;
  size_t created = 0;
  std::vector<Value> scratch;  // reused row buffer
  for (size_t dep = 0; dep < num_deps; ++dep) {
    // Collect first: firing only adds target facts, so the trigger set over
    // the (source-only) premise does not depend on firing order. Collection
    // may fan out across threads; the batch comes back in the canonical
    // sequential order and firing is sequential, so fresh nulls are
    // assigned deterministically.
    TriggerBatch triggers;
    {
      ScopedTraceSpan collect_span(options, site.collect_span);
      Result<TriggerBatch> collected = collect(dep, search, deadline);
      if (!collected.ok()) return StopOrFail(options, collected.status());
      triggers = std::move(collected).ValueOrDie();
    }
    ScopedTraceSpan fire_span(options, "fire");
    MAPINV_ASSIGN_OR_RETURN(auto conclusion, compile(dep, triggers));
    auto on_added = [&](RelationId relation) {
      if constexpr (!std::is_same_v<Sink, NoRowSink>) {
        // AddRow appends, so the new row's dense ref is the last one.
        sink(dep, relation,
             static_cast<TupleRef>(target->NumRows(relation) - 1));
      }
    };
    // Fires one trigger, then checks the budget. The check follows the
    // whole trigger, so a partial stop never leaves a half-fired conclusion
    // (overshoot is bounded by one trigger's conclusion atoms); a kPartial
    // stop returns false.
    auto fire_one = [&](const Value* row, bool probe) -> Result<bool> {
      MAPINV_RETURN_NOT_OK(FireTrigger(conclusion, row, probe, target,
                                       &scratch, &created, stats, on_added));
      if (created <= options.max_new_facts) return true;
      return StopOrFail(
          options, PhaseExhausted(site.phase,
                                  "exceeded max_new_facts = " +
                                      std::to_string(options.max_new_facts)));
    };
    // Bulk eligibility: the batch dedup pass of AddRows subsumes the
    // satisfaction probe exactly when the conclusion is existential-free (a
    // trigger is satisfied iff firing it adds nothing); an unrestricted
    // chase never probes at all. Either way vector_batch triggers' rows are
    // assembled and appended in one pass per relation, with identical
    // output, chase_steps and null labels.
    const bool restricted = conclusion.restricted();
    const bool bulk = options.vectorized && options.vector_batch > 0 &&
                      (!restricted || !conclusion.has_existentials());
    if (!bulk) {
      if (restricted && triggers.rows > 0) {
        MAPINV_RETURN_NOT_OK(conclusion.PrepareProbe(triggers.vars));
      }
      for (size_t t = 0; t < triggers.rows; ++t) {
        if (Status poll = PollPhaseInterrupt(options, deadline, site.phase);
            !poll.ok()) {
          return StopOrFail(options, poll);
        }
        MAPINV_FAILPOINT(*site.fire);
        MAPINV_ASSIGN_OR_RETURN(const bool go_on,
                                fire_one(triggers.Row(t), restricted));
        if (!go_on) return false;
      }
      continue;
    }
    BulkFireScratch bulk_scratch =
        MakeBulkFireScratch(conclusion, target->schema());
    for (size_t base = 0; base < triggers.rows;
         base += options.vector_batch) {
      const size_t count = std::min(options.vector_batch, triggers.rows - base);
      // Interrupts and failpoints at batch granularity: failure precedes
      // the batch's mutations, so a stop is always a whole-batch prefix.
      if (Status poll = PollPhaseInterrupt(options, deadline, site.phase);
          !poll.ok()) {
        return StopOrFail(options, poll);
      }
      MAPINV_FAILPOINT(*site.fire);
      if (created + count * conclusion.size() > options.max_new_facts) {
        // Near the budget edge, fall back to per-trigger appends so the
        // stopping trigger is exactly the scalar path's. Firing without the
        // probe is equivalent: a satisfied trigger's rows all dedup away,
        // leaving created and chase_steps untouched.
        for (size_t t = base; t < base + count; ++t) {
          MAPINV_ASSIGN_OR_RETURN(const bool go_on,
                                  fire_one(triggers.Row(t), false));
          if (!go_on) return false;
        }
        continue;
      }
      bulk_scratch.BeginBatch(count);
      for (size_t t = 0; t < count; ++t) {
        const Value* row = triggers.Row(base + t);
        conclusion.BeginTrigger();
        for (size_t i = 0; i < conclusion.size(); ++i) {
          MAPINV_RETURN_NOT_OK(conclusion.BuildRow(i, row, &scratch));
          bulk_scratch.Append(bulk_scratch.atom_buf[i],
                              static_cast<uint32_t>(t), scratch.data());
        }
      }
      MAPINV_ASSIGN_OR_RETURN(
          const size_t inserted,
          FlushBulkFire(target, &bulk_scratch,
                        [&](RelationId relation, TupleRef ref, uint32_t) {
                          sink(dep, relation, ref);
                        }));
      created += inserted;
      if (stats != nullptr) {
        stats->bulk_rows_appended.fetch_add(inserted,
                                            std::memory_order_relaxed);
        uint64_t steps = count;
        if (restricted) {
          steps = 0;
          for (uint8_t f : bulk_scratch.fired) steps += f;
        }
        stats->chase_steps.fetch_add(steps, std::memory_order_relaxed);
      }
    }
  }
  return true;
}

}  // namespace chase_internal

/// \brief Chases `source` into `target` over `num_deps` dependencies.
///
///   collect(dep, search, deadline) -> Result<TriggerBatch>
///       the dependency's triggers (`search` reads `source`);
///   compile(dep, triggers) -> Result<Conclusion>
///       its conclusion evaluator (interface at ColumnConclusion);
///   sink(dep, relation, ref)
///       called for every row the chase adds (NoRowSink: nothing).
///
/// Returns true when every trigger fired and false when kPartial
/// degradation stopped the chase at a whole-trigger boundary (the target
/// then holds the chase of a trigger-list prefix — a sound
/// under-approximation). Arena and resident footprints are observed on
/// success.
template <typename Collect, typename Compile, typename Sink>
Result<bool> RunChase(const ChaseSite& site, size_t num_deps,
                      const Instance& source, Instance* target,
                      const ExecutionOptions& options, Collect&& collect,
                      Compile&& compile, Sink&& sink) {
  Result<bool> complete = chase_internal::FireAll(
      site, num_deps, source, target, options, collect, compile, sink);
  if (complete.ok() && options.stats != nullptr) {
    options.stats->ObserveArenaBytes(target->ArenaBytes());
    options.stats->ObserveResidentBytes(target->ResidentBytes());
  }
  return complete;
}

/// The observable names and job identity of one world chase.
struct WorldChaseSite {
  /// The trace span around the whole chase, and the phase named by
  /// interrupt and exhaustion errors ("chase_reverse", ...).
  const char* phase;
  /// Binds a checkpoint directory to this variant.
  JobKind job;
  FailPoint* entry;  ///< hit once, on entry
  FailPoint* fire;   ///< hit once per trigger
  FailPoint* fork;   ///< hit once per forked world
};

/// One dependency of a world chase as its variant compiles it: the premise
/// and side constraints its triggers are collected under, and the branch
/// step that applies a trigger to a world (interface at RunWorldChase).
template <typename Step>
struct WorldDependency {
  std::vector<Atom> premise;
  HomConstraints constraints;
  Step step;
};

/// \brief The disjunctive chase of `input` over `num_deps` dependencies:
/// every trigger takes each world of the frontier to one world per
/// surviving branch.
///
///   mapping                               its ToString() fingerprints a job
///   ops                                   the world type and its operations
///     Worlds::World                         a world of the frontier
///     ops.Fork(world) -> World              a branch's copy of the world
///     ops.Save(world) -> std::string        its checkpoint image
///     ops.Load(image) -> Result<World>      the image read back
///   seed                                  the one world the chase starts from
///   compile(dep, front, symbols) -> Result<WorldDependency<Step>>
///       the dependency's premise, constraints and branch step, compiled
///       against the frontier's first world;
///   finish(worlds, symbols) -> Result<std::vector<Instance>>
///       the final frontier as instances, after the final commit.
///
/// The step, per trigger row:
///   step.Branches(row) -> size_t          the trigger's branches, once per
///                                         trigger (0 drops every world)
///   step.Satisfied(world, row) -> Result<bool>
///                                         the world already satisfies the
///                                         trigger and is kept unchanged
///   step.Apply(branch, row, &world, &created) -> Result<bool>
///                                         applies the branch, counting new
///                                         facts in `created`; false means
///                                         inconsistent, dropping the world
///
/// Budgets are checked after the whole trigger, so a partial stop never
/// leaves a world with a half-applied trigger: under kPartial the returned
/// worlds are exactly the chase of a trigger-list prefix, overshooting a
/// cap by at most one trigger's fan-out. An empty result means every world
/// was dropped.
///
/// With options.checkpoint_dir the run is a durable job (src/job/job.h):
/// the frontier commits every checkpoint_every triggers, at trigger
/// boundaries where no world is half-applied, with a cursor on the next
/// trigger; `options.resume` restores the frontier, the cursor, the facts
/// created and the null watermark, and continues.
template <typename Mapping, typename Worlds, typename Compile,
          typename Finish>
Result<std::vector<Instance>> RunWorldChase(
    const WorldChaseSite& site, const Mapping& mapping, size_t num_deps,
    const Instance& input, const ExecutionOptions& options, Worlds& ops,
    typename Worlds::World seed, Compile&& compile, Finish&& finish) {
  using World = typename Worlds::World;
  ScopedTraceSpan span(options, site.phase);
  MAPINV_FAILPOINT(*site.entry);
  ExecDeadline entry_deadline(options.deadline_ms);
  const ExecDeadline& deadline = CarriedDeadline(options, entry_deadline);
  SymbolContext& symbols = ResolveSymbols(options, input);
  ExecStats* const stats = options.stats;
  HomSearch search(input);
  search.set_stats(stats);
  std::vector<World> worlds;
  worlds.push_back(std::move(seed));
  size_t created = 0;
  // Checkpointed-job state. The fingerprint binds the job directory to
  // these exact inputs; the cursor names the first unprocessed (dependency,
  // trigger) pair. World images are a pure function of logical content,
  // which, together with the restored null watermark, makes a killed and
  // resumed run byte-identical to an uninterrupted one.
  std::optional<JobCheckpointer> job;
  size_t resume_dep = 0;
  uint64_t resume_trigger = 0;
  bool restored_complete = false;
  if (!options.checkpoint_dir.empty()) {
    const uint64_t fingerprint = JobFingerprint(
        site.job, mapping.ToString(), input.ToString(), options.oblivious);
    MAPINV_ASSIGN_OR_RETURN(
        JobCheckpointer opened,
        JobCheckpointer::Open(options.checkpoint_dir, site.job, fingerprint,
                              options.resume));
    job.emplace(std::move(opened));
    if (job->resumed().has_value()) {
      const JobResumeState& state = *job->resumed();
      worlds.clear();
      for (const std::string& image : state.world_images) {
        MAPINV_ASSIGN_OR_RETURN(World world, ops.Load(image));
        worlds.push_back(std::move(world));
      }
      created = static_cast<size_t>(state.manifest.created);
      resume_dep = state.manifest.dep_index;
      resume_trigger = state.manifest.trigger_index;
      restored_complete = state.manifest.complete;
      // Fresh nulls must continue exactly where the killed run left off, or
      // the facts fired after the cursor would mint labels differing from
      // the uninterrupted run's.
      if (state.manifest.null_watermark > 0) {
        symbols.BumpNullPast(
            static_cast<uint32_t>(state.manifest.null_watermark - 1));
      }
      if (stats != nullptr) {
        stats->worlds_resumed.fetch_add(state.world_images.size(),
                                        std::memory_order_relaxed);
      }
      // An empty frontier is only ever committed complete (every world was
      // dropped); honour it rather than chase from nothing.
      if (worlds.empty()) return std::vector<Instance>{};
    }
  }
  const size_t checkpoint_every = options.checkpoint_every == 0
                                      ? kDefaultCheckpointEvery
                                      : options.checkpoint_every;
  size_t since_commit = 0;
  auto commit = [&](size_t dep, uint64_t trigger, bool complete) -> Status {
    if (!job.has_value()) return Status::OK();
    std::vector<std::string> images;
    images.reserve(worlds.size());
    for (const World& world : worlds) images.push_back(ops.Save(world));
    JobManifest manifest;
    manifest.complete = complete;
    manifest.dep_index = static_cast<uint32_t>(dep);
    manifest.trigger_index = trigger;
    manifest.created = created;
    manifest.null_watermark = symbols.NullWatermark();
    since_commit = 0;
    return job->Commit(std::move(manifest), images, stats);
  };
  // The frontier under construction, reused across triggers: each world
  // moves into its last branch and forks for the others.
  std::vector<World> next;
  bool cut_short = false;
  // A resumed run re-enters the loop at the checkpointed cursor; a completed
  // checkpoint skips it entirely (the restored worlds are the answer).
  for (size_t dep = restored_complete ? num_deps : resume_dep;
       dep < num_deps && !cut_short; ++dep) {
    MAPINV_ASSIGN_OR_RETURN(auto compiled,
                            compile(dep, worlds.front(), symbols));
    auto& step = compiled.step;
    TriggerBatch triggers;
    {
      ScopedTraceSpan collect_span(options, "collect_triggers");
      Result<TriggerBatch> collected =
          CollectTriggers(search, input, compiled.premise,
                          compiled.constraints, options, deadline);
      if (!collected.ok()) {
        if (DegradeToPartial(options, collected.status())) break;
        return collected.status();
      }
      triggers = std::move(collected).ValueOrDie();
    }
    ScopedTraceSpan fire_span(options, "fire");
    // Trigger collection is deterministic for a fixed input, so the resumed
    // run's trigger list matches the killed run's and the cursor index is
    // meaningful across processes.
    for (size_t t = dep == resume_dep ? static_cast<size_t>(resume_trigger) : 0;
         t < triggers.rows; ++t) {
      if (Status poll = PollPhaseInterrupt(options, deadline, site.phase);
          !poll.ok()) {
        if (!DegradeToPartial(options, poll)) return poll;
        cut_short = true;
        break;
      }
      MAPINV_FAILPOINT(*site.fire);
      const Value* row = triggers.Row(t);
      if (stats != nullptr) {
        stats->chase_steps.fetch_add(1, std::memory_order_relaxed);
      }
      const size_t branches = step.Branches(row);
      next.clear();
      for (size_t w = 0; branches > 0 && w < worlds.size(); ++w) {
        World& world = worlds[w];
        MAPINV_ASSIGN_OR_RETURN(const bool satisfied,
                                step.Satisfied(world, row));
        if (satisfied) {
          next.push_back(std::move(world));
          continue;
        }
        for (size_t b = 0; b < branches; ++b) {
          const bool last = b + 1 == branches;
          if (!last) {
            MAPINV_FAILPOINT(*site.fork);
            if (stats != nullptr) {
              stats->worlds_forked.fetch_add(1, std::memory_order_relaxed);
            }
          }
          next.push_back(last ? std::move(world) : ops.Fork(world));
          MAPINV_ASSIGN_OR_RETURN(const bool consistent,
                                  step.Apply(b, row, &next.back(), &created));
          if (!consistent) next.pop_back();
        }
      }
      worlds.swap(next);
      if (worlds.empty()) {
        MAPINV_RETURN_NOT_OK(commit(dep, t + 1, true));
        return std::vector<Instance>{};
      }
      Status exhausted;
      if (created > options.max_new_facts) {
        exhausted = PhaseExhausted(site.phase,
                                   "exceeded max_new_facts = " +
                                       std::to_string(options.max_new_facts));
      } else if (worlds.size() > options.max_worlds) {
        exhausted = PhaseExhausted(site.phase,
                                   "exceeded max_worlds = " +
                                       std::to_string(options.max_worlds));
      }
      if (!exhausted.ok()) {
        if (!DegradeToPartial(options, exhausted)) return exhausted;
        cut_short = true;
        break;
      }
      if (job.has_value() && ++since_commit >= checkpoint_every) {
        MAPINV_RETURN_NOT_OK(commit(dep, t + 1, false));
      }
    }
  }
  // The final commit marks the job complete, before `finish` mints any
  // null: a resume of a finished job reloads these worlds, chases nothing
  // and finishes from the same watermark. A cut-short result commits as
  // complete too, so resuming reproduces the same sound prefix.
  if (!restored_complete) {
    MAPINV_RETURN_NOT_OK(commit(num_deps, 0, true));
  }
  MAPINV_ASSIGN_OR_RETURN(std::vector<Instance> out,
                          finish(std::move(worlds), symbols));
  if (stats != nullptr) {
    uint64_t bytes = 0;
    uint64_t resident = 0;
    for (const Instance& world : out) {
      bytes += world.ArenaBytes();
      resident += world.ResidentBytes();
    }
    stats->ObserveArenaBytes(bytes);
    stats->ObserveResidentBytes(resident);
  }
  return out;
}

}  // namespace mapinv

#endif  // MAPINV_CHASE_CHASE_DRIVER_H_

#include "chase/chase_reverse.h"

#include <algorithm>
#include <string>
#include <utility>

#include "base/symbol_context.h"
#include "chase/chase_driver.h"
#include "chase/round_trip.h"
#include "engine/failpoint.h"

namespace mapinv {

namespace {

FailPoint fp_reverse_entry("chase_reverse/entry");
FailPoint fp_reverse_fire("chase_reverse/fire");
FailPoint fp_reverse_fork("chase_reverse/world_fork");

const WorldChaseSite kReverseSite{"chase_reverse", JobKind::kReverseWorlds,
                                  &fp_reverse_entry, &fp_reverse_fire,
                                  &fp_reverse_fork};

// Per-disjunct execution state, compiled once per dependency and shared by
// every world and every trigger:
//   * equal_cols — the conclusion equalities as trigger-column pairs
//     (equality endpoints are premise variables by validation),
//   * probe — the satisfaction check with the disjunct's premise-bound
//     variables fixed (compiled once, run on any world: probes are
//     instance-independent); a ground disjunct's probe is a dedup lookup
//     per atom; absent in the oblivious chase,
//   * fire  — the conclusion atoms, column-compiled; the remaining disjunct
//     variables get fresh nulls in first-occurrence order when firing.
struct DisjunctExec {
  std::vector<std::pair<size_t, size_t>> equal_cols;
  SatisfactionProbe probe;
  ColumnConclusion fire;
};

size_t ColumnOf(const std::vector<VarId>& trigger_vars, VarId v) {
  return static_cast<size_t>(
      std::lower_bound(trigger_vars.begin(), trigger_vars.end(), v) -
      trigger_vars.begin());
}

Result<DisjunctExec> CompileDisjunct(const ReverseDisjunct& disjunct,
                                     const std::vector<VarId>& trigger_vars,
                                     const Instance& seed_world,
                                     ExecStats* stats,
                                     const Schema& target_schema,
                                     bool oblivious, SymbolContext& symbols,
                                     std::vector<Value>* fresh) {
  std::vector<std::pair<size_t, size_t>> equal_cols;
  for (const VarPair& eq : disjunct.equalities) {
    equal_cols.emplace_back(ColumnOf(trigger_vars, eq.first),
                            ColumnOf(trigger_vars, eq.second));
  }
  std::vector<VarId> shared_vars;
  std::vector<VarId> ex_vars;
  for (VarId v : CollectDistinctVars(disjunct.atoms)) {
    if (std::binary_search(trigger_vars.begin(), trigger_vars.end(), v)) {
      shared_vars.push_back(v);
    } else {
      ex_vars.push_back(v);
    }
  }
  SatisfactionProbe probe;
  if (!oblivious) {
    MAPINV_ASSIGN_OR_RETURN(
        probe, SatisfactionProbe::Compile(seed_world, stats, disjunct.atoms,
                                          std::move(shared_vars),
                                          trigger_vars));
  }
  MAPINV_ASSIGN_OR_RETURN(
      std::vector<FireAtomCols> atoms,
      CompileFireAtomsCols(disjunct.atoms, target_schema, ex_vars,
                           trigger_vars));
  return DisjunctExec{
      std::move(equal_cols), std::move(probe),
      ColumnConclusion(std::move(atoms), ex_vars.size(), symbols, fresh)};
}

// A reverse dependency's branch step (interface at RunWorldChase): a
// trigger's branches are the disjuncts whose equalities it satisfies; a
// world where one of them already holds is kept as it is; applying a branch
// fires its conclusion into the world.
class ReverseStep {
 public:
  ReverseStep(std::vector<DisjunctExec> disjuncts, bool oblivious,
              ExecStats* stats)
      : disjuncts_(std::move(disjuncts)), oblivious_(oblivious),
        stats_(stats) {}

  size_t Branches(const Value* row) {
    applicable_.clear();
    for (size_t di = 0; di < disjuncts_.size(); ++di) {
      const auto& cols = disjuncts_[di].equal_cols;
      if (std::all_of(cols.begin(), cols.end(), [&](const auto& eq) {
            return row[eq.first] == row[eq.second];
          })) {
        applicable_.push_back(di);
      }
    }
    // A lone ground disjunct needs no probe: it holds iff each of its rows
    // is already a fact, and AddRow skips exactly those, so firing it
    // leaves a satisfied world (and `created`) untouched.
    probe_ = !oblivious_ &&
             !(applicable_.size() == 1 &&
               disjuncts_[applicable_.front()].probe.is_ground());
    return applicable_.size();
  }

  Result<bool> Satisfied(const Instance& world, const Value* row) {
    if (!probe_) return false;
    for (size_t di : applicable_) {
      MAPINV_ASSIGN_OR_RETURN(
          const bool holds,
          disjuncts_[di].probe.Holds(world, stats_, row, &probe_values_));
      if (holds) return true;
    }
    return false;
  }

  Result<bool> Apply(size_t branch, const Value* row, Instance* world,
                     size_t* created) {
    MAPINV_RETURN_NOT_OK(FireTrigger(disjuncts_[applicable_[branch]].fire, row,
                                     /*probe=*/false, world, &scratch_,
                                     created, /*stats=*/nullptr,
                                     [](RelationId) {}));
    return true;
  }

 private:
  std::vector<DisjunctExec> disjuncts_;
  bool oblivious_;
  ExecStats* stats_;
  std::vector<size_t> applicable_;  // this trigger's branches
  bool probe_ = false;              // whether this trigger probes
  std::vector<Value> scratch_;
  std::vector<Value> probe_values_;
};

// Reverse worlds are instances: a fork is a copy-on-write snapshot that
// shares every relation store with its parent until one of them writes, so
// linear lineages never copy tuples and branching copies only the relations
// a branch actually extends. They checkpoint through the MAPINVSN snapshot
// codec.
struct InstanceWorlds {
  using World = Instance;
  static Instance Fork(const Instance& world) { return world.Fork(); }
  static std::string Save(const Instance& world) {
    return world.SaveToBytes();
  }
  static Result<Instance> Load(const std::string& image) {
    return Instance::LoadFromBytes(image.data(), image.size());
  }
};

}  // namespace

Result<std::vector<Instance>> ChaseReverseWorlds(const ReverseMapping& mapping,
                                                 const Instance& input,
                                                 const ExecutionOptions& options) {
  if (!mapping.source->DisjointFrom(*mapping.target)) {
    return Status::Unsupported(
        "reverse chase requires disjoint premise/conclusion schemas");
  }
  InstanceWorlds ops;
  std::vector<Value> fresh;  // one firing's fresh nulls, shared by disjuncts
  return RunWorldChase(
      kReverseSite, mapping, mapping.deps.size(), input, options, ops,
      Instance(mapping.target),
      [&](size_t i, const Instance& front, SymbolContext& symbols)
          -> Result<WorldDependency<ReverseStep>> {
        // Compiled once per dependency: satisfaction plans and fire
        // programs are shared across all worlds and triggers (plans are
        // instance-independent, and every world has the same schema).
        const ReverseDependency& dep = mapping.deps[i];
        HomConstraints constraints;
        constraints.constant_vars.insert(dep.constant_vars.begin(),
                                         dep.constant_vars.end());
        constraints.inequalities = dep.inequalities;
        std::vector<VarId> trigger_vars = CollectDistinctVars(dep.premise);
        std::sort(trigger_vars.begin(), trigger_vars.end());
        std::vector<DisjunctExec> disjuncts;
        disjuncts.reserve(dep.disjuncts.size());
        for (const ReverseDisjunct& d : dep.disjuncts) {
          MAPINV_ASSIGN_OR_RETURN(
              DisjunctExec exec,
              CompileDisjunct(d, trigger_vars, front, options.stats,
                              *mapping.target, options.oblivious, symbols,
                              &fresh));
          disjuncts.push_back(std::move(exec));
        }
        return WorldDependency<ReverseStep>{
            dep.premise, std::move(constraints),
            ReverseStep(std::move(disjuncts), options.oblivious,
                        options.stats)};
      },
      [](std::vector<Instance> worlds, SymbolContext&)
          -> Result<std::vector<Instance>> { return worlds; });
}

Result<Instance> ChaseReverse(const ReverseMapping& mapping,
                              const Instance& input,
                              const ExecutionOptions& options) {
  for (const ReverseDependency& dep : mapping.deps) {
    if (dep.disjuncts.size() != 1) {
      return Status::Unsupported(
          "one-world reverse chase requires disjunction-free dependencies; "
          "use ChaseReverseWorlds");
    }
  }
  MAPINV_ASSIGN_OR_RETURN(std::vector<Instance> worlds,
                          ChaseReverseWorlds(mapping, input, options));
  if (worlds.empty()) {
    return Status::Malformed(
        "reverse dependencies are unsatisfiable on the given input "
        "(a conclusion equality failed for every trigger disjunct)");
  }
  return std::move(worlds.front());
}

Result<AnswerSet> CertainAnswersReverse(const ReverseMapping& mapping,
                                        const Instance& input,
                                        const ConjunctiveQuery& query,
                                        const ExecutionOptions& options) {
  MAPINV_ASSIGN_OR_RETURN(std::vector<Instance> worlds,
                          ChaseReverseWorlds(mapping, input, options));
  return CertainOverWorlds(worlds, query, options.stats);
}

}  // namespace mapinv

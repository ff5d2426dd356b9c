#include "chase/chase_tgd.h"

#include <vector>

#include "chase/chase_driver.h"
#include "engine/failpoint.h"
#include "engine/trace.h"
#include "eval/hom.h"

namespace mapinv {

namespace {
FailPoint fp_chase_entry("chase_tgds/entry");
FailPoint fp_chase_fire("chase_tgds/fire");
}  // namespace

Result<Instance> ChaseTgds(const TgdMapping& mapping, const Instance& source,
                           const ExecutionOptions& options) {
  ScopedTraceSpan span(options, "chase_tgds");
  MAPINV_FAILPOINT(fp_chase_entry);
  SymbolContext& symbols = ResolveSymbols(options, source);
  Instance target(mapping.target);
  if (options.memory_budget_bytes > 0) {
    target.SetMemoryBudget(options.memory_budget_bytes, options.spill_dir,
                           options.stats);
  }
  std::vector<Value> fresh;  // per-firing nulls, one per existential var
  // A kPartial stop leaves the chase of a trigger-list prefix in `target`.
  MAPINV_RETURN_NOT_OK(
      RunChase(
          ChaseSite{"chase_tgds", "collect_triggers", &fp_chase_fire},
          mapping.tgds.size(), source, &target, options,
          [&](size_t i, const HomSearch& search,
              const ExecDeadline& deadline) {
            return CollectTriggers(search, source, mapping.tgds[i].premise,
                                   HomConstraints{}, options, deadline);
          },
          [&](size_t i, const TriggerBatch& triggers) {
            return TgdConclusion::Compile(mapping.tgds[i], triggers, target,
                                          options.stats, symbols, &fresh,
                                          options.oblivious);
          },
          NoRowSink{})
          .status());
  return target;
}

Result<AnswerSet> CertainAnswersTgd(const TgdMapping& mapping,
                                    const Instance& source,
                                    const ConjunctiveQuery& target_query,
                                    const ExecutionOptions& options) {
  MAPINV_ASSIGN_OR_RETURN(Instance canonical,
                          ChaseTgds(mapping, source, options));
  MAPINV_ASSIGN_OR_RETURN(AnswerSet answers,
                          EvaluateCq(target_query, canonical, options.stats));
  return answers.CertainOnly();
}

}  // namespace mapinv

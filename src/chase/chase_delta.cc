#include "chase/chase_delta.h"

#include <vector>

#include "chase/chase_driver.h"
#include "engine/failpoint.h"
#include "engine/trace.h"
#include "eval/hom.h"

namespace mapinv {

namespace {
FailPoint fp_delta_entry("chase_delta/entry");
FailPoint fp_delta_fire("chase_delta/fire");
}  // namespace

Result<bool> ChaseDelta(const TgdMapping& mapping, const Instance& source,
                        const DeltaWatermark& base, Instance* target,
                        ChaseProvenance* provenance,
                        const ExecutionOptions& options) {
  ScopedTraceSpan span(options, "chase_delta");
  MAPINV_FAILPOINT(fp_delta_entry);
  // The fresh-null scope must clear the appended source rows *and* the nulls
  // the base chase already placed in the target: an engine-scoped context
  // that restarted at zero would otherwise mint labels colliding with the
  // maintained solution it is extending.
  SymbolContext& symbols = ResolveSymbols(options, source);
  if (options.symbols != nullptr) {
    target->ForEachFact([&](RelationId, RowView row) {
      for (const Value& v : row) {
        if (v.is_null()) options.symbols->BumpNullPast(v.id());
      }
    });
  }
  if (options.memory_budget_bytes > 0) {
    target->SetMemoryBudget(options.memory_budget_bytes, options.spill_dir,
                            options.stats);
  }
  std::vector<Value> fresh;  // per-firing nulls, one per existential var
  // Delta triggers only: premise homomorphisms whose image touches at least
  // one row appended past `base`. Firing cannot create new ones
  // (conclusions land in the target; premises read the source), so one pass
  // per tgd is complete, exactly as in the full chase. Degradation is the
  // full chase's, with one extra obligation: an incomplete absorption is
  // reported (RunChase's false), because a caller that advanced its
  // watermark over a half-fired delta would lose the unfired triggers.
  return RunChase(
      ChaseSite{"chase_delta", "collect_triggers_delta", &fp_delta_fire},
      mapping.tgds.size(), source, target, options,
      [&](size_t i, const HomSearch& search, const ExecDeadline& deadline) {
        return CollectTriggersDelta(search, source, mapping.tgds[i].premise,
                                    HomConstraints{}, base, options,
                                    deadline);
      },
      [&](size_t i, const TriggerBatch& triggers) {
        return TgdConclusion::Compile(mapping.tgds[i], triggers, *target,
                                      options.stats, symbols, &fresh,
                                      options.oblivious);
      },
      [&](size_t i, RelationId relation, TupleRef ref) {
        if (provenance != nullptr) {
          provenance->Record(relation, ref, static_cast<uint32_t>(i));
        }
      });
}

}  // namespace mapinv

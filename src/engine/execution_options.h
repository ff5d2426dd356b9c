/// \file execution_options.h
/// \brief The unified execution API: ResourceLimits, ExecStats, ExecDeadline
/// and ExecutionOptions.
///
/// Every operation the paper defines — data exchange (§2), certain-answer
/// rewriting (§4.1), the inversion pipeline (§4), PolySOInverse (§5) and the
/// round-trip checks — used to take its own ad-hoc `*Options` struct, each
/// duplicating a subset of the limit knobs. They are all replaced by one
/// ExecutionOptions, which combines:
///
///   * ResourceLimits — every limit knob in one place, shared by all layers;
///   * parallelism    — `threads` plus an optional ThreadPool to run on;
///   * a deadline     — wall-clock budget resolved once at pipeline entry
///                      and polled by every chase, rewrite and inversion
///                      loop (see ExecDeadline);
///   * a stats sink   — ExecStats counting chase steps, homomorphism
///                      backtracks and eval-cache traffic;
///   * a trace sink   — a Tracer recording a per-phase span tree (see
///                      engine/trace.h);
///   * a SymbolContext — engine-scoped fresh-null/fresh-variable generation,
///                      making output reproducible run-to-run.
///
/// ExecutionOptions inherits ResourceLimits, so the historical field names
/// (`options.max_new_facts`, `options.max_worlds`, ...) keep working at
/// every call site.

#ifndef MAPINV_ENGINE_EXECUTION_OPTIONS_H_
#define MAPINV_ENGINE_EXECUTION_OPTIONS_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "base/status.h"

namespace mapinv {

class SymbolContext;
class ThreadPool;
class EvalCache;
class Tracer;

/// \brief Every resource limit of the library in one struct. Each knob turns
/// a potential runaway into a clean kResourceExhausted error; the defaults
/// match the historical per-struct defaults.
struct ResourceLimits {
  /// Maximum number of facts any chase may create.
  size_t max_new_facts = 4u << 20;
  /// Maximum number of worlds a disjunctive chase may track.
  size_t max_worlds = 4096;
  /// Maximum number of (pre-minimisation) disjuncts a rewriting may produce,
  /// and the cap on the conjunctive-product size EliminateDisjunctions may
  /// materialise.
  size_t max_disjuncts = 1u << 20;
  /// Maximum number of rules an SO-tgd composition, a partition expansion
  /// (EliminateEqualities) or PolySOInverse may emit.
  size_t max_rules = 1u << 16;
  /// Maximum frontier width for the partition expansion — the widest allowed
  /// frontier (12 variables) already expands into Bell(12) ≈ 4.2e6
  /// partitions; width 13 would mean Bell(13) ≈ 2.8e7.
  size_t max_frontier_width = 12;
  /// Wall-clock budget in milliseconds, measured from pipeline entry;
  /// 0 means unlimited. The entry point resolves it into one ExecDeadline
  /// that every stage shares (see ExecutionOptions::deadline), and every
  /// chase, rewrite and inversion loop polls it (amortised — see
  /// ExecDeadline::Expired), so a composite call like Engine::Invert is
  /// bounded end to end, not per stage.
  int64_t deadline_ms = 0;
};

/// \brief Every ExecStats counter, declared once as X(name, kind), in the
/// order every renderer emits them (--stats, --stats-json, the trace tree,
/// the serve `metrics` verb). `kind` says how two observations combine: Sum
/// adds, Max keeps the larger (a high-water mark).
///
///   chase_steps             triggers fired by chase engines (a skipped
///                           satisfied trigger does not count)
///   hom_searches            homomorphism enumerations started
///   hom_backtracks          candidate tuples rejected during homomorphism
///                           search (the backtrack count of the hot loop)
///   hom_plans_compiled      join plans compiled by HomSearch (plan-table
///                           misses; a high ratio to hom_searches means
///                           rules are not being reused)
///   hom_bucket_candidates   candidate tuples drawn from index buckets (or
///                           full scans) by the compiled executor;
///                           candidates - backtracks = accepted extensions
///   hom_slot_bindings       variable slots written by the compiled
///                           executor's bind ops
///   cache_hits/_misses      EvalCache traffic attributable to this
///                           execution, counted at the lookups themselves so
///                           concurrent executions never cross-attribute
///   tuples_arena_bytes      high-water mark of Instance::ArenaBytes() seen
///                           by chase engines at completion (flat tuple
///                           payload; indexes and dedup excluded), so
///                           re-running a stage reports the same footprint
///   index_catchup_rows      rows incorporated into instance-owned indexes
///                           by lazy catch-up (Instance::IndexFor); each row
///                           is indexed once per store
///   vector_blocks_scanned   candidate blocks pushed through the vectorized
///                           executor's micro-op pipeline (eval/vector_plan.h)
///   vector_rows_scanned     candidate rows entering vectorized blocks (the
///                           counterpart of hom_bucket_candidates)
///   vector_rows_selected    rows surviving a block's whole op pipeline;
///                           selected / scanned is the selection density
///   bulk_rows_appended      rows newly inserted through the bulk
///                           Instance::AddRows fire path
///   worlds_forked           copy-on-write world forks taken by the
///                           disjunctive chases (reverse and SO-inverse)
///   segments_spilled        storage segments evicted to the spill file under
///                           a memory budget (evicted twice counts twice)
///   segments_faulted        spilled segments faulted back to heap by a read
///   arena_resident_bytes    high-water mark of Instance::ResidentBytes() —
///                           the heap-resident part of tuples_arena_bytes,
///                           the quantity memory_budget_bytes bounds
///   vector_plan_fallbacks   vectorized executions routed to the scalar
///                           interpreter because the plan exceeded
///                           ExecutionOptions::vector_max_plan_steps
///   segment_faultin_retries spill-file reads retried after a transient I/O
///                           failure (see Segment::FaultIn)
///   jobs_checkpointed       durable job checkpoints committed by
///                           checkpointed world enumeration (src/job/job.h)
///   worlds_resumed          worlds restored from checkpoint snapshots
///                           instead of being re-derived
///   checkpoint_bytes        bytes of checkpoint state written durably
#define MAPINV_EXEC_STATS_COUNTERS(X) \
  X(chase_steps, Sum)                 \
  X(hom_searches, Sum)                \
  X(hom_backtracks, Sum)              \
  X(hom_plans_compiled, Sum)          \
  X(hom_bucket_candidates, Sum)       \
  X(hom_slot_bindings, Sum)           \
  X(cache_hits, Sum)                  \
  X(cache_misses, Sum)                \
  X(tuples_arena_bytes, Max)          \
  X(index_catchup_rows, Sum)          \
  X(vector_blocks_scanned, Sum)       \
  X(vector_rows_scanned, Sum)         \
  X(vector_rows_selected, Sum)        \
  X(bulk_rows_appended, Sum)          \
  X(worlds_forked, Sum)               \
  X(segments_spilled, Sum)            \
  X(segments_faulted, Sum)            \
  X(arena_resident_bytes, Max)        \
  X(vector_plan_fallbacks, Sum)       \
  X(segment_faultin_retries, Sum)     \
  X(jobs_checkpointed, Sum)           \
  X(worlds_resumed, Sum)              \
  X(checkpoint_bytes, Sum)

/// \brief Plain (non-atomic) copy of ExecStats counters — the unit traded
/// between ExecStats and the trace layer.
struct ExecStatsSnapshot {
  /// True if the producing execution degraded to a partial result (see
  /// ExecutionOptions::on_exhausted). Boolean, not a counter: the trace
  /// layer ORs it across spans instead of summing.
  bool partial = false;
#define MAPINV_STATS_FIELD(name, kind) uint64_t name = 0;
  MAPINV_EXEC_STATS_COUNTERS(MAPINV_STATS_FIELD)
#undef MAPINV_STATS_FIELD

  /// Folds another observation in by each counter's kind (`partial` ORs).
  void Merge(const ExecStatsSnapshot& other) {
#define MAPINV_STATS_MERGE_Sum(name) name += other.name;
#define MAPINV_STATS_MERGE_Max(name) \
  if (other.name > name) name = other.name;
#define MAPINV_STATS_MERGE(name, kind) MAPINV_STATS_MERGE_##kind(name)
    MAPINV_EXEC_STATS_COUNTERS(MAPINV_STATS_MERGE)
#undef MAPINV_STATS_MERGE
#undef MAPINV_STATS_MERGE_Max
#undef MAPINV_STATS_MERGE_Sum
    partial = partial || other.partial;
  }
};

/// \brief Counters an execution can stream into (pass `&stats` via
/// ExecutionOptions::stats), one per MAPINV_EXEC_STATS_COUNTERS entry. All
/// atomics: one sink may be shared by concurrent workers and by several
/// sequential operations.
struct ExecStats {
#define MAPINV_STATS_FIELD(name, kind) std::atomic<uint64_t> name{0};
  MAPINV_EXEC_STATS_COUNTERS(MAPINV_STATS_FIELD)
#undef MAPINV_STATS_FIELD
  /// Set when an execution running with on_exhausted == kPartial hit a
  /// deadline/limit/cancellation and returned the best sound result so far
  /// instead of failing. Sticky across operations sharing the sink until
  /// Reset() — "something in this pipeline was cut short".
  std::atomic<bool> partial{false};

  /// Raises a high-water-mark counter to `value` (monotonic max).
  static void ObserveMax(std::atomic<uint64_t>& counter, uint64_t value) {
    uint64_t seen = counter.load(std::memory_order_relaxed);
    while (seen < value && !counter.compare_exchange_weak(
                               seen, value, std::memory_order_relaxed)) {
    }
  }

  void ObserveArenaBytes(uint64_t bytes) {
    ObserveMax(tuples_arena_bytes, bytes);
  }
  void ObserveResidentBytes(uint64_t bytes) {
    ObserveMax(arena_resident_bytes, bytes);
  }

  /// Folds a snapshot in by each counter's kind (`partial` ORs).
  void Merge(const ExecStatsSnapshot& s) {
#define MAPINV_STATS_MERGE_Sum(name) \
  name.fetch_add(s.name, std::memory_order_relaxed);
#define MAPINV_STATS_MERGE_Max(name) ObserveMax(name, s.name);
#define MAPINV_STATS_MERGE(name, kind) MAPINV_STATS_MERGE_##kind(name)
    MAPINV_EXEC_STATS_COUNTERS(MAPINV_STATS_MERGE)
#undef MAPINV_STATS_MERGE
#undef MAPINV_STATS_MERGE_Max
#undef MAPINV_STATS_MERGE_Sum
    if (s.partial) partial.store(true, std::memory_order_relaxed);
  }

  void Reset() {
#define MAPINV_STATS_RESET(name, kind) name = 0;
    MAPINV_EXEC_STATS_COUNTERS(MAPINV_STATS_RESET)
#undef MAPINV_STATS_RESET
    partial = false;
  }

  ExecStatsSnapshot Snapshot() const {
    ExecStatsSnapshot s;
#define MAPINV_STATS_LOAD(name, kind) \
  s.name = name.load(std::memory_order_relaxed);
    MAPINV_EXEC_STATS_COUNTERS(MAPINV_STATS_LOAD)
#undef MAPINV_STATS_LOAD
    s.partial = partial.load(std::memory_order_relaxed);
    return s;
  }

  /// "chase_steps=N hom_searches=N ... partial=false".
  std::string ToString() const {
    std::string out;
#define MAPINV_STATS_TEXT(name, kind) \
  out += #name "=" + std::to_string(name.load()) + " ";
    MAPINV_EXEC_STATS_COUNTERS(MAPINV_STATS_TEXT)
#undef MAPINV_STATS_TEXT
    return out + "partial=" + (partial.load() ? "true" : "false");
  }
};

/// \brief Resolved wall-clock deadline, computed once at pipeline entry and
/// carried (by pointer, via ExecutionOptions::deadline) through every stage
/// so the budget is shared, not restarted per stage.
///
/// Expired() is cheap enough for per-trigger/per-disjunct hot loops: it
/// reads the clock on the first call and then once every kCheckInterval
/// calls (a relaxed atomic counter otherwise), and once expired it stays
/// expired without further clock reads. Thread-safe: CollectTriggers workers
/// poll one shared deadline.
class ExecDeadline {
 public:
  /// Calls between real clock reads. Bounds the overshoot to
  /// kCheckInterval - 1 loop iterations after the budget elapses.
  static constexpr uint32_t kCheckInterval = 64;

  explicit ExecDeadline(int64_t deadline_ms) {
    if (deadline_ms > 0) {
      at_ = std::chrono::steady_clock::now() +
            std::chrono::milliseconds(deadline_ms);
    }
  }

  ExecDeadline(const ExecDeadline& other) : at_(other.at_) {
    expired_.store(other.expired_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
  }
  ExecDeadline& operator=(const ExecDeadline&) = delete;

  /// Amortised check for hot loops; may lag the wall clock by up to
  /// kCheckInterval - 1 calls.
  bool Expired() const {
    if (!at_.has_value()) return false;
    if (expired_.load(std::memory_order_relaxed)) return true;
    if (tick_.fetch_add(1, std::memory_order_relaxed) % kCheckInterval != 0) {
      return false;
    }
    return ExpiredNow();
  }

  /// Precise check: always reads the clock (unless already known expired).
  bool ExpiredNow() const {
    if (!at_.has_value()) return false;
    if (expired_.load(std::memory_order_relaxed)) return true;
    if (std::chrono::steady_clock::now() >= *at_) {
      expired_.store(true, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

 private:
  std::optional<std::chrono::steady_clock::time_point> at_;
  mutable std::atomic<uint32_t> tick_{0};
  mutable std::atomic<bool> expired_{false};
};

/// \brief Cooperative cancellation flag shared between a running pipeline
/// and a concurrent controller thread.
///
/// The controller calls Cancel(); the pipeline polls Cancelled() at the same
/// sites that poll the deadline and unwinds with kCancelled naming the phase
/// it was in (see PhaseCancelled in engine/trace.h). Cancellation is
/// level-triggered and sticky: once set it stays set until Reset(), so a
/// token belongs to one run (Engine::ResetCancel re-arms between runs).
///
/// A poll is a single relaxed atomic load — cheaper than the deadline's
/// amortised tick (whose 1-in-64 discipline exists to avoid *clock reads*,
/// not atomic ops), so cancellation polls are not themselves amortised.
class CancelToken {
 public:
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool Cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }
  void Reset() { cancelled_.store(false, std::memory_order_relaxed); }

 private:
  std::atomic<bool> cancelled_{false};
};

/// \brief What an execution does when a deadline, resource limit or
/// cancellation strikes mid-run.
enum class OnExhausted {
  /// Fail the whole operation with kResourceExhausted / kCancelled
  /// (historical behaviour; the default).
  kFail,
  /// Return the best *sound* result completed so far, tagged
  /// ExecStats.partial = true. Each procedure degrades only at granularities
  /// that preserve its soundness contract — see docs/ROBUSTNESS.md. Errors
  /// other than exhaustion/cancellation (kInternal, kMalformed, ...) still
  /// fail: partial mode never masks bugs.
  kPartial,
};

/// \brief Options accepted by the chase, rewrite, inversion and round-trip
/// entry points. Inherits every ResourceLimits knob; adds execution policy.
struct ExecutionOptions : ResourceLimits {
  /// If true, fire every trigger without checking whether the conclusion is
  /// already satisfied (the *oblivious* / naive chase). The oblivious chase
  /// gives the canonical instance used for data-exchange equivalence tests;
  /// the standard chase (false) gives smaller universal solutions.
  bool oblivious = false;
  /// Drop rewriting disjuncts subsumed by other disjuncts (containment
  /// test). Chase engines ignore this.
  bool minimize = true;
  /// Degree of parallelism for trigger enumeration in ChaseTgds/ChaseSOTgd.
  /// 1 means sequential. Output is bit-identical for every thread count.
  int threads = 1;
  /// Batch-at-a-time execution: trigger enumeration runs the compiled plan's
  /// check/bind micro-ops over selection vectors of arena blocks, and the
  /// fire loops append whole batches through Instance::AddRows (see
  /// eval/vector_plan.h and docs/ENGINE.md). Output is bit-identical to the
  /// scalar path for every batch size and thread count; the scalar path
  /// (false) is retained as the differential oracle. Stats counters may
  /// differ between the two paths (each path counts into its own counters).
  bool vectorized = true;
  /// Rows per scan/expansion block of the vectorized executor and triggers
  /// per bulk-fire batch. Values below 1 are treated as 1.
  size_t vector_batch = 1024;
  /// Compiled plans longer than this many steps run on the scalar
  /// interpreter even when `vectorized` is set (the vectorized executor's
  /// per-step level state is sized for typical rule bodies; see
  /// eval/vector_plan.h). Each such routing bumps
  /// ExecStats::vector_plan_fallbacks. 0 forces the scalar path for every
  /// plan.
  size_t vector_max_plan_steps = 32;
  /// Memory budget for chase *target* instances, in bytes of heap-resident
  /// tuple payload (Instance::ResidentBytes); 0 means unlimited. When a
  /// mutation finds the instance over budget, cold sealed storage segments
  /// are evicted to a spill file and faulted back on access — output is
  /// bit-identical to an unconstrained run. See docs/STORAGE.md.
  uint64_t memory_budget_bytes = 0;
  /// Directory for the (immediately unlinked) spill file; empty means
  /// $TMPDIR or /tmp.
  std::string spill_dir;
  /// Durable job directory for checkpointed world enumeration
  /// (ChaseReverseWorlds / ChaseSOInverseWorlds and the round trips built on
  /// them). Empty (the default) disables checkpointing. When set, the
  /// enumeration commits its frontier — per-world snapshots plus a journaled
  /// manifest, each via write-temp-fsync-rename — every `checkpoint_every`
  /// triggers, so a killed process can resume to the byte-identical world
  /// set. See docs/JOBS.md.
  std::string checkpoint_dir;
  /// Triggers processed between checkpoint commits; 0 picks the default
  /// (kDefaultCheckpointEvery = 64). Only meaningful with checkpoint_dir.
  size_t checkpoint_every = 0;
  /// Resume from the newest valid checkpoint in checkpoint_dir instead of
  /// starting fresh. An empty or absent job directory starts fresh; a
  /// directory whose every manifest is corrupt is a clean error. Without
  /// `resume`, a checkpoint_dir that already holds a manifest is refused
  /// (kInvalidArgument) so an old job is never silently clobbered.
  bool resume = false;
  /// Stats sink; nullptr disables counting.
  ExecStats* stats = nullptr;
  /// Fresh-symbol scope; nullptr means the process-global context
  /// (historical behaviour). Supplying a fresh context makes null labels
  /// restart from zero, so identical runs produce identical instances.
  SymbolContext* symbols = nullptr;
  /// Pool to run parallel sections on; nullptr makes `threads > 1` use the
  /// lazily created process-shared pool. Engines inject their own.
  ThreadPool* pool = nullptr;
  /// The deadline resolved by an enclosing pipeline stage. Entry points
  /// construct their own ExecDeadline from `deadline_ms` only when this is
  /// null, so a composite operation (Invert, RoundTrip) measures one budget
  /// for all its stages. Use CarriedDeadline() to resolve.
  const ExecDeadline* deadline = nullptr;
  /// Trace sink recording a per-phase span tree (engine/trace.h); nullptr
  /// disables tracing. Spans are opened/closed only on the pipeline control
  /// thread, never inside parallel sections.
  Tracer* trace = nullptr;
  /// Cooperative cancellation token, polled at the same sites as the
  /// deadline; nullptr disables cancellation. Cancellation wins over a
  /// simultaneously expired deadline (the more specific cause).
  const CancelToken* cancel = nullptr;
  /// Degradation policy on deadline/limit/cancellation exhaustion.
  OnExhausted on_exhausted = OnExhausted::kFail;
};

/// \brief True if `options` carries a token that has been cancelled.
inline bool CancelRequested(const ExecutionOptions& options) {
  return options.cancel != nullptr && options.cancel->Cancelled();
}

/// \brief True if `status` is an exhaustion-class error that kPartial mode
/// may degrade into a partial result. Anything else (kInternal, kMalformed,
/// injected faults, ...) must keep failing.
inline bool IsExhaustion(const Status& status) {
  return status.code() == StatusCode::kResourceExhausted ||
         status.code() == StatusCode::kCancelled;
}

/// \brief Records that the result being returned is partial.
inline void MarkPartial(const ExecutionOptions& options) {
  if (options.stats != nullptr) {
    options.stats->partial.store(true, std::memory_order_relaxed);
  }
}

/// \brief Degradation decision for an exhaustion-class `status`: true means
/// "stop here and return the sound prefix" (and the partial flag has been
/// recorded); false means the caller must propagate the error.
inline bool DegradeToPartial(const ExecutionOptions& options,
                             const Status& status) {
  if (options.on_exhausted != OnExhausted::kPartial || !IsExhaustion(status)) {
    return false;
  }
  MarkPartial(options);
  return true;
}

/// \brief Entry-point helper: the deadline carried by `options` if an
/// enclosing stage resolved one, else `fallback` (which the caller
/// constructs locally from `options.deadline_ms`).
inline const ExecDeadline& CarriedDeadline(const ExecutionOptions& options,
                                           const ExecDeadline& fallback) {
  return options.deadline != nullptr ? *options.deadline : fallback;
}

}  // namespace mapinv

#endif  // MAPINV_ENGINE_EXECUTION_OPTIONS_H_

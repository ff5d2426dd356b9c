/// \file fire_plan.h
/// \brief Precompiled conclusion atoms for the chase fire loops.
///
/// A conclusion is compiled once per dependency: relations resolve to
/// RelationIds up front, and every term is classified as constant /
/// premise-bound variable (a column of the TriggerBatch row) / existential
/// (by index into the dependency's existential-variable list). The fire
/// loop then assembles rows into a reused scratch buffer and appends them
/// with Instance::AddRow — no strings, no hash maps, no per-tuple
/// allocation. BulkFireScratch buffers a whole batch of assembled
/// conclusion rows per relation so the chase appends them with one
/// Instance::AddRows dedup pass per relation per batch — the bulk fire path
/// behind ExecutionOptions::vectorized (see chase/chase_driver.h).

#ifndef MAPINV_CHASE_FIRE_PLAN_H_
#define MAPINV_CHASE_FIRE_PLAN_H_

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "base/status.h"
#include "data/instance.h"
#include "logic/atom.h"

namespace mapinv {

/// One compiled conclusion term: bound variables resolve to a column of the
/// trigger row.
struct FireTermCol {
  enum class Kind { kConstant, kBound, kExistential } kind;
  Value constant;    // kConstant
  uint32_t col = 0;  // kBound: column index into the trigger row
  uint32_t ex = 0;   // kExistential: index into the per-firing fresh nulls
};

/// One compiled conclusion atom, column-indexed.
struct FireAtomCols {
  RelationId relation;
  std::vector<FireTermCol> terms;
};

/// Compiles `atoms` against `schema` with bound variables resolved to
/// columns of `trigger_vars` (the TriggerBatch column order: sorted
/// ascending). Variables in `existential_vars` become kExistential terms;
/// every other variable must be a trigger column.
inline Result<std::vector<FireAtomCols>> CompileFireAtomsCols(
    const std::vector<Atom>& atoms, const Schema& schema,
    const std::vector<VarId>& existential_vars,
    const std::vector<VarId>& trigger_vars) {
  std::unordered_map<VarId, uint32_t> ex_index;
  for (uint32_t i = 0; i < existential_vars.size(); ++i) {
    ex_index.emplace(existential_vars[i], i);
  }
  std::vector<FireAtomCols> out;
  out.reserve(atoms.size());
  for (const Atom& atom : atoms) {
    FireAtomCols fa;
    MAPINV_ASSIGN_OR_RETURN(fa.relation,
                            schema.Require(RelationText(atom.relation)));
    fa.terms.reserve(atom.terms.size());
    for (const Term& term : atom.terms) {
      FireTermCol ft;
      if (term.is_constant()) {
        ft.kind = FireTermCol::Kind::kConstant;
        ft.constant = term.value();
      } else {
        auto it = ex_index.find(term.var());
        if (it != ex_index.end()) {
          ft.kind = FireTermCol::Kind::kExistential;
          ft.ex = it->second;
        } else {
          const auto col = std::lower_bound(trigger_vars.begin(),
                                            trigger_vars.end(), term.var());
          if (col == trigger_vars.end() || *col != term.var()) {
            return Status::Internal("conclusion variable v" +
                                    std::to_string(term.var()) +
                                    " is neither existential nor a premise "
                                    "variable");
          }
          ft.kind = FireTermCol::Kind::kBound;
          ft.col = static_cast<uint32_t>(col - trigger_vars.begin());
        }
      }
      fa.terms.push_back(ft);
    }
    out.push_back(std::move(fa));
  }
  return out;
}

/// Assembles one column-indexed atom's row into `scratch` from a trigger row
/// (in the compile-time column order) and the per-firing fresh nulls
/// (`fresh` may be null when the atom has no existential terms).
inline void BuildFireRowCols(const FireAtomCols& fa, const Value* row,
                             const Value* fresh, std::vector<Value>* scratch) {
  scratch->clear();
  for (const FireTermCol& ft : fa.terms) {
    switch (ft.kind) {
      case FireTermCol::Kind::kConstant:
        scratch->push_back(ft.constant);
        break;
      case FireTermCol::Kind::kBound:
        scratch->push_back(row[ft.col]);
        break;
      case FireTermCol::Kind::kExistential:
        scratch->push_back(fresh[ft.ex]);
        break;
    }
  }
}

/// \brief Per-relation row buffers for batch firing.
///
/// A fire batch assembles every conclusion row of up to vector_batch
/// triggers into these buffers (triggers outer, atoms inner, so each
/// relation receives its rows in exactly the order the per-trigger AddRow
/// loop would produce), then FlushBulkFire appends each buffer with one
/// Instance::AddRows call — a single dedup-probe pass per relation per
/// batch. `fired[t]` is set when trigger `t` contributed at least one
/// genuinely new row; for existential-free dependencies that is exactly
/// "the trigger was unsatisfied", so the bulk path needs no per-trigger
/// satisfaction probe.
struct BulkFireScratch {
  struct RelBuf {
    RelationId relation = 0;
    uint32_t arity = 0;
    std::vector<Value> rows;      ///< row-major pending rows
    std::vector<uint32_t> owner;  ///< pending row -> batch trigger index
    std::vector<uint8_t> added;   ///< AddRows out-flags, reused per flush
  };
  std::vector<RelBuf> bufs;
  /// Conclusion atom index -> index into `bufs` (atoms sharing a relation
  /// share a buffer, preserving per-relation insertion order).
  std::vector<size_t> atom_buf;
  /// Per-trigger "added at least one row" flags for the current batch.
  std::vector<uint8_t> fired;

  void BeginBatch(size_t num_triggers) {
    fired.assign(num_triggers, 0);
    for (RelBuf& b : bufs) {
      b.rows.clear();
      b.owner.clear();
    }
  }

  void Append(size_t buf_index, uint32_t trigger, const Value* row) {
    RelBuf& b = bufs[buf_index];
    b.rows.insert(b.rows.end(), row, row + b.arity);
    b.owner.push_back(trigger);
  }
};

/// Builds the per-relation buffers for a conclusion evaluator's atoms (one
/// buffer per distinct relation, in first-appearance order; see
/// ColumnConclusion in chase/chase_driver.h for the interface).
template <typename Conclusion>
BulkFireScratch MakeBulkFireScratch(const Conclusion& conclusion,
                                    const Schema& schema) {
  BulkFireScratch s;
  s.atom_buf.reserve(conclusion.size());
  for (size_t i = 0; i < conclusion.size(); ++i) {
    const RelationId rel = conclusion.relation(i);
    size_t b = 0;
    for (; b < s.bufs.size(); ++b) {
      if (s.bufs[b].relation == rel) break;
    }
    if (b == s.bufs.size()) {
      BulkFireScratch::RelBuf buf;
      buf.relation = rel;
      buf.arity = schema.arity(rel);
      s.bufs.push_back(std::move(buf));
    }
    s.atom_buf.push_back(b);
  }
  return s;
}

/// Appends every buffered row into `target` (one AddRows per relation, with
/// a capacity hint), marks `s->fired` for owning triggers of added rows, and
/// invokes `on_added(relation, ref, trigger)` for each genuinely new row —
/// the k-th added row of a relation lands at ref (NumRows - inserted + k),
/// since AddRows appends densely. Returns the number of rows added.
template <typename OnAdded>
inline Result<size_t> FlushBulkFire(Instance* target, BulkFireScratch* s,
                                    OnAdded&& on_added) {
  size_t created = 0;
  for (BulkFireScratch::RelBuf& b : s->bufs) {
    const size_t count = b.owner.size();
    if (count == 0) continue;
    target->Reserve(b.relation, count);
    MAPINV_ASSIGN_OR_RETURN(
        size_t inserted,
        target->AddRows(b.relation, b.rows.data(), count, &b.added));
    created += inserted;
    size_t ref = target->NumRows(b.relation) - inserted;
    for (size_t i = 0; i < count; ++i) {
      if (!b.added[i]) continue;
      s->fired[b.owner[i]] = 1;
      on_added(b.relation, static_cast<TupleRef>(ref), b.owner[i]);
      ++ref;
    }
  }
  return created;
}

}  // namespace mapinv

#endif  // MAPINV_CHASE_FIRE_PLAN_H_

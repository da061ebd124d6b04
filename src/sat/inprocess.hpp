/// \file inprocess.hpp
/// \brief Inprocessing passes for the CDCL solver.
///
/// Runs between restarts, at decision level 0, over the solver's own
/// clause arena: SCC-based equivalent-literal substitution on the binary
/// implication graph, subsumption and self-subsumption strengthening,
/// and clause vivification. Every pass is proof-sound: each derived
/// clause it keeps is emitted to the solver's ProofTracer as a RUP lemma
/// *before* the clauses that justify it are deleted, so the existing
/// check::DratChecker certifies inprocessed UNSAT answers unchanged. See DESIGN.md section 15 for the per-pass
/// DRAT obligations and the model-reconstruction rules.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sat/arena.hpp"
#include "sat/solver.hpp"
#include "sat/types.hpp"

namespace simgen::sat {

/// Per-run tallies, reported through the kSolverInprocess journal
/// milestone and folded into the "sat.inprocess.*" counters.
struct InprocessRunTally {
  std::uint64_t deleted_clauses = 0;
  std::uint64_t strengthened_clauses = 0;  ///< Self-subsumption.
  std::uint64_t vivified_clauses = 0;
  std::uint64_t substituted_vars = 0;
};

/// One inprocessing run over a Solver at decision level 0. Constructed,
/// run once, and discarded by Solver::maybe_inprocess; all state it
/// mutates lives in the solver (it is a friend).
class Inprocessor {
 public:
  explicit Inprocessor(Solver& solver) : s_(solver) {}

  /// Runs the configured passes. Returns false when the clause set was
  /// refuted outright (the empty clause has been emitted to the proof
  /// and the solver's ok_ flag cleared).
  [[nodiscard]] bool run();

  [[nodiscard]] const InprocessRunTally& tally() const noexcept {
    return tally_;
  }

 private:
  using LBool = Solver::LBool;

  enum class Install : std::uint8_t {
    kSatisfied,  ///< True at level 0: nothing emitted or stored.
    kInstalled,  ///< Stored as a clause (ref via out parameter).
    kUnit,       ///< Became a unit: enqueued, propagation pending.
    kRefuted,    ///< Became empty: proof closed, solver unsatisfiable.
  };

  /// Unit-propagates to fixpoint at level 0; on conflict emits the empty
  /// lemma and clears ok_. Returns false exactly then.
  bool propagate_units();
  /// Emits \p lits as a RUP lemma and installs it, after dropping
  /// level-0-false literals. \p lits is clobbered.
  Install install_simplified(std::vector<Lit>& lits, bool learnt,
                             ClauseRef* out);
  /// Replaces \p ref with \p lits (lemma first, then deletion), keeping
  /// the learnt flag. Returns the new ref through \p out when installed.
  Install replace_clause(ClauseRef ref, std::vector<Lit>& lits,
                         ClauseRef* out);

  /// Deletes satisfied clauses and strips false literals, both lists.
  bool simplify();
  bool simplify_list(std::vector<ClauseRef>& list);
  /// Equivalent-literal substitution over binary-implication SCCs.
  bool scc_substitute();
  /// Subsumption + self-subsumption over the occurrence lists.
  bool subsume();
  /// Clause vivification (assume negations, shorten on early conflict).
  bool vivify();

  void build_occurrences();
  void add_occurrences(ClauseRef ref);
  [[nodiscard]] std::uint64_t signature(ClauseRef ref) const;

  Solver& s_;
  InprocessRunTally tally_;

  // Occurrence index over problem clauses, by literal code; stale
  // entries (garbage refs) are skipped on read. sigs_ caches the
  // 64-bit literal-set signature used to prefilter subsumption.
  std::vector<std::vector<ClauseRef>> occs_;
  std::unordered_map<ClauseRef, std::uint64_t> sigs_;

  // Subset-test scratch: mark_[lit.code] == stamp_ iff the literal is in
  // the candidate subsuming clause.
  std::vector<std::uint32_t> mark_;
  std::uint32_t stamp_ = 0;

  std::vector<bool> in_assumptions_;  // per var
  std::vector<Lit> scratch_;
  std::vector<Lit> scratch2_;
};

}  // namespace simgen::sat

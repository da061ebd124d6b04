#include "sat/inprocess.hpp"

#include <algorithm>
#include <cassert>
#include <unordered_set>

#include "sat/proof.hpp"

namespace simgen::sat {

bool Inprocessor::propagate_units() {
  if (!s_.ok_) return false;
  if (s_.propagate() != kInvalidClauseRef) {
    if (s_.proof_) s_.proof_->on_lemma({});
    s_.ok_ = false;
    return false;
  }
  return true;
}

Inprocessor::Install Inprocessor::install_simplified(std::vector<Lit>& lits,
                                                     bool learnt,
                                                     ClauseRef* out) {
  // Drop literals false at level 0 (the proof has their negations as
  // units, so the filtered clause is still RUP whenever the input was);
  // a true literal makes the clause redundant outright.
  std::size_t kept = 0;
  for (const Lit lit : lits) {
    const LBool v = s_.value(lit);
    if (v == LBool::kTrue) return Install::kSatisfied;
    if (v == LBool::kUndef) lits[kept++] = lit;
  }
  lits.resize(kept);
  if (s_.proof_) s_.proof_->on_lemma(lits);
  if (lits.empty()) {
    s_.ok_ = false;
    return Install::kRefuted;
  }
  if (lits.size() == 1) {
    s_.enqueue(lits[0], kInvalidClauseRef);
    return Install::kUnit;
  }
  const ClauseRef ref = s_.install_clause(lits, learnt);
  if (out) *out = ref;
  return Install::kInstalled;
}

Inprocessor::Install Inprocessor::replace_clause(ClauseRef ref,
                                                 std::vector<Lit>& lits,
                                                 ClauseRef* out) {
  const bool learnt = s_.arena_.learnt(ref);
  // Lemma before deletion: the checker verifies the replacement against
  // a database that still holds the original.
  const Install result = install_simplified(lits, learnt, out);
  if (result == Install::kSatisfied) {
    // Nothing was emitted; the original is simply redundant now.
    s_.delete_clause(ref);
    ++tally_.deleted_clauses;
    return result;
  }
  s_.delete_clause(ref);
  return result;
}

bool Inprocessor::simplify() {
  if (!propagate_units()) return false;
  return simplify_list(s_.problem_clauses_) && simplify_list(s_.learnt_clauses_);
}

bool Inprocessor::simplify_list(std::vector<ClauseRef>& list) {
  for (std::size_t i = 0; i < list.size(); ++i) {
    const ClauseRef ref = list[i];
    if (s_.arena_.garbage(ref)) continue;
    const std::uint32_t size = s_.arena_.size(ref);
    bool satisfied = false;
    scratch_.clear();
    for (std::uint32_t k = 0; k < size && !satisfied; ++k) {
      const Lit lit = s_.arena_.lit(ref, k);
      const LBool v = s_.value(lit);
      if (v == LBool::kTrue) satisfied = true;
      else if (v == LBool::kUndef) scratch_.push_back(lit);
    }
    if (satisfied) {
      s_.delete_clause(ref);
      ++tally_.deleted_clauses;
      continue;
    }
    if (scratch_.size() == size) continue;
    // A replacement is appended to the list by install_clause; the old
    // slot stays as a garbage ref until the next compaction.
    const Install result = replace_clause(ref, scratch_, nullptr);
    if (result == Install::kRefuted) return false;
    if (result == Install::kUnit && !propagate_units()) return false;
  }
  return propagate_units();
}

bool Inprocessor::scc_substitute() {
  const std::size_t num_lits = 2 * s_.num_vars();
  constexpr std::uint32_t kUnseen = ~std::uint32_t{0};

  // Iterative Tarjan over the binary implication graph: node = literal
  // code, edge u -> w.other for every binary watcher of u. After
  // simplify() every binary clause has both literals unassigned.
  std::vector<std::uint32_t> index(num_lits, kUnseen);
  std::vector<std::uint32_t> low(num_lits, 0);
  std::vector<std::uint32_t> comp(num_lits, kUnseen);
  std::vector<std::uint32_t> scc_stack;
  std::vector<bool> on_stack(num_lits, false);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> call;  // node, edge
  std::uint32_t next_index = 0;
  std::uint32_t comp_count = 0;
  std::vector<std::vector<std::uint32_t>> members;

  const auto active = [&](std::uint32_t code) {
    return s_.assigns_[Lit::from_code(code).var()] == LBool::kUndef;
  };

  for (std::uint32_t root = 0; root < num_lits; ++root) {
    if (index[root] != kUnseen || !active(root)) continue;
    call.emplace_back(root, 0);
    while (!call.empty()) {
      const std::uint32_t u = call.back().first;
      if (call.back().second == 0) {
        index[u] = low[u] = next_index++;
        scc_stack.push_back(u);
        on_stack[u] = true;
      }
      const auto& edges = s_.bin_watches_[u];
      if (call.back().second < edges.size()) {
        const std::uint32_t w = edges[call.back().second++].other.code();
        if (!active(w)) continue;
        if (index[w] == kUnseen) {
          call.emplace_back(w, 0);
        } else if (on_stack[w]) {
          low[u] = std::min(low[u], index[w]);
        }
        continue;
      }
      if (low[u] == index[u]) {
        std::vector<std::uint32_t> scc;
        std::uint32_t w;
        do {
          w = scc_stack.back();
          scc_stack.pop_back();
          on_stack[w] = false;
          comp[w] = comp_count;
          scc.push_back(w);
        } while (w != u);
        ++comp_count;
        if (scc.size() > 1) members.push_back(std::move(scc));
      }
      call.pop_back();
      if (!call.empty())
        low[call.back().first] = std::min(low[call.back().first], low[u]);
    }
  }

  if (members.empty()) return true;

  // Substitution map, literal code -> literal code (identity default).
  std::vector<std::uint32_t> lit_map(num_lits);
  for (std::uint32_t code = 0; code < num_lits; ++code) lit_map[code] = code;
  bool any_substituted = false;
  // The canonical binaries installed below map to tautologies under
  // lit_map; the rewrite pass must leave them alone.
  std::unordered_set<ClauseRef> canonical;

  for (const auto& scc : members) {
    // A literal and its negation in one SCC refute the formula: both
    // units are RUP over the implication chains, then the empty clause.
    for (const std::uint32_t code : scc) {
      if (comp[code ^ 1u] == comp[code]) {
        const Lit lit = Lit::from_code(code);
        if (s_.proof_) {
          scratch_.assign({lit});
          s_.proof_->on_lemma(scratch_);
          scratch_.assign({~lit});
          s_.proof_->on_lemma(scratch_);
          s_.proof_->on_lemma({});
        }
        s_.ok_ = false;
        return false;
      }
    }
    // Representative: smallest literal code over a var that is not
    // already substituted (one always exists: substitution chains from
    // earlier runs end in an unsubstituted representative, which shares
    // the SCC through its canonical binaries).
    std::uint32_t rep_code = kUnseen;
    for (const std::uint32_t code : scc) {
      if (s_.substituted_[Lit::from_code(code).var()]) continue;
      if (rep_code == kUnseen || code < rep_code) rep_code = code;
    }
    if (rep_code == kUnseen) continue;
    const Lit rep = Lit::from_code(rep_code);
    for (const std::uint32_t code : scc) {
      const Lit lit = Lit::from_code(code);
      const Var var = lit.var();
      if (var == rep.var()) continue;
      if (s_.substituted_[var]) continue;
      if (in_assumptions_[var]) continue;
      // lit == rep from here on. Canonical binaries (~lit | rep) and
      // (lit | ~rep) are RUP over the implication chains inside the SCC;
      // they are kept permanently so the substituted variable stays
      // propagation-consistent with its representative: callers may
      // still assume it or add clauses over it.
      scratch_.assign({~lit, rep});
      if (s_.proof_) s_.proof_->on_lemma(scratch_);
      canonical.insert(s_.install_clause(scratch_, /*learnt=*/false));
      scratch_.assign({lit, ~rep});
      if (s_.proof_) s_.proof_->on_lemma(scratch_);
      canonical.insert(s_.install_clause(scratch_, /*learnt=*/false));

      // pos(var) maps to rep_of_pos. The model needs no rule for var:
      // the canonical binaries assign it from rep at every kSat.
      const Lit rep_of_pos = lit.negated() ? ~rep : rep;
      lit_map[pos(var).code()] = rep_of_pos.code();
      lit_map[neg(var).code()] = (~rep_of_pos).code();
      s_.substituted_[var] = true;
      ++tally_.substituted_vars;
      any_substituted = true;
    }
  }

  if (!any_substituted) return true;

  // Rewrite every clause through the substitution map. Tautological
  // images are plain deletions; everything else is lemma-then-delete
  // (RUP over the original plus the canonical binaries).
  const auto rewrite_list = [&](std::vector<ClauseRef>& list) {
    for (std::size_t i = 0; i < list.size(); ++i) {
      const ClauseRef ref = list[i];
      if (s_.arena_.garbage(ref)) continue;
      if (canonical.contains(ref)) continue;
      const std::uint32_t size = s_.arena_.size(ref);
      bool changed = false;
      scratch_.clear();
      for (std::uint32_t k = 0; k < size; ++k) {
        const Lit lit = s_.arena_.lit(ref, k);
        const std::uint32_t mapped = lit_map[lit.code()];
        changed |= mapped != lit.code();
        scratch_.push_back(Lit::from_code(mapped));
      }
      if (!changed) continue;
      std::sort(scratch_.begin(), scratch_.end(),
                [](Lit a, Lit b) { return a.code() < b.code(); });
      bool tautology = false;
      std::size_t kept = 0;
      for (std::size_t k = 0; k < scratch_.size(); ++k) {
        if (k > 0 && scratch_[k] == scratch_[kept - 1]) continue;
        if (kept > 0 && scratch_[k] == ~scratch_[kept - 1]) {
          tautology = true;
          break;
        }
        scratch_[kept++] = scratch_[k];
      }
      if (tautology) {
        s_.delete_clause(ref);
        ++tally_.deleted_clauses;
        continue;
      }
      scratch_.resize(kept);
      const Install result = replace_clause(ref, scratch_, nullptr);
      if (result == Install::kRefuted) return false;
    }
    return true;
  };
  if (!rewrite_list(s_.problem_clauses_)) return false;
  if (!rewrite_list(s_.learnt_clauses_)) return false;
  return propagate_units();
}

std::uint64_t Inprocessor::signature(ClauseRef ref) const {
  // Hash over VARIABLES, not literals: the filter must keep
  // self-subsumption candidates, which contain the negation of one of
  // C's literals (same variable, opposite polarity).
  std::uint64_t sig = 0;
  const std::uint32_t size = s_.arena_.size(ref);
  for (std::uint32_t k = 0; k < size; ++k)
    sig |= std::uint64_t{1}
           << (static_cast<std::uint32_t>(s_.arena_.lit(ref, k).var()) & 63u);
  return sig;
}

void Inprocessor::add_occurrences(ClauseRef ref) {
  const std::uint32_t size = s_.arena_.size(ref);
  for (std::uint32_t k = 0; k < size; ++k)
    occs_[s_.arena_.lit(ref, k).code()].push_back(ref);
  sigs_[ref] = signature(ref);
}

void Inprocessor::build_occurrences() {
  occs_.assign(2 * s_.num_vars(), {});
  sigs_.clear();
  for (const ClauseRef ref : s_.problem_clauses_) {
    if (s_.arena_.garbage(ref)) continue;
    add_occurrences(ref);
  }
}

bool Inprocessor::subsume() {
  std::uint64_t ticks = 0;
  bool units_pending = false;
  if (mark_.size() < 2 * s_.num_vars()) mark_.resize(2 * s_.num_vars(), 0);

  for (std::size_t ci = 0; ci < s_.problem_clauses_.size(); ++ci) {
    if (ticks >= s_.inprocess_config_.subsume_ticks) break;
    const ClauseRef c = s_.problem_clauses_[ci];
    if (s_.arena_.garbage(c)) continue;
    scratch_.clear();
    s_.arena_.copy_lits(c, scratch_);
    bool skip = false;
    for (const Lit lit : scratch_)
      if (s_.value(lit) != LBool::kUndef) skip = true;
    if (skip) continue;  // left for the next simplify
    ticks += scratch_.size();

    // Mark C's literals, then scan the occurrence lists of its
    // minimal-occurrence literal m (catches every D with C subset of D,
    // and every self-subsumption whose flipped literal is not m) and of
    // ~m (self-subsumptions whose flipped literal is m itself).
    Lit min_lit = scratch_[0];
    for (const Lit lit : scratch_)
      if (occs_[lit.code()].size() < occs_[min_lit.code()].size())
        min_lit = lit;
    ++stamp_;
    for (const Lit lit : scratch_) mark_[lit.code()] = stamp_;
    const std::uint64_t csig = sigs_[c];

    for (const Lit key : {min_lit, ~min_lit}) {
      auto& candidates = occs_[key.code()];
      for (std::size_t di = 0; di < candidates.size(); ++di) {
        const ClauseRef d = candidates[di];
        if (d == c || s_.arena_.garbage(d)) continue;
        const std::uint32_t dsize = s_.arena_.size(d);
        if (dsize < scratch_.size()) continue;
        if ((csig & ~sigs_[d]) != 0) continue;
        ticks += dsize;
        std::size_t matched = 0;
        Lit flipped{};  // literal of C whose negation is in D
        unsigned flips = 0;
        for (std::uint32_t k = 0; k < dsize; ++k) {
          const Lit q = s_.arena_.lit(d, k);
          if (mark_[q.code()] == stamp_) {
            ++matched;
          } else if (mark_[(~q).code()] == stamp_) {
            flipped = ~q;
            ++flips;
          }
        }
        if (matched == scratch_.size() && key == min_lit) {
          // C subsumes D: free deletion.
          s_.delete_clause(d);
          ++tally_.deleted_clauses;
          continue;
        }
        if (matched + 1 == scratch_.size() && flips == 1) {
          // Self-subsumption: resolving C and D on `flipped` yields
          // D minus ~flipped, which strictly strengthens D.
          scratch2_.clear();
          for (std::uint32_t k = 0; k < dsize; ++k) {
            const Lit q = s_.arena_.lit(d, k);
            if (q != ~flipped) scratch2_.push_back(q);
          }
          ClauseRef replacement = kInvalidClauseRef;
          const Install result = replace_clause(d, scratch2_, &replacement);
          if (result == Install::kRefuted) return false;
          if (result == Install::kInstalled) add_occurrences(replacement);
          if (result == Install::kUnit) units_pending = true;
          ++tally_.strengthened_clauses;
          // D may have carried C's marks; the marks describe C, which is
          // untouched, so the scan continues safely.
        }
      }
    }
  }
  if (units_pending) {
    if (!simplify()) return false;
    build_occurrences();
  }
  return propagate_units();
}

bool Inprocessor::vivify() {
  std::uint64_t ticks = 0;
  for (std::size_t ci = 0; ci < s_.problem_clauses_.size(); ++ci) {
    if (ticks >= s_.inprocess_config_.vivify_ticks) break;
    const ClauseRef ref = s_.problem_clauses_[ci];
    if (s_.arena_.garbage(ref)) continue;
    if (s_.arena_.size(ref) < 3) continue;
    scratch_.clear();
    s_.arena_.copy_lits(ref, scratch_);
    bool satisfied = false;
    for (const Lit lit : scratch_)
      if (s_.value(lit) == LBool::kTrue) satisfied = true;
    if (satisfied) {
      s_.delete_clause(ref);
      ++tally_.deleted_clauses;
      continue;
    }

    // Assume the negation of each literal in turn; an early conflict, an
    // implied-true literal, or an implied-false literal each shorten the
    // clause. The clause itself must not take part in the propagation,
    // so detach it first.
    s_.detach_clause(ref);
    s_.trail_lim_.push_back(s_.trail_.size());
    const std::size_t trail_before = s_.trail_.size();
    scratch2_.clear();
    bool shortened = false;
    for (const Lit lit : scratch_) {
      const LBool v = s_.value(lit);
      if (v == LBool::kTrue) {
        // The assumed prefix already implies this literal: the clause
        // (prefix-literals or lit) is RUP and shorter.
        scratch2_.push_back(lit);
        shortened = scratch2_.size() < scratch_.size();
        break;
      }
      if (v == LBool::kFalse) {
        // Implied false by the prefix alone: dropping it is RUP (with
        // the original clause still in the checker's database).
        shortened = true;
        continue;
      }
      scratch2_.push_back(lit);
      s_.enqueue(~lit, kInvalidClauseRef);
      if (s_.propagate() != kInvalidClauseRef) {
        // The assumed prefix is contradictory: the prefix clause is RUP.
        shortened = scratch2_.size() < scratch_.size();
        break;
      }
    }
    ticks += s_.trail_.size() - trail_before;
    s_.backtrack(0);

    if (!shortened) {
      s_.attach_clause(ref);
      continue;
    }
    // Manual replace (the clause is currently detached): lemma first,
    // then the deletion of the original.
    const Install result =
        install_simplified(scratch2_, s_.arena_.learnt(ref), nullptr);
    if (s_.proof_) {
      scratch_.clear();
      s_.arena_.copy_lits(ref, scratch_);
      s_.proof_->on_delete(scratch_);
    }
    s_.arena_.free(ref);
    ++tally_.vivified_clauses;
    if (result == Install::kRefuted) return false;
    if (result == Install::kUnit && !propagate_units()) return false;
  }
  return true;
}

bool Inprocessor::run() {
  assert(s_.decision_level() == 0);
  const InprocessConfig& config = s_.inprocess_config_;

  in_assumptions_.assign(s_.num_vars(), false);
  for (const Lit lit : s_.assumptions_) in_assumptions_[lit.var()] = true;

  if (!simplify()) return false;
  if (config.scc && !scc_substitute()) return false;
  if (!simplify()) return false;
  if (config.subsume) {
    build_occurrences();
    if (!subsume()) return false;
    occs_.clear();
    sigs_.clear();
  }
  if (config.vivify && !vivify()) return false;
  if (!simplify()) return false;

  s_.stats_.inprocess_deleted.inc(tally_.deleted_clauses);
  s_.stats_.inprocess_strengthened.inc(tally_.strengthened_clauses);
  s_.stats_.inprocess_vivified.inc(tally_.vivified_clauses);
  s_.stats_.inprocess_substituted.inc(tally_.substituted_vars);
  return true;
}

}  // namespace simgen::sat

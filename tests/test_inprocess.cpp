// Inprocessing tests: differential property suite (solver with vs
// without inprocessing on seeded random CNFs), per-pass toggles, DRAT
// certification of every UNSAT, model checks against the original
// (pre-substitution) clauses, model reconstruction on encoder CNFs, and
// the assumption-prefix memoization contract.
#include "sat/inprocess.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "check/drat.hpp"
#include "network/network.hpp"
#include "sat/encoder.hpp"
#include "sat/solver.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace simgen::sat {
namespace {

struct RandomCnf {
  std::size_t num_vars = 0;
  std::vector<std::vector<Lit>> clauses;
};

/// Small random CNF in the phase-transition-ish density band, with the
/// occasional unit and duplicate literal so normalization paths run too.
RandomCnf random_cnf(util::Rng& rng) {
  RandomCnf cnf;
  cnf.num_vars = rng.in_range(4, 14);
  const std::size_t num_clauses = rng.in_range(cnf.num_vars, 4 * cnf.num_vars);
  for (std::size_t i = 0; i < num_clauses; ++i) {
    const std::size_t width = rng.chance(0.06) ? 1 : rng.in_range(2, 4);
    std::vector<Lit> clause;
    for (std::size_t j = 0; j < width; ++j) {
      const Var var{static_cast<std::uint32_t>(rng.below(cnf.num_vars))};
      clause.push_back(rng.flip() ? pos(var) : neg(var));
    }
    cnf.clauses.push_back(std::move(clause));
  }
  return cnf;
}

void load(Solver& solver, const RandomCnf& cnf) {
  for (std::size_t i = 0; i < cnf.num_vars; ++i) solver.new_var();
  for (const std::vector<Lit>& clause : cnf.clauses) solver.add_clause(clause);
}

/// The model must satisfy the ORIGINAL clauses — not whatever the
/// inprocessed database holds — or model reconstruction is broken.
bool model_satisfies(const Solver& solver, const RandomCnf& cnf) {
  for (const std::vector<Lit>& clause : cnf.clauses) {
    bool satisfied = false;
    for (const Lit lit : clause)
      if (solver.model_value(lit)) {
        satisfied = true;
        break;
      }
    if (!satisfied) return false;
  }
  return true;
}

/// One differential round: reference solver (inprocessing off) vs a
/// solver running \p config before every solve, DRAT-certified. Returns
/// the shared verdict for distribution sanity checks.
Result check_differential(const RandomCnf& cnf, const InprocessConfig& config,
                          std::uint64_t seed) {
  Solver reference;
  InprocessConfig off;
  off.enabled = false;
  reference.set_inprocess_config(off);
  load(reference, cnf);
  const Result expected = reference.solve();

  Solver solver;
  InprocessConfig every_solve = config;
  every_solve.conflict_interval = 0;  // run the passes before every solve
  solver.set_inprocess_config(every_solve);
  check::Certifier certifier(solver);
  load(solver, cnf);
  const Result verdict = solver.solve();

  EXPECT_EQ(verdict, expected) << "seed " << seed;
  if (verdict == Result::kSat) {
    EXPECT_TRUE(model_satisfies(solver, cnf)) << "seed " << seed;
  }
  if (verdict == Result::kUnsat) {
    EXPECT_TRUE(certifier.certify_unsat({})) << "seed " << seed;
  }

  // Second query under assumptions: exercises assumptions over
  // substituted variables, the assumption skip in SCC substitution, and
  // incremental proof certification.
  if (verdict == Result::kSat && !solver.in_conflict()) {
    util::Rng rng(util::splitmix64(seed) ^ 0xa55);
    std::vector<Lit> assumptions;
    const std::size_t count = rng.in_range(1, 3);
    for (std::size_t i = 0; i < count; ++i) {
      const Var var{static_cast<std::uint32_t>(rng.below(cnf.num_vars))};
      assumptions.push_back(rng.flip() ? pos(var) : neg(var));
    }
    const Result expected2 = reference.solve(assumptions);
    const Result verdict2 = solver.solve(assumptions);
    EXPECT_EQ(verdict2, expected2) << "assumption seed " << seed;
    if (verdict2 == Result::kSat) {
      EXPECT_TRUE(model_satisfies(solver, cnf)) << "assumption seed " << seed;
      for (const Lit lit : assumptions)
        EXPECT_TRUE(solver.model_value(lit)) << "assumption seed " << seed;
    }
    if (verdict2 == Result::kUnsat) {
      EXPECT_TRUE(certifier.certify_unsat(assumptions))
          << "assumption seed " << seed;
    }
  }
  return expected;
}

TEST(Inprocess, DifferentialPropertyAllPasses) {
  // The headline property run: 10k seeded CNFs, all passes on, every
  // verdict cross-checked, every model re-checked, every UNSAT certified.
  std::uint64_t sat = 0, unsat = 0;
  for (std::uint64_t seed = 0; seed < 10'000; ++seed) {
    util::Rng rng(util::splitmix64(seed));
    const RandomCnf cnf = random_cnf(rng);
    const Result verdict = check_differential(cnf, InprocessConfig{}, seed);
    (verdict == Result::kSat ? sat : unsat) += 1;
    if (::testing::Test::HasFailure()) break;  // first failing seed is enough
  }
  // The density band must actually exercise both verdicts.
  EXPECT_GT(sat, 100u);
  EXPECT_GT(unsat, 100u);
}

/// Each pass alone, and all-but-that-pass: a differential failure in
/// either direction names the guilty technique.
void run_toggle_suite(bool InprocessConfig::* pass) {
  for (std::uint64_t seed = 0; seed < 800; ++seed) {
    util::Rng rng(util::splitmix64(seed) ^ 0x70661e);
    const RandomCnf cnf = random_cnf(rng);
    InprocessConfig only;
    only.scc = only.subsume = only.vivify = false;
    only.*pass = true;
    check_differential(cnf, only, seed);
    if (::testing::Test::HasFailure()) return;
    InprocessConfig all_but;
    all_but.*pass = false;
    check_differential(cnf, all_but, seed);
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(Inprocess, ToggleScc) { run_toggle_suite(&InprocessConfig::scc); }
TEST(Inprocess, ToggleSubsume) { run_toggle_suite(&InprocessConfig::subsume); }
TEST(Inprocess, ToggleVivify) { run_toggle_suite(&InprocessConfig::vivify); }

TEST(Inprocess, PassesActuallyFire) {
  // The differential suite is vacuous if the passes never trigger; check
  // the counters actually move over the seed range.
  std::uint64_t deleted = 0, strengthened = 0, substituted = 0;
  for (std::uint64_t seed = 0; seed < 300; ++seed) {
    util::Rng rng(util::splitmix64(seed) ^ 0xf17e5);
    const RandomCnf cnf = random_cnf(rng);
    Solver solver;
    InprocessConfig config;
    config.conflict_interval = 0;
    solver.set_inprocess_config(config);
    load(solver, cnf);
    solver.solve();
    deleted += solver.stats().inprocess_deleted.value();
    strengthened += solver.stats().inprocess_strengthened.value();
    substituted += solver.stats().inprocess_substituted.value();
  }
  EXPECT_GT(deleted, 0u);
  EXPECT_GT(strengthened, 0u);
  EXPECT_GT(substituted, 0u);
}

TEST(Inprocess, MemoizedAssumptionPrefixSkipsRepropagation) {
  // Satellite regression: a repeated solve under identical assumptions
  // must not redo the assumption-prefix propagation. The chain makes the
  // single assumption force every variable, so a memoized second call
  // has literally nothing to propagate or decide.
  Solver solver;  // default config: interval 4000 never fires here
  std::vector<Var> vars;
  for (int i = 0; i < 200; ++i) vars.push_back(solver.new_var());
  for (int i = 0; i + 1 < 200; ++i)
    solver.add_clause({neg(vars[i]), pos(vars[i + 1])});
  ASSERT_EQ(solver.solve({pos(vars[0])}), Result::kSat);
  const std::uint64_t propagations = solver.stats().propagations.value();
  const std::uint64_t decisions = solver.stats().decisions.value();
  ASSERT_EQ(solver.solve({pos(vars[0])}), Result::kSat);
  EXPECT_EQ(solver.stats().propagations.value(), propagations)
      << "identical repeated solve repropagated the assumption prefix";
  EXPECT_EQ(solver.stats().decisions.value(), decisions);
  ASSERT_EQ(solver.solve({pos(vars[0])}), Result::kSat);
  EXPECT_EQ(solver.stats().propagations.value(), propagations);
}

TEST(Inprocess, MemoizedPrefixInvalidatedByNewClause) {
  // The memo must not survive database changes: adding a clause that
  // flips the verdict under the same assumptions has to take effect.
  Solver solver;
  const Var x = solver.new_var();
  const Var y = solver.new_var();
  solver.add_clause({neg(x), pos(y)});
  ASSERT_EQ(solver.solve({pos(x)}), Result::kSat);
  EXPECT_TRUE(solver.model_value(y));
  solver.add_clause({neg(x), neg(y)});
  EXPECT_EQ(solver.solve({pos(x)}), Result::kUnsat);
  EXPECT_EQ(solver.solve({neg(x)}), Result::kSat);
}

TEST(Inprocess, SccMergesEquivalentLiterals) {
  // A 3-cycle of implications x -> y -> z -> x is one SCC; substitution
  // must fire and the solutions must stay consistent.
  Solver solver;
  InprocessConfig config;
  config.conflict_interval = 0;
  solver.set_inprocess_config(config);
  const Var x = solver.new_var();
  const Var y = solver.new_var();
  const Var z = solver.new_var();
  const Var w = solver.new_var();
  solver.add_clause({neg(x), pos(y)});
  solver.add_clause({neg(y), pos(z)});
  solver.add_clause({neg(z), pos(x)});
  solver.add_clause({pos(w), pos(x)});  // keep the formula nontrivial
  ASSERT_EQ(solver.solve(), Result::kSat);
  EXPECT_GT(solver.stats().inprocess_substituted.value(), 0u);
  EXPECT_EQ(solver.model_value(x), solver.model_value(y));
  EXPECT_EQ(solver.model_value(y), solver.model_value(z));
  // Pin each phase of the class through a fresh assumption solve.
  ASSERT_EQ(solver.solve({pos(x)}), Result::kSat);
  EXPECT_TRUE(solver.model_value(y));
  EXPECT_TRUE(solver.model_value(z));
  ASSERT_EQ(solver.solve({neg(z)}), Result::kSat);
  EXPECT_FALSE(solver.model_value(x));
  EXPECT_FALSE(solver.model_value(y));
}

TEST(Inprocess, EncoderSubstitutionModelsMatchSimulation) {
  // The production path: SAT sweeping solves CnfEncoder CNFs, and SCC
  // substitution merges their variables. Here an inverter pair re-derives
  // g1, and a duplicate of g1 gets its equality as two binaries, exactly
  // as the sweeper records a proven merge. Every SAT model must still
  // give each encoded node its simulated value on the model's PI values.
  net::Network network;
  const net::NodeId a = network.add_pi();
  const net::NodeId b = network.add_pi();
  const net::NodeId c = network.add_pi();
  const std::array<net::NodeId, 2> ab{a, b};
  const net::NodeId g1 = network.add_lut(ab, tt::TruthTable::and_gate(2));
  const net::NodeId g2 = network.add_lut(ab, tt::TruthTable::and_gate(2));
  const std::array<net::NodeId, 1> f_g1{g1};
  const net::NodeId n1 = network.add_lut(f_g1, tt::TruthTable::not_gate());
  const std::array<net::NodeId, 1> f_n1{n1};
  const net::NodeId n2 = network.add_lut(f_n1, tt::TruthTable::not_gate());
  const std::array<net::NodeId, 2> f_or{n2, c};
  const net::NodeId g3 = network.add_lut(f_or, tt::TruthTable::or_gate(2));
  const std::array<net::NodeId, 2> f_out{g2, g3};
  network.add_po(network.add_lut(f_out, tt::TruthTable::xor_gate(2)));

  Solver solver;
  InprocessConfig config;
  config.conflict_interval = 0;
  solver.set_inprocess_config(config);
  CnfEncoder encoder(network, solver);
  for (const net::NodeId po : network.pos()) encoder.ensure_encoded(po);
  const Var v1 = encoder.var_of(g1);
  const Var v2 = encoder.var_of(g2);
  solver.add_clause({pos(v1), neg(v2)});
  solver.add_clause({neg(v1), pos(v2)});

  sim::Simulator simulator(network);
  const Var vc = encoder.var_of(c);
  const Var vout = encoder.var_of(network.pos()[0]);
  const std::vector<std::vector<Lit>> queries = {
      {}, {pos(vc)}, {neg(vc)}, {pos(vout)}, {neg(vout), neg(vc)},
      {pos(encoder.var_of(n1))}, {neg(encoder.var_of(n2))}};
  for (const std::vector<Lit>& assumptions : queries) {
    ASSERT_EQ(solver.solve(assumptions), Result::kSat);
    std::vector<sim::PatternWord> words;
    for (const bool value : encoder.model_input_vector())
      words.push_back(value ? ~sim::PatternWord{0} : 0);
    simulator.simulate_word(words);
    network.for_each_node([&](net::NodeId node) {
      if (!encoder.is_encoded(node)) return;
      EXPECT_EQ(solver.model_value(encoder.var_of(node)),
                simulator.value_bit(node, 0))
          << "node " << node.value() << ", " << assumptions.size()
          << " assumptions";
    });
  }
  EXPECT_GT(solver.stats().inprocess_substituted.value(), 0u);
}

TEST(Inprocess, ContradictorySccIsUnsatCertified) {
  // x <-> !x via binary implications: the SCC pass must refute outright.
  Solver solver;
  InprocessConfig config;
  config.conflict_interval = 0;
  config.subsume = config.vivify = false;
  solver.set_inprocess_config(config);
  check::Certifier certifier(solver);
  const Var x = solver.new_var();
  solver.add_clause({pos(x), pos(x)});  // degenerate, normalizes to unit
  ASSERT_FALSE(solver.add_clause({neg(x), neg(x)}));
  EXPECT_EQ(solver.solve(), Result::kUnsat);
  EXPECT_TRUE(certifier.certify_unsat({}));

  Solver cyclic;
  cyclic.set_inprocess_config(config);
  check::Certifier cyclic_certifier(cyclic);
  const Var a = cyclic.new_var();
  const Var b = cyclic.new_var();
  cyclic.add_clause({neg(a), pos(b)});
  cyclic.add_clause({neg(b), neg(a)});
  cyclic.add_clause({pos(a), pos(b)});
  cyclic.add_clause({pos(a), neg(b)});
  EXPECT_EQ(cyclic.solve(), Result::kUnsat);
  EXPECT_TRUE(cyclic_certifier.certify_unsat({}));
}

TEST(Inprocess, DisabledConfigRunsNoPasses) {
  Solver solver;
  InprocessConfig config;
  config.enabled = false;
  config.conflict_interval = 0;
  solver.set_inprocess_config(config);
  const Var x = solver.new_var();
  const Var y = solver.new_var();
  solver.add_clause({pos(x), pos(y)});
  solver.add_clause({pos(x), neg(y)});
  ASSERT_EQ(solver.solve(), Result::kSat);
  EXPECT_EQ(solver.stats().inprocess_runs.value(), 0u);
}

}  // namespace
}  // namespace simgen::sat

// SAT sweeping tests: pairwise verdicts, counterexample resimulation,
// full runs to fixpoint, and soundness of every proven pair (verified by
// exhaustive or randomized simulation).
#include "sweep/sweeper.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>

#include "aig/aig_to_network.hpp"
#include "benchgen/generator.hpp"
#include "benchgen/suite.hpp"
#include "mapping/lut_mapper.hpp"
#include "sim/random_sim.hpp"
#include "simgen/guided_sim.hpp"
#include "sweep/cec.hpp"
#include "util/rng.hpp"

namespace simgen::sweep {
namespace {

TEST(Sweeper, ProvesDeMorganPair) {
  // g1 = !(a & b), g2 = !a | !b: equivalent by De Morgan.
  net::Network network;
  const net::NodeId a = network.add_pi();
  const net::NodeId b = network.add_pi();
  const std::array<net::NodeId, 2> f{a, b};
  const net::NodeId g1 = network.add_lut(f, tt::TruthTable::nand_gate(2));
  const net::NodeId g2 = network.add_lut(
      f, ~tt::TruthTable::projection(2, 0) | ~tt::TruthTable::projection(2, 1));
  network.add_po(g1);
  network.add_po(g2);

  Sweeper sweeper(network, SweepOptions{});
  EXPECT_EQ(sweeper.check_pair(g1, g2), sat::Result::kUnsat);
  EXPECT_EQ(sweeper.totals().proven_equivalent, 1u);
  EXPECT_EQ(sweeper.totals().sat_calls, 1u);
}

TEST(Sweeper, DisprovesWithWitness) {
  net::Network network;
  const net::NodeId a = network.add_pi();
  const net::NodeId b = network.add_pi();
  const std::array<net::NodeId, 2> f{a, b};
  const net::NodeId g1 = network.add_lut(f, tt::TruthTable::and_gate(2));
  const net::NodeId g2 = network.add_lut(f, tt::TruthTable::or_gate(2));
  network.add_po(g1);
  network.add_po(g2);

  Sweeper sweeper(network, SweepOptions{});
  ASSERT_EQ(sweeper.check_pair(g1, g2), sat::Result::kSat);
  // The witness must actually distinguish the pair: and != or exactly when
  // inputs differ.
  const std::vector<bool> witness = sweeper.last_model_vector();
  ASSERT_EQ(witness.size(), 2u);
  EXPECT_NE(witness[0], witness[1]);
}

TEST(Sweeper, RunEmptiesAllClasses) {
  benchgen::CircuitSpec spec;
  spec.name = "sweep_run";
  spec.num_pis = 14;
  spec.num_pos = 8;
  spec.num_gates = 250;
  spec.redundancy = 0.10;
  const net::Network network = benchgen::generate_mapped(spec);

  sim::Simulator simulator(network);
  sim::EquivClasses classes = sim::EquivClasses::over_luts(network);
  sim::RandomSimOptions random_options;
  random_options.max_rounds = 4;
  run_random_simulation(simulator, classes, random_options);

  Sweeper sweeper(network, SweepOptions{});
  const SweepResult result = sweeper.run(classes, simulator);
  EXPECT_TRUE(classes.fully_refined());
  EXPECT_EQ(result.sat_calls,
            result.proven_equivalent + result.disproven + result.unresolved);
  EXPECT_EQ(result.unresolved, 0u);
  EXPECT_GE(result.sat_seconds, 0.0);

  // Soundness: every proven pair must agree on thousands of random
  // patterns.
  for (std::uint64_t round = 0; round < 32; ++round) {
    simulator.simulate_random_word(5, round);
    for (const auto& [x, y] : result.proven_pairs)
      ASSERT_EQ(simulator.value(x), simulator.value(y))
          << "proven pair disagrees under simulation";
  }
}

TEST(Sweeper, FindsInjectedRedundancies) {
  // With heavy redundancy injection the sweeper must prove at least one
  // pair equivalent (the generator plants them).
  benchgen::CircuitSpec spec;
  spec.name = "sweep_redundant";
  spec.num_gates = 300;
  spec.redundancy = 0.15;
  const net::Network network = benchgen::generate_mapped(spec);

  sim::Simulator simulator(network);
  sim::EquivClasses classes = sim::EquivClasses::over_luts(network);
  sim::RandomSimOptions random_options;
  random_options.max_rounds = 8;
  run_random_simulation(simulator, classes, random_options);

  Sweeper sweeper(network, SweepOptions{});
  const SweepResult result = sweeper.run(classes, simulator);
  EXPECT_GT(result.proven_equivalent, 0u);
}

TEST(Sweeper, CounterexampleResimulationSplitsClasses) {
  // Two nearly-identical functions that agree except on one minterm: the
  // SAT witness is the only separator, and resimulation must split them.
  net::Network network;
  std::vector<net::NodeId> pis;
  for (int i = 0; i < 6; ++i) pis.push_back(network.add_pi());
  const auto and6 = tt::TruthTable::and_gate(6);
  tt::TruthTable almost = and6;
  almost.set_bit(0, true);  // differs from and6 only on the all-zero input
  const net::NodeId g1 = network.add_lut(pis, and6);
  const net::NodeId g2 = network.add_lut(pis, almost);
  network.add_po(g1);
  network.add_po(g2);

  sim::Simulator simulator(network);
  sim::EquivClasses classes({g1, g2});
  // No random prepass: the all-zeros separating pattern must come from
  // the SAT witness, forcing the resimulation path.
  Sweeper sweeper(network, SweepOptions{});
  const SweepResult result = sweeper.run(classes, simulator);
  EXPECT_TRUE(classes.fully_refined());
  EXPECT_EQ(result.proven_equivalent, 0u);
  EXPECT_GE(result.disproven, 1u);
  EXPECT_GE(result.resimulations, 1u);
}

TEST(Sweeper, ConflictLimitMarksUnresolved) {
  // A deliberately hard miter (xor tree pair) with a 1-conflict budget.
  net::Network network;
  std::vector<net::NodeId> pis;
  for (int i = 0; i < 10; ++i) pis.push_back(network.add_pi());
  // Two structurally different xor trees over the same inputs.
  const auto xor2 = tt::TruthTable::xor_gate(2);
  net::NodeId left = pis[0];
  for (int i = 1; i < 10; ++i) {
    const std::array<net::NodeId, 2> f{left, pis[i]};
    left = network.add_lut(f, xor2);
  }
  net::NodeId right = pis[9];
  for (int i = 8; i >= 0; --i) {
    const std::array<net::NodeId, 2> f{right, pis[i]};
    right = network.add_lut(f, xor2);
  }
  network.add_po(left);
  network.add_po(right);

  SweepOptions options;
  options.conflict_limit = 1;
  Sweeper sweeper(network, options);
  const sat::Result verdict = sweeper.check_pair(left, right);
  // Either the solver is lucky (UNSAT quickly) or it must report kUnknown;
  // with a single conflict allowed on a 10-var xor miter, expect kUnknown.
  EXPECT_EQ(verdict, sat::Result::kUnknown);
  EXPECT_EQ(sweeper.totals().unresolved, 1u);
}

TEST(Sweeper, EqualityClausesAccelerateLaterProofs) {
  // Prove a pair, then a dependent pair; the second proof must not be
  // slower than re-deriving everything (smoke check via call accounting).
  net::Network network;
  const net::NodeId a = network.add_pi();
  const net::NodeId b = network.add_pi();
  const std::array<net::NodeId, 2> f{a, b};
  const net::NodeId g1 = network.add_lut(f, tt::TruthTable::and_gate(2));
  const net::NodeId g2 = network.add_lut(
      f, tt::TruthTable::projection(2, 0) & tt::TruthTable::projection(2, 1));
  const std::array<net::NodeId, 1> fn1{g1};
  const net::NodeId n1 = network.add_lut(fn1, tt::TruthTable::not_gate());
  const std::array<net::NodeId, 1> fn2{g2};
  const net::NodeId n2 = network.add_lut(fn2, tt::TruthTable::not_gate());
  network.add_po(n1);
  network.add_po(n2);

  Sweeper sweeper(network, SweepOptions{});
  EXPECT_EQ(sweeper.check_pair(g1, g2), sat::Result::kUnsat);
  EXPECT_EQ(sweeper.check_pair(n1, n2), sat::Result::kUnsat);
  EXPECT_EQ(sweeper.totals().proven_equivalent, 2u);
}

TEST(Sweeper, WitnessIsHistoryIndependent) {
  // Regression: last_model_vector() used to fill PIs outside the solved
  // cone from a shared member Rng, so a witness's bytes depended on how
  // many draws earlier extractions had consumed — reading the same
  // verdict twice gave two different witnesses, and disproving an
  // unrelated pair first shifted every later witness. The fill stream is
  // now a pure function of (options.seed, salt).
  net::Network network;
  const net::NodeId a = network.add_pi();
  const net::NodeId b = network.add_pi();
  network.add_pi();  // outside the solved cone: exercises the random fill
  network.add_pi();
  const std::array<net::NodeId, 2> fab{a, b};
  const net::NodeId g1 = network.add_lut(fab, tt::TruthTable::and_gate(2));
  const net::NodeId g2 = network.add_lut(fab, tt::TruthTable::or_gate(2));
  network.add_po(g1);
  network.add_po(g2);

  Sweeper sweeper(network, SweepOptions{});
  ASSERT_EQ(sweeper.check_pair(g1, g2), sat::Result::kSat);
  const std::vector<bool> first = sweeper.last_model_vector();
  ASSERT_EQ(first.size(), 4u);
  // Same verdict, same salt: byte-identical on every read (the old code
  // advanced the shared Rng between these two calls).
  EXPECT_EQ(sweeper.last_model_vector(), first);
  // Distinct salts get distinct fill streams but identical cone bits.
  const std::vector<bool> salted = sweeper.last_model_vector(7);
  EXPECT_EQ(salted[0], first[0]);
  EXPECT_EQ(salted[1], first[1]);
  EXPECT_EQ(sweeper.last_model_vector(7), salted);

  // A fresh sweeper that burns an unrelated extraction first must still
  // reproduce the same witness for the same (seed, salt).
  Sweeper warmed(network, SweepOptions{});
  ASSERT_EQ(warmed.check_pair(g1, g2), sat::Result::kSat);
  (void)warmed.last_model_vector(99);  // old code: this shifted the stream
  EXPECT_EQ(warmed.last_model_vector(), first)
      << "witness bytes depend on extraction history";
}

/// Sweeps \p network in Sweeper::run's schedule (shallowest candidate
/// first), rebuilding the solver before every \p period-th call (0 =
/// never). Every counterexample must split the pair it answers.
SweepResult sweep_with_rebuilds(const net::Network& network,
                                std::uint64_t period, bool certify) {
  sim::Simulator simulator(network);
  sim::EquivClasses classes = sim::EquivClasses::over_luts(network);
  sim::RandomSimOptions random_options;
  random_options.max_rounds = 1;
  run_random_simulation(simulator, classes, random_options);

  SweepOptions options;
  options.certify = certify;
  Sweeper sweeper(network, options);
  std::uint64_t calls = 0;
  while (!classes.fully_refined()) {
    net::NodeId representative = net::kNullNode;
    net::NodeId candidate = net::kNullNode;
    for (sim::ClassId c{0}; c < classes.num_classes(); ++c) {
      const auto members = classes.class_members(c);
      if (members[1] < candidate) {
        representative = members[0];
        candidate = members[1];
      }
    }
    if (period > 0 && calls > 0 && calls % period == 0)
      sweeper.rebuild_solver();
    ++calls;
    if (sweeper.check_pair(representative, candidate) != sat::Result::kSat) {
      classes.remove_node(candidate);
      continue;
    }
    const std::vector<bool> witness = sweeper.last_model_vector(calls);
    std::vector<sim::PatternWord> words(witness.begin(), witness.end());
    simulator.simulate_word(words);
    EXPECT_NE(simulator.value_bit(representative, 0),
              simulator.value_bit(candidate, 0))
        << "counterexample for (" << representative << ", " << candidate
        << ") does not split it, period " << period;
    classes.refine(simulator);
  }
  return sweeper.totals();
}

TEST(Sweeper, RebuiltSolversKeepEveryVerdict) {
  // A rebuild drops learned clauses and encoded cones but carries the
  // proven merges as encoder substitutions. Proofs therefore stay
  // proofs, and with no conflict limit the proven set is fixed: each
  // candidate is proven against the smallest member of its true class.
  const benchgen::CircuitSpec* spec = benchgen::find_benchmark("alu4");
  ASSERT_NE(spec, nullptr);
  const aig::Aig graph = benchgen::generate_circuit(*spec);
  const Miter miter =
      make_miter(mapping::map_to_luts(graph), aig::to_network(graph));

  for (const bool certify : {false, true}) {
    SCOPED_TRACE(certify ? "certified" : "uncertified");
    SweepResult reference = sweep_with_rebuilds(miter.network, 0, certify);
    std::sort(reference.proven_pairs.begin(), reference.proven_pairs.end());
    ASSERT_GT(reference.proven_equivalent, 50u);
    ASSERT_GT(reference.disproven, 0u);
    for (const std::uint64_t period : {1u, 7u, 50u}) {
      SCOPED_TRACE("rebuild every " + std::to_string(period) + " calls");
      SweepResult rebuilt = sweep_with_rebuilds(miter.network, period, certify);
      std::sort(rebuilt.proven_pairs.begin(), rebuilt.proven_pairs.end());
      EXPECT_EQ(rebuilt.proven_pairs, reference.proven_pairs);
      EXPECT_EQ(rebuilt.unresolved, reference.unresolved);
      // check_pair throws on an UNSAT that fails DRAT certification.
      EXPECT_EQ(rebuilt.certified_unsat,
                certify ? rebuilt.proven_equivalent : 0u);
    }
  }
}

TEST(Sweeper, EveryStrategyArmIsDeterministicForAFixedSeed) {
  // Differential-fuzzing prerequisite: with a fixed seed, every guided
  // simulation strategy must reach the same verdict with the same work
  // profile on repeat runs — a flaky arm would make fuzz mismatches
  // unreproducible. One fixed seed per arm, two runs, identical stats
  // (timings excluded).
  benchgen::CircuitSpec spec;
  spec.name = "cec_arm_determinism";
  spec.num_pis = 12;
  spec.num_pos = 6;
  spec.num_gates = 220;
  const aig::Aig graph = benchgen::generate_circuit(spec);
  const net::Network mapped = mapping::map_to_luts(graph);
  const net::Network direct = aig::to_network(graph);

  std::uint64_t seed = 1000;
  for (const core::Strategy arm : core::kAllStrategies) {
    SCOPED_TRACE(std::string(core::strategy_name(arm)));
    CecOptions options;
    options.seed = ++seed;  // a distinct fixed seed per arm
    options.guided_strategy = arm;
    const CecResult first = check_equivalence(mapped, direct, options);
    const CecResult second = check_equivalence(mapped, direct, options);
    EXPECT_TRUE(first.equivalent);
    EXPECT_EQ(first.equivalent, second.equivalent);
    EXPECT_EQ(first.counterexample, second.counterexample);
    EXPECT_EQ(first.outputs_proven, second.outputs_proven);
    EXPECT_EQ(first.certified_outputs, second.certified_outputs);
    EXPECT_EQ(first.output_sat_calls, second.output_sat_calls);
    EXPECT_EQ(first.sweep_stats.sat_calls, second.sweep_stats.sat_calls);
    EXPECT_EQ(first.sweep_stats.proven_equivalent,
              second.sweep_stats.proven_equivalent);
    EXPECT_EQ(first.sweep_stats.disproven, second.sweep_stats.disproven);
    EXPECT_EQ(first.sweep_stats.unresolved, second.sweep_stats.unresolved);
    EXPECT_EQ(first.sweep_stats.resimulations, second.sweep_stats.resimulations);
    EXPECT_EQ(first.sweep_stats.proven_pairs, second.sweep_stats.proven_pairs);
  }
}

}  // namespace
}  // namespace simgen::sweep

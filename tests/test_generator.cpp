// PatternGenerator (Algorithm 1) tests. The central property: every
// target the generator claims satisfied is actually driven to its OUTgold
// value when the produced vector is simulated (with don't-care PIs filled
// arbitrarily).
#include "simgen/generator.hpp"

#include <gtest/gtest.h>

#include <array>
#include <string_view>

#include "benchgen/generator.hpp"
#include "benchgen/suite.hpp"
#include "sim/eqclass.hpp"
#include "sim/simulator.hpp"
#include "simgen/guided_sim.hpp"
#include "util/rng.hpp"

namespace simgen::core {
namespace {

// Simulates `pi_values` (X filled with `fill_rng` bits) and returns the
// single-pattern bit of each node in `probes`.
std::vector<bool> simulate_vector(const net::Network& network,
                                  const std::vector<TVal>& pi_values,
                                  std::span<const net::NodeId> probes,
                                  util::Rng& fill_rng) {
  sim::Simulator simulator(network);
  std::vector<sim::PatternWord> words(network.num_pis(), 0);
  for (std::size_t i = 0; i < network.num_pis(); ++i) {
    bool bit = false;
    switch (pi_values[i]) {
      case TVal::kZero: bit = false; break;
      case TVal::kOne: bit = true; break;
      case TVal::kUnknown: bit = fill_rng.flip(); break;
    }
    words[i] = bit ? ~sim::PatternWord{0} : 0;
  }
  simulator.simulate_word(words);
  std::vector<bool> out;
  for (const net::NodeId probe : probes) out.push_back(simulator.value(probe) & 1u);
  return out;
}

TEST(Generator, SingleTargetOnSmallCircuit) {
  // z = and(x, y), x = a&b, y = b|c. Target z=1 forces a=b=1 and leaves c
  // free via the DC row of the OR.
  net::Network network;
  const net::NodeId a = network.add_pi();
  const net::NodeId b = network.add_pi();
  const net::NodeId c = network.add_pi();
  const std::array<net::NodeId, 2> fx{a, b};
  const net::NodeId x = network.add_lut(fx, tt::TruthTable::and_gate(2));
  const std::array<net::NodeId, 2> fy{b, c};
  const net::NodeId y = network.add_lut(fy, tt::TruthTable::or_gate(2));
  const std::array<net::NodeId, 2> fz{x, y};
  const net::NodeId z = network.add_lut(fz, tt::TruthTable::and_gate(2));
  network.add_po(z);

  PatternGenerator generator(network, GeneratorOptions{}, 1);
  const Target target{z, true};
  const VectorResult result = generator.generate(std::span(&target, 1));
  EXPECT_EQ(result.satisfied_one, 1u);

  util::Rng fill(99);
  for (int round = 0; round < 8; ++round) {
    const auto probe = simulate_vector(network, result.pi_values,
                                       std::span(&z, 1), fill);
    EXPECT_TRUE(probe[0]) << "vector must force z=1 for any DC fill";
  }
}

TEST(Generator, ImpossibleTargetConflicts) {
  // g = and(a, !a) is constant 0 — gold 1 must conflict, not satisfy.
  net::Network network;
  const net::NodeId a = network.add_pi();
  const std::array<net::NodeId, 2> f{a, a};
  const net::NodeId g = network.add_lut(
      f, tt::TruthTable::projection(2, 0) & ~tt::TruthTable::projection(2, 1));
  network.add_po(g);

  PatternGenerator generator(network, GeneratorOptions{}, 1);
  const Target target{g, true};
  const VectorResult result = generator.generate(std::span(&target, 1));
  EXPECT_EQ(result.satisfied_one, 0u);
  EXPECT_FALSE(result.usable());
  EXPECT_GE(generator.stats().conflicts.value(), 1u);
}

TEST(Generator, OppositeTargetsMakeUsableVector) {
  // Two independent ANDs can take opposite values simultaneously.
  net::Network network;
  const net::NodeId a = network.add_pi();
  const net::NodeId b = network.add_pi();
  const net::NodeId c = network.add_pi();
  const net::NodeId d = network.add_pi();
  const std::array<net::NodeId, 2> f1{a, b};
  const net::NodeId g1 = network.add_lut(f1, tt::TruthTable::and_gate(2));
  const std::array<net::NodeId, 2> f2{c, d};
  const net::NodeId g2 = network.add_lut(f2, tt::TruthTable::and_gate(2));
  network.add_po(g1);
  network.add_po(g2);

  PatternGenerator generator(network, GeneratorOptions{}, 7);
  const std::array<Target, 2> targets{Target{g1, true}, Target{g2, false}};
  const VectorResult result = generator.generate(targets);
  EXPECT_TRUE(result.usable());

  util::Rng fill(5);
  const std::array<net::NodeId, 2> probes{g1, g2};
  const auto bits = simulate_vector(network, result.pi_values, probes, fill);
  EXPECT_TRUE(bits[0]);
  EXPECT_FALSE(bits[1]);
}

TEST(Generator, ConflictingTargetsLoseTheLaterOne) {
  // Same node demanded 1 by one target and 0 by another: exactly one wins.
  net::Network network;
  const net::NodeId a = network.add_pi();
  const net::NodeId b = network.add_pi();
  const std::array<net::NodeId, 2> f{a, b};
  const net::NodeId g = network.add_lut(f, tt::TruthTable::and_gate(2));
  network.add_po(g);

  PatternGenerator generator(network, GeneratorOptions{}, 3);
  const std::array<Target, 2> targets{Target{g, true}, Target{g, false}};
  const VectorResult result = generator.generate(targets);
  EXPECT_EQ(result.satisfied_one + result.satisfied_zero, 1u);
  EXPECT_FALSE(result.usable());
}

// Property over all strategy arms and generated benchmarks: claimed
// targets hold under simulation for any fill of the free PIs.
struct ArmParam {
  ImplicationStrategy implication;
  DecisionStrategy decision;
};

class GeneratorArm : public ::testing::TestWithParam<ArmParam> {};

TEST_P(GeneratorArm, SatisfiedTargetsHoldUnderSimulation) {
  benchgen::CircuitSpec spec;
  spec.name = "gen_prop";
  spec.num_pis = 12;
  spec.num_pos = 6;
  spec.num_gates = 150;
  const net::Network network = benchgen::generate_mapped(spec);

  GeneratorOptions options;
  options.implication = GetParam().implication;
  options.decision = GetParam().decision;
  PatternGenerator generator(network, options, 11);

  // Collect LUT nodes as target candidates.
  std::vector<net::NodeId> luts;
  network.for_each_lut([&](net::NodeId id) { luts.push_back(id); });
  ASSERT_GE(luts.size(), 4u);

  util::Rng pick(13), fill(17);
  for (int round = 0; round < 30; ++round) {
    std::vector<Target> targets;
    for (int t = 0; t < 4; ++t)
      targets.push_back(Target{luts[pick.below(luts.size())],
                               static_cast<bool>(t & 1)});
    const VectorResult result = generator.generate(targets);

    // Re-derive which targets the generator claims: re-simulate and count
    // matches; the claimed counters must be achievable by some fill — we
    // verify the stronger per-fill property on fully constrained targets
    // by checking the totals are consistent across several fills.
    std::vector<net::NodeId> probes;
    for (const Target& target : targets) probes.push_back(target.node);
    std::size_t min_sat_one = ~std::size_t{0}, min_sat_zero = ~std::size_t{0};
    for (int f = 0; f < 6; ++f) {
      const auto bits = simulate_vector(network, result.pi_values, probes, fill);
      std::size_t one = 0, zero = 0;
      for (std::size_t t = 0; t < targets.size(); ++t) {
        if (targets[t].gold && bits[t]) ++one;
        if (!targets[t].gold && !bits[t]) ++zero;
      }
      min_sat_one = std::min(min_sat_one, one);
      min_sat_zero = std::min(min_sat_zero, zero);
    }
    // Every claimed satisfaction must hold for EVERY fill (claimed
    // targets are fully justified by assigned PIs).
    EXPECT_GE(min_sat_one, result.satisfied_one) << "round " << round;
    EXPECT_GE(min_sat_zero, result.satisfied_zero) << "round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Arms, GeneratorArm,
    ::testing::Values(
        ArmParam{ImplicationStrategy::kSimple, DecisionStrategy::kRandom},
        ArmParam{ImplicationStrategy::kAdvanced, DecisionStrategy::kRandom},
        ArmParam{ImplicationStrategy::kAdvanced, DecisionStrategy::kDontCare},
        ArmParam{ImplicationStrategy::kAdvanced,
                 DecisionStrategy::kDontCareMffc}));

TEST(Generator, StatsAccumulate) {
  benchgen::CircuitSpec spec;
  spec.name = "gen_stats";
  spec.num_gates = 100;
  const net::Network network = benchgen::generate_mapped(spec);
  PatternGenerator generator(network, GeneratorOptions{}, 1);
  std::vector<net::NodeId> luts;
  network.for_each_lut([&](net::NodeId id) { luts.push_back(id); });
  std::vector<Target> targets{Target{luts[0], false}, Target{luts[1], true}};
  generator.generate(targets);
  EXPECT_EQ(generator.stats().targets_attempted.value(), 2u);
  generator.generate(targets);
  EXPECT_EQ(generator.stats().targets_attempted.value(), 4u);
}

// Golden digest of every vector Algorithm 1 produces: PI values and
// satisfied counts of each generate() call over the classes left by one
// random word, two rounds (both OUTgold phases), per arm. The digests
// were recorded from the row-scan implication engine; any change in an
// implied value, its order, a conflict or the latestUpdated candidate
// walk changes a vector or a count and breaks them. (AI+DC and
// AI+DC+MFFC happen to produce the same vectors on cps.)
std::uint64_t generator_vector_digest(std::string_view benchmark,
                                      Strategy arm) {
  const net::Network network =
      benchgen::generate_mapped(*benchgen::find_benchmark(benchmark));
  sim::Simulator simulator(network);
  simulator.simulate_random_word(7, 0);
  sim::EquivClasses classes = sim::EquivClasses::over_luts(network);
  classes.refine(simulator);
  PatternGenerator generator(network, generator_options_for(arm), 5);

  std::uint64_t hash = 0xcbf29ce484222325ull;  // FNV-1a
  const auto mix = [&](std::uint64_t value) {
    hash = (hash ^ value) * 0x100000001b3ull;
  };
  for (int round = 0; round < 2; ++round) {
    for (sim::ClassId c{0}; c < classes.num_classes(); ++c) {
      const std::vector<Target> targets =
          make_outgold(classes.class_members(c), round == 1);
      const VectorResult result = generator.generate(targets);
      for (const TVal value : result.pi_values)
        mix(static_cast<std::uint64_t>(value));
      mix(result.satisfied_zero);
      mix(result.satisfied_one);
    }
  }
  return hash;
}

TEST(GeneratorGolden, VectorDigestsMatchRecorded) {
  struct Golden {
    std::string_view benchmark;
    Strategy arm;
    std::uint64_t digest;
  };
  constexpr Golden kGoldens[] = {
      {"alu4", Strategy::kSiRd, 1890112715375443807ull},
      {"alu4", Strategy::kAiRd, 12275195160340465262ull},
      {"alu4", Strategy::kAiDc, 9220105839138888690ull},
      {"alu4", Strategy::kAiDcMffc, 16107574091531702141ull},
      {"apex2", Strategy::kSiRd, 7815809487672682227ull},
      {"apex2", Strategy::kAiRd, 13272849215965214662ull},
      {"apex2", Strategy::kAiDc, 5365163877511075849ull},
      {"apex2", Strategy::kAiDcMffc, 17013964831668158827ull},
      {"cps", Strategy::kSiRd, 3563593787721187301ull},
      {"cps", Strategy::kAiRd, 7609970568263328111ull},
      {"cps", Strategy::kAiDc, 16575668911680751523ull},
      {"cps", Strategy::kAiDcMffc, 16575668911680751523ull},
      {"b14_C", Strategy::kSiRd, 768352214060687932ull},
      {"b14_C", Strategy::kAiRd, 9792183692322427620ull},
      {"b14_C", Strategy::kAiDc, 5639342045897551503ull},
      {"b14_C", Strategy::kAiDcMffc, 11145222492259046557ull},
  };
  for (const Golden& golden : kGoldens) {
    EXPECT_EQ(generator_vector_digest(golden.benchmark, golden.arm),
              golden.digest)
        << golden.benchmark << " " << strategy_name(golden.arm);
  }
}

}  // namespace
}  // namespace simgen::core

// CNF encoder tests. Core property: for any complete PI assignment, the
// CNF forces every encoded node's variable to the simulated value —
// checked by solving under PI assumptions with the node var pinned to the
// correct (SAT expected) and flipped (UNSAT expected) value.
#include "sat/encoder.hpp"

#include <gtest/gtest.h>

#include <array>

#include "benchgen/generator.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace simgen::sat {
namespace {

TEST(Encoder, LazyEncodingOnlyTouchesCone) {
  net::Network network;
  const net::NodeId a = network.add_pi();
  const net::NodeId b = network.add_pi();
  const net::NodeId c = network.add_pi();
  const std::array<net::NodeId, 2> f1{a, b};
  const net::NodeId g1 = network.add_lut(f1, tt::TruthTable::and_gate(2));
  const std::array<net::NodeId, 2> f2{b, c};
  const net::NodeId g2 = network.add_lut(f2, tt::TruthTable::or_gate(2));
  network.add_po(g1);
  network.add_po(g2);

  Solver solver;
  CnfEncoder encoder(network, solver);
  encoder.ensure_encoded(g1);
  EXPECT_TRUE(encoder.is_encoded(a));
  EXPECT_TRUE(encoder.is_encoded(b));
  EXPECT_TRUE(encoder.is_encoded(g1));
  EXPECT_FALSE(encoder.is_encoded(c));
  EXPECT_FALSE(encoder.is_encoded(g2));
  // Encoding is idempotent.
  const Var var = encoder.var_of(g1);
  EXPECT_EQ(encoder.ensure_encoded(g1), var);
}

TEST(Encoder, PoSharesDriverVariable) {
  net::Network network;
  const net::NodeId a = network.add_pi();
  const net::NodeId po = network.add_po(a);
  Solver solver;
  CnfEncoder encoder(network, solver);
  const Var po_var = encoder.ensure_encoded(po);
  EXPECT_EQ(po_var, encoder.var_of(a));
}

TEST(Encoder, SubstitutedNodeTakesItsSubstitutesVariable) {
  // g2 = a | b is known equal to g1 = b | a (a substitution, as a sweeper
  // records after proving the pair). Encoding g2's fanout must load g1's
  // cone in g2's place and leave g2's own cone out.
  net::Network network;
  const net::NodeId a = network.add_pi();
  const net::NodeId b = network.add_pi();
  const net::NodeId c = network.add_pi();
  const std::array<net::NodeId, 2> fba{b, a};
  const net::NodeId g1 = network.add_lut(fba, tt::TruthTable::or_gate(2));
  const std::array<net::NodeId, 2> fab{a, b};
  const net::NodeId g2 = network.add_lut(fab, tt::TruthTable::or_gate(2));
  const std::array<net::NodeId, 2> fg2c{g2, c};
  const net::NodeId top = network.add_lut(fg2c, tt::TruthTable::and_gate(2));
  const net::NodeId lone = network.add_lut(fab, tt::TruthTable::xor_gate(2));
  network.add_po(top);
  network.add_po(lone);

  std::vector<net::NodeId> substitutions(network.num_nodes(), net::kNullNode);
  substitutions[g2] = g1;
  Solver solver;
  CnfEncoder encoder(network, solver, substitutions);
  const Var top_var = encoder.ensure_encoded(top);
  EXPECT_TRUE(encoder.is_encoded(g1));
  EXPECT_EQ(encoder.var_of(g2), encoder.var_of(g1));
  // 5 variables: a, b, c, g1 (shared with g2) and top.
  EXPECT_EQ(solver.num_vars(), 5u);
  // The substituted encoding still computes top = (a | b) & c.
  EXPECT_EQ(solver.solve({pos(top_var), neg(encoder.var_of(c))}),
            Result::kUnsat);
  EXPECT_EQ(solver.solve({pos(top_var), neg(encoder.var_of(a)),
                          neg(encoder.var_of(b))}),
            Result::kUnsat);
  EXPECT_EQ(solver.solve({pos(top_var)}), Result::kSat);

  // An entry added after a node is encoded changes nothing for it.
  const Var lone_var = encoder.ensure_encoded(lone);
  substitutions[lone] = g1;
  EXPECT_EQ(encoder.ensure_encoded(lone), lone_var);
  EXPECT_NE(encoder.var_of(lone), encoder.var_of(g1));
}

TEST(Encoder, ConstantNodesArePinned) {
  net::Network network;
  const net::NodeId c1 = network.add_constant(true);
  const net::NodeId c0 = network.add_constant(false);
  Solver solver;
  CnfEncoder encoder(network, solver);
  const Var v1 = encoder.ensure_encoded(c1);
  const Var v0 = encoder.ensure_encoded(c0);
  ASSERT_EQ(solver.solve(), Result::kSat);
  EXPECT_TRUE(solver.model_value(v1));
  EXPECT_FALSE(solver.model_value(v0));
  EXPECT_EQ(solver.solve({neg(v1)}), Result::kUnsat);
  EXPECT_EQ(solver.solve({pos(v0)}), Result::kUnsat);
}

// The central soundness/completeness property of the Tseitin encoding.
class EncoderProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EncoderProperty, EncodingMatchesSimulation) {
  benchgen::CircuitSpec spec;
  spec.name = "encoder_prop_" + std::to_string(GetParam());
  spec.num_pis = 8;
  spec.num_pos = 4;
  spec.num_gates = 60;
  const net::Network network = benchgen::generate_mapped(spec);

  Solver solver;
  CnfEncoder encoder(network, solver);
  for (const net::NodeId po : network.pos()) encoder.ensure_encoded(po);

  sim::Simulator simulator(network);
  util::Rng rng(GetParam() * 7919 + 1);
  std::vector<sim::PatternWord> words(network.num_pis());
  for (auto& w : words) w = rng();
  simulator.simulate_word(words);

  for (unsigned pattern = 0; pattern < 8; ++pattern) {
    std::vector<Lit> assumptions;
    for (std::size_t i = 0; i < network.num_pis(); ++i) {
      const net::NodeId pi = network.pis()[i];
      if (!encoder.is_encoded(pi)) continue;
      assumptions.push_back(
          Lit(encoder.var_of(pi), !simulator.value_bit(pi, pattern)));
    }
    // With PIs fixed, the whole circuit is determined: SAT, and every
    // encoded node variable equals its simulated value.
    ASSERT_EQ(solver.solve(assumptions), Result::kSat);
    network.for_each_lut([&](net::NodeId node) {
      if (!encoder.is_encoded(node)) return;
      EXPECT_EQ(solver.model_value(encoder.var_of(node)),
                simulator.value_bit(node, pattern));
    });
    // Pinning one LUT output to the wrong value must be UNSAT.
    net::NodeId probe = net::kNullNode;
    network.for_each_lut([&](net::NodeId node) {
      if (encoder.is_encoded(node)) probe = node;
    });
    ASSERT_NE(probe, net::kNullNode);
    auto flipped = assumptions;
    flipped.push_back(
        Lit(encoder.var_of(probe), simulator.value_bit(probe, pattern)));
    EXPECT_EQ(solver.solve(flipped), Result::kUnsat);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EncoderProperty, ::testing::Values(1u, 2u, 3u, 4u));

TEST(Encoder, ModelInputVectorUsesFill) {
  net::Network network;
  const net::NodeId a = network.add_pi();
  network.add_pi();  // never encoded
  network.add_po(a);
  Solver solver;
  CnfEncoder encoder(network, solver);
  encoder.ensure_encoded(a);
  solver.add_clause({pos(encoder.var_of(a))});
  ASSERT_EQ(solver.solve(), Result::kSat);
  const auto vec_false = encoder.model_input_vector(false);
  EXPECT_TRUE(vec_false[0]);
  EXPECT_FALSE(vec_false[1]);
  const auto vec_true = encoder.model_input_vector(true);
  EXPECT_TRUE(vec_true[1]);
}

}  // namespace
}  // namespace simgen::sat

/// \file selftest.cpp
/// \brief Tests of the benchmark's own code: the bug injector, the
/// counterexample and proven-pair checks, seed determinism, the naive
/// evaluator against aig::simulate_words, and traced-vs-untraced
/// agreement. Runs every group; exits non-zero if any check failed.
#include <cstdio>
#include <set>

#include "aig/aig_to_network.hpp"
#include "benchgen/suite.hpp"
#include "checks.hpp"
#include "inputs.hpp"
#include "mapping/lut_mapper.hpp"
#include "ops.hpp"
#include "util/rng.hpp"

namespace {

using namespace cecbench;

int failures = 0;

#define CHECK(cond)                                                  \
  do {                                                               \
    if (!(cond)) {                                                   \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,    \
                   __LINE__, #cond);                                 \
      ++failures;                                                    \
    }                                                                \
  } while (0)

sg::aig::Aig suite_circuit(const char* name) {
  return sg::benchgen::generate_circuit(*sg::benchgen::find_benchmark(name));
}

std::vector<std::uint64_t> random_words(std::size_t count, std::uint64_t seed) {
  sg::util::Rng rng(seed);
  std::vector<std::uint64_t> words(count);
  for (std::uint64_t& word : words) word = rng();
  return words;
}

void test_bug_injector() {
  const sg::aig::Aig golden = suite_circuit("b20_C");
  const Bug bug = draw_bug(golden, 3, 20);
  CHECK(bug.cube.size() == 20);
  std::set<std::size_t> pis;
  for (const auto& [pi, value] : bug.cube) pis.insert(pi);
  CHECK(pis.size() == 20);  // Drawn without replacement.
  CHECK(bug.output < golden.num_pos());

  const sg::aig::Aig buggy = inject_bug(golden, bug);
  CHECK(buggy.num_pis() == golden.num_pis());
  CHECK(buggy.num_pos() == golden.num_pos());
  CHECK(bug_observable(golden, buggy, bug));

  // On random patterns the outputs differ exactly where the cube holds.
  const std::vector<std::uint64_t> words = random_words(golden.num_pis(), 11);
  std::vector<std::uint64_t> forced = words;
  for (const auto& [pi, value] : bug.cube)  // Half the lanes satisfy the cube.
    forced[pi] = value ? (words[pi] | 0xffffffffull) : (words[pi] & ~0xffffffffull);
  const auto a = golden.simulate_words(forced);
  const auto b = buggy.simulate_words(forced);
  std::uint64_t cube = ~std::uint64_t{0};
  for (const auto& [pi, value] : bug.cube) cube &= value ? forced[pi] : ~forced[pi];
  CHECK(cube != 0);
  for (std::size_t o = 0; o < golden.num_pos(); ++o)
    CHECK((a[o] ^ b[o]) == (o == bug.output ? cube : 0));
}

void test_cex_checker_rejects_wrong_witness() {
  const sg::aig::Aig golden = suite_circuit("b22_C");
  const Bug bug = draw_bug(golden, 5, 20);
  const sg::aig::Aig buggy = inject_bug(golden, bug);
  CHECK(first_differing_output(golden, buggy, bug.witness) == bug.output);
  std::vector<bool> wrong = bug.witness;
  wrong[bug.cube.front().first] = !wrong[bug.cube.front().first];
  CHECK(!first_differing_output(golden, buggy, wrong).has_value());
  CHECK(!first_differing_output(golden, golden, bug.witness).has_value());
  wrong.pop_back();  // Wrong shape is rejected, not read out of bounds.
  CHECK(!first_differing_output(golden, buggy, wrong).has_value());
}

void test_seed_determinism() {
  const WorkloadInputs a = make_inputs(Workload::kCecGuided, 7);
  const WorkloadInputs b = make_inputs(Workload::kCecGuided, 7);
  const WorkloadInputs c = make_inputs(Workload::kCecGuided, 8);
  CHECK(a.digest == b.digest);
  CHECK(a.digest != c.digest);
  CHECK(a.cec.size() == 6);
  for (std::size_t i = 0; i < a.cec.size(); ++i) {
    CHECK(digest(a.cec[i].revised) == digest(b.cec[i].revised));
    CHECK(a.cec[i].equivalent == (i % 2 == 0));
    CHECK(a.cec[i].bug.cube == b.cec[i].bug.cube);
  }
  // Every seed keeps the suite's own circuits; only the bugs move.
  for (std::size_t i = 0; i < a.cec.size(); ++i) {
    CHECK(digest(a.cec[i].golden) == digest(c.cec[i].golden));
    if (i % 2 == 1) CHECK(a.cec[i].bug.cube != c.cec[i].bug.cube);
  }
  CHECK(digest(a.cec[4].golden) == digest(suite_circuit("b17_C")));
}

void test_naive_eval_matches_aig() {
  for (const char* name : {"alu4", "apex2", "cordic"}) {
    const sg::aig::Aig graph = suite_circuit(name);
    const std::vector<std::uint64_t> words = random_words(graph.num_pis(), 17);
    const std::vector<std::uint64_t> expected = graph.simulate_words(words);
    for (const sg::net::Network& network :
         {sg::aig::to_network(graph), sg::mapping::map_to_luts(graph)}) {
      const std::vector<std::uint64_t> values = naive_eval(network, words);
      CHECK(network.num_pos() == graph.num_pos());
      for (std::size_t o = 0; o < network.num_pos(); ++o)
        CHECK(values[network.pos()[o]] == expected[o]);
    }
  }
}

void test_pairs_check_rejects_unequal_pair() {
  const sg::net::Network network = sg::mapping::map_to_luts(suite_circuit("alu4"));
  const sg::net::NodeId a = network.fanins(network.pos()[0])[0];
  const sg::net::NodeId b = network.fanins(network.pos()[1])[0];
  const std::pair<sg::net::NodeId, sg::net::NodeId> same[] = {{a, a}};
  const std::pair<sg::net::NodeId, sg::net::NodeId> different[] = {{a, b}};
  CHECK(pairs_agree(network, same, 1, 4));
  CHECK(!pairs_agree(network, different, 1, 4));
}

void test_traced_runs_reproduce_untraced() {
  FlowInput flow{"apex2", sg::mapping::map_to_luts(suite_circuit("apex2"))};
  for (sg::core::Strategy strategy : {sg::core::Strategy::kRevS, sg::core::Strategy::kAiDcMffc}) {
    Tracer tracer;
    Counts counts;
    const Outcome plain = run_flow(flow, strategy, nullptr, nullptr);
    const Outcome traced = run_flow(flow, strategy, &tracer, &counts);
    CHECK(same_answer(plain, traced, std::nullopt, std::nullopt));
    CHECK(plain.eq5_cost == traced.eq5_cost);
    CHECK(counts["sweep.sat_calls"] == static_cast<double>(plain.sweep_calls));
    CHECK(tracer.total("sweep.run") > 0.0);
    CHECK(pairs_agree(flow.network, plain.proven_pairs, 3, 2));
  }

  // A small CEC pair with a 10-literal bug: both paths find the bug
  // output with identical sweep counts.
  const sg::aig::Aig golden = suite_circuit("apex2");
  const Bug bug = draw_bug(golden, 2, 10);
  CecInput input;
  input.golden = golden;
  input.revised = inject_bug(golden, bug);
  input.mapped = sg::mapping::map_to_luts(golden);
  input.direct = sg::aig::to_network(input.revised);
  input.equivalent = false;
  input.bug = bug;
  for (bool guided : {false, true}) {
    Tracer tracer;
    Counts counts;
    const Outcome plain = run_cec(input, guided);
    const Outcome traced = run_cec_traced(input, guided, tracer, counts);
    const auto cex_plain = first_differing_output(golden, input.revised, plain.counterexample);
    const auto cex_traced = first_differing_output(golden, input.revised, traced.counterexample);
    CHECK(!plain.equivalent);
    CHECK(cex_plain == bug.output);
    CHECK(same_answer(plain, traced, cex_plain, cex_traced));
    CHECK(plain.output_calls == traced.output_calls);
  }
}

}  // namespace

int main() {
  const struct {
    const char* name;
    void (*fn)();
  } tests[] = {
      {"bug_injector", test_bug_injector},
      {"cex_checker_rejects_wrong_witness", test_cex_checker_rejects_wrong_witness},
      {"seed_determinism", test_seed_determinism},
      {"naive_eval_matches_aig", test_naive_eval_matches_aig},
      {"pairs_check_rejects_unequal_pair", test_pairs_check_rejects_unequal_pair},
      {"traced_runs_reproduce_untraced", test_traced_runs_reproduce_untraced},
  };
  for (const auto& test : tests) {
    const int before = failures;
    test.fn();
    std::printf("%s %s\n", failures == before ? "ok  " : "FAIL", test.name);
  }
  return failures == 0 ? 0 : 1;
}

#include "inputs.hpp"

#include <chrono>
#include <numeric>
#include <stdexcept>

#include "aig/aig_to_network.hpp"
#include "aig/putontop.hpp"
#include "benchgen/suite.hpp"
#include "mapping/lut_mapper.hpp"
#include "util/rng.hpp"

namespace cecbench {

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::size_t kBugCubeSize = 20;
constexpr const char* kGuidedCircuits[] = {"b20_C", "b22_C", "b17_C"};
constexpr const char* kStackedBase = "b17_C";
constexpr unsigned kStackedCopies = 5;

/// Runs \p fn and adds its wall time to \p seconds.
template <typename Fn>
auto timed(double& seconds, Fn&& fn) {
  const auto start = Clock::now();
  auto value = fn();
  seconds += std::chrono::duration<double>(Clock::now() - start).count();
  return value;
}

const sg::benchgen::CircuitSpec& suite_spec(std::string_view name) {
  const sg::benchgen::CircuitSpec* spec = sg::benchgen::find_benchmark(name);
  if (spec == nullptr)
    throw std::runtime_error("unknown suite circuit " + std::string(name));
  return *spec;
}

std::uint64_t mix(std::uint64_t hash, std::uint64_t value) {
  return sg::util::splitmix64(hash ^ value);
}

/// Maps \p golden and translates \p revised, then builds their miter.
CecInput make_cec_input(std::string name, const sg::aig::Aig& golden,
                        sg::aig::Aig revised, bool equivalent, Bug bug,
                        SetupTimes& times) {
  CecInput input;
  input.name = std::move(name);
  input.equivalent = equivalent;
  input.bug = std::move(bug);
  input.mapped = timed(times.mapping, [&] { return sg::mapping::map_to_luts(golden); });
  input.direct = timed(times.mapping, [&] { return sg::aig::to_network(revised); });
  input.miter = timed(times.miter,
                      [&] { return sg::sweep::make_miter(input.mapped, input.direct); });
  input.golden = golden;
  input.revised = std::move(revised);
  return input;
}

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  for (Workload w : {Workload::kCecGuided, Workload::kCecSat, Workload::kTable2Flow})
    if (workload_name(w) == name) return w;
  return std::nullopt;
}

std::string_view workload_name(Workload workload) {
  switch (workload) {
    case Workload::kCecGuided: return "cec_guided";
    case Workload::kCecSat: return "cec_sat";
    case Workload::kTable2Flow: return "table2_flow";
  }
  return "?";
}

Bug draw_bug(const sg::aig::Aig& golden, std::uint64_t seed,
             std::size_t cube_size) {
  if (golden.num_pos() == 0 || golden.num_pis() < cube_size)
    throw std::runtime_error("draw_bug: circuit too small for the bug cube");
  sg::util::Rng rng(mix(sg::util::fnv1a(golden.name()), seed ^ 0xb06u));
  Bug bug;
  bug.output = rng.below(golden.num_pos());
  // Partial Fisher-Yates: the first cube_size entries are distinct PIs.
  std::vector<std::size_t> order(golden.num_pis());
  std::iota(order.begin(), order.end(), std::size_t{0});
  for (std::size_t i = 0; i < cube_size; ++i) {
    std::swap(order[i], order[i + rng.below(order.size() - i)]);
    bug.cube.emplace_back(order[i], rng.flip());
  }
  bug.witness.resize(golden.num_pis());
  for (std::size_t i = 0; i < golden.num_pis(); ++i) bug.witness[i] = rng.flip();
  for (const auto& [pi, value] : bug.cube) bug.witness[pi] = value;
  return bug;
}

sg::aig::Aig inject_bug(const sg::aig::Aig& golden, const Bug& bug) {
  using sg::aig::Lit;
  sg::aig::Aig buggy(golden.name() + "_bug");
  std::vector<Lit> map(golden.num_nodes(), sg::aig::kLitFalse);
  for (std::size_t i = 0; i < golden.num_pis(); ++i)
    map[sg::aig::lit_node(golden.pi_lit(i))] = buggy.add_pi(golden.pi_name(i));
  const auto translate = [&map](Lit lit) {
    return map[sg::aig::lit_node(lit)] ^ static_cast<Lit>(sg::aig::lit_complemented(lit));
  };
  golden.for_each_and([&](std::uint32_t node) {
    map[node] = buggy.and2(translate(golden.fanin0(node)), translate(golden.fanin1(node)));
  });
  Lit cube = sg::aig::kLitTrue;
  for (const auto& [pi, value] : bug.cube) {
    const Lit literal = map[sg::aig::lit_node(golden.pi_lit(pi))];
    cube = buggy.and2(cube, value ? literal : sg::aig::lit_not(literal));
  }
  for (std::size_t o = 0; o < golden.num_pos(); ++o) {
    Lit driver = translate(golden.po_lit(o));
    if (o == bug.output) driver = buggy.xor2(driver, cube);
    buggy.add_po(driver, golden.po_name(o));
  }
  return buggy;
}

bool bug_observable(const sg::aig::Aig& golden, const sg::aig::Aig& buggy,
                    const Bug& bug) {
  if (golden.num_pis() != buggy.num_pis() || golden.num_pos() != buggy.num_pos() ||
      bug.witness.size() != golden.num_pis())
    return false;
  std::vector<std::uint64_t> words(golden.num_pis());
  for (std::size_t i = 0; i < words.size(); ++i) words[i] = bug.witness[i] ? 1u : 0u;
  const std::vector<std::uint64_t> a = golden.simulate_words(words);
  const std::vector<std::uint64_t> b = buggy.simulate_words(words);
  for (std::size_t o = 0; o < golden.num_pos(); ++o) {
    const bool differs = ((a[o] ^ b[o]) & 1u) != 0;
    if (differs != (o == bug.output)) return false;
  }
  return true;
}

WorkloadInputs make_inputs(Workload workload, std::uint64_t seed) {
  WorkloadInputs inputs;
  SetupTimes& times = inputs.times;
  switch (workload) {
    case Workload::kCecGuided:
      for (const char* name : kGuidedCircuits) {
        const sg::aig::Aig golden = timed(
            times.benchgen, [&] { return sg::benchgen::generate_circuit(suite_spec(name)); });
        Bug bug = draw_bug(golden, seed, kBugCubeSize);
        sg::aig::Aig buggy = timed(times.benchgen, [&] { return inject_bug(golden, bug); });
        if (!bug_observable(golden, buggy, bug))
          throw std::runtime_error(std::string("bug witness not observable on ") + name);
        inputs.cec.push_back(make_cec_input(name, golden, golden, true, {}, times));
        inputs.cec.push_back(make_cec_input(std::string(name) + "_bug", golden,
                                            std::move(buggy), false, std::move(bug),
                                            times));
      }
      break;
    case Workload::kCecSat: {
      const sg::aig::Aig stacked = timed(times.benchgen, [&] {
        return sg::aig::put_on_top(sg::benchgen::generate_circuit(suite_spec(kStackedBase)),
                                   kStackedCopies);
      });
      inputs.cec.push_back(make_cec_input(
          std::string(kStackedBase) + "x" + std::to_string(kStackedCopies), stacked,
          stacked, true, {}, times));
      break;
    }
    case Workload::kTable2Flow:
      for (const sg::benchgen::CircuitSpec& spec : sg::benchgen::benchmark_suite()) {
        const sg::aig::Aig graph = timed(
            times.benchgen, [&] { return sg::benchgen::generate_circuit(spec); });
        FlowInput flow;
        flow.name = spec.name;
        flow.network = timed(times.mapping, [&] { return sg::mapping::map_to_luts(graph); });
        inputs.flows.push_back(std::move(flow));
      }
      break;
  }
  std::uint64_t hash = seed;
  for (const CecInput& input : inputs.cec) {
    inputs.mapped_luts += input.mapped.num_luts();
    hash = mix(hash, digest(input.golden));
    hash = mix(hash, digest(input.revised));
    hash = mix(hash, digest(input.miter.network));
  }
  for (const FlowInput& flow : inputs.flows) {
    inputs.mapped_luts += flow.network.num_luts();
    hash = mix(hash, digest(flow.network));
  }
  inputs.digest = hash;
  return inputs;
}

std::uint64_t digest(const sg::aig::Aig& graph) {
  std::uint64_t hash = mix(graph.num_pis(), graph.num_nodes());
  graph.for_each_and([&](std::uint32_t node) {
    hash = mix(hash, (std::uint64_t{graph.fanin0(node)} << 32) | graph.fanin1(node));
  });
  for (std::size_t o = 0; o < graph.num_pos(); ++o) hash = mix(hash, graph.po_lit(o));
  return hash;
}

std::uint64_t digest(const sg::net::Network& network) {
  std::uint64_t hash = mix(network.num_pis(), network.num_nodes());
  network.for_each_node([&](sg::net::NodeId id) {
    const sg::net::Node& node = network.node(id);
    hash = mix(hash, static_cast<std::uint64_t>(node.kind) |
                         (std::uint64_t{node.constant_value} << 8));
    for (sg::net::NodeId fanin : node.fanins) hash = mix(hash, fanin.value());
    if (node.kind == sg::net::NodeKind::kLut) hash = mix(hash, node.function.hash());
  });
  return hash;
}

}  // namespace cecbench

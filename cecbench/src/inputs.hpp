/// \file inputs.hpp
/// \brief Workload inputs with answers known by construction.
///
/// Every workload uses the suite's own circuits (the circuits the paper
/// table drivers use). The seed drives which output carries an injected
/// bug, the bug's cube literals and its witness. It deliberately leaves
/// the circuit seeds alone: re-seeding b17_C moved the stacked CEC's wall
/// time from 8 s to 28 s, a spread no regression bound could absorb.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "aig/aig.hpp"
#include "benchgen/generator.hpp"
#include "network/network.hpp"
#include "sweep/cec.hpp"

namespace cecbench {

namespace sg = simgen;

enum class Workload : std::uint8_t { kCecGuided, kCecSat, kTable2Flow };

[[nodiscard]] std::optional<Workload> parse_workload(std::string_view name);
[[nodiscard]] std::string_view workload_name(Workload workload);

/// A rare bug: output \p output XORed with the AND of the cube literals
/// (PI index, required value). \p witness satisfies the cube, so the
/// buggy output differs from the golden one on it.
struct Bug {
  std::size_t output = 0;
  std::vector<std::pair<std::size_t, bool>> cube;
  std::vector<bool> witness;  ///< One value per PI.
};

/// Draws a bug with \p cube_size distinct PIs (without replacement: a PI
/// drawn twice with opposite polarities would make the cube constant
/// false and the "buggy" circuit equivalent).
[[nodiscard]] Bug draw_bug(const sg::aig::Aig& golden, std::uint64_t seed,
                           std::size_t cube_size);

/// Rebuilds \p golden with \p bug applied to its output.
[[nodiscard]] sg::aig::Aig inject_bug(const sg::aig::Aig& golden,
                                      const Bug& bug);

/// One CEC operation: the LUT mapping of `golden` against the direct
/// translation of `revised`, whose known verdict is `equivalent`.
struct CecInput {
  std::string name;
  sg::aig::Aig golden;
  sg::aig::Aig revised;  ///< golden, or golden with `bug` injected.
  sg::net::Network mapped;
  sg::net::Network direct;
  sg::sweep::Miter miter;  ///< make_miter(mapped, direct), from set-up.
  bool equivalent = true;
  Bug bug;  ///< Meaningful only when !equivalent.
};

/// One suite circuit of the paper flow, 6-LUT mapped.
struct FlowInput {
  std::string name;
  sg::net::Network network;
};

/// Seconds spent in each set-up call family, summed over the inputs.
struct SetupTimes {
  double benchgen = 0.0;  ///< generate_circuit, put_on_top, bug injection.
  double mapping = 0.0;   ///< map_to_luts and aig::to_network.
  double miter = 0.0;     ///< sweep::make_miter.
  [[nodiscard]] double total() const { return benchgen + mapping + miter; }
};

struct WorkloadInputs {
  std::vector<CecInput> cec;
  std::vector<FlowInput> flows;
  SetupTimes times;
  std::size_t mapped_luts = 0;  ///< LUTs of every mapped network.
  std::uint64_t digest = 0;     ///< Structural hash of every input.
};

/// Builds the inputs of \p workload for \p seed, timing only the set-up
/// calls. Throws std::runtime_error if a bug's witness does not expose it.
[[nodiscard]] WorkloadInputs make_inputs(Workload workload, std::uint64_t seed);

/// True iff \p witness drives output bug.output of the two AIGs apart
/// and leaves every other output equal (checked with simulate_words).
[[nodiscard]] bool bug_observable(const sg::aig::Aig& golden,
                                  const sg::aig::Aig& buggy, const Bug& bug);

[[nodiscard]] std::uint64_t digest(const sg::aig::Aig& graph);
[[nodiscard]] std::uint64_t digest(const sg::net::Network& network);

}  // namespace cecbench

/// \file ops.hpp
/// \brief The benchmark's operations: one CEC check or one paper flow.
///
/// Untraced CEC calls sweep::check_equivalence exactly as a user would.
/// The traced CEC rebuilds the same check from public entry points
/// (make_miter, Simulator::simulate_random_block + refine_word,
/// run_guided_simulation, Sweeper::run, the output proofs) with one span
/// around each call, so the two must agree on every count. The paper
/// flow is composed from public calls the way bench::run_strategy_flow
/// composes it; its untraced run is the same code with a null tracer.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "inputs.hpp"
#include "simgen/guided_sim.hpp"
#include "tracer.hpp"

namespace cecbench {

/// What an operation returned. The fields compared between the untraced
/// and traced runs are listed in same_answer().
struct Outcome {
  bool completed = false;  ///< Returned without throwing.
  std::string error;       ///< Exception text when !completed.
  bool equivalent = false;
  bool undecided = false;
  std::vector<bool> counterexample;
  std::uint64_t sweep_calls = 0;
  std::uint64_t proven = 0;
  std::uint64_t disproven = 0;
  std::uint64_t output_calls = 0;
  std::uint64_t eq5_cost = 0;  ///< Eq. 5 cost after the guided phase.
  std::vector<std::pair<sg::net::NodeId, sg::net::NodeId>> proven_pairs;
  double seconds = 0.0;  ///< Wall time of the call(s), set by the caller.
};

/// Per-layer work counts and times of traced operations, by metric name.
using Counts = std::map<std::string, double>;

/// True iff \p a and \p b agree on verdict, counterexample output and
/// sweep sat_calls / proven / disproven. \p cex_a / \p cex_b are the
/// outputs each counterexample exposes on the source AIGs.
[[nodiscard]] bool same_answer(const Outcome& a, const Outcome& b,
                               std::optional<std::size_t> cex_a,
                               std::optional<std::size_t> cex_b);

/// CEC with default options; guided simulation on or off.
[[nodiscard]] Outcome run_cec(const CecInput& input, bool guided);

/// The same check rebuilt from public calls, with spans and counts.
[[nodiscard]] Outcome run_cec_traced(const CecInput& input, bool guided,
                                     Tracer& tracer, Counts& counts);

/// One flow of the paper's Figure 2: 1 random round, 20 guided
/// iterations of \p strategy, then a full sweep. \p tracer and \p counts
/// may be null (the untraced run).
[[nodiscard]] Outcome run_flow(const FlowInput& input, sg::core::Strategy strategy,
                               Tracer* tracer, Counts* counts);

}  // namespace cecbench

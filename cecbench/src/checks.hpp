/// \file checks.hpp
/// \brief Answer checks that do not trust the code under measurement.
///
/// Counterexamples are re-checked on the source AIGs with
/// aig::simulate_words. Proven pairs of the paper flow are re-checked by
/// a deliberately naive network evaluator (one truth-table lookup per
/// node and pattern), not by src/sim.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "aig/aig.hpp"
#include "network/network.hpp"

namespace cecbench {

namespace sg = simgen;

/// Values of every node of \p network under 64 patterns per word: PI i
/// takes pi_words[i]. Indexed by node id.
[[nodiscard]] std::vector<std::uint64_t> naive_eval(
    const sg::net::Network& network, std::span<const std::uint64_t> pi_words);

/// Index of the first output on which \p a and \p b differ under the PI
/// assignment \p pis, or nullopt when they agree (or the shapes differ).
[[nodiscard]] std::optional<std::size_t> first_differing_output(
    const sg::aig::Aig& a, const sg::aig::Aig& b, const std::vector<bool>& pis);

/// True iff every pair in \p pairs agrees on \p words x 64 random
/// patterns drawn from \p seed, under naive_eval.
[[nodiscard]] bool pairs_agree(
    const sg::net::Network& network,
    std::span<const std::pair<sg::net::NodeId, sg::net::NodeId>> pairs,
    std::uint64_t seed, std::size_t words);

}  // namespace cecbench

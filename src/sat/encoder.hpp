/// \file encoder.hpp
/// \brief Incremental Tseitin encoding of LUT networks into CNF.
///
/// SAT sweeping proves candidate node pairs one at a time; the encoder
/// loads the CNF of each node's fanin cone on demand and only once, so
/// successive calls on overlapping cones reuse clauses and learned facts
/// (the "deep integration" that makes incremental sweeping cheap).
/// LUT semantics are encoded from the ISOP covers: every ON-set cube c
/// yields the clause (c -> y) and every OFF-set cube the clause (c -> !y),
/// which together are a complete and consistent definition of y.
///
/// An optional substitution map (node -> proven-equal lower node) lets a
/// fresh solver start from earlier proofs: a node the map names is
/// encoded as its substitute and shares the substitute's variable, so its
/// own cone is never loaded.
#pragma once

#include <span>
#include <vector>

#include "network/network.hpp"
#include "sat/solver.hpp"

namespace simgen::sat {

/// Binds a Network to a Solver, creating variables and clauses lazily.
class CnfEncoder {
 public:
  /// \p substitutions, when non-empty, has one entry per network node:
  /// kNullNode, or a node with a smaller id proven functionally equal to
  /// it. The encoder reads it only when it encodes a node for the first
  /// time, and it must outlive the encoder; entries added later take
  /// effect for nodes not yet encoded.
  CnfEncoder(const net::Network& network, Solver& solver,
             std::span<const net::NodeId> substitutions = {});

  /// Encodes the transitive fanin cone of \p node (if not already done)
  /// and returns the solver variable carrying the node's value. A node
  /// with a substitute is encoded as that substitute instead.
  Var ensure_encoded(net::NodeId node);

  /// Variable of an already encoded node.
  [[nodiscard]] Var var_of(net::NodeId node) const { return vars_[node]; }
  [[nodiscard]] bool is_encoded(net::NodeId node) const {
    return vars_[node] != kUnencoded;
  }

  /// Extracts a full-network input vector from the solver model: PIs that
  /// are encoded take their model value, unencoded PIs take \p fill.
  /// Returned in PI order (index i = value of PI i).
  [[nodiscard]] std::vector<bool> model_input_vector(bool fill = false) const;

  [[nodiscard]] const net::Network& network() const noexcept { return network_; }
  [[nodiscard]] Solver& solver() noexcept { return solver_; }

 private:
  void encode_node(net::NodeId node);

  static constexpr Var kUnencoded{~std::uint32_t{0}};
  const net::Network& network_;
  Solver& solver_;
  std::span<const net::NodeId> substitutions_;
  std::vector<Var> vars_;
};

}  // namespace simgen::sat

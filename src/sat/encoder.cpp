#include "sat/encoder.hpp"

#include <utility>

#include "tt/isop.hpp"

namespace simgen::sat {

CnfEncoder::CnfEncoder(const net::Network& network, Solver& solver,
                       std::span<const net::NodeId> substitutions)
    : network_(network),
      solver_(solver),
      substitutions_(substitutions),
      vars_(network.num_nodes(), kUnencoded) {}

Var CnfEncoder::ensure_encoded(net::NodeId node) {
  if (is_encoded(node)) return vars_[node];
  // Iterative DFS so deep cones cannot overflow the call stack.
  std::vector<std::pair<net::NodeId, std::size_t>> stack;
  stack.emplace_back(node, 0);
  while (!stack.empty()) {
    auto& [current, next_fanin] = stack.back();
    if (is_encoded(current)) {
      stack.pop_back();
      continue;
    }
    const net::NodeId substitute =
        substitutions_.empty() ? net::kNullNode : substitutions_[current];
    if (substitute != net::kNullNode) {
      if (is_encoded(substitute)) {
        vars_[current] = vars_[substitute];
        stack.pop_back();
      } else {
        stack.emplace_back(substitute, 0);
      }
      continue;
    }
    const auto fanins = network_.fanins(current);
    if (next_fanin < fanins.size()) {
      const net::NodeId fanin = fanins[next_fanin++];
      if (!is_encoded(fanin)) stack.emplace_back(fanin, 0);
    } else {
      encode_node(current);
      stack.pop_back();
    }
  }
  return vars_[node];
}

void CnfEncoder::encode_node(net::NodeId node_id) {
  const net::Node& node = network_.node(node_id);
  switch (node.kind) {
    case net::NodeKind::kPi:
      vars_[node_id] = solver_.new_var();
      break;
    case net::NodeKind::kConstant: {
      const Var var = solver_.new_var();
      vars_[node_id] = var;
      solver_.add_clause({node.constant_value ? pos(var) : neg(var)});
      break;
    }
    case net::NodeKind::kPo:
      // POs are transparent: share the driver's variable.
      vars_[node_id] = vars_[node.fanins[0]];
      break;
    case net::NodeKind::kLut: {
      const Var out = solver_.new_var();
      vars_[node_id] = out;
      const tt::RowSet rows = tt::compute_rows(node.function);
      std::vector<Lit> clause;
      const auto emit_plane = [&](const tt::Cover& cover, Lit out_lit) {
        for (const tt::Cube& cube : cover.cubes) {
          clause.clear();
          for (unsigned v = 0; v < node.fanins.size(); ++v) {
            if (!cube.has_literal(v)) continue;
            const Var in = vars_[node.fanins[v]];
            // cube literal x_v=b contributes !(x_v=b) to the implication.
            clause.push_back(cube.literal_value(v) ? neg(in) : pos(in));
          }
          clause.push_back(out_lit);
          solver_.add_clause(clause);
        }
      };
      emit_plane(rows.on, pos(out));   // on-cube  -> y
      emit_plane(rows.off, neg(out));  // off-cube -> !y
      break;
    }
  }
}

std::vector<bool> CnfEncoder::model_input_vector(bool fill) const {
  std::vector<bool> vector(network_.num_pis(), fill);
  for (std::size_t i = 0; i < network_.num_pis(); ++i) {
    const net::NodeId pi = network_.pis()[i];
    if (is_encoded(pi)) vector[i] = solver_.model_value(vars_[pi]);
  }
  return vector;
}

}  // namespace simgen::sat

#include "simgen/generator.hpp"

namespace simgen::core {

GeneratorStats::GeneratorStats(obs::register_t)
    : targets_attempted("simgen.targets_attempted"),
      targets_satisfied("simgen.targets_satisfied"),
      conflicts("simgen.conflicts"),
      implications("simgen.implications"),
      decisions("simgen.decisions"),
      nodes_examined("simgen.nodes_examined"),
      implication_table_fills("simgen.implication_table_fills") {}

PatternGenerator::PatternGenerator(const net::Network& network,
                                   GeneratorOptions options, std::uint64_t seed)
    : network_(network),
      options_(options),
      rows_(network),
      mffc_(network),
      rng_(seed),
      values_(network.num_nodes()),
      implication_(network, rows_),
      decision_(network, rows_),
      in_cone_stamp_(network.num_nodes(), 0),
      processed_stamp_(network.num_nodes(), 0) {
  network_.for_each_node([&](net::NodeId id) {
    if (network_.is_constant(id)) constants_.push_back(id);
  });
  if (options_.decision == DecisionStrategy::kDontCareScoap) {
    scoap_.emplace(net::compute_scoap(network_));
    decision_.set_scoap(&*scoap_);
  }
}

void PatternGenerator::mark_cone(net::NodeId root) {
  cone_stack_.clear();
  cone_stack_.push_back(root);
  in_cone_stamp_[root] = stamp_;
  while (!cone_stack_.empty()) {
    const net::NodeId node = cone_stack_.back();
    cone_stack_.pop_back();
    for (net::NodeId fanin : implication_.adjacency().fanins(node)) {
      if (in_cone_stamp_[fanin] == stamp_) continue;
      in_cone_stamp_[fanin] = stamp_;
      cone_stack_.push_back(fanin);
    }
  }
}

VectorResult PatternGenerator::generate(std::span<const Target> targets) {
  values_.reset();
  // Constants carry their fixed values from the start so implications can
  // see through them (and conflicts against them are detected).
  for (net::NodeId id : constants_)
    values_.assign(id, tval_of(network_.node(id).constant_value));

  // Algorithm 1 line 2: process targets furthest from the PIs first.
  std::vector<Target> ordered(targets.begin(), targets.end());
  order_targets_by_depth(network_, ordered);

  VectorResult result;
  for (const Target& target : ordered) {
    stats_.targets_attempted.inc();
    bool satisfied = false;
    if (values_.is_assigned(target.node)) {
      // A previous target's propagation already fixed this node; it either
      // happens to agree with the OUTgold value or this target is lost
      // (no backtracking).
      satisfied = values_.get(target.node) == tval_of(target.gold);
      if (!satisfied) stats_.conflicts.inc();
    } else {
      satisfied = process_target(target);
    }
    if (satisfied) {
      stats_.targets_satisfied.inc();
      ++(target.gold ? result.satisfied_one : result.satisfied_zero);
    }
  }

  result.pi_values.reserve(network_.num_pis());
  for (net::NodeId pi : network_.pis()) result.pi_values.push_back(values_.get(pi));
  return result;
}

net::NodeId PatternGenerator::latest_updated(std::size_t init_mark) {
  // Walk the trail backwards, jumping over intervals earlier walks of
  // this target already covered. DC-left fanins never enter the trail,
  // so their subtrees are correctly left free.
  const FlatAdjacency& adjacency = implication_.adjacency();
  const auto& trail = values_.trail();
  const std::size_t end = trail.size();
  for (std::size_t i = end; i > init_mark;) {
    if (!walked_.empty() && walked_.back().second == i) {
      i = walked_.back().first;
      walked_.pop_back();
      continue;
    }
    const net::NodeId node = trail[--i];
    if (in_cone_stamp_[node] != stamp_) continue;
    if (processed_stamp_[node] == stamp_) continue;
    if (!adjacency.is_lut(node)) continue;
    processed_stamp_[node] = stamp_;  // visited either way
    for (net::NodeId fanin : adjacency.fanins(node)) {
      if (!values_.is_assigned(fanin)) {
        walked_.emplace_back(i, end);
        return node;
      }
    }
  }
  return net::kNullNode;
}

bool PatternGenerator::process_target(const Target& target) {
  // Algorithm 1 line 4: snapshot so a conflict can restore initVals.
  const std::size_t init_mark = values_.mark();

  // Line 6: listDfs — the fanin cone of the target (stamped membership).
  ++stamp_;
  mark_cone(target.node);
  walked_.clear();

  // Line 5: nodeVals[targetNode] = OUTgold[targetNode].
  values_.assign(target.node, tval_of(target.gold));

  // Lines 8-16: interleave implication and decision until the cone is
  // saturated or a conflict occurs. `seed_start` tracks which trail
  // entries still need to be propagated by the next implication run.
  std::size_t seed_start = init_mark;
  while (true) {
    // Line 9: implication from everything assigned since the last run.
    const auto& trail = values_.trail();
    const std::span<const net::NodeId> seeds(trail.data() + seed_start,
                                             trail.size() - seed_start);
    const ImplicationOutcome implied =
        implication_.run(values_, seeds, options_.implication);
    stats_.implications.inc(implied.assignments);
    stats_.nodes_examined.inc(implied.nodes_examined);
    stats_.implication_table_fills.inc(implied.table_fills);
    if (implied.conflict) {
      // Lines 11-13: conflict — restore initVals, abandon this target.
      stats_.conflicts.inc();
      values_.rollback_to(init_mark);
      return false;
    }
    seed_start = values_.trail().size();

    // Line 15: latestUpdated.
    const net::NodeId candidate = latest_updated(init_mark);
    if (candidate == net::kNullNode) return true;  // cone saturated: success

    // Line 16: decision at the candidate.
    const DecisionOutcome outcome =
        decision_.decide(values_, candidate, options_.decision,
                         options_.weights, &mffc_, rng_);
    if (!outcome.made) {
      stats_.conflicts.inc();
      values_.rollback_to(init_mark);
      return false;
    }
    stats_.decisions.inc();
  }
}

}  // namespace simgen::core

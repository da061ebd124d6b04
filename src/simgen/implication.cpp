#include "simgen/implication.hpp"

#include <bit>
#include <memory>
#include <vector>

namespace simgen::core {
namespace {

/// What one examination of a node implies: a conflict, or the values to
/// assign — the output (if implied) first, then the fanin positions of
/// fanin_mask in ascending order, each to its bit in fanin_bits.
struct LocalImplication {
  bool conflict = false;
  bool output_implied = false;
  bool output_value = false;
  std::uint32_t fanin_mask = 0;
  std::uint32_t fanin_bits = 0;
};

/// The row scan: the one definition of what an examination implies.
/// The local assignment becomes two bitmasks (assigned fanin positions,
/// and which of those carry 1), so every row tests in a couple of bitwise
/// ops: a row matches iff no assigned literal contradicts it and the
/// output agrees.
LocalImplication scan_rows(const std::vector<Row>& rows, const NodeValues& values,
                           std::span<const net::NodeId> fanins, TVal out,
                           ImplicationStrategy strategy) {
  std::uint32_t assigned_mask = 0;
  std::uint32_t value_bits = 0;
  for (unsigned v = 0; v < fanins.size(); ++v) {
    const TVal value = values.get(fanins[v]);
    if (value == TVal::kUnknown) continue;
    assigned_mask |= 1u << v;
    if (value == TVal::kOne) value_bits |= 1u << v;
  }

  // One scan accumulates everything both strategies need: the match
  // count, the last matching row, and the agreement summary (common
  // literal mask, polarity differences, output agreement).
  std::size_t match_count = 0;
  const Row* last_match = nullptr;
  std::uint32_t common_mask = ~0u;
  std::uint32_t first_bits = 0;
  std::uint32_t polarity_diff = 0;
  bool outputs_agree = true;
  bool first_output = false;
  for (const Row& row : rows) {
    if (out != TVal::kUnknown && out != tval_of(row.output)) continue;
    if ((row.cube.mask & assigned_mask) & (row.cube.bits ^ value_bits)) continue;
    if (match_count == 0) {
      first_bits = row.cube.bits;
      first_output = row.output;
    } else {
      polarity_diff |= row.cube.bits ^ first_bits;
      if (row.output != first_output) outputs_agree = false;
    }
    common_mask &= row.cube.mask;
    last_match = &row;
    ++match_count;
  }

  LocalImplication result;
  if (match_count == 0) {
    // Zero matching rows: the assignment contradicts this node's
    // function — the conflict Algorithm 1's compareVals reports.
    result.conflict = true;
    return result;
  }

  if (strategy == ImplicationStrategy::kSimple) {
    // Definition 2.2: imply only from a uniquely matching row.
    if (match_count != 1) return result;
    result.output_implied = out == TVal::kUnknown;
    result.output_value = last_match->output;
    result.fanin_mask = last_match->cube.mask & ~assigned_mask;
    result.fanin_bits = last_match->cube.bits & result.fanin_mask;
    return result;
  }

  // Advanced implication (Definition 4.1): assign every value all
  // matching rows agree on; positions they disagree on stay unknown.
  // Agreement on input v = every matching row has a literal on v
  // (common_mask) with one polarity (no polarity_diff).
  result.output_implied = out == TVal::kUnknown && outputs_agree;
  result.output_value = first_output;
  std::uint32_t agreed = common_mask & ~polarity_diff & ~assigned_mask;
  agreed &= (fanins.size() >= 32) ? ~0u : ((1u << fanins.size()) - 1u);
  result.fanin_mask = agreed;
  result.fanin_bits = first_bits & agreed;
  return result;
}

// Outcome-table entry: 16 bits, zero = not yet filled.
constexpr std::uint16_t kFilled = 1u << 0;
constexpr std::uint16_t kConflict = 1u << 1;
constexpr std::uint16_t kOutputImplied = 1u << 2;
constexpr std::uint16_t kOutputValue = 1u << 3;
constexpr unsigned kMaskShift = 4;
constexpr unsigned kBitsShift = 10;

std::uint16_t encode(const LocalImplication& local) {
  std::uint32_t entry = kFilled;
  if (local.conflict) entry |= kConflict;
  if (local.output_implied) entry |= kOutputImplied;
  if (local.output_value) entry |= kOutputValue;
  entry |= local.fanin_mask << kMaskShift;
  entry |= local.fanin_bits << kBitsShift;
  return static_cast<std::uint16_t>(entry);
}

LocalImplication decode(std::uint16_t entry) {
  LocalImplication local;
  local.conflict = (entry & kConflict) != 0;
  local.output_implied = (entry & kOutputImplied) != 0;
  local.output_value = (entry & kOutputValue) != 0;
  local.fanin_mask = (entry >> kMaskShift) & 0x3fu;
  local.fanin_bits = (entry >> kBitsShift) & 0x3fu;
  return local;
}

constexpr std::uint32_t pow3(unsigned exponent) {
  std::uint32_t result = 1;
  while (exponent-- > 0) result *= 3;
  return result;
}

}  // namespace

FlatAdjacency::FlatAdjacency(const net::Network& network)
    : is_lut_(network.num_nodes(), 0) {
  fanin_start_.reserve(network.num_nodes() + 1);
  fanout_start_.reserve(network.num_nodes() + 1);
  fanin_start_.push_back(0);
  fanout_start_.push_back(0);
  network.for_each_node([&](net::NodeId node) {
    const auto fanins = network.fanins(node);
    fanins_.insert(fanins_.end(), fanins.begin(), fanins.end());
    fanin_start_.push_back(static_cast<std::uint32_t>(fanins_.size()));
    for (net::NodeId fanout : network.fanouts(node))
      if (network.is_lut(fanout)) fanouts_.push_back(fanout);
    fanout_start_.push_back(static_cast<std::uint32_t>(fanouts_.size()));
    is_lut_[node] = network.is_lut(node) ? 1 : 0;
  });
}

ImplicationEngine::ImplicationEngine(const net::Network& network,
                                     const RowDatabase& rows)
    : network_(network),
      rows_(rows),
      adjacency_(network),
      queued_(network.num_nodes(), 0) {
  for (auto& tables : node_table_) tables.assign(network.num_nodes(), nullptr);
}

std::uint16_t* ImplicationEngine::table_of(net::NodeId node,
                                           ImplicationStrategy strategy) {
  const std::size_t s = strategy == ImplicationStrategy::kAdvanced ? 1 : 0;
  const tt::TruthTable& function = network_.node(node).function;
  const unsigned k = function.num_vars();
  auto& owned = tables_[s][k][function.words()[0]];
  if (owned == nullptr) owned = std::make_unique<std::uint16_t[]>(pow3(k + 1));
  node_table_[s][node] = owned.get();
  return owned.get();
}

ImplicationOutcome ImplicationEngine::run(NodeValues& values,
                                          std::span<const net::NodeId> seeds,
                                          ImplicationStrategy strategy) {
  ImplicationOutcome outcome;
  if (strategy == ImplicationStrategy::kNone) return outcome;

  queue_.clear();
  std::size_t head = 0;
  const auto push = [&](net::NodeId node) {
    if (queued_[node]) return;
    queued_[node] = 1;
    queue_.push_back(node);
  };
  const auto enqueue_affected = [&](net::NodeId node) {
    if (adjacency_.is_lut(node)) push(node);
    for (net::NodeId fanout : adjacency_.lut_fanouts(node)) push(fanout);
  };
  for (net::NodeId seed : seeds) enqueue_affected(seed);
  const auto& node_tables =
      node_table_[strategy == ImplicationStrategy::kAdvanced ? 1 : 0];

  // Assigns a value and schedules every node whose row matching could
  // change: the assigned node itself and all of its LUT fanouts.
  const auto assign = [&](net::NodeId node, TVal value) {
    values.assign(node, value);
    ++outcome.assignments;
    enqueue_affected(node);
  };

  // Leaves queued_ flags consistent when returning early on conflict.
  const auto drain_flags = [&] {
    for (std::size_t i = head; i < queue_.size(); ++i) queued_[queue_[i]] = 0;
  };

  while (head < queue_.size()) {
    const net::NodeId node = queue_[head++];
    queued_[node] = 0;
    ++outcome.nodes_examined;
    const auto fanins = adjacency_.fanins(node);
    const TVal out = values.get(node);

    LocalImplication local;
    if (fanins.size() <= kMaxTableInputs) {
      // Table index: the packed ternary state, fanin v as digit v and
      // the output as digit k (TVal's 0/1/X encoding is the digit).
      std::uint32_t index = 0;
      std::uint32_t weight = 1;
      for (net::NodeId fanin : fanins) {
        index += static_cast<std::uint32_t>(values.get(fanin)) * weight;
        weight *= 3;
      }
      index += static_cast<std::uint32_t>(out) * weight;
      std::uint16_t* table = node_tables[node];
      if (table == nullptr) table = table_of(node, strategy);
      std::uint16_t& entry = table[index];
      if (entry == 0) {
        entry = encode(scan_rows(rows_.rows(node), values, fanins, out, strategy));
        ++outcome.table_fills;
      }
      if (entry == kFilled) continue;  // implies nothing: the common case
      local = decode(entry);
    } else {
      local = scan_rows(rows_.rows(node), values, fanins, out, strategy);
    }

    if (local.conflict) {
      outcome.conflict = true;
      outcome.conflict_node = node;
      drain_flags();
      return outcome;
    }
    if (local.output_implied) assign(node, tval_of(local.output_value));
    std::uint32_t to_assign = local.fanin_mask;
    while (to_assign != 0) {
      const unsigned v = static_cast<unsigned>(std::countr_zero(to_assign));
      to_assign &= to_assign - 1;
      // A fanin listed twice may already have been assigned through its
      // other position in this examination.
      if (!values.is_assigned(fanins[v]))
        assign(fanins[v], tval_of((local.fanin_bits >> v) & 1u));
    }
  }
  return outcome;
}

ImplicationOutcome run_implications(const net::Network& network,
                                    const RowDatabase& rows, NodeValues& values,
                                    std::span<const net::NodeId> seeds,
                                    ImplicationStrategy strategy) {
  ImplicationEngine engine(network, rows);
  return engine.run(values, seeds, strategy);
}

ImplicationOutcome run_implications(const net::Network& network,
                                    const RowDatabase& rows, NodeValues& values,
                                    net::NodeId seed, ImplicationStrategy strategy) {
  return run_implications(network, rows, values, std::span(&seed, 1), strategy);
}

}  // namespace simgen::core

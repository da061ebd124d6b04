/// \file implication.hpp
/// \brief Implication engines: simple (Def. 2.2) and advanced (Def. 4.1).
///
/// Implication deduces forced values from the current partial assignment
/// and the nodes' functions, both backward (output to inputs) and forward
/// (inputs to output), independent of node levels — the generalization the
/// paper makes over classic reverse simulation.
///
/// * Simple implication fires only when exactly one row of a node matches
///   the current assignment; it then assigns that row's values.
/// * Advanced implication fires when several rows match but agree on some
///   value: every agreed value is assigned, disagreeing positions stay X.
///   (One matching row is the degenerate agreeing case, so advanced
///   subsumes simple.)
///
/// A node with zero matching rows is the conflict the paper's compareVals
/// detects: the partial assignment contradicts the node's function.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "network/network.hpp"
#include "simgen/rows.hpp"
#include "simgen/tval.hpp"

namespace simgen::core {

enum class ImplicationStrategy : std::uint8_t {
  kNone,      ///< Do not imply at all (used by ablations).
  kSimple,    ///< Definition 2.2: single-matching-row implication.
  kAdvanced,  ///< Definition 4.1: agreed-value implication.
};

/// Outcome of an implication fixpoint run.
struct ImplicationOutcome {
  bool conflict = false;
  net::NodeId conflict_node = net::kNullNode;  ///< Node with zero matching rows.
  std::size_t assignments = 0;                  ///< Values newly assigned.
  std::size_t nodes_examined = 0;
  std::size_t table_fills = 0;  ///< Outcome-table misses filled by a row scan.
};

/// Compressed-sparse-row copy of the adjacency implication walks: the
/// fanins of every node, its fanouts that are LUTs (in fanout order), and
/// a LUT flag. Built once per engine so the hot loop reads small dense
/// arrays instead of whole net::Node records.
class FlatAdjacency {
 public:
  explicit FlatAdjacency(const net::Network& network);

  [[nodiscard]] std::span<const net::NodeId> fanins(net::NodeId node) const {
    return {fanins_.data() + fanin_start_[node],
            fanin_start_[node + 1] - fanin_start_[node]};
  }
  [[nodiscard]] std::span<const net::NodeId> lut_fanouts(net::NodeId node) const {
    return {fanouts_.data() + fanout_start_[node],
            fanout_start_[node + 1] - fanout_start_[node]};
  }
  [[nodiscard]] bool is_lut(net::NodeId node) const { return is_lut_[node] != 0; }

 private:
  std::vector<std::uint32_t> fanin_start_;
  std::vector<net::NodeId> fanins_;
  std::vector<std::uint32_t> fanout_start_;
  std::vector<net::NodeId> fanouts_;
  std::vector<std::uint8_t> is_lut_;
};

/// Implication engine with persistent scratch buffers. Algorithm 1 calls
/// implication once per decision, thousands of times per vector batch;
/// reusing the worklist storage keeps that loop allocation-free.
///
/// What one examination of a node implies depends only on the ternary
/// values of its fanins and output. For nodes with at most
/// kMaxTableInputs fanins that outcome is memoized in a lazily filled
/// table shared by every node with the same truth table (DESIGN.md,
/// "Table-driven implication"); wider nodes scan their rows each time.
class ImplicationEngine {
 public:
  static constexpr unsigned kMaxTableInputs = 6;

  ImplicationEngine(const net::Network& network, const RowDatabase& rows);

  /// Runs implications to fixpoint starting from \p seeds (nodes whose
  /// value or surroundings just changed). Propagation spreads to fanins
  /// and fanouts of every node that receives a value. Conflicts leave
  /// \p values dirty; the caller rolls back via its own mark (Algorithm 1
  /// line 12).
  ImplicationOutcome run(NodeValues& values, std::span<const net::NodeId> seeds,
                         ImplicationStrategy strategy);

  [[nodiscard]] const FlatAdjacency& adjacency() const noexcept { return adjacency_; }

 private:
  /// Finds \p node's outcome table for \p strategy, allocating it on the
  /// first node with that truth table, and caches it in node_table_.
  std::uint16_t* table_of(net::NodeId node, ImplicationStrategy strategy);

  const net::Network& network_;
  const RowDatabase& rows_;
  FlatAdjacency adjacency_;
  std::vector<std::uint8_t> queued_;
  std::vector<net::NodeId> queue_;

  /// Per strategy (simple, advanced) and input count k: the outcome
  /// table of each truth table (keyed by its one word), 3^(k+1) entries.
  /// Tables are separate blocks so growth never copies or doubles them.
  std::array<std::array<std::unordered_map<std::uint64_t,
                                           std::unique_ptr<std::uint16_t[]>>,
                        kMaxTableInputs + 1>,
             2>
      tables_;
  /// Per strategy: each node's table once looked up, else null.
  std::array<std::vector<std::uint16_t*>, 2> node_table_;
};

/// One-shot convenience wrappers (tests, small callers).
ImplicationOutcome run_implications(const net::Network& network,
                                    const RowDatabase& rows, NodeValues& values,
                                    std::span<const net::NodeId> seeds,
                                    ImplicationStrategy strategy);
ImplicationOutcome run_implications(const net::Network& network,
                                    const RowDatabase& rows, NodeValues& values,
                                    net::NodeId seed, ImplicationStrategy strategy);

}  // namespace simgen::core

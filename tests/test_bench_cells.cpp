// Cell sharding: bench::for_each_cell runs whole (benchmark, strategy)
// flows on --threads threads, each flow on the sequential sweep engine,
// so every engine-level result must be independent of the thread count.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "obs/inspect.hpp"
#include "obs/journal.hpp"

namespace simgen {
namespace {

TEST(BenchCells, ResolvesThreadCounts) {
  EXPECT_EQ(bench::resolve_num_threads(1), 1u);
  EXPECT_EQ(bench::resolve_num_threads(7), 7u);
  EXPECT_GE(bench::resolve_num_threads(0), 1u) << "0 = auto, never zero";
}

TEST(BenchCells, RunsEveryCellExactlyOnce) {
  // 32 threads oversubscribe the 1000 cells' claim loop.
  constexpr std::size_t kCells = 1000;
  for (const unsigned threads : {1u, 2u, 4u, 32u}) {
    std::vector<std::atomic<int>> hits(kCells);
    bench::set_num_threads(threads);
    bench::for_each_cell(kCells, [&](std::size_t cell) {
      hits[cell].fetch_add(1, std::memory_order_relaxed);
    });
    bench::set_num_threads(1);
    for (std::size_t i = 0; i < kCells; ++i)
      ASSERT_EQ(hits[i].load(), 1)
          << "cell " << i << " at " << threads << " threads";
  }
}

TEST(BenchCells, EmptyBatchIsANoOp) {
  // Zero cells must call nothing at any thread count.
  for (const unsigned threads : {1u, 2u, 4u, 32u}) {
    std::atomic<bool> ran{false};
    bench::set_num_threads(threads);
    bench::for_each_cell(0, [&](std::size_t) { ran = true; });
    bench::set_num_threads(1);
    EXPECT_FALSE(ran.load()) << "at " << threads << " threads";
  }
}

TEST(BenchCells, PropagatesTheLowestFailingCell) {
  // Several cells throw; for_each_cell must rethrow the exception of the
  // lowest index, after every other cell ran, so failures are the same
  // under any schedule.
  constexpr std::size_t kCells = 200;
  std::vector<std::atomic<int>> hits(kCells);
  bench::set_num_threads(4);
  try {
    bench::for_each_cell(kCells, [&](std::size_t cell) {
      hits[cell].fetch_add(1, std::memory_order_relaxed);
      if (cell == 17 || cell == 42 || cell == 170)
        throw std::runtime_error("cell " + std::to_string(cell));
    });
    ADD_FAILURE() << "cells that throw must make for_each_cell throw";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "cell 17");
  }
  bench::set_num_threads(1);
  for (std::size_t i = 0; i < kCells; ++i)
    EXPECT_EQ(hits[i].load(), 1) << "cell " << i;
}

#ifndef SIMGEN_NO_TELEMETRY

constexpr core::Strategy kCellStrategies[] = {core::Strategy::kRevS,
                                              core::Strategy::kAiDcMffc};

std::vector<net::Network> cell_networks() {
  std::vector<net::Network> networks;
  for (const unsigned gates : {180u, 220u, 260u}) {
    benchgen::CircuitSpec spec;
    spec.name = "cells_" + std::to_string(gates);
    spec.num_pis = 14;
    spec.num_pos = 8;
    spec.num_gates = gates;
    spec.redundancy = 0.12;
    networks.push_back(benchgen::generate_mapped(spec));
  }
  return networks;
}

struct ShardedRun {
  obs::JournalReport report;
  std::vector<bench::FlowMetrics> metrics;  ///< Indexed by cell.
};

// Runs every (network, strategy) cell through for_each_cell on
// \p num_threads threads with the journal recording, and returns the
// aggregated report plus each cell's flow metrics.
ShardedRun run_sharded(const std::vector<net::Network>& networks,
                       unsigned num_threads) {
  const std::size_t num_strategies = std::size(kCellStrategies);
  ShardedRun run;
  run.metrics.resize(networks.size() * num_strategies);
  bench::FlowConfig config;
  config.guided_iterations = 4;
  config.run_sweep = true;

  const std::string path = ::testing::TempDir() + "/bench_cells_" +
                           std::to_string(num_threads) + ".jrnl";
  std::remove(path.c_str());
  EXPECT_TRUE(obs::Journal::instance().open(path));
  bench::set_num_threads(num_threads);
  bench::for_each_cell(run.metrics.size(), [&](std::size_t cell) {
    run.metrics[cell] = bench::run_strategy_flow(
        networks[cell / num_strategies],
        kCellStrategies[cell % num_strategies], config);
  });
  bench::set_num_threads(1);
  obs::Journal::instance().close();

  std::vector<obs::JournalEvent> events;
  std::string error;
  EXPECT_TRUE(obs::read_journal_file(path, events, &error)) << error;
  std::remove(path.c_str());
  run.report = obs::build_report(events, /*truncated=*/false);
  return run;
}

TEST(BenchCells, JournalTotalsAreThreadCountInvariant) {
  // Cells are independent: the engine-level journal totals and every
  // cell's counts depend only on the circuits, never on the thread count
  // or the interleaving.
  const std::vector<net::Network> networks = cell_networks();
  const ShardedRun two = run_sharded(networks, 2);
  const ShardedRun four = run_sharded(networks, 4);

  EXPECT_GT(two.report.sat_calls, 0u);
  EXPECT_EQ(two.report.sat_calls, four.report.sat_calls);
  EXPECT_EQ(two.report.sat_unsat, four.report.sat_unsat);
  EXPECT_EQ(two.report.class_merged, four.report.class_merged);
  EXPECT_EQ(two.report.certified_ok, four.report.certified_ok);
  EXPECT_EQ(two.report.certified_fail, four.report.certified_fail);
  for (std::size_t cell = 0; cell < two.metrics.size(); ++cell) {
    EXPECT_EQ(two.metrics[cell].cost, four.metrics[cell].cost) << cell;
    EXPECT_EQ(two.metrics[cell].sat_calls, four.metrics[cell].sat_calls)
        << cell;
    EXPECT_EQ(two.metrics[cell].proven, four.metrics[cell].proven) << cell;
    EXPECT_EQ(two.metrics[cell].disproven, four.metrics[cell].disproven)
        << cell;
  }
}

#endif  // SIMGEN_NO_TELEMETRY

}  // namespace
}  // namespace simgen

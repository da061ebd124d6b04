// Cell sharding: bench::for_each_cell runs whole (benchmark, strategy)
// flows on a worker pool, each flow on the sequential sweep engine, so
// every engine-level result must be independent of the pool width.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "obs/inspect.hpp"
#include "obs/journal.hpp"

namespace simgen {
namespace {

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

// Runs every (network, strategy) cell through for_each_cell on a pool of
// \p num_threads workers with the journal recording, and returns the
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

TEST(PoolProfiling, JournalTotalsAreThreadCountInvariant) {
  // Scheduler profiling is pure observation and cells are independent:
  // the engine-level journal totals and every cell's counts depend only
  // on the circuits, never on the worker count or the interleaving. Only
  // the scheduler's own shape (number of worker lanes) may differ.
  const std::vector<net::Network> networks = cell_networks();
  const ShardedRun two = run_sharded(networks, 2);
  const ShardedRun four = run_sharded(networks, 4);

  EXPECT_GT(two.report.sat_calls, 0u);
  EXPECT_EQ(two.report.sat_calls, four.report.sat_calls);
  EXPECT_EQ(two.report.sat_unsat, four.report.sat_unsat);
  EXPECT_EQ(two.report.class_merged, four.report.class_merged);
  EXPECT_EQ(two.report.certified_ok, four.report.certified_ok);
  EXPECT_EQ(two.report.certified_fail, four.report.certified_fail);
  EXPECT_EQ(two.report.task_runs, two.metrics.size())
      << "every cell must journal exactly one kTaskRun";
  EXPECT_EQ(two.report.task_runs, four.report.task_runs);
  for (std::size_t cell = 0; cell < two.metrics.size(); ++cell) {
    EXPECT_EQ(two.metrics[cell].cost, four.metrics[cell].cost) << cell;
    EXPECT_EQ(two.metrics[cell].sat_calls, four.metrics[cell].sat_calls)
        << cell;
    EXPECT_EQ(two.metrics[cell].proven, four.metrics[cell].proven) << cell;
    EXPECT_EQ(two.metrics[cell].disproven, four.metrics[cell].disproven)
        << cell;
  }

  // The profiling layer itself scales with the pool width.
  const auto expect_lanes = [](const obs::JournalReport& report,
                               unsigned width) {
    EXPECT_EQ(report.worker_stats, width);
    EXPECT_EQ(report.lanes.size(), width);
    std::uint64_t lane_tasks = 0;
    for (const auto& [worker, lane] : report.lanes) {
      EXPECT_LT(worker, width);
      EXPECT_TRUE(lane.has_stats) << "worker " << worker;
      EXPECT_EQ(lane.tasks_run, lane.stats_tasks)
          << "journaled cells on worker " << worker
          << " disagree with the pool's own per-worker count";
      lane_tasks += lane.tasks_run;
    }
    EXPECT_EQ(lane_tasks, report.task_runs)
        << "every cell must land on exactly one worker lane";
  };
  expect_lanes(two.report, 2);
  expect_lanes(four.report, 4);
}

#endif  // SIMGEN_NO_TELEMETRY

}  // namespace
}  // namespace simgen

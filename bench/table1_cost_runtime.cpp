/// \file table1_cost_runtime.cpp
/// \brief Regenerates paper Table 1: average normalized Cost and
/// Simulation Runtime of SI+RD, AI+RD, AI+DC, and AI+DC+MFFC relative to
/// reverse simulation (RevS), over the 42-benchmark suite.
///
/// Methodology (paper Section 6.1-6.2): each benchmark is 6-LUT-mapped,
/// gets one round of random simulation, then 20 iterations of the guided
/// strategy; Cost is Equation 5 over the resulting classes. Values are
/// normalized per benchmark against RevS and averaged.
#include <array>
#include <cstdio>
#include <map>
#include <vector>

#include "bench_common.hpp"

using namespace simgen;

int main(int argc, char** argv) {
  simgen::bench::TelemetryCli telemetry(argc, argv);
  // Table 1 always covers the whole suite; a circuit name or a stale
  // option is a usage error, not a request to run all 42 circuits.
  if (argc > 1) {
    std::fprintf(stderr, "error: unexpected argument '%s'\n", argv[1]);
    std::fprintf(stderr,
                 "usage: %s [--threads N] [--bench-json-dir DIR]\n"
                 "       (plus the telemetry flags --trace-out, --metrics-out,"
                 " --journal-out,\n"
                 "        --progress, --timeout, --no-inprocess)\n",
                 argv[0]);
    return 2;
  }
  const auto suite = benchgen::benchmark_suite();
  std::map<core::Strategy, std::vector<double>> cost_ratios;
  std::map<core::Strategy, std::vector<double>> runtime_ratios;
  constexpr std::array<core::Strategy, 4> kArms{
      core::Strategy::kSiRd, core::Strategy::kAiRd, core::Strategy::kAiDc,
      core::Strategy::kAiDcMffc};

  std::printf("Table 1: cost and simulation runtime, normalized to RevS\n");
  std::printf("(42 benchmarks, 1 random round, 20 guided iterations)\n\n");
  std::printf("%-10s %10s %10s | %-7s", "benchmark", "RevS cost", "RevS sim(s)",
              "arm");
  std::printf("  %10s %12s\n", "cost/RevS", "sim/RevS");

  struct Cell {
    bench::FlowMetrics baseline;
    std::array<bench::FlowMetrics, 4> arms;
  };
  std::vector<Cell> cells(suite.size());
  bench::for_each_cell(suite.size(), [&](std::size_t i) {
    const net::Network network = bench::prepare_benchmark(suite[i].name);
    bench::FlowConfig config;
    cells[i].baseline =
        bench::run_strategy_flow(network, core::Strategy::kRevS, config);
    for (std::size_t a = 0; a < kArms.size(); ++a)
      cells[i].arms[a] = bench::run_strategy_flow(network, kArms[a], config);
  });

  for (std::size_t i = 0; i < suite.size(); ++i) {
    const bench::FlowMetrics& baseline = cells[i].baseline;
    std::printf("%-10s %10llu %10.4f |\n", suite[i].name.c_str(),
                static_cast<unsigned long long>(baseline.cost),
                baseline.sim_seconds);

    for (std::size_t a = 0; a < kArms.size(); ++a) {
      const bench::FlowMetrics& metrics = cells[i].arms[a];
      const core::Strategy strategy = kArms[a];
      const double cost_ratio = bench::ratio(static_cast<double>(metrics.cost),
                                             static_cast<double>(baseline.cost));
      const double runtime_ratio =
          bench::ratio(metrics.sim_seconds, baseline.sim_seconds);
      cost_ratios[strategy].push_back(cost_ratio);
      runtime_ratios[strategy].push_back(runtime_ratio);
      std::printf("%34s | %-7s  %10.3f %12.3f\n", "",
                  std::string(core::strategy_name(strategy)).c_str(), cost_ratio,
                  runtime_ratio);
    }
  }

  const auto average = [](const std::vector<double>& values) {
    double total = 0.0;
    for (const double v : values) total += v;
    return values.empty() ? 0.0 : total / static_cast<double>(values.size());
  };

  std::printf("\n==== Table 1 (averages over %zu benchmarks, RevS = 1.000) ====\n",
              suite.size());
  std::printf("%-22s %10s %10s %10s %10s %10s\n", "", "RevS", "SI+RD", "AI+RD",
              "AI+DC", "AI+DC+MFFC");
  std::printf("%-22s %10.3f", "Cost", 1.0);
  for (const core::Strategy strategy :
       {core::Strategy::kSiRd, core::Strategy::kAiRd, core::Strategy::kAiDc,
        core::Strategy::kAiDcMffc})
    std::printf(" %10.3f", average(cost_ratios[strategy]));
  std::printf("\n%-22s %10.3f", "Simulation Runtime", 1.0);
  for (const core::Strategy strategy :
       {core::Strategy::kSiRd, core::Strategy::kAiRd, core::Strategy::kAiDc,
        core::Strategy::kAiDcMffc})
    std::printf(" %10.3f", average(runtime_ratios[strategy]));
  std::printf("\n\nPaper reference: cost 0.814 / 0.812 / 0.810 / 0.807;\n");
  std::printf("runtime 1.204 / 1.263 / 1.262 / 1.130 (see EXPERIMENTS.md).\n");
  return 0;
}

#include "bench_common.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <system_error>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/resource.hpp"
#include "util/stopwatch.hpp"

namespace simgen::bench {

namespace {

std::string& json_dir_storage() {
  static std::string dir = [] {
    const char* env = std::getenv("SIMGEN_BENCH_JSON_DIR");
    return std::string(env != nullptr ? env : "");
  }();
  return dir;
}

/// Filename-safe strategy tag: "AI+DC+MFFC" -> "AI_DC_MFFC".
std::string strategy_tag(core::Strategy strategy) {
  std::string tag(core::strategy_name(strategy));
  for (char& c : tag)
    if (c == '+' || c == '/' || c == ' ') c = '_';
  return tag;
}

double& progress_interval_storage() {
  static double seconds = 0.0;
  return seconds;
}

unsigned& num_threads_storage() {
  static unsigned threads = 1;
  return threads;
}

bool& inprocess_storage() {
  static bool enabled = true;
  return enabled;
}

}  // namespace

void set_progress_interval(double seconds) {
  progress_interval_storage() = seconds;
}

double progress_interval() { return progress_interval_storage(); }

void set_num_threads(unsigned num_threads) {
  num_threads_storage() = num_threads;
}

unsigned num_threads() { return num_threads_storage(); }

void set_inprocess(bool enabled) { inprocess_storage() = enabled; }

bool inprocess() { return inprocess_storage(); }

unsigned resolve_num_threads(unsigned requested) noexcept {
  if (requested != 0) return requested;
  const unsigned hardware = std::thread::hardware_concurrency();
  return hardware == 0 ? 1 : hardware;
}

void for_each_cell(std::size_t count,
                   const std::function<void(std::size_t)>& fn) {
  const std::size_t threads =
      std::min<std::size_t>(resolve_num_threads(num_threads()), count);
  if (threads <= 1) {
    for (std::size_t i = 0; i < count; ++i) fn(i);
    return;
  }
  // Each thread claims the next unclaimed index until none is left. A
  // failing cell records its exception in its own slot and the loop goes
  // on, so every other cell still runs and the rethrown failure does not
  // depend on the schedule.
  std::atomic<std::size_t> next{0};
  std::vector<std::exception_ptr> errors(count);
  const auto claim_cells = [&] {
    for (std::size_t i = next.fetch_add(1); i < count; i = next.fetch_add(1)) {
      try {
        fn(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) workers.emplace_back(claim_cells);
  for (std::thread& worker : workers) worker.join();
  for (const std::exception_ptr& error : errors)
    if (error) std::rethrow_exception(error);
}

void set_bench_json_dir(std::string dir) { json_dir_storage() = std::move(dir); }

const std::string& bench_json_dir() { return json_dir_storage(); }

bool write_flow_metrics_json(const FlowMetrics& metrics) {
  const std::string& dir = bench_json_dir();
  if (dir.empty()) return true;
  const std::string path = dir + "/BENCH_" + metrics.benchmark + "__" +
                           strategy_tag(metrics.strategy) + ".json";
  std::ofstream out(path);
  if (!out) return false;
  out.precision(15);
  out << "{\n"
      << "  \"benchmark\": \"" << obs::detail::json_escape(metrics.benchmark)
      << "\",\n"
      << "  \"strategy\": \"" << core::strategy_name(metrics.strategy)
      << "\",\n"
      << "  \"cost_after_random\": " << metrics.cost_after_random << ",\n"
      << "  \"cost\": " << metrics.cost << ",\n"
      << "  \"sim_seconds\": " << metrics.sim_seconds << ",\n"
      << "  \"sim_wall_seconds\": " << metrics.sim_wall_seconds << ",\n"
      << "  \"sat_calls\": " << metrics.sat_calls << ",\n"
      << "  \"sat_seconds\": " << metrics.sat_seconds << ",\n"
      << "  \"sat_wall_seconds\": " << metrics.sat_wall_seconds << ",\n"
      << "  \"sat_conflicts\": " << metrics.sat_conflicts << ",\n"
      << "  \"sat_propagations\": " << metrics.sat_propagations << ",\n"
      << "  \"sat_restarts\": " << metrics.sat_restarts << ",\n"
      << "  \"inprocess_runs\": " << metrics.inprocess_runs << ",\n"
      << "  \"proven\": " << metrics.proven << ",\n"
      << "  \"disproven\": " << metrics.disproven << ",\n"
      << "  \"unresolved\": " << metrics.unresolved << ",\n"
      << "  \"num_threads\": " << metrics.num_threads << ",\n"
      << "  \"wall_seconds\": " << metrics.wall_seconds << ",\n"
      << "  \"peak_rss_mb\": " << metrics.peak_rss_mb << "\n"
      << "}\n";
  return out.good();
}

TelemetryCli::TelemetryCli(int& argc, char** argv) : cli_(argc, argv) {
  // The generic flags are already stripped; pick off the bench-only
  // flags and forward the heartbeat interval into the flow runner.
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--bench-json-dir") == 0 && i + 1 < argc) {
      set_bench_json_dir(argv[++i]);
      continue;
    }
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      // Hard cap far above any sane request: a typo'd or negative value
      // must become a usage error, not 4 billion spawned threads.
      constexpr long kMaxThreads = 1024;
      const char* number = argv[++i];
      char* end = nullptr;
      const long value = std::strtol(number, &end, 10);
      if (end == number || *end != '\0' || value < 0 || value > kMaxThreads) {
        std::fprintf(stderr,
                     "error: --threads expects an integer in [0, %ld] "
                     "(0 = auto), got '%s'\n",
                     kMaxThreads, number);
        std::exit(2);
      }
      set_num_threads(static_cast<unsigned>(value));
      continue;
    }
    argv[out++] = argv[i];
  }
  argc = out;
  // Create the BENCH json directory up front: a missing directory would
  // otherwise fail every write of the run.
  if (const std::string& dir = bench_json_dir(); !dir.empty()) {
    std::error_code error;
    std::filesystem::create_directories(dir, error);
    if (error || !std::filesystem::is_directory(dir)) {
      std::fprintf(stderr, "error: cannot create BENCH json directory '%s'%s%s\n",
                   dir.c_str(), error ? ": " : "",
                   error ? error.message().c_str() : "");
      std::exit(2);
    }
  }
  set_progress_interval(cli_.progress_interval());
  set_inprocess(cli_.inprocess());
}

FlowMetrics run_strategy_flow(const net::Network& network, core::Strategy strategy,
                              const FlowConfig& config) {
  util::Stopwatch flow_watch;
  flow_watch.start();
  FlowMetrics metrics;
  metrics.benchmark = network.name();
  metrics.strategy = strategy;

  sim::Simulator simulator(network);
  sim::EquivClasses classes = sim::EquivClasses::over_luts(network);

  sim::RandomSimOptions random_options;
  random_options.max_rounds = config.random_rounds;
  random_options.seed = config.seed;
  sim::run_random_simulation(simulator, classes, random_options);
  metrics.cost_after_random = classes.cost();

  core::GuidedSimOptions guided;
  guided.strategy = strategy;
  guided.iterations = config.guided_iterations;
  guided.seed = config.seed;
  guided.max_targets_per_class = config.max_targets_per_class;
  const core::GuidedSimResult guided_result =
      core::run_guided_simulation(simulator, classes, guided);
  metrics.cost = classes.cost();
  metrics.sim_seconds = guided_result.runtime_seconds;

  metrics.num_threads = num_threads();
  if (config.run_sweep) {
    sweep::SweepOptions sweep_options;
    sweep_options.seed = config.seed;
    sweep_options.conflict_limit = config.sat_conflict_limit;
    sweep_options.progress_interval = progress_interval();
    sweep_options.inprocess = inprocess();
    sweep::Sweeper sweeper(network, sweep_options);
    const sweep::SweepResult sweep_result = sweeper.run(classes, simulator);
    metrics.sat_calls = sweep_result.sat_calls;
    metrics.sat_seconds = sweep_result.sat_seconds;
    metrics.proven = sweep_result.proven_equivalent;
    metrics.disproven = sweep_result.disproven;
    metrics.unresolved = sweep_result.unresolved;
    // SAT hardness rollups from this flow's own sweep, over every solver
    // it built — the registry totals would mix in concurrently sharded
    // cells.
    metrics.sat_wall_seconds = sweep_result.sat_seconds;
    metrics.sat_conflicts = sweep_result.sat_conflicts;
    metrics.sat_propagations = sweep_result.sat_propagations;
    metrics.sat_restarts = sweep_result.sat_restarts;
    metrics.inprocess_runs = sweep_result.inprocess_runs;
  }
  flow_watch.stop();
  metrics.wall_seconds = flow_watch.seconds();
  // Kernel-only simulation wall time accumulated across every phase that
  // touched this flow's simulator (random, guided, cex resimulation).
  metrics.sim_wall_seconds = simulator.kernel_seconds();
  // Peak RSS at flow end; reads 0 under SIMGEN_NO_TELEMETRY, keeping the
  // JSON schema identical in both builds.
  metrics.peak_rss_mb =
      static_cast<double>(obs::sample_resources().peak_rss_kb) / 1024.0;
  // A run asked for BENCH json must not succeed without it: the
  // exception ends the program with a non-zero status.
  if (!write_flow_metrics_json(metrics))
    throw std::runtime_error("cannot write BENCH json for " + metrics.benchmark +
                             " under '" + bench_json_dir() + "'");
  return metrics;
}

net::Network prepare_benchmark(const std::string& name) {
  const benchgen::CircuitSpec* spec = benchgen::find_benchmark(name);
  if (spec == nullptr) throw std::invalid_argument("unknown benchmark " + name);
  return benchgen::generate_mapped(*spec);
}

net::Network prepare_stacked(const benchgen::StackedSpec& spec,
                             double gate_scale) {
  const benchgen::CircuitSpec* base = benchgen::find_benchmark(std::string(spec.base));
  if (base == nullptr)
    throw std::invalid_argument("unknown benchmark " + std::string(spec.base));
  benchgen::CircuitSpec scaled = *base;
  scaled.num_gates = std::max<unsigned>(
      64, static_cast<unsigned>(static_cast<double>(base->num_gates) * gate_scale));
  net::Network network = mapping::map_to_luts(
      aig::put_on_top(benchgen::generate_circuit(scaled), spec.copies));
  network.set_name(std::string(spec.base) + "x" + std::to_string(spec.copies));
  return network;
}

double ratio(double value, double baseline) {
  if (baseline == 0.0) return value == 0.0 ? 1.0 : 0.0;
  return value / baseline;
}

}  // namespace simgen::bench

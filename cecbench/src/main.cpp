/// \file main.cpp
/// \brief Benchmark driver: builds a workload's inputs from a seed, runs
/// its operations untraced for the end-to-end metrics (--trace 0) or once
/// untraced and once traced for the per-layer metrics (--trace 1), checks
/// every answer against the one known by construction, and prints one
/// JSON result line last.
///
///   cecbench --workload cec_guided|cec_sat|table2_flow --seed N
///            --seconds S --trace 0|1 [--trace-out spans.json]
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "checks.hpp"
#include "inputs.hpp"
#include "ops.hpp"
#include "sim/pattern_block.hpp"

namespace {

using namespace cecbench;
using Clock = std::chrono::steady_clock;

// Set-up repeats at least kMinSetupReps times and until kSetupSeconds
// of set-up calls have been timed (at most kMaxSetupReps times).
constexpr int kMinSetupReps = 3;
constexpr int kMaxSetupReps = 9;
constexpr double kSetupSeconds = 3.0;
constexpr double kOpDeadlineSeconds = 120.0;
constexpr std::size_t kPairCheckWords = 4;

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double ratio(double part, double whole) { return whole == 0.0 ? 0.0 : part / whole; }

/// Ends the process if one operation outlives kOpDeadlineSeconds: a hang
/// is a failure, and the result line is never printed for it.
class Watchdog {
 public:
  Watchdog() : thread_([this] { watch(); }) {}
  ~Watchdog() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      stop_ = true;
    }
    wake_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  void begin(std::string label) {
    const std::lock_guard<std::mutex> lock(mutex_);
    label_ = std::move(label);
    start_ = Clock::now();
    armed_ = true;
  }
  void end() {
    const std::lock_guard<std::mutex> lock(mutex_);
    armed_ = false;
  }

 private:
  void watch() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (!stop_) {
      wake_.wait_for(lock, std::chrono::milliseconds(200), [this] { return stop_; });
      if (armed_ && since(start_) > kOpDeadlineSeconds) {
        std::fprintf(stderr, "cecbench: operation %s exceeded its %.0f s deadline\n",
                     label_.c_str(), kOpDeadlineSeconds);
        std::fflush(stderr);
        std::_Exit(3);
      }
    }
  }

  std::mutex mutex_;
  std::condition_variable wake_;
  std::string label_;
  Clock::time_point start_{};
  bool armed_ = false;
  bool stop_ = false;
  std::thread thread_;  // Last: starts after the members it reads.
};

struct Args {
  Workload workload = Workload::kCecGuided;
  std::uint64_t seed = 0;
  double seconds = 15.0;
  bool trace = false;
  std::string trace_out;
};

bool parse_args(int argc, char** argv, Args& args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      const auto workload = parse_workload(value);
      if (!workload) return false;
      args.workload = *workload;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1;
}

/// One operation of a pass: a CEC input or a (circuit, strategy) flow.
struct Op {
  std::string label;
  const CecInput* cec = nullptr;
  const FlowInput* flow = nullptr;
  sg::core::Strategy strategy = sg::core::Strategy::kAiDcMffc;
};

std::vector<Op> make_ops(const WorkloadInputs& inputs) {
  std::vector<Op> ops;
  for (const CecInput& input : inputs.cec) ops.push_back({input.name, &input, nullptr, {}});
  for (const FlowInput& flow : inputs.flows)
    for (sg::core::Strategy strategy :
         {sg::core::Strategy::kRevS, sg::core::Strategy::kAiDcMffc})
      ops.push_back({flow.name + "/" + std::string(sg::core::strategy_name(strategy)),
                     nullptr, &flow, strategy});
  return ops;
}

/// The output a counterexample exposes on the op's source AIGs.
std::optional<std::size_t> cex_output(const Op& op, const Outcome& outcome) {
  if (op.cec == nullptr || outcome.counterexample.empty()) return std::nullopt;
  return first_differing_output(op.cec->golden, op.cec->revised, outcome.counterexample);
}

/// True iff \p outcome is the answer known for \p op.
bool correct(const Op& op, const Outcome& outcome, std::uint64_t seed) {
  if (!outcome.completed) return false;
  if (op.flow != nullptr)
    return pairs_agree(op.flow->network, outcome.proven_pairs, seed, kPairCheckWords);
  if (outcome.undecided) return false;
  if (op.cec->equivalent) return outcome.equivalent;
  return !outcome.equivalent && cex_output(op, outcome) == op.cec->bug.output;
}

struct Pass {
  std::vector<Outcome> outcomes;
  std::vector<bool> ok;  ///< Per op: the known answer, reproduced.
  double wall = 0.0;     ///< Summed wall time of the operations alone.
  [[nodiscard]] std::size_t failed() const {
    return static_cast<std::size_t>(std::count(ok.begin(), ok.end(), false));
  }
};

Pass run_pass(const std::vector<Op>& ops, Workload workload, std::uint64_t seed,
              Watchdog& watchdog, Tracer* tracer, Counts* counts) {
  Pass pass;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    Outcome outcome;
    watchdog.begin(op.label);
    if (tracer != nullptr) tracer->begin_op(static_cast<std::uint32_t>(i));
    const auto start = Clock::now();
    try {
      if (op.flow != nullptr)
        outcome = run_flow(*op.flow, op.strategy, tracer, counts);
      else if (tracer != nullptr)
        outcome = run_cec_traced(*op.cec, workload == Workload::kCecGuided, *tracer, *counts);
      else
        outcome = run_cec(*op.cec, workload == Workload::kCecGuided);
    } catch (const std::exception& error) {
      outcome = Outcome{};
      outcome.error = error.what();
    }
    outcome.seconds = since(start);
    watchdog.end();
    pass.wall += outcome.seconds;
    pass.ok.push_back(correct(op, outcome, seed));
    if (!pass.ok.back())
      std::fprintf(stderr, "cecbench: wrong answer on %s%s%s\n", op.label.c_str(),
                   outcome.error.empty() ? "" : ": ", outcome.error.c_str());
    if (op.cec != nullptr)
      std::printf("  %-12s %8.3f s  sat_calls %llu\n", op.label.c_str(), outcome.seconds,
                  static_cast<unsigned long long>(outcome.sweep_calls + outcome.output_calls));
    pass.outcomes.push_back(std::move(outcome));
  }
  return pass;
}

/// Marks as failed every op of \p pass whose answer differs from the one
/// \p reference gave: repeated and traced runs must reproduce it exactly.
void check_reproduced(const std::vector<Op>& ops, const Pass& reference, Pass& pass) {
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Outcome& a = reference.outcomes[i];
    const Outcome& b = pass.outcomes[i];
    if (same_answer(a, b, cex_output(ops[i], a), cex_output(ops[i], b))) continue;
    std::fprintf(stderr, "cecbench: %s not reproduced (sat_calls %llu vs %llu)\n",
                 ops[i].label.c_str(), static_cast<unsigned long long>(a.sweep_calls),
                 static_cast<unsigned long long>(b.sweep_calls));
    pass.ok[i] = false;
  }
}

std::string number(double value) {
  char buffer[64];
  const auto result = std::to_chars(buffer, buffer + sizeof buffer, value);
  return std::string(buffer, result.ptr);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(bool ok, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::string line = std::string("{\"correct\": ") + (ok ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    line += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
            number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB.
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: cecbench --workload cec_guided|cec_sat|table2_flow --seed N "
                 "--seconds S --trace 0|1 [--trace-out FILE]\n");
    return 2;
  }
  std::printf("host: sim_kernel=%s build_type=%s\n",
              std::string(sg::sim::sim_kernel_name(sg::sim::default_sim_kernel())).c_str(),
              CECBENCH_BUILD_TYPE);
  try {
    // Set-up, several times: setup_s is the median, and every repetition
    // must build byte-identical inputs.
    std::vector<double> setup_total, setup_benchgen, setup_mapping, setup_miter;
    std::uint64_t first_digest = 0;
    WorkloadInputs inputs;
    double setup_seconds = 0.0;
    for (int rep = 0; rep < kMaxSetupReps && (rep < kMinSetupReps || setup_seconds < kSetupSeconds);
         ++rep) {
      inputs = WorkloadInputs{};  // Free the previous repetition first.
      inputs = make_inputs(args.workload, args.seed);
      setup_total.push_back(inputs.times.total());
      setup_seconds += inputs.times.total();
      setup_benchgen.push_back(inputs.times.benchgen);
      setup_mapping.push_back(inputs.times.mapping);
      setup_miter.push_back(inputs.times.miter);
      if (rep == 0) first_digest = inputs.digest;
      if (inputs.digest != first_digest)
        throw std::runtime_error("set-up is not deterministic for this seed");
    }
    const std::vector<Op> ops = make_ops(inputs);
    std::printf("inputs: %zu operations, %zu mapped LUTs, digest %016llx, %zu set-ups\n",
                ops.size(), inputs.mapped_luts, static_cast<unsigned long long>(first_digest),
                setup_total.size());

    Watchdog watchdog;
    std::vector<Pass> passes;
    const auto measure_start = Clock::now();
    do {
      passes.push_back(run_pass(ops, args.workload, args.seed, watchdog, nullptr, nullptr));
      std::printf("pass %zu: %.3f s\n", passes.size(), passes.back().wall);
    } while (!args.trace && since(measure_start) < args.seconds);

    for (std::size_t p = 1; p < passes.size(); ++p) check_reproduced(ops, passes[0], passes[p]);
    std::size_t attempted = 0, failed = 0;
    for (const Pass& pass : passes) {
      attempted += ops.size();
      failed += pass.failed();
    }
    const Pass& first = passes.front();
    if (!inputs.flows.empty()) {
      // The paper's Table 2 totals, per arm, for comparison with
      // bench/table2_sat_sweeping.
      std::uint64_t revs = 0, simgen = 0;
      for (std::size_t i = 0; i < ops.size(); ++i)
        (ops[i].strategy == sg::core::Strategy::kRevS ? revs : simgen) +=
            first.outcomes[i].sweep_calls;
      std::printf("table2 sat_calls: RevS %llu, SimGen %llu\n",
                  static_cast<unsigned long long>(revs), static_cast<unsigned long long>(simgen));
    }
    std::vector<Metric> metrics;
    if (!args.trace) {
      std::vector<double> walls;
      for (const Pass& pass : passes) walls.push_back(pass.wall);
      double eq5_cost = 0.0, sat_calls = 0.0;
      for (const Outcome& outcome : first.outcomes) {
        eq5_cost += static_cast<double>(outcome.eq5_cost);
        sat_calls += static_cast<double>(outcome.sweep_calls + outcome.output_calls);
      }
      metrics = {
          {"wall_s", median(walls), "s"},
          {"setup_s", median(setup_total), "s"},
          {"peak_rss_mb", peak_rss_mb(), "MB"},
          {"ok_frac", 1.0 - ratio(static_cast<double>(failed), static_cast<double>(attempted)),
           "fraction"},
          {"eq5_cost", eq5_cost, "count"},
          {"sat_calls", sat_calls, "count"},
      };
    } else {
      Tracer tracer;
      Counts counts;
      Pass traced = run_pass(ops, args.workload, args.seed, watchdog, &tracer, &counts);
      std::printf("traced pass: %.3f s\n", traced.wall);
      check_reproduced(ops, first, traced);
      attempted += ops.size();
      failed += traced.failed();
      if (!args.trace_out.empty() && !tracer.write_json(args.trace_out))
        std::fprintf(stderr, "cecbench: cannot write %s\n", args.trace_out.c_str());

      const auto count = [&counts](const char* name) { return counts[name]; };
      double layers = 0.0;
      for (const char* name : {"sweep.make_miter", "sim.init", "sim.random", "simgen.guided",
                               "sweep.init", "sweep.run", "sweep.output"})
        layers += tracer.total(name);
      const double sweep_s = tracer.total("sweep.init") + tracer.total("sweep.run");
      const double output_solve_s = tracer.total("sat.output_solve");
      const double sat_calls = count("sweep.sat_calls") + count("sweep.output_sat_calls");
      metrics = {
          {"benchgen.s", median(setup_benchgen), "s"},
          {"mapping.s", median(setup_mapping), "s"},
          {"mapping.luts", static_cast<double>(inputs.mapped_luts), "count"},
          {"sweep.miter_s", median(setup_miter), "s"},
          {"sweep.make_miter_s", tracer.total("sweep.make_miter"), "s"},
          {"sim.init_s", tracer.total("sim.init"), "s"},
          {"sim.random_s", tracer.total("sim.random"), "s"},
          {"sim.kernel_s", count("sim.kernel_s"), "s"},
          {"sim.cost_after_random", count("sim.cost_after_random"), "count"},
          {"simgen.guided_s", tracer.total("simgen.guided"), "s"},
          {"simgen.implications", count("simgen.implications"), "count"},
          {"simgen.decisions", count("simgen.decisions"), "count"},
          {"simgen.conflicts", count("simgen.conflicts"), "count"},
          {"simgen.targets_attempted", count("simgen.targets_attempted"), "count"},
          {"simgen.target_hit_ratio",
           ratio(count("simgen.targets_satisfied"), count("simgen.targets_attempted")), "ratio"},
          {"simgen.usable_ratio",
           ratio(count("simgen.vectors_usable"), count("simgen.vectors_attempted")), "ratio"},
          {"simgen.cost_after_guided", count("simgen.cost_after_guided"), "count"},
          {"sweep.s", sweep_s, "s"},
          {"sweep.nonsat_s", sweep_s - count("sweep.sat_solve_s"), "s"},
          {"sweep.sat_calls", count("sweep.sat_calls"), "count"},
          {"sweep.proven", count("sweep.proven"), "count"},
          {"sweep.disproven", count("sweep.disproven"), "count"},
          {"sweep.resimulations", count("sweep.resimulations"), "count"},
          {"sweep.disproof_ratio", ratio(count("sweep.disproven"), count("sweep.sat_calls")),
           "ratio"},
          {"sweep.output_s", tracer.total("sweep.output"), "s"},
          {"sweep.output_sat_calls", count("sweep.output_sat_calls"), "count"},
          {"sat.solve_s", count("sweep.sat_solve_s") + output_solve_s, "s"},
          {"sat.conflicts", count("sat.conflicts"), "count"},
          {"sat.propagations", count("sat.propagations"), "count"},
          {"sat.inprocess_runs", count("sat.inprocess_runs"), "count"},
          {"sat.conflicts_per_call", ratio(count("sat.conflicts"), sat_calls), "ratio"},
          {"traced_wall_s", traced.wall, "s"},
          {"unattributed_s", traced.wall - layers, "s"},
          {"trace_overhead_s", traced.wall - first.wall, "s"},
      };
    }
    const bool ok = failed == 0;
    print_result(ok, attempted, failed, metrics);
    return ok ? 0 : 1;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "cecbench: %s\n", error.what());
    return 1;
  }
}

#include "ops.hpp"

#include <algorithm>
#include <bit>

#include "obs/metrics.hpp"
#include "sim/eqclass.hpp"
#include "sim/random_sim.hpp"
#include "sim/simulator.hpp"
#include "sweep/cec.hpp"
#include "sweep/sweeper.hpp"

namespace cecbench {

namespace {

using Scope = Tracer::Scope;

/// Registry counters read around a traced operation: the simgen and sat
/// modules own them, so the deltas are that operation's work.
constexpr const char* kCounterNames[][2] = {
    {"simgen.implications", "simgen.implications"},
    {"simgen.decisions", "simgen.decisions"},
    {"simgen.conflicts", "simgen.conflicts"},
    {"simgen.targets_attempted", "simgen.targets_attempted"},
    {"simgen.targets_satisfied", "simgen.targets_satisfied"},
    {"sat.conflicts", "sat.conflicts"},
    {"sat.propagations", "sat.propagations"},
    {"sat.inprocess.runs", "sat.inprocess_runs"},
};

void add_counter_deltas(const sg::obs::TelemetrySnapshot& before, Counts& counts) {
  const sg::obs::TelemetrySnapshot delta =
      sg::obs::diff_snapshots(before, sg::obs::capture_snapshot());
  for (const auto& [registry_name, metric_name] : kCounterNames)
    counts[metric_name] += static_cast<double>(delta.counter_value(registry_name));
}

void add_sweep_counts(const sg::sweep::SweepResult& sweep, Counts& counts) {
  counts["sweep.sat_calls"] += static_cast<double>(sweep.sat_calls);
  counts["sweep.proven"] += static_cast<double>(sweep.proven_equivalent);
  counts["sweep.disproven"] += static_cast<double>(sweep.disproven);
  counts["sweep.resimulations"] += static_cast<double>(sweep.resimulations);
  counts["sweep.sat_solve_s"] += sweep.sat_seconds;
}

void add_guided_counts(const sg::core::GuidedSimResult& guided, Counts& counts) {
  counts["simgen.vectors_usable"] += static_cast<double>(guided.vectors_generated);
  counts["simgen.vectors_attempted"] +=
      static_cast<double>(guided.vectors_generated + guided.vectors_skipped);
}

void fill_sweep(Outcome& outcome, const sg::sweep::SweepResult& sweep) {
  outcome.sweep_calls = sweep.sat_calls;
  outcome.proven = sweep.proven_equivalent;
  outcome.disproven = sweep.disproven;
}

}  // namespace

bool same_answer(const Outcome& a, const Outcome& b, std::optional<std::size_t> cex_a,
                 std::optional<std::size_t> cex_b) {
  return a.completed && b.completed && a.equivalent == b.equivalent &&
         a.undecided == b.undecided && cex_a == cex_b && a.sweep_calls == b.sweep_calls &&
         a.proven == b.proven && a.disproven == b.disproven;
}

Outcome run_cec(const CecInput& input, bool guided) {
  sg::sweep::CecOptions options;
  options.use_guided_simulation = guided;
  sg::obs::set_gauge("cec.cost_after_guided", 0.0);
  const sg::sweep::CecResult result =
      sg::sweep::check_equivalence(input.mapped, input.direct, options);
  Outcome outcome;
  outcome.completed = true;
  outcome.equivalent = result.equivalent;
  outcome.undecided = result.undecided;
  outcome.counterexample = result.counterexample;
  fill_sweep(outcome, result.sweep_stats);
  outcome.output_calls = result.output_sat_calls;
  outcome.eq5_cost =
      static_cast<std::uint64_t>(sg::obs::gauge_value("cec.cost_after_guided"));
  return outcome;
}

Outcome run_cec_traced(const CecInput& input, bool guided, Tracer& tracer,
                       Counts& counts) {
  // Mirrors check_equivalence with default CecOptions; only the calls
  // below are made, each inside one span.
  const sg::sweep::CecOptions options;
  const sg::obs::TelemetrySnapshot before = sg::obs::capture_snapshot();
  Outcome outcome;
  outcome.completed = true;
  Scope op_span(&tracer, "op.cec");

  sg::sweep::Miter miter = [&] {
    Scope span(&tracer, "sweep.make_miter");
    return sg::sweep::make_miter(input.mapped, input.direct);
  }();
  const sg::net::Network& network = miter.network;
  std::optional<sg::sim::Simulator> simulator;
  std::optional<sg::sim::EquivClasses> classes;
  {
    Scope span(&tracer, "sim.init");
    simulator.emplace(network);
    classes.emplace(sg::sim::EquivClasses::over_luts(network));
  }

  bool found = false;
  {
    Scope span(&tracer, "sim.random");
    std::size_t round = 0;
    while (!found && round < options.random_rounds) {
      const std::size_t chunk =
          std::min(simulator->block_words(), options.random_rounds - round);
      simulator->simulate_random_block(options.seed, round, chunk);
      for (std::size_t w = 0; w < chunk && !found; ++w, ++round) {
        classes->refine_word(*simulator, w);
        simulator->set_observed_word(w);
        for (sg::net::NodeId po : network.pos()) {
          const sg::sim::PatternWord word = simulator->value_word(po, w);
          if (word == 0) continue;
          const auto bit = static_cast<unsigned>(std::countr_zero(word));
          outcome.counterexample.resize(network.num_pis());
          for (std::size_t i = 0; i < network.num_pis(); ++i)
            outcome.counterexample[i] = (simulator->value_word(network.pis()[i], w) >> bit) & 1u;
          found = true;
          break;
        }
      }
    }
  }
  counts["sim.cost_after_random"] += static_cast<double>(classes->cost());
  if (found) {
    outcome.equivalent = false;
    counts["sim.kernel_s"] += simulator->kernel_seconds();
    add_counter_deltas(before, counts);
    return outcome;
  }

  if (guided && !classes->fully_refined()) {
    sg::core::GuidedSimOptions guided_options;
    guided_options.strategy = options.guided_strategy;
    guided_options.iterations = options.guided_iterations;
    guided_options.seed = options.seed;
    Scope span(&tracer, "simgen.guided");
    add_guided_counts(sg::core::run_guided_simulation(*simulator, *classes, guided_options),
                      counts);
  }
  outcome.eq5_cost = classes->cost();
  counts["simgen.cost_after_guided"] += static_cast<double>(outcome.eq5_cost);

  sg::sweep::SweepOptions sweep_options = options.sweep;
  sweep_options.seed = options.seed;
  sweep_options.strategy_code = static_cast<std::uint8_t>(options.guided_strategy);
  std::optional<sg::sweep::Sweeper> sweeper;
  {
    Scope span(&tracer, "sweep.init");
    sweeper.emplace(network, sweep_options);
  }
  {
    Scope span(&tracer, "sweep.run");
    const sg::sweep::SweepResult sweep = sweeper->run(*classes, *simulator);
    fill_sweep(outcome, sweep);
    add_sweep_counts(sweep, counts);
  }

  {
    Scope span(&tracer, "sweep.output");
    sg::sat::Solver& solver = sweeper->solver();
    solver.set_conflict_limit(sweep_options.output_proof_conflict_limit);
    std::size_t unresolved = 0;
    for (sg::net::NodeId po : network.pos()) {
      const sg::sat::Var var = sweeper->encoder().ensure_encoded(po);
      sg::sat::Result verdict;
      {
        Scope solve_span(&tracer, "sat.output_solve");
        verdict = solver.solve({sg::sat::pos(var)});
      }
      ++outcome.output_calls;
      if (verdict == sg::sat::Result::kSat) {
        outcome.counterexample = sweeper->last_model_vector(static_cast<std::uint64_t>(po));
        found = true;
        break;
      }
      if (verdict == sg::sat::Result::kUnknown) ++unresolved;
    }
    outcome.undecided = !found && unresolved > 0;
    outcome.equivalent = !found && unresolved == 0;
  }
  counts["sweep.output_sat_calls"] += static_cast<double>(outcome.output_calls);
  counts["sim.kernel_s"] += simulator->kernel_seconds();
  add_counter_deltas(before, counts);
  return outcome;
}

Outcome run_flow(const FlowInput& input, sg::core::Strategy strategy, Tracer* tracer,
                 Counts* counts) {
  // Mirrors bench::run_strategy_flow with the table2 driver's FlowConfig.
  constexpr std::uint64_t kSeed = 1;
  std::optional<sg::obs::TelemetrySnapshot> before;
  if (counts != nullptr) before = sg::obs::capture_snapshot();
  Outcome outcome;
  outcome.completed = true;
  Scope op_span(tracer, "op.flow");

  std::optional<sg::sim::Simulator> simulator;
  std::optional<sg::sim::EquivClasses> classes;
  {
    Scope span(tracer, "sim.init");
    simulator.emplace(input.network);
    classes.emplace(sg::sim::EquivClasses::over_luts(input.network));
  }
  {
    sg::sim::RandomSimOptions random_options;
    random_options.max_rounds = 1;
    random_options.seed = kSeed;
    Scope span(tracer, "sim.random");
    (void)sg::sim::run_random_simulation(*simulator, *classes, random_options);
  }
  const std::uint64_t cost_after_random = classes->cost();
  sg::core::GuidedSimResult guided;
  {
    sg::core::GuidedSimOptions guided_options;
    guided_options.strategy = strategy;
    guided_options.iterations = 20;
    guided_options.seed = kSeed;
    Scope span(tracer, "simgen.guided");
    guided = sg::core::run_guided_simulation(*simulator, *classes, guided_options);
  }
  outcome.eq5_cost = classes->cost();

  sg::sweep::SweepOptions sweep_options;
  sweep_options.seed = kSeed;
  std::optional<sg::sweep::Sweeper> sweeper;
  {
    Scope span(tracer, "sweep.init");
    sweeper.emplace(input.network, sweep_options);
  }
  sg::sweep::SweepResult sweep;
  {
    Scope span(tracer, "sweep.run");
    sweep = sweeper->run(*classes, *simulator);
  }
  fill_sweep(outcome, sweep);
  outcome.equivalent = true;  // A flow has no verdict; keep it fixed.
  outcome.proven_pairs = std::move(sweep.proven_pairs);

  if (counts != nullptr) {
    (*counts)["sim.cost_after_random"] += static_cast<double>(cost_after_random);
    (*counts)["simgen.cost_after_guided"] += static_cast<double>(outcome.eq5_cost);
    (*counts)["sim.kernel_s"] += simulator->kernel_seconds();
    add_guided_counts(guided, *counts);
    add_sweep_counts(sweep, *counts);
    add_counter_deltas(*before, *counts);
  }
  return outcome;
}

}  // namespace cecbench

// Golden DIMACS corpus: hand-picked CNF families under tests/sat_corpus/
// with the expected verdict recorded in a "c expect: SAT|UNSAT" header
// line. Each instance runs twice — inprocessing off (reference) and
// inprocessing before every solve — and both must reproduce the golden
// verdict; SAT models are checked against the file's own clauses and
// every UNSAT verdict is DRAT-certified. The families target specific
// inprocessing passes: pigeonhole (resolution-hard search), parity
// chains and cycles (SCC substitution), unit-heavy and unit-conflict
// instances (level-0 simplification), pure literals, and
// duplicate/tautological clauses (normalization hygiene).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "check/drat.hpp"
#include "sat/dimacs.hpp"
#include "sat/solver.hpp"

namespace simgen::sat {
namespace {

#ifndef SIMGEN_SAT_CORPUS_DIR
#error "SIMGEN_SAT_CORPUS_DIR must point at tests/sat_corpus"
#endif

std::vector<std::filesystem::path> corpus_files() {
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(SIMGEN_SAT_CORPUS_DIR)) {
    if (entry.path().extension() == ".cnf") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

/// Golden verdict from the artifact's "c expect: ..." header line.
Result expected_verdict(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("c expect: SAT", 0) == 0) return Result::kSat;
    if (line.rfind("c expect: UNSAT", 0) == 0) return Result::kUnsat;
    if (!line.empty() && line[0] != 'c') break;
  }
  ADD_FAILURE() << path << " has no 'c expect:' header";
  return Result::kUnknown;
}

bool model_satisfies(const Solver& solver, const DimacsProblem& problem) {
  for (const std::vector<Lit>& clause : problem.clauses) {
    bool satisfied = false;
    for (const Lit lit : clause)
      if (solver.model_value(lit)) {
        satisfied = true;
        break;
      }
    if (!satisfied) return false;
  }
  return true;
}

void run_instance(const std::filesystem::path& path, bool inprocess) {
  const DimacsProblem problem = read_dimacs_file(path.string());
  const Result expected = expected_verdict(path);

  Solver solver;
  InprocessConfig config;
  config.enabled = inprocess;
  config.conflict_interval = 0;  // run the passes before every solve
  solver.set_inprocess_config(config);
  check::Certifier certifier(solver);
  const bool consistent = load_problem(solver, problem);
  const Result verdict = consistent ? solver.solve() : Result::kUnsat;

  EXPECT_EQ(verdict, expected);
  if (verdict == Result::kSat) {
    EXPECT_TRUE(model_satisfies(solver, problem));
  }
  if (verdict == Result::kUnsat) {
    EXPECT_TRUE(certifier.certify_unsat({}));
  }
}

TEST(SatCorpus, DirectoryIsNotEmpty) { EXPECT_FALSE(corpus_files().empty()); }

TEST(SatCorpus, GoldenVerdictsWithoutInprocessing) {
  for (const std::filesystem::path& path : corpus_files()) {
    SCOPED_TRACE(path.filename().string());
    run_instance(path, /*inprocess=*/false);
  }
}

TEST(SatCorpus, GoldenVerdictsWithInprocessing) {
  for (const std::filesystem::path& path : corpus_files()) {
    SCOPED_TRACE(path.filename().string());
    run_instance(path, /*inprocess=*/true);
  }
}

}  // namespace
}  // namespace simgen::sat

// Exhaustive model checking of the Table-1 algorithms on small grids: every
// schedule the respective model admits must terminate fully explored.
#include "src/analysis/model_checker.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/algorithms/registry.hpp"

namespace lumi {
namespace {

TEST(ModelChecker, FsyncAlgorithmsExhaustive) {
  for (const char* section : {"4.2.1", "4.2.2", "4.2.3", "4.2.4", "4.2.5", "4.2.6", "4.2.7",
                              "4.2.8"}) {
    const Algorithm alg = algorithms::entry(section).make();
    for (const auto& [rows, cols] : {std::pair{2, 3}, {3, 4}, {4, 4}, {3, 5}}) {
      const CheckResult r = model_check(alg, Grid(rows, cols), CheckModel::Fsync);
      EXPECT_TRUE(r.ok) << section << " on " << rows << "x" << cols << ": " << r.to_string();
    }
  }
}

TEST(ModelChecker, AsyncAlgorithmsExhaustiveUnderSsync) {
  for (const char* section : {"4.3.1", "4.3.2", "4.3.3", "4.3.4", "4.3.5", "4.3.6"}) {
    const Algorithm alg = algorithms::entry(section).make();
    const int min_rows = alg.min_rows;
    for (const auto& [rows, cols] : {std::pair{2, 3}, {3, 4}, {3, 3}, {4, 3}, {4, 4}}) {
      if (rows < min_rows) continue;
      const CheckResult r = model_check(alg, Grid(rows, cols), CheckModel::Ssync);
      EXPECT_TRUE(r.ok) << section << " SSYNC on " << rows << "x" << cols << ": "
                        << r.to_string();
    }
  }
}

TEST(ModelChecker, AsyncAlgorithmsExhaustiveUnderAsync) {
  // 4.3.6 is SSYNC-verified only; see Algorithm 11's capability note.
  for (const char* section : {"4.3.1", "4.3.2", "4.3.3", "4.3.4", "4.3.5"}) {
    const Algorithm alg = algorithms::entry(section).make();
    const int min_rows = alg.min_rows;
    for (const auto& [rows, cols] : {std::pair{2, 3}, {3, 4}}) {
      if (rows < min_rows) continue;
      const CheckResult r = model_check(alg, Grid(rows, cols), CheckModel::Async);
      EXPECT_TRUE(r.ok) << section << " ASYNC on " << rows << "x" << cols << ": "
                        << r.to_string();
    }
  }
}

/// A do-nothing algorithm: terminates immediately without exploring.
Algorithm idle_algorithm() {
  Algorithm idle;
  idle.name = "idle";
  idle.model = Synchrony::Fsync;
  idle.phi = 1;
  idle.num_colors = 1;
  idle.chirality = Chirality::Common;
  idle.min_rows = 2;
  idle.min_cols = 3;
  idle.initial_robots = {{{0, 0}, Color::G}};
  idle.validate();
  return idle;
}

/// Two robots endlessly swapping under FSYNC.
Algorithm pingpong_algorithm() {
  Algorithm pingpong;
  pingpong.name = "pingpong";
  pingpong.model = Synchrony::Fsync;
  pingpong.phi = 1;
  pingpong.num_colors = 2;
  pingpong.chirality = Chirality::Common;
  pingpong.min_rows = 2;
  pingpong.min_cols = 3;
  pingpong.initial_robots = {{{0, 0}, Color::G}, {{0, 1}, Color::W}};
  pingpong.rules.push_back(
      RuleBuilder("R1", Color::G).cell("E", {Color::W}).moves(Dir::East).build());
  pingpong.rules.push_back(
      RuleBuilder("R2", Color::W).cell("W", {Color::G}).moves(Dir::West).build());
  pingpong.validate();
  return pingpong;
}

TEST(ModelChecker, DetectsIncompleteCoverage) {
  const CheckResult r = model_check(idle_algorithm(), Grid(2, 3), CheckModel::Fsync);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.failure.find("incomplete coverage"), std::string::npos) << r.failure;
  // Exact output, pinned byte for byte.
  EXPECT_EQ(r.failure, "terminal configuration with incomplete coverage (1/6 nodes)");
  EXPECT_EQ(r.witness, std::vector<std::string>{"{(0,0):{G}}"});
  EXPECT_EQ(r.states, 1);
  EXPECT_EQ(r.transitions, 0);
  EXPECT_EQ(r.terminal_states, 1);
}

TEST(ModelChecker, DetectsNonTermination) {
  // Two robots endlessly swapping: cycle detection must fire.
  const CheckResult r = model_check(pingpong_algorithm(), Grid(2, 3), CheckModel::Fsync);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.failure.find("cycle"), std::string::npos) << r.failure;
  // Exact output, pinned byte for byte: the DFS stack, then the revisit.
  EXPECT_EQ(r.failure, "cycle: a schedule revisits a configuration (non-terminating execution)");
  EXPECT_EQ(r.witness, (std::vector<std::string>{"{(0,0):{G}, (0,1):{W}}",
                                                 "{(0,0):{W}, (0,1):{G}}",
                                                 "{(0,0):{G}, (0,1):{W}}"}));
  EXPECT_EQ(r.states, 2);
  EXPECT_EQ(r.transitions, 2);
  EXPECT_EQ(r.terminal_states, 0);
}

TEST(ModelChecker, AsyncWitnessShowsPendingPhases) {
  // Under ASYNC the swap collapses onto one node; the witness lists the
  // decided/colored intermediate states of the acting robot.
  const CheckResult r = model_check(pingpong_algorithm(), Grid(2, 3), CheckModel::Async);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.failure, "terminal configuration with incomplete coverage (2/6 nodes)");
  EXPECT_EQ(r.witness, (std::vector<std::string>{
                           "{(0,0):{G}, (0,1):{W}}",
                           "{(0,0):{G}, (0,1):{W}} [robot@(0,0) decided]",
                           "{(0,0):{G}, (0,1):{W}} [robot@(0,0) colored]",
                           "{(0,1):{G,W}}"}));
  EXPECT_EQ(r.states, 4);
  EXPECT_EQ(r.transitions, 3);
  EXPECT_EQ(r.terminal_states, 1);
}

TEST(ModelChecker, BudgetFailureKeepsTheNewest40WitnessEntries) {
  CheckOptions opts;
  opts.max_states = 50;
  const Algorithm alg = algorithms::entry("4.3.2").make();
  const CheckResult r = model_check(alg, Grid(3, 4), CheckModel::Async, opts);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.failure, "state budget exhausted (50)");
  EXPECT_EQ(r.states, 51);
  EXPECT_EQ(r.transitions, 50);
  EXPECT_EQ(r.terminal_states, 0);
  const std::vector<std::string> expected = {
      "{(0,1):{G}, (0,2):{W}, (1,1):{B}} [robot@(1,1) colored]",
      "{(0,1):{G}, (0,2):{W}, (1,2):{B}}",
      "{(0,1):{G}, (0,2):{W}, (1,2):{B}} [robot@(0,2) decided]",
      "{(0,1):{G}, (0,2):{W}, (1,2):{B}} [robot@(0,2) colored]",
      "{(0,1):{G}, (0,3):{W}, (1,2):{B}}",
      "{(0,1):{G}, (0,3):{W}, (1,2):{B}} [robot@(0,1) decided]",
      "{(0,1):{G}, (0,3):{W}, (1,2):{B}} [robot@(0,1) colored]",
      "{(0,2):{G}, (0,3):{W}, (1,2):{B}}",
      "{(0,2):{G}, (0,3):{W}, (1,2):{B}} [robot@(1,2) decided]",
      "{(0,2):{G}, (0,3):{W}, (1,2):{B}} [robot@(1,2) colored]",
      "{(0,2):{G}, (0,3):{W}, (2,2):{B}}",
      "{(0,2):{G}, (0,3):{W}, (2,2):{B}} [robot@(0,2) decided]",
      "{(0,2):{W}, (0,3):{W}, (2,2):{B}} [robot@(0,2) colored]",
      "{(0,3):{W}, (1,2):{W}, (2,2):{B}}",
      "{(0,3):{W}, (1,2):{W}, (2,2):{B}} [robot@(2,2) decided]",
      "{(0,3):{W}, (1,2):{W}, (2,2):{B}} [robot@(2,2) colored]",
      "{(0,3):{W}, (1,2):{W}, (2,3):{B}}",
      "{(0,3):{W}, (1,2):{W}, (2,3):{B}} [robot@(0,3) decided]",
      "{(0,3):{G}, (1,2):{W}, (2,3):{B}} [robot@(0,3) colored]",
      "{(1,2):{W}, (1,3):{G}, (2,3):{B}}",
      "{(1,2):{W}, (1,3):{G}, (2,3):{B}} [robot@(2,3) decided]",
      "{(1,2):{W}, (1,3):{G}, (2,3):{B}} [robot@(2,3) colored]",
      "{(1,2):{W}, (1,3):{G}, (2,2):{B}}",
      "{(1,2):{W}, (1,3):{G}, (2,2):{B}} [robot@(1,2) decided]",
      "{(1,2):{W}, (1,3):{G}, (2,2):{B}} [robot@(1,2) colored]",
      "{(1,1):{W}, (1,3):{G}, (2,2):{B}}",
      "{(1,1):{W}, (1,3):{G}, (2,2):{B}} [robot@(1,3) decided]",
      "{(1,1):{W}, (1,3):{G}, (2,2):{B}} [robot@(1,3) colored]",
      "{(1,1):{W}, (1,2):{G}, (2,2):{B}}",
      "{(1,1):{W}, (1,2):{G}, (2,2):{B}} [robot@(2,2) decided]",
      "{(1,1):{W}, (1,2):{G}, (2,2):{B}} [robot@(2,2) colored]",
      "{(1,1):{W}, (1,2):{G}, (2,1):{B}}",
      "{(1,1):{W}, (1,2):{G}, (2,1):{B}} [robot@(1,1) decided]",
      "{(1,1):{W}, (1,2):{G}, (2,1):{B}} [robot@(1,1) colored]",
      "{(1,0):{W}, (1,2):{G}, (2,1):{B}}",
      "{(1,0):{W}, (1,2):{G}, (2,1):{B}} [robot@(1,2) decided]",
      "{(1,0):{W}, (1,2):{G}, (2,1):{B}} [robot@(1,2) colored]",
      "{(1,0):{W}, (1,1):{G}, (2,1):{B}}",
      "{(1,0):{W}, (1,1):{G}, (2,1):{B}} [robot@(1,0) decided]",
      "{(1,0):{W}, (1,1):{G}, (2,1):{B}} [robot@(1,0) colored]",
  };
  EXPECT_EQ(r.witness, expected);

  opts.want_witness = false;
  const CheckResult bare = model_check(alg, Grid(3, 4), CheckModel::Async, opts);
  EXPECT_EQ(bare.failure, r.failure);
  EXPECT_TRUE(bare.witness.empty());
}

TEST(ModelChecker, EngineErrorReportsThePathToTheOffendingState) {
  // Unvalidated on purpose: the unguarded move walks off the grid, which
  // validate() would reject up front.
  Algorithm runner;
  runner.name = "runner";
  runner.model = Synchrony::Fsync;
  runner.phi = 1;
  runner.num_colors = 1;
  runner.chirality = Chirality::Common;
  runner.min_rows = 2;
  runner.min_cols = 3;
  runner.initial_robots = {{{0, 0}, Color::G}};
  runner.rules.push_back(RuleBuilder("R1", Color::G).moves(Dir::East).build());
  const CheckResult r = model_check(runner, Grid(2, 3), CheckModel::Async);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.failure, "engine error: robot would leave the grid");
  EXPECT_EQ(r.witness, (std::vector<std::string>{
                           "{(0,0):{G}}", "{(0,0):{G}} [robot@(0,0) decided]",
                           "{(0,0):{G}} [robot@(0,0) colored]", "{(0,1):{G}}",
                           "{(0,1):{G}} [robot@(0,1) decided]",
                           "{(0,1):{G}} [robot@(0,1) colored]", "{(0,2):{G}}",
                           "{(0,2):{G}} [robot@(0,2) decided]",
                           "{(0,2):{G}} [robot@(0,2) colored]"}));
  EXPECT_EQ(r.states, 9);
  EXPECT_EQ(r.transitions, 8);
}

TEST(ModelChecker, RejectsOversizedGrids) {
  const Algorithm alg = algorithms::entry("4.2.1").make();
  EXPECT_THROW(model_check(alg, Grid(9, 9), CheckModel::Fsync), std::invalid_argument);
}

TEST(ModelChecker, CountsStatesAndTransitions) {
  const Algorithm alg = algorithms::entry("4.2.1").make();
  const CheckResult r = model_check(alg, Grid(2, 3), CheckModel::Fsync);
  ASSERT_TRUE(r.ok) << r.to_string();
  EXPECT_GE(r.states, 5);
  EXPECT_GE(r.transitions, r.states - 1);
  EXPECT_GE(r.terminal_states, 1);
}

struct PinnedSearch {
  const char* section;
  CheckModel model;
  int rows, cols;
  long states, transitions, terminal_states;
};

// Exact search sizes.  Any change to the state encoding, the successor
// enumeration or the canonicalization of anonymous robots moves them.
constexpr PinnedSearch kPinnedSearches[] = {
    {"4.2.1", CheckModel::Fsync, 2, 3, 5, 4, 1},
    {"4.2.2", CheckModel::Fsync, 3, 4, 11, 10, 1},
    {"4.2.4", CheckModel::Fsync, 4, 4, 18, 17, 1},
    {"4.2.8", CheckModel::Fsync, 3, 5, 10, 9, 1},
    {"4.3.6", CheckModel::Fsync, 3, 4, 34, 33, 1},
    {"4.3.1", CheckModel::Ssync, 3, 4, 18, 17, 1},
    {"4.3.3", CheckModel::Ssync, 4, 4, 30, 29, 1},
    {"4.3.5", CheckModel::Ssync, 3, 3, 22, 21, 1},
    {"4.3.6", CheckModel::Ssync, 3, 4, 42, 49, 1},
    {"4.3.1", CheckModel::Async, 2, 3, 19, 18, 1},
    {"4.3.2", CheckModel::Async, 3, 4, 68, 76, 1},
    {"4.3.4", CheckModel::Async, 3, 4, 67, 78, 1},
    {"4.3.3", CheckModel::Async, 4, 4, 100, 111, 1},
};

TEST(ModelChecker, PinnedSearchSizes) {
  for (const PinnedSearch& p : kPinnedSearches) {
    const Algorithm alg = algorithms::entry(p.section).make();
    const CheckResult r = model_check(alg, Grid(p.rows, p.cols), p.model);
    const std::string where = std::string(p.section) + " model " +
                              std::to_string(static_cast<int>(p.model)) + " on " +
                              std::to_string(p.rows) + "x" + std::to_string(p.cols);
    EXPECT_TRUE(r.ok) << where << ": " << r.to_string();
    EXPECT_EQ(r.states, p.states) << where;
    EXPECT_EQ(r.transitions, p.transitions) << where;
    EXPECT_EQ(r.terminal_states, p.terminal_states) << where;
  }
}

TEST(ModelChecker, RobotOrderDoesNotChangeTheSearch) {
  // Robots are anonymous: listing them in another order must reach the same
  // canonical states over the same transitions.
  for (const PinnedSearch& p : kPinnedSearches) {
    Algorithm alg = algorithms::entry(p.section).make();
    std::reverse(alg.initial_robots.begin(), alg.initial_robots.end());
    const CheckResult r = model_check(alg, Grid(p.rows, p.cols), p.model);
    EXPECT_TRUE(r.ok) << p.section << ": " << r.to_string();
    EXPECT_EQ(r.states, p.states) << p.section;
    EXPECT_EQ(r.transitions, p.transitions) << p.section;
    EXPECT_EQ(r.terminal_states, p.terminal_states) << p.section;
  }
}

}  // namespace
}  // namespace lumi

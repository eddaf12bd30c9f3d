// Theorem 1 demonstrations: a fair SSYNC adversary defeats two-robot phi=1
// algorithms, while the paper's three-robot phi=1 algorithm withstands every
// fair SSYNC schedule on the same grids.
#include "src/analysis/impossibility.hpp"

#include <gtest/gtest.h>

#include "src/algorithms/algorithms.hpp"
#include "src/algorithms/registry.hpp"

namespace lumi {
namespace {

using enum Color;

TEST(Impossibility, TwoRobotPhi1PairLosesInSsync) {
  // Algorithm 3 solves the task under FSYNC with k=2, phi=1; Theorem 1 says
  // no such algorithm survives the SSYNC adversary.
  const Algorithm alg = algorithms::algorithm3();
  const AdversaryResult r = find_ssync_adversary(alg, Grid(4, 4));
  EXPECT_TRUE(r.adversary_wins) << r.summary;
}

TEST(Impossibility, NaiveSweepPairLosesInSsync) {
  // A hand-rolled two-robot phi=1 sweeping pair (W leads, G chases).
  Algorithm naive;
  naive.name = "naive-sweep-k2";
  naive.model = Synchrony::Ssync;
  naive.phi = 1;
  naive.num_colors = 2;
  naive.chirality = Chirality::Common;
  naive.min_rows = 2;
  naive.min_cols = 3;
  naive.initial_robots = {{{0, 0}, G}, {{0, 1}, W}};
  naive.rules.push_back(
      RuleBuilder("R1", W).cell("W", {G}).cell("E", CellPattern::empty()).moves(Dir::East).build());
  naive.rules.push_back(RuleBuilder("R2", G).cell("E", {W}).moves(Dir::East).build());
  naive.rules.push_back(RuleBuilder("R3", W)
                            .cell("W", {G})
                            .cell("E", CellPattern::wall())
                            .cell("S", CellPattern::empty())
                            .moves(Dir::South)
                            .build());
  naive.validate();
  const AdversaryResult r = find_ssync_adversary(naive, Grid(4, 4));
  EXPECT_TRUE(r.adversary_wins) << r.summary;
}

TEST(Impossibility, ThreeRobotPhi1AlgorithmSurvives) {
  // Algorithm 10 (k=3, phi=1) is SSYNC-correct: no node can be defended.
  const Algorithm alg = algorithms::algorithm10();
  const AdversaryResult r = find_ssync_adversary(alg, Grid(3, 3));
  EXPECT_FALSE(r.adversary_wins) << "node (" << r.protected_node.row << ","
                                 << r.protected_node.col << "): " << r.summary;
}

TEST(Impossibility, SingleNodeQuery) {
  const Algorithm alg = algorithms::algorithm3();
  // The adversary can certainly defend some node of a 5x5 grid; ask for the
  // center explicitly.
  const AdversaryResult r = check_protected_node(alg, Grid(5, 5), {2, 2});
  EXPECT_TRUE(r.adversary_wins) << r.summary;
  EXPECT_TRUE(r.via_terminal || r.via_fair_cycle);
}

TEST(Impossibility, InitialOccupationIsNotDefendable) {
  const Algorithm alg = algorithms::algorithm3();
  const AdversaryResult r = check_protected_node(alg, Grid(4, 4), {0, 0});
  EXPECT_FALSE(r.adversary_wins);
  EXPECT_NE(r.summary.find("initial configuration"), std::string::npos);
}

TEST(Impossibility, PinnedAdversaryStates) {
  // Exact sizes of the game graphs summed over every target node; both
  // algorithms survive, so every node's graph is explored.
  const AdversaryResult a = find_ssync_adversary(algorithms::entry("4.3.1").make(), Grid(3, 4));
  EXPECT_FALSE(a.adversary_wins) << a.summary;
  EXPECT_EQ(a.states, 85);
  const AdversaryResult b = find_ssync_adversary(algorithms::entry("4.3.3").make(), Grid(4, 4));
  EXPECT_FALSE(b.adversary_wins) << b.summary;
  EXPECT_EQ(b.states, 183);
}

TEST(Impossibility, StatesAreDistinctBeyond256Nodes) {
  // Node indices of 256 and more must not alias smaller ones in the state
  // key (a one-byte key merged node 256 with node 0 here: 768 states).
  const AdversaryResult r = check_protected_node(algorithms::algorithm3(), Grid(20, 20), {19, 19});
  EXPECT_TRUE(r.adversary_wins) << r.summary;
  EXPECT_TRUE(r.via_terminal);
  EXPECT_EQ(r.states, 1136);
  // Below 256 nodes the count is unchanged.
  EXPECT_EQ(check_protected_node(algorithms::algorithm3(), Grid(16, 16), {15, 15}).states, 716);
}

TEST(Impossibility, RejectsGridsBeyondTheKeyWidth) {
  // 14 bits of node index per robot: at most 16384 nodes.
  EXPECT_THROW(check_protected_node(algorithms::algorithm3(), Grid(129, 128), {5, 5}),
               std::invalid_argument);
  EXPECT_THROW(find_ssync_adversary(algorithms::algorithm3(), Grid(129, 128)),
               std::invalid_argument);
}

}  // namespace
}  // namespace lumi

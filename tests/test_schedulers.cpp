#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <random>
#include <string>
#include <vector>

#include "src/algorithms/algorithms.hpp"
#include "src/campaign/campaign.hpp"
#include "src/core/rng.hpp"
#include "src/engine/runner.hpp"
#include "src/trace/report.hpp"

namespace lumi {
namespace {

TEST(FsyncScheduler, SelectsEveryEnabledRobot) {
  const Algorithm alg = algorithms::algorithm1();
  const Grid grid(2, 4);
  const Configuration c = alg.initial_configuration(grid);
  const auto enabled = all_enabled_actions(alg, c);
  FsyncScheduler sched;
  const auto selected = sched.select(c, enabled);
  EXPECT_EQ(selected.size(), 2u);
}

TEST(SsyncRandomScheduler, SelectsNonemptySubsetOfEnabled) {
  const Algorithm alg = algorithms::algorithm6();
  const Grid grid(2, 4);
  const Configuration c = alg.initial_configuration(grid);
  const auto enabled = all_enabled_actions(alg, c);
  SsyncRandomScheduler sched(7);
  for (int i = 0; i < 20; ++i) {
    const auto selected = sched.select(c, enabled);
    ASSERT_FALSE(selected.empty());
    for (const RobotAction& ra : selected) {
      EXPECT_FALSE(enabled[static_cast<std::size_t>(ra.robot)].empty());
    }
  }
}

TEST(SsyncRoundRobin, RotatesThroughRobots) {
  const Algorithm alg = algorithms::algorithm1();
  const Grid grid(2, 4);
  const Configuration c = alg.initial_configuration(grid);
  const auto enabled = all_enabled_actions(alg, c);
  SsyncRoundRobinScheduler sched;
  const auto first = sched.select(c, enabled);
  const auto second = sched.select(c, enabled);
  ASSERT_EQ(first.size(), 1u);
  ASSERT_EQ(second.size(), 1u);
  EXPECT_NE(first[0].robot, second[0].robot);
}

TEST(AsyncCentralized, FinishesStartedCyclesFirst) {
  const Algorithm alg = algorithms::algorithm10();
  const Grid grid(2, 4);
  AsyncEngine engine(alg, alg.initial_configuration(grid));
  AsyncCentralizedScheduler sched;
  const auto effective = engine.effective_robots();
  ASSERT_FALSE(effective.empty());
  const int first = sched.pick_robot(engine, effective);
  engine.activate(first, engine.look_choices(first).front());
  // With robot `first` mid-cycle, the scheduler must keep picking it.
  const auto effective2 = engine.effective_robots();
  EXPECT_EQ(sched.pick_robot(engine, effective2), first);
}

// --- cross-platform determinism ---------------------------------------------
//
// Scheduler randomness goes through the in-repo Lemire bounded draw over
// rng::Engine, which must reproduce std::mt19937's output stream (pinned
// down exactly by the standard), never through
// std::uniform_int_distribution / std::shuffle, whose algorithms differ
// between libstdc++ and libc++.  The golden sequences below therefore hold
// on every compiler and platform; a failure means scheduler decisions — and
// with them campaign reports and checkpoints — stopped being portable.

static_assert(std::uniform_random_bit_generator<rng::Engine>);

TEST(PortableRng, EngineMatchesStdMt19937) {
  // The lazy engine against the standard engine as the oracle, over three
  // full twist rounds: the first round (lazy seeding ahead of the twist),
  // the round boundary, and rounds that twist only already-twisted words.
  std::vector<std::uint32_t> seeds{0u, 1u, 5489u, 42u, 0xffffffffu};
  for (std::uint32_t i = 0; i < 1024; ++i) seeds.push_back(i * 0x9e3779b9u + 0x7f4a7c15u);
  constexpr int kDraws = 3 * 624 + 5;
  for (const std::uint32_t seed : seeds) {
    rng::Engine engine(seed);
    std::mt19937 oracle(seed);
    for (int d = 0; d < kDraws; ++d) {
      const std::uint32_t want = static_cast<std::uint32_t>(oracle());
      ASSERT_EQ(engine(), want) << "seed " << seed << ", draw " << d;
    }
  }
  rng::Engine default_seeded;
  std::mt19937 default_oracle;
  for (int d = 0; d < kDraws; ++d) {
    ASSERT_EQ(default_seeded(), static_cast<std::uint32_t>(default_oracle())) << "draw " << d;
  }
}

TEST(PortableRng, BoundedDrawGoldenSequences) {
  rng::Engine a(42);
  const std::uint32_t want_a[] = {3, 7, 9, 1, 7, 7, 5, 5};
  for (std::uint32_t want : want_a) EXPECT_EQ(bounded_draw(a, 10), want);

  rng::Engine b(7);
  const std::uint32_t want_b[] = {0, 0, 2, 0, 1, 2, 2, 1};
  for (std::uint32_t want : want_b) EXPECT_EQ(bounded_draw(b, 3), want);

  // n = 1 never consumes entropy-rejection retries and always yields 0.
  rng::Engine c(1);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(bounded_draw(c, 1), 0u);
}

TEST(PortableRng, BoundedDrawStaysInRange) {
  rng::Engine rng(2026);
  for (std::uint32_t n : {1u, 2u, 3u, 5u, 7u, 1000u}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(bounded_draw(rng, n), n);
  }
}

TEST(PortableRng, FisherYatesGoldenPermutation) {
  std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  rng::Engine rng(7);
  fisher_yates(v, rng);
  const std::vector<int> want{9, 3, 1, 5, 4, 7, 8, 6, 2, 0};
  EXPECT_EQ(v, want);

  std::vector<int> tiny{1};
  rng::Engine rng2(7);
  fisher_yates(tiny, rng2);  // size <= 1: no draws, no out-of-range access
  EXPECT_EQ(tiny, std::vector<int>{1});
}

TEST(SsyncRandomScheduler, GoldenDecisionSequence) {
  // 4 robots, one enabled behavior each: the selection is exactly the coin
  // pattern of seed 9 (resampling empty rounds), independent of platform.
  const std::vector<std::vector<Action>> enabled(4, std::vector<Action>{Action{}});
  const Algorithm alg = algorithms::algorithm6();
  const Configuration c = alg.initial_configuration(Grid(2, 4));
  SsyncRandomScheduler sched(9);
  const std::vector<std::vector<int>> want = {{2}, {3}, {2}, {0, 1, 3}};
  for (const std::vector<int>& round : want) {
    const auto selected = sched.select(c, enabled);
    ASSERT_EQ(selected.size(), round.size());
    for (std::size_t i = 0; i < round.size(); ++i) EXPECT_EQ(selected[i].robot, round[i]);
  }
}

TEST(AsyncRandomScheduler, GoldenRobotSequence) {
  const Algorithm alg = algorithms::algorithm6();
  AsyncEngine engine(alg, alg.initial_configuration(Grid(2, 4)));
  AsyncRandomScheduler sched(5);
  const std::vector<int> effective{0, 1, 2, 3, 4};
  const int want[] = {1, 0, 4, 4, 1, 1, 4, 4, 2, 0};
  for (const int w : want) EXPECT_EQ(sched.pick_robot(engine, effective), w);
}

TEST(Schedulers, GoldenEndToEndRunStats) {
  // One pinned run per randomized scheduler family: identical numbers are
  // expected from any compiler/platform building this repo.
  using campaign::Cell;
  using campaign::SchedKind;
  const RunResult ssync = run_cell(Cell{"4.3.1", 4, 5, SchedKind::SsyncRandom}, 42, RunOptions{});
  EXPECT_TRUE(ssync.ok());
  EXPECT_EQ(ssync.stats.instants, 31);
  EXPECT_EQ(ssync.stats.moves, 30);
  EXPECT_EQ(ssync.stats.color_changes, 3);
  const RunResult async =
      run_cell(Cell{"4.3.1", 4, 5, SchedKind::AsyncRandom}, 42, RunOptions{});
  EXPECT_TRUE(async.ok());
  EXPECT_EQ(async.stats.instants, 93);
  EXPECT_EQ(async.stats.moves, 30);
}

TEST(Schedulers, GoldenCampaignReportHash) {
  // Every scheduler over every section on the 3..4 grids, eight seeds each:
  // any change to a scheduler's draw stream, or to the engine under it,
  // changes these report bytes.  They were produced with std::mt19937 as
  // the engine, so they also hold rng::Engine to the standard stream.
  campaign::Matrix matrix;
  matrix.sections = campaign::all_sections();
  matrix.rows = campaign::IntRange{3, 4};
  matrix.cols = campaign::IntRange{3, 4};
  matrix.schedulers.assign(std::begin(campaign::kAllSchedKinds),
                           std::end(campaign::kAllSchedKinds));
  matrix.seeds = {1, 2, 3, 4, 5, 6, 7, 8};
  const std::string json = campaign_json(campaign::run_campaign(matrix, 2));
  std::uint64_t hash = 14695981039346656037ULL;  // FNV-1a 64
  for (const char c : json) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  EXPECT_EQ(json.size(), 141544u);
  EXPECT_EQ(hash, 0xb3e0c2b6749ac239ULL);
}

TEST(Schedulers, NamesMatchCampaignSpellings) {
  // name() is what verify_sweep prints; campaign::sched_from_name (and so
  // every CLI's --sched/--scheds) must read it back as the same kind.
  using campaign::SchedKind;
  const FsyncScheduler fsync;
  const SsyncRandomScheduler ssync_random(1);
  const SsyncRoundRobinScheduler ssync_rr;
  const AsyncRandomScheduler async_random(1);
  const AsyncCentralizedScheduler async_central;
  const AsyncStaleStressScheduler async_stress(1);
  const struct {
    std::string name;
    SchedKind kind;
  } table[] = {
      {fsync.name(), SchedKind::Fsync},
      {ssync_random.name(), SchedKind::SsyncRandom},
      {ssync_rr.name(), SchedKind::SsyncRoundRobin},
      {async_random.name(), SchedKind::AsyncRandom},
      {async_central.name(), SchedKind::AsyncCentralized},
      {async_stress.name(), SchedKind::AsyncStaleStress},
  };
  for (const auto& row : table) {
    EXPECT_EQ(row.name, campaign::to_string(row.kind));
    EXPECT_EQ(campaign::sched_from_name(row.name), row.kind) << row.name;
  }
}

TEST(AsyncSchedulers, RunnersProduceDeterministicResultsPerSeed) {
  const Algorithm alg = algorithms::algorithm6();
  const Grid grid(3, 4);
  RunOptions opts;
  AsyncRandomScheduler a(42), b(42);
  const RunResult ra = run_async(alg, grid, a, opts);
  const RunResult rb = run_async(alg, grid, b, opts);
  EXPECT_EQ(ra.stats.instants, rb.stats.instants);
  EXPECT_EQ(ra.stats.moves, rb.stats.moves);
  EXPECT_TRUE(ra.ok());
}

}  // namespace
}  // namespace lumi

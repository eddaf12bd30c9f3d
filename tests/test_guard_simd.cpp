// Differential test for the guard-plane prefilter: guard_pass_mask() (the
// SSE2 kernel on x86-64) and the portable scalar reference must produce
// bit-identical survivor masks for every Table-1 algorithm, over randomized
// configurations and over fixed edge planes that light one bit at a time.
// Also pins the two safety properties the matcher relies on: a lane whose
// dense guard row matches is never rejected by the prefilter, and padding
// lanes beyond the real (rule, symmetry) count always reject.
#include <gtest/gtest.h>

#include <random>
#include <string>

#include "src/algorithms/registry.hpp"
#include "src/core/compiled.hpp"
#include "src/core/matching.hpp"

namespace lumi {
namespace {

/// Reference verdict for one lane straight from the per-rule AoS planes,
/// bypassing the SoA layout entirely.
bool lane_passes_reference(std::span<const CompiledRule> rules, std::size_t nsyms,
                           std::size_t lane, SnapshotPlanes planes) {
  if (lane >= rules.size() * nsyms) return false;  // padding: always reject
  return !rules[lane / nsyms].planes_reject(lane % nsyms, planes);
}

bool dense_row_matches(const CompiledRule& rule, std::size_t s, const Snapshot& snap, int ks) {
  const CellPattern* row = rule.patterns.data() + s * static_cast<std::size_t>(ks);
  for (int w = 0; w < ks; ++w) {
    if (!row[w].matches(snap.cells[static_cast<std::size_t>(w)])) return false;
  }
  return true;
}

/// Asserts that the kernel, the scalar reference and the per-lane AoS
/// reference agree on every block of `group` under `planes`.
void expect_block_verdicts_agree(const GuardGroup& group, std::span<const CompiledRule> rules,
                                 std::size_t nsyms, SnapshotPlanes planes,
                                 const std::string& where) {
  for (std::size_t base = 0; base < group.need_occupied.size(); base += kGuardLaneBlock) {
    const std::uint32_t scalar = guard_pass_mask_scalar(group, planes, base);
    ASSERT_EQ(guard_pass_mask(group, planes, base), scalar) << where << " base " << base;
    for (std::size_t i = 0; i < kGuardLaneBlock; ++i) {
      const bool bit = ((scalar >> i) & 1u) != 0;
      ASSERT_EQ(bit, lane_passes_reference(rules, nsyms, base + i, planes))
          << where << " lane " << (base + i);
    }
  }
}

TEST(GuardSimd, VectorScalarAndReferenceAgreeOnAllTable1Entries) {
  // Fixed edge planes: empty, full, and each single kernel bit, for the
  // occupied and wall planes independently.  A single lit bit pins the
  // pack/movemask lane order bit by bit.
  std::vector<std::uint16_t> edges = {0, 0x1FFF};
  for (int bit = 0; bit < 13; ++bit) edges.push_back(static_cast<std::uint16_t>(1u << bit));

  std::mt19937 rng(20260808);
  for (const algorithms::TableEntry& e : algorithms::table1()) {
    const Algorithm alg = e.make();
    const std::shared_ptr<const CompiledAlgorithm> compiled = CompiledAlgorithm::get(alg);
    const int ks = compiled->kernel_size();
    const std::size_t nsyms = compiled->symmetries().size();
    const Grid grid(alg.min_rows + 2, alg.min_cols + 2);
    std::uniform_int_distribution<int> row(0, grid.rows() - 1);
    std::uniform_int_distribution<int> col(0, grid.cols() - 1);
    std::uniform_int_distribution<int> color(0, alg.num_colors - 1);
    for (int trial = 0; trial < 80; ++trial) {
      std::vector<Robot> robots;
      for (int i = 0; i < alg.num_robots(); ++i) {
        robots.push_back(Robot{{row(rng), col(rng)}, static_cast<Color>(color(rng))});
      }
      const Configuration config(grid, std::move(robots));
      for (int r = 0; r < config.num_robots(); ++r) {
        const Snapshot snap = take_snapshot(config, r, alg.phi);
        const SnapshotPlanes planes = snapshot_planes(snap, ks);
        // The hot path reads the masks the snapshot fill accumulated; pin
        // them against this from-cells recomputation.
        ASSERT_EQ(snap.planes.occupied, planes.occupied)
            << e.section << " trial " << trial << " robot " << r;
        ASSERT_EQ(snap.planes.wall, planes.wall)
            << e.section << " trial " << trial << " robot " << r;
        ASSERT_NO_FATAL_FAILURE(expect_block_verdicts_agree(
            compiled->guard_group(snap.self_color), compiled->rules_for(snap.self_color),
            nsyms, planes,
            e.section + " trial " + std::to_string(trial) + " robot " + std::to_string(r)));
      }
    }
    for (int c = 0; c < alg.num_colors; ++c) {
      const Color self = static_cast<Color>(c);
      for (const std::uint16_t occupied : edges) {
        for (const std::uint16_t wall : edges) {
          ASSERT_NO_FATAL_FAILURE(expect_block_verdicts_agree(
              compiled->guard_group(self), compiled->rules_for(self), nsyms,
              SnapshotPlanes{occupied, wall},
              e.section + " color " + std::to_string(c) + " occupied " +
                  std::to_string(occupied) + " wall " + std::to_string(wall)));
        }
      }
    }
  }
}

TEST(GuardSimd, PrefilterNeverRejectsAMatchingRow) {
  // Soundness: the prefilter may pass rows that then fail the dense walk,
  // but must never reject a row that would match — otherwise the matcher
  // would silently drop enabled actions.
  std::mt19937 rng(424242);
  for (const algorithms::TableEntry& e : algorithms::table1()) {
    const Algorithm alg = e.make();
    const std::shared_ptr<const CompiledAlgorithm> compiled = CompiledAlgorithm::get(alg);
    const int ks = compiled->kernel_size();
    const std::size_t nsyms = compiled->symmetries().size();
    const Grid grid(alg.min_rows, alg.min_cols);
    std::uniform_int_distribution<int> row(0, grid.rows() - 1);
    std::uniform_int_distribution<int> col(0, grid.cols() - 1);
    std::uniform_int_distribution<int> color(0, alg.num_colors - 1);
    for (int trial = 0; trial < 60; ++trial) {
      std::vector<Robot> robots;
      for (int i = 0; i < alg.num_robots(); ++i) {
        robots.push_back(Robot{{row(rng), col(rng)}, static_cast<Color>(color(rng))});
      }
      const Configuration config(grid, std::move(robots));
      for (int r = 0; r < config.num_robots(); ++r) {
        const Snapshot snap = take_snapshot(config, r, alg.phi);
        const SnapshotPlanes planes = snapshot_planes(snap, ks);
        const GuardGroup& group = compiled->guard_group(snap.self_color);
        const std::span<const CompiledRule> rules = compiled->rules_for(snap.self_color);
        for (std::size_t lane = 0; lane < rules.size() * nsyms; ++lane) {
          if (!dense_row_matches(rules[lane / nsyms], lane % nsyms, snap, ks)) continue;
          const std::size_t base = (lane / kGuardLaneBlock) * kGuardLaneBlock;
          const std::uint32_t mask = guard_pass_mask(group, planes, base);
          ASSERT_NE((mask >> (lane - base)) & 1u, 0u)
              << e.section << " trial " << trial << " robot " << r << " lane " << lane;
        }
      }
    }
  }
}

TEST(GuardSimd, PaddingLanesAlwaysReject) {
  for (const algorithms::TableEntry& e : algorithms::table1()) {
    const Algorithm alg = e.make();
    const std::shared_ptr<const CompiledAlgorithm> compiled = CompiledAlgorithm::get(alg);
    for (int c = 0; c < alg.num_colors; ++c) {
      const GuardGroup& group = compiled->guard_group(static_cast<Color>(c));
      // Even a snapshot whose planes satisfy everything satisfiable (all
      // kernel cells occupied walls — impossible in practice, maximal for
      // the planes test) cannot light a padding lane.
      const SnapshotPlanes saturated{0x1FFF, 0x1FFF};
      for (std::size_t base = 0; base < group.need_occupied.size();
           base += kGuardLaneBlock) {
        const std::uint32_t mask = guard_pass_mask(group, saturated, base);
        for (std::size_t i = 0; i < kGuardLaneBlock; ++i) {
          if (base + i >= group.lanes) {
            EXPECT_EQ((mask >> i) & 1u, 0u) << e.section << " padding lane " << (base + i);
          }
        }
      }
    }
  }
}

TEST(GuardSimd, X86BuildsRunTheVectorKernel) {
  // SSE2 is part of the x86-64 baseline, so an x86-64 build that falls
  // back to the scalar loop has lost its kernel and the differential above
  // would pass vacuously.
#if defined(__x86_64__)
  EXPECT_TRUE(guard_simd_available());
#endif
}

}  // namespace
}  // namespace lumi

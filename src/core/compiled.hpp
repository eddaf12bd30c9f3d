// Compiled matcher: an Algorithm's sparse guards flattened, once, into dense
// kernel-indexed pattern tables so the match inner loop is a straight sweep
// over snapshot cells — no index_of scans, no Rule::pattern_at lookups, no
// per-symmetry offset mapping at match time.
//
// For each rule and each admissible symmetry s the compiler stores a row of
// kernel_size() CellPatterns such that
//
//   guard matches under s  <=>  row[w].matches(snapshot.cells[w]) for all w,
//
// together with the rule's movement premapped into the global frame through
// s.  Rules are grouped by their required self color so matching touches
// only candidates that can possibly fire.  Compilations are cached by a
// structural fingerprint (phi, chirality, rules) and shared read-only across
// threads, so every campaign job running the same algorithm reuses one
// compilation.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/core/algorithm.hpp"
#include "src/core/view.hpp"

namespace lumi {

/// Recomputes SnapshotPlanes (see view.hpp) from a snapshot's cells.  The
/// hot path reads the masks Snapshot carries instead — take_snapshot_into
/// fills them while touching each cell anyway — so this is the reference
/// builder the differential tests pin that fused fill against.
SnapshotPlanes snapshot_planes(const Snapshot& snap, int kernel_size);

/// One rule compiled against the view kernel.  Field order mirrors Action
/// construction in the matcher.
struct CompiledRule {
  int rule_index = -1;      ///< index into the source Algorithm::rules
  Color new_color = Color::G;
  /// Dense guard rows: patterns[s * kernel_size + w] constrains snapshot
  /// cell w under the s-th admissible symmetry.
  std::vector<CellPattern> patterns;
  /// Movement premapped to the global frame per symmetry; -1 = stay.
  std::array<std::int8_t, 8> move_by_sym{};
  /// Guard-row prefilter planes, derived from each cell's pattern kind and
  /// multiset: cells the guard requires occupied / forbids occupied, and
  /// requires / forbids to be walls, per symmetry.  A snapshot whose
  /// SnapshotPlanes violate any of them cannot match the row, so the dense
  /// pattern walk is skipped entirely.
  std::array<std::uint16_t, 8> need_occupied{};
  std::array<std::uint16_t, 8> forbid_occupied{};
  std::array<std::uint16_t, 8> need_wall{};
  std::array<std::uint16_t, 8> forbid_wall{};

  /// True when the planes alone rule out a match under symmetry slot `s`.
  bool planes_reject(std::size_t s, SnapshotPlanes planes) const {
    return ((need_occupied[s] & static_cast<std::uint16_t>(~planes.occupied)) |
            (forbid_occupied[s] & planes.occupied) |
            (need_wall[s] & static_cast<std::uint16_t>(~planes.wall)) |
            (forbid_wall[s] & planes.wall)) != 0;
  }
};

/// Lanes per guard-plane block: 16 u16 planes fill two 128-bit SSE2
/// registers, so the vector kernel judges 16 (rule, symmetry) slots per
/// compare-and-pack sequence.
inline constexpr std::size_t kGuardLaneBlock = 16;

/// Structure-of-arrays guard-plane prefilter over one self-color rule group.
/// Lane `r * num_symmetries + s` holds the planes of the group's r-th rule
/// under its s-th admissible symmetry — the same rule-then-symmetry order the
/// matcher reports witnesses in.  The arrays are padded to a multiple of
/// kGuardLaneBlock with always-reject sentinels (all planes 0xFFFF: the
/// kernel has at most 13 cells, so a sentinel's high need-bits can never be
/// satisfied), letting the kernels sweep whole blocks unconditionally.
struct GuardGroup {
  std::size_t lanes = 0;  ///< real lanes (rules * symmetries), before padding
  std::vector<std::uint16_t> need_occupied;
  std::vector<std::uint16_t> forbid_occupied;
  std::vector<std::uint16_t> need_wall;
  std::vector<std::uint16_t> forbid_wall;
};

/// Bitmask (bit i set = lane base+i survives) of the planes prefilter over
/// one block of kGuardLaneBlock lanes.  `base` must be block-aligned and
/// within the padded arrays.  A set bit means the snapshot *may* match the
/// lane's dense row; a clear bit proves it cannot.  The scalar reference and
/// the vector entry point are differentially pinned against each other
/// (tests/test_guard_simd.cpp).
std::uint32_t guard_pass_mask_scalar(const GuardGroup& group, SnapshotPlanes planes,
                                     std::size_t base);
/// True when guard_pass_mask runs the SSE2 kernel.  SSE2 is part of the
/// x86-64 baseline, so that is every x86-64 build; on targets without it
/// (`__SSE2__` undefined) guard_pass_mask is the scalar reference.
bool guard_simd_available();
/// The prefilter the matcher calls: the SSE2 kernel where the target has
/// it, the scalar reference otherwise.  Verdicts are bit-identical.
std::uint32_t guard_pass_mask(const GuardGroup& group, SnapshotPlanes planes, std::size_t base);

class CompiledAlgorithm {
 public:
  explicit CompiledAlgorithm(const Algorithm& alg);

  /// Compiles `alg` or returns the shared cached compilation.  Two
  /// algorithms with identical matching semantics (same phi, chirality and
  /// rule list) share one entry; the cache is thread-safe and the returned
  /// object immutable.
  static std::shared_ptr<const CompiledAlgorithm> get(const Algorithm& alg);

  int phi() const { return phi_; }
  int kernel_size() const { return kernel_size_; }
  /// The admissible symmetries, in the same order as Algorithm::symmetries().
  std::span<const Sym> symmetries() const { return syms_; }
  /// Rules whose self color is `self`, preserving source rule order.
  std::span<const CompiledRule> rules_for(Color self) const {
    return by_color_[static_cast<std::size_t>(self)];
  }
  /// The SoA guard-plane prefilter for the `self` rule group (lane order
  /// matches rules_for: rule-major, symmetry-minor).
  const GuardGroup& guard_group(Color self) const {
    return groups_[static_cast<std::size_t>(self)];
  }

 private:
  int phi_;
  int kernel_size_;
  std::span<const Sym> syms_;
  std::array<std::vector<CompiledRule>, kMaxColors> by_color_;
  std::array<GuardGroup, kMaxColors> groups_;
};

}  // namespace lumi

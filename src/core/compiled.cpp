#include "src/core/compiled.hpp"

#include <mutex>
#include <string>
#include <unordered_map>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace lumi {

namespace {

/// Exact structural key of everything matching semantics depend on.  Binary
/// serialization (not to_string) so distinct rule sets can never collide.
std::string matcher_fingerprint(const Algorithm& alg) {
  std::string fp;
  fp.reserve(16 + alg.rules.size() * 64);
  auto byte = [&fp](int v) { fp.push_back(static_cast<char>(v)); };
  auto word = [&fp](std::uint16_t v) {
    fp.push_back(static_cast<char>(v & 0xFF));
    fp.push_back(static_cast<char>(v >> 8));
  };
  byte(alg.phi);
  byte(static_cast<int>(alg.chirality));
  for (const Rule& rule : alg.rules) {
    byte(static_cast<int>(rule.self));
    byte(static_cast<int>(rule.new_color));
    byte(rule.move.has_value() ? 1 + static_cast<int>(*rule.move) : 0);
    byte(static_cast<int>(rule.cells.size()));
    for (const auto& [offset, pattern] : rule.cells) {
      byte(offset.row + kMaxPhi);
      byte(offset.col + kMaxPhi);
      byte(static_cast<int>(pattern.kind()));
      word(pattern.multiset().raw());
    }
  }
  return fp;
}

/// Folds one guard cell's pattern into the row's prefilter planes.  Only
/// constraints that are *implied* by a match are recorded (the planes must
/// never reject a matching snapshot); the dense walk still decides exact
/// multiset equality.
void fold_into_planes(CompiledRule& rule, std::size_t s, std::size_t w,
                      const CellPattern& pattern) {
  const auto bit = static_cast<std::uint16_t>(1u << w);
  switch (pattern.kind()) {
    case CellPattern::Kind::Empty:
      rule.forbid_occupied[s] |= bit;
      rule.forbid_wall[s] |= bit;
      break;
    case CellPattern::Kind::Wall:
      rule.need_wall[s] |= bit;
      break;
    case CellPattern::Kind::EmptyOrWall:
      rule.forbid_occupied[s] |= bit;
      break;
    case CellPattern::Kind::Multiset:
      rule.forbid_wall[s] |= bit;
      if (pattern.multiset().empty()) {
        rule.forbid_occupied[s] |= bit;
      } else {
        rule.need_occupied[s] |= bit;
      }
      break;
    case CellPattern::Kind::Any: break;
  }
}

}  // namespace

SnapshotPlanes snapshot_planes(const Snapshot& snap, int kernel_size) {
  SnapshotPlanes planes;
  for (int w = 0; w < kernel_size; ++w) {
    const CellContent& cell = snap.cells[static_cast<std::size_t>(w)];
    if (cell.wall) {
      planes.wall |= static_cast<std::uint16_t>(1u << w);
    } else if (!cell.robots.empty()) {
      planes.occupied |= static_cast<std::uint16_t>(1u << w);
    }
  }
  return planes;
}

CompiledAlgorithm::CompiledAlgorithm(const Algorithm& alg)
    : phi_(alg.phi),
      kernel_size_(ViewKernel::get(alg.phi).size()),
      syms_(alg.symmetries()) {
  const ViewKernel& kernel = ViewKernel::get(phi_);
  const std::span<const Vec> offsets = kernel.offsets();
  const std::size_t ks = static_cast<std::size_t>(kernel_size_);
  for (std::size_t ri = 0; ri < alg.rules.size(); ++ri) {
    const Rule& rule = alg.rules[ri];
    CompiledRule compiled;
    compiled.rule_index = static_cast<int>(ri);
    compiled.new_color = rule.new_color;
    compiled.patterns.resize(syms_.size() * ks);  // default: implicit gray
    for (std::size_t s = 0; s < syms_.size(); ++s) {
      const Sym sym = syms_[s];
      const std::span<const std::uint8_t> perm = kernel.permutation(sym);
      // The naive matcher checks pattern_at(offsets[i]) against the cell at
      // index_of(apply(sym, offsets[i])); the permutation is a bijection, so
      // scattering each pattern to its world slot yields the dense row.
      for (std::size_t i = 0; i < ks; ++i) {
        compiled.patterns[s * ks + perm[i]] = rule.pattern_at(offsets[i]);
      }
      for (std::size_t w = 0; w < ks; ++w) {
        fold_into_planes(compiled, s, w, compiled.patterns[s * ks + w]);
      }
      compiled.move_by_sym[s] =
          rule.move.has_value() ? static_cast<std::int8_t>(apply(sym, *rule.move))
                                : static_cast<std::int8_t>(-1);
    }
    by_color_[static_cast<std::size_t>(rule.self)].push_back(std::move(compiled));
  }
  // Scatter each group's per-rule planes into the padded SoA lane arrays the
  // block kernels sweep.  Padding lanes are all-ones sentinels: the kernel
  // has at most kMaxKernelSize (13) cells, so need bits 13..15 can never be
  // met and a sentinel lane always rejects.
  for (std::size_t color = 0; color < kMaxColors; ++color) {
    const std::vector<CompiledRule>& rules = by_color_[color];
    GuardGroup& group = groups_[color];
    group.lanes = rules.size() * syms_.size();
    const std::size_t padded =
        (group.lanes + kGuardLaneBlock - 1) / kGuardLaneBlock * kGuardLaneBlock;
    group.need_occupied.assign(padded, 0xFFFF);
    group.forbid_occupied.assign(padded, 0xFFFF);
    group.need_wall.assign(padded, 0xFFFF);
    group.forbid_wall.assign(padded, 0xFFFF);
    for (std::size_t ri = 0; ri < rules.size(); ++ri) {
      for (std::size_t s = 0; s < syms_.size(); ++s) {
        const std::size_t lane = ri * syms_.size() + s;
        group.need_occupied[lane] = rules[ri].need_occupied[s];
        group.forbid_occupied[lane] = rules[ri].forbid_occupied[s];
        group.need_wall[lane] = rules[ri].need_wall[s];
        group.forbid_wall[lane] = rules[ri].forbid_wall[s];
      }
    }
  }
}

std::uint32_t guard_pass_mask_scalar(const GuardGroup& group, SnapshotPlanes planes,
                                     std::size_t base) {
  std::uint32_t mask = 0;
  for (std::size_t i = 0; i < kGuardLaneBlock; ++i) {
    const std::size_t lane = base + i;
    const std::uint32_t reject =
        (group.need_occupied[lane] & static_cast<std::uint16_t>(~planes.occupied)) |
        (group.forbid_occupied[lane] & planes.occupied) |
        (group.need_wall[lane] & static_cast<std::uint16_t>(~planes.wall)) |
        (group.forbid_wall[lane] & planes.wall);
    if (reject == 0) mask |= 1u << i;
  }
  return mask;
}

#if defined(__SSE2__)

bool guard_simd_available() { return true; }

std::uint32_t guard_pass_mask(const GuardGroup& group, SnapshotPlanes planes, std::size_t base) {
  // A lane survives iff
  //   (need_occ & ~occ) | (forbid_occ & occ) | (need_wall & ~wall) | (forbid_wall & wall) == 0
  // evaluated for 8 u16 lanes per half against the broadcast snapshot planes.
  const __m128i occ = _mm_set1_epi16(static_cast<short>(planes.occupied));
  const __m128i wall = _mm_set1_epi16(static_cast<short>(planes.wall));
  const auto pass_half = [&](std::size_t at) {
    const auto load = [at](const std::vector<std::uint16_t>& plane) {
      return _mm_loadu_si128(reinterpret_cast<const __m128i*>(plane.data() + at));
    };
    const __m128i reject = _mm_or_si128(
        _mm_or_si128(_mm_andnot_si128(occ, load(group.need_occupied)),
                     _mm_and_si128(load(group.forbid_occupied), occ)),
        _mm_or_si128(_mm_andnot_si128(wall, load(group.need_wall)),
                     _mm_and_si128(load(group.forbid_wall), wall)));
    return _mm_cmpeq_epi16(reject, _mm_setzero_si128());
  };
  // packs saturates the pass words (0 or -1) to bytes, lanes 0..7 then
  // 8..15, so movemask's 16 bits are the survivor mask in lane order.
  const __m128i packed = _mm_packs_epi16(pass_half(base), pass_half(base + 8));
  return static_cast<std::uint32_t>(_mm_movemask_epi8(packed));
}

#else  // no SSE2 (non-x86 targets): the scalar reference is the kernel

bool guard_simd_available() { return false; }

std::uint32_t guard_pass_mask(const GuardGroup& group, SnapshotPlanes planes, std::size_t base) {
  return guard_pass_mask_scalar(group, planes, base);
}

#endif

std::shared_ptr<const CompiledAlgorithm> CompiledAlgorithm::get(const Algorithm& alg) {
  static std::mutex mu;
  static std::unordered_map<std::string, std::shared_ptr<const CompiledAlgorithm>> cache;
  const std::string key = matcher_fingerprint(alg);
  std::lock_guard lock(mu);
  std::shared_ptr<const CompiledAlgorithm>& slot = cache[key];
  if (!slot) slot = std::make_shared<const CompiledAlgorithm>(alg);
  return slot;
}

}  // namespace lumi

// Portable scheduler randomness.
//
// The engine below produces exactly std::mt19937's output stream, which the
// standard pins down, but builds it lazily (see rng::Engine).  The algorithms
// std::uniform_int_distribution and std::shuffle layer on top of an engine
// are implementation-defined, so libstdc++ and libc++ draw different values
// from identical seeds.  Schedulers draw through this in-repo Lemire bounded
// draw and Fisher-Yates shuffle instead, which makes every scheduler
// decision — and therefore campaign reports and checkpoints — byte-identical
// across compilers and platforms, not just across thread counts.
// tests/test_schedulers.cpp pins the engine against std::mt19937 over a
// thousand seeds, and golden sequences of the draws layered on it.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

namespace lumi {

namespace rng {
/// The one deterministic engine of the codebase: the 32-bit Mersenne Twister
/// with std::mt19937's parameters, seeding and output stream, computed
/// lazily.  A randomized run draws about a hundred numbers, while
/// std::mt19937 seeds all 624 state words on construction and twists all
/// of them on the first draw.  Here the constructor stores only word 0; the
/// first round of draws seeds words just far enough ahead (word k + 397
/// before word k is twisted), and every draw twists one word in place, with
/// the same operands as the standard's in-place loop, then tempers it.  A
/// run drawing D < 227 numbers pays 397 + D seeding steps and D twists
/// instead of 624 + 624.
///
/// lumi-lint's banned-rng rule keeps the standard engines out of src/
/// (docs/DETERMINISM.md#rng-discipline).
class Engine {
 public:
  using result_type = std::uint32_t;
  static constexpr result_type default_seed = 5489u;

  explicit Engine(result_type seed = default_seed) { x_[0] = seed; }
  /// Words at and after seeded_ are unwritten, so a copy would read
  /// indeterminate values; no caller needs one.
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return 0xffffffffu; }

  result_type operator()() {
    const std::uint32_t k = next_;
    // Seeding happens only in the first round and ends at draw 226, whose
    // k + kM is word 623, so k + kM stays inside the state here.
    if (seeded_ < kN) seed_through(k + kM);
    const std::uint32_t k1 = k + 1 == kN ? 0 : k + 1;
    const std::uint32_t km = k < kN - kM ? k + kM : k - (kN - kM);
    const std::uint32_t y = (x_[k] & 0x80000000u) | (x_[k1] & 0x7fffffffu);
    std::uint32_t z = x_[km] ^ (y >> 1) ^ ((y & 1u) ? 0x9908b0dfu : 0u);
    x_[k] = z;
    next_ = k1;
    z ^= z >> 11;
    z ^= (z << 7) & 0x9d2c5680u;
    z ^= (z << 15) & 0xefc60000u;
    return z ^ (z >> 18);
  }

 private:
  static constexpr std::uint32_t kN = 624;
  static constexpr std::uint32_t kM = 397;

  /// Runs the standard's seeding recurrence up to and including word `last`.
  void seed_through(std::uint32_t last) {
    for (; seeded_ <= last; ++seeded_) {
      const std::uint32_t prev = x_[seeded_ - 1];
      x_[seeded_] = 1812433253u * (prev ^ (prev >> 30)) + seeded_;
    }
  }

  std::uint32_t x_[kN];        ///< words [0, seeded_) are written
  std::uint32_t next_ = 0;     ///< the word the next draw twists and returns
  std::uint32_t seeded_ = 1;   ///< words seeded so far; kN once the first round is done
};
}  // namespace rng

/// Unbiased draw from [0, n) using Lemire's nearly-divisionless method
/// (https://arxiv.org/abs/1805.10941).  Precondition: n >= 1.
inline std::uint32_t bounded_draw(rng::Engine& rng, std::uint32_t n) {
  std::uint64_t m = static_cast<std::uint64_t>(rng()) * n;
  auto low = static_cast<std::uint32_t>(m);
  if (low < n) {
    const std::uint32_t threshold = (0u - n) % n;  // 2^32 mod n
    while (low < threshold) {
      m = static_cast<std::uint64_t>(rng()) * n;
      low = static_cast<std::uint32_t>(m);
    }
  }
  return static_cast<std::uint32_t>(m >> 32);
}

/// In-place Fisher-Yates shuffle driven by bounded_draw (the portable
/// std::shuffle replacement).
template <typename T>
void fisher_yates(std::vector<T>& items, rng::Engine& rng) {
  for (std::size_t i = items.size(); i > 1; --i) {
    using std::swap;
    swap(items[i - 1], items[bounded_draw(rng, static_cast<std::uint32_t>(i))]);
  }
}

}  // namespace lumi

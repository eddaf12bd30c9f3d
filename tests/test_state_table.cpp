// The intern table under the exhaustive searches: dense ids in insertion
// order, exact deduplication across growth, and reuse after reset.
#include "src/analysis/state_table.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>

namespace lumi {
namespace {

std::array<std::uint64_t, 3> key_of(std::uint64_t i) {
  // Keys that differ in one word only, and share their low bits widely, so
  // hash tags and probe chains are exercised.
  return {i << 20, 7, i % 3};
}

TEST(StateTable, InternsDenselyAndDeduplicatesAcrossGrowth) {
  StateTable table(3);
  constexpr int kKeys = 20000;
  for (int i = 0; i < kKeys; ++i) {
    const auto key = key_of(static_cast<std::uint64_t>(i));
    const auto [id, inserted] = table.intern(key.data());
    ASSERT_TRUE(inserted) << i;
    ASSERT_EQ(id, i);
  }
  EXPECT_EQ(table.size(), kKeys);
  for (int i = 0; i < kKeys; ++i) {
    const auto key = key_of(static_cast<std::uint64_t>(i));
    const auto [id, inserted] = table.intern(key.data());
    EXPECT_FALSE(inserted) << i;
    EXPECT_EQ(id, i);
    const std::uint64_t* stored = table.key(id);
    EXPECT_EQ(stored[0], key[0]);
    EXPECT_EQ(stored[1], key[1]);
    EXPECT_EQ(stored[2], key[2]);
  }
  EXPECT_EQ(table.size(), kKeys);
}

TEST(StateTable, ResetForgetsKeysAndTakesANewStride) {
  StateTable table(3);
  const auto key = key_of(5);
  table.intern(key.data());
  table.reset(1);
  EXPECT_EQ(table.size(), 0);
  EXPECT_EQ(table.stride(), 1u);
  const std::uint64_t a = 42;
  const std::uint64_t b = 43;
  EXPECT_EQ(table.intern(&a), (std::pair<std::int32_t, bool>{0, true}));
  EXPECT_EQ(table.intern(&b), (std::pair<std::int32_t, bool>{1, true}));
  EXPECT_EQ(table.intern(&a), (std::pair<std::int32_t, bool>{0, false}));
}

}  // namespace
}  // namespace lumi

// Fixture: the engine header reproduces std::mt19937's stream in-repo and
// names the standard engine only in comments like this one.
#pragma once
#include <cstdint>
namespace lumi::rng {
class Engine {
 public:
  using result_type = std::uint32_t;
  result_type operator()();
};
}  // namespace lumi::rng

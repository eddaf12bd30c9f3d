#include "src/sched/async_schedulers.hpp"

#include "src/core/rng.hpp"

namespace lumi {

namespace {
Action random_action(rng::Engine& rng, const std::vector<Action>& choices) {
  return choices[bounded_draw(rng, static_cast<std::uint32_t>(choices.size()))];
}
}  // namespace

AsyncRandomScheduler::AsyncRandomScheduler(unsigned seed) : rng_(seed) {}

int AsyncRandomScheduler::pick_robot(const AsyncEngine&, const std::vector<int>& effective) {
  return effective[bounded_draw(rng_, static_cast<std::uint32_t>(effective.size()))];
}

Action AsyncRandomScheduler::pick_action(const AsyncEngine&, int,
                                         const std::vector<Action>& choices) {
  return random_action(rng_, choices);
}

int AsyncCentralizedScheduler::pick_robot(const AsyncEngine& engine,
                                          const std::vector<int>& effective) {
  for (int robot : effective) {
    if (engine.phase(robot) != Phase::Idle) return robot;  // finish started cycles first
  }
  // All candidates are Idle: rotate for fairness.
  for (std::size_t i = 0; i < effective.size(); ++i) {
    if (effective[i] >= next_) {
      next_ = effective[i] + 1;
      return effective[i];
    }
  }
  next_ = effective.front() + 1;
  return effective.front();
}

Action AsyncCentralizedScheduler::pick_action(const AsyncEngine&, int,
                                              const std::vector<Action>& choices) {
  return choices.front();
}

AsyncStaleStressScheduler::AsyncStaleStressScheduler(unsigned seed) : rng_(seed) {}

int AsyncStaleStressScheduler::pick_robot(const AsyncEngine& engine,
                                          const std::vector<int>& effective) {
  // Prefer starting new Looks (accumulating concurrent pending cycles);
  // among equals pick randomly.
  idle_.clear();
  for (int robot : effective) {
    if (engine.phase(robot) == Phase::Idle) idle_.push_back(robot);
  }
  const std::vector<int>& pool = idle_.empty() ? effective : idle_;
  return pool[bounded_draw(rng_, static_cast<std::uint32_t>(pool.size()))];
}

Action AsyncStaleStressScheduler::pick_action(const AsyncEngine&, int,
                                              const std::vector<Action>& choices) {
  return random_action(rng_, choices);
}

}  // namespace lumi

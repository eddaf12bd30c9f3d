// Pins the engines' steady state allocation-free: a counting global
// operator new, armed only inside a measured window of a real run_async /
// run_sync call, must see zero heap allocations.  The window opens after a
// warm-up (the tracker's verdict vectors and the engine's view buffers reach
// their working capacity there) and spans thousands of events, so a single
// per-event vector anywhere in the loop — engine, tracker, runner or
// scheduler — fails the test.
#include <atomic>
#include <cstdlib>
#include <new>
#include <string>

#include <gtest/gtest.h>

#include "src/algorithms/registry.hpp"
#include "src/engine/runner.hpp"

namespace {

std::atomic<bool> g_armed{false};
std::atomic<long> g_allocations{0};

void* counted_alloc(std::size_t n) {
  if (g_armed.load()) g_allocations.fetch_add(1);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace lumi {
namespace {

constexpr long kWarmupEvents = 200;
constexpr long kWindowEvents = 2000;

/// Arms the counter for loop iterations [kWarmupEvents, kWarmupEvents +
/// kWindowEvents) of the engine driving it.  The engines call the scheduler
/// exactly once per event (ASYNC) or instant (sync), so `tick` is the loop
/// counter.
class Window {
 public:
  void tick() {
    ++ticks_;
    if (ticks_ == kWarmupEvents) {
      g_allocations.store(0);
      g_armed.store(true);
    } else if (ticks_ == kWarmupEvents + kWindowEvents) {
      close();
    }
  }
  void close() { g_armed.store(false); }
  /// True when the run outlived the window, i.e. every measured event ran.
  bool completed() const { return ticks_ >= kWarmupEvents + kWindowEvents; }
  long ticks() const { return ticks_; }

 private:
  long ticks_ = 0;
};

class WindowedAsync final : public AsyncScheduler {
 public:
  WindowedAsync(AsyncScheduler& inner, Window& window) : inner_(inner), window_(window) {}
  int pick_robot(const AsyncEngine& engine, const std::vector<int>& effective) override {
    window_.tick();
    return inner_.pick_robot(engine, effective);
  }
  Action pick_action(const AsyncEngine& engine, int robot,
                     const std::vector<Action>& choices) override {
    return inner_.pick_action(engine, robot, choices);
  }
  std::string name() const override { return inner_.name(); }

 private:
  AsyncScheduler& inner_;
  Window& window_;
};

class WindowedSync final : public SyncScheduler {
 public:
  WindowedSync(SyncScheduler& inner, Window& window) : inner_(inner), window_(window) {}
  std::vector<RobotAction> select(const Configuration& config,
                                  const std::vector<std::vector<Action>>& enabled) override {
    window_.tick();
    return inner_.select(config, enabled);
  }
  void select_into(const Configuration& config, const std::vector<std::vector<Action>>& enabled,
                   std::vector<RobotAction>& out) override {
    window_.tick();
    inner_.select_into(config, enabled, out);
  }
  std::string name() const override { return inner_.name(); }

 private:
  SyncScheduler& inner_;
  Window& window_;
};

// Every ASYNC-capable Table-1 row, on a grid large enough that each run
// outlives the measured window.
const char* const kAsyncSections[] = {"4.3.1", "4.3.2", "4.3.3", "4.3.4", "4.3.5"};
constexpr int kSide = 48;

void expect_async_window_allocation_free(AsyncScheduler& sched) {
  for (const char* section : kAsyncSections) {
    const Algorithm alg = algorithms::entry(section).make();
    const Grid grid(kSide, kSide);
    Window window;
    WindowedAsync windowed(sched, window);
    const RunResult result = run_async(alg, grid, windowed);
    window.close();
    ASSERT_TRUE(window.completed())
        << section << ": run ended after " << window.ticks() << " events, inside the window";
    EXPECT_EQ(g_allocations.load(), 0)
        << section << " under " << sched.name() << ": heap allocations over " << kWindowEvents
        << " steady-state events";
    EXPECT_TRUE(result.ok()) << section << ": " << result.failure;
  }
}

TEST(EngineAlloc, AsyncRandomEventLoopIsAllocationFree) {
  AsyncRandomScheduler sched(11);
  expect_async_window_allocation_free(sched);
}

TEST(EngineAlloc, AsyncCentralizedEventLoopIsAllocationFree) {
  AsyncCentralizedScheduler sched;
  expect_async_window_allocation_free(sched);
}

TEST(EngineAlloc, AsyncStaleStressEventLoopIsAllocationFree) {
  AsyncStaleStressScheduler sched(11);
  expect_async_window_allocation_free(sched);
}

TEST(EngineAlloc, SsyncRandomInstantLoopIsAllocationFree) {
  const Algorithm alg = algorithms::entry("4.3.1").make();
  const Grid grid(kSide, kSide);
  SsyncRandomScheduler inner(11);
  Window window;
  WindowedSync sched(inner, window);
  const RunResult result = run_sync(alg, grid, sched);
  window.close();
  ASSERT_TRUE(window.completed())
      << "run ended after " << window.ticks() << " instants, inside the window";
  EXPECT_EQ(g_allocations.load(), 0)
      << "heap allocations over " << kWindowEvents << " steady-state SSYNC instants";
  EXPECT_TRUE(result.ok()) << result.failure;
}

}  // namespace
}  // namespace lumi

// Shared plumbing of the benchmark: run context, metric collection, sample
// statistics and seed derivation.
#pragma once

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// CPU seconds used so far by all threads of this process
/// (CLOCK_PROCESS_CPUTIME_ID) or by the calling thread
/// (CLOCK_THREAD_CPUTIME_ID).  Unlike wall time, it leaves out time a thread
/// waited to run, including time the host held a virtual CPU back (steal),
/// so on a shared machine it measures the work done rather than the
/// neighbours' load.
inline double cpu_seconds(clockid_t clock = CLOCK_PROCESS_CPUTIME_ID) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Wall and process CPU time elapsed since construction.
struct Stopwatch {
  Clock::time_point wall0 = Clock::now();
  double cpu0 = cpu_seconds();

  double wall() const { return seconds_since(wall0); }
  double cpu() const { return cpu_seconds() - cpu0; }
};

/// A correctness-gate violation: the run aborts without printing a result.
struct GateFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

inline void gate(bool ok, const std::string& what) {
  if (!ok) throw GateFailure(what);
}

/// Exact values `perfbench/workloads.json` pins for a workload (run.py
/// passes them as flags); -1 = not pinned.
struct Expectations {
  long long cells = -1;
  long long jobs = -1;
  long long checks = -1;
  long long check_states = -1;
  long long check_transitions = -1;
  long long adversary_states = -1;
};

struct Context {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  unsigned nproc = 1;
  Expectations expect;
  std::filesystem::path scratch;  ///< per-process directory under the build dir
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;  ///< how many measurements the value summarizes
};

/// What one invocation reports: the metrics of its mode plus the job
/// accounting (`failed` counts jobs or checks that did not succeed).
struct Outcome {
  long long attempted = 0;
  long long failed = 0;
  std::vector<Metric> metrics;
  /// Intervals of the traced reproductions of the workload; per-layer self
  /// time is taken over the spans that start inside them.
  std::vector<std::pair<Clock::time_point, Clock::time_point>> traced_windows;

  void add(std::string name, double value, std::string unit, std::size_t samples = 1) {
    metrics.push_back({std::move(name), value, std::move(unit), samples});
  }
};

/// Linear-interpolation quantile (q in [0, 1]) of `v`; 0 for an empty set.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

inline double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

/// splitmix64: the benchmark's only source of input randomness.
inline std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

/// `n` distinct positive scheduler seeds derived from the workload seed.
inline std::vector<unsigned> derive_seeds(std::uint64_t seed, std::size_t n) {
  std::uint64_t state = seed;
  std::vector<unsigned> out;
  while (out.size() < n) {
    const auto s = static_cast<unsigned>(splitmix64(state) >> 33) + 1u;
    if (std::find(out.begin(), out.end(), s) == out.end()) out.push_back(s);
  }
  return out;
}

/// Deterministic Fisher-Yates shuffle driven by splitmix64.
template <typename T>
void shuffle(std::vector<T>& v, std::uint64_t seed) {
  std::uint64_t state = seed ^ 0x5DEECE66DULL;
  for (std::size_t i = v.size(); i > 1; --i) {
    const std::size_t j = static_cast<std::size_t>(splitmix64(state) % i);
    std::swap(v[i - 1], v[j]);
  }
}

/// Number of slices a single-threaded leg is measured in.  Each timed sample
/// runs one slice, so the leg is sampled four times as often as whole passes
/// would allow, and the sum of the slices' medians is the leg's time for the
/// whole input.
inline constexpr std::size_t kSlices = 4;

/// Deals items, largest cost first, to the currently lightest of kSlices
/// slices; returns each item's slice.
inline std::vector<std::size_t> balance_slices(const std::vector<long long>& cost) {
  std::vector<std::size_t> order(cost.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return cost[a] > cost[b]; });
  std::vector<std::size_t> slice_of(cost.size());
  std::vector<long long> load(kSlices, 0);
  for (std::size_t i : order) {
    const auto k =
        static_cast<std::size_t>(std::min_element(load.begin(), load.end()) - load.begin());
    slice_of[i] = k;
    load[k] += cost[i];
  }
  return slice_of;
}

/// Peak resident set of this process in MiB (getrusage).
double peak_rss_mb();

// Workloads (one translation unit each).
Outcome run_sweep_large(const Context& ctx);
Outcome run_sweep_micro_ckpt(const Context& ctx);
Outcome run_verify_exhaustive(const Context& ctx);

/// One traced pass of the verification workload's checks inside another
/// workload's traced run: adds the analysis.* per-layer metrics and gates
/// the exact totals against the pins.
void analysis_probe(const Context& ctx, Outcome& out);

}  // namespace perfbench

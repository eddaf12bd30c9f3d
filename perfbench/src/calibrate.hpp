// Host-speed calibration: a fixed reference computation, timed between a
// workload's timed passes, that measures how fast the host runs at that
// moment.  On a shared machine the CPU time of the same work swings by
// more than 2x as other tenants load the cores and caches the benchmark
// shares (time the host takes the CPU away entirely is already left out of
// CPU time).  Dividing a pass's CPU time by the reference kernel's time
// around it and multiplying by the kernel's nominal time gives the pass's
// time on the host at its nominal speed: a number that stays put while the
// host's load changes.
//
// The kernel is the benchmark's own code and calls nothing in the library,
// so a change to the program never moves it.  It imitates the simulator's
// profile (a small grid, per-robot neighbourhood hashing, data-dependent
// branches, and a hash set of visited configurations) so that contention
// slows it about as much as it slows the workloads.
#pragma once

#include <cstddef>
#include <vector>

#include "common.hpp"

namespace perfbench {

/// CPU seconds (calling thread) of one run of the reference kernel.
double reference_seconds();

/// The kernel's nominal time, in CPU seconds.  Chosen on the 4-vCPU VM
/// (Intel Xeon, gcc 12, Release) where the benchmark was defined so that,
/// with its host under load, the three workloads' nominal one-thread rates
/// came within about 12 % of the rates measured while that host was idle.
/// Only the scale of the nominal figures depends on it.
inline constexpr double kReferenceNominalSeconds = 0.012;

/// The timed passes of a workload's untraced run: passes over the whole
/// input at nproc threads, and one-thread passes over kSlices slices of it.
/// Every pass is bracketed by runs of the reference kernel; a one-thread
/// pass's time in nominal seconds is its CPU time times
/// kReferenceNominalSeconds over the mean of the two kernel runs around it.
class TimedLegs {
 public:
  /// Runs the kernel once, ahead of the first pass.
  TimedLegs();

  /// Records a pass over the whole input at nproc threads that took `wall`
  /// seconds, then runs the kernel again.
  void add_parallel(double wall);

  /// Records a one-thread pass over slice `k` that took `wall` and `cpu`
  /// seconds, then runs the kernel again.
  void add_slice(std::size_t k, double wall, double cpu);

  /// Nominal CPU seconds of one one-thread pass over the whole input: the
  /// sum over slices of each slice's median.
  double one_thread_nominal() const;

  /// (input per wall second at `threads` threads) / (`threads` x input per
  /// wall second on one thread), as the median over the parallel passes of
  /// the wall time of the four one-thread slice passes around the pass (a
  /// whole rotation, so the whole input) over `threads` x the pass's wall
  /// time.  Each ratio compares two legs timed within about two seconds of
  /// each other, so the host's speed, which drifts over longer spans,
  /// cancels out.  It is not scaled by the kernel: the host's load slows one
  /// core and all of them differently.
  double parallel_efficiency(unsigned threads) const;
  std::size_t parallel_passes() const { return parallel_wall_.size(); }

  /// kReferenceNominalSeconds over the median kernel time: converts CPU
  /// seconds measured during the run into nominal seconds.
  double nominal_per_cpu_second() const;

  void print(unsigned threads) const;

 private:
  /// Runs the kernel; returns the mean of this run and the one before.
  double bracket();

  std::vector<double> kernel_;
  std::vector<double> parallel_wall_;
  /// For each parallel pass, the number of slice passes recorded before it.
  std::vector<std::size_t> parallel_at_;
  /// Wall seconds of every slice pass, in the order they ran.
  std::vector<double> slice_walls_;
  std::vector<std::vector<double>> wall_, cpu_, nominal_cpu_;
};

}  // namespace perfbench

// Measurements shared by the workloads: set-up time, the core-layer replay
// probe, job-failure accounting and its self-test.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "src/campaign/campaign.hpp"
#include "src/core/algorithm.hpp"
#include "src/topo/topology.hpp"

namespace perfbench {

/// What a workload builds before its first job.  Every workload makes the
/// fourteen Table-1 algorithms and compiles each one's matcher; a sweep also
/// expands its matrix (which runs the rule analyzer on every section) and
/// constructs its `nproc`-worker pool; the verification workload, which has
/// no expansion, runs the analyzer gate itself.
struct SetupPlan {
  const lumi::campaign::Matrix* matrix = nullptr;  ///< null: verification workload
  unsigned pool_threads = 0;
};

/// Set-up repetitions before the first pass, and after each timed pass.
inline constexpr std::size_t kSetupRepsFirst = 11;
inline constexpr std::size_t kSetupRepsPerPass = 4;

/// Times the set-up.  Workloads sample it before their first pass and again
/// after every timed pass, so its median sees the same machine conditions
/// as the passes (a burst of repetitions at start-up reads whatever the
/// machine was doing in that quarter second).
class SetupMeter {
 public:
  SetupMeter(const Context& ctx, const SetupPlan& plan) : ctx_(ctx), plan_(plan) {}

  /// Runs the set-up `reps` more times.
  void sample(std::size_t reps);

  /// Adds `setup_s`: the median CPU seconds of one set-up on the calling
  /// thread, times `nominal_per_cpu_second` (see calibrate.hpp).  The
  /// first, cold, repetition is printed separately.
  void report_setup(Outcome& out, double nominal_per_cpu_second) const;

  /// Adds `algorithms.make_us`, `analysis.rule_analysis_ms` and
  /// `campaign.expand_ms` (medians per repetition, over all sections).
  void report_layers(Outcome& out) const;

 private:
  const Context& ctx_;
  SetupPlan plan_;
  std::vector<double> total_, make_, expand_, analysis_;
};

/// One job whose configurations the core probe replays.
struct ReplaySample {
  std::string section;
  lumi::Topology topo;
  lumi::campaign::SchedKind kind;
  unsigned seed;
};

/// Replays configurations reached by the samples' runs (the first
/// kReplayPrefix instants of each) through take_snapshot_into,
/// enabled_actions_into, guard_pass_mask, first_enabled and
/// DirtyTracker::refresh, and adds core.{snapshot,match,guard_block,
/// first_enabled,tracker_refresh}_ns (mean ns per call).
void core_probe(const std::vector<ReplaySample>& samples, Outcome& out);

/// Jobs of a campaign summary that did not succeed: per cell, the largest of
/// runs that did not terminate, did not explore every node, or carried a
/// failure string.  Exact when it is 0, a lower bound otherwise (the
/// aggregate does not say whether the three overlap).
long long failed_jobs(const lumi::campaign::CampaignSummary& summary);

/// True for a job result the benchmark counts as failed.
bool job_failed(const lumi::RunResult& r);

/// Failure-accounting self-test, run before every workload: a torus cell
/// (where no Table-1 algorithm terminates) under a small step cap must be
/// counted failed, job by job and in the summary, never dropped.
void failure_accounting_self_test();

/// Prints a sample set: its median, quartiles, maximum and every value.
void print_samples(const char* what, const std::vector<double>& v);

/// Prints one human-readable line per metric: name, value, unit, samples.
void print_metrics(const Outcome& out);

}  // namespace perfbench

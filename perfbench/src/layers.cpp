#include "layers.hpp"

#include <sys/resource.h>

#include <cstdio>

#include "spans.hpp"
#include "src/algorithms/registry.hpp"
#include "src/analysis/rule_analysis.hpp"
#include "src/campaign/thread_pool.hpp"
#include "src/core/compiled.hpp"
#include "src/core/incremental.hpp"
#include "src/core/matching.hpp"
#include "src/core/view.hpp"

namespace perfbench {

using namespace lumi;

namespace {

/// Keeps replay loops from being optimized away.
volatile std::uint64_t g_sink = 0;

struct SetupTimes {
  double total = 0.0;  ///< CPU seconds of the calling thread; the parts are wall time
  double make = 0.0;
  double expand = 0.0;
  double analysis = 0.0;
};

SetupTimes setup_once(const SetupPlan& plan) {
  SetupTimes t;
  const double cpu0 = cpu_seconds(CLOCK_THREAD_CPUTIME_ID);
  const Clock::time_point start = Clock::now();
  std::vector<Algorithm> algs;
  for (const algorithms::TableEntry& e : algorithms::table1()) {
    Span span("algorithms.make");
    algs.push_back(e.make());
  }
  t.make = seconds_since(start);
  if (plan.matrix != nullptr) {
    const Clock::time_point t0 = Clock::now();
    Span span("campaign.expand");
    g_sink = g_sink + campaign::expand(*plan.matrix).jobs.size();
    t.expand = seconds_since(t0);
  } else {
    const Clock::time_point t0 = Clock::now();
    for (const Algorithm& alg : algs) {
      Span span("analysis.rule_analysis");
      analysis::require_well_formed(alg);
    }
    t.analysis = seconds_since(t0);
  }
  if (plan.pool_threads != 0) {
    Span span("campaign.pool_construct");
    ThreadPool pool(plan.pool_threads);
  }
  for (const Algorithm& alg : algs) {
    Span span("core.compile");
    const CompiledAlgorithm compiled(alg);
    g_sink = g_sink + static_cast<std::uint64_t>(compiled.kernel_size());
  }
  t.total = cpu_seconds(CLOCK_THREAD_CPUTIME_ID) - cpu0;
  return t;
}

/// The analyzer on every section, timed on its own: a sweep's analyzer runs
/// inside expand(), where it cannot be separated from the expansion.
double analyzer_only() {
  std::vector<Algorithm> algs;
  for (const algorithms::TableEntry& e : algorithms::table1()) algs.push_back(e.make());
  const Clock::time_point t0 = Clock::now();
  for (const Algorithm& alg : algs) {
    Span span("analysis.rule_analysis");
    g_sink = g_sink + analysis::analyze(alg).findings.size();
  }
  return seconds_since(t0);
}

/// Per-call means of the replay loops, accumulated over samples.
struct ReplayTotals {
  double snapshot_s = 0.0, match_s = 0.0, first_s = 0.0, guard_s = 0.0, refresh_s = 0.0;
  long long snapshots = 0, guard_blocks = 0, refreshes = 0;
};

/// Caps the configurations recorded per sampled job, so a 32x32 run's trace
/// stays a few megabytes.
constexpr long kReplayPrefix = 2000;
/// Consecutive configuration pairs replayed through DirtyTracker::refresh
/// per sampled job.
constexpr std::size_t kRefreshPairs = 400;

void replay_one(const ReplaySample& sample, ReplayTotals& tot) {
  const Algorithm alg = algorithms::entry(sample.section).make();
  const std::shared_ptr<const CompiledAlgorithm> compiled = CompiledAlgorithm::get(alg);
  RunOptions opts;
  opts.record_trace = true;
  opts.max_steps = kReplayPrefix;  // a budget stop is expected: only the prefix is replayed
  RunResult run;
  {
    Span span("bench.record_sample");
    run = campaign::run_with_sched(alg, sample.topo, sample.kind, sample.seed, opts);
  }
  const std::vector<TraceEntry>& entries = run.trace.entries();

  std::vector<Snapshot> snaps;
  for (const TraceEntry& e : entries) snaps.resize(snaps.size() + e.config.num_robots());
  {
    Span span("core.take_snapshot_into", static_cast<long long>(snaps.size()));
    const Clock::time_point t0 = Clock::now();
    std::size_t k = 0;
    for (const TraceEntry& e : entries)
      for (int r = 0; r < e.config.num_robots(); ++r)
        take_snapshot_into(e.config, r, alg.phi, snaps[k++]);
    tot.snapshot_s += seconds_since(t0);
  }
  tot.snapshots += static_cast<long long>(snaps.size());
  {
    Span span("core.enabled_actions_into", static_cast<long long>(snaps.size()));
    std::vector<Action> actions;
    std::uint64_t acc = 0;
    const Clock::time_point t0 = Clock::now();
    for (const Snapshot& s : snaps) {
      enabled_actions_into(*compiled, s, actions);
      acc += actions.size();
    }
    tot.match_s += seconds_since(t0);
    g_sink = g_sink + acc;
  }
  {
    Span span("core.first_enabled", static_cast<long long>(snaps.size()));
    std::uint64_t acc = 0;
    const Clock::time_point t0 = Clock::now();
    for (const Snapshot& s : snaps) acc += first_enabled(*compiled, s).has_value() ? 1 : 0;
    tot.first_s += seconds_since(t0);
    g_sink = g_sink + acc;
  }
  {
    long long blocks = 0;
    for (const Snapshot& s : snaps)
      blocks += static_cast<long long>(compiled->guard_group(s.self_color).need_occupied.size() /
                                       kGuardLaneBlock);
    Span span("core.guard_pass_mask", blocks);
    std::uint64_t acc = 0;
    const Clock::time_point t0 = Clock::now();
    for (const Snapshot& s : snaps) {
      const GuardGroup& group = compiled->guard_group(s.self_color);
      for (std::size_t base = 0; base < group.need_occupied.size(); base += kGuardLaneBlock)
        acc += guard_pass_mask(group, s.planes, base);
    }
    tot.guard_s += seconds_since(t0);
    tot.guard_blocks += blocks;
    g_sink = g_sink + acc;
  }
  // Tracker refresh across consecutive recorded configurations: attach to a
  // copy of configuration i, replay the per-robot difference to i+1 through
  // the journaled mutators, and time the refresh that re-matches the robots
  // whose view changed.
  const std::size_t pairs = entries.size() < 2 ? 0 : entries.size() - 1;
  const std::size_t stride = std::max<std::size_t>(1, pairs / kRefreshPairs);
  for (std::size_t i = 0; i + 1 < entries.size(); i += stride) {
    const Configuration& next = entries[i + 1].config;
    Configuration work(entries[i].config);
    DirtyTracker tracker(compiled, work);
    for (int r = 0; r < work.num_robots(); ++r) {
      if (work.robot(r).color != next.robot(r).color) work.set_color(r, next.robot(r).color);
      if (work.robot(r).pos != next.robot(r).pos) work.move_robot(r, next.robot(r).pos);
    }
    Span span("core.tracker_refresh", 1);
    const Clock::time_point t0 = Clock::now();
    tracker.refresh();
    tot.refresh_s += seconds_since(t0);
    ++tot.refreshes;
    g_sink = g_sink + (tracker.any_enabled() ? 1 : 0);
  }
}

double per_call_ns(double seconds, long long calls) {
  return calls == 0 ? 0.0 : seconds * 1e9 / static_cast<double>(calls);
}

}  // namespace

void SetupMeter::sample(std::size_t reps) {
  for (std::size_t i = 0; i < reps; ++i) {
    const SetupTimes t = setup_once(plan_);
    total_.push_back(t.total);
    make_.push_back(t.make);
    expand_.push_back(t.expand);
    analysis_.push_back(plan_.matrix != nullptr && ctx_.trace ? analyzer_only() : t.analysis);
  }
}

void SetupMeter::report_setup(Outcome& out, double nominal_per_cpu_second) const {
  const std::size_t n = total_.size();
  std::printf("setup: cold %.6f CPU s, median of %zu %.6f CPU s, %.6f nominal s\n",
              total_.front(), n, median(total_), median(total_) * nominal_per_cpu_second);
  out.add("setup_s", median(total_) * nominal_per_cpu_second, "s", n);
}

void SetupMeter::report_layers(Outcome& out) const {
  const std::size_t n = total_.size();
  out.add("algorithms.make_us", median(make_) * 1e6, "us", n);
  out.add("analysis.rule_analysis_ms", median(analysis_) * 1e3, "ms", n);
  out.add("campaign.expand_ms", median(expand_) * 1e3, "ms", n);
}

void core_probe(const std::vector<ReplaySample>& samples, Outcome& out) {
  ReplayTotals tot;
  for (const ReplaySample& s : samples) replay_one(s, tot);
  std::printf("core probe: %zu sampled jobs, %lld snapshots, %lld refreshes\n", samples.size(),
              tot.snapshots, tot.refreshes);
  const auto n = static_cast<std::size_t>(tot.snapshots);
  out.add("core.snapshot_ns", per_call_ns(tot.snapshot_s, tot.snapshots), "ns", n);
  out.add("core.match_ns", per_call_ns(tot.match_s, tot.snapshots), "ns", n);
  out.add("core.first_enabled_ns", per_call_ns(tot.first_s, tot.snapshots), "ns", n);
  out.add("core.guard_block_ns", per_call_ns(tot.guard_s, tot.guard_blocks), "ns",
          static_cast<std::size_t>(tot.guard_blocks));
  out.add("core.tracker_refresh_ns", per_call_ns(tot.refresh_s, tot.refreshes), "ns",
          static_cast<std::size_t>(tot.refreshes));
}

long long failed_jobs(const campaign::CampaignSummary& summary) {
  long long failed = 0;
  for (const campaign::CellSummary& c : summary.cells) {
    failed += std::max({c.acc.runs - c.acc.terminated, c.acc.runs - c.acc.explored_all,
                        c.acc.failures});
  }
  return failed;
}

bool job_failed(const RunResult& r) { return !r.ok() || !r.failure.empty(); }

void failure_accounting_self_test() {
  const campaign::Cell cell{.section = "4.2.1",
                            .rows = 4,
                            .cols = 4,
                            .sched = campaign::SchedKind::SsyncRandom,
                            .topo = "torus"};
  RunOptions opts;
  opts.max_steps = 64;
  const std::vector<unsigned> seeds = {1, 2, 3};
  long long seen = 0, counted = 0;
  try {
    campaign::run_cell_batch(cell, seeds, opts, nullptr, nullptr,
                             [&](std::size_t, const RunResult& r) {
                               ++seen;
                               if (job_failed(r)) ++counted;
                             });
  } catch (const std::exception&) {
    counted = static_cast<long long>(seeds.size());  // an escaped exception fails every job
    seen = counted;
  }
  gate(seen == 3 && counted == 3,
       "self-test: a torus cell under a 64-step cap must count 3 of 3 jobs failed, counted " +
           std::to_string(counted) + " of " + std::to_string(seen));
  campaign::Expansion ex;
  ex.cells = {cell};
  for (unsigned s : seeds) ex.jobs.push_back({0, s});
  ex.options = opts;
  const long long summary_failed = failed_jobs(campaign::run_campaign(ex, 1));
  gate(summary_failed == 3, "self-test: summary accounting counted " +
                                std::to_string(summary_failed) + " of 3 failing jobs");
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

void print_samples(const char* what, const std::vector<double>& v) {
  std::printf("%s: n=%zu median %.6f p25 %.6f p75 %.6f max %.6f [", what, v.size(), median(v),
              quantile(v, 0.25), quantile(v, 0.75), quantile(v, 1.0));
  for (double x : v) std::printf(" %.4f", x);
  std::printf(" ]\n");
}

void print_metrics(const Outcome& out) {
  for (const Metric& m : out.metrics)
    std::printf("  %-34s %16.6f %-6s n=%zu\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.samples);
}

}  // namespace perfbench

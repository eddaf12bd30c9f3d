// verify_exhaustive: model_check of every Table-1 section under every model
// its synchrony admits, on every grid r x c with r * c <= 64 at or above the
// algorithm's minimum, plus find_ssync_adversary for the six SSYNC/ASYNC
// sections on the same grids.  Timed on one thread, plus an nproc-thread
// leg (one pool task per check) for the parallel efficiency.  It exercises
// the matcher through first_enabled, state encoding and the visited set, and
// never touches the campaign layer, the runner or the tracker.
#include <algorithm>
#include <cstdio>

#include "calibrate.hpp"
#include "common.hpp"
#include "layers.hpp"
#include "spans.hpp"
#include "src/algorithms/registry.hpp"
#include "src/analysis/impossibility.hpp"
#include "src/analysis/model_checker.hpp"
#include "src/campaign/thread_pool.hpp"

namespace perfbench {

using namespace lumi;

namespace {

constexpr int kMaxNodes = 64;
constexpr std::size_t kReplaySamples = 12;

enum class Kind : std::uint8_t { Fsync, Ssync, Async, Adversary };

struct Check {
  std::size_t section = 0;  ///< index into table1()
  Kind kind = Kind::Fsync;
  int rows = 0;
  int cols = 0;
};

/// Every check of the workload, in an order shuffled by the seed (the
/// totals do not depend on it).
std::vector<Check> build_checks(const std::vector<Algorithm>& algs, std::uint64_t seed) {
  std::vector<Check> checks;
  const auto table = algorithms::table1();
  for (std::size_t s = 0; s < table.size(); ++s) {
    const Synchrony model = table[s].synchrony;
    for (int r = algs[s].min_rows; r <= kMaxNodes; ++r) {
      for (int c = algs[s].min_cols; r * c <= kMaxNodes; ++c) {
        checks.push_back({s, Kind::Fsync, r, c});
        if (model == Synchrony::Fsync) continue;
        checks.push_back({s, Kind::Ssync, r, c});
        if (model == Synchrony::Async) checks.push_back({s, Kind::Async, r, c});
        checks.push_back({s, Kind::Adversary, r, c});
      }
    }
  }
  shuffle(checks, seed);
  return checks;
}

struct VerifyPass {
  double wall = 0.0;
  double cpu = 0.0;
  long long states = 0, transitions = 0, adversary_states = 0;
  long long failed = 0;
  double check_s = 0.0, adversary_s = 0.0;
};

/// Runs `checks`; `per_check`, when given, receives each check's states.
VerifyPass verify_pass(const std::vector<Algorithm>& algs, const std::vector<Check>& checks,
                       std::vector<long long>* per_check = nullptr) {
  VerifyPass p;
  const Stopwatch watch;
  for (const Check& c : checks) {
    const Grid grid(c.rows, c.cols);
    const Clock::time_point c0 = Clock::now();
    if (c.kind == Kind::Adversary) {
      Span span("analysis.find_ssync_adversary");
      const AdversaryResult r = find_ssync_adversary(algs[c.section], grid);
      p.adversary_states += r.states;
      p.failed += r.adversary_wins ? 1 : 0;
      p.adversary_s += seconds_since(c0);
      if (per_check != nullptr) per_check->push_back(r.states);
      continue;
    }
    const CheckModel model = c.kind == Kind::Fsync   ? CheckModel::Fsync
                             : c.kind == Kind::Ssync ? CheckModel::Ssync
                                                     : CheckModel::Async;
    Span span("analysis.model_check");
    const CheckResult r = model_check(algs[c.section], grid, model);
    p.states += r.states;
    p.transitions += r.transitions;
    p.failed += r.ok ? 0 : 1;
    p.check_s += seconds_since(c0);
    if (per_check != nullptr) per_check->push_back(r.states);
  }
  p.wall = watch.wall();
  p.cpu = watch.cpu();
  return p;
}

/// Every check on a pool of `threads` workers, one task per check, in the
/// order given (largest first keeps the tail short); the wall time covers
/// the pool's construction too, as run_campaign's does.
VerifyPass parallel_pass(const std::vector<Algorithm>& algs, const std::vector<Check>& checks,
                         unsigned threads) {
  const Stopwatch watch;
  std::vector<VerifyPass> per_worker;
  {
    ThreadPool pool(threads);
    per_worker.resize(pool.size());
    for (const Check& c : checks) {
      pool.submit([&, c] {
        const VerifyPass one = verify_pass(algs, {c});
        VerifyPass& w = per_worker[static_cast<std::size_t>(pool.worker_index())];
        w.states += one.states;
        w.transitions += one.transitions;
        w.adversary_states += one.adversary_states;
        w.failed += one.failed;
      });
    }
    pool.wait_idle();
  }
  VerifyPass p;
  for (const VerifyPass& w : per_worker) {
    p.states += w.states;
    p.transitions += w.transitions;
    p.adversary_states += w.adversary_states;
    p.failed += w.failed;
  }
  p.wall = watch.wall();
  return p;
}

/// Engine runs on the workload's own shapes, whose configurations the core
/// probe replays (the checker keeps its states private).
std::vector<ReplaySample> replay_samples(const std::vector<Check>& checks, std::uint64_t seed) {
  const auto table = algorithms::table1();
  std::vector<ReplaySample> out;
  const std::vector<unsigned> seeds = derive_seeds(seed, kReplaySamples);
  for (std::size_t i = 0; i < checks.size() && out.size() < kReplaySamples; ++i) {
    const Check& c = checks[i];
    const campaign::SchedKind kind = c.kind == Kind::Fsync   ? campaign::SchedKind::Fsync
                                     : c.kind == Kind::Async ? campaign::SchedKind::AsyncRandom
                                                             : campaign::SchedKind::SsyncRandom;
    out.push_back({table[c.section].section, Grid(c.rows, c.cols), kind, seeds[out.size()]});
  }
  return out;
}

std::vector<Algorithm> make_algorithms() {
  std::vector<Algorithm> algs;
  for (const algorithms::TableEntry& e : algorithms::table1()) algs.push_back(e.make());
  return algs;
}

/// The exact totals every full pass must reproduce, against the pins.
void gate_pins(const Context& ctx, const VerifyPass& p, long long checks) {
  std::printf("totals: checks %lld check_states %lld check_transitions %lld adversary_states %lld\n",
              checks, p.states, p.transitions, p.adversary_states);
  gate(ctx.expect.checks < 0 || ctx.expect.checks == checks,
       "check count differs from the pinned value");
  gate(ctx.expect.check_states < 0 || ctx.expect.check_states == p.states,
       "check_states differs from the pinned value");
  gate(ctx.expect.check_transitions < 0 || ctx.expect.check_transitions == p.transitions,
       "check_transitions differs from the pinned value");
  gate(ctx.expect.adversary_states < 0 || ctx.expect.adversary_states == p.adversary_states,
       "adversary_states differs from the pinned value");
}

/// analysis.* from `passes` traced passes that spent `check_s` in
/// model_check and `adversary_s` in find_ssync_adversary.
void add_analysis_metrics(const VerifyPass& ref, double check_s, double adversary_s,
                          std::size_t passes, Outcome& out) {
  const auto n = static_cast<double>(passes);
  out.add("analysis.check_states", static_cast<double>(ref.states), "count");
  out.add("analysis.check_transitions", static_cast<double>(ref.transitions), "count");
  out.add("analysis.check_ns_per_state", check_s * 1e9 / (n * static_cast<double>(ref.states)),
          "ns", passes);
  out.add("analysis.adversary_ns_per_state",
          adversary_s * 1e9 / (n * static_cast<double>(ref.adversary_states)), "ns", passes);
}

}  // namespace

void analysis_probe(const Context& ctx, Outcome& out) {
  const std::vector<Algorithm> algs = make_algorithms();
  const std::vector<Check> checks = build_checks(algs, ctx.seed);
  const VerifyPass p = verify_pass(algs, checks);
  gate_pins(ctx, p, static_cast<long long>(checks.size()));
  out.attempted += static_cast<long long>(checks.size());
  out.failed += p.failed;
  add_analysis_metrics(p, p.check_s, p.adversary_s, 1, out);
}

Outcome run_verify_exhaustive(const Context& ctx) {
  std::printf("matrix: sections=all models=admitted grids=rxc<=%d adversary=ssync+async\n",
              kMaxNodes);
  Outcome out;
  SetupMeter setup(ctx, {nullptr, 0});
  setup.sample(kSetupRepsFirst);
  const std::vector<Algorithm> algs = make_algorithms();
  const std::vector<Check> checks = build_checks(algs, ctx.seed);
  const auto n = static_cast<long long>(checks.size());

  // Untimed warm-up pass: its exact totals must equal the pinned ones, and
  // every later pass must reproduce them.
  std::vector<long long> cost;
  const VerifyPass ref = verify_pass(algs, checks, &cost);
  gate_pins(ctx, ref, n);
  const auto same_totals = [&](const VerifyPass& p) {
    gate(p.states == ref.states && p.transitions == ref.transitions &&
             p.adversary_states == ref.adversary_states,
         "verification totals differ between passes");
  };
  out.attempted += n;
  out.failed += ref.failed;

  const double states = static_cast<double>(ref.states + ref.adversary_states);
  const Clock::time_point start = Clock::now();
  if (!ctx.trace) {
    // Like the sweeps: each nproc pass over every check is followed by
    // one-thread passes over two slices of the checks, balanced by the
    // states each check visited; every pass, and every full rotation of
    // slices, must reproduce the reference totals.
    const std::vector<std::size_t> slice_of = balance_slices(cost);
    std::vector<std::vector<Check>> slices(kSlices);
    for (std::size_t i = 0; i < checks.size(); ++i) slices[slice_of[i]].push_back(checks[i]);
    std::vector<std::size_t> order(checks.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) { return cost[a] > cost[b]; });
    std::vector<Check> largest_first;
    for (std::size_t i : order) largest_first.push_back(checks[i]);
    TimedLegs legs;
    VerifyPass rotation;
    std::size_t iter = 0;
    do {
      if (iter % 2 == 0) {
        const VerifyPass p = parallel_pass(algs, largest_first, ctx.nproc);
        same_totals(p);
        legs.add_parallel(p.wall);
        out.attempted += n;
        out.failed += p.failed;
      }
      const std::size_t k = iter % kSlices;
      const VerifyPass p = verify_pass(algs, slices[k]);
      legs.add_slice(k, p.wall, p.cpu);
      out.attempted += static_cast<long long>(slices[k].size());
      out.failed += p.failed;
      if (k == 0) rotation = VerifyPass{};
      rotation.states += p.states;
      rotation.transitions += p.transitions;
      rotation.adversary_states += p.adversary_states;
      if (k + 1 == kSlices) same_totals(rotation);
      setup.sample(kSetupRepsPerPass);
      ++iter;
    } while (iter % kSlices != 0 || seconds_since(start) < ctx.seconds);
    const double one_thread = legs.one_thread_nominal();
    out.add("jobs_per_s_1t", static_cast<double>(n) / one_thread, "1/s", iter);
    out.add("states_per_s_1t", states / one_thread, "1/s", iter);
    out.add("parallel_efficiency", legs.parallel_efficiency(ctx.nproc), "ratio",
            legs.parallel_passes());
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
    setup.report_setup(out, legs.nominal_per_cpu_second());
    legs.print(ctx.nproc);
    return out;
  }

  std::vector<double> untraced, traced;
  double check_s = 0.0, adversary_s = 0.0;
  do {
    // Alternate which pass goes first, so drift within the run cancels.
    const auto untraced_pass = [&] {
      const VerifyPass u = verify_pass(algs, checks);
      same_totals(u);
      untraced.push_back(u.wall);
      out.failed += u.failed;
    };
    if (untraced.size() % 2 == 0) untraced_pass();
    set_tracing(true);
    const Clock::time_point b = Clock::now();
    const VerifyPass t = verify_pass(algs, checks);
    out.traced_windows.emplace_back(b, Clock::now());
    set_tracing(false);
    same_totals(t);
    traced.push_back(t.wall);
    check_s += t.check_s;
    adversary_s += t.adversary_s;
    if (untraced.size() < traced.size()) untraced_pass();
    out.attempted += 2 * n;
    out.failed += t.failed;
    setup.sample(kSetupRepsPerPass);
  } while (seconds_since(start) < ctx.seconds);
  out.add("tracing_overhead", median(traced) / median(untraced), "ratio", traced.size());
  setup.report_layers(out);
  add_analysis_metrics(ref, check_s, adversary_s, traced.size(), out);
  set_tracing(true);
  core_probe(replay_samples(checks, ctx.seed), out);
  set_tracing(false);
  return out;
}

}  // namespace perfbench

// sweep_large and sweep_micro_ckpt: campaign sweeps of every Table-1 section
// under every compatible scheduler on plain grids.
//
// sweep_large (rows, cols 8..32:8, 16 seeds) runs for hundreds of instants
// per job, so the engine, matcher, tracker and schedulers do nearly all the
// work; per-job set-up, batching, warm start and the arena are near zero and
// nothing is persisted.  sweep_micro_ckpt (rows, cols 3..6, 256 seeds) runs
// microsecond jobs, so dispatch, per-job set-up, accumulation and the
// checkpoint writes and reads dominate; it is the only workload that is
// interrupted, resumed from its checkpoint and rendered to CSV and JSON.
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>

#include "calibrate.hpp"
#include "common.hpp"
#include "layers.hpp"
#include "spans.hpp"
#include "src/algorithms/registry.hpp"
#include "src/campaign/checkpoint.hpp"
#include "src/campaign/orchestrate.hpp"
#include "src/campaign/thread_pool.hpp"
#include "src/core/arena.hpp"
#include "src/trace/report.hpp"

namespace perfbench {

using namespace lumi;
using campaign::Expansion;

namespace {

/// Jobs whose configurations the core probe replays.
constexpr std::size_t kReplaySamples = 12;
/// Checkpoint flush interval of sweep_micro_ckpt: short, so a ~1 s run
/// flushes many times.
constexpr double kFlushSeconds = 0.05;

struct SweepShape {
  int lo, hi, step;
  std::size_t seeds;
};
constexpr SweepShape kLarge{8, 32, 8, 16};
constexpr SweepShape kMicro{3, 6, 1, 256};

campaign::Matrix sweep_matrix(const SweepShape& shape, std::uint64_t seed) {
  campaign::Matrix m;
  m.sections = campaign::all_sections();
  m.rows = {shape.lo, shape.hi, shape.step};
  m.cols = {shape.lo, shape.hi, shape.step};
  m.topologies = {"grid"};
  m.schedulers.assign(std::begin(campaign::kAllSchedKinds), std::end(campaign::kAllSchedKinds));
  m.seeds = derive_seeds(seed, shape.seeds);
  return m;
}

std::string matrix_spec(const SweepShape& shape) {
  const std::string range = std::to_string(shape.lo) + ".." + std::to_string(shape.hi) + ":" +
                            std::to_string(shape.step);
  return "sections=all rows=" + range + " cols=" + range +
         " topo=grid scheds=all seeds=" + std::to_string(shape.seeds);
}

/// Sum of simulated instants (sync) and events (async) over every job.
long long instants_sum(const campaign::CampaignSummary& s) { return s.total.instants.sum; }

/// The campaign summary of per-cell accumulators, as run_campaign builds it.
campaign::CampaignSummary summarize(const Expansion& ex,
                                    const std::vector<campaign::CellAccumulator>& cells) {
  campaign::CampaignSummary s;
  s.jobs = ex.jobs.size();
  for (std::size_t c = 0; c < ex.cells.size(); ++c) {
    s.cells.push_back({ex.cells[c], cells[c]});
    s.total.merge(cells[c]);
  }
  return s;
}

/// Splits the expansion into kSlices expansions over the same cells, each
/// cell's jobs going whole to one slice, balanced by the instants the cells
/// simulated in `ref`.
std::vector<Expansion> slices_of(const Expansion& ex, const campaign::CampaignSummary& ref) {
  std::vector<long long> cost(ex.cells.size());
  for (std::size_t c = 0; c < cost.size(); ++c) cost[c] = ref.cells[c].acc.instants.sum + 1;
  const std::vector<std::size_t> slice_of = balance_slices(cost);
  std::vector<Expansion> out(kSlices);
  for (Expansion& e : out) {
    e.cells = ex.cells;
    e.options = ex.options;
  }
  for (const campaign::Job& j : ex.jobs) out[slice_of[j.cell]].jobs.push_back(j);
  return out;
}

// --- the checkpointed pass (sweep_micro_ckpt) --------------------------------

struct CheckpointPass {
  double wall = 0.0;
  double cpu = 0.0;
  campaign::CampaignSummary summary;
  std::string json;
  double report_s = 0.0;
  double load_s = 0.0;
  std::uintmax_t bytes = 0;
  std::size_t resume_skipped = 0;
};

/// The micro workload's unit of work: run_orchestrated checkpointing to
/// `dir`, cut by max_jobs at half the jobs, resumed from the checkpoint to
/// completion, then rendered to CSV and JSON.  With `load_interrupted`, the
/// interrupted state is also read back (timed, and excluded from `wall` and
/// `cpu`).
CheckpointPass checkpointed_pass(const Expansion& ex, unsigned threads,
                                 const std::filesystem::path& dir, bool load_interrupted) {
  const std::filesystem::path path = dir / "micro.ckpt";
  std::filesystem::remove(path);
  std::filesystem::remove(path.string() + ".tmp");
  CheckpointPass pass;
  const std::size_t jobs = ex.jobs.size();
  const Stopwatch watch;
  double load_cpu = 0.0;
  campaign::OrchestratorOptions opts;
  opts.threads = threads;
  opts.checkpoint_path = path.string();
  opts.flush_seconds = kFlushSeconds;
  opts.max_jobs = jobs / 2;
  std::optional<campaign::OrchestratorReport> first;
  {
    Span span("campaign.run_orchestrated");
    first.emplace(campaign::run_orchestrated(ex, opts));
  }
  gate(!first->complete && first->jobs_executed >= jobs / 2 && first->jobs_executed < jobs,
       "interrupted run executed " + std::to_string(first->jobs_executed) + " of " +
           std::to_string(jobs) + " jobs");
  if (load_interrupted) {
    const Stopwatch load;
    std::optional<campaign::Checkpoint> loaded;
    {
      Span span("campaign.checkpoint_load");
      loaded = campaign::checkpoint_load(path.string());
    }
    pass.load_s = load.wall();
    load_cpu = load.cpu();
    gate(loaded.has_value() && loaded->jobs_done() == first->jobs_executed,
         "interrupted checkpoint does not hold the jobs the interrupted run executed");
  }
  opts.max_jobs = 0;
  std::optional<campaign::OrchestratorReport> second;
  {
    Span span("campaign.run_orchestrated");
    second.emplace(campaign::run_orchestrated(ex, opts));
  }
  gate(second->complete && second->jobs_skipped == first->jobs_executed &&
           second->jobs_skipped + second->jobs_executed == jobs,
       "resumed run skipped " + std::to_string(second->jobs_skipped) + " and executed " +
           std::to_string(second->jobs_executed) + " of " + std::to_string(jobs) + " jobs");
  const Clock::time_point r0 = Clock::now();
  std::string csv;
  {
    Span span("trace.campaign_csv");
    csv = campaign_csv(second->summary);
  }
  {
    Span span("trace.campaign_json");
    pass.json = campaign_json(second->summary);
  }
  pass.report_s = seconds_since(r0);
  pass.wall = watch.wall() - pass.load_s;
  pass.cpu = watch.cpu() - load_cpu;
  gate(!csv.empty(), "empty CSV report");
  pass.summary = second->summary;
  pass.resume_skipped = second->jobs_skipped;
  pass.bytes = std::filesystem::file_size(path);
  return pass;
}

/// Write, merge and summary of the final checkpoint state, timed (traced
/// micro run only).  The merged state must render the reference report.
void checkpoint_layer(const Expansion& ex, unsigned threads, const std::filesystem::path& dir,
                      const std::string& ref_json, Outcome& out) {
  campaign::OrchestratorOptions opts;
  opts.threads = threads;
  const campaign::OrchestratorReport rep = campaign::run_orchestrated(ex, opts);
  const std::filesystem::path path = dir / "final.ckpt";
  Clock::time_point t0 = Clock::now();
  bool wrote = false;
  {
    Span span("campaign.checkpoint_write");
    wrote = campaign::checkpoint_write(path.string(), rep.checkpoint);
  }
  const double write_s = seconds_since(t0);
  gate(wrote, "checkpoint_write failed");
  campaign::Checkpoint merged = campaign::make_checkpoint(ex);
  t0 = Clock::now();
  {
    Span span("campaign.checkpoint_merge");
    campaign::checkpoint_merge(merged, rep.checkpoint);
  }
  const double merge_s = seconds_since(t0);
  gate(campaign_json(campaign::checkpoint_summary(merged)) == ref_json,
       "merged checkpoint does not reproduce the reference report");
  out.add("campaign.checkpoint.write_ms", write_s * 1e3, "ms");
  out.add("campaign.checkpoint.merge_ms", merge_s * 1e3, "ms");
}

// --- the traced dispatch pass -----------------------------------------------

struct TaskRecord {
  Clock::time_point submit, start, end;
  std::size_t items = 0;
};

struct WorkerTally {
  std::vector<TaskRecord> tasks;
  long long failed = 0;
  long long warm = 0, reused = 0, recomputed = 0;
};

struct DispatchPass {
  double wall = 0.0;
  std::string json;
  long long failed = 0;
  Clock::time_point begin, end;
  std::vector<WorkerTally> workers;
};

/// run_campaign's dispatch rebuilt from its public parts — same grouping
/// (auto_batch_size), one arena per worker, one warm-start slot per cell, one
/// accumulator per worker — with a span around every run_cell_batch and each
/// task's submit, start and end times recorded.
DispatchPass traced_dispatch(const Expansion& ex, unsigned threads) {
  DispatchPass pass;
  pass.begin = Clock::now();
  {
    ThreadPool pool(threads);
    std::vector<campaign::CampaignAccumulator> per_worker(
        pool.size(), campaign::CampaignAccumulator(ex.cells.size()));
    std::vector<std::unique_ptr<Arena>> arenas;
    for (unsigned w = 0; w < pool.size(); ++w) arenas.push_back(std::make_unique<Arena>());
    std::vector<WarmStartSlot> warm(ex.cells.size());
    pass.workers.resize(pool.size());
    std::size_t i = 0;
    while (i < ex.jobs.size()) {
      const std::size_t cell = ex.jobs[i].cell;
      const std::size_t cap = campaign::auto_batch_size(ex.cells[cell]);
      std::vector<unsigned> seeds;
      while (i < ex.jobs.size() && ex.jobs[i].cell == cell && seeds.size() < cap) {
        seeds.push_back(ex.jobs[i].seed);
        ++i;
      }
      const Clock::time_point submit = Clock::now();
      pool.submit([&ex, &pool, &per_worker, &arenas, &warm, &pass, cell, submit,
                   seeds = std::move(seeds)] {
        const Clock::time_point start = Clock::now();
        const auto w = static_cast<std::size_t>(pool.worker_index());
        WorkerTally& tally = pass.workers[w];
        {
          Span span("campaign.run_cell_batch", static_cast<long long>(seeds.size()));
          campaign::run_cell_batch(ex.cells[cell], seeds, ex.options, &warm[cell],
                                   arenas[w].get(), [&](std::size_t, const RunResult& r) {
                                     per_worker[w].add(cell, r);
                                     tally.failed += job_failed(r) ? 1 : 0;
                                     tally.warm += r.stats.match_warm_reused;
                                     tally.reused += r.stats.match_reused;
                                     tally.recomputed += r.stats.match_recomputed;
                                   });
        }
        tally.tasks.push_back({submit, start, Clock::now(), seeds.size()});
      });
    }
    pool.wait_idle();
    pass.end = Clock::now();
    campaign::CampaignAccumulator merged(ex.cells.size());
    for (const campaign::CampaignAccumulator& acc : per_worker) merged.merge(acc);
    pass.json = campaign_json(summarize(ex, merged.cells()));
  }
  pass.wall = seconds_since(pass.begin);
  for (const WorkerTally& t : pass.workers) pass.failed += t.failed;
  return pass;
}

/// Pool, batch and warm-start metrics from the traced dispatch passes.
void dispatch_metrics(const std::vector<DispatchPass>& passes, double engine_run_s,
                      std::size_t jobs, Outcome& out) {
  std::vector<double> batch_us, queue_us, gap_us, busy, tails;
  double batch_total_s = 0.0;
  std::size_t tasks = 0, items = 0;
  long long warm = 0, reused = 0, recomputed = 0;
  for (const DispatchPass& p : passes) {
    const double span_s = std::chrono::duration<double>(p.end - p.begin).count();
    Clock::time_point first_idle = p.end;
    for (const WorkerTally& w : p.workers) {
      double busy_s = 0.0;
      Clock::time_point last_end = p.begin;
      for (std::size_t k = 0; k < w.tasks.size(); ++k) {
        const TaskRecord& t = w.tasks[k];
        if (k > 0)
          gap_us.push_back(std::chrono::duration<double>(t.start - w.tasks[k - 1].end).count() *
                           1e6);
        const double run_s = std::chrono::duration<double>(t.end - t.start).count();
        batch_us.push_back(run_s * 1e6);
        queue_us.push_back(std::chrono::duration<double>(t.start - t.submit).count() * 1e6);
        busy_s += run_s;
        batch_total_s += run_s;
        items += t.items;
        last_end = std::max(last_end, t.end);
      }
      tasks += w.tasks.size();
      busy.push_back(busy_s / span_s);
      first_idle = std::min(first_idle, last_end);
      warm += w.warm;
      reused += w.reused;
      recomputed += w.recomputed;
    }
    tails.push_back(std::chrono::duration<double>(p.end - first_idle).count());
  }
  std::printf("dispatch: %zu traced passes, %zu tasks, per-worker busy fractions:", passes.size(),
              tasks);
  for (double b : busy) std::printf(" %.3f", b);
  std::printf("\n");
  out.add("campaign.batch_us.p50", quantile(batch_us, 0.5), "us", batch_us.size());
  out.add("campaign.batch_us.p99", quantile(batch_us, 0.99), "us", batch_us.size());
  out.add("campaign.batch_items", static_cast<double>(items) / static_cast<double>(tasks),
          "count", tasks);
  // Per item: the batch path's time minus the plain run_with_sched time of
  // the same jobs (the engine pass), so negative when batching's hoisted
  // set-up saves more than its bookkeeping costs.
  const double batch_per_pass_s = batch_total_s / static_cast<double>(passes.size());
  out.add("campaign.item_overhead_us",
          (batch_per_pass_s - engine_run_s) * 1e6 / static_cast<double>(jobs), "us", jobs);
  out.add("campaign.pool.busy_frac.mean", sum(busy) / static_cast<double>(busy.size()), "ratio",
          busy.size());
  out.add("campaign.pool.busy_frac.min", quantile(busy, 0.0), "ratio", busy.size());
  out.add("campaign.pool.busy_frac.max", quantile(busy, 1.0), "ratio", busy.size());
  // Queue wait runs from submit to start; with the whole sweep submitted up
  // front it mostly measures the backlog.  The gap between a worker's
  // consecutive tasks isolates the pool's own pop, steal and wake-up cost.
  out.add("campaign.pool.queue_wait_us", median(queue_us), "us", queue_us.size());
  out.add("campaign.pool.task_gap_us", median(gap_us), "us", gap_us.size());
  out.add("campaign.pool.idle_tail_s", median(tails), "s", tails.size());
  const long long lookups = warm + reused + recomputed;
  out.add("core.warm_reused_frac",
          lookups == 0 ? 0.0 : static_cast<double>(warm) / static_cast<double>(lookups), "ratio");
}

// --- the engine pass --------------------------------------------------------

/// Every job once more through run_with_sched with plain options (algorithm
/// and topology built once per cell beforehand), each call timed.  Its
/// summary must equal the reference: this is the run_with_sched funnel the
/// replay tooling depends on.
void engine_pass(const Expansion& ex, unsigned threads, const std::string& ref_json,
                 Outcome& out, double& run_total_s) {
  std::vector<std::optional<Algorithm>> algs(ex.cells.size());
  std::vector<std::optional<Topology>> topos(ex.cells.size());
  for (std::size_t c = 0; c < ex.cells.size(); ++c) {
    algs[c].emplace(algorithms::entry(ex.cells[c].section).make());
    topos[c].emplace(make_topology(ex.cells[c].topo, ex.cells[c].rows, ex.cells[c].cols));
  }
  struct Timed {
    int klass;
    double seconds;
    long instants;
  };
  struct Worker {
    std::vector<Timed> runs;
    long long reused = 0, recomputed = 0;
  };
  std::vector<Worker> workers;
  campaign::CampaignSummary summary;
  {
    ThreadPool pool(threads);
    workers.resize(pool.size());
    std::vector<campaign::CampaignAccumulator> per_worker(
        pool.size(), campaign::CampaignAccumulator(ex.cells.size()));
    for (const campaign::Job& job : ex.jobs) {
      pool.submit([&, job] {
        const auto w = static_cast<std::size_t>(pool.worker_index());
        const campaign::Cell& cell = ex.cells[job.cell];
        RunResult r;
        const Clock::time_point t0 = Clock::now();
        {
          Span span("engine.run_with_sched");
          try {
            r = campaign::run_with_sched(*algs[job.cell], *topos[job.cell], cell.sched, job.seed,
                                         ex.options);
          } catch (const std::exception& e) {
            r = RunResult{};
            r.failure = std::string("exception: ") + e.what();
          }
        }
        const double dt = seconds_since(t0);
        workers[w].runs.push_back(
            {static_cast<int>(campaign::sched_synchrony(cell.sched)), dt, r.stats.instants});
        workers[w].reused += r.stats.match_reused;
        workers[w].recomputed += r.stats.match_recomputed;
        per_worker[w].add(job.cell, r);
      });
    }
    pool.wait_idle();
    campaign::CampaignAccumulator merged(ex.cells.size());
    for (const campaign::CampaignAccumulator& acc : per_worker) merged.merge(acc);
    summary = summarize(ex, merged.cells());
  }
  gate(campaign_json(summary) == ref_json,
       "per-job run_with_sched summary differs from the campaign summary");
  out.attempted += static_cast<long long>(ex.jobs.size());
  out.failed += failed_jobs(summary);
  std::vector<double> by_class[3];
  double total_s = 0.0;
  long long instants = 0, reused = 0, recomputed = 0;
  for (const Worker& w : workers) {
    for (const Timed& t : w.runs) {
      by_class[t.klass].push_back(t.seconds * 1e6);
      total_s += t.seconds;
      instants += t.instants;
    }
    reused += w.reused;
    recomputed += w.recomputed;
  }
  static const char* const kNames[3] = {"fsync", "ssync", "async"};
  for (int k = 0; k < 3; ++k) {
    const std::string base = std::string("engine.run_us.") + kNames[k];
    out.add(base + ".p50", quantile(by_class[k], 0.5), "us", by_class[k].size());
    out.add(base + ".p99", quantile(by_class[k], 0.99), "us", by_class[k].size());
  }
  out.add("engine.ns_per_step", total_s * 1e9 / static_cast<double>(instants), "ns",
          ex.jobs.size());
  out.add("core.reuse_frac",
          static_cast<double>(reused) / static_cast<double>(std::max(1LL, reused + recomputed)),
          "ratio");
  run_total_s = total_s;
}

std::vector<ReplaySample> replay_samples(const Expansion& ex, std::uint64_t seed) {
  std::vector<std::size_t> picks(ex.jobs.size());
  for (std::size_t i = 0; i < picks.size(); ++i) picks[i] = i;
  shuffle(picks, seed);
  picks.resize(std::min(picks.size(), kReplaySamples));
  std::vector<ReplaySample> out;
  for (std::size_t i : picks) {
    const campaign::Cell& c = ex.cells[ex.jobs[i].cell];
    out.push_back({c.section, make_topology(c.topo, c.rows, c.cols), c.sched, ex.jobs[i].seed});
  }
  return out;
}

Outcome run_sweep(const Context& ctx, const SweepShape& shape, bool checkpointed) {
  const campaign::Matrix matrix = sweep_matrix(shape, ctx.seed);
  std::printf("matrix: %s\n", matrix_spec(shape).c_str());
  Outcome out;
  SetupMeter setup(ctx, {&matrix, ctx.nproc});
  setup.sample(kSetupRepsFirst);
  const Expansion ex = campaign::expand(matrix);
  const auto jobs = static_cast<long long>(ex.jobs.size());
  std::printf("expansion: %zu cells, %lld jobs, threads %u and 1\n", ex.cells.size(), jobs,
              ctx.nproc);
  gate(ctx.expect.cells < 0 || ctx.expect.cells == static_cast<long long>(ex.cells.size()),
       "cell count differs from the pinned value");
  gate(ctx.expect.jobs < 0 || ctx.expect.jobs == jobs, "job count differs from the pinned value");

  // Untimed warm-up and reference: an uninterrupted plain campaign, whose
  // JSON report every later pass must reproduce byte for byte.
  const campaign::CampaignSummary ref = campaign::run_campaign(ex, ctx.nproc);
  const std::string ref_json = campaign_json(ref);
  out.attempted += jobs;
  out.failed += failed_jobs(ref);

  // One untraced pass of the workload over `e`: its wall and CPU time and
  // its summary.
  struct Pass {
    double wall, cpu;
    campaign::CampaignSummary summary;
  };
  const auto pass = [&](const Expansion& e, unsigned threads) {
    if (checkpointed) {
      CheckpointPass p = checkpointed_pass(e, threads, ctx.scratch, false);
      return Pass{p.wall, p.cpu, std::move(p.summary)};
    }
    const Stopwatch watch;
    campaign::CampaignSummary s = campaign::run_campaign(e, threads);
    return Pass{watch.wall(), watch.cpu(), std::move(s)};
  };
  // A pass over the whole input, whose report must equal the reference.
  const auto full_pass = [&](unsigned threads) {
    Pass p = pass(ex, threads);
    gate(campaign_json(p.summary) == ref_json,
         "report at " + std::to_string(threads) + " threads differs from the reference");
    out.attempted += jobs;
    out.failed += failed_jobs(p.summary);
    return p;
  };

  const Clock::time_point start = Clock::now();
  if (!ctx.trace) {
    // Each all-cores pass over the whole input is followed by one-thread
    // passes over two slices (the one-thread leg is the noisier one, so it
    // gets the larger share of the run); every full rotation of slices is
    // merged and must render the reference report too.  The one-thread
    // rates are in nominal seconds (see calibrate.hpp); parallel_efficiency
    // is a ratio of the two legs' wall times.
    const std::vector<Expansion> slices = slices_of(ex, ref);
    TimedLegs legs;
    std::vector<campaign::CellAccumulator> rotation(ex.cells.size());
    std::size_t iter = 0;
    do {
      if (iter % 2 == 0) legs.add_parallel(full_pass(ctx.nproc).wall);
      const std::size_t k = iter % kSlices;
      const Pass p = pass(slices[k], 1);
      legs.add_slice(k, p.wall, p.cpu);
      out.attempted += static_cast<long long>(slices[k].jobs.size());
      out.failed += failed_jobs(p.summary);
      if (k == 0) rotation.assign(ex.cells.size(), {});
      for (std::size_t c = 0; c < ex.cells.size(); ++c) rotation[c].merge(p.summary.cells[c].acc);
      if (k + 1 == kSlices)
        gate(campaign_json(summarize(ex, rotation)) == ref_json,
             "one-thread report (merged slices) differs from the reference");
      setup.sample(kSetupRepsPerPass);
      ++iter;
    } while (iter % kSlices != 0 || seconds_since(start) < ctx.seconds);
    const double one_thread = legs.one_thread_nominal();
    out.add("jobs_per_s_1t", static_cast<double>(jobs) / one_thread, "1/s", iter);
    out.add("states_per_s_1t", static_cast<double>(instants_sum(ref)) / one_thread, "1/s", iter);
    out.add("parallel_efficiency", legs.parallel_efficiency(ctx.nproc), "ratio",
            legs.parallel_passes());
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
    setup.report_setup(out, legs.nominal_per_cpu_second());
    legs.print(ctx.nproc);
    return out;
  }

  // Traced run: untraced and traced passes alternate; the traced pass of
  // sweep_large is the rebuilt dispatch, that of sweep_micro_ckpt the
  // checkpointed pass with spans around each public call.
  std::vector<double> untraced, traced;
  std::vector<DispatchPass> dispatches;
  CheckpointPass last_ckpt;
  do {
    // Alternate which pass goes first, so drift within the run cancels.
    if (untraced.size() % 2 == 0) untraced.push_back(full_pass(ctx.nproc).wall);
    set_tracing(true);
    const Clock::time_point b = Clock::now();
    if (checkpointed) {
      last_ckpt = checkpointed_pass(ex, ctx.nproc, ctx.scratch, true);
      gate(last_ckpt.json == ref_json, "traced checkpointed report differs from the reference");
      out.failed += failed_jobs(last_ckpt.summary);
      traced.push_back(last_ckpt.wall);
    } else {
      dispatches.push_back(traced_dispatch(ex, ctx.nproc));
      gate(dispatches.back().json == ref_json, "traced report differs from the reference");
      out.failed += dispatches.back().failed;
      traced.push_back(dispatches.back().wall);
    }
    out.traced_windows.emplace_back(b, Clock::now());
    set_tracing(false);
    if (untraced.size() < traced.size()) untraced.push_back(full_pass(ctx.nproc).wall);
    out.attempted += jobs;
    setup.sample(kSetupRepsPerPass);
  } while (seconds_since(start) < ctx.seconds);
  out.add("tracing_overhead", median(traced) / median(untraced), "ratio", traced.size());
  setup.report_layers(out);

  set_tracing(true);
  if (checkpointed) {
    dispatches.push_back(traced_dispatch(ex, ctx.nproc));
    gate(dispatches.back().json == ref_json, "traced report differs from the reference");
    out.failed += dispatches.back().failed;
    out.attempted += jobs;
  }
  double engine_run_s = 0.0;
  engine_pass(ex, ctx.nproc, ref_json, out, engine_run_s);
  dispatch_metrics(dispatches, engine_run_s, ex.jobs.size(), out);
  if (checkpointed) {
    out.add("campaign.checkpoint.load_ms", last_ckpt.load_s * 1e3, "ms");
    out.add("campaign.checkpoint.bytes", static_cast<double>(last_ckpt.bytes), "bytes");
    out.add("campaign.resume_skipped", static_cast<double>(last_ckpt.resume_skipped), "count");
    out.add("trace.report_ms", last_ckpt.report_s * 1e3, "ms");
    checkpoint_layer(ex, ctx.nproc, ctx.scratch, ref_json, out);
    out.attempted += jobs;
  } else {
    // sweep_large renders no reports in its workload; its correctness gate
    // renders JSON once per pass, timed here on the reference summary.
    const Clock::time_point r0 = Clock::now();
    {
      Span span("trace.campaign_json");
      gate(campaign_json(ref) == ref_json, "report rendering is not deterministic");
    }
    out.add("trace.report_ms", seconds_since(r0) * 1e3, "ms");
    // The checker and adversary game are attributed here: their own
    // workload, verify_exhaustive, is not in BENCHMARK.json (its
    // single-thread timing drifted past the bound on a shared 4-vCPU VM).
    analysis_probe(ctx, out);
  }
  core_probe(replay_samples(ex, ctx.seed), out);
  set_tracing(false);
  return out;
}

}  // namespace

Outcome run_sweep_large(const Context& ctx) { return run_sweep(ctx, kLarge, false); }
Outcome run_sweep_micro_ckpt(const Context& ctx) { return run_sweep(ctx, kMicro, true); }

}  // namespace perfbench

// The repository benchmark: one invocation runs one workload for a fixed
// time and prints, as its last line, one JSON object with the fields
// correct, attempted, failed and metrics.  Untraced (--trace 0) it reports
// the end-to-end metrics; traced (--trace 1) the per-layer metrics, taken
// from spans the benchmark records around its calls into the library.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --scratch DIR
//             [--expect-cells N] [--expect-jobs N] [--expect-checks N]
//             [--expect-check-states N]
//             [--expect-check-transitions N] [--expect-adversary-states N]
//
// Any correctness-gate mismatch exits 1 without printing a result.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <thread>

#include "common.hpp"
#include "layers.hpp"
#include "spans.hpp"
#include "src/core/compiled.hpp"

namespace perfbench {
namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics every untraced run reports (BENCHMARK.json).
constexpr MetricSpec kEndToEnd[] = {
    {"jobs_per_s_1t", "1/s"}, {"states_per_s_1t", "1/s"}, {"parallel_efficiency", "ratio"},
    {"setup_s", "s"},         {"peak_rss_mb", "MB"},
};

/// The per-layer metrics every traced run reports (BENCHMARK.json).  A layer
/// the workload never calls reads 0.
constexpr MetricSpec kPerLayer[] = {
    {"core.snapshot_ns", "ns"},
    {"core.match_ns", "ns"},
    {"core.guard_block_ns", "ns"},
    {"core.first_enabled_ns", "ns"},
    {"core.tracker_refresh_ns", "ns"},
    {"core.reuse_frac", "ratio"},
    {"core.warm_reused_frac", "ratio"},
    {"engine.run_us.fsync.p50", "us"},
    {"engine.run_us.fsync.p99", "us"},
    {"engine.run_us.ssync.p50", "us"},
    {"engine.run_us.ssync.p99", "us"},
    {"engine.run_us.async.p50", "us"},
    {"engine.run_us.async.p99", "us"},
    {"engine.ns_per_step", "ns"},
    {"algorithms.make_us", "us"},
    {"analysis.rule_analysis_ms", "ms"},
    {"campaign.expand_ms", "ms"},
    {"campaign.batch_us.p50", "us"},
    {"campaign.batch_us.p99", "us"},
    {"campaign.batch_items", "count"},
    {"campaign.item_overhead_us", "us"},
    {"campaign.pool.busy_frac.mean", "ratio"},
    {"campaign.pool.busy_frac.min", "ratio"},
    {"campaign.pool.busy_frac.max", "ratio"},
    {"campaign.pool.queue_wait_us", "us"},
    {"campaign.pool.task_gap_us", "us"},
    {"campaign.pool.idle_tail_s", "s"},
    {"campaign.checkpoint.write_ms", "ms"},
    {"campaign.checkpoint.load_ms", "ms"},
    {"campaign.checkpoint.merge_ms", "ms"},
    {"campaign.checkpoint.bytes", "bytes"},
    {"campaign.resume_skipped", "count"},
    {"trace.report_ms", "ms"},
    {"analysis.check_states", "count"},
    {"analysis.check_transitions", "count"},
    {"analysis.check_ns_per_state", "ns"},
    {"analysis.adversary_ns_per_state", "ns"},
    {"self_s.analysis", "s"},
    {"self_s.campaign", "s"},
    {"self_s.trace", "s"},
    {"tracing_overhead", "ratio"},
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr, "perfbench: %s\n", why.c_str());
  std::exit(2);
}

Context parse_args(int argc, char** argv) {
  Context ctx;
  bool have_workload = false, have_scratch = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string val = argv[++i];
    try {
      if (key == "--workload") {
        ctx.workload = val;
        have_workload = true;
      } else if (key == "--seed") {
        ctx.seed = std::stoull(val);
      } else if (key == "--seconds") {
        ctx.seconds = std::stod(val);
      } else if (key == "--trace") {
        if (val != "0" && val != "1") usage("--trace takes 0 or 1");
        ctx.trace = val == "1";
      } else if (key == "--scratch") {
        ctx.scratch = val;
        have_scratch = true;
      } else if (key == "--expect-cells") {
        ctx.expect.cells = std::stoll(val);
      } else if (key == "--expect-jobs") {
        ctx.expect.jobs = std::stoll(val);
      } else if (key == "--expect-checks") {
        ctx.expect.checks = std::stoll(val);
      } else if (key == "--expect-check-states") {
        ctx.expect.check_states = std::stoll(val);
      } else if (key == "--expect-check-transitions") {
        ctx.expect.check_transitions = std::stoll(val);
      } else if (key == "--expect-adversary-states") {
        ctx.expect.adversary_states = std::stoll(val);
      } else {
        usage("unknown argument " + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + key + ": " + val);
    }
  }
  if (!have_workload || !have_scratch) usage("--workload and --scratch are required");
  if (ctx.workload != "sweep_large" && ctx.workload != "sweep_micro_ckpt" &&
      ctx.workload != "verify_exhaustive")
    usage("unknown workload " + ctx.workload);
  if (!(ctx.seconds > 0.0)) usage("--seconds must be positive");
  ctx.nproc = std::max(1u, std::thread::hardware_concurrency());
  return ctx;
}

/// Layer self time per traced pass, over the spans that start inside a
/// traced window (one window per traced reproduction of the workload).
void add_self_times(Outcome& out, const std::vector<SpanRecord>& spans) {
  std::vector<SpanRecord> inside;
  for (const SpanRecord& s : spans) {
    for (const auto& [b, e] : out.traced_windows) {
      if (s.start >= b && s.start <= e) {
        inside.push_back(s);
        break;
      }
    }
  }
  const auto passes = static_cast<double>(out.traced_windows.size());
  for (const auto& [layer, s] : self_seconds_by_layer(inside)) {
    std::printf("self time per traced pass: %-10s %10.6f s\n", layer.c_str(), s / passes);
    out.add("self_s." + layer, s / passes, "s", out.traced_windows.size());
  }
}

/// Checks the metric names against the mode's list, fills layers the
/// workload bypassed with 0, and orders the metrics as listed.
void normalize(Outcome& out, bool traced) {
  const auto begin = traced ? std::begin(kPerLayer) : std::begin(kEndToEnd);
  const auto end = traced ? std::end(kPerLayer) : std::end(kEndToEnd);
  std::vector<Metric> ordered;
  for (auto it = begin; it != end; ++it) {
    const Metric* found = nullptr;
    for (const Metric& m : out.metrics)
      if (m.name == it->name) found = &m;
    if (found != nullptr) {
      gate(found->unit == it->unit, "metric " + found->name + " has unit " + found->unit);
      gate(std::isfinite(found->value), "metric " + found->name + " is not finite");
      ordered.push_back(*found);
    } else {
      gate(traced, std::string("end-to-end metric ") + it->name + " was not measured");
      ordered.push_back({it->name, 0.0, it->unit, 0});
    }
  }
  for (const Metric& m : out.metrics) {
    bool known = false;
    for (auto it = begin; it != end; ++it) known = known || m.name == it->name;
    gate(known, "unlisted metric " + m.name);
  }
  out.metrics = std::move(ordered);
}

void print_result(const Outcome& out) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
              out.failed == 0 ? "true" : "false", out.attempted, out.failed);
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

int run(int argc, char** argv) {
  const Context ctx = parse_args(argc, argv);
  std::printf("workload %s seed %llu seconds %g trace %d\n", ctx.workload.c_str(),
              static_cast<unsigned long long>(ctx.seed), ctx.seconds, ctx.trace ? 1 : 0);
  std::printf("nproc %u build %s compiler %s guard_simd_available %d\n",
              ctx.nproc, PERFBENCH_BUILD_TYPE, __VERSION__,
              lumi::guard_simd_available() ? 1 : 0);
  std::filesystem::create_directories(ctx.scratch);

  failure_accounting_self_test();
  std::printf("self-test: failure accounting ok\n");

  Outcome out = ctx.workload == "sweep_large"        ? run_sweep_large(ctx)
                : ctx.workload == "sweep_micro_ckpt" ? run_sweep_micro_ckpt(ctx)
                                                     : run_verify_exhaustive(ctx);

  if (ctx.trace) {
    const std::vector<SpanRecord> spans = collect_spans();
    add_self_times(out, spans);
    const std::filesystem::path path =
        ctx.scratch.parent_path() /
        ("trace-" + ctx.workload + "-s" + std::to_string(ctx.seed) + ".json");
    gate(write_chrome_trace(spans, path), "could not write " + path.string());
    std::printf("trace: %zu spans written to %s\n", spans.size(), path.string().c_str());
  }
  normalize(out, ctx.trace);
  std::printf("failed_frac %.6f (%lld of %lld jobs or checks)\n",
              static_cast<double>(out.failed) / static_cast<double>(out.attempted), out.failed,
              out.attempted);
  print_metrics(out);
  std::fflush(stdout);
  print_result(out);
  return out.failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const perfbench::GateFailure& e) {
    std::fprintf(stderr, "perfbench: correctness gate failed: %s\n", e.what());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
  }
  return 1;
}

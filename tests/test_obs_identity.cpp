// The telemetry determinism fence, as a differential test: campaign reports
// and checkpoints must be byte-identical with telemetry fully enabled
// (metrics registry + trace spans + progress meter) and fully disabled,
// across thread counts.  This is what lets --metrics-out/--trace-out ship
// default-off yet provably result-inert (docs/OBSERVABILITY.md).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "src/campaign/campaign.hpp"
#include "src/campaign/orchestrate.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/progress.hpp"
#include "src/obs/trace_event.hpp"
#include "src/trace/report.hpp"

namespace lumi::campaign {
namespace {

Matrix small_matrix() {
  Matrix m;
  m.sections = {"4.2.1", "4.3.1"};
  m.rows = {4, 6, 2};
  m.cols = {4, 6, 2};
  m.schedulers = {SchedKind::Fsync, SchedKind::SsyncRandom};
  m.seeds = {7, 8};
  return m;
}

std::string temp_path(const char* name) { return testing::TempDir() + name; }

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Turns the whole telemetry stack on for one scope: metrics registry,
/// installed trace writer, and a forced progress meter sampling into a
/// discarded temp stream.
class FullTelemetry {
 public:
  FullTelemetry(std::size_t jobs, std::size_t cells)
      : trace_(testing::TempDir() + "obs_identity_trace.json"), sink_(std::tmpfile()) {
    obs::Registry::global().reset();
    obs::Registry::global().set_enabled(true);
    obs::TraceWriter::install(&trace_);
    obs::ProgressMeter::Options opts;
    opts.total_jobs = jobs;
    opts.total_cells = cells;
    opts.interval_seconds = 0.01;  // sample aggressively while the run lasts
    opts.force = true;
    opts.out = sink_;
    meter_.emplace(opts);
  }
  ~FullTelemetry() {
    meter_.reset();
    obs::TraceWriter::install(nullptr);
    obs::Registry::global().set_enabled(false);
    obs::Registry::global().reset();
    if (sink_ != nullptr) std::fclose(sink_);
  }

 private:
  obs::TraceWriter trace_;
  std::FILE* sink_;
  std::optional<obs::ProgressMeter> meter_;
};

TEST(ObsIdentity, CampaignReportBytesMatchAcrossTelemetryAndThreads) {
  const Expansion expansion = expand(small_matrix());
  ASSERT_FALSE(obs::Registry::global().enabled());
  const std::string want_csv = campaign_csv(run_campaign(expansion, 1));
  const std::string want_json = campaign_json(run_campaign(expansion, 1));
  for (unsigned threads : {1u, 2u, 4u}) {
    FullTelemetry telemetry(expansion.jobs.size(), expansion.cells.size());
    const CampaignSummary summary = run_campaign(expansion, threads);
    EXPECT_EQ(campaign_csv(summary), want_csv) << "threads=" << threads;
    EXPECT_EQ(campaign_json(summary), want_json) << "threads=" << threads;
    // Telemetry actually ran — this differential is not vacuous.
    const obs::MetricsSnapshot s = obs::Registry::global().snapshot();
    EXPECT_EQ(s.counter_or("campaign.jobs_done"),
              static_cast<long long>(expansion.jobs.size()));
    EXPECT_EQ(s.counter_or("campaign.cells_done"),
              static_cast<long long>(expansion.cells.size()));
  }
}

TEST(ObsIdentity, CheckpointBytesMatchAcrossTelemetryAndThreads) {
  const Expansion expansion = expand(small_matrix());

  OrchestratorOptions base;
  base.flush_seconds = 60.0;  // final flush only: a stable bytes-on-disk target

  const std::string off_path = temp_path("obs_identity_off.ckpt");
  std::remove(off_path.c_str());
  base.checkpoint_path = off_path;
  base.threads = 1;
  ASSERT_FALSE(obs::Registry::global().enabled());
  const OrchestratorReport want = run_orchestrated(expansion, base);
  const std::string want_bytes = slurp(off_path);
  const std::string want_json = campaign_json(want.summary);
  ASSERT_FALSE(want_bytes.empty());

  for (unsigned threads : {1u, 3u}) {
    const std::string on_path = temp_path("obs_identity_on.ckpt");
    std::remove(on_path.c_str());
    OrchestratorOptions opts = base;
    opts.checkpoint_path = on_path;
    opts.threads = threads;
    FullTelemetry telemetry(expansion.jobs.size(), expansion.cells.size());
    const OrchestratorReport got = run_orchestrated(expansion, opts);
    EXPECT_EQ(slurp(on_path), want_bytes) << "threads=" << threads;
    EXPECT_EQ(campaign_json(got.summary), want_json) << "threads=" << threads;
    EXPECT_GT(obs::Registry::global().snapshot().counter_or("orchestrate.checkpoint_flushes"),
              0);
  }
}

TEST(ObsIdentity, AnomalyCaptureLeavesReportBytesUntouched) {
  // Starve the budget so (nearly) every job is anomalous: capture fires for
  // real, yet CSV/JSON must stay byte-identical to the capture-off run at
  // every thread count — the flight recorder is result-inert by design.
  Matrix m = small_matrix();
  m.options.max_steps = 5;
  const Expansion expansion = expand(m);
  ASSERT_FALSE(obs::Registry::global().enabled());
  const CampaignSummary off = run_campaign(expansion, 1);
  ASSERT_GT(off.total.failures, 0);  // the differential is not vacuous
  const std::string want_csv = campaign_csv(off);
  const std::string want_json = campaign_json(off);

  for (unsigned threads : {1u, 2u, 4u}) {
    const std::string dir = testing::TempDir() + "obs_identity_capture_" +
                            std::to_string(threads);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    OrchestratorOptions opts;
    opts.threads = threads;
    opts.record_anomalies = {dir, 4};
    FullTelemetry telemetry(expansion.jobs.size(), expansion.cells.size());
    const CampaignSummary summary = run_orchestrated(expansion, opts).summary;
    EXPECT_EQ(campaign_csv(summary), want_csv) << "threads=" << threads;
    EXPECT_EQ(campaign_json(summary), want_json) << "threads=" << threads;
    // Capture actually happened, and honored the limit.
    std::size_t files = 0;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      EXPECT_EQ(entry.path().extension(), ".lumirec");
      ++files;
    }
    EXPECT_GT(files, 0u) << "threads=" << threads;
    EXPECT_LE(files, 4u) << "threads=" << threads;
  }
}

TEST(ObsIdentity, AnomalyCaptureLeavesCheckpointBytesUntouched) {
  Matrix m = small_matrix();
  m.options.max_steps = 5;
  const Expansion expansion = expand(m);

  OrchestratorOptions base;
  base.flush_seconds = 60.0;
  const std::string off_path = temp_path("obs_identity_capture_off.ckpt");
  std::remove(off_path.c_str());
  base.checkpoint_path = off_path;
  base.threads = 1;
  const std::string want_bytes = slurp((run_orchestrated(expansion, base), off_path));
  ASSERT_FALSE(want_bytes.empty());

  for (unsigned threads : {1u, 3u}) {
    const std::string on_path = temp_path("obs_identity_capture_on.ckpt");
    std::remove(on_path.c_str());
    const std::string dir = testing::TempDir() + "obs_identity_orch_capture";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    OrchestratorOptions opts = base;
    opts.checkpoint_path = on_path;
    opts.threads = threads;
    opts.record_anomalies = {dir, 2};
    run_orchestrated(expansion, opts);
    EXPECT_EQ(slurp(on_path), want_bytes) << "threads=" << threads;
    EXPECT_FALSE(std::filesystem::is_empty(dir)) << "threads=" << threads;
  }
}

TEST(ObsIdentity, ResumeSkipsSurfaceInMetricsNotInReports) {
  const Expansion expansion = expand(small_matrix());
  const std::string path = temp_path("obs_identity_resume.ckpt");
  std::remove(path.c_str());
  OrchestratorOptions opts;
  opts.checkpoint_path = path;
  opts.threads = 2;
  opts.flush_seconds = 60.0;
  const std::string want_json = campaign_json(run_orchestrated(expansion, opts).summary);

  FullTelemetry telemetry(expansion.jobs.size(), expansion.cells.size());
  const OrchestratorReport resumed = run_orchestrated(expansion, opts);
  EXPECT_EQ(resumed.jobs_skipped, expansion.jobs.size());
  EXPECT_EQ(campaign_json(resumed.summary), want_json);
  const obs::MetricsSnapshot s = obs::Registry::global().snapshot();
  EXPECT_EQ(s.counter_or("orchestrate.resume_skips"),
            static_cast<long long>(expansion.jobs.size()));
  EXPECT_EQ(s.counter_or("campaign.jobs_done"), 0);  // nothing re-ran
  EXPECT_EQ(s.counter_or("campaign.cells_done"),
            static_cast<long long>(expansion.cells.size()));
}

}  // namespace
}  // namespace lumi::campaign

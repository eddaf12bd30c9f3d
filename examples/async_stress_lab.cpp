// ASYNC stress lab: pit the paper's ASYNC algorithms against increasingly
// hostile schedulers (random, centralized, stale-view stress) and watch the
// intermediate "recolored but not yet moved" configurations the paper's
// proofs reason about.
//
//   $ ./async_stress_lab
#include <cstdio>
#include <iostream>

#include "src/algorithms/registry.hpp"
#include "src/engine/runner.hpp"
#include "src/trace/ascii_render.hpp"

int main() {
  using namespace lumi;

  std::printf("ASYNC stress lab: 5 ASYNC algorithms x 3 scheduler families x 8 seeds\n\n");
  std::printf("%-10s %-20s %8s %8s %8s %s\n", "section", "scheduler", "events", "moves",
              "recolor", "result");

  bool all_ok = true;
  for (const char* section : {"4.3.1", "4.3.2", "4.3.3", "4.3.4", "4.3.5"}) {
    const Algorithm alg = algorithms::entry(section).make();
    const Grid grid(std::max(4, alg.min_rows), 6);
    for (int family = 0; family < 3; ++family) {
      long events = 0, moves = 0, recolors = 0;
      bool ok = true;
      const int seeds = family == 1 ? 1 : 8;  // centralized is deterministic
      for (int seed = 0; seed < seeds; ++seed) {
        RunResult r;
        RunOptions opts;
        opts.max_steps = 2'000'000;
        if (family == 0) {
          AsyncRandomScheduler s(static_cast<unsigned>(seed) * 97 + 13);
          r = run_async(alg, grid, s, opts);
        } else if (family == 1) {
          AsyncCentralizedScheduler s;
          r = run_async(alg, grid, s, opts);
        } else {
          AsyncStaleStressScheduler s(static_cast<unsigned>(seed) * 31 + 7);
          r = run_async(alg, grid, s, opts);
        }
        events += r.stats.instants;
        moves += r.stats.moves;
        recolors += r.stats.color_changes;
        ok = ok && r.ok();
      }
      const char* name = family == 0   ? "async-random"
                         : family == 1 ? "async-central"
                                       : "async-stress";
      std::printf("%-10s %-20s %8ld %8ld %8ld %s\n", section, name, events / seeds,
                  moves / seeds, recolors / seeds, ok ? "ok" : "FAILED");
      all_ok = all_ok && ok;
    }
  }

  // Show one paper-style intermediate: Algorithm 6's G recolors to B at the
  // east wall before moving (Fig. 12(c)).
  std::printf("\nAlgorithm 6, Fig. 12(c)-style intermediate (B recolored, not yet moved):\n\n");
  const Algorithm alg6 = algorithms::entry("4.3.1").make();
  AsyncCentralizedScheduler sched;
  RunOptions opts;
  opts.record_trace = true;
  const RunResult run = run_async(alg6, Grid(3, 5), sched, opts);
  for (std::size_t i = 0; i + 1 < run.trace.size(); ++i) {
    const std::string& note = run.trace[i].note;
    if (note.find("Compute-end") != std::string::npos) {
      const Configuration& c = run.trace[i].config;
      bool has_b = false;
      for (const Robot& robot : c.robots()) has_b = has_b || robot.color == Color::B;
      if (has_b) {
        std::cout << "event " << i << " (" << note << "):\n" << render(c) << "\n";
        break;
      }
    }
  }
  return all_ok ? 0 : 1;
}

// In-memory spans recorded by the benchmark around its calls into the
// library's public functions (no tracing inside the library).  Each span has
// a name "<layer>.<call>", start, end, thread and the id of the span open on
// the same thread when it began (its parent).  Spans stay in memory until
// the run ends; then the benchmark derives per-layer self time (a span's
// duration minus its children's) and writes the Chrome trace-event JSON of
// docs/OBSERVABILITY.md.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

struct SpanRecord {
  const char* name = "";  ///< string literal, "<layer>.<call>"
  Clock::time_point start;
  Clock::time_point end;
  std::uint32_t tid = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = no enclosing span on this thread
  long long count = 0;       ///< calls the span covers (loop spans), else 0

  double seconds() const { return std::chrono::duration<double>(end - start).count(); }
};

/// Turns span recording on or off process-wide.  Flip only while no span is
/// open (the untraced passes run with recording off).
void set_tracing(bool on);

/// RAII span; a no-op while tracing is off.
class Span {
 public:
  explicit Span(const char* name, long long count = 0);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool live_ = false;
  SpanRecord rec_;
};

/// Every span recorded so far, across all threads (call after joining every
/// thread that recorded).
std::vector<SpanRecord> collect_spans();

/// Self time (duration minus the time covered by direct children) summed per
/// layer, the layer being the name's text before the first '.'.
std::map<std::string, double> self_seconds_by_layer(const std::vector<SpanRecord>& spans);

/// Writes the spans as {"traceEvents":[...]} complete events; false on I/O
/// failure.
bool write_chrome_trace(const std::vector<SpanRecord>& spans, const std::filesystem::path& path);

}  // namespace perfbench

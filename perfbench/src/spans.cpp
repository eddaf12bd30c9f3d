#include "spans.hpp"

#include <atomic>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace perfbench {

namespace {

struct ThreadLog {
  std::uint32_t tid = 0;
  std::vector<SpanRecord> spans;
  std::vector<std::uint64_t> open;  ///< ids of the spans open on this thread
};

std::atomic<bool> g_on{false};
std::atomic<std::uint64_t> g_next_id{1};

std::mutex g_logs_mu;
std::vector<std::unique_ptr<ThreadLog>> g_logs;  ///< guarded by g_logs_mu

/// This thread's log, created on first use and owned by g_logs so it
/// outlives the thread (pool workers exit before the spans are collected).
ThreadLog& this_thread_log() {
  thread_local ThreadLog* log = nullptr;
  if (log == nullptr) {
    std::lock_guard lock(g_logs_mu);
    g_logs.push_back(std::make_unique<ThreadLog>());
    log = g_logs.back().get();
    log->tid = static_cast<std::uint32_t>(g_logs.size());
  }
  return *log;
}

/// The layer a span belongs to: its name's text before the first '.'.
std::string layer_of(const char* name) {
  const char* dot = std::strchr(name, '.');
  return dot == nullptr ? std::string(name) : std::string(name, dot);
}

}  // namespace

void set_tracing(bool on) { g_on.store(on); }

Span::Span(const char* name, long long count) {
  if (!g_on.load(std::memory_order_relaxed)) return;
  ThreadLog& log = this_thread_log();
  live_ = true;
  rec_.name = name;
  rec_.count = count;
  rec_.tid = log.tid;
  rec_.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  rec_.parent = log.open.empty() ? 0 : log.open.back();
  log.open.push_back(rec_.id);
  rec_.start = Clock::now();
}

Span::~Span() {
  if (!live_) return;
  rec_.end = Clock::now();
  ThreadLog& log = this_thread_log();
  log.open.pop_back();
  log.spans.push_back(rec_);
}

std::vector<SpanRecord> collect_spans() {
  std::lock_guard lock(g_logs_mu);
  std::vector<SpanRecord> out;
  for (const auto& log : g_logs) out.insert(out.end(), log->spans.begin(), log->spans.end());
  return out;
}

std::map<std::string, double> self_seconds_by_layer(const std::vector<SpanRecord>& spans) {
  // Children nest inside their parent on one thread, so the time they cover
  // is simply the sum of their durations.
  std::unordered_map<std::uint64_t, double> child_time;
  for (const SpanRecord& s : spans)
    if (s.parent != 0) child_time[s.parent] += s.seconds();
  std::map<std::string, double> out;
  for (const SpanRecord& s : spans) {
    const auto it = child_time.find(s.id);
    out[layer_of(s.name)] += s.seconds() - (it == child_time.end() ? 0.0 : it->second);
  }
  return out;
}

bool write_chrome_trace(const std::vector<SpanRecord>& spans, const std::filesystem::path& path) {
  if (spans.empty()) return true;
  Clock::time_point epoch = spans.front().start;
  for (const SpanRecord& s : spans) epoch = std::min(epoch, s.start);
  // Both endpoints are floored to whole microseconds from the epoch, so a
  // child's rendered interval stays inside its parent's.
  const auto us = [&](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::microseconds>(t - epoch).count();
  };
  std::ofstream out(path);
  out << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    out << "  {\"name\": \"" << s.name << "\", \"cat\": \"" << layer_of(s.name)
        << "\", \"ph\": \"X\", \"ts\": " << us(s.start) << ", \"dur\": "
        << us(s.end) - us(s.start) << ", \"pid\": 1, \"tid\": " << s.tid
        << ", \"args\": {\"id\": " << s.id << ", \"parent\": " << s.parent
        << ", \"count\": " << s.count << "}}" << (i + 1 < spans.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return static_cast<bool>(out.flush());
}

}  // namespace perfbench

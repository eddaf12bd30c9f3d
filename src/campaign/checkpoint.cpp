#include "src/campaign/checkpoint.hpp"

#include <array>
#include <charconv>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "src/core/text.hpp"

namespace lumi::campaign {

namespace {

constexpr const char* kMagic = "lumi-campaign-checkpoint";
// v2: the cell record carries the topology spec token (between the
// scheduler and section fields); v1 files predate the topology axis and are
// rejected rather than guessed at.
constexpr std::string_view kVersion = "v2";
constexpr const char* kStatNames[] = {"instants", "activations", "moves", "color_changes",
                                      "visited"};

/// The statistics of `acc` (const or not), in kStatNames order.
template <typename Acc>
auto stats_of(Acc& acc) {
  return std::array{&acc.instants, &acc.activations, &acc.moves, &acc.color_changes,
                    &acc.visited};
}

/// Appends ' ' and the decimal digits of `value`.
template <typename Int>
void append_field(std::string& out, Int value) {
  char buf[24];  // a 64-bit integer has at most 20 digits and a sign
  out += ' ';
  out.append(buf, std::to_chars(buf, buf + sizeof buf, value).ptr);
}

}  // namespace

std::size_t Checkpoint::jobs_done() const {
  std::size_t n = 0;
  for (const CheckpointCell& c : cells) n += c.seeds_done.size();
  return n;
}

std::uint64_t expansion_fingerprint(const Expansion& expansion) {
  std::uint64_t h = 14695981039346656037ULL;  // FNV-1a 64 offset basis
  const auto mix = [&h](const std::string& s) {
    for (const char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ULL;
    }
  };
  mix("v2|" + std::to_string(expansion.options.max_steps) + '|' +
      std::to_string(expansion.options.record_trace) + '|' +
      std::to_string(expansion.options.require_unique_actions) + '|' +
      std::to_string(expansion.cells.size()));
  for (const Cell& cell : expansion.cells) {
    mix('|' + cell.section + '|' + std::to_string(cell.rows) + 'x' + std::to_string(cell.cols) +
        '|' + cell.topo + '|' + to_string(cell.sched));
  }
  return h;
}

Checkpoint make_checkpoint(const Expansion& expansion) {
  Checkpoint out;
  out.fingerprint = expansion_fingerprint(expansion);
  out.cells.reserve(expansion.cells.size());
  for (const Cell& cell : expansion.cells) out.cells.push_back({cell, {}, {}});
  return out;
}

std::string checkpoint_serialize(const Checkpoint& checkpoint) {
  std::string out;
  out.append(kMagic).append(" ").append(kVersion);
  out.append("\nfingerprint ").append(text::format_hex64(checkpoint.fingerprint));
  out.append("\ncells");
  append_field(out, checkpoint.cells.size());
  for (std::size_t i = 0; i < checkpoint.cells.size(); ++i) {
    const CheckpointCell& c = checkpoint.cells[i];
    out.append("\ncell");
    append_field(out, i);
    append_field(out, c.cell.rows);
    append_field(out, c.cell.cols);
    out.append(" ").append(to_string(c.cell.sched));
    out.append(" ").append(text::encode_token(c.cell.topo));
    out.append(" ").append(text::encode_token(c.cell.section));
    out.append("\nacc");
    for (const long n : {c.acc.runs, c.acc.terminated, c.acc.explored_all, c.acc.failures}) {
      append_field(out, n);
    }
    for (std::size_t s = 0; s < std::size(kStatNames); ++s) {
      const LongStat& stat = *stats_of(c.acc)[s];
      out.append("\nstat ").append(kStatNames[s]);
      append_field(out, stat.count);
      append_field(out, stat.sum);
      append_field(out, stat.sum_squares);
      append_field(out, stat.min);
      append_field(out, stat.max);
      for (const long h : stat.histogram) append_field(out, h);
    }
    out.append("\nseeds");
    append_field(out, c.seeds_done.size());
    for (const unsigned seed : c.seeds_done) append_field(out, seed);
  }
  out.append("\nend\n");
  return out;
}

Checkpoint checkpoint_parse(const std::string& text) {
  text::LineReader in(text, "checkpoint");
  Checkpoint out;
  if (const std::string_view version = in.fields(kMagic, 1)[0]; version != kVersion) {
    in.fail("unsupported version '" + std::string(version) + "'");
  }
  out.fingerprint = in.hex64(in.fields("fingerprint", 1)[0], "fingerprint");
  // Each cell is a cell, an acc, one stat per statistic and a seeds line.
  const std::size_t num_cells =
      in.count(in.fields("cells", 1)[0], "cell count", 3 + std::size(kStatNames));
  out.cells.reserve(num_cells);
  for (std::size_t i = 0; i < num_cells; ++i) {
    CheckpointCell c;
    {
      const auto& f = in.fields("cell", 6);
      if (in.integer<std::size_t>(f[0], "cell index", 0) != i) {
        in.fail("cell index '" + std::string(f[0]) + "', expected " + std::to_string(i));
      }
      c.cell.rows = in.integer<int>(f[1], "cell rows");
      c.cell.cols = in.integer<int>(f[2], "cell cols");
      const auto kind = sched_from_name(std::string(f[3]));
      if (!kind) in.fail("unknown scheduler '" + std::string(f[3]) + "'");
      c.cell.sched = *kind;
      c.cell.topo = in.token(f[4], "topology token");
      c.cell.section = in.token(f[5], "section token");
    }
    {
      const auto& f = in.fields("acc", 4);
      long* counters[] = {&c.acc.runs, &c.acc.terminated, &c.acc.explored_all, &c.acc.failures};
      for (std::size_t k = 0; k < std::size(counters); ++k) {
        *counters[k] = in.integer<long>(f[k], "acc count", 0);
      }
    }
    for (std::size_t s = 0; s < std::size(kStatNames); ++s) {
      const std::string_view name = kStatNames[s];
      LongStat& stat = *stats_of(c.acc)[s];
      const auto& f = in.fields("stat", 6 + stat.histogram.size());
      if (f[0] != name) {
        in.fail("expected stat " + std::string(name) + ", got '" + std::string(f[0]) + "'");
      }
      stat.count = in.integer<long>(f[1], "stat count", 0);
      stat.sum = in.integer<long long>(f[2], "stat sum");
      stat.sum_squares = in.integer<long long>(f[3], "stat sum_squares");
      stat.min = in.integer<long>(f[4], "stat min");
      stat.max = in.integer<long>(f[5], "stat max");
      for (std::size_t b = 0; b < stat.histogram.size(); ++b) {
        stat.histogram[b] = in.integer<long>(f[6 + b], "histogram bucket", 0);
      }
    }
    {
      // The count must match the seeds listed, so it sizes nothing itself.
      const auto& f = in.fields("seeds");
      if (f.empty()) in.require_fields(1);
      in.require_fields(1 + in.integer<std::size_t>(f[0], "seed count", 0));
      c.seeds_done.reserve(f.size() - 1);
      for (std::size_t s = 1; s < f.size(); ++s) {
        const auto seed = in.integer<unsigned>(f[s], "seed", 0);
        if (!c.seeds_done.empty() && c.seeds_done.back() >= seed) in.bad("seed order", f[s]);
        c.seeds_done.push_back(seed);
      }
    }
    out.cells.push_back(std::move(c));
  }
  in.fields("end", 0);
  return out;
}

bool checkpoint_write(const std::string& path, const Checkpoint& checkpoint) {
  return text::write_file_atomic(path, checkpoint_serialize(checkpoint));
}

std::optional<Checkpoint> checkpoint_load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    // Distinguish "no checkpoint yet" from "checkpoint present but
    // unreadable": restarting from scratch over a real checkpoint (and then
    // overwriting it) must never happen silently.
    std::error_code ec;
    if (std::filesystem::exists(path, ec) && !ec) {
      throw std::runtime_error("checkpoint_load: '" + path + "' exists but cannot be read");
    }
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return checkpoint_parse(buf.str());
}

void checkpoint_merge(Checkpoint& into, const Checkpoint& other) {
  if (into.fingerprint != other.fingerprint) {
    throw std::invalid_argument("checkpoint_merge: fingerprints differ (different matrices)");
  }
  if (into.cells.size() != other.cells.size()) {
    throw std::invalid_argument("checkpoint_merge: cell count mismatch");
  }
  for (std::size_t i = 0; i < into.cells.size(); ++i) {
    CheckpointCell& a = into.cells[i];
    const CheckpointCell& b = other.cells[i];
    if (!(a.cell == b.cell)) throw std::invalid_argument("checkpoint_merge: cell list mismatch");
    std::vector<unsigned> merged;
    merged.reserve(a.seeds_done.size() + b.seeds_done.size());
    std::size_t x = 0, y = 0;
    while (x < a.seeds_done.size() || y < b.seeds_done.size()) {
      if (y == b.seeds_done.size() ||
          (x < a.seeds_done.size() && a.seeds_done[x] < b.seeds_done[y])) {
        merged.push_back(a.seeds_done[x++]);
      } else if (x == a.seeds_done.size() || b.seeds_done[y] < a.seeds_done[x]) {
        merged.push_back(b.seeds_done[y++]);
      } else {
        throw std::invalid_argument("checkpoint_merge: overlapping shards (cell " +
                                    to_string(a.cell) + " seed " +
                                    std::to_string(a.seeds_done[x]) + " in both)");
      }
    }
    a.seeds_done = std::move(merged);
    a.acc.merge(b.acc);
  }
}

CampaignSummary checkpoint_summary(const Checkpoint& checkpoint) {
  CampaignSummary summary;
  summary.cells.reserve(checkpoint.cells.size());
  for (const CheckpointCell& c : checkpoint.cells) {
    summary.cells.push_back({c.cell, c.acc});
    summary.total.merge(c.acc);
  }
  summary.jobs = static_cast<std::size_t>(summary.total.runs);
  summary.threads = 0;
  summary.wall_seconds = 0.0;
  return summary;
}

}  // namespace lumi::campaign

#include "src/obs/recorder.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "src/core/text.hpp"
#include "src/engine/runner.hpp"

namespace lumi::obs {
namespace {

constexpr std::string_view kMoveLetters = "NESW";  // indexed by Dir

char move_char(const std::optional<Dir>& move) {
  return move ? kMoveLetters[static_cast<std::size_t>(*move)] : '-';
}

std::optional<Dir> move_field(const text::LineReader& in, std::string_view s) {
  if (s == "-") return std::nullopt;
  const std::size_t d = s.size() == 1 ? kMoveLetters.find(s[0]) : std::string_view::npos;
  if (d == std::string_view::npos) in.bad("event move", s);
  return static_cast<Dir>(d);
}

bool to_bool(const text::LineReader& in, std::string_view s, std::string_view what) {
  if (s != "0" && s != "1") in.bad(what, s);
  return s == "1";
}

/// `from_name(s)` for an enum spelling, failing with the quoted token where
/// it throws std::invalid_argument.
template <typename F>
auto named(const text::LineReader& in, std::string_view s, std::string_view what, F from_name) {
  try {
    return from_name(std::string(s));
  } catch (const std::invalid_argument&) {
    in.bad(what, s);
  }
}

Color color_field(const text::LineReader& in, std::string_view s, std::string_view what) {
  return named(in, s, what, [](const std::string& t) {
    return color_from_letter(t.size() == 1 ? t[0] : '?');
  });
}

void serialize_robots(std::ostringstream& out, const std::vector<Robot>& robots) {
  for (std::size_t i = 0; i < robots.size(); ++i) {
    out << "robot " << i << ' ' << robots[i].pos.row << ' ' << robots[i].pos.col << ' '
        << color_letter(robots[i].color) << '\n';
  }
}

std::vector<Robot> parse_robots(text::LineReader& in, const char* what) {
  const std::size_t n = in.count(in.fields(what, 1)[0], what);
  std::vector<Robot> robots;
  robots.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& f = in.fields("robot", 4);
    if (in.integer<std::size_t>(f[0], "robot index", 0) != i) {
      in.fail(std::string(what) + " robot '" + std::string(f[0]) + "' out of order");
    }
    robots.push_back(Robot{.pos = {in.integer<int>(f[1], "robot row"),
                                   in.integer<int>(f[2], "robot col")},
                           .color = color_field(in, f[3], "robot color")});
  }
  return robots;
}

}  // namespace

std::string to_string(EventKind kind) {
  switch (kind) {
    case EventKind::SyncAct: return "sync";
    case EventKind::Look: return "look";
    case EventKind::ComputeEnd: return "compute";
    case EventKind::Move: return "move";
  }
  return "sync";
}

EventKind event_kind_from_name(const std::string& name) {
  if (name == "sync") return EventKind::SyncAct;
  if (name == "look") return EventKind::Look;
  if (name == "compute") return EventKind::ComputeEnd;
  if (name == "move") return EventKind::Move;
  throw std::invalid_argument("unknown event kind '" + name + "'");
}

Recorder::Recorder() : Recorder(Options{}) {}

Recorder::Recorder(Options options) : options_(options) {
  if (options_.capacity == 0) options_.capacity = 1;
}

void Recorder::begin_run(const Configuration& initial) {
  initial_.assign(initial.robots().begin(), initial.robots().end());
  last_ = initial_;
  ring_.clear();
  next_ = 0;
  seen_ = 0;
  first_seen_.clear();
  cycle_.reset();
  if (options_.detect_cycles) first_seen_.emplace(initial.canonical_hash(), 0);
}

void Recorder::push(const RecordedEvent& event) {
  if (ring_.size() < options_.capacity) {
    ring_.push_back(event);
  } else {
    ring_[next_] = event;
    next_ = (next_ + 1) % options_.capacity;
  }
  ++seen_;
}

void Recorder::record_sync_instant(long instant, const Configuration& before,
                                   std::span<const RobotAction> selected) {
  for (const RobotAction& ra : selected) {
    push(RecordedEvent{.instant = instant,
                       .kind = EventKind::SyncAct,
                       .robot = ra.robot,
                       .rule_index = ra.action.rule_index,
                       .sym = ra.action.sym,
                       .color_before = before.robot(ra.robot).color,
                       .color_after = ra.action.new_color,
                       .move = ra.action.move});
  }
}

void Recorder::record_async_event(long event, EventKind kind, int robot, Color color_before,
                                  const Action* decision) {
  RecordedEvent ev{.instant = event,
                   .kind = kind,
                   .robot = robot,
                   .rule_index = -1,
                   .sym = {},
                   .color_before = color_before,
                   .color_after = color_before,
                   .move = std::nullopt};
  if (decision != nullptr) {
    ev.rule_index = decision->rule_index;
    ev.sym = decision->sym;
    ev.color_after = decision->new_color;
    ev.move = decision->move;
  }
  push(ev);
}

void Recorder::record_configuration(long instant, const Configuration& config) {
  last_.assign(config.robots().begin(), config.robots().end());
  if (!options_.detect_cycles || cycle_.has_value()) return;
  const std::uint64_t h = config.canonical_hash();
  const auto [it, inserted] = first_seen_.try_emplace(h, instant);
  if (!inserted) {
    cycle_ = CycleWitness{.start = it->second, .length = instant - it->second, .hash = h};
  }
}

std::vector<RecordedEvent> Recorder::tail() const {
  std::vector<RecordedEvent> out;
  out.reserve(ring_.size());
  if (ring_.size() < options_.capacity) {
    out = ring_;
  } else {
    out.insert(out.end(), ring_.begin() + static_cast<std::ptrdiff_t>(next_), ring_.end());
    out.insert(out.end(), ring_.begin(), ring_.begin() + static_cast<std::ptrdiff_t>(next_));
  }
  return out;
}

std::string to_string(Diagnosis d) {
  switch (d) {
    case Diagnosis::Terminated: return "terminated";
    case Diagnosis::Cycle: return "cycle";
    case Diagnosis::BudgetExhausted: return "budget-exhausted";
    case Diagnosis::VerifierFailure: return "verifier-failure";
  }
  return "verifier-failure";
}

Diagnosis diagnosis_from_name(const std::string& name) {
  if (name == "terminated") return Diagnosis::Terminated;
  if (name == "cycle") return Diagnosis::Cycle;
  if (name == "budget-exhausted") return Diagnosis::BudgetExhausted;
  if (name == "verifier-failure") return Diagnosis::VerifierFailure;
  throw std::invalid_argument("unknown diagnosis '" + name + "'");
}

Diagnosis diagnose(const Recorder& rec, const RunResult& result) {
  // A witness wins over everything: the budget exhaustion that usually
  // accompanies it is a *consequence* of the loop.  Under the deterministic
  // memoryless schedulers the witness is armed for, a terminating run never
  // revisits a configuration, so Cycle and Terminated cannot both hold.
  if (rec.cycle().has_value()) return Diagnosis::Cycle;
  if (result.terminated && result.failure.empty()) return Diagnosis::Terminated;
  if (result.failure.starts_with("step budget exhausted") ||
      result.failure.starts_with("event budget exhausted")) {
    return Diagnosis::BudgetExhausted;
  }
  return Diagnosis::VerifierFailure;
}

Recording make_recording(const Recorder& rec, const RunResult& result) {
  Recording out;
  out.options = rec.options();
  out.prov = rec.provenance();
  out.initial = rec.initial_robots();
  out.diagnosis = diagnose(rec, result);
  out.cycle = rec.cycle();
  out.events_seen = rec.events_seen();
  out.events = rec.tail();
  out.terminated = result.terminated;
  out.explored_all = result.explored_all;
  out.instants = result.stats.instants;
  out.activations = result.stats.activations;
  out.moves = result.stats.moves;
  out.color_changes = result.stats.color_changes;
  out.failure = result.failure;
  out.final_robots = rec.last_robots();
  return out;
}

std::string recording_serialize(const Recording& rec) {
  std::ostringstream out;
  out << "lumirec " << rec.version << '\n';
  out << "capacity " << rec.options.capacity << '\n';
  out << "detect-cycles " << (rec.options.detect_cycles ? 1 : 0) << '\n';
  out << "section " << text::encode_token(rec.prov.section) << '\n';
  out << "scheduler " << text::encode_token(rec.prov.scheduler) << ' ' << rec.prov.seed << '\n';
  out << "dims " << rec.prov.rows << ' ' << rec.prov.cols << '\n';
  out << "topology " << text::encode_token(rec.prov.topo_spec) << '\n';
  out << "max-steps " << rec.prov.max_steps << '\n';
  out << "unique-actions " << (rec.prov.require_unique_actions ? 1 : 0) << '\n';
  // The algorithm text rides along verbatim (dsl lines never need escaping);
  // the line count frames it so the parser needs no sentinel.
  std::vector<std::string_view> alg_lines;
  text::LineReader alg(rec.prov.algorithm_text, "algorithm");
  for (std::string_view line; alg.next(line);) alg_lines.push_back(line);
  out << "algorithm " << alg_lines.size() << '\n';
  for (const std::string_view line : alg_lines) out << line << '\n';
  out << "init " << rec.initial.size() << '\n';
  serialize_robots(out, rec.initial);
  out << "diagnosis " << to_string(rec.diagnosis) << '\n';
  if (rec.cycle.has_value()) {
    out << "cycle " << rec.cycle->start << ' ' << rec.cycle->length << ' '
        << text::format_hex64(rec.cycle->hash) << '\n';
  }
  out << "events-seen " << rec.events_seen << '\n';
  out << "events " << rec.events.size() << '\n';
  for (const RecordedEvent& ev : rec.events) {
    out << "ev " << ev.instant << ' ' << to_string(ev.kind) << ' ' << ev.robot << ' '
        << ev.rule_index << ' ' << int(ev.sym.rot) << ' ' << (ev.sym.mirror ? 1 : 0) << ' '
        << color_letter(ev.color_before) << ' ' << color_letter(ev.color_after) << ' '
        << move_char(ev.move) << '\n';
  }
  out << "outcome " << (rec.terminated ? 1 : 0) << ' ' << (rec.explored_all ? 1 : 0) << '\n';
  out << "stats " << rec.instants << ' ' << rec.activations << ' ' << rec.moves << ' '
      << rec.color_changes << '\n';
  if (rec.failure.empty()) {
    out << "failure ok\n";
  } else {
    out << "failure err " << text::encode_token(rec.failure) << '\n';
  }
  out << "final " << rec.final_robots.size() << '\n';
  serialize_robots(out, rec.final_robots);
  out << "end\n";
  return out.str();
}

Recording recording_parse(const std::string& text) {
  text::LineReader in(text, "lumirec");
  Recording rec;
  rec.version = in.integer<int>(in.fields("lumirec", 1)[0], "version", 1, 1);
  // The ring grows to its capacity as events arrive, so a large capacity
  // sizes no allocation here or at replay.
  rec.options.capacity = in.integer<std::size_t>(in.fields("capacity", 1)[0], "capacity", 1);
  rec.options.detect_cycles = to_bool(in, in.fields("detect-cycles", 1)[0], "detect-cycles");
  rec.prov.section = in.token(in.fields("section", 1)[0], "section");
  {
    const auto& f = in.fields("scheduler", 2);
    rec.prov.scheduler = in.token(f[0], "scheduler");
    rec.prov.seed = in.integer<unsigned>(f[1], "scheduler seed", 0);
  }
  {
    const auto& f = in.fields("dims", 2);
    rec.prov.rows = in.integer<int>(f[0], "rows");
    rec.prov.cols = in.integer<int>(f[1], "cols");
  }
  rec.prov.topo_spec = in.token(in.fields("topology", 1)[0], "topology");
  rec.prov.max_steps = in.integer<long>(in.fields("max-steps", 1)[0], "max-steps", 0);
  rec.prov.require_unique_actions =
      to_bool(in, in.fields("unique-actions", 1)[0], "unique-actions");
  for (std::size_t i = 0, n = in.count(in.fields("algorithm", 1)[0], "algorithm line count");
       i < n; ++i) {
    rec.prov.algorithm_text += in.line("algorithm line");
    rec.prov.algorithm_text += '\n';
  }
  rec.initial = parse_robots(in, "init");
  rec.diagnosis = named(in, in.fields("diagnosis", 1)[0], "diagnosis", diagnosis_from_name);
  if (in.peek_is("cycle")) {
    const auto& f = in.fields("cycle", 3);
    rec.cycle = Recorder::CycleWitness{.start = in.integer<long>(f[0], "cycle start", 0),
                                       .length = in.integer<long>(f[1], "cycle length", 1),
                                       .hash = in.hex64(f[2], "cycle hash")};
  }
  rec.events_seen = in.integer<long long>(in.fields("events-seen", 1)[0], "events-seen", 0);
  const std::size_t kept = in.count(in.fields("events", 1)[0], "event count");
  rec.events.reserve(kept);
  for (std::size_t i = 0; i < kept; ++i) {
    const auto& f = in.fields("ev", 9);
    RecordedEvent ev;
    ev.instant = in.integer<long>(f[0], "event instant", 0);
    ev.kind = named(in, f[1], "event kind", event_kind_from_name);
    ev.robot = in.integer<int>(f[2], "event robot", 0);
    ev.rule_index = in.integer<int>(f[3], "event rule", -1);
    ev.sym.rot = in.integer<std::uint8_t>(f[4], "event rotation", 0, 3);
    ev.sym.mirror = to_bool(in, f[5], "event mirror");
    ev.color_before = color_field(in, f[6], "event color");
    ev.color_after = color_field(in, f[7], "event color");
    ev.move = move_field(in, f[8]);
    rec.events.push_back(ev);
  }
  {
    const auto& f = in.fields("outcome", 2);
    rec.terminated = to_bool(in, f[0], "outcome");
    rec.explored_all = to_bool(in, f[1], "outcome");
  }
  {
    const auto& f = in.fields("stats", 4);
    long* stats[] = {&rec.instants, &rec.activations, &rec.moves, &rec.color_changes};
    for (std::size_t k = 0; k < std::size(stats); ++k) {
      *stats[k] = in.integer<long>(f[k], "stats", 0);
    }
  }
  {
    const auto& f = in.fields("failure");
    if (f.size() == 2 && f[0] == "err") {
      rec.failure = in.token(f[1], "failure");
      if (rec.failure.empty()) in.fail("empty 'failure err'");
    } else if (f.size() != 1 || f[0] != "ok") {
      in.fail("expected 'failure ok' or 'failure err <token>'");
    }
  }
  rec.final_robots = parse_robots(in, "final");
  in.fields("end", 0);
  return rec;
}

bool recording_write(const std::string& path, const Recording& rec) {
  return text::write_file_atomic(path, recording_serialize(rec));
}

std::optional<Recording> recording_load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buf;
  buf << in.rdbuf();
  return recording_parse(buf.str());
}

}  // namespace lumi::obs

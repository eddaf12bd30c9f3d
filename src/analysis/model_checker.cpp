#include "src/analysis/model_checker.hpp"

#include <algorithm>
#include <array>
#include <span>
#include <stdexcept>

#include "src/analysis/state_table.hpp"
#include "src/core/matching.hpp"

namespace lumi {

namespace {

/// Robot phase in the ASYNC checker (sync models keep everything Idle).
enum class McPhase : std::uint8_t { Idle = 0, Decided = 1, Colored = 2 };

struct McRobot {
  Vec pos;
  Color color = Color::G;
  McPhase phase = McPhase::Idle;
  Color pending_color = Color::G;
  std::int8_t pending_move = -1;  ///< -1 idle, else Dir
};

/// DFS colors, indexed by StateTable id.
enum class Mark : std::uint8_t { Gray = 1, Black = 2 };

class Checker {
 public:
  Checker(const Algorithm& alg, const Grid& grid, CheckModel model, const CheckOptions& opts)
      : alg_(alg), compiled_(CompiledAlgorithm::get(alg)), grid_(grid), model_(model),
        opts_(opts), config_(grid, {}) {
    if (grid.num_nodes() > 64) throw std::invalid_argument("model_check: grid too large (>64)");
    for (int i = 0; i < grid_.num_nodes(); ++i) {
      if (grid_.is_node_index(i)) full_mask_ |= 1ULL << i;
    }
  }

  CheckResult run() {
    if (grid_.rows() < alg_.min_rows || grid_.cols() < alg_.min_cols) {
      throw std::invalid_argument("model_check: grid below the algorithm's minimum");
    }
    if (alg_.num_robots() > kMaxSearchRobots) {
      throw std::invalid_argument("model_check: too many robots (>32)");
    }
    k_ = static_cast<std::size_t>(alg_.num_robots());
    actions_.resize(k_);
    placed_.resize(k_);
    table_.reset((k_ + 3) / 4 + 1);
    key_.resize(table_.stride());
    for (std::size_t i = 0; i < k_; ++i) {
      const auto& [pos, color] = alg_.initial_robots[i];
      placed_[i] = Robot{pos, color};
    }
    config_.reset_robots(placed_);  // rejects off-grid placements
    pool_robots_.resize(k_);
    pool_visited_.push_back(0);
    for (std::size_t i = 0; i < k_; ++i) {
      const Robot& r = config_.robot(static_cast<int>(i));
      pool_robots_[i] = McRobot{r.pos, r.color, McPhase::Idle, r.color, -1};
    }
    mark_visited(0);
    dfs();
    if (result_.failure.empty()) result_.ok = true;
    return result_;
  }

 private:
  /// A state on the DFS stack.  Its robots live at `slot` of the successor
  /// pool and its successors at [begin, end): each frame's successors sit
  /// above its own slot, so popping a frame truncates the pool to `begin`.
  struct Frame {
    std::size_t slot;
    std::int32_t id;
    std::size_t begin;
    std::size_t end;
    std::size_t next;
  };

  // --- successor pool --------------------------------------------------------
  McRobot* robots(std::size_t slot) { return pool_robots_.data() + slot * k_; }
  std::size_t pool_size() const { return pool_visited_.size(); }

  /// Appends a copy of the state at `slot` and returns the copy's slot.
  std::size_t clone(std::size_t slot) {
    const std::size_t out = pool_size();
    pool_robots_.resize(pool_robots_.size() + k_);
    pool_visited_.push_back(pool_visited_[slot]);
    std::copy_n(robots(slot), k_, robots(out));
    return out;
  }

  void truncate(std::size_t slots) {
    pool_robots_.resize(slots * k_);
    pool_visited_.resize(slots);
  }

  void mark_visited(std::size_t slot) {
    const McRobot* rs = robots(slot);
    std::uint64_t& visited = pool_visited_[slot];
    for (std::size_t i = 0; i < k_; ++i) visited |= 1ULL << grid_.index(rs[i].pos);
  }

  /// Canonical key of the state at `slot`: one 15-bit field per robot
  /// (node 6 | color 2 | phase 2 | pending color 2 | pending move + 1 3),
  /// sorted so anonymous robots collapse, four to a word in 16-bit lanes,
  /// then the visited word.
  const std::uint64_t* encode(std::size_t slot) {
    std::array<std::uint16_t, kMaxSearchRobots> fields{};
    const McRobot* rs = robots(slot);
    for (std::size_t i = 0; i < k_; ++i) {
      const McRobot& r = rs[i];
      auto f = static_cast<std::uint32_t>(grid_.index(r.pos));
      f = (f << 2) | static_cast<std::uint32_t>(r.color);
      f = (f << 2) | static_cast<std::uint32_t>(r.phase);
      f = (f << 2) | static_cast<std::uint32_t>(r.pending_color);
      f = (f << 3) | static_cast<std::uint32_t>(r.pending_move + 1);
      fields[i] = static_cast<std::uint16_t>(f);
    }
    std::sort(fields.begin(), fields.begin() + static_cast<std::ptrdiff_t>(k_));
    std::fill(key_.begin(), key_.end(), 0);
    for (std::size_t i = 0; i < k_; ++i) {
      key_[i / 4] |= static_cast<std::uint64_t>(fields[i]) << (16 * (i % 4));
    }
    key_.back() = pool_visited_[slot];
    return key_.data();
  }

  /// Loads the state at `slot` into the reusable configuration.
  void load(std::size_t slot) {
    const McRobot* rs = robots(slot);
    for (std::size_t i = 0; i < k_; ++i) placed_[i] = Robot{rs[i].pos, rs[i].color};
    config_.reset_robots(placed_);
  }

  /// Fills actions_[robot] with the robot's enabled actions in config_.
  void match(std::size_t robot) {
    take_snapshot_into(config_, static_cast<int>(robot), compiled_->phi(), snap_);
    enabled_actions_into(*compiled_, snap_, actions_[robot]);
  }

  std::string render(std::size_t slot) {
    load(slot);
    std::string out = config_.to_string();
    const McRobot* rs = robots(slot);
    for (std::size_t i = 0; i < k_; ++i) {
      const McRobot& r = rs[i];
      if (r.phase == McPhase::Idle) continue;
      out += " [robot@(" + std::to_string(r.pos.row) + "," + std::to_string(r.pos.col) + ") " +
             (r.phase == McPhase::Decided ? "decided" : "colored") + "]";
    }
    return out;
  }

  // Iterative DFS with tri-color marking: a back edge (successor on the
  // current stack) is a reachable cycle -> failure.
  void dfs() {
    push(0);
    while (!stack_.empty() && result_.failure.empty()) {
      Frame& top = stack_.back();
      if (top.next >= top.end) {
        marks_[static_cast<std::size_t>(top.id)] = Mark::Black;
        truncate(top.begin);
        stack_.pop_back();
        continue;
      }
      const std::size_t next = top.next;
      top.next += 1;
      result_.transitions += 1;
      push(next);
    }
  }

  void push(std::size_t slot) {
    const auto [id, inserted] = table_.intern(encode(slot));
    if (!inserted) {
      if (marks_[static_cast<std::size_t>(id)] == Mark::Gray) {
        fail("cycle: a schedule revisits a configuration (non-terminating execution)", slot);
      }
      return;  // black: fully explored before
    }
    marks_.push_back(Mark::Gray);
    result_.states += 1;
    if (result_.states > opts_.max_states) {
      fail("state budget exhausted (" + std::to_string(opts_.max_states) + ")", slot);
      return;
    }
    const std::size_t begin = pool_size();
    try {
      if (model_ == CheckModel::Async) {
        async_successors(slot);
      } else {
        sync_successors(slot);
      }
    } catch (const std::exception& e) {
      truncate(begin);
      fail(std::string("engine error: ") + e.what(), slot);
      return;
    }
    const std::size_t end = pool_size();
    if (begin == end) {
      result_.terminal_states += 1;
      const std::uint64_t visited = pool_visited_[slot];
      if (visited != full_mask_) {
        fail("terminal configuration with incomplete coverage (" +
                 std::to_string(__builtin_popcountll(visited)) + "/" +
                 std::to_string(grid_.reachable_nodes()) + " nodes)",
             slot);
      }
    }
    stack_.push_back(Frame{slot, id, begin, end, begin});
  }

  /// Records the first failure with the DFS stack plus `offending` as the
  /// witness, keeping only the newest 40 entries so it stays reviewable.
  void fail(const std::string& reason, std::size_t offending) {
    if (!result_.failure.empty()) return;
    result_.failure = reason;
    if (!opts_.want_witness) return;
    constexpr std::size_t kWitnessCap = 40;
    const std::size_t total = stack_.size() + 1;
    for (std::size_t i = total > kWitnessCap ? total - kWitnessCap : 0; i < stack_.size(); ++i) {
      result_.witness.push_back(render(stack_[i].slot));
    }
    result_.witness.push_back(render(offending));
  }

  // --- FSYNC / SSYNC -------------------------------------------------------
  void sync_successors(std::size_t slot) {
    load(slot);
    std::array<int, kMaxSearchRobots> enabled{};
    std::size_t n = 0;
    for (std::size_t i = 0; i < k_; ++i) {
      match(i);
      if (!actions_[i].empty()) enabled[n++] = static_cast<int>(i);
    }
    if (n == 0) return;

    if (model_ == CheckModel::Fsync) {
      emit_selections(slot, std::span(enabled.data(), n));  // the full set, all choice products
      return;
    }
    // SSYNC: every nonempty subset of the enabled robots.
    for (std::uint64_t mask = 1; mask < (1ULL << n); ++mask) {
      std::array<int, kMaxSearchRobots> subset{};
      std::size_t m = 0;
      for (std::size_t b = 0; b < n; ++b) {
        if (mask & (1ULL << b)) subset[m++] = enabled[b];
      }
      emit_selections(slot, std::span(subset.data(), m));
    }
  }

  /// Emits one successor per combination of action choices for `subset`.
  void emit_selections(std::size_t slot, std::span<const int> subset) {
    std::array<std::size_t, kMaxSearchRobots> choice{};
    while (true) {
      const std::size_t next = clone(slot);
      // Simultaneous application: all moves relative to the current state.
      for (std::size_t i = 0; i < subset.size(); ++i) {
        const auto robot = static_cast<std::size_t>(subset[i]);
        const Action& a = actions_[robot][choice[i]];
        McRobot& r = robots(next)[robot];
        r.color = a.new_color;
        r.pending_color = a.new_color;
        if (a.move.has_value()) {
          const std::optional<Vec> to = grid_.step(r.pos, *a.move);
          if (!to) throw std::logic_error("robot would leave the grid");
          r.pos = *to;
        }
      }
      mark_visited(next);
      // Next choice vector (mixed-radix increment).
      std::size_t d = 0;
      while (d < subset.size()) {
        choice[d] += 1;
        if (choice[d] < actions_[static_cast<std::size_t>(subset[d])].size()) break;
        choice[d] = 0;
        d += 1;
      }
      if (d == subset.size()) break;
    }
  }

  // --- ASYNC ---------------------------------------------------------------
  void async_successors(std::size_t slot) {
    load(slot);
    for (std::size_t i = 0; i < k_; ++i) {
      switch (robots(slot)[i].phase) {
        case McPhase::Idle: {
          // Look: one successor per distinct enabled behavior (stale-view
          // decisions are modeled by the delay before the later phases).
          match(i);
          for (const Action& a : actions_[i]) {
            McRobot& nr = robots(clone(slot))[i];
            nr.phase = McPhase::Decided;
            nr.pending_color = a.new_color;
            nr.pending_move = a.move.has_value() ? static_cast<std::int8_t>(*a.move) : -1;
          }
          break;
        }
        case McPhase::Decided: {  // Compute-end: color becomes visible.
          McRobot& nr = robots(clone(slot))[i];
          nr.color = nr.pending_color;
          nr.phase = McPhase::Colored;
          break;
        }
        case McPhase::Colored: {  // Move.
          const std::size_t next = clone(slot);
          McRobot& nr = robots(next)[i];
          if (nr.pending_move >= 0) {
            const std::optional<Vec> to = grid_.step(nr.pos, static_cast<Dir>(nr.pending_move));
            if (!to) throw std::logic_error("robot would leave the grid");
            nr.pos = *to;
          }
          nr.phase = McPhase::Idle;
          nr.pending_move = -1;
          nr.pending_color = nr.color;
          mark_visited(next);
          break;
        }
      }
    }
  }

  const Algorithm& alg_;
  std::shared_ptr<const CompiledAlgorithm> compiled_;
  const Grid& grid_;
  CheckModel model_;
  CheckOptions opts_;
  std::uint64_t full_mask_ = 0;  ///< one bit per reachable node: the coverage target
  std::size_t k_ = 0;            ///< robots per state
  CheckResult result_;

  StateTable table_;
  std::vector<Mark> marks_;          ///< by table id
  std::vector<std::uint64_t> key_;   ///< encode() output, table_.stride() words
  std::vector<Frame> stack_;
  std::vector<McRobot> pool_robots_;         ///< k_ robots per pool slot
  std::vector<std::uint64_t> pool_visited_;  ///< visited-node mask per pool slot

  Configuration config_;       ///< the state being expanded, reloaded in place
  std::vector<Robot> placed_;  ///< load() scratch, k_ robots
  Snapshot snap_;
  std::vector<std::vector<Action>> actions_;  ///< per robot, reused across states
};

}  // namespace

CheckResult model_check(const Algorithm& alg, const Grid& grid, CheckModel model,
                        const CheckOptions& opts) {
  Checker checker(alg, grid, model, opts);
  return checker.run();
}

std::string CheckResult::to_string() const {
  std::string out = ok ? "OK" : ("FAIL: " + failure);
  out += " (" + std::to_string(states) + " states, " + std::to_string(transitions) +
         " transitions, " + std::to_string(terminal_states) + " terminal)";
  if (!ok && !witness.empty()) {
    out += "\n  witness tail:";
    for (const std::string& w : witness) out += "\n    " + w;
  }
  return out;
}

}  // namespace lumi

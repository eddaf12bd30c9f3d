#include "src/analysis/impossibility.hpp"

#include <algorithm>
#include <array>
#include <span>
#include <stdexcept>
#include <vector>

#include "src/analysis/state_table.hpp"
#include "src/core/matching.hpp"

namespace lumi {

namespace {

/// Largest node index a game key can hold (14 bits per robot).
constexpr int kMaxGameNodes = 1 << 14;

struct Edge {
  int to = -1;
  std::uint32_t activated = 0;  ///< bitmask of robots acting on this edge
};

/// The SSYNC game graph of one algorithm on one grid, rebuilt per protected
/// target.  A node is an identity-preserving state, (pos, color) per robot:
/// identities matter for the per-robot fairness bookkeeping, so no
/// canonicalization here.  Node ids are StateTable ids (BFS order), and the
/// table's key array is the graph's flat state storage: 16 bits per robot
/// (node index << 2 | color), four robots to a word.  Edges are CSR: node v's
/// outgoing edges are edges_[edge_begin_[v], edge_begin_[v + 1]).
class Game {
 public:
  Game(const Algorithm& alg, const Grid& grid, long max_states)
      : alg_(alg), compiled_(CompiledAlgorithm::get(alg)), grid_(grid),
        max_states_(max_states), k_(alg.initial_robots.size()), config_(grid, {}),
        robots_(k_), next_(k_), actions_(k_), key_((k_ + 3) / 4) {}

  AdversaryResult solve(Vec target) {
    target_ = target;
    AdversaryResult result;
    result.protected_node = target_;

    for (std::size_t r = 0; r < k_; ++r) {
      const auto& [pos, color] = alg_.initial_robots[r];
      robots_[r] = Robot{pos, color};
    }
    if (occupies_target(robots_)) {
      result.summary = "initial configuration already occupies the target";
      return result;
    }
    config_.reset_robots(robots_);  // rejects off-grid placements
    table_.reset(key_.size());
    edges_.clear();
    edge_begin_.clear();
    enabled_mask_.clear();
    intern(config_.robots());  // the root, id 0
    // BFS expansion of the restricted graph (successors that keep the
    // target node unoccupied).
    for (std::int32_t i = 0; i < table_.size(); ++i) {
      if (table_.size() > max_states_) {
        result.summary = "state budget exhausted";
        result.states = table_.size();
        return result;
      }
      expand(i);
    }
    edge_begin_.push_back(edges_.size());
    result.states = table_.size();

    // (a) reachable terminal configuration?
    for (const std::uint32_t enabled : enabled_mask_) {
      if (enabled == 0) {
        result.adversary_wins = true;
        result.via_terminal = true;
        result.summary = "terminal configuration reachable while avoiding the target";
        return result;
      }
    }
    // (b) SCC with a fair cycle?
    if (fair_scc_exists(0)) {
      result.adversary_wins = true;
      result.via_fair_cycle = true;
      result.summary = "fair non-terminating schedule avoids the target forever";
      return result;
    }
    result.summary = "every fair SSYNC schedule eventually visits the target";
    return result;
  }

 private:
  bool occupies_target(std::span<const Robot> robots) const {
    for (const Robot& r : robots) {
      if (r.pos == target_) return true;
    }
    return false;
  }

  int intern(std::span<const Robot> robots) {
    std::fill(key_.begin(), key_.end(), 0);
    for (std::size_t r = 0; r < robots.size(); ++r) {
      const auto field = static_cast<std::uint64_t>(grid_.index(robots[r].pos)) << 2 |
                         static_cast<std::uint64_t>(robots[r].color);
      key_[r / 4] |= field << (16 * (r % 4));
    }
    return table_.intern(key_.data()).first;
  }

  /// Reads node `id`'s robots back from its key into robots_.
  void decode(std::int32_t id) {
    const std::uint64_t* key = table_.key(id);
    for (std::size_t r = 0; r < k_; ++r) {
      const auto field = static_cast<int>((key[r / 4] >> (16 * (r % 4))) & 0xFFFF);
      robots_[r] = Robot{grid_.node(field >> 2), static_cast<Color>(field & 3)};
    }
  }

  /// Computes node `id`'s enabled robots and appends its outgoing edges;
  /// nodes are expanded in id order, so each node's edges are contiguous.
  void expand(std::int32_t id) {
    decode(id);
    config_.reset_robots(robots_);
    std::uint32_t enabled_mask = 0;
    std::array<int, kMaxSearchRobots> enabled{};
    std::size_t n = 0;
    for (std::size_t r = 0; r < k_; ++r) {
      take_snapshot_into(config_, static_cast<int>(r), compiled_->phi(), snap_);
      enabled_actions_into(*compiled_, snap_, actions_[r]);
      if (!actions_[r].empty()) {
        enabled_mask |= 1u << r;
        enabled[n++] = static_cast<int>(r);
      }
    }
    enabled_mask_.push_back(enabled_mask);
    edge_begin_.push_back(edges_.size());
    // Every nonempty subset x every action-choice combination.
    for (std::uint64_t mask = 1; mask < (1ULL << n); ++mask) {
      std::array<int, kMaxSearchRobots> subset{};
      std::size_t m = 0;
      for (std::size_t b = 0; b < n; ++b) {
        if (mask & (1ULL << b)) subset[m++] = enabled[b];
      }
      std::array<std::size_t, kMaxSearchRobots> choice{};
      while (true) {
        std::copy(robots_.begin(), robots_.end(), next_.begin());
        std::uint32_t activated = 0;
        bool legal = true;
        for (std::size_t i = 0; i < m && legal; ++i) {
          const int robot = subset[i];
          const Action& a = actions_[static_cast<std::size_t>(robot)][choice[i]];
          Robot& r = next_[static_cast<std::size_t>(robot)];
          r.color = a.new_color;
          if (a.move.has_value()) {
            const std::optional<Vec> to = grid_.step(r.pos, *a.move);
            if (!to) {
              legal = false;
            } else {
              r.pos = *to;
            }
          }
          activated |= 1u << robot;
        }
        if (legal && !occupies_target(next_)) edges_.push_back(Edge{intern(next_), activated});
        std::size_t d = 0;
        while (d < m) {
          choice[d] += 1;
          if (choice[d] < actions_[static_cast<std::size_t>(subset[d])].size()) break;
          choice[d] = 0;
          d += 1;
        }
        if (d == m) break;
      }
    }
  }

  /// Tarjan SCCs over the restricted graph; a component admits a fair cycle
  /// iff it contains an edge (cycle exists) and every robot is activated on
  /// some internal edge or disabled in some member configuration.  Each
  /// component is judged as it is completed: every node it reaches outside
  /// itself already belongs to an earlier component.
  bool fair_scc_exists(int root) {
    const auto n = static_cast<std::size_t>(table_.size());
    index_.assign(n, -1);
    low_.assign(n, 0);
    comp_.assign(n, -1);
    on_stack_.assign(n, false);
    scc_stack_.clear();
    call_.clear();
    int next_index = 0;
    int next_comp = 0;

    call_.push_back({root, edge_begin_[static_cast<std::size_t>(root)]});
    index_[static_cast<std::size_t>(root)] = low_[static_cast<std::size_t>(root)] = next_index++;
    scc_stack_.push_back(root);
    on_stack_[static_cast<std::size_t>(root)] = true;

    while (!call_.empty()) {
      Frame& f = call_.back();
      const auto v = static_cast<std::size_t>(f.v);
      if (f.edge < edge_begin_[v + 1]) {
        const int w = edges_[f.edge].to;
        f.edge += 1;
        if (index_[static_cast<std::size_t>(w)] < 0) {
          index_[static_cast<std::size_t>(w)] = low_[static_cast<std::size_t>(w)] = next_index++;
          scc_stack_.push_back(w);
          on_stack_[static_cast<std::size_t>(w)] = true;
          call_.push_back({w, edge_begin_[static_cast<std::size_t>(w)]});
        } else if (on_stack_[static_cast<std::size_t>(w)]) {
          low_[v] = std::min(low_[v], index_[static_cast<std::size_t>(w)]);
        }
        continue;
      }
      if (low_[v] == index_[v]) {
        std::size_t first = scc_stack_.size();
        do {
          first -= 1;
          const auto w = static_cast<std::size_t>(scc_stack_[first]);
          on_stack_[w] = false;
          comp_[w] = next_comp;
        } while (scc_stack_[first] != f.v);
        if (fair(std::span(scc_stack_).subspan(first))) return true;
        scc_stack_.resize(first);
        next_comp += 1;
      }
      call_.pop_back();
      if (!call_.empty()) {
        const auto u = static_cast<std::size_t>(call_.back().v);
        low_[u] = std::min(low_[u], low_[v]);
      }
    }
    return false;
  }

  /// Whether the just-completed component `members` supports a fair cycle.
  bool fair(std::span<const int> members) const {
    const std::uint32_t all_robots = (1u << k_) - 1u;
    std::uint32_t activated = 0;
    std::uint32_t disabled_somewhere = 0;
    bool has_internal_edge = false;
    for (const int m : members) {
      const auto v = static_cast<std::size_t>(m);
      disabled_somewhere |= ~enabled_mask_[v] & all_robots;
      for (std::size_t e = edge_begin_[v]; e < edge_begin_[v + 1]; ++e) {
        if (comp_[static_cast<std::size_t>(edges_[e].to)] == comp_[v]) {
          has_internal_edge = true;
          activated |= edges_[e].activated;
        }
      }
    }
    return has_internal_edge && ((activated | disabled_somewhere) & all_robots) == all_robots;
  }

  struct Frame {
    int v;
    std::size_t edge;  ///< next edge of v to follow, an index into edges_
  };

  const Algorithm& alg_;
  std::shared_ptr<const CompiledAlgorithm> compiled_;
  const Grid& grid_;
  long max_states_;
  std::size_t k_;  ///< robots per state
  Vec target_;

  StateTable table_;                     ///< node id <-> packed robot states
  std::vector<Edge> edges_;              ///< CSR edge array
  std::vector<std::size_t> edge_begin_;  ///< per node, plus one past the last
  std::vector<std::uint32_t> enabled_mask_;  ///< per node; 0 = terminal

  Configuration config_;  ///< the node being expanded, reloaded in place
  Snapshot snap_;
  std::vector<Robot> robots_;                 ///< decode() output
  std::vector<Robot> next_;                   ///< the successor being built
  std::vector<std::vector<Action>> actions_;  ///< per robot, reused across nodes
  std::vector<std::uint64_t> key_;            ///< intern() scratch

  // Tarjan scratch, reused across targets.
  std::vector<int> index_, low_, comp_;
  std::vector<bool> on_stack_;
  std::vector<int> scc_stack_;
  std::vector<Frame> call_;
};

void check_game_size(const Algorithm& alg, const Grid& grid) {
  if (alg.num_robots() > 30) throw std::invalid_argument("too many robots for the game solver");
  if (grid.num_nodes() > kMaxGameNodes) {
    throw std::invalid_argument("game solver: grid too large (>16384 nodes)");
  }
}

}  // namespace

AdversaryResult check_protected_node(const Algorithm& alg, const Grid& grid, Vec target,
                                     const AdversaryOptions& opts) {
  check_game_size(alg, grid);
  Game game(alg, grid, opts.max_states);
  return game.solve(target);
}

AdversaryResult find_ssync_adversary(const Algorithm& alg, const Grid& grid,
                                     const AdversaryOptions& opts) {
  check_game_size(alg, grid);
  Game game(alg, grid, opts.max_states);
  AdversaryResult overall;
  for (int idx = 0; idx < grid.num_nodes(); ++idx) {
    if (!grid.is_node_index(idx)) continue;  // walls are not defensible nodes
    AdversaryResult r = game.solve(grid.node(idx));
    overall.states += r.states;
    if (r.adversary_wins) {
      r.states = overall.states;
      return r;
    }
  }
  overall.adversary_wins = false;
  overall.summary = "no node can be defended: every fair SSYNC schedule explores the grid";
  return overall;
}

}  // namespace lumi

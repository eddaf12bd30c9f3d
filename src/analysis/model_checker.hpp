// Exhaustive model checking of terminating exploration on small grids.
//
// For a given algorithm, grid and synchrony model, the checker enumerates
// *every* schedule the model admits (all FSYNC choice resolutions, all
// nonempty SSYNC activation subsets, all ASYNC Look/Compute/Move
// interleavings including stale-snapshot decisions) and verifies that every
// maximal execution terminates in a fully-explored configuration:
//   * no reachable cycle (a cycle would admit a fair non-terminating
//     schedule for these algorithms, where every enabled robot keeps acting),
//   * every terminal state has all nodes visited,
//   * no robot ever steps off the grid (engine-level exception).
// States carry the visited-node bitmask, so coverage is exact per path
// prefix; anonymous robots are canonicalized to collapse symmetric states.
//
// Representation (src/analysis/state_table.hpp): a state's key is one 15-bit
// field per robot (node, color, ASYNC phase, pending color and move), sorted,
// packed four to a u64, followed by the 64-bit visited word; the DFS interns
// it in an open-addressing StateTable.  Successors live in one pool with
// stack discipline and each state is matched by reloading one reusable
// Configuration, so a DFS step allocates nothing once the pool has grown.
// Grids are limited to 64 nodes (the visited word) and algorithms to 32
// robots; both limits throw std::invalid_argument.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/core/algorithm.hpp"
#include "src/core/grid.hpp"

namespace lumi {

enum class CheckModel : std::uint8_t { Fsync, Ssync, Async };

struct CheckOptions {
  long max_states = 4'000'000;
  /// Collect a witness path (state renderings) on failure.
  bool want_witness = true;
};

struct CheckResult {
  bool ok = false;
  long states = 0;            ///< distinct states visited
  long transitions = 0;
  long terminal_states = 0;
  std::string failure;        ///< empty when ok
  std::vector<std::string> witness;  ///< path to the failure, oldest first

  std::string to_string() const;
};

CheckResult model_check(const Algorithm& alg, const Grid& grid, CheckModel model,
                        const CheckOptions& opts = {});

}  // namespace lumi

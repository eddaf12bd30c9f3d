// Intern table for the exhaustive searches (model_checker.cpp and
// impossibility.cpp): an open-addressing hash table over fixed-stride packed
// state keys, mapping each distinct key to an int32 id.
//
// A key is `stride` u64 words packed by the caller; the stride follows from
// the robot count, so one table serves one search.  Keys are stored densely in
// insertion order and a key's id is its insertion index: the checker indexes
// its DFS colors by it, and the SSYNC game uses it as the BFS node number and
// reads a node's robots back from key(id) instead of keeping a second copy.
// Each slot holds a 32-bit hash tag next to id + 1, so a probe only touches
// the key words when the tags agree.  Nothing is allocated per insert beyond
// geometric growth, and reset() keeps the capacity for the next search.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

namespace lumi {

/// Bound on the robots of one search: sizes the inline subset, choice and
/// robot scratch arrays of both searches.
inline constexpr int kMaxSearchRobots = 32;

class StateTable {
 public:
  explicit StateTable(std::size_t stride = 1) { reset(stride); }

  /// Forgets every key and sets the key width; keeps the allocated storage.
  void reset(std::size_t stride) {
    stride_ = stride;
    keys_.clear();
    std::fill(slots_.begin(), slots_.end(), 0);
    size_ = 0;
  }

  std::size_t stride() const { return stride_; }
  std::int32_t size() const { return size_; }

  /// Looks `key` (stride() words) up and inserts it when absent.  Returns the
  /// key's id and whether this call inserted it; a new key's id is size()
  /// before the call.
  std::pair<std::int32_t, bool> intern(const std::uint64_t* key) {
    if (2 * (static_cast<std::size_t>(size_) + 1) > slots_.size()) grow();
    const std::uint64_t h = hash(key);
    const std::uint64_t tag = h >> 32;
    const std::size_t mask = slots_.size() - 1;
    for (std::size_t i = static_cast<std::size_t>(h) & mask;; i = (i + 1) & mask) {
      const std::uint64_t slot = slots_[i];
      if (slot == 0) {
        if (size_ == std::numeric_limits<std::int32_t>::max()) {
          throw std::length_error("StateTable: more than 2^31 - 1 states");
        }
        const std::int32_t id = size_++;
        keys_.insert(keys_.end(), key, key + stride_);
        slots_[i] = (tag << 32) | static_cast<std::uint64_t>(id + 1);
        return {id, true};
      }
      if ((slot >> 32) == tag) {
        const auto id = static_cast<std::int32_t>((slot & 0xFFFFFFFFULL) - 1);
        if (std::equal(key, key + stride_, this->key(id))) return {id, false};
      }
    }
  }

  /// The stride() words of the key with id `id` (valid until the next intern).
  const std::uint64_t* key(std::int32_t id) const {
    return keys_.data() + static_cast<std::size_t>(id) * stride_;
  }

 private:
  std::uint64_t hash(const std::uint64_t* key) const {
    std::uint64_t h = 0x9E3779B97F4A7C15ULL;
    for (std::size_t w = 0; w < stride_; ++w) {
      h = (h ^ key[w]) * 0xBF58476D1CE4E5B9ULL;
      h ^= h >> 31;
    }
    h *= 0x94D049BB133111EBULL;
    return h ^ (h >> 29);
  }

  /// Doubles the slot array (load factor stays at most 1/2) and re-inserts
  /// every stored key.
  void grow() {
    slots_.assign(std::max<std::size_t>(64, 2 * slots_.size()), 0);
    const std::size_t mask = slots_.size() - 1;
    for (std::int32_t id = 0; id < size_; ++id) {
      const std::uint64_t h = hash(key(id));
      std::size_t i = static_cast<std::size_t>(h) & mask;
      while (slots_[i] != 0) i = (i + 1) & mask;
      slots_[i] = ((h >> 32) << 32) | static_cast<std::uint64_t>(id + 1);
    }
  }

  std::size_t stride_ = 1;
  std::int32_t size_ = 0;
  std::vector<std::uint64_t> keys_;   ///< size_ * stride_ words, in id order
  std::vector<std::uint64_t> slots_;  ///< 0 = empty, else (hash tag << 32) | (id + 1)
};

}  // namespace lumi

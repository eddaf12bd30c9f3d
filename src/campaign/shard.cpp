#include "src/campaign/shard.hpp"

#include <cstdint>
#include <limits>
#include <stdexcept>

namespace lumi::campaign {

std::optional<ShardSpec> shard_from_string(const std::string& text) {
  const std::size_t slash = text.find('/');
  if (slash == std::string::npos) return std::nullopt;
  constexpr std::int64_t kMax = std::numeric_limits<unsigned>::max();
  const std::optional<std::int64_t> index = parse_integer(text.substr(0, slash), 0, kMax);
  const std::optional<std::int64_t> count = parse_integer(text.substr(slash + 1), 1, kMax);
  if (!index || !count || *index >= *count) return std::nullopt;
  return ShardSpec{static_cast<unsigned>(*index), static_cast<unsigned>(*count)};
}

std::string to_string(const ShardSpec& spec) {
  return std::to_string(spec.index) + "/" + std::to_string(spec.count);
}

Expansion shard(const Expansion& full, const ShardSpec& spec) {
  if (spec.count == 0) throw std::invalid_argument("shard: count must be positive");
  if (spec.index >= spec.count) throw std::invalid_argument("shard: index out of range");
  Expansion out;
  out.cells = full.cells;
  out.options = full.options;
  for (std::size_t j = spec.index; j < full.jobs.size(); j += spec.count) {
    out.jobs.push_back(full.jobs[j]);
  }
  return out;
}

}  // namespace lumi::campaign

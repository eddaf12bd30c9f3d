#include "src/campaign/shard.hpp"

#include <stdexcept>
#include <string_view>

#include "src/core/text.hpp"

namespace lumi::campaign {

std::optional<ShardSpec> shard_from_string(const std::string& text) {
  const std::size_t slash = text.find('/');
  if (slash == std::string::npos) return std::nullopt;
  const std::string_view spelling = text;
  ShardSpec out;
  if (!text::parse_integer_into(spelling.substr(0, slash), out.index) ||
      !text::parse_integer_into(spelling.substr(slash + 1), out.count, 1) ||
      out.index >= out.count) {
    return std::nullopt;
  }
  return out;
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

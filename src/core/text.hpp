// The one reader behind every text format taken from outside: the algorithm
// DSL, topology specs, checkpoint v2, `.lumirec` recordings and the CLIs'
// numeric flags share its integer grammar, 16-hex-digit hashes, %XX token
// codec and numbered line reader (docs/FORMATS.md#numbers-and-tokens), and
// the checkpoint and recording writers share its atomic file writer.  A
// bottom-layer module: any layer may include it, and it includes nothing of
// the repo.  lumi-lint's raw-int-parse rule keeps other integer parsers out.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace lumi::text {

/// Strict base-10 integer parse of a whole string: an optional leading '-'
/// then digits only — no '+', whitespace, empty digit string or trailing
/// garbage.  std::nullopt when malformed or outside [min, max]; overflow is
/// detected, never wrapped.
std::optional<std::int64_t> parse_integer(std::string_view text, std::int64_t min,
                                          std::int64_t max);

/// parse_integer into an integer of type T, with [min, max] clamped to T's
/// range: true and `out` written on success, false and `out` untouched on
/// malformed or out-of-range text.
template <typename T>
bool parse_integer_into(std::string_view text, T& out, std::int64_t min = 0,
                        std::int64_t max = std::numeric_limits<std::int64_t>::max()) {
  using Limits = std::numeric_limits<T>;
  if (std::cmp_less(min, Limits::min())) min = static_cast<std::int64_t>(Limits::min());
  if (std::cmp_greater(max, Limits::max())) max = static_cast<std::int64_t>(Limits::max());
  const std::optional<std::int64_t> v = parse_integer(text, min, max);
  if (v) out = static_cast<T>(*v);
  return v.has_value();
}

/// Exactly 16 hex digits, either case; std::nullopt otherwise.
std::optional<std::uint64_t> parse_hex64(std::string_view text);
/// 16 lowercase hex digits.
std::string format_hex64(std::uint64_t value);

/// One space-free token for any string: '%' and every byte outside 0x21..0x7e
/// become '%' plus two uppercase hex digits; the empty string is a bare "%".
std::string encode_token(std::string_view s);
/// Inverse of encode_token, accepting either hex case; std::nullopt on a
/// truncated or non-hex escape.
std::optional<std::string> decode_token(std::string_view token);

/// Writes `bytes` to `path + ".tmp"` and renames it onto `path`, so a reader
/// sees the old file or the new one, never a torn write.  False when the
/// write or the rename fails; the temporary is then removed.
bool write_file_atomic(const std::string& path, std::string_view bytes);

/// Numbered lines of a text that must outlive the reader.  A trailing '\r'
/// is dropped; every failure throws std::runtime_error
/// "<format>: line N: <what>", quoting the offending token or line.
class LineReader {
 public:
  LineReader(std::string_view text, std::string format);

  /// Consumes the next line; false at end of input.
  bool next(std::string_view& line);
  /// Consumes the next line; end of input fails naming `wanted`.
  std::string_view line(std::string_view wanted);
  /// Whether the next line is `key`, alone or followed by a space.
  bool peek_is(std::string_view key) const;
  /// Consumes the next line, which must be `key` alone (no fields) or `key`
  /// and a space, and splits the rest on single spaces.  The views last
  /// until the next call.
  const std::vector<std::string_view>& fields(std::string_view key);
  const std::vector<std::string_view>& fields(std::string_view key, std::size_t n) {
    fields(key);
    require_fields(n);
    return fields_;
  }
  /// Fails unless the last fields() call split exactly `n` fields.
  void require_fields(std::size_t n) const;

  /// `token` as a T in [min, max] (clamped to T's range), or fail.
  template <typename T>
  T integer(std::string_view token, std::string_view what,
            std::int64_t min = std::numeric_limits<std::int64_t>::min(),
            std::int64_t max = std::numeric_limits<std::int64_t>::max()) const {
    T out{};
    if (!parse_integer_into(token, out, min, max)) bad(what, token);
    return out;
  }
  /// A count of records of `lines_per_item` lines each; it sizes an
  /// allocation, so it fails unless the rest of the input can hold them.
  std::size_t count(std::string_view token, std::string_view what,
                    std::size_t lines_per_item = 1) const;
  std::uint64_t hex64(std::string_view token, std::string_view what) const;
  std::string token(std::string_view field, std::string_view what) const;

  int lineno() const { return lineno_; }  ///< 1-based; 0 before the first line
  [[noreturn]] void fail(const std::string& what) const;
  /// fail("bad <what> '<token>'").
  [[noreturn]] void bad(std::string_view what, std::string_view token) const;

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
  int lineno_ = 0;
  std::string format_;
  std::string_view line_;  ///< the line fields() last split
  std::vector<std::string_view> fields_;
};

}  // namespace lumi::text

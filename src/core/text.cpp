#include "src/core/text.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace lumi::text {

namespace {

constexpr char kLowerHex[] = "0123456789abcdef";
constexpr char kUpperHex[] = "0123456789ABCDEF";

int hex_value(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

std::optional<std::int64_t> parse_integer(std::string_view text, std::int64_t min,
                                          std::int64_t max) {
  const bool negative = !text.empty() && text[0] == '-';
  if (negative && min >= 0) return std::nullopt;
  std::size_t i = negative ? 1 : 0;
  if (i == text.size()) return std::nullopt;
  // The magnitude is bounded before every multiply, so no digit string can
  // overflow the accumulator whatever its length.
  const std::uint64_t limit = negative ? 0 - static_cast<std::uint64_t>(min)
                                       : static_cast<std::uint64_t>(std::max<std::int64_t>(max, 0));
  std::uint64_t v = 0;
  for (; i < text.size(); ++i) {
    if (text[i] < '0' || text[i] > '9') return std::nullopt;
    const auto digit = static_cast<std::uint64_t>(text[i] - '0');
    if (digit > limit || v > (limit - digit) / 10) return std::nullopt;
    v = v * 10 + digit;
  }
  // -(v - 1) - 1 reaches INT64_MIN without negating an out-of-range value.
  const std::int64_t value = !negative ? static_cast<std::int64_t>(v)
                             : v == 0  ? 0
                                       : -static_cast<std::int64_t>(v - 1) - 1;
  if (value < min || value > max) return std::nullopt;
  return value;
}

std::optional<std::uint64_t> parse_hex64(std::string_view text) {
  if (text.size() != 16) return std::nullopt;
  std::uint64_t v = 0;
  for (const char c : text) {
    const int digit = hex_value(c);
    if (digit < 0) return std::nullopt;
    v = v << 4 | static_cast<std::uint64_t>(digit);
  }
  return v;
}

std::string format_hex64(std::uint64_t value) {
  std::string out(16, '0');
  for (std::size_t i = 16; i-- > 0; value >>= 4) out[i] = kLowerHex[value & 0xf];
  return out;
}

std::string encode_token(std::string_view s) {
  if (s.empty()) return "%";
  std::string out;
  out.reserve(s.size());
  for (const char raw : s) {
    const auto c = static_cast<unsigned char>(raw);
    if (c != '%' && c > 0x20 && c < 0x7f) {
      out.push_back(raw);
    } else {
      out += {'%', kUpperHex[c >> 4], kUpperHex[c & 0xf]};
    }
  }
  return out;
}

std::optional<std::string> decode_token(std::string_view token) {
  if (token == "%") return std::string();
  std::string out;
  out.reserve(token.size());
  for (std::size_t i = 0; i < token.size(); ++i) {
    if (token[i] != '%') {
      out.push_back(token[i]);
      continue;
    }
    if (i + 2 >= token.size()) return std::nullopt;
    const int hi = hex_value(token[i + 1]);
    const int lo = hex_value(token[i + 2]);
    if (hi < 0 || lo < 0) return std::nullopt;
    out.push_back(static_cast<char>(hi * 16 + lo));
    i += 2;
  }
  return out;
}

bool write_file_atomic(const std::string& path, std::string_view bytes) {
  const std::string tmp = path + ".tmp";
  std::FILE* out = std::fopen(tmp.c_str(), "wb");
  if (out == nullptr) return false;
  const bool written = std::fwrite(bytes.data(), 1, bytes.size(), out) == bytes.size();
  if (std::fclose(out) == 0 && written && std::rename(tmp.c_str(), path.c_str()) == 0) {
    return true;
  }
  std::remove(tmp.c_str());
  return false;
}

LineReader::LineReader(std::string_view text, std::string format)
    : text_(text), format_(std::move(format)) {}

bool LineReader::next(std::string_view& line) {
  if (pos_ == text_.size()) return false;
  const std::size_t stop = std::min(text_.find('\n', pos_), text_.size());
  line = text_.substr(pos_, stop - pos_);
  if (line.ends_with('\r')) line.remove_suffix(1);
  pos_ = std::min(stop + 1, text_.size());
  ++lineno_;
  return true;
}

std::string_view LineReader::line(std::string_view wanted) {
  std::string_view out;
  if (next(out)) return out;
  ++lineno_;
  fail("unexpected end of file, wanted '" + std::string(wanted) + "'");
}

bool LineReader::peek_is(std::string_view key) const {
  const std::string_view rest = text_.substr(pos_);
  const char after = rest.size() > key.size() ? rest[key.size()] : '\n';
  return rest.starts_with(key) && (after == ' ' || after == '\r' || after == '\n');
}

const std::vector<std::string_view>& LineReader::fields(std::string_view key) {
  line_ = line(key);
  fields_.clear();
  if (line_ == key) return fields_;
  if (!line_.starts_with(key) || line_[key.size()] != ' ') {
    fail("expected '" + std::string(key) + " ...', got '" + std::string(line_) + "'");
  }
  std::string_view rest = line_.substr(key.size() + 1);
  for (std::size_t space = 0; (space = rest.find(' ')) != std::string_view::npos;) {
    fields_.push_back(rest.substr(0, space));
    rest.remove_prefix(space + 1);
  }
  fields_.push_back(rest);
  return fields_;
}

void LineReader::require_fields(std::size_t n) const {
  if (fields_.size() != n) {
    fail("expected " + std::to_string(n) + " fields, got " + std::to_string(fields_.size()) +
         " in '" + std::string(line_) + "'");
  }
}

std::size_t LineReader::count(std::string_view token, std::string_view what,
                              std::size_t lines_per_item) const {
  // Every line of a record takes at least its newline.
  const auto n = integer<std::size_t>(token, what, 0);
  if (n > (text_.size() - pos_) / lines_per_item) {
    fail(std::string(what) + " '" + std::string(token) + "' exceeds the " +
         std::to_string(text_.size() - pos_) + " bytes left");
  }
  return n;
}

std::uint64_t LineReader::hex64(std::string_view token, std::string_view what) const {
  const std::optional<std::uint64_t> v = parse_hex64(token);
  if (!v) bad(what, token);
  return *v;
}

std::string LineReader::token(std::string_view field, std::string_view what) const {
  std::optional<std::string> out = decode_token(field);
  if (!out) bad(what, field);
  return std::move(*out);
}

void LineReader::fail(const std::string& what) const {
  throw std::runtime_error(format_ + ": line " + std::to_string(lineno_) + ": " + what);
}

void LineReader::bad(std::string_view what, std::string_view token) const {
  fail("bad " + std::string(what) + " '" + std::string(token) + "'");
}

}  // namespace lumi::text

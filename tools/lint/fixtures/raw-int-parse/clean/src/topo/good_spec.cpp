// Fixture: a grammar parsing its integers through the shared reader; the
// names in this comment ("std::stoi", strtoul) are not code.
#include <string_view>
#include "src/core/text.hpp"
bool percent(std::string_view s, int& out) { return lumi::text::parse_integer_into(s, out, 0, 90); }

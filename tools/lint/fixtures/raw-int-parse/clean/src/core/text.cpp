// Fixture: the one file allowed to name the C library parsers.
#include <cstdlib>
long long raw(const char* s) { return std::strtoll(s, nullptr, 10); }

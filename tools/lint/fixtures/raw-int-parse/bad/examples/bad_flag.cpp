// Fixture: a CLI flag through atoi — "-1" or "abc" run silently.
#include <cstdlib>
int rows(const char* v) { return std::atoi(v); }

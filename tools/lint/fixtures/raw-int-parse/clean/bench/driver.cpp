// Fixture: benches parse their own flags; the rule scopes to src/ and examples/.
#include <cstdlib>
int iterations(const char* v) { return std::atoi(v); }

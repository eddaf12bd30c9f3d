// Fixture: a format reader parsing its own integers — "12junk" reads as 12.
#include <string>
long long field(const std::string& s) { return std::stoll(s); }

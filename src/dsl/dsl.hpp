// Human-readable text format for algorithms, so rule sets can be authored,
// versioned and diffed outside C++.  Grammar (one declaration per line, `#`
// comments):
//
//   algorithm <name>
//   section <paper-section>
//   model fsync|ssync|async
//   phi 1|2
//   colors <count>
//   chirality common|none
//   min-grid <rows> <cols>
//   init (<row>,<col>)=<color> ...
//   rule <label> self=<color> [<cell>=<pattern> ...] -> <color>,<move>
//
// with <cell> in {C,N,E,S,W,NN,EE,SS,WW,NE,SE,SW,NW}, <pattern> in
// {empty, wall, gray, any, {G,W,...}}, <move> in {N,E,S,W,Idle}.  Cells not
// listed default to gray (no robot there); C accepts only a multiset.
// Integers follow the shared grammar of docs/FORMATS.md#numbers-and-tokens.
#pragma once

#include <string>

#include "src/core/algorithm.hpp"

namespace lumi::dsl {

std::string serialize(const Algorithm& alg);

struct ParseOptions {
  /// Run Algorithm::validate() on the result (shallow structural checks).
  /// Off is what lets deliberately defective rule tables — the analyzer's
  /// lint fixtures — be loaded and handed to analysis::analyze at all.
  bool validate = true;
  /// Additionally require the parsed table to pass the semantic rule-table
  /// analyzer (analysis::require_well_formed): no determinism conflicts,
  /// ambiguous moves, dead rules, color-flow errors or wall hazards.
  bool strict = false;
};

/// Parses the format above; throws std::invalid_argument naming the line and
/// quoting the offending token on malformed input.  Lines may end in CRLF or
/// trailing whitespace.  Checks applied to the result follow `opts`.
Algorithm parse(const std::string& text, const ParseOptions& opts);

/// parse(text, ParseOptions{}) — validated, non-strict.
Algorithm parse(const std::string& text);

}  // namespace lumi::dsl

// The shipped formula registry: every formulas/*.pltl file is embedded
// into the library at build time (cmake/embed_pltl.cmake), so the
// requirements R1–R3 and S2 exist as exactly one text each, consumed
// by the streaming monitor (eval.hpp), the model-checking lowering
// (models/formula_check.hpp), and the chaos/mission stack. A build-
// time parse check (pltl_check) fails the build on a grammar or
// vocabulary regression in any shipped file.
#pragma once

#include <string_view>
#include <vector>

#include "rv/pltl/eval.hpp"

namespace ahb::rv::pltl {

struct ShippedFormula {
  std::string_view name;  ///< file stem: "r1", "r2", "r3", "s2", ...
  std::string_view text;  ///< full file contents (comments included)
};

/// All embedded formula files, sorted by name.
const std::vector<ShippedFormula>& shipped_formulas();

/// Lookup by name; nullptr if absent.
const ShippedFormula* find_shipped(std::string_view name);

/// The parsed AST of the shipped formula whose full text is `text`, or
/// nullptr. Every shipped file is parsed once per process, so a run
/// that attaches the shipped formulas only compiles them.
const Node* shipped_ast(std::string_view text);

/// The requirement number a shipped formula's violations carry
/// (r1/r1_watchdog -> 1, r2 -> 2, r3 -> 3, s2 -> 4); 0 for names
/// without a conventional number.
int shipped_requirement(std::string_view name);

/// The specs a campaign/mission attaches next to the hand-written
/// monitors: r1, r2, r3, and s2 (r1_watchdog is the model-checking
/// variant and is not part of the runtime set).
std::vector<FormulaSpec> shipped_monitor_specs();

}  // namespace ahb::rv::pltl

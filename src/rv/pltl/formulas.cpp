#include "rv/pltl/formulas.hpp"

namespace ahb::rv::pltl {
namespace {

constexpr ShippedFormula kShipped[] = {
#include "pltl_formulas_embed.inc"
};

}  // namespace

const std::vector<ShippedFormula>& shipped_formulas() {
  static const std::vector<ShippedFormula> all(std::begin(kShipped),
                                               std::end(kShipped));
  return all;
}

const ShippedFormula* find_shipped(std::string_view name) {
  for (const auto& formula : shipped_formulas()) {
    if (formula.name == name) return &formula;
  }
  return nullptr;
}

const Node* shipped_ast(std::string_view text) {
  static const std::vector<NodePtr> asts = [] {
    std::vector<NodePtr> parsed;
    // A file that fails to parse stays null here and is re-parsed, and
    // reported, by whoever attaches it.
    for (const auto& formula : shipped_formulas()) {
      parsed.push_back(parse(formula.text).formula);
    }
    return parsed;
  }();
  const auto& all = shipped_formulas();
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (all[i].text == text) return asts[i].get();
  }
  return nullptr;
}

int shipped_requirement(std::string_view name) {
  if (name == "r1" || name == "r1_watchdog") return 1;
  if (name == "r2") return 2;
  if (name == "r3") return 3;
  if (name == "s2") return 4;
  return 0;
}

std::vector<FormulaSpec> shipped_monitor_specs() {
  std::vector<FormulaSpec> specs;
  for (const std::string_view name : {"r1", "r2", "r3", "s2"}) {
    const ShippedFormula* formula = find_shipped(name);
    if (formula == nullptr) continue;  // pltl_check guarantees presence
    specs.push_back(FormulaSpec{std::string{formula->name},
                                std::string{formula->text},
                                shipped_requirement(name)});
  }
  return specs;
}

}  // namespace ahb::rv::pltl

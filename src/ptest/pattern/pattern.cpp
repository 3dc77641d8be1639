#include "ptest/pattern/pattern.hpp"

namespace ptest::pattern {

std::vector<TestPattern> MergedPattern::project_all() const {
  std::vector<TestPattern> out;
  for (const MergedElement& e : elements) {
    if (e.slot >= out.size()) out.resize(std::size_t{e.slot} + 1);
    out[e.slot].symbols.push_back(e.symbol);
  }
  return out;
}

std::string MergedPattern::render(const pfa::Alphabet& alphabet) const {
  std::string out;
  for (std::size_t i = 0; i < elements.size(); ++i) {
    if (i != 0) out += ' ';
    out += std::to_string(elements[i].slot);
    out += ':';
    out += alphabet.name(elements[i].symbol);
  }
  return out;
}

}  // namespace ptest::pattern

#include "ptest/pattern/generator.hpp"

namespace ptest::pattern {

void PatternGenerator::generate_into(pfa::WalkScratch& scratch,
                                     TestPattern& out) {
  pfa::WalkOptions walk_options;
  walk_options.size = options_.size;
  walk_options.complete_to_accept = options_.complete_to_accept;
  walk_options.restart_at_accept = options_.restart_at_accept;
  walk_options.max_size = options_.max_size;
  const pfa::Walk& walk = pfa_->sample_into(scratch, rng_, walk_options);
  out.symbols.assign(walk.symbols.begin(), walk.symbols.end());
  out.edges.assign(walk.edges.begin(), walk.edges.end());
  out.probability = walk.probability;
}

void PatternGenerator::generate_into(std::size_t count,
                                     pfa::WalkScratch& scratch,
                                     std::vector<TestPattern>& out) {
  out.resize(count);
  for (TestPattern& pattern : out) generate_into(scratch, pattern);
}

TestPattern PatternGenerator::generate() {
  pfa::WalkScratch scratch;
  TestPattern pattern;
  generate_into(scratch, pattern);
  return pattern;
}

std::vector<TestPattern> PatternGenerator::generate(std::size_t count) {
  pfa::WalkScratch scratch;
  std::vector<TestPattern> patterns;
  generate_into(count, scratch, patterns);
  return patterns;
}

}  // namespace ptest::pattern

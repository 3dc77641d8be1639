// PatternGenerator — Algorithm 2 of the paper.
//
// Wraps a Pfa and samples TestPatterns: PatternGenerator(RE, PD, s) in the
// paper becomes construction from (regex, distribution spec) and
// generate() calls.  The generator owns a forked Rng stream so pattern
// sampling is independent of other random consumers in a session.
#pragma once

#include <vector>

#include "ptest/pattern/pattern.hpp"
#include "ptest/pfa/pfa.hpp"
#include "ptest/support/rng.hpp"

namespace ptest::pattern {

struct GeneratorOptions {
  /// The paper's `s`: target pattern size in services.
  std::size_t size = 8;
  /// Finish each pattern at an accepting state (legal lifecycle).
  bool complete_to_accept = true;
  /// Restart lifecycles until `size` is reached (stress churn mode).
  bool restart_at_accept = false;
  std::size_t max_size = 1024;
};

class PatternGenerator {
 public:
  PatternGenerator(const pfa::Pfa& pfa, GeneratorOptions options,
                   support::Rng rng)
      : pfa_(&pfa), options_(options), rng_(rng) {}

  /// Samples one pattern through the caller's scratch into `out`,
  /// replacing its symbols and edges in their existing buffers (the
  /// primary hot path: a warm call allocates nothing).
  void generate_into(pfa::WalkScratch& scratch, TestPattern& out);

  /// Samples `count` patterns into `out` (the paper's n-iteration loop in
  /// Algorithm 1, lines 1-3), resized to `count` and refilled in place.
  void generate_into(std::size_t count, pfa::WalkScratch& scratch,
                     std::vector<TestPattern>& out);

  /// Samples one pattern.  Thin wrapper allocating a throwaway scratch
  /// per call — prefer generate_into on hot paths.
  [[nodiscard]] TestPattern generate();

  /// Samples `count` patterns via a call-local scratch (thin wrapper;
  /// prefer generate_into on hot paths).
  [[nodiscard]] std::vector<TestPattern> generate(std::size_t count);

 private:
  const pfa::Pfa* pfa_;
  GeneratorOptions options_;
  support::Rng rng_;
};

}  // namespace ptest::pattern

#include "ptest/core/test_plan.hpp"

#include "ptest/bridge/protocol.hpp"
#include "ptest/obs/trace.hpp"

namespace ptest::core {

CompiledTestPlanPtr compile(const PtestConfig& config,
                            const pfa::Alphabet& alphabet) {
  return compile_with_spec(config, std::nullopt, alphabet);
}

CompiledTestPlanPtr compile_with_spec(
    const PtestConfig& config, std::optional<pfa::DistributionSpec> spec,
    const pfa::Alphabet& alphabet) {
  // Every compile funnels through here (campaign arms, guided
  // recompile, the one-shot adaptive_test), so this one span covers
  // them all.
  PTEST_OBS_SPAN("compile");
  auto plan = std::make_shared<CompiledTestPlan>();
  plan->config = config;
  plan->alphabet = alphabet;
  bridge::intern_service_alphabet(plan->alphabet);
  plan->regex = pfa::Regex::parse(config.regex, plan->alphabet);
  if (spec) {
    plan->spec = *std::move(spec);
  } else if (!config.distributions.empty()) {
    plan->spec =
        pfa::DistributionSpec::parse(config.distributions, plan->alphabet);
  }
  plan->pfa = pfa::Pfa::from_regex(plan->regex, plan->spec, plan->alphabet);

  plan->walk_options.size = config.s;
  plan->walk_options.complete_to_accept = config.complete_to_accept;
  plan->walk_options.restart_at_accept = config.restart_at_accept;

  plan->merger_options.op = config.op;
  // kCyclic chunks break at TC, TS and TR, so creates, suspends and
  // resumes are all full rotations (see MergerOptions).
  for (const char* name : {"TC", "TS", "TR"}) {
    plan->merger_options.cyclic_break_symbols.push_back(
        plan->alphabet.at(name));
  }
  return plan;
}

}  // namespace ptest::core

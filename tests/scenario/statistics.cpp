#include "scenario/statistics.hpp"

#include <cmath>
#include <stdexcept>
#include <vector>

namespace ptest::scenario {

namespace {

/// Acklam's rational approximation of the standard normal quantile
/// function (relative error < 1.15e-9 over (0,1)); dependency-free and
/// deterministic, which is all the critical-value computation needs.
double normal_quantile(double p) {
  if (!(p > 0.0 && p < 1.0)) {
    throw std::invalid_argument("normal_quantile: p must be in (0,1)");
  }
  static constexpr double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                                 -2.759285104469687e+02, 1.383577518672690e+02,
                                 -3.066479806614716e+01, 2.506628277459239e+00};
  static constexpr double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                                 -1.556989798598866e+02, 6.680131188771972e+01,
                                 -1.328068155288572e+01};
  static constexpr double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                                 -2.400758277161838e+00, -2.549732539343734e+00,
                                 4.374664141464968e+00,  2.938163982698783e+00};
  static constexpr double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                                 2.445134137142996e+00, 3.754408661907416e+00};
  constexpr double p_low = 0.02425;
  if (p < p_low) {
    const double q = std::sqrt(-2.0 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
            c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  if (p > 1.0 - p_low) {
    const double q = std::sqrt(-2.0 * std::log(1.0 - p));
    return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
             c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  const double q = p - 0.5;
  const double r = q * q;
  return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r +
          a[5]) *
         q /
         (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
}

}  // namespace

ChiSquareFit chi_square_fit(const core::CompiledTestPlan& plan,
                            std::uint64_t seed, std::size_t walks) {
  return chi_square_cross_fit(plan, plan, seed, walks);
}

ChiSquareFit chi_square_cross_fit(const core::CompiledTestPlan& sampler,
                                  const core::CompiledTestPlan& reference,
                                  std::uint64_t seed, std::size_t walks) {
  const pfa::Pfa& sampled = sampler.pfa;
  const pfa::Pfa& expected = reference.pfa;
  // Same-regex precondition, checked edge by edge: equal counts with
  // different symbols would silently pair unrelated multinomials.
  if (sampled.offsets() != expected.offsets() ||
      sampled.flat_symbols() != expected.flat_symbols()) {
    throw std::invalid_argument(
        "chi_square_cross_fit: plans have different automaton skeletons");
  }

  // counts[flat transition index], the index each walk records per symbol.
  std::vector<std::size_t> counts(sampled.flat_symbols().size(), 0);
  support::Rng rng(seed);

  ChiSquareFit fit;
  fit.walks = walks;
  pfa::WalkScratch scratch;  // tally loops are exactly the reuse hot path
  pfa::Walk sample;
  for (std::size_t w = 0; w < walks; ++w) {
    sampled.sample_into(sample, scratch, rng, sampler.walk_options);
    // Beyond config.s symbols the sampler steers toward acceptance and no
    // longer draws with P — only the unsteered prefix is a fair tally.
    const std::size_t fair = std::min(sample.edges.size(), sampler.config.s);
    for (std::size_t i = 0; i < fair; ++i) ++counts[sample.edges[i]];
    fit.transitions += fair;
  }

  const std::vector<std::uint32_t>& offsets = expected.offsets();
  const std::vector<double>& probabilities = expected.flat_probabilities();
  for (std::size_t s = 0; s + 1 < offsets.size(); ++s) {
    const std::uint32_t begin = offsets[s];
    const std::uint32_t end = offsets[s + 1];
    if (end - begin < 2) continue;  // forced draw: no freedom
    std::size_t visits = 0;
    for (std::uint32_t e = begin; e < end; ++e) visits += counts[e];
    if (visits == 0) continue;
    bool sufficient = true;
    for (std::uint32_t e = begin; e < end; ++e) {
      if (static_cast<double>(visits) * probabilities[e] < 5.0) {
        sufficient = false;
        break;
      }
    }
    if (!sufficient) {
      ++fit.states_skipped;
      continue;
    }
    for (std::uint32_t e = begin; e < end; ++e) {
      const double expected_count =
          static_cast<double>(visits) * probabilities[e];
      const double delta = static_cast<double>(counts[e]) - expected_count;
      fit.statistic += delta * delta / expected_count;
    }
    fit.degrees_of_freedom += end - begin - 1;
  }
  return fit;
}

double chi_square_critical(std::size_t df, double alpha) {
  if (df == 0) return 0.0;
  if (!(alpha > 0.0 && alpha < 1.0)) {
    throw std::invalid_argument("chi_square_critical: alpha must be in (0,1)");
  }
  // Wilson–Hilferty: (X/df)^(1/3) is approximately normal with mean
  // 1 - 2/(9 df) and variance 2/(9 df).
  const double n = static_cast<double>(df);
  const double z = normal_quantile(1.0 - alpha);
  const double term = 1.0 - 2.0 / (9.0 * n) + z * std::sqrt(2.0 / (9.0 * n));
  return n * term * term * term;
}

}  // namespace ptest::scenario

// main() of the bench_parallel_campaign binary: the harness CLI, plus
// the --scaling mode defined in bench_parallel_campaign.cpp.  bench_all
// links the suite under the shared bench_main.cpp and has no such mode.
#include <string_view>

#include "harness.hpp"

namespace ptest::bench {
int parallel_scaling(int argc, char** argv);
}  // namespace ptest::bench

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--scaling") {
      return ptest::bench::parallel_scaling(argc, argv);
    }
  }
  return ptest::bench::run_main(argc, argv);
}

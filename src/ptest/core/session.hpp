// A test session wires the whole master-slave stack together:
//
//   Soc (clock, SRAM, mailboxes)
//    ├─ MasterScheduler (ARM)  ── Committer thread ──┐
//    ├─ Committee (DSP bridge dispatcher)            │ bridge::Channel
//    ├─ PcoreKernel (DSP)      <─────────────────────┘
//    └─ BugDetector (observer, stepped last)
//
// and drives a merged pattern to completion, a bug, or the tick limit.
#pragma once

#include <functional>
#include <memory>
#include <optional>

#include "ptest/bridge/committee.hpp"
#include "ptest/core/bug_detector.hpp"
#include "ptest/core/config.hpp"
#include "ptest/core/state_record.hpp"
#include "ptest/master/scheduler.hpp"
#include "ptest/pattern/pattern.hpp"

namespace ptest::core {

enum class Outcome : std::uint8_t {
  kPassed = 0,   // pattern completed, all tasks terminated
  kBug,          // the detector filed a report
  kTickLimit,    // neither within max_ticks (treated as suspicious)
};

[[nodiscard]] const char* to_string(Outcome outcome) noexcept;

struct SessionStats {
  sim::Tick ticks = 0;
  std::size_t commands_issued = 0;
  std::size_t commands_acked = 0;
  std::size_t commands_failed = 0;
  std::uint64_t kernel_service_calls = 0;
  std::uint64_t context_switches = 0;
  std::uint64_t gc_runs = 0;
};

struct SessionResult {
  Outcome outcome = Outcome::kPassed;
  std::optional<BugReport> report;
  SessionStats stats;
};

/// Hook that prepares the kernel before the run: registers program
/// factories (config.program_id must resolve) and creates any mutexes /
/// shared state the workload needs.
using WorkloadSetup = std::function<void(pcore::PcoreKernel&)>;

class TestSession {
 public:
  /// `merged` is the pattern the committer will drive; `patterns` are the
  /// per-slot patterns (for CP records).  The session forks all randomness
  /// from config.seed.
  TestSession(const PtestConfig& config, const pfa::Alphabet& alphabet,
              pattern::MergedPattern merged,
              const std::vector<pattern::TestPattern>& patterns,
              const WorkloadSetup& setup);

  /// Runs to completion/bug/limit.  Call once: a filed report takes the
  /// detector's report and the merged pattern by move.
  SessionResult run();

  [[nodiscard]] sim::Soc& soc() noexcept { return *soc_; }
  [[nodiscard]] pcore::PcoreKernel& kernel() noexcept { return *kernel_; }
  [[nodiscard]] const StateRecorder& recorder() const noexcept {
    return *recorder_;
  }
  [[nodiscard]] const master::Committer& committer() const noexcept {
    return *committer_;
  }

 private:
  // The only config fields read after construction.
  std::uint64_t seed_;
  sim::Tick max_ticks_;
  const pfa::Alphabet* alphabet_;
  pattern::MergedPattern merged_;
  std::unique_ptr<sim::Soc> soc_;
  std::unique_ptr<pcore::PcoreKernel> kernel_;
  std::unique_ptr<bridge::Channel> channel_;
  std::unique_ptr<bridge::Committee> committee_;
  std::unique_ptr<master::MasterScheduler> master_;
  master::Committer* committer_ = nullptr;  // owned by master_
  std::unique_ptr<StateRecorder> recorder_;
  std::unique_ptr<BugDetector> detector_;
};

}  // namespace ptest::core

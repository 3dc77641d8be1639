// Reference oracle for the idle gates on the bridge and the master.
//
// ReferenceCommittee and ReferenceMaster below are the always-polling
// devices that the doorbell-gated bridge::Committee and the live-count
// master::MasterScheduler replaced: the committee drains its channel
// through take_command on every tick and keeps its unposted responses in
// a deque, and the master scans every thread for all_done() on every
// tick.  Every catalog scenario, bug and benign variant, runs over a seed
// sweep twice: once through run_traced (the production devices, on a
// kept SessionRig's warm load) and once wired as core/session.cpp wires
// it, with the reference devices in their place.  Both must agree on the
// session stats, the outcome, the report and the golden trace
// fingerprint.
//
// The reference wiring also carries a GateWitness around the reference
// committee: on every tick where the production gate would have returned
// early (no backlog, Channel::command_ready false), the polling committee
// must execute nothing, take no doorbell word and post no response.
//
// A session's committer posts at most one command per tick, so the sweep
// never leaves doorbell credits in hand across ticks.  A random-traffic
// test covers that: bursts of up to four commands and a master that
// stops taking responses for a while, which builds both credits and a
// response backlog, run against both committees side by side.
#include <gtest/gtest.h>

#include <deque>
#include <string>
#include <vector>

#include "core/reference_session.hpp"
#include "ptest/bridge/committee.hpp"
#include "ptest/core/bug_detector.hpp"
#include "ptest/master/committer.hpp"
#include "ptest/master/scheduler.hpp"
#include "ptest/pcore/programs.hpp"

namespace ptest::core {
namespace {

// --- the always-polling committee, kept as the oracle ---------------------

class ReferenceCommittee : public sim::Device {
 public:
  ReferenceCommittee(bridge::Channel& channel, pcore::PcoreKernel& kernel,
                     std::size_t commands_per_tick = 2)
      : channel_(&channel),
        kernel_(&kernel),
        commands_per_tick_(commands_per_tick) {}

  bool tick(sim::Soc& soc) override {
    // Flush backlog first (ordering!) before executing new commands.
    while (!backlog_.empty()) {
      if (!channel_->post_response(soc, backlog_.front())) return true;
      backlog_.pop_front();
    }
    for (std::size_t i = 0; i < commands_per_tick_; ++i) {
      const auto command = channel_->take_command(soc);
      if (!command) break;
      const bridge::Response response = execute(*command);
      if (!channel_->post_response(soc, response)) {
        backlog_.push_back(response);
      }
      if (kernel_->panicked()) break;
    }
    return true;
  }

  [[nodiscard]] std::uint64_t executed() const noexcept { return executed_; }
  [[nodiscard]] bool backlog_empty() const noexcept {
    return backlog_.empty();
  }

 private:
  bridge::Response execute(const bridge::Command& command) {
    bridge::Response response;
    response.seq = command.seq;
    response.task = command.task;

    pcore::Status status = pcore::Status::kOk;
    switch (command.service) {
      case bridge::Service::kTaskCreate: {
        pcore::TaskId assigned = pcore::kInvalidTask;
        status = kernel_->task_create(command.program_id, command.arg,
                                      command.priority, assigned);
        response.task = assigned;
        break;
      }
      case bridge::Service::kTaskDelete:
        status = kernel_->task_delete(command.task);
        break;
      case bridge::Service::kTaskSuspend:
        status = kernel_->task_suspend(command.task);
        break;
      case bridge::Service::kTaskResume:
        status = kernel_->task_resume(command.task);
        break;
      case bridge::Service::kTaskChanprio:
        status = kernel_->task_chanprio(command.task, command.priority);
        break;
      case bridge::Service::kTaskYield:
        status = kernel_->task_yield(command.task);
        break;
    }
    response.detail = static_cast<std::uint8_t>(status);
    if (kernel_->panicked()) {
      response.status = bridge::ResponseStatus::kPanic;
    } else if (status != pcore::Status::kOk) {
      response.status = bridge::ResponseStatus::kError;
    }
    ++executed_;
    return response;
  }

  bridge::Channel* channel_;
  pcore::PcoreKernel* kernel_;
  std::size_t commands_per_tick_;
  std::deque<bridge::Response> backlog_;
  std::uint64_t executed_ = 0;
};

// --- the scanning master scheduler, kept as the oracle --------------------

class ReferenceMaster : public sim::Device {
 public:
  explicit ReferenceMaster(bridge::Channel& channel, sim::Tick quantum = 4)
      : channel_(&channel), quantum_(quantum) {}

  void add(std::unique_ptr<master::MasterThread> thread) {
    threads_.push_back({std::move(thread), false});
  }

  [[nodiscard]] bool all_done() const noexcept {
    for (const Entry& entry : threads_) {
      if (!entry.done) return false;
    }
    return true;
  }

  bool tick(sim::Soc& soc) override {
    if (threads_.empty() || all_done()) return true;
    if (threads_[current_].done) rotate();
    Entry& entry = threads_[current_];
    master::MasterContext ctx(soc, *channel_);
    const master::ThreadStep result = entry.thread->step(ctx);
    ++used_;
    switch (result) {
      case master::ThreadStep::kContinue:
        if (used_ >= quantum_) rotate();
        break;
      case master::ThreadStep::kWaiting:
        rotate();
        break;
      case master::ThreadStep::kDone:
        entry.done = true;
        soc.record(sim::TraceCategory::kMaster, sim::TraceCode::kThreadDone,
                   entry.thread->name());
        rotate();
        break;
    }
    return true;
  }

 private:
  struct Entry {
    std::unique_ptr<master::MasterThread> thread;
    bool done = false;
  };

  void rotate() {
    if (threads_.empty()) return;
    used_ = 0;
    for (std::size_t i = 1; i <= threads_.size(); ++i) {
      const std::size_t candidate = (current_ + i) % threads_.size();
      if (!threads_[candidate].done) {
        current_ = candidate;
        return;
      }
    }
  }

  bridge::Channel* channel_;
  sim::Tick quantum_;
  std::vector<Entry> threads_;
  std::size_t current_ = 0;
  sim::Tick used_ = 0;
};

// --- the gate contract -------------------------------------------------------

/// Attached twice, just before and just after the reference committee:
/// the first tick of each pair reads the gate and the committee's state,
/// the second counts the ticks the production gate skips (`quiet`) and
/// those on which the polling committee nevertheless changed something
/// (`missed`).
class GateWitness : public sim::Device {
 public:
  GateWitness(const bridge::Channel& channel,
              const ReferenceCommittee& committee)
      : channel_(&channel), committee_(&committee) {}

  bool tick(sim::Soc& soc) override {
    const State now = read(soc);
    if (!after_committee_) {
      gated_ = committee_->backlog_empty() && !channel_->command_ready(soc);
      before_ = now;
    } else if (gated_) {
      ++quiet_;
      if (!(now == before_)) ++missed_;
    }
    after_committee_ = !after_committee_;
    return true;
  }

  [[nodiscard]] std::size_t quiet() const noexcept { return quiet_; }
  [[nodiscard]] std::size_t missed() const noexcept { return missed_; }

 private:
  struct State {
    std::uint64_t executed = 0;
    std::uint64_t delivered = 0;
    std::uint64_t responses = 0;
    bool operator==(const State&) const = default;
  };

  [[nodiscard]] State read(const sim::Soc& soc) const {
    return {committee_->executed(),
            soc.mailboxes()
                .box(bridge::Channel::kCommandMailbox)
                .delivered_count(),
            channel_->responses_posted()};
  }

  const bridge::Channel* channel_;
  const ReferenceCommittee* committee_;
  State before_;
  bool after_committee_ = false;
  bool gated_ = false;
  std::size_t quiet_ = 0;
  std::size_t missed_ = 0;
};

// --- sessions ------------------------------------------------------------------

struct ReferenceRun {
  SessionResult result;
  std::uint64_t trace_hash = 0;
  std::size_t quiet_ticks = 0;
  std::size_t gate_misses = 0;
};

/// One session wired as core/session.cpp wires TestSession, with the
/// reference committee and master in place of the production ones.
ReferenceRun run_reference(const CompiledTestPlan& plan, std::uint64_t seed,
                           const WorkloadSetup& setup,
                           pfa::WalkScratch& scratch) {
  HandWiredSession session(plan, seed, setup, scratch);
  sim::Soc& soc = session.soc;
  ReferenceCommittee committee(session.channel, session.kernel);
  ReferenceMaster master(session.channel);
  master.add(std::move(session.owned_committer));
  BugDetector detector(session.config.detector, session.kernel,
                       session.committer, session.recorder);
  GateWitness witness(session.channel, committee);

  soc.attach(master);
  soc.attach(witness);
  soc.attach(committee);
  soc.attach(witness);
  soc.attach(session.kernel);
  soc.attach(detector);

  ReferenceRun run;
  run.result = session.file(detector, soc.run(session.config.max_ticks));
  run.trace_hash = scenario::trace_fingerprint(
      run.result, session.generated.merged, soc.trace());
  run.quiet_ticks = witness.quiet();
  run.gate_misses = witness.missed();
  return run;
}

constexpr std::uint64_t kSeedsPerVariant = 16;

struct SweepTotals {
  std::size_t sessions = 0;
  std::size_t bugs = 0;
  std::uint64_t ticks = 0;
  std::uint64_t quiet_ticks = 0;
};

void sweep_variant(const std::string& label, const PtestConfig& config,
                   const WorkloadSetup& setup, SweepTotals& totals) {
  const CompiledTestPlanPtr plan = compile(config);
  pfa::WalkScratch scratch;
  for (std::uint64_t run = 0; run < kSeedsPerVariant; ++run) {
    const std::uint64_t seed = support::derive_seed(config.seed, run);
    SCOPED_TRACE(label + " seed " + std::to_string(seed));
    const TracedRun production = run_traced(*plan, seed, setup, scratch);
    const ReferenceRun reference = run_reference(*plan, seed, setup, scratch);
    expect_same_session(production.result.session, reference.result,
                        plan->alphabet);
    EXPECT_EQ(production.trace_hash, reference.trace_hash);
    EXPECT_EQ(reference.gate_misses, 0u)
        << "the polling committee acted on a tick the gate skips";
    ++totals.sessions;
    totals.ticks += reference.result.stats.ticks;
    totals.quiet_ticks += reference.quiet_ticks;
    if (production.result.session.report) ++totals.bugs;
  }
}

TEST(IdleReferenceTest, CatalogSweepMatchesPollingDevices) {
  SweepTotals totals;
  for_each_catalog_variant([&](const CatalogVariant& variant) {
    sweep_variant(variant.label, variant.config, variant.setup, totals);
  });
  // The sweep must file reports and spend most ticks behind the gate.
  EXPECT_GT(totals.bugs, totals.sessions / 4);
  EXPECT_GT(totals.quiet_ticks, totals.ticks / 2);
}

// --- random channel traffic ----------------------------------------------

/// A Soc carrying only a channel, a committee of type C and a kernel,
/// stepped in session order (committee before kernel).
template <typename C>
struct Bridge {
  explicit Bridge(std::size_t commands_per_tick)
      : committee(channel, kernel, commands_per_tick) {
    kernel.register_program(1, [](std::uint32_t) {
      return pcore::Program{"idle", pcore::idle()};
    });
    soc.attach(committee);
    soc.attach(kernel);
  }

  sim::Soc soc;
  pcore::PcoreKernel kernel;
  bridge::Channel channel{soc};
  C committee;
};

struct Taken {
  std::uint32_t seq;
  bridge::ResponseStatus status;
  std::uint8_t detail;
  pcore::TaskId task;
  bool operator==(const Taken&) const = default;
};

TEST(IdleReferenceTest, RandomTrafficMatchesPollingCommittee) {
  constexpr bridge::Service kServices[] = {
      bridge::Service::kTaskCreate, bridge::Service::kTaskSuspend,
      bridge::Service::kTaskResume, bridge::Service::kTaskChanprio,
      bridge::Service::kTaskDelete};
  std::size_t backlogged_ticks = 0;
  std::size_t credit_ticks = 0;
  for (const std::size_t per_tick : {std::size_t{1}, std::size_t{2}}) {
    for (std::uint64_t seed = 1; seed <= 16; ++seed) {
      SCOPED_TRACE("per_tick " + std::to_string(per_tick) + " seed " +
                   std::to_string(seed));
      Bridge<bridge::Committee> production(per_tick);
      Bridge<ReferenceCommittee> reference(per_tick);
      support::Rng rng(seed);
      std::uint32_t seq = 0;
      bool master_listening = true;
      for (int tick = 0; tick < 2000; ++tick) {
        if (rng.chance(0.05)) master_listening = !master_listening;
        const std::uint64_t burst = rng.chance(0.3) ? rng.below(5) : 0;
        for (std::uint64_t i = 0; i < burst; ++i) {
          bridge::Command command;
          command.seq = seq++;
          command.service = kServices[rng.below(std::size(kServices))];
          command.task = static_cast<pcore::TaskId>(rng.below(6));
          command.priority = static_cast<pcore::Priority>(1 + rng.below(20));
          command.program_id = 1;
          ASSERT_EQ(production.channel.post_command(production.soc, command),
                    reference.channel.post_command(reference.soc, command));
        }
        if (master_listening) {
          std::vector<Taken> a;
          std::vector<Taken> b;
          while (const auto r = production.channel.take_response(
                     production.soc)) {
            a.push_back({r->seq, r->status, r->detail, r->task});
          }
          while (const auto r =
                     reference.channel.take_response(reference.soc)) {
            b.push_back({r->seq, r->status, r->detail, r->task});
          }
          ASSERT_EQ(a, b) << "tick " << tick;
        }
        backlogged_ticks += !reference.committee.backlog_empty();
        credit_ticks += reference.channel.command_ready(reference.soc) &&
                        !reference.soc.mailboxes()
                             .box(bridge::Channel::kCommandMailbox)
                             .pending(reference.soc.now());
        (void)production.soc.step();
        (void)reference.soc.step();
        ASSERT_EQ(production.committee.executed(),
                  reference.committee.executed())
            << "tick " << tick;
        ASSERT_EQ(production.channel.responses_posted(),
                  reference.channel.responses_posted())
            << "tick " << tick;
      }
      EXPECT_EQ(production.kernel.service_calls(),
                reference.kernel.service_calls());
      EXPECT_EQ(production.soc.trace().total_recorded(),
                reference.soc.trace().total_recorded());
    }
  }
  // The traffic must reach both states the session sweep cannot.
  EXPECT_GT(backlogged_ticks, 100u);
  EXPECT_GT(credit_ticks, 100u);
}

}  // namespace
}  // namespace ptest::core

#include "ptest/workload/fig1.hpp"

#include "ptest/pcore/co_task.hpp"

namespace ptest::workload {

namespace {

/// S1: x=1; while (y==1) yield; x=0; end.   (S2 swaps x and y.)
pcore::CoTask spin_body(std::size_t mine, std::size_t other) {
  pcore::TaskEnv env = co_await pcore::env();
  env.set_shared(mine, 1);  // a / f: set my flag
  co_await pcore::compute();
  while (env.shared(other) == 1) {  // b / g: spin while the other is up
    co_await pcore::yield();        // c / h
  }
  co_await pcore::compute();
  env.set_shared(mine, 0);  // d / i: lower my flag
  co_await pcore::compute();
  co_return 0;  // e / j
}

/// M1 / M2: wait `delay`, then remote_cmd(Resume, task), then end.
/// Reports kWaiting until the post lands, kContinue on the step that
/// posts, then takes the ack (so the response ring never backs up) and
/// reports kDone.
class ResumeThread final : public master::MasterThread {
 public:
  ResumeThread(pcore::TaskId task, sim::Tick delay)
      : task_(task), delay_(delay) {}

  [[nodiscard]] std::string name() const override { return "fig1-resume"; }

  master::ThreadStep step(master::MasterContext& ctx) override {
    if (posted_) {
      (void)ctx.channel().take_response(ctx.soc());
      return master::ThreadStep::kDone;
    }
    if (ctx.now() < delay_) return master::ThreadStep::kWaiting;
    bridge::Command command;
    command.seq = static_cast<std::uint32_t>(task_) + 1;
    command.service = bridge::Service::kTaskResume;
    command.task = task_;
    if (!ctx.channel().post_command(ctx.soc(), command)) {
      return master::ThreadStep::kWaiting;
    }
    posted_ = true;
    return master::ThreadStep::kContinue;
  }

 private:
  pcore::TaskId task_;
  sim::Tick delay_;
  bool posted_ = false;
};

}  // namespace

void register_fig1(pcore::PcoreKernel& kernel) {
  kernel.register_program(kFig1S1ProgramId, [](std::uint32_t) {
    return pcore::Program{"fig1-spin", spin_body(kFig1XIndex, kFig1YIndex)};
  });
  kernel.register_program(kFig1S2ProgramId, [](std::uint32_t) {
    return pcore::Program{"fig1-spin", spin_body(kFig1YIndex, kFig1XIndex)};
  });
}

Fig1Result run_fig1(const Fig1Options& options) {
  sim::Soc soc;
  pcore::PcoreKernel kernel;
  register_fig1(kernel);

  // Create S1 and S2 suspended (the paper's processes wait for Resume).
  pcore::TaskId s1 = pcore::kInvalidTask;
  pcore::TaskId s2 = pcore::kInvalidTask;
  if (kernel.task_create(kFig1S1ProgramId, 0, options.s1_priority, s1) !=
          pcore::Status::kOk ||
      kernel.task_create(kFig1S2ProgramId, 0, options.s2_priority, s2) !=
          pcore::Status::kOk) {
    throw std::runtime_error("fig1: task creation failed");
  }
  (void)kernel.task_suspend(s1);
  (void)kernel.task_suspend(s2);

  bridge::Channel channel(soc);
  bridge::Committee committee(channel, kernel);
  master::MasterScheduler master(channel, options.master_quantum);
  master.add(std::make_unique<ResumeThread>(s1, options.m1_delay));
  master.add(std::make_unique<ResumeThread>(s2, options.m2_delay));

  soc.attach(master);
  soc.attach(committee);
  soc.attach(kernel);

  Fig1Result result;
  result.ticks = soc.run(options.horizon);
  const auto alive = [&](pcore::TaskId t) {
    const auto state = kernel.tcb(t).state;
    return state != pcore::TaskState::kFree &&
           state != pcore::TaskState::kTerminated;
  };
  result.s1_steps = kernel.tcb(s1).steps;
  result.s2_steps = kernel.tcb(s2).steps;
  result.completed = !alive(s1) && !alive(s2);
  result.livelocked = alive(s1) && alive(s2);
  return result;
}

}  // namespace ptest::workload

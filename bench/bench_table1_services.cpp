// Paper Table I: pCore kernel services for task management.
// Regenerates the table with measured costs on the simulated platform:
// remote round-trip latency in virtual ticks (command post -> ack) through
// the pCore Bridge, plus host wall-clock per direct service call.
#include <cstdio>

#include "harness.hpp"
#include "ptest/bridge/committee.hpp"
#include "ptest/pcore/programs.hpp"

namespace {

using namespace ptest;

struct Stack {
  sim::Soc soc;
  pcore::PcoreKernel kernel;
  bridge::Channel channel{soc};
  bridge::Committee committee{channel, kernel};

  Stack() {
    kernel.register_program(1, [](std::uint32_t) {
      return pcore::Program{"idle", pcore::idle()};
    });
    soc.attach(committee);
    soc.attach(kernel);
  }

  /// Posts one command; returns ticks until its ack arrives.
  sim::Tick round_trip(bridge::Command command) {
    static std::uint32_t seq = 1;
    command.seq = seq++;
    const sim::Tick start = soc.now();
    if (!channel.post_command(soc, command)) return 0;
    for (int i = 0; i < 1000; ++i) {
      (void)soc.step();
      if (const auto response = channel.take_response(soc)) {
        return soc.now() - start;
      }
    }
    return 0;
  }
};

void print_table() {
  std::printf("=== Table I: pCore kernel services (simulated OMAP5912) ===\n");
  std::printf("%-14s | %-4s | %-34s | round-trip (ticks)\n", "service",
              "abbr", "description");

  Stack stack;
  bridge::Command tc;
  tc.service = bridge::Service::kTaskCreate;
  tc.priority = 5;
  tc.program_id = 1;
  const sim::Tick tc_ticks = stack.round_trip(tc);
  // The TC above left task 0 alive; reuse it for the rest.
  const auto one = [&](bridge::Service service, pcore::Priority priority) {
    bridge::Command command;
    command.service = service;
    command.task = 0;
    command.priority = priority;
    command.program_id = 1;
    return stack.round_trip(command);
  };
  const sim::Tick ts_ticks = one(bridge::Service::kTaskSuspend, 0);
  const sim::Tick tr_ticks = one(bridge::Service::kTaskResume, 0);
  const sim::Tick tch_ticks = one(bridge::Service::kTaskChanprio, 9);
  const sim::Tick ty_ticks = one(bridge::Service::kTaskYield, 0);
  // Recreate for TD.
  const sim::Tick tc2 = stack.round_trip(tc);
  (void)tc2;
  const sim::Tick td_ticks = one(bridge::Service::kTaskDelete, 0);

  const auto row = [](const char* name, const char* abbr, const char* desc,
                      sim::Tick ticks) {
    std::printf("%-14s | %-4s | %-34s | %llu\n", name, abbr, desc,
                static_cast<unsigned long long>(ticks));
  };
  row("task_create", "TC", "Create a task", tc_ticks);
  row("task_delete", "TD", "Delete a task", td_ticks);
  row("task_suspend", "TS", "Suspend a task", ts_ticks);
  row("task_resume", "TR", "Resume a task", tr_ticks);
  row("task_chanprio", "TCH", "Change the priority of a task", tch_ticks);
  row("task_yield", "TY", "Terminate the current running task", ty_ticks);
  std::printf("\n");
}

const int registered = [] {
  bench::register_report("table1_services", print_table);

  bench::register_benchmark(
      "table1_services/direct_create_delete", [](bench::Context& ctx) {
        pcore::PcoreKernel kernel;
        kernel.register_program(1, [](std::uint32_t) {
          return pcore::Program{"idle", pcore::idle()};
        });
        ctx.measure([&] {
          pcore::TaskId task = pcore::kInvalidTask;
          bench::do_not_optimize(kernel.task_create(1, 0, 5, task));
          bench::do_not_optimize(kernel.task_delete(task));
        });
      });

  bench::register_benchmark(
      "table1_services/direct_suspend_resume", [](bench::Context& ctx) {
        pcore::PcoreKernel kernel;
        kernel.register_program(1, [](std::uint32_t) {
          return pcore::Program{"idle", pcore::idle()};
        });
        pcore::TaskId task = pcore::kInvalidTask;
        (void)kernel.task_create(1, 0, 5, task);
        ctx.measure([&] {
          bench::do_not_optimize(kernel.task_suspend(task));
          bench::do_not_optimize(kernel.task_resume(task));
        });
      });

  bench::register_benchmark(
      "table1_services/remote_round_trip", [](bench::Context& ctx) {
        Stack stack;
        bridge::Command tc;
        tc.service = bridge::Service::kTaskCreate;
        tc.priority = 5;
        tc.program_id = 1;
        (void)stack.round_trip(tc);
        ctx.measure([&] {
          bridge::Command command;
          command.service = bridge::Service::kTaskChanprio;
          command.task = 0;
          command.priority = 7;
          bench::do_not_optimize(stack.round_trip(command));
        });
      });
  return 0;
}();

}  // namespace

#include "ptest/bridge/committee.hpp"

namespace ptest::bridge {

Response Committee::execute(const Command& command) {
  Response response;
  response.seq = command.seq;
  response.task = command.task;

  pcore::Status status = pcore::Status::kOk;
  switch (command.service) {
    case Service::kTaskCreate: {
      pcore::TaskId assigned = pcore::kInvalidTask;
      status = kernel_->task_create(command.program_id, command.arg,
                                    command.priority, assigned);
      response.task = assigned;
      break;
    }
    case Service::kTaskDelete:
      status = kernel_->task_delete(command.task);
      break;
    case Service::kTaskSuspend:
      status = kernel_->task_suspend(command.task);
      break;
    case Service::kTaskResume:
      status = kernel_->task_resume(command.task);
      break;
    case Service::kTaskChanprio:
      status = kernel_->task_chanprio(command.task, command.priority);
      break;
    case Service::kTaskYield:
      status = kernel_->task_yield(command.task);
      break;
  }
  response.detail = static_cast<std::uint8_t>(status);
  if (kernel_->panicked()) {
    response.status = ResponseStatus::kPanic;
  } else if (status != pcore::Status::kOk) {
    response.status = ResponseStatus::kError;
  }
  ++executed_;
  return response;
}

bool Committee::flush_backlog(sim::Soc& soc) {
  std::size_t posted = 0;
  while (posted < backlog_.size() &&
         channel_->post_response(soc, backlog_[posted])) {
    ++posted;
  }
  backlog_.erase(backlog_.begin(),
                 backlog_.begin() + static_cast<std::ptrdiff_t>(posted));
  return backlog_.empty();
}

bool Committee::tick(sim::Soc& soc) {
  if (idle(soc)) return true;
  // Flush backlog first (ordering!) before executing new commands.
  if (!flush_backlog(soc)) return true;
  for (std::size_t i = 0; i < commands_per_tick_; ++i) {
    const auto command = channel_->take_command(soc);
    if (!command) break;
    const Response response = execute(*command);
    if (!channel_->post_response(soc, response)) {
      backlog_.push_back(response);
    }
    // A panic stops command processing; the master will observe the panic
    // response (and the bug detector the kernel flag).
    if (kernel_->panicked()) break;
  }
  return true;
}

}  // namespace ptest::bridge

#include "ptest/master/committer.hpp"

#include <algorithm>

#include "ptest/pcore/kernel.hpp"

namespace ptest::master {

namespace {

/// TC priority: unique per slot.
pcore::Priority task_priority(pattern::SlotIndex slot) {
  return static_cast<pcore::Priority>(10 + slot);
}

/// TCH payload: the k-th priority change of a slot cycles through 16.
pcore::Priority chanprio_priority(pattern::SlotIndex slot, std::uint32_t k) {
  return static_cast<pcore::Priority>(10 + ((slot + k) % 16));
}

}  // namespace

Committer::Committer(pattern::MergedPattern pattern,
                     const pfa::Alphabet& alphabet, CommitterOptions options,
                     CommitterObserver* observer)
    : owned_(std::move(pattern)),
      pattern_(&owned_),
      alphabet_(&alphabet),
      options_(std::move(options)),
      observer_(observer) {
  extend_service_table();
  reset_slots();
}

void Committer::extend_service_table() {
  for (auto symbol = static_cast<pfa::SymbolId>(services_.size());
       symbol < alphabet_->size(); ++symbol) {
    services_.push_back(bridge::service_from_symbol(*alphabet_, symbol));
  }
}

void Committer::reset_slots() {
  slots_.clear();
  if (pattern_->elements.empty()) return;
  const auto widest = std::max_element(
      pattern_->elements.begin(), pattern_->elements.end(),
      [](const pattern::MergedElement& a, const pattern::MergedElement& b) {
        return a.slot < b.slot;
      });
  slots_.resize(static_cast<std::size_t>(widest->slot) + 1);
}

void Committer::reset(const pattern::MergedPattern& pattern) {
  pattern_ = &pattern;
  extend_service_table();
  cursor_ = 0;
  ledger_.reset();
  retries_.reset();
  reset_slots();
  delay_until_ = 0;
  issued_count_ = 0;
  acked_count_ = 0;
  failed_count_ = 0;
  finished_ = false;
}

void Committer::drain_responses(MasterContext& ctx) {
  // A quiet doorbell with no credits: take_response would return nothing.
  if (!ctx.channel().response_ready(ctx.soc())) return;
  while (const auto response = ctx.channel().take_response(ctx.soc())) {
    const auto issue = ledger_.acknowledge(response->seq);
    if (!issue) continue;  // stale/duplicate ack
    AckRecord ack;
    ack.issue = *issue;
    ack.status = response->status;
    ack.detail = response->detail;
    ack.task = response->task;
    ack.acked_at = ctx.now();
    SlotState& slot = slots_[ack.issue.slot];
    slot.busy = false;
    if (ack.issue.service == bridge::Service::kTaskCreate &&
        response->status == bridge::ResponseStatus::kOk) {
      slot.task = response->task;
    }
    if ((ack.issue.service == bridge::Service::kTaskDelete ||
         ack.issue.service == bridge::Service::kTaskYield) &&
        response->status == bridge::ResponseStatus::kOk) {
      slot.task.reset();
      retries_.forgive(ack.issue.slot);
    }
    if (response->status != bridge::ResponseStatus::kOk) ++failed_count_;
    ++acked_count_;
    if (observer_ != nullptr) observer_->on_ack(ack);

    // Terminal commands (TD/TY) rejected because the task was transiently
    // blocked get retried: the tool still owns cleanup of its tasks.
    const bool terminal =
        ack.issue.service == bridge::Service::kTaskDelete ||
        ack.issue.service == bridge::Service::kTaskYield;
    if (terminal && ack.status == bridge::ResponseStatus::kError &&
        static_cast<pcore::Status>(ack.detail) ==
            pcore::Status::kErrBadState) {
      (void)retries_.schedule(ack.issue.slot,
                              {ack.issue.slot, ack.issue.symbol}, ctx.now());
    }
  }
}

Committer::PostOutcome Committer::post_element(
    MasterContext& ctx, const pattern::MergedElement& element) {
  const std::optional<bridge::Service> service = service_of(element.symbol);
  if (!service) return PostOutcome::kSkipped;

  bridge::Command command;
  command.seq = ledger_.next_seq();
  command.service = *service;
  switch (*service) {
    case bridge::Service::kTaskCreate:
      command.priority = task_priority(element.slot);
      command.program_id = options_.program_id;
      command.arg = options_.program_arg(element.slot);
      break;
    case bridge::Service::kTaskChanprio: {
      const auto task = task_for_slot(element.slot);
      if (!task) return PostOutcome::kSkipped;
      command.task = *task;
      command.priority = chanprio_priority(
          element.slot, slots_[element.slot].chanprio_count++);
      break;
    }
    default: {
      const auto task = task_for_slot(element.slot);
      if (!task) return PostOutcome::kSkipped;
      command.task = *task;
      break;
    }
  }

  if (!ctx.channel().post_command(ctx.soc(), command)) {
    return PostOutcome::kBackpressure;  // ring/doorbell full; retry later
  }
  ++issued_count_;
  slots_[element.slot].busy = true;
  IssueRecord record{command.seq, element.slot, element.symbol, *service,
                     ctx.now()};
  ledger_.record_issue(record);
  if (observer_ != nullptr) observer_->on_issue(record);

  const sim::Tick delay = options_.issue_delay(element);
  if (delay > 0) delay_until_ = ctx.now() + delay;
  return PostOutcome::kPosted;
}

ThreadStep Committer::issue_next(MasterContext& ctx) {
  const pattern::MergedElement& element = pattern_->elements[cursor_];
  // Strict per-slot ordering: wait for the slot's previous ack.
  if (slots_[element.slot].busy) return ThreadStep::kWaiting;
  switch (post_element(ctx, element)) {
    case PostOutcome::kPosted:
    case PostOutcome::kSkipped:
      ++cursor_;
      return ThreadStep::kContinue;
    case PostOutcome::kBackpressure:
      return ThreadStep::kWaiting;
  }
  return ThreadStep::kWaiting;
}

ThreadStep Committer::step(MasterContext& ctx) {
  drain_responses(ctx);
  if (finished_) return ThreadStep::kDone;
  if (ctx.now() < delay_until_) return ThreadStep::kWaiting;

  // Pending terminal retries take precedence: they gate completion.
  if (const auto* front = retries_.front()) {
    if (front->not_before <= ctx.now() &&
        !slots_[front->payload.slot].busy) {
      auto retry = retries_.take_front();
      if (task_for_slot(retry->payload.slot)) {
        if (post_element(ctx, retry->payload) == PostOutcome::kBackpressure) {
          retries_.requeue_front(std::move(*retry));
          return ThreadStep::kWaiting;
        }
      } else {
        // Task already gone (exited on its own); nothing to retire.
        retries_.forgive(retry->payload.slot);
      }
      return ThreadStep::kContinue;
    }
  }

  if (cursor_ >= pattern_->elements.size()) {
    if (!ledger_.empty() || !retries_.empty()) {
      return ThreadStep::kWaiting;
    }
    finished_ = true;
    if (observer_ != nullptr) observer_->on_pattern_complete(ctx.now());
    return ThreadStep::kDone;
  }
  return issue_next(ctx);
}

}  // namespace ptest::master

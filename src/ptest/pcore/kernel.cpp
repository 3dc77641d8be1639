#include "ptest/pcore/kernel.hpp"

#include <algorithm>
#include <stdexcept>

namespace ptest::pcore {

const char* to_string(TaskState state) noexcept {
  switch (state) {
    case TaskState::kFree: return "free";
    case TaskState::kReady: return "ready";
    case TaskState::kRunning: return "running";
    case TaskState::kSuspended: return "suspended";
    case TaskState::kBlocked: return "blocked";
    case TaskState::kTerminated: return "terminated";
  }
  return "?";
}

const char* to_string(Status status) noexcept {
  switch (status) {
    case Status::kOk: return "ok";
    case Status::kErrNoSlot: return "no-slot";
    case Status::kErrNoMemory: return "no-memory";
    case Status::kErrBadTask: return "bad-task";
    case Status::kErrBadState: return "bad-state";
    case Status::kErrBadMutex: return "bad-mutex";
    case Status::kErrPanicked: return "panicked";
    case Status::kErrBadProgram: return "bad-program";
  }
  return "?";
}

// --- TaskContext implementation ---------------------------------------------

class PcoreKernel::ContextImpl final : public TaskContext {
 public:
  ContextImpl(PcoreKernel& kernel, TaskId task)
      : kernel_(kernel), task_(task) {}

  [[nodiscard]] std::uint8_t task_id() const override { return task_; }
  [[nodiscard]] sim::Tick now() const override { return kernel_.tick_; }

  [[nodiscard]] bool holds(std::uint32_t mutex) const override {
    return mutex < kernel_.mutex_count_ &&
           kernel_.mutexes_[mutex].owner == task_;
  }

  [[nodiscard]] std::int32_t shared(std::size_t index) const override {
    return kernel_.shared_word(index);
  }
  void set_shared(std::size_t index, std::int32_t value) override {
    kernel_.set_shared_word(index, value);
  }

 private:
  PcoreKernel& kernel_;
  TaskId task_;
};

// --- construction ------------------------------------------------------------

PcoreKernel::PcoreKernel(const KernelConfig& config)
    : config_(config),
      heap_(config.heap_capacity, config.fault_plan),
      shared_(config.shared_words, 0),
      noise_rng_(config.noise_seed) {}

void PcoreKernel::register_program(
    std::uint32_t program_id,
    std::function<std::unique_ptr<TaskProgram>(std::uint32_t)> factory) {
  programs_[program_id] = std::move(factory);
}

// --- helpers ------------------------------------------------------------------

void PcoreKernel::panic(std::string reason) {
  if (panicked_) return;
  panicked_ = true;
  panic_reason_ = std::move(reason);
}

void PcoreKernel::force_panic(std::string reason) {
  panic(std::move(reason));
}

Status PcoreKernel::check_live(TaskId task) const {
  if (task >= kMaxTasks) return Status::kErrBadTask;
  const TaskState s = tcbs_[task].state;
  if (s == TaskState::kFree || s == TaskState::kTerminated) {
    return Status::kErrBadTask;
  }
  return Status::kOk;
}

std::size_t PcoreKernel::live_task_count() const noexcept {
  std::size_t n = 0;
  for (const Tcb& tcb : tcbs_) {
    if (tcb.state != TaskState::kFree && tcb.state != TaskState::kTerminated) {
      ++n;
    }
  }
  return n;
}

std::int32_t PcoreKernel::shared_word(std::size_t index) const {
  if (index >= shared_.size()) {
    throw std::out_of_range("PcoreKernel: shared word index out of range");
  }
  return shared_[index];
}

void PcoreKernel::set_shared_word(std::size_t index, std::int32_t value) {
  if (index >= shared_.size()) {
    throw std::out_of_range("PcoreKernel: shared word index out of range");
  }
  shared_[index] = value;
}

// --- Table I services ----------------------------------------------------------

Status PcoreKernel::task_create(std::uint32_t program_id, std::uint32_t arg,
                                Priority priority, TaskId& out_task) {
  ++service_calls_;
  if (panicked_) return Status::kErrPanicked;
  const auto factory = programs_.find(program_id);
  if (factory == programs_.end()) return Status::kErrBadProgram;

  TaskId slot = kInvalidTask;
  for (TaskId i = 0; i < kMaxTasks; ++i) {
    if (tcbs_[i].state == TaskState::kFree) {
      slot = i;
      break;
    }
  }
  if (slot == kInvalidTask) return Status::kErrNoSlot;

  const auto tcb_block = heap_.alloc(kTcbBytes);
  if (heap_.panicked()) {
    panic("task_create: " + heap_.panic_reason());
    return Status::kErrPanicked;
  }
  if (!tcb_block) return Status::kErrNoMemory;
  const auto stack_block = heap_.alloc(config_.stack_bytes);
  if (heap_.panicked()) {
    panic("task_create: " + heap_.panic_reason());
    return Status::kErrPanicked;
  }
  if (!stack_block) {
    heap_.free(*tcb_block);
    return Status::kErrNoMemory;
  }

  Tcb& tcb = tcbs_[slot];
  tcb.state = TaskState::kReady;
  tcb.priority = priority;
  tcb.program = factory->second(arg);
  tcb.tcb_block = *tcb_block;
  tcb.stack_block = *stack_block;
  tcb.waiting_on.reset();
  tcb.created_at = tick_;
  tcb.last_progress = tick_;
  tcb.steps = 0;
  ++tcb.generation;
  out_task = slot;
  return Status::kOk;
}

void PcoreKernel::release_held_mutexes(TaskId task) {
  for (MutexId id = 0; id < mutex_count_; ++id) {
    if (mutexes_[id].owner == task) release_mutex(id);
    auto& waiters = mutexes_[id].waiters;
    waiters.erase(std::remove(waiters.begin(), waiters.end(), task),
                  waiters.end());
  }
}

void PcoreKernel::reclaim(TaskId task, TaskState final_state) {
  Tcb& tcb = tcbs_[task];
  if (tcb.state == TaskState::kBlocked) ++wait_graph_epoch_;
  release_held_mutexes(task);
  heap_.defer_free(tcb.tcb_block);
  heap_.defer_free(tcb.stack_block);
  if (heap_.panicked()) panic("reclaim: " + heap_.panic_reason());
  tcb.program.reset();
  tcb.state = final_state;
  tcb.waiting_on.reset();
  if (running_ == task) running_ = kInvalidTask;
}

Status PcoreKernel::task_delete(TaskId task) {
  ++service_calls_;
  if (panicked_) return Status::kErrPanicked;
  if (const Status s = check_live(task); s != Status::kOk) return s;
  reclaim(task, TaskState::kFree);
  return Status::kOk;
}

Status PcoreKernel::task_suspend(TaskId task) {
  ++service_calls_;
  if (panicked_) return Status::kErrPanicked;
  if (const Status s = check_live(task); s != Status::kOk) return s;
  Tcb& tcb = tcbs_[task];
  if (tcb.state != TaskState::kReady && tcb.state != TaskState::kRunning) {
    return Status::kErrBadState;
  }
  if (running_ == task) running_ = kInvalidTask;
  tcb.state = TaskState::kSuspended;
  return Status::kOk;
}

Status PcoreKernel::task_resume(TaskId task) {
  ++service_calls_;
  if (panicked_) return Status::kErrPanicked;
  if (const Status s = check_live(task); s != Status::kOk) return s;
  Tcb& tcb = tcbs_[task];
  if (tcb.state != TaskState::kSuspended) return Status::kErrBadState;
  tcb.state = TaskState::kReady;
  return Status::kOk;
}

Status PcoreKernel::task_chanprio(TaskId task, Priority priority) {
  ++service_calls_;
  if (panicked_) return Status::kErrPanicked;
  if (const Status s = check_live(task); s != Status::kOk) return s;
  tcbs_[task].priority = priority;
  return Status::kOk;
}

Status PcoreKernel::task_yield(TaskId task) {
  ++service_calls_;
  if (panicked_) return Status::kErrPanicked;
  if (const Status s = check_live(task); s != Status::kOk) return s;
  Tcb& tcb = tcbs_[task];
  if (tcb.state == TaskState::kBlocked) return Status::kErrBadState;
  reclaim(task, TaskState::kFree);
  return Status::kOk;
}

// --- mutexes -------------------------------------------------------------------

MutexId PcoreKernel::mutex_create() {
  if (mutex_count_ >= kMaxMutexes) {
    throw std::length_error("PcoreKernel: out of mutexes");
  }
  const auto id = static_cast<MutexId>(mutex_count_++);
  mutexes_[id].exists = true;
  return id;
}

void PcoreKernel::release_mutex(MutexId id) {
  KMutex& mutex = mutexes_[id];
  mutex.owner.reset();
  ++wait_graph_epoch_;
  if (mutex.waiters.empty()) return;
  // Highest priority first; ties by arrival order.
  const auto best = std::max_element(
      mutex.waiters.begin(), mutex.waiters.end(),
      [this](TaskId a, TaskId b) {
        return tcbs_[a].priority < tcbs_[b].priority;
      });
  const TaskId winner = *best;
  mutex.waiters.erase(best);
  mutex.owner = winner;
  ++mutex.acquisitions;
  Tcb& tcb = tcbs_[winner];
  tcb.waiting_on.reset();
  tcb.state = TaskState::kReady;
}

// --- execution -------------------------------------------------------------------

void PcoreKernel::maybe_collect(sim::Soc& soc) {
  const bool graveyard_full =
      heap_.graveyard_blocks() >= config_.gc_graveyard_threshold;
  const bool periodic = config_.gc_period != 0 &&
                        tick_ - last_gc_ >= config_.gc_period;
  if (!graveyard_full && !periodic) return;
  last_gc_ = tick_;
  heap_.collect();
  if (heap_.panicked()) {
    panic("gc: " + heap_.panic_reason());
    soc.record(sim::TraceCategory::kFault, "kernel panic: " + panic_reason_);
  }
}

void PcoreKernel::run_scheduler(sim::Soc& soc) {
  const TaskId previous = running_;
  const bool previous_runnable =
      previous != kInvalidTask &&
      (tcbs_[previous].state == TaskState::kRunning ||
       tcbs_[previous].state == TaskState::kReady);
  TaskId next = scheduler_.pick(tcbs_, running_);
  if (next != kInvalidTask && config_.schedule_noise > 0.0 &&
      noise_rng_.chance(config_.schedule_noise)) {
    // ConTest-style perturbation: dispatch a random runnable task.
    std::array<TaskId, kMaxTasks> runnable{};
    std::size_t count = 0;
    for (TaskId i = 0; i < kMaxTasks; ++i) {
      if (tcbs_[i].state == TaskState::kReady ||
          tcbs_[i].state == TaskState::kRunning) {
        runnable[count++] = i;
      }
    }
    if (count > 0) next = runnable[noise_rng_.below(count)];
  }
  scheduler_.note_dispatch(previous, next, previous_runnable);
  if (previous != kInvalidTask && previous != next &&
      tcbs_[previous].state == TaskState::kRunning) {
    tcbs_[previous].state = TaskState::kReady;
  }
  running_ = next;
  if (next == kInvalidTask) return;

  // A dispatch consumes every outstanding yield: each yielder has now been
  // passed over once, which is all the paper's yield() promises.
  for (Tcb& t : tcbs_) t.yield_pending = false;
  Tcb& tcb = tcbs_[next];
  tcb.state = TaskState::kRunning;
  ContextImpl ctx(*this, next);
  const StepResult result = tcb.program->step(ctx);
  ++tcb.steps;
  tcb.last_progress = tick_;

  switch (result.kind) {
    case StepKind::kCompute:
      break;  // consumed its slice
    case StepKind::kYield:
      tcb.state = TaskState::kReady;
      tcb.yield_pending = true;
      running_ = kInvalidTask;
      break;
    case StepKind::kLock: {
      const std::uint32_t id = result.arg;
      if (id >= mutex_count_) {
        panic("task " + std::to_string(next) + " locked unknown mutex " +
              std::to_string(id));
        return;
      }
      KMutex& mutex = mutexes_[id];
      if (!mutex.owner) {
        mutex.owner = next;
        ++mutex.acquisitions;
        ++wait_graph_epoch_;
      } else if (mutex.owner == next) {
        // Recursive lock is a program bug; treat as no-op with trace.
        soc.record(sim::TraceCategory::kKernel,
                   "task " + std::to_string(next) +
                       " recursive lock of mutex " + std::to_string(id));
      } else {
        ++mutex.contentions;
        mutex.waiters.push_back(next);
        tcb.state = TaskState::kBlocked;
        tcb.waiting_on = static_cast<MutexId>(id);
        running_ = kInvalidTask;
        ++wait_graph_epoch_;
      }
      break;
    }
    case StepKind::kUnlock: {
      const std::uint32_t id = result.arg;
      if (id >= mutex_count_ || mutexes_[id].owner != next) {
        panic("task " + std::to_string(next) + " unlocked mutex " +
              std::to_string(id) + " it does not own");
        return;
      }
      release_mutex(id);
      break;
    }
    case StepKind::kExit:
      soc.record(sim::TraceCategory::kKernel,
                 "task " + std::to_string(next) + " exited with code " +
                     std::to_string(result.arg));
      if (result.arg != 0 && config_.panic_on_nonzero_exit) {
        panic("task " + std::to_string(next) +
              " failed assertion (exit code " + std::to_string(result.arg) +
              ")");
        return;
      }
      reclaim(next, TaskState::kFree);
      break;
  }
}

bool PcoreKernel::tick(sim::Soc& soc) {
  tick_ = soc.now();
  if (panicked_) return true;  // detector decides when to stop
  maybe_collect(soc);
  if (panicked_) return true;
  run_scheduler(soc);
  return true;
}

// --- inspection --------------------------------------------------------------------

KernelSnapshot PcoreKernel::snapshot() const {
  KernelSnapshot snap;
  snap.tick = tick_;
  snap.panicked = panicked_;
  snap.panic_reason = panic_reason_;
  snap.heap = heap_.stats();
  snap.context_switches = scheduler_.context_switches();
  snap.preemptions = scheduler_.preemptions();
  snap.service_calls = service_calls_;
  for (TaskId i = 0; i < kMaxTasks; ++i) {
    const Tcb& tcb = tcbs_[i];
    if (tcb.state == TaskState::kFree) continue;
    TaskSnapshot t;
    t.id = i;
    t.state = tcb.state;
    t.priority = tcb.priority;
    t.program = tcb.program ? tcb.program->name() : "";
    t.waiting_on = tcb.waiting_on;
    for (MutexId m = 0; m < mutex_count_; ++m) {
      if (mutexes_[m].owner == i) t.holds.push_back(m);
    }
    t.last_progress = tcb.last_progress;
    t.steps = tcb.steps;
    t.generation = tcb.generation;
    snap.tasks.push_back(std::move(t));
    ++snap.live_tasks;
  }
  return snap;
}

}  // namespace ptest::pcore

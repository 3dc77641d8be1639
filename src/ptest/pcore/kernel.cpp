#include "ptest/pcore/kernel.hpp"

#include <algorithm>
#include <stdexcept>

#include "ptest/support/strings.hpp"

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

// --- construction ------------------------------------------------------------

PcoreKernel::PcoreKernel(const KernelConfig& config)
    : config_(config),
      heap_(KernelHeap::kDefaultCapacity, config.fault_plan),
      shared_(kSharedWords, 0),
      noise_rng_(config.noise_seed) {}

void PcoreKernel::reset() {
  heap_.reset();
  // Only slots below the high-water mark and mutexes below the count were
  // ever written since the last reset; the rest are still as constructed.
  for (std::size_t slot = 0; slot < slot_high_water_; ++slot) {
    tcbs_[slot] = Tcb{};
  }
  slot_high_water_ = 0;
  for (MutexId id = 0; id < mutex_count_; ++id) {
    KMutex& mutex = mutexes_[id];
    mutex.exists = false;
    mutex.owner.reset();
    mutex.waiters.clear();
    mutex.acquisitions = 0;
    mutex.contentions = 0;
  }
  mutex_count_ = 0;
  scheduler_ = PriorityScheduler{};
  programs_.clear();
  std::fill(shared_.begin(), shared_.end(), 0);
  noise_rng_ = support::Rng(config_.noise_seed);
  running_ = kInvalidTask;
  runnable_ = 0;
  yielded_ = 0;
  live_count_ = 0;
  panicked_ = false;
  panic_reason_.clear();
  tick_ = 0;
  last_gc_ = 0;
  service_calls_ = 0;
  wait_graph_epoch_ = 0;
}

void PcoreKernel::register_program(std::uint32_t program_id,
                                   ProgramFactory factory) {
  for (auto& [id, registered] : programs_) {
    if (id == program_id) {
      registered = std::move(factory);
      return;
    }
  }
  programs_.emplace_back(program_id, std::move(factory));
}

const PcoreKernel::ProgramFactory* PcoreKernel::find_program(
    std::uint32_t program_id) const noexcept {
  for (const auto& [id, factory] : programs_) {
    if (id == program_id) return &factory;
  }
  return nullptr;
}

// --- helpers ------------------------------------------------------------------

// The reason is written into the kept panic_reason_ buffer, so a warm
// kernel panics without allocating.
void PcoreKernel::panic(std::string_view reason) {
  if (panicked_) return;
  panicked_ = true;
  panic_reason_.assign(reason);
}

void PcoreKernel::panic_heap(std::string_view where) {
  if (panicked_) return;
  panic(where);
  panic_reason_ += heap_.panic_reason();
}

void PcoreKernel::panic_task(TaskId task, std::string_view what,
                             std::uint64_t value, std::string_view tail) {
  if (panicked_) return;
  panic("task ");
  support::append_decimal(panic_reason_, task);
  panic_reason_ += what;
  support::append_decimal(panic_reason_, value);
  panic_reason_ += tail;
}

void PcoreKernel::force_panic(std::string reason) { panic(reason); }

Status PcoreKernel::check_live(TaskId task) const {
  if (task >= kMaxTasks || !is_live(tcbs_[task].state)) {
    return Status::kErrBadTask;
  }
  return Status::kOk;
}

void PcoreKernel::set_state(TaskId task, TaskState state) {
  Tcb& tcb = tcbs_[task];
  live_count_ += is_live(state);
  live_count_ -= is_live(tcb.state);
  const auto bit = slot_bit(task);
  if (is_runnable(state)) {
    runnable_ |= bit;
  } else {
    runnable_ &= static_cast<SlotMask>(~bit);
  }
  tcb.state = state;
}

std::int32_t PcoreKernel::shared_word(std::size_t index) const {
  if (index >= shared_.size()) throw_shared_index_out_of_range();
  return shared_[index];
}

void PcoreKernel::set_shared_word(std::size_t index, std::int32_t value) {
  if (index >= shared_.size()) throw_shared_index_out_of_range();
  shared_[index] = value;
}

// --- Table I services ----------------------------------------------------------

Status PcoreKernel::task_create(std::uint32_t program_id, std::uint32_t arg,
                                Priority priority, TaskId& out_task) {
  ++service_calls_;
  if (panicked_) return Status::kErrPanicked;
  const ProgramFactory* factory = find_program(program_id);
  if (factory == nullptr) return Status::kErrBadProgram;

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
    panic_heap("task_create: ");
    return Status::kErrPanicked;
  }
  if (!tcb_block) return Status::kErrNoMemory;
  const auto stack_block = heap_.alloc(kStackBytes);
  if (heap_.panicked()) {
    panic_heap("task_create: ");
    return Status::kErrPanicked;
  }
  if (!stack_block) {
    heap_.free(*tcb_block);
    return Status::kErrNoMemory;
  }

  slot_high_water_ = std::max<std::size_t>(slot_high_water_, slot + 1);
  Tcb& tcb = tcbs_[slot];
  set_state(slot, TaskState::kReady);
  tcb.priority = priority;
  Program program = [&] {
    const FramePool::Scope frames(frames_);
    return (*factory)(arg);
  }();
  tcb.body = std::move(program.body);
  tcb.program = program.name;
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

void PcoreKernel::reclaim(TaskId task) {
  Tcb& tcb = tcbs_[task];
  if (tcb.state == TaskState::kBlocked) ++wait_graph_epoch_;
  release_held_mutexes(task);
  heap_.defer_free(tcb.tcb_block);
  heap_.defer_free(tcb.stack_block);
  if (heap_.panicked()) panic_heap("reclaim: ");
  tcb.body = CoTask{};
  tcb.program = nullptr;
  set_state(task, TaskState::kFree);
  tcb.waiting_on.reset();
  if (running_ == task) running_ = kInvalidTask;
}

Status PcoreKernel::task_delete(TaskId task) {
  ++service_calls_;
  if (panicked_) return Status::kErrPanicked;
  if (const Status s = check_live(task); s != Status::kOk) return s;
  reclaim(task);
  return Status::kOk;
}

Status PcoreKernel::task_suspend(TaskId task) {
  ++service_calls_;
  if (panicked_) return Status::kErrPanicked;
  if (const Status s = check_live(task); s != Status::kOk) return s;
  if (!is_runnable(tcbs_[task].state)) return Status::kErrBadState;
  if (running_ == task) running_ = kInvalidTask;
  set_state(task, TaskState::kSuspended);
  return Status::kOk;
}

Status PcoreKernel::task_resume(TaskId task) {
  ++service_calls_;
  if (panicked_) return Status::kErrPanicked;
  if (const Status s = check_live(task); s != Status::kOk) return s;
  if (tcbs_[task].state != TaskState::kSuspended) return Status::kErrBadState;
  set_state(task, TaskState::kReady);
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
  if (tcbs_[task].state == TaskState::kBlocked) return Status::kErrBadState;
  reclaim(task);
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
  if (mutex.waiters.empty()) return;
  ++wait_graph_epoch_;  // the winner leaves kBlocked
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
  tcbs_[winner].waiting_on.reset();
  set_state(winner, TaskState::kReady);
}

// --- execution -------------------------------------------------------------------

void PcoreKernel::maybe_collect(sim::Soc& soc) {
  const bool graveyard_full =
      heap_.graveyard_blocks() >= kGcGraveyardThreshold;
  const bool periodic = tick_ - last_gc_ >= kGcPeriod;
  if (!graveyard_full && !periodic) return;
  last_gc_ = tick_;
  heap_.collect();
  if (heap_.panicked()) {
    panic_heap("gc: ");
    soc.record(sim::TraceCategory::kFault, sim::TraceCode::kKernelPanic,
               panic_reason_);
  }
}

void PcoreKernel::run_scheduler(sim::Soc& soc) {
  const TaskId previous = running_;
  const bool previous_runnable =
      previous != kInvalidTask && is_runnable(tcbs_[previous].state);
  TaskId next = scheduler_.pick(tcbs_, runnable_, yielded_, running_);
  if (next != kInvalidTask && config_.schedule_noise > 0.0 &&
      noise_rng_.chance(config_.schedule_noise)) {
    // ConTest-style perturbation: dispatch a random runnable task.
    std::array<TaskId, kMaxTasks> runnable{};
    std::size_t count = 0;
    for (SlotMask m = runnable_; m != 0; m &= m - 1) {
      runnable[count++] = lowest_slot(m);
    }
    next = runnable[noise_rng_.below(count)];
  }
  scheduler_.note_dispatch(previous, next, previous_runnable);
  if (previous != kInvalidTask && previous != next &&
      tcbs_[previous].state == TaskState::kRunning) {
    set_state(previous, TaskState::kReady);
  }
  running_ = next;
  if (next == kInvalidTask) return;

  // A dispatch consumes every outstanding yield: each yielder has now been
  // passed over once, which is all the paper's yield() promises.
  for (SlotMask m = yielded_; m != 0; m &= m - 1) {
    tcbs_[lowest_slot(m)].yield_pending = false;
  }
  yielded_ = 0;
  Tcb& tcb = tcbs_[next];
  set_state(next, TaskState::kRunning);
  env_ = StepEnv{next, &shared_, mutexes_.data(), mutex_count_};
  const StepResult result = tcb.body.step(env_);
  ++tcb.steps;
  tcb.last_progress = tick_;

  switch (result.kind) {
    case StepKind::kCompute:
      break;  // consumed its slice
    case StepKind::kYield:
      set_state(next, TaskState::kReady);
      tcb.yield_pending = true;
      yielded_ |= slot_bit(next);
      running_ = kInvalidTask;
      break;
    case StepKind::kLock: {
      const std::uint32_t id = result.arg;
      if (id >= mutex_count_) {
        panic_task(next, " locked unknown mutex ", id, "");
        return;
      }
      KMutex& mutex = mutexes_[id];
      if (!mutex.owner) {
        mutex.owner = next;
        ++mutex.acquisitions;
      } else if (mutex.owner == next) {
        // Recursive lock is a program bug; treat as no-op with trace.
        soc.record(sim::TraceCategory::kKernel,
                   sim::TraceCode::kRecursiveLock, next, id);
      } else {
        ++mutex.contentions;
        mutex.waiters.push_back(next);
        set_state(next, TaskState::kBlocked);
        tcb.waiting_on = static_cast<MutexId>(id);
        running_ = kInvalidTask;
        ++wait_graph_epoch_;
      }
      break;
    }
    case StepKind::kUnlock: {
      const std::uint32_t id = result.arg;
      if (id >= mutex_count_ || mutexes_[id].owner != next) {
        panic_task(next, " unlocked mutex ", id, " it does not own");
        return;
      }
      release_mutex(id);
      break;
    }
    case StepKind::kExit:
      soc.record(sim::TraceCategory::kKernel, sim::TraceCode::kTaskExit, next,
                 result.arg);
      if (result.arg != 0 && config_.panic_on_nonzero_exit) {
        panic_task(next, " failed assertion (exit code ", result.arg, ")");
        return;
      }
      reclaim(next);
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

sim::Tick PcoreKernel::run_quiet(sim::Soc& soc, sim::Tick last) {
  const std::size_t live = live_count_;
  const std::uint64_t epoch = wait_graph_epoch_;
  sim::Tick ran = 0;
  for (;;) {
    tick(soc);
    ++ran;
    if (panicked_ || live_count_ != live || wait_graph_epoch_ != epoch ||
        soc.now() >= last) {
      return ran;
    }
    soc.clock().advance();
  }
}

// --- inspection --------------------------------------------------------------------

void PcoreKernel::snapshot_into(KernelSnapshot& out) const {
  out.tick = tick_;
  out.panicked = panicked_;
  out.panic_reason.assign(panic_reason_);
  out.heap = heap_.stats();
  out.context_switches = scheduler_.context_switches();
  out.preemptions = scheduler_.preemptions();
  out.service_calls = service_calls_;
  out.live_tasks = 0;
  for (TaskId i = 0; i < kMaxTasks; ++i) {
    out.live_tasks += tcbs_[i].state != TaskState::kFree;
  }
  out.tasks.resize(out.live_tasks);
  auto task = out.tasks.begin();
  for (TaskId i = 0; i < kMaxTasks; ++i) {
    const Tcb& tcb = tcbs_[i];
    if (tcb.state == TaskState::kFree) continue;
    TaskSnapshot& t = *task++;
    t.id = i;
    t.state = tcb.state;
    t.priority = tcb.priority;
    t.program.assign(tcb.program ? tcb.program : "");
    t.waiting_on = tcb.waiting_on;
    t.holds.clear();
    for (MutexId m = 0; m < mutex_count_; ++m) {
      if (mutexes_[m].owner == i) t.holds.push_back(m);
    }
    t.last_progress = tcb.last_progress;
    t.steps = tcb.steps;
    t.generation = tcb.generation;
  }
}

KernelSnapshot PcoreKernel::snapshot() const {
  KernelSnapshot snap;
  snapshot_into(snap);
  return snap;
}

}  // namespace ptest::pcore

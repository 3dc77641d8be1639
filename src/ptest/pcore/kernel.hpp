// The pCore microkernel simulator — the slave runtime system under test.
//
// Reproduces the behaviour the paper relies on (§IV-A):
//   * up to 16 concurrent tasks, each created with a priority;
//   * preemptive priority-based scheduling;
//   * the six Table I services: task_create (TC), task_delete (TD),
//     task_suspend (TS), task_resume (TR), task_chanprio (TCH),
//     task_yield (TY — "terminate the current running task", i.e. a
//     voluntary exit, which is why the lifecycle regex Eq. (2) ends in
//     TD$ | TY$);
//   * a kernel heap with deferred reclamation (garbage collection) of
//     deleted tasks' TCBs/stacks — the subsystem whose injected latent bug
//     reproduces case study 1;
//   * kernel mutexes for task synchronization (case study 2).
//
// The kernel is a sim::Device: one program step per tick for the running
// task, plus periodic collection.  All services are also callable directly
// (unit tests) — the bridge committee calls them on behalf of remote
// commands.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "ptest/pcore/co_task.hpp"
#include "ptest/pcore/frame_pool.hpp"
#include "ptest/pcore/heap.hpp"
#include "ptest/pcore/scheduler.hpp"
#include "ptest/pcore/sync.hpp"
#include "ptest/pcore/task.hpp"
#include "ptest/sim/soc.hpp"
#include "ptest/support/rng.hpp"

namespace ptest::pcore {

enum class Status : std::uint8_t {
  kOk = 0,
  kErrNoSlot,       // all 16 task slots busy
  kErrNoMemory,     // heap exhausted
  kErrBadTask,      // slot empty or stale
  kErrBadState,     // service illegal in the task's current state
  kErrBadMutex,     // unknown mutex / not owner
  kErrPanicked,     // kernel already panicked
  kErrBadProgram,   // unknown program id
};

[[nodiscard]] const char* to_string(Status status) noexcept;

/// Shared user words a kernel keeps (the Fig. 1 flags, workload state).
inline constexpr std::size_t kSharedWords = 16;
/// The kernel collects its heap when the graveyard holds at least this
/// many blocks, and at least every kGcPeriod ticks.
inline constexpr std::size_t kGcGraveyardThreshold = 8;
inline constexpr sim::Tick kGcPeriod = 256;

struct KernelConfig {
  HeapFaultPlan fault_plan{};
  /// Treat a nonzero program exit code as an assertion failure and panic.
  /// Seeded-bug workloads use this so in-program race detection surfaces
  /// as a slave crash the bug detector classifies.
  bool panic_on_nonzero_exit = false;
  /// ConTest-style scheduling noise: with this probability the scheduler
  /// dispatches a uniformly random runnable task instead of the
  /// highest-priority one.  0 = faithful pCore behaviour.
  double schedule_noise = 0.0;
  std::uint64_t noise_seed = 0xC0FFEEULL;
};

/// Read-only snapshot for the bug detector and tests.
struct TaskSnapshot {
  TaskId id = kInvalidTask;
  TaskState state = TaskState::kFree;
  Priority priority = 0;
  std::string program;
  std::optional<MutexId> waiting_on;
  std::vector<MutexId> holds;
  sim::Tick last_progress = 0;
  std::uint64_t steps = 0;
  std::uint32_t generation = 0;
};

struct KernelSnapshot {
  sim::Tick tick = 0;
  bool panicked = false;
  std::string panic_reason;
  std::vector<TaskSnapshot> tasks;  // live slots only
  std::size_t live_tasks = 0;
  HeapStats heap;
  std::uint64_t context_switches = 0;
  std::uint64_t preemptions = 0;
  std::uint64_t service_calls = 0;
};

class PcoreKernel final : public sim::Device {
 public:
  using ProgramFactory = std::function<Program(std::uint32_t arg)>;

  explicit PcoreKernel(const KernelConfig& config = {});

  /// Returns to the freshly constructed state under the same config: no
  /// programs, tasks or mutexes, zeroed shared words and counters, the
  /// heap and noise stream restarted, no panic, wait-graph epoch 0.
  /// Buffers (program registry, mutex wait queues, heap blocks) keep
  /// their capacity.  Only the TCBs below the highest slot task_create
  /// filled and the mutexes mutex_create made are rewritten: no other
  /// entry can have changed since the last reset.
  void reset();

  // --- program registry ----------------------------------------------------
  /// Registers a factory under `program_id`, replacing any earlier one;
  /// TC commands reference it.
  void register_program(std::uint32_t program_id, ProgramFactory factory);
  /// True when a factory is registered under `program_id` — lets scenario
  /// plumbing assert a workload setup actually provides the program its
  /// plan references before any TC command can fail with kErrBadProgram.
  [[nodiscard]] bool has_program(std::uint32_t program_id) const noexcept {
    return find_program(program_id) != nullptr;
  }

  // --- Table I services ----------------------------------------------------
  /// TC: creates a task with `priority` running the body the factory
  /// registered under `program_id` returns for `arg`.
  /// On success `out_task` receives the slot id.
  Status task_create(std::uint32_t program_id, std::uint32_t arg,
                     Priority priority, TaskId& out_task);
  /// TD: force-deletes a task in any live state.  Held mutexes are
  /// released (handed to waiters); TCB/stack go to the heap graveyard.
  Status task_delete(TaskId task);
  /// TS: suspends a Ready/Running task.
  Status task_suspend(TaskId task);
  /// TR: resumes a Suspended task.
  Status task_resume(TaskId task);
  /// TCH: changes a live task's priority.
  Status task_chanprio(TaskId task, Priority priority);
  /// TY: voluntary termination ("terminate the current running task").
  /// Remote form: requests graceful exit of `task`; legal from
  /// Ready/Running/Suspended.  Blocked tasks cannot exit gracefully.
  Status task_yield(TaskId task);

  // --- mutexes (used by task bodies) ---------------------------------------
  /// Creates a mutex; returns its id.  Throws when out of mutexes (test
  /// configuration error, not a runtime condition).
  MutexId mutex_create();

  // --- execution ------------------------------------------------------------
  bool tick(sim::Soc& soc) override;
  /// Ticks the kernel alone from the clock's current tick, advancing the
  /// clock between ticks, and returns the ticks run (at least one).  It
  /// stops, without advancing, after the first tick on which the kernel
  /// is panicked, live_task_count() or wait_graph_epoch() changed, or the
  /// tick reached `last`.  For a phase in which no service call can
  /// arrive: then the runnable set changes only with one of those.
  sim::Tick run_quiet(sim::Soc& soc, sim::Tick last);

  // --- inspection ------------------------------------------------------------
  /// Fills `out` with the current state, reusing its buffers: its task
  /// list, each kept task's name and held-mutex list, and the panic text.
  void snapshot_into(KernelSnapshot& out) const;
  /// snapshot_into() a fresh snapshot.
  [[nodiscard]] KernelSnapshot snapshot() const;
  [[nodiscard]] bool panicked() const noexcept { return panicked_; }
  [[nodiscard]] const std::string& panic_reason() const noexcept {
    return panic_reason_;
  }
  /// Live (neither free nor terminated) tasks; a field read, kept by
  /// set_state.
  [[nodiscard]] std::size_t live_task_count() const noexcept {
    return live_count_;
  }
  /// Slots whose task is Ready or Running, kept by set_state.
  [[nodiscard]] SlotMask runnable_mask() const noexcept { return runnable_; }
  /// Slots whose `yield_pending` is set: the scheduler passes over them
  /// once.  A flag outlives its task until the next dispatch, so a slot
  /// reused by task_create in between inherits it.
  [[nodiscard]] SlotMask yield_mask() const noexcept { return yielded_; }
  [[nodiscard]] const Tcb& tcb(TaskId task) const { return tcbs_.at(task); }
  [[nodiscard]] const KMutex& mutex(MutexId id) const {
    return mutexes_.at(id);
  }
  [[nodiscard]] KernelHeap& heap() noexcept { return heap_; }
  [[nodiscard]] sim::Tick current_tick() const noexcept { return tick_; }
  /// The snapshot's counters without building a snapshot.
  [[nodiscard]] std::uint64_t service_calls() const noexcept {
    return service_calls_;
  }
  [[nodiscard]] std::uint64_t context_switches() const noexcept {
    return scheduler_.context_switches();
  }
  [[nodiscard]] std::uint64_t gc_runs() const noexcept {
    return heap_.gc_runs();
  }
  /// The pool task_create allocates coroutine frames from; its blocks
  /// survive reset().
  [[nodiscard]] const FramePool& frames() const noexcept { return frames_; }
  /// Frames too large for the pool's classes, made on the heap instead,
  /// over the kernel's lifetime (reset() keeps the count with the blocks).
  [[nodiscard]] std::uint64_t frame_fallbacks() const noexcept {
    return frames_.fallbacks();
  }
  /// Advances whenever a task enters or leaves kBlocked: a contended
  /// lock, a release that hands the mutex to a waiter, or the reclaim of
  /// a blocked task.  An uncontended lock and a release with no waiters
  /// leave it alone: they change the owner of a mutex no task waits on,
  /// which is not an edge of the wait-for graph.  Between two equal
  /// readings every blocked task waits on the same mutex held by the same
  /// owner, so an observer that scanned the graph at the first reading
  /// need not rescan at the second.
  [[nodiscard]] std::uint64_t wait_graph_epoch() const noexcept {
    return wait_graph_epoch_;
  }
  /// Shared user words, also reachable from master threads through the
  /// kernel (models the Fig. 1 shared-memory flags).
  [[nodiscard]] std::int32_t shared_word(std::size_t index) const;
  void set_shared_word(std::size_t index, std::int32_t value);

  /// Forces a kernel panic (used by fault-injection tests).
  void force_panic(std::string reason);

 private:
  /// The factory registered under `program_id`, or null.
  [[nodiscard]] const ProgramFactory* find_program(
      std::uint32_t program_id) const noexcept;
  /// Panics with `reason` (a no-op when already panicked).
  void panic(std::string_view reason);
  /// Panics with "<where><heap's panic reason>".
  void panic_heap(std::string_view where);
  /// Panics with "task <task><what><value><tail>".
  void panic_task(TaskId task, std::string_view what, std::uint64_t value,
                  std::string_view tail);
  void release_held_mutexes(TaskId task);
  /// The one writer of `Tcb::state`: keeps runnable_ and live_count_.
  void set_state(TaskId task, TaskState state);
  void reclaim(TaskId task);
  Status check_live(TaskId task) const;
  /// Clears `id`'s owner and hands it to the best waiter, if any.
  void release_mutex(MutexId id);
  void run_scheduler(sim::Soc& soc);
  void maybe_collect(sim::Soc& soc);

  KernelConfig config_;
  KernelHeap heap_;
  /// Declared before tcbs_, so it outlives every frame a TCB holds.
  FramePool frames_;
  std::array<Tcb, kMaxTasks> tcbs_{};
  /// One past the highest slot task_create has filled since the last
  /// reset: reset() rewrites only the TCBs below it.
  std::size_t slot_high_water_ = 0;
  std::array<KMutex, kMaxMutexes> mutexes_{};
  std::size_t mutex_count_ = 0;
  PriorityScheduler scheduler_;
  /// (program id, factory) in registration order; a workload registers
  /// a handful, so a linear lookup is cheapest, and clearing the vector
  /// on reset keeps its buffer.
  std::vector<std::pair<std::uint32_t, ProgramFactory>> programs_;
  std::vector<std::int32_t> shared_;
  /// What the dispatched body sees; pointed at it before each step.
  StepEnv env_;
  support::Rng noise_rng_{0};
  TaskId running_ = kInvalidTask;
  SlotMask runnable_ = 0;
  SlotMask yielded_ = 0;
  std::size_t live_count_ = 0;
  bool panicked_ = false;
  std::string panic_reason_;
  sim::Tick tick_ = 0;
  sim::Tick last_gc_ = 0;
  std::uint64_t service_calls_ = 0;
  std::uint64_t wait_graph_epoch_ = 0;
};

}  // namespace ptest::pcore

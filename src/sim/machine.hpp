#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "obs/telemetry.hpp"
#include "sim/calendar_queue.hpp"
#include "sim/fiber.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"
#include "sim/trace.hpp"

namespace mkbas::sim {

class Machine;

/// Thrown into a simulated process (out of a blocking point or on the next
/// kernel entry) when it has been killed. Process bodies generally let it
/// propagate; the machine's fiber wrapper catches it and retires the
/// process.
struct KilledError {};

/// Thrown by personality exit() syscalls to unwind the process body.
struct ProcessExit {
  int code = 0;
};

/// Verdict a message-fault filter returns for one in-flight message. The
/// default (all fields zero) lets the message through untouched. Kernel
/// personalities consult the machine's filter at their send paths, so a
/// fault plan can drop/delay/corrupt traffic on any platform without the
/// kernels knowing who is injecting.
struct MsgFaultAction {
  bool drop = false;         // swallow the message (sender sees success)
  bool corrupt = false;      // flip payload bytes before delivery
  std::uint64_t corrupt_seed = 0;  // deterministic corruption stream
  Duration delay = 0;        // extra in-transit latency to charge/stamp
};

/// Called by kernel send paths with (sender name, receiver name). Must be
/// deterministic for replay: derive randomness from seeds carried in the
/// action, never from wall clock.
using MsgFaultFilter =
    std::function<MsgFaultAction(const std::string& src, const std::string& dst)>;

/// Deterministically flip 1–4 bytes of `data` based on `seed` (splitmix64).
/// No-op for len == 0. Shared by every personality's corrupt-in-transit
/// path so the same seed produces the same damage everywhere.
inline void corrupt_bytes(std::uint8_t* data, std::size_t len,
                          std::uint64_t seed) {
  if (data == nullptr || len == 0) return;
  std::uint64_t x = seed;
  auto next = [&x]() {
    x += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  };
  const std::size_t flips = 1 + static_cast<std::size_t>(next() % 4);
  for (std::size_t i = 0; i < flips; ++i) {
    const std::size_t pos = static_cast<std::size_t>(next() % len);
    const auto mask = static_cast<std::uint8_t>(1u << (next() % 8));
    data[pos] ^= mask;
  }
}

enum class ProcState {
  kReady,    // runnable, waiting for the scheduler baton
  kRunning,  // the (single) process currently executing
  kBlocked,  // waiting on IPC / a timer / a personality wait queue
  kZombie,   // body finished; fiber is dead
};

const char* to_string(ProcState s);

/// A simulated process. Its body runs on a user-level fiber with a pooled,
/// guard-paged stack (sim/fiber.hpp); the Machine switches exactly one
/// fiber in at a time, so the interleaving is deterministic and a context
/// switch is a user-space register swap with no system call (on x86-64;
/// other targets use ucontext, which makes one), not an OS futex round
/// trip.
///
/// Personalities (MINIX / seL4 / Linux kernels) attach their own PCB data
/// keyed by pid and register exit hooks for cleanup.
class Process {
 public:
  int pid() const { return pid_; }
  const std::string& name() const { return name_; }
  int priority() const { return priority_; }
  ProcState state() const { return state_; }
  bool kill_pending() const { return killed_; }
  bool suspended() const { return suspended_; }
  bool crashed() const { return crashed_; }
  const std::string& crash_reason() const { return crash_reason_; }
  const char* block_reason() const { return block_reason_; }

  /// Register cleanup to run (in machine context) when this process exits
  /// or is killed. Hooks run in registration order.
  void add_exit_hook(std::function<void(Process&)> hook) {
    exit_hooks_.push_back(std::move(hook));
  }

 private:
  friend class Machine;

  Process(int pid, std::string name, int priority)
      : pid_(pid), name_(std::move(name)), priority_(priority) {}

  int pid_;
  std::string name_;
  int priority_;
  ProcState state_ = ProcState::kReady;
  bool killed_ = false;
  bool suspended_ = false;
  bool pending_wake_ = false;  // a wakeup arrived while suspended
  bool crashed_ = false;
  std::string crash_reason_;
  const char* block_reason_ = "";
  std::uint64_t wake_seq_ = 0;  // invalidates stale timer wakeups
  Machine* machine_ = nullptr;
  FiberContext fiber_;
  void* stack_ = nullptr;           // pooled stack; recycled on retirement
  std::function<void()> body_;
  std::vector<std::function<void(Process&)>> exit_hooks_;
};

/// Ring-buffer deque of Process* used for the per-priority ready queues.
/// Same FIFO/front semantics as the std::deque it replaces, but backed by
/// one power-of-two vector that only ever grows: a std::deque cycling at
/// steady state frees and reallocates a 512-byte block every 64
/// push/pop crossings, which was the last allocator touch left on the
/// make_ready path (two per delivered message).
class ProcRing {
 public:
  bool empty() const { return count_ == 0; }
  std::size_t size() const { return count_; }

  void push_back(Process* p) {
    grow_if_full();
    buf_[(head_ + count_) & mask()] = p;
    ++count_;
  }
  void push_front(Process* p) {
    grow_if_full();
    head_ = (head_ + buf_.size() - 1) & mask();
    buf_[head_] = p;
    ++count_;
  }
  Process* front() const { return buf_[head_]; }
  Process* pop_front() {
    Process* p = buf_[head_];
    head_ = (head_ + 1) & mask();
    --count_;
    return p;
  }
  /// Remove the first occurrence of `p`, preserving the order of the
  /// rest (suspend() plucking a ready process). Returns false when absent.
  bool erase(Process* p) {
    for (std::size_t i = 0; i < count_; ++i) {
      if (buf_[(head_ + i) & mask()] != p) continue;
      for (std::size_t j = i; j + 1 < count_; ++j) {
        buf_[(head_ + j) & mask()] = buf_[(head_ + j + 1) & mask()];
      }
      --count_;
      return true;
    }
    return false;
  }

 private:
  std::size_t mask() const { return buf_.size() - 1; }
  void grow_if_full() {
    if (count_ < buf_.size()) return;
    if (buf_.empty()) {
      buf_.resize(8);
      return;
    }
    std::vector<Process*> bigger(buf_.size() * 2);
    for (std::size_t i = 0; i < count_; ++i) {
      bigger[i] = buf_[(head_ + i) & mask()];
    }
    head_ = 0;
    buf_ = std::move(bigger);
  }

  std::vector<Process*> buf_;  // power-of-two capacity (or empty)
  std::size_t head_ = 0;
  std::size_t count_ = 0;
};

/// The simulated machine: virtual clock, deterministic priority scheduler,
/// timers and the global trace log. One Machine hosts one kernel
/// personality plus the simulated plant and network.
///
/// Execution model: every simulated process is a cooperatively-scheduled
/// fiber hosted on whichever OS thread is driving run()/run_until(). A
/// blocking syscall switches straight to the next ready fiber (or back to
/// the driver when nobody is runnable, so the driver can advance the
/// virtual clock to the next timer). There is no OS-level parallelism
/// inside one machine — exactly one fiber executes at any instant — which
/// both makes the interleaving deterministic and keeps a simulated context
/// switch off the syscall path entirely. Given a fixed seed and spawn
/// order the whole simulation is reproducible.
///
/// A machine takes no lock: one thread at a time drives it. Campaign and
/// daemon cells each build their own, and net::Fabric shards whole
/// components across pool workers and joins them before any read that
/// crosses components.
class Machine {
 public:
  static constexpr int kNumPriorities = 16;
  static constexpr int kDefaultPriority = 7;
  static constexpr int kMaxProcs = 256;  // mirrors MINIX's NR_PROCS scale

  explicit Machine(std::uint64_t seed = 1);
  ~Machine();

  /// Kill every live process and let each unwind on its fiber. Idempotent;
  /// called automatically by the destructor. Kernel personalities call
  /// this from their own destructors so process bodies and exit hooks
  /// never observe a dead kernel object.
  void shutdown();

  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  // ---- Driver API (call from the test / bench / example thread) ----

  /// Create a process whose body starts at the next scheduling opportunity.
  /// Also callable from process context (fork-style spawning).
  /// Returns nullptr when the process table (kMaxProcs) is full.
  Process* spawn(std::string name, std::function<void()> body,
                 int priority = kDefaultPriority);

  /// Run until the machine is fully idle: no runnable process, no pending
  /// timer, no scheduled driver callback. Periodic every() callbacks never
  /// let this return; prefer run_until()/run_for() with them.
  void run();

  /// Run, advancing the virtual clock at most to `t`.
  void run_until(Time t);

  /// Run for `d` more microseconds of virtual time.
  void run_for(Duration d);

  /// Earliest virtual time at which this machine has work to do: now()
  /// when a process is ready to run, the earliest pending timer
  /// otherwise, kTimeNever when fully idle. Lets an external
  /// conservative-sync scheduler (net::Fabric's lookahead engine) advance
  /// machines event-by-event instead of in lockstep epochs.
  Time next_event_time() const;

  /// Schedule a driver callback at virtual time `t` (runs in machine
  /// context while the clock is at `t`; it must not block).
  void at(Time t, std::function<void()> fn);

  /// Schedule a periodic driver callback starting at `start`.
  void every(Time start, Duration period, std::function<void()> fn);

  Time now() const { return now_; }
  TraceLog& trace() { return trace_; }
  const TraceLog& trace() const { return trace_; }
  /// The machine's six mergeable observability parts as one bundle —
  /// what campaign cells snapshot and fabrics fold in node order.
  obs::Telemetry& telemetry() { return telemetry_; }
  const obs::Telemetry& telemetry() const { return telemetry_; }
  /// Machine-wide metrics registry. Kernel personalities and scenarios
  /// resolve their handles from it once, at construction time.
  obs::MetricsRegistry& metrics() { return telemetry_.metrics; }
  const obs::MetricsRegistry& metrics() const { return telemetry_.metrics; }
  /// Causal span store. Kernel personalities open IPC flow spans here
  /// and propagate SpanContext kernel-side; scenarios open the
  /// sensor/control/actuation scoped spans.
  obs::SpanStore& spans() { return telemetry_.spans; }
  const obs::SpanStore& spans() const { return telemetry_.spans; }
  /// Security audit journal: denials and verdicts with causal chains.
  obs::AuditJournal& audit() { return telemetry_.audit; }
  const obs::AuditJournal& audit() const { return telemetry_.audit; }
  /// Windowed time-series store (continuous telemetry; bounded rings).
  obs::SeriesStore& series() { return telemetry_.series; }
  const obs::SeriesStore& series() const { return telemetry_.series; }
  /// Health monitor: EWMA/CUSUM anomaly detectors over the series feed.
  /// Events land in the audit journal and trip the flight recorder.
  obs::HealthMonitor& health() { return telemetry_.health; }
  const obs::HealthMonitor& health() const { return telemetry_.health; }
  /// Always-on flight recorder: snapshots recent telemetry on detector
  /// firings, security denials and fault injections.
  obs::FlightRecorder& flight() { return telemetry_.flight; }
  const obs::FlightRecorder& flight() const { return telemetry_.flight; }
  /// Fabric node index, part of the span-id derivation (default 0).
  void set_machine_id(int id) { telemetry_.set_machine(id); }
  int machine_id() const { return telemetry_.spans.machine(); }
  Rng& rng() { return rng_; }
  std::uint64_t context_switches() const { return context_switches_; }
  std::uint64_t kernel_entries() const { return kernel_entries_; }
  /// Where process stacks come from; a retired process's stack goes back
  /// to it and the next spawn reuses it.
  const FiberStackPool& stack_pool() const { return stack_pool_; }

  /// Virtual CPU cost charged on every kernel entry (default 1us).
  void set_syscall_cost(Duration d) { syscall_cost_ = d; }
  Duration syscall_cost() const { return syscall_cost_; }

  /// Install (or clear, with an empty function) the message-fault filter
  /// that kernel send paths consult. At most one filter is active; the
  /// fault injector owns it for the duration of a campaign.
  void set_msg_filter(MsgFaultFilter f) { msg_filter_ = std::move(f); }
  const MsgFaultFilter& msg_filter() const { return msg_filter_; }

  /// Clock-jitter amplitude: when > 0, every sleep deadline is perturbed
  /// by a uniform offset in [-amplitude, +amplitude] drawn from the
  /// machine RNG. Deterministic for a fixed seed; 0 disables (default).
  void set_clock_jitter(Duration amplitude) { clock_jitter_ = amplitude; }
  Duration clock_jitter() const { return clock_jitter_; }

  std::vector<Process*> live_processes();

  /// Visit every live process in pid order without allocating. The
  /// per-tick scans (fault injector, health sweeps) use this instead of
  /// materialising a fresh vector via live_processes().
  template <typename F>
  void for_each_live(F&& f) {
    for (auto& up : procs_) {
      if (up->state_ != ProcState::kZombie) f(*up);
    }
  }

  Process* find_process(int pid);
  int live_count() const { return live_count_; }
  bool is_shutting_down() const { return shutting_down_; }

  // ---- Kernel API (call from a process fiber, i.e. inside a syscall) ----

  /// The process currently executing on this thread, or nullptr when called
  /// from the driver context.
  Process* current();

  /// Mark a kernel entry: charges syscall cost, bumps the counter and
  /// raises KilledError if a kill is pending for the caller.
  void enter_kernel();

  /// Block the calling process until someone calls make_ready() on it.
  /// Throws KilledError if the process is killed while blocked.
  void block_current(const char* reason);

  /// Move a blocked process to the ready queue. No-op for non-blocked
  /// processes. Callable from kernel context and from driver callbacks.
  void make_ready(Process* p);

  /// Mark `p` killed. If blocked it becomes runnable and will observe the
  /// kill at its blocking point; otherwise at its next kernel entry.
  void kill(Process* p);

  /// Administratively suspend a non-running process: it will not be
  /// scheduled (wakeups are deferred) until resume(). Kill overrides
  /// suspension. Models seL4 TCB_Suspend.
  void suspend(Process* p);
  void resume(Process* p);

  /// Block the caller until virtual time `t`.
  void sleep_until(Time t);
  void sleep_for(Duration d);

  /// Charge `cpu` microseconds of virtual CPU time to the caller. Fires any
  /// timers that become due; yields if a higher-priority process woke up.
  void charge(Duration cpu);

  /// Voluntarily reschedule (round-robin within the priority level).
  void yield();

 private:
  struct Timer {
    Time when;
    std::uint64_t seq;  // tie-break + stale-wakeup guard
    int pid;            // -1 for driver callbacks
    std::uint64_t wake_seq;
    std::function<void()> fn;  // driver callback (empty for process wakeups)
    Duration period = 0;       // >0 for periodic callbacks

    bool operator>(const Timer& o) const {
      return when != o.when ? when > o.when : seq > o.seq;
    }
  };

  void drive(Time limit, bool bounded);
  void schedule();
  void fire_due_timers();
  bool any_ready() const { return ready_bits_ != 0; }
  /// Enqueue a ready process, maintaining the priority bitmap.
  void push_ready(Process* p);
  void push_ready_front(Process* p);
  /// Dequeue the highest-priority ready process (nullptr when none). O(1):
  /// one count-trailing-zeros over the bitmap instead of a queue scan.
  Process* pop_ready();
  /// Give up execution from process fiber `p`: switch to whatever
  /// schedule picked (or back to the driver when nothing is runnable).
  /// Throws KilledError on resumption if `p` was killed.
  void switch_out(Process* p);
  /// Driver side: switch into running_ and take control back when the
  /// fibers have nothing left to do (or the pause deadline fired).
  void switch_to_running();
  /// Recycle the stack of a fiber that finished since the last switch.
  void reap_pending();
  void retire(Process* p, bool crashed, std::string reason);
  void fiber_entry(Process* p);
  static void fiber_trampoline(unsigned hi, unsigned lo);
  void maybe_preempt();

  Time now_ = 0;
  Duration syscall_cost_ = 1;
  TraceLog trace_;
  obs::Telemetry telemetry_;
  obs::Counter ctx_switch_metric_;
  obs::Counter kernel_entry_metric_;
  Rng rng_;
  MsgFaultFilter msg_filter_;
  Duration clock_jitter_ = 0;

  // Stacks outlive procs_ (declared first => destroyed last).
  FiberStackPool stack_pool_;
  FiberContext driver_ctx_;
  Process* pending_reap_ = nullptr;

  std::vector<std::unique_ptr<Process>> procs_;  // index != pid; append-only
  int next_pid_ = 1;
  int live_count_ = 0;
  Process* running_ = nullptr;
  Process* last_scheduled_ = nullptr;
  ProcRing ready_[kNumPriorities];
  // Bit p set <=> ready_[p] is non-empty. Scheduler picks with a single
  // count-trailing-zeros; "anyone ready?" and "anyone more urgent?" are
  // one mask test each instead of a 16-queue scan per context switch.
  std::uint32_t ready_bits_ = 0;
  CalendarQueue<Timer> timers_;
  std::uint64_t timer_seq_ = 0;
  std::uint64_t context_switches_ = 0;
  std::uint64_t kernel_entries_ = 0;
  bool shutting_down_ = false;
  bool shutdown_done_ = false;
  // Set by the run_until() deadline timer so CPU-bound simulations hand
  // the baton back to the driver at the virtual-time limit.
  bool pause_requested_ = false;
};

}  // namespace mkbas::sim

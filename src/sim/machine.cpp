#include "sim/machine.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

namespace mkbas::sim {

namespace {
// Per-thread execution context. t_proc points at the simulated process
// whose fiber is currently executing on this OS thread (nullptr in driver
// context); t_in_machine is set while any machine code — driver loop or
// process fiber — runs on this thread, so a kill() from inside leaves the
// victim to the running loop instead of driving it to quiescence itself.
thread_local Process* t_proc = nullptr;
thread_local bool t_in_machine = false;
}  // namespace

const char* to_string(ProcState s) {
  switch (s) {
    case ProcState::kReady:
      return "ready";
    case ProcState::kRunning:
      return "running";
    case ProcState::kBlocked:
      return "blocked";
    case ProcState::kZombie:
      return "zombie";
  }
  return "?";
}

Machine::Machine(std::uint64_t seed)
    : ctx_switch_metric_(metrics().counter("sim.context_switches")),
      kernel_entry_metric_(metrics().counter("sim.kernel_entries")),
      rng_(seed) {
  // Continuous-telemetry wiring: health signals write windowed series
  // and journal anomalies; the flight recorder snapshots recent
  // telemetry on anomalies, security denials and fault injections (the
  // fault injector triggers it directly).
  health().wire(&series(), &audit(), &spans());
  flight().wire(&series(), &spans(), &health());
  health().set_on_event([this](const obs::HealthEvent& e) {
    flight().trigger(
        e.time, "health." + sim::TagRegistry::instance().name(e.signal),
        to_string(e.kind));
  });
  audit().set_on_record([this](const obs::AuditEntry& e) {
    const std::string& kind = sim::TagRegistry::instance().name(e.kind);
    if (kind.find("deny") == std::string::npos) return;
    flight().trigger(e.time, "audit." + kind, e.detail);
  });
}

Machine::~Machine() { shutdown(); }

void Machine::shutdown() {
  if (shutdown_done_) return;
  const bool was_in_machine = t_in_machine;
  t_in_machine = true;
  shutting_down_ = true;
  fiber_bind_native(driver_ctx_);
  for (auto& up : procs_) {
    if (up->state_ != ProcState::kZombie) kill(up.get());
  }
  // Give every killed process the fiber so it can observe the kill and
  // unwind. Loop because exit hooks may ready further processes.
  for (;;) {
    schedule();
    if (running_ == nullptr) break;  // nothing ready => all unwound
    switch_to_running();
  }
  t_in_machine = was_in_machine;
  shutdown_done_ = true;
}

// ---- Spawning and the process lifecycle ----

Process* Machine::spawn(std::string name, std::function<void()> body,
                        int priority) {
  if (shutting_down_) return nullptr;
  if (live_count_ >= kMaxProcs) {
    trace_.emit(now_, -1, TraceKind::kProcess, "proc.table_full",
                "spawn of '" + name + "' rejected");
    return nullptr;
  }
  priority = std::clamp(priority, 0, kNumPriorities - 1);
  auto owned = std::unique_ptr<Process>(
      new Process(next_pid_++, std::move(name), priority));
  Process* p = owned.get();
  procs_.push_back(std::move(owned));
  ++live_count_;
  push_ready(p);
  trace_.emit(now_, p->pid_, TraceKind::kProcess, "proc.spawn", p->name_);
  p->machine_ = this;
  p->body_ = std::move(body);
  p->stack_ = stack_pool_.acquire();
  fiber_create(p->fiber_, p->stack_, stack_pool_.usable(),
               &Machine::fiber_trampoline, p);
  return p;
}

void Machine::fiber_trampoline(unsigned hi, unsigned lo) {
  const auto bits =
      (static_cast<std::uintptr_t>(hi) << 32) | static_cast<std::uintptr_t>(lo);
  auto* p = reinterpret_cast<Process*>(bits);
  p->machine_->fiber_entry(p);
}

void Machine::fiber_entry(Process* p) {
  fiber_on_entry(p->fiber_);
  t_proc = p;
  reap_pending();
  bool crashed = false;
  std::string reason;
  try {
    // Killed before the first activation: observe it before the body runs,
    // exactly like a baton wait would have.
    if (p->killed_) throw KilledError{};
    p->body_();
  } catch (const KilledError&) {
    // Normal kill path: nothing to record beyond the retirement event.
  } catch (const ProcessExit&) {
    // Voluntary exit via a personality's exit() syscall.
  } catch (const std::exception& e) {
    crashed = true;
    reason = e.what();
  } catch (...) {
    crashed = true;
    reason = "unknown exception";
  }
  retire(p, crashed, std::move(reason));
  p->body_ = nullptr;  // release captured state before the stack goes away
  t_proc = nullptr;
  pending_reap_ = p;  // whoever gains control recycles our stack
  FiberContext& target =
      running_ != nullptr ? running_->fiber_ : driver_ctx_;
  fiber_switch_final(p->fiber_, target);
}

void Machine::retire(Process* p, bool crashed, std::string reason) {
  // Publish the death cause before exit hooks run: kernel personalities
  // distinguish crashes/kills from voluntary exits in their cleanup.
  p->crashed_ = crashed;
  p->crash_reason_ = std::move(reason);
  for (auto& hook : p->exit_hooks_) hook(*p);
  p->exit_hooks_.clear();
  p->state_ = ProcState::kZombie;
  --live_count_;
  // Spans the process left open (it died mid-operation) close as
  // abandoned — the trace keeps the gap a reincarnation bridges.
  spans().process_gone(p->pid_, now_);
  if (crashed) {
    trace_.emit(now_, p->pid_, TraceKind::kProcess, "proc.crash",
                p->name_ + ": " + p->crash_reason_);
  } else if (p->killed_) {
    trace_.emit(now_, p->pid_, TraceKind::kProcess, "proc.killed", p->name_);
  } else {
    trace_.emit(now_, p->pid_, TraceKind::kProcess, "proc.exit", p->name_);
  }
  if (running_ == p) running_ = nullptr;
  schedule();
}

// ---- Scheduling ----

void Machine::push_ready(Process* p) {
  ready_[p->priority_].push_back(p);
  ready_bits_ |= 1u << p->priority_;
}

void Machine::push_ready_front(Process* p) {
  ready_[p->priority_].push_front(p);
  ready_bits_ |= 1u << p->priority_;
}

Process* Machine::pop_ready() {
  if (ready_bits_ == 0) return nullptr;
  const int pr = std::countr_zero(ready_bits_);
  auto& q = ready_[pr];
  Process* p = q.front();
  q.pop_front();
  if (q.empty()) ready_bits_ &= ~(1u << pr);
  return p;
}

void Machine::schedule() {
  if (running_ != nullptr) return;  // baton already assigned
  Process* p = pop_ready();
  if (p == nullptr) return;
  p->state_ = ProcState::kRunning;
  running_ = p;
  if (p != last_scheduled_) {
    ++context_switches_;
    ctx_switch_metric_.inc();
  }
  last_scheduled_ = p;
}

void Machine::switch_out(Process* p) {
  FiberContext& target =
      running_ != nullptr ? running_->fiber_ : driver_ctx_;
  t_proc = nullptr;
  fiber_switch(p->fiber_, target);
  // Scheduled again: we own execution until the next give-up point.
  t_proc = p;
  reap_pending();
  if (p->killed_) throw KilledError{};
}

void Machine::switch_to_running() {
  fiber_switch(driver_ctx_, running_->fiber_);
  // The fibers handed back: nothing runnable, or the pause deadline fired.
  t_proc = nullptr;
  reap_pending();
}

void Machine::reap_pending() {
  Process* dead = pending_reap_;
  if (dead == nullptr) return;
  pending_reap_ = nullptr;
  fiber_destroy(dead->fiber_);
  stack_pool_.release(dead->stack_);
  dead->stack_ = nullptr;
}

Process* Machine::current() { return t_proc; }

void Machine::enter_kernel() {
  Process* p = t_proc;
  assert(p != nullptr && "enter_kernel outside process context");
  ++kernel_entries_;
  kernel_entry_metric_.inc();
  if (p->killed_) throw KilledError{};
  charge(syscall_cost_);
}

void Machine::block_current(const char* reason) {
  Process* p = t_proc;
  assert(p != nullptr && "block_current outside process context");
  p->state_ = ProcState::kBlocked;
  p->block_reason_ = reason;
  ++p->wake_seq_;
  running_ = nullptr;
  schedule();
  switch_out(p);
}

void Machine::make_ready(Process* p) {
  if (p == nullptr || p->state_ != ProcState::kBlocked) return;
  if (p->suspended_) {
    p->pending_wake_ = true;  // delivered on resume()
    return;
  }
  p->state_ = ProcState::kReady;
  push_ready(p);
  schedule();
}

void Machine::suspend(Process* p) {
  if (p == nullptr || p->state_ == ProcState::kZombie || p->suspended_) {
    return;
  }
  assert(p->state_ != ProcState::kRunning &&
         "cannot suspend the running process");
  p->suspended_ = true;
  if (p->state_ == ProcState::kReady) {
    auto& q = ready_[p->priority_];
    q.erase(p);
    if (q.empty()) ready_bits_ &= ~(1u << p->priority_);
    p->state_ = ProcState::kBlocked;
    p->block_reason_ = "suspended";
    p->pending_wake_ = true;  // it was runnable; resume must requeue it
  }
}

void Machine::resume(Process* p) {
  if (p == nullptr || !p->suspended_) return;
  p->suspended_ = false;
  if (p->pending_wake_) {
    p->pending_wake_ = false;
    make_ready(p);
  }
}

void Machine::kill(Process* p) {
  if (p == nullptr || p->state_ == ProcState::kZombie) return;
  p->killed_ = true;
  p->suspended_ = false;  // kill overrides suspension
  if (p->state_ == ProcState::kBlocked) make_ready(p);
  if (t_in_machine) return;
  // No driver loop is active, so drive the victim — and anything its
  // unwinding readies — to quiescence here: a kill from the driver is
  // complete when it returns.
  t_in_machine = true;
  if (running_ != nullptr) {
    fiber_bind_native(driver_ctx_);
    while (running_ != nullptr) switch_to_running();
  }
  t_in_machine = false;
}

void Machine::yield() {
  Process* p = t_proc;
  assert(p != nullptr && "yield outside process context");
  p->state_ = ProcState::kReady;
  push_ready(p);
  running_ = nullptr;
  schedule();
  switch_out(p);
}

void Machine::maybe_preempt() {
  Process* p = running_;
  if (p == nullptr || p != t_proc) return;
  // Anyone ready at a strictly higher priority? One mask test.
  if ((ready_bits_ & ((1u << p->priority_) - 1)) == 0) return;
  p->state_ = ProcState::kReady;
  push_ready(p);
  running_ = nullptr;
  schedule();
  switch_out(p);
}

// ---- Virtual time ----

void Machine::charge(Duration cpu) {
  assert(t_proc != nullptr && "charge outside process context");
  now_ += cpu;
  fire_due_timers();
  if (pause_requested_ && running_ == t_proc) {
    // The driver's run_until() deadline passed: park ourselves as ready
    // (not blocked) and hand control back without scheduling a successor.
    // Park at the FRONT of the priority queue: the next run_until() must
    // resume exactly where an uninterrupted run would have continued, or
    // the schedule (and its context-switch trail) depends on how finely
    // the driver slices time — lookahead sync drives machines in far
    // smaller steps than the epoch barrier.
    Process* p = t_proc;
    p->state_ = ProcState::kReady;
    push_ready_front(p);
    running_ = nullptr;
    switch_out(p);  // running_ is null => straight to the driver
    return;
  }
  maybe_preempt();
}

void Machine::sleep_until(Time t) {
  Process* p = t_proc;
  assert(p != nullptr && "sleep outside process context");
  if (p->killed_) throw KilledError{};
  if (clock_jitter_ > 0 && t > now_) {
    // Fault-injected clock skew: perturb the deadline by a uniform offset
    // in [-amplitude, +amplitude], never waking before "now". Drawing from
    // the machine RNG keeps replays bit-identical for a fixed seed.
    const auto amp = static_cast<std::uint64_t>(clock_jitter_);
    const auto off =
        static_cast<Duration>(rng_.next_u64() % (2 * amp + 1)) - clock_jitter_;
    t = t + off <= now_ ? now_ + 1 : t + off;
  }
  if (t <= now_) {
    yield();
    return;
  }
  timers_.push(Timer{t, ++timer_seq_, p->pid_, p->wake_seq_ + 1, {}, 0});
  block_current("sleep");
}

void Machine::sleep_for(Duration d) { sleep_until(now_ + d); }

void Machine::fire_due_timers() {
  while (timers_.min_when() <= now_) {
    Timer t = timers_.pop();
    if (t.pid >= 0) {
      Process* p = find_process(t.pid);
      if (p != nullptr && p->state_ == ProcState::kBlocked &&
          p->wake_seq_ == t.wake_seq) {
        make_ready(p);
      }
    } else {
      if (t.fn) t.fn();
      if (t.period > 0 && !shutting_down_) {
        timers_.push(Timer{t.when + t.period, ++timer_seq_, -1, 0,
                           std::move(t.fn), t.period});
      }
    }
  }
}

void Machine::at(Time t, std::function<void()> fn) {
  timers_.push(Timer{t, ++timer_seq_, -1, 0, std::move(fn), 0});
}

void Machine::every(Time start, Duration period, std::function<void()> fn) {
  assert(period > 0);
  timers_.push(Timer{start, ++timer_seq_, -1, 0, std::move(fn), period});
}

// ---- The driver loop ----

void Machine::run() { drive(0, /*bounded=*/false); }

void Machine::run_until(Time t) { drive(t, /*bounded=*/true); }

void Machine::run_for(Duration d) { drive(now_ + d, /*bounded=*/true); }

Time Machine::next_event_time() const {
  if (running_ != nullptr || ready_bits_ != 0) return now_;
  if (timers_.empty()) return kTimeNever;
  // A timer can sit at <= now_ (a stale run_until deadline whose run
  // ended early); clamping keeps the contract "never in the past" and
  // the next run_until fires it immediately.
  return std::max(now_, timers_.min_when());
}

void Machine::drive(Time limit, bool bounded) {
  t_in_machine = true;
  fiber_bind_native(driver_ctx_);
  if (bounded) {
    if (limit <= now_) {
      t_in_machine = false;
      return;
    }
    // Deadline timer: lets CPU-bound simulations pause at the limit.
    timers_.push(Timer{limit, ++timer_seq_, -1, 0,
                       [this] { pause_requested_ = true; }, 0});
  }
  for (;;) {
    schedule();
    // Fibers hand control back only when nothing is runnable or the pause
    // deadline fired — the same condition the old idle wait asserted.
    if (running_ != nullptr) switch_to_running();
    if (bounded && now_ >= limit) break;
    if (any_ready()) continue;  // a driver callback readied someone
    if (timers_.empty()) {
      if (bounded && now_ < limit) now_ = limit;
      break;
    }
    const Time next = timers_.min_when();
    if (bounded && next > limit) {
      now_ = limit;
      break;
    }
    now_ = std::max(now_, next);
    fire_due_timers();
  }
  pause_requested_ = false;
  t_in_machine = false;
}

// ---- Introspection ----

std::vector<Process*> Machine::live_processes() {
  std::vector<Process*> out;
  for (auto& up : procs_) {
    if (up->state_ != ProcState::kZombie) out.push_back(up.get());
  }
  return out;
}

Process* Machine::find_process(int pid) {
  // A linear scan over an append-only vector is fast at our scale.
  for (auto& up : procs_) {
    if (up->pid_ == pid) return up.get();
  }
  return nullptr;
}

}  // namespace mkbas::sim

#pragma once

#if !defined(__x86_64__)
#include <ucontext.h>
#endif

#include <cstddef>
#include <cstdint>
#include <vector>

namespace mkbas::sim {

/// One switchable execution context. Either a real fiber (stack_bottom set,
/// created by fiber_create) or the native context of an OS thread that is
/// about to switch into a fiber (bound by fiber_bind_native). The sanitizer
/// bookkeeping fields let the same code run clean under ASan and TSan.
struct FiberContext {
#if defined(__x86_64__)
  void* sp = nullptr;  // saved stack pointer while switched out
#else
  ucontext_t uc;
#endif
  void* stack_bottom = nullptr;  // nullptr => native thread stack
  std::size_t stack_size = 0;
  void* asan_fake = nullptr;     // ASan fake-stack handle, travels with us
  void* tsan_fiber = nullptr;    // TSan fiber identity
  bool tsan_owned = false;       // we created tsan_fiber and must destroy it
};

/// Freelist of mmap'd fiber stacks. Each stack is `usable()` writable bytes
/// with a PROT_NONE guard page below (stacks grow down), mapped with
/// MAP_NORESERVE so a parked process costs only the pages it actually
/// touched. Released stacks are recycled in LIFO order — a fault campaign
/// that reincarnates a process thousands of times reuses one warm stack
/// instead of paging in a cold one per restart.
class FiberStackPool {
 public:
  static constexpr std::size_t kDefaultStackBytes = 256 * 1024;

  explicit FiberStackPool(std::size_t usable_bytes = kDefaultStackBytes);
  ~FiberStackPool();
  FiberStackPool(const FiberStackPool&) = delete;
  FiberStackPool& operator=(const FiberStackPool&) = delete;

  /// Lowest writable address of a stack (guard page sits just below).
  void* acquire();
  void release(void* bottom);

  std::size_t usable() const { return usable_; }
  std::size_t mapped_count() const { return slabs_.size(); }
  std::size_t free_count() const { return free_.size(); }

 private:
  std::size_t usable_ = 0;
  std::size_t page_ = 4096;
  std::vector<void*> slabs_;  // mapping bases (for munmap)
  std::vector<void*> free_;   // recycled usable-bottoms
};

/// Entry signature of a fiber: a pointer split into two unsigned halves
/// (the portable way to smuggle 64 bits through makecontext's int varargs,
/// kept on every target so callers need no #if).
using FiberEntry = void (*)(unsigned, unsigned);

/// Prepare `f` to run `entry(hi(arg), lo(arg))` on the given stack. The
/// entry function must never return (it must fiber_switch_final away).
/// The fiber starts with the caller's floating-point control state
/// (rounding mode, FTZ/DAZ, x87 precision).
void fiber_create(FiberContext& f, void* stack_bottom, std::size_t size,
                  FiberEntry entry, void* arg);

/// Capture the sanitizer identity of the calling OS thread into `f` so
/// fibers can switch back to it. Call on the driving thread before the
/// first switch of each run; cheap no-op in plain builds.
void fiber_bind_native(FiberContext& f);

/// Switch from `from` (the currently executing context) to `to`. Returns
/// when something later switches back into `from`, possibly on another OS
/// thread. On x86-64 it saves and restores the callee-saved registers and
/// the floating-point control state, and makes no system call; other
/// targets use swapcontext.
void fiber_switch(FiberContext& from, FiberContext& to);

/// Switch away from a terminating fiber. Its stack may be recycled once the
/// switch has completed (i.e. by the context that receives control).
[[noreturn]] void fiber_switch_final(FiberContext& from, FiberContext& to);

/// Must be the first call inside a fiber entry function (finishes the
/// sanitizer switch protocol for the first activation).
void fiber_on_entry(FiberContext& self);

/// Release sanitizer resources for a dead fiber. Call only after control has
/// left it for good (fiber_switch_final completed, or nothing will switch
/// into it again), never from the fiber itself. Its stack may then go to
/// fiber_create again, whatever frames were left on it.
void fiber_destroy(FiberContext& f);

}  // namespace mkbas::sim

#include "sim/fiber.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#ifndef __has_feature
#define __has_feature(x) 0
#endif

#if defined(__SANITIZE_ADDRESS__) || __has_feature(address_sanitizer)
#define MKBAS_ASAN 1
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#else
#define MKBAS_ASAN 0
#endif

#if defined(__SANITIZE_THREAD__) || __has_feature(thread_sanitizer)
#define MKBAS_TSAN 1
#include <sanitizer/tsan_interface.h>
#else
#define MKBAS_TSAN 0
#endif

#if MKBAS_ASAN
#include <pthread.h>
#endif

#if defined(__x86_64__)
// The x86-64 switch. mkbas_fiber_swap(save, load) pushes what the SysV ABI
// makes callee-saved: rbx, rbp, r12-r15, and the control bits of the
// floating-point state, MXCSR (rounding, FTZ/DAZ, exception masks) and the
// x87 control word (precision, rounding), so that a fiber that changes its
// rounding mode does not change the next one's. It stores rsp through
// `save`, loads `load` into rsp and pops the same frame from that stack.
// Nothing else is saved: being a call, the switch lets the compiler assume
// every other register is clobbered, and no simulated process changes the
// signal mask, whose save and restore make glibc's swapcontext a syscall.
//
// A new fiber's stack holds the same frame, built by fiber_create, with
// mkbas_fiber_start as its return address: the stub calls entry (rbx) with
// the two argument halves (r12, r13). `.cfi_undefined rip` ends unwinds
// there.
extern "C" {
__attribute__((visibility("hidden"))) void mkbas_fiber_swap(void** save,
                                                            void* load);
__attribute__((visibility("hidden"))) void mkbas_fiber_start();
}

asm(R"(
  .pushsection .text,"ax",@progbits
  .globl mkbas_fiber_swap
  .hidden mkbas_fiber_swap
  .type mkbas_fiber_swap, @function
  .p2align 4
mkbas_fiber_swap:
  .cfi_startproc
  pushq %rbp; .cfi_adjust_cfa_offset 8; .cfi_rel_offset %rbp, 0
  pushq %rbx; .cfi_adjust_cfa_offset 8; .cfi_rel_offset %rbx, 0
  pushq %r12; .cfi_adjust_cfa_offset 8; .cfi_rel_offset %r12, 0
  pushq %r13; .cfi_adjust_cfa_offset 8; .cfi_rel_offset %r13, 0
  pushq %r14; .cfi_adjust_cfa_offset 8; .cfi_rel_offset %r14, 0
  pushq %r15; .cfi_adjust_cfa_offset 8; .cfi_rel_offset %r15, 0
  subq $8, %rsp; .cfi_adjust_cfa_offset 8
  stmxcsr (%rsp)
  fnstcw 4(%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr (%rsp)
  fldcw 4(%rsp)
  addq $8, %rsp; .cfi_adjust_cfa_offset -8
  popq %r15; .cfi_adjust_cfa_offset -8; .cfi_restore %r15
  popq %r14; .cfi_adjust_cfa_offset -8; .cfi_restore %r14
  popq %r13; .cfi_adjust_cfa_offset -8; .cfi_restore %r13
  popq %r12; .cfi_adjust_cfa_offset -8; .cfi_restore %r12
  popq %rbx; .cfi_adjust_cfa_offset -8; .cfi_restore %rbx
  popq %rbp; .cfi_adjust_cfa_offset -8; .cfi_restore %rbp
  ret
  .cfi_endproc
  .size mkbas_fiber_swap, .-mkbas_fiber_swap

  .globl mkbas_fiber_start
  .hidden mkbas_fiber_start
  .type mkbas_fiber_start, @function
  .p2align 4
mkbas_fiber_start:
  .cfi_startproc
  .cfi_undefined rip
  movl %r12d, %edi
  movl %r13d, %esi
  callq *%rbx
  ud2
  .cfi_endproc
  .size mkbas_fiber_start, .-mkbas_fiber_start
  .popsection
)");
#endif

namespace mkbas::sim {

namespace {

[[noreturn]] void die(const char* what) {
  std::perror(what);
  std::abort();
}

#if MKBAS_ASAN
// Stack bounds of the calling OS thread, resolved once per thread (the
// lookup parses /proc for the main thread; far too slow per switch).
void native_stack_bounds(void** bottom, std::size_t* size) {
  thread_local void* cached_bottom = nullptr;
  thread_local std::size_t cached_size = 0;
  if (cached_bottom == nullptr) {
    pthread_attr_t attr;
    if (pthread_getattr_np(pthread_self(), &attr) != 0) die("pthread_getattr_np");
    pthread_attr_getstack(&attr, &cached_bottom, &cached_size);
    pthread_attr_destroy(&attr);
  }
  *bottom = cached_bottom;
  *size = cached_size;
}
#endif

// Sanitizer bookkeeping around a context switch. `start` runs on the
// outgoing context just before the switch; `finish` runs on the incoming
// context just after it gains control (either when its own switch returns
// or at the top of its entry function).
inline void sanitizer_start_switch(FiberContext& from, FiberContext& to,
                                   bool from_terminating) {
#if MKBAS_ASAN
  __sanitizer_start_switch_fiber(from_terminating ? nullptr : &from.asan_fake,
                                 to.stack_bottom, to.stack_size);
#else
  (void)from;
  (void)to;
  (void)from_terminating;
#endif
#if MKBAS_TSAN
  __tsan_switch_to_fiber(to.tsan_fiber, 0);
#endif
}

inline void sanitizer_finish_switch(FiberContext& self) {
#if MKBAS_ASAN
  __sanitizer_finish_switch_fiber(self.asan_fake, nullptr, nullptr);
  self.asan_fake = nullptr;
#else
  (void)self;
#endif
}

inline void swap(FiberContext& from, FiberContext& to) {
#if defined(__x86_64__)
  mkbas_fiber_swap(&from.sp, to.sp);
#else
  if (swapcontext(&from.uc, &to.uc) != 0) die("swapcontext");
#endif
}

}  // namespace

// ---- FiberStackPool ----

FiberStackPool::FiberStackPool(std::size_t usable_bytes) {
  page_ = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  // Round the usable region up to whole pages; one extra page below is the
  // PROT_NONE guard that turns stack overflow into a clean fault.
  usable_ = (usable_bytes + page_ - 1) & ~(page_ - 1);
}

FiberStackPool::~FiberStackPool() {
  for (void* base : slabs_) munmap(base, page_ + usable_);
}

void* FiberStackPool::acquire() {
  if (!free_.empty()) {
    void* bottom = free_.back();
    free_.pop_back();
    return bottom;
  }
  void* base = mmap(nullptr, page_ + usable_, PROT_NONE,
                    MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (base == MAP_FAILED) die("mmap fiber stack");
  void* bottom = static_cast<char*>(base) + page_;
  if (mprotect(bottom, usable_, PROT_READ | PROT_WRITE) != 0) {
    die("mprotect fiber stack");
  }
  slabs_.push_back(base);
  return bottom;
}

void FiberStackPool::release(void* bottom) {
  assert(bottom != nullptr);
  free_.push_back(bottom);
}

// ---- Context switching ----

void fiber_create(FiberContext& f, void* stack_bottom, std::size_t size,
                  FiberEntry entry, void* arg) {
  f.stack_bottom = stack_bottom;
  f.stack_size = size;
  const auto bits = reinterpret_cast<std::uintptr_t>(arg);
#if defined(__x86_64__)
#if MKBAS_ASAN
  // A recycled stack can still hold the poisoned redzones of a fiber that
  // was abandoned while switched out. Clear them, as ASan's swapcontext
  // interceptor does for the stack it switches to.
  __asan_unpoison_memory_region(stack_bottom, size);
#endif
  std::uint32_t mxcsr = 0;
  std::uint16_t x87_cw = 0;
  asm volatile("stmxcsr %0\n\tfnstcw %1" : "=m"(mxcsr), "=m"(x87_cw));
  // The frame mkbas_fiber_swap pops, lowest address first. The two zero
  // words above the return address leave rsp 16-aligned when the stub
  // calls entry, so rsp is 8 mod 16 at entry, as the ABI requires.
  const std::uint64_t frame[] = {
      mxcsr | std::uint64_t{x87_cw} << 32,
      0,                                            // r15
      0,                                            // r14
      bits & 0xffffffffu,                           // r13: lo
      bits >> 32,                                   // r12: hi
      reinterpret_cast<std::uintptr_t>(entry),      // rbx
      0,                                            // rbp
      reinterpret_cast<std::uintptr_t>(&mkbas_fiber_start),
      0,
      0,
  };
  const std::uintptr_t top =
      (reinterpret_cast<std::uintptr_t>(stack_bottom) + size) &
      ~std::uintptr_t{15};
  f.sp = reinterpret_cast<void*>(top - sizeof frame);
  std::memcpy(f.sp, frame, sizeof frame);
#else
  if (getcontext(&f.uc) != 0) die("getcontext");
  f.uc.uc_stack.ss_sp = stack_bottom;
  f.uc.uc_stack.ss_size = size;
  f.uc.uc_link = nullptr;  // entry must fiber_switch_final, never return
  const auto hi = static_cast<unsigned>(bits >> 32);
  const auto lo = static_cast<unsigned>(bits & 0xffffffffu);
  makecontext(&f.uc, reinterpret_cast<void (*)()>(entry), 2, hi, lo);
#endif
#if MKBAS_TSAN
  f.tsan_fiber = __tsan_create_fiber(0);
  f.tsan_owned = true;
#endif
}

void fiber_bind_native(FiberContext& f) {
#if MKBAS_ASAN
  native_stack_bounds(&f.stack_bottom, &f.stack_size);
#endif
#if MKBAS_TSAN
  f.tsan_fiber = __tsan_get_current_fiber();
  f.tsan_owned = false;
#endif
  (void)f;
}

void fiber_switch(FiberContext& from, FiberContext& to) {
  sanitizer_start_switch(from, to, /*from_terminating=*/false);
  swap(from, to);
  // Control has come back to `from`.
  sanitizer_finish_switch(from);
}

void fiber_switch_final(FiberContext& from, FiberContext& to) {
  sanitizer_start_switch(from, to, /*from_terminating=*/true);
  swap(from, to);
  std::abort();  // a dead fiber must never be switched back into
}

void fiber_on_entry(FiberContext& self) { sanitizer_finish_switch(self); }

void fiber_destroy(FiberContext& f) {
#if MKBAS_TSAN
  if (f.tsan_owned && f.tsan_fiber != nullptr) {
    __tsan_destroy_fiber(f.tsan_fiber);
    f.tsan_fiber = nullptr;
    f.tsan_owned = false;
  }
#else
  (void)f;
#endif
}

}  // namespace mkbas::sim

// The fiber switch: what it must carry across a switch (callee-saved
// registers, the floating-point control state, an unwindable stack) and
// what fiber_create must set up (the entry argument, ABI stack alignment,
// a recycled stack). Each check fails against a switch that drops the
// state it guards.
#include "sim/fiber.hpp"

#include <gtest/gtest.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <atomic>
#include <cfenv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <functional>
#include <new>
#include <stdexcept>
#include <string>
#include <thread>

#if defined(__x86_64__)
#include <xmmintrin.h>
#endif

#ifndef __has_feature
#define __has_feature(x) 0
#endif
#if defined(__SANITIZE_ADDRESS__) || __has_feature(address_sanitizer)
#define MKBAS_TEST_ASAN 1
#include <sanitizer/asan_interface.h>
#endif

#include "sim/machine.hpp"

namespace sim = mkbas::sim;

namespace {

// A raw fiber driven from one native context: body(self) runs on its own
// stack and calls self.yield() to hand control back to `home`.
struct Fiber {
  sim::FiberContext ctx;
  sim::FiberContext* home = nullptr;
  void* stack = nullptr;
  std::function<void(Fiber&)> body;
  bool done = false;

  void yield() { sim::fiber_switch(ctx, *home); }
};

Fiber* unpack(unsigned hi, unsigned lo) {
  return reinterpret_cast<Fiber*>((static_cast<std::uintptr_t>(hi) << 32) |
                                  static_cast<std::uintptr_t>(lo));
}

void fiber_main(unsigned hi, unsigned lo) {
  Fiber* f = unpack(hi, lo);
  sim::fiber_on_entry(f->ctx);
  f->body(*f);
  f->done = true;
  sim::fiber_switch_final(f->ctx, *f->home);
}

// Owns the fibers, their stacks and the driver's context. start() creates
// a fiber on a fresh stack; resume() runs it to its next yield.
class Driver {
 public:
  Driver() { sim::fiber_bind_native(home_); }
  ~Driver() {
    for (Fiber& f : fibers_) {
      sim::fiber_destroy(f.ctx);
      stacks_.release(f.stack);
    }
  }
  Driver(const Driver&) = delete;
  Driver& operator=(const Driver&) = delete;

  Fiber& start(std::function<void(Fiber&)> body) {
    Fiber& f = fibers_.emplace_back();
    f.body = std::move(body);
    f.home = &home_;
    f.stack = stacks_.acquire();
    sim::fiber_create(f.ctx, f.stack, stacks_.usable(), fiber_main, &f);
    return f;
  }
  void resume(Fiber& f) { sim::fiber_switch(home_, f.ctx); }
  void run_to_end(Fiber& f) {
    while (!f.done) resume(f);
  }

 private:
  sim::FiberStackPool stacks_;
  sim::FiberContext home_;
  std::deque<Fiber> fibers_;  // stable addresses: the fibers hold them
};

std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Four values per level, live across a switch before and after the call
// below: they sit in callee-saved registers or in the frame, and a switch
// that loses either changes the sum. `yield` is a no-op for the reference.
template <typename Yield>
__attribute__((noinline)) std::uint64_t recurse(int depth, std::uint64_t seed,
                                                Yield& yield) {
  const std::uint64_t a = mix(seed), b = mix(a), c = mix(b), d = mix(c);
  yield();
  const std::uint64_t below = depth > 1 ? recurse(depth - 1, d, yield) : 0;
  yield();
  return (a ^ below) + b * 3 + (c << 1) + (d >> 1) +
         static_cast<std::uint64_t>(depth);
}

}  // namespace

TEST(Fiber, EntryStackIsAbiAligned) {
  Driver drv;
  std::uintptr_t frame = 1;
  Fiber& f = drv.start([&](Fiber&) {
    // Below an entry called with rsp 8 mod 16, every frame pointer a
    // function pushes lands on a 16-byte boundary.
    frame = reinterpret_cast<std::uintptr_t>(__builtin_frame_address(0));
  });
  drv.run_to_end(f);
  EXPECT_EQ(frame % 16, 0u);
}

#if defined(__x86_64__)
TEST(Fiber, FloatingPointControlStateStaysWithItsFiber) {
  constexpr unsigned kFtzDaz = 0x8040;  // MXCSR flush-to-zero, denormals-are-zero
  constexpr unsigned kRound = 0x6000;   // MXCSR rounding-control field
  constexpr unsigned kRoundUp = 0x4000;
  constexpr int kTrips = 1000;
  ASSERT_EQ(std::fegetround(), FE_TONEAREST);
  ASSERT_EQ(_mm_getcsr() & (kRound | kFtzDaz), 0u);

  // fegetround reads the x87 control word; the MXCSR fields are read
  // directly, so each of the two saved words has its own check.
  auto nearest = [&] {
    return std::fegetround() == FE_TONEAREST &&
           (_mm_getcsr() & (kRound | kFtzDaz)) == 0;
  };
  int a_wrong = 0, b_wrong = 0, driver_wrong = 0;
  Driver drv;
  Fiber& a = drv.start([&](Fiber& self) {
    std::fesetround(FE_UPWARD);
    _mm_setcsr(_mm_getcsr() | kFtzDaz);
    for (int i = 0; i < kTrips; ++i) {
      self.yield();
      if (std::fegetround() != FE_UPWARD ||
          (_mm_getcsr() & (kRound | kFtzDaz)) != (kRoundUp | kFtzDaz)) {
        ++a_wrong;
      }
    }
  });
  Fiber& b = drv.start([&](Fiber& self) {
    for (int i = 0; i < kTrips; ++i) {
      self.yield();
      if (!nearest()) ++b_wrong;
    }
  });
  for (int i = 0; i <= kTrips; ++i) {
    drv.resume(a);
    if (!nearest()) ++driver_wrong;
    drv.resume(b);
    if (!nearest()) ++driver_wrong;
  }
  ASSERT_TRUE(a.done && b.done);
  EXPECT_EQ(a_wrong, 0);
  EXPECT_EQ(b_wrong, 0);
  EXPECT_EQ(driver_wrong, 0);
  EXPECT_TRUE(nearest());
}
#endif

TEST(Fiber, DeepRecursionKeepsItsLocalsAcrossSwitches) {
  constexpr int kDepth = 64;
  auto no_yield = [] {};
  const std::uint64_t want_a = recurse(kDepth, 1, no_yield);
  const std::uint64_t want_b = recurse(kDepth, 2, no_yield);
  ASSERT_NE(want_a, want_b);

  // Two fibers with different values in the same registers, interleaved,
  // so each resumes right after the other has used them.
  std::uint64_t got_a = 0, got_b = 0;
  Driver drv;
  Fiber& a = drv.start([&](Fiber& self) {
    auto yield = [&self] { self.yield(); };
    got_a = recurse(kDepth, 1, yield);
  });
  Fiber& b = drv.start([&](Fiber& self) {
    auto yield = [&self] { self.yield(); };
    got_b = recurse(kDepth, 2, yield);
  });
  int switches = 0;
  while (!a.done || !b.done) {
    if (!a.done) drv.resume(a);
    if (!b.done) drv.resume(b);
    ++switches;
  }
  EXPECT_EQ(switches, 2 * kDepth + 1);
  EXPECT_EQ(got_a, want_a);
  EXPECT_EQ(got_b, want_b);
}

namespace {

__attribute__((noinline)) void throw_after_switch(Fiber& self, int depth,
                                                  int round) {
  if (depth == 0) {
    self.yield();
    throw std::runtime_error("round " + std::to_string(round));
  }
  throw_after_switch(self, depth - 1, round);
}

}  // namespace

TEST(Fiber, ExceptionsAreThrownAndCaughtInsideAFiber) {
  constexpr int kRounds = 50;
  int caught = 0;
  Driver drv;
  Fiber& f = drv.start([&](Fiber& self) {
    for (int round = 0; round < kRounds; ++round) {
      try {
        throw_after_switch(self, 8, round);
      } catch (const std::runtime_error& e) {
        if (e.what() == "round " + std::to_string(round)) ++caught;
      }
      self.yield();
    }
  });
  drv.run_to_end(f);
  EXPECT_EQ(caught, kRounds);
}

namespace {

struct CountsDestruction {
  int* destroyed;
  ~CountsDestruction() { ++*destroyed; }
};

__attribute__((noinline)) void block_deep(sim::Machine& m, int depth,
                                          int& destroyed) {
  CountsDestruction guard{&destroyed};
  if (depth == 1) {
    m.block_current("deep");
    return;
  }
  block_deep(m, depth - 1, destroyed);
}

}  // namespace

TEST(Fiber, KillUnwindsAProcessBlockedDeepInItsStack) {
  constexpr int kDepth = 32;
  sim::Machine m;
  int destroyed = 0;
  bool returned = false;
  sim::Process* p = m.spawn("deep", [&] {
    block_deep(m, kDepth, destroyed);
    returned = true;
  });
  m.run();
  ASSERT_EQ(p->state(), sim::ProcState::kBlocked);
  EXPECT_EQ(destroyed, 0);
  m.kill(p);
  EXPECT_EQ(destroyed, kDepth);
  EXPECT_FALSE(returned);
  EXPECT_EQ(p->state(), sim::ProcState::kZombie);
  EXPECT_EQ(m.live_count(), 0);
}

namespace {

// The fiber of the thread-hop test, and the pointer its entry must see.
std::atomic<Fiber*> g_hop{nullptr};
std::atomic<bool> g_hop_arg_intact{false};

void hop_entry(unsigned hi, unsigned lo) {
  Fiber* f = g_hop.load();
  sim::fiber_on_entry(f->ctx);
  g_hop_arg_intact = unpack(hi, lo) == f;
  f->body(*f);
  f->done = true;
  sim::fiber_switch_final(f->ctx, *f->home);
}

}  // namespace

TEST(Fiber, StartsOnOneThreadAndResumesOnAnother) {
  // The fiber lives in a mapping above 4 GiB, so its address needs both
  // halves of the entry argument.
  constexpr std::size_t kBytes = 1 << 16;
  void* region = mmap(nullptr, kBytes, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  ASSERT_NE(region, MAP_FAILED);
  ASSERT_GT(reinterpret_cast<std::uintptr_t>(region), 0xffffffffULL);
  Fiber* f = new (region) Fiber;
  g_hop = f;

  // The kernel's thread id: std::this_thread::get_id() is pthread_self(),
  // which glibc declares const, so the compiler may reuse its first
  // result after the switch.
  long ran_on[2] = {0, 0};
  f->body = [&](Fiber& self) {
    ran_on[0] = syscall(SYS_gettid);
    self.yield();
    ran_on[1] = syscall(SYS_gettid);
  };
  sim::FiberStackPool stacks;
  void* stack = stacks.acquire();
  // Both threads stay alive until the fiber is done, so their ids differ.
  std::atomic<int> phase{0};
  std::thread first([&] {
    sim::FiberContext home;
    sim::fiber_bind_native(home);
    f->home = &home;
    sim::fiber_create(f->ctx, stack, stacks.usable(), hop_entry, f);
    sim::fiber_switch(home, f->ctx);  // runs to the yield
    phase = 1;
    while (phase != 2) std::this_thread::yield();
  });
  std::thread second([&] {
    while (phase != 1) std::this_thread::yield();
    sim::FiberContext home;
    sim::fiber_bind_native(home);
    f->home = &home;
    sim::fiber_switch(home, f->ctx);  // runs to the end
    phase = 2;
  });
  first.join();
  second.join();

  EXPECT_TRUE(f->done);
  EXPECT_TRUE(g_hop_arg_intact.load());
  EXPECT_NE(ran_on[0], ran_on[1]);
  sim::fiber_destroy(f->ctx);
  stacks.release(stack);
  f->~Fiber();
  munmap(region, kBytes);
}

namespace {

// Switches out from inside a frame with an address-taken buffer; if never
// resumed, the buffer's redzones stay poisoned (under ASan) on the stack.
__attribute__((noinline)) void park_in_a_live_frame(Fiber& self) {
  char buf[512];
  std::snprintf(buf, sizeof buf, "%0500d", 1);
  asm volatile("" : : "r"(buf) : "memory");
  self.yield();
}

}  // namespace

TEST(Fiber, AFiberOnARecycledStackStartsClean) {
  // A fiber that ends through fiber_switch_final leaves no poison behind
  // (ASan unpoisons the stack before every noreturn call); one abandoned
  // while switched out does, and its stack goes back to the pool.
  sim::FiberStackPool stacks;
  sim::FiberContext home;
  sim::fiber_bind_native(home);
  Fiber abandoned, fresh;
  abandoned.body = park_in_a_live_frame;
  abandoned.home = fresh.home = &home;
  void* stack = stacks.acquire();
  sim::fiber_create(abandoned.ctx, stack, stacks.usable(), fiber_main,
                    &abandoned);
  sim::fiber_switch(home, abandoned.ctx);
  ASSERT_FALSE(abandoned.done);
  sim::fiber_destroy(abandoned.ctx);
  stacks.release(stack);

  ASSERT_EQ(stacks.acquire(), stack);
  int wrote = 0;
  fresh.body = [&wrote](Fiber&) {
    char buf[2048];
    wrote = std::snprintf(buf, sizeof buf, "%02040d", 2);
  };
  sim::fiber_create(fresh.ctx, stack, stacks.usable(), fiber_main, &fresh);
#ifdef MKBAS_TEST_ASAN
  EXPECT_EQ(__asan_region_is_poisoned(stack, stacks.usable()), nullptr);
#endif
  sim::fiber_switch(home, fresh.ctx);
  EXPECT_TRUE(fresh.done);
  EXPECT_EQ(wrote, 2040);
  EXPECT_EQ(stacks.mapped_count(), 1u);
  sim::fiber_destroy(fresh.ctx);
  stacks.release(stack);
}

TEST(Fiber, SpawnExitCyclesReuseOneStack) {
  constexpr int kCycles = 10000;
  sim::Machine m;
  m.trace().set_capacity(64);
  int ran = 0;
  for (int i = 0; i < kCycles; ++i) {
    m.spawn("p", [&ran, i] {
      // Write the stack through a libc call, which ASan checks but does
      // not instrument, as stale poison on a recycled stack would show.
      char buf[256];
      std::snprintf(buf, sizeof buf, "%0200d", i);
      ran += std::atoi(buf) == i;
    });
    m.run();
  }
  EXPECT_EQ(ran, kCycles);
  EXPECT_EQ(m.live_count(), 0);
  EXPECT_EQ(m.stack_pool().mapped_count(), 1u);
}

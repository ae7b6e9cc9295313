// Self-tests of the ledger's arithmetic (ledger.h): quantiles, CVaR and the
// windowed median against hand-computed samples, due-time accounting under
// an injected consumer stall, and the slo_fps search on synthetic latency
// curves.
//
//   cmake --build .bench_build --target perfbench_selftest
//   .bench_build/perfbench_selftest      # or: python3 perfbench/run.py --self-test
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "ledger.h"

namespace {

int g_failures = 0;

void check(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "FAIL line %d: %s\n", line, what);
    ++g_failures;
  }
}
#define CHECK(cond) check((cond), #cond, __LINE__)
#define CHECK_NEAR(a, b, tol) \
  check(std::fabs((a) - (b)) <= (tol), #a " ~= " #b, __LINE__)

void quantiles_match_hand_computed() {
  // 1..10: position q * 9.
  std::vector<double> s = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  CHECK_NEAR(perfbench::quantile(s, 0.0), 1.0, 1e-12);
  CHECK_NEAR(perfbench::quantile(s, 0.5), 5.5, 1e-12);   // between 5 and 6
  CHECK_NEAR(perfbench::quantile(s, 0.9), 9.1, 1e-12);   // 9 + 0.1 * (10 - 9)
  CHECK_NEAR(perfbench::quantile(s, 0.99), 9.91, 1e-12);
  CHECK_NEAR(perfbench::quantile(s, 1.0), 10.0, 1e-12);
  CHECK_NEAR(perfbench::quantile({7.0}, 0.99), 7.0, 1e-12);
  CHECK(perfbench::quantile({}, 0.5) == 0.0);
  CHECK_NEAR(perfbench::median({3, 1, 2}), 2.0, 1e-12);
  CHECK_NEAR(perfbench::median({4, 1, 3, 2}), 2.5, 1e-12);
}

void windowed_median_isolates_a_stall() {
  // Four windows of 100 samples; one window holds a 1000x stall. Its p99
  // is lost in the median over windows (the others read 99.01).
  std::vector<double> s;
  for (int w = 0; w < 4; ++w) {
    for (int i = 0; i < 100; ++i) s.push_back(i + 1);
  }
  for (int i = 150; i < 200; ++i) s[i] = 100000.0;
  const auto p99 = [](const std::vector<double>& w) {
    return perfbench::quantile(w, 0.99);
  };
  CHECK_NEAR(perfbench::windowed_median(s, 4, p99), 99.01, 1e-9);
  std::vector<double> sorted = s;
  std::sort(sorted.begin(), sorted.end());
  CHECK(perfbench::quantile(sorted, 0.99) == 100000.0);
  // One window is the plain statistic.
  CHECK_NEAR(perfbench::windowed_median(s, 1, p99),
             perfbench::quantile(sorted, 0.99), 1e-9);
}

void cvar_is_mean_of_worst_percent() {
  // 200 samples 1..200: the worst 1% is {199, 200}, mean 199.5.
  std::vector<double> s;
  for (int i = 1; i <= 200; ++i) s.push_back(i);
  CHECK_NEAR(perfbench::cvar(s, 0.99), 199.5, 1e-12);
  // 100 samples: exactly one in the tail (the 1.0000000000000009 case).
  s.resize(100);
  CHECK_NEAR(perfbench::cvar(s, 0.99), 100.0, 1e-12);
  // 150 samples: 1.5 rounds up to two, {149, 150}.
  s.clear();
  for (int i = 1; i <= 150; ++i) s.push_back(i);
  CHECK_NEAR(perfbench::cvar(s, 0.99), 149.5, 1e-12);
  // A spike past p99 moves CVaR but not the quantile's neighbourhood much.
  std::vector<double> flat(1000, 10.0);
  flat.back() = 10010.0;
  CHECK_NEAR(perfbench::quantile(flat, 0.99), 10.0, 1e-12);
  CHECK_NEAR(perfbench::cvar(flat, 0.99), (9 * 10.0 + 10010.0) / 10, 1e-9);
  CHECK(perfbench::cvar({}, 0.99) == 0.0);
}

/// A virtual clock: waiting jumps to the deadline, work advances it.
struct FakeClock {
  std::uint64_t t = 0;
  std::uint64_t now() const { return t; }
  void wait_until(std::uint64_t deadline) {
    if (deadline > t) t = deadline;
  }
};

void stall_is_charged_to_later_frames() {
  // 1000 frames at 100k fps (10 us apart); each push costs 1 us, except
  // frame 100 whose push blocks for 5 ms (a full queue, a stalled
  // consumer). A frame's result lands when its push returns.
  constexpr std::uint64_t kStallNs = 5'000'000;
  FakeClock clock;
  const perfbench::OpenLoop loop(100000.0, 1'000'000);
  std::vector<std::uint64_t> done(1000, 0), late;
  loop.run(1000, clock,
           [&](std::uint64_t f, std::uint64_t) {
             clock.t += (f == 100) ? kStallNs : 1000;
             done[f] = clock.t;
           },
           late);
  const auto latency = [&](std::uint64_t f) {
    return static_cast<double>(done[f] - loop.due_ns(f));
  };
  // Before the stall: push cost only.
  CHECK_NEAR(latency(99), 1000.0, 1e-9);
  CHECK_NEAR(latency(100), static_cast<double>(kStallNs), 1e-9);
  // Frame 101 came due 10 us into the stall and waited out the rest of it:
  // timing it from its (late) send would report 1 us, hiding the stall.
  CHECK(latency(101) >= kStallNs - 10'000);
  // Every frame due during the stall is charged; the generator reports it
  // ran late for them, and catches up afterwards (1 us push < 10 us slot).
  for (std::uint64_t f = 101; f < 100 + kStallNs / 10'000; ++f) {
    CHECK(late[f] > 0);
    CHECK(latency(f) >= kStallNs - (f - 100) * 10'000);
  }
  CHECK(late[999] == 0);
  CHECK_NEAR(latency(999), 1000.0, 1e-9);
  // The schedule never slips: due times are fixed by the rate alone.
  CHECK(loop.due_ns(500) == 1'000'000 + 500 * 10'000);
}

void slo_search_finds_the_knee() {
  // M/M/1-like curve: batch fill (falls with rate) + queueing (explodes at
  // the 400k capacity). Limit 5 ms: fill 512/r s + 100 us / (1 - r/cap).
  const double cap = 400000.0;
  const auto curve = [&](double rate) {
    perfbench::ProbeResult r;
    if (rate >= cap) {
      r.p99_us = 1e9;
      r.backlog_growing = true;
      return r;
    }
    r.p99_us = 512.0 / rate * 1e6 + 100.0 / (1.0 - rate / cap);
    return r;
  };
  // Exact knee: solve fill + queue = 5000 us on the rising side.
  double lo = 250000.0, hi = cap;
  for (int i = 0; i < 200; ++i) {
    const double mid = 0.5 * (lo + hi);
    (curve(mid).p99_us <= 5000.0 ? lo : hi) = mid;
  }
  const double knee = lo;
  perfbench::SloSearch search;
  search.limit_us = 5000.0;
  search.start_fps = 250000.0;
  search.max_fps = 2e6;
  const double resolution = std::pow(perfbench::kBracketStep, 1.0 / 32.0);
  int probes = 0;
  const double found = perfbench::slo_fps_search(search, curve, &probes);
  CHECK(found <= knee);
  CHECK(found >= knee / resolution);
  CHECK(probes <= 10);

  // Starting above the knee: the search steps down, then bisects.
  search.start_fps = 390000.0;
  const double from_above = perfbench::slo_fps_search(search, curve);
  CHECK(from_above <= knee);
  CHECK(from_above >= knee / resolution);

  // A growing backlog fails a probe even when its p99 looks fine.
  const auto backlog = [&](double rate) {
    perfbench::ProbeResult r;
    r.p99_us = 10.0;
    r.backlog_growing = rate > 300000.0;
    return r;
  };
  search.start_fps = 250000.0;
  const double capped = perfbench::slo_fps_search(search, backlog);
  CHECK(capped <= 300000.0 && capped >= 300000.0 / resolution);

  // Nothing passes: 0, after a bounded number of probes.
  probes = 0;
  const double none = perfbench::slo_fps_search(
      search, [](double) { return perfbench::ProbeResult{1e9, true}; },
      &probes);
  CHECK(none == 0.0);
  CHECK(probes == 5);
}

}  // namespace

int main() {
  quantiles_match_hand_computed();
  windowed_median_isolates_a_stall();
  cvar_is_mean_of_worst_percent();
  stall_is_charged_to_later_frames();
  slo_search_finds_the_knee();
  if (g_failures != 0) {
    std::fprintf(stderr, "perfbench_selftest: %d check(s) failed\n",
                 g_failures);
    return 1;
  }
  std::printf("perfbench_selftest: all checks passed\n");
  return 0;
}

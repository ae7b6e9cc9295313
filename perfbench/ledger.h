// The serving ledger's arithmetic, kept free of any eigenmaps dependency so
// its own tests can pin it: sample statistics (quantiles, CVaR), the
// open-loop schedule that charges every frame from its due time, and the
// slo_fps search.
#ifndef PERFBENCH_LEDGER_H
#define PERFBENCH_LEDGER_H

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

// ---- sample statistics ----------------------------------------------------

/// q-quantile (q in [0, 1]) of an ascending sample, linearly interpolated
/// between the two closest ranks (position q * (n - 1)) — numpy's default.
/// 0 for an empty sample.
inline double quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  q = std::min(1.0, std::max(0.0, q));
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

/// CVaR at level alpha of an ascending sample: the mean of its worst
/// ceil((1 - alpha) * n) values (at least one) — "the mean of the worst
/// 1%" for alpha = 0.99. A tail metric that, unlike a single order
/// statistic, moves with every sample past the quantile.
inline double cvar(const std::vector<double>& sorted, double alpha) {
  if (sorted.empty()) return 0.0;
  const double tail = (1.0 - alpha) * static_cast<double>(sorted.size());
  // The epsilon keeps (1 - 0.99) * 100 = 1.0000000000000009 at one sample.
  std::size_t count = static_cast<std::size_t>(std::ceil(tail - 1e-9));
  count = std::min(std::max<std::size_t>(count, 1), sorted.size());
  double sum = 0.0;
  for (std::size_t i = sorted.size() - count; i < sorted.size(); ++i) {
    sum += sorted[i];
  }
  return sum / static_cast<double>(count);
}

inline double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

inline double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return quantile(values, 0.5);
}

/// Splits `samples` (in arrival order) into `windows` equal consecutive
/// windows, applies stat(ascending window) to each, and returns the median
/// over windows. A stall on a shared machine then spoils one window's tail
/// instead of the whole run's. Stat: double(const std::vector<double>&).
template <typename Stat>
double windowed_median(const std::vector<double>& samples, std::size_t windows,
                       Stat&& stat) {
  windows = std::max<std::size_t>(1, std::min(windows, samples.size()));
  std::vector<double> per_window;
  for (std::size_t w = 0; w < windows; ++w) {
    const std::size_t lo = samples.size() * w / windows;
    const std::size_t hi = samples.size() * (w + 1) / windows;
    std::vector<double> window(samples.begin() + lo, samples.begin() + hi);
    std::sort(window.begin(), window.end());
    per_window.push_back(stat(window));
  }
  return median(per_window);
}

// ---- open-loop schedule -----------------------------------------------------

/// Frame i of a phase is due at start_ns + i / rate, whatever happened to
/// the frames before it. Latency is charged from the due time, so a stall
/// in the system under test (a blocked push, a full queue) is paid by every
/// frame that came due during it — no coordinated omission.
class OpenLoop {
 public:
  OpenLoop(double rate_fps, std::uint64_t start_ns)
      : period_ns_(1e9 / rate_fps), start_ns_(start_ns) {}

  std::uint64_t due_ns(std::uint64_t frame) const {
    return start_ns_ +
           static_cast<std::uint64_t>(static_cast<double>(frame) * period_ns_);
  }

  /// Drives `frames` frames: waits for each one's due time on `clock`, then
  /// calls push(frame, due_ns). Records in `late_ns[frame]` how far behind
  /// schedule the generator was when it issued the frame (0 when on time).
  /// Clock: `std::uint64_t now()` and `void wait_until(std::uint64_t)`.
  template <typename Clock, typename Push>
  void run(std::uint64_t frames, Clock& clock, Push&& push,
           std::vector<std::uint64_t>& late_ns) const {
    late_ns.assign(frames, 0);
    for (std::uint64_t f = 0; f < frames; ++f) {
      const std::uint64_t due = due_ns(f);
      std::uint64_t now = clock.now();
      if (now < due) {
        clock.wait_until(due);
        now = due;
      }
      late_ns[f] = now - due;
      push(f, due);
    }
  }

 private:
  double period_ns_;
  std::uint64_t start_ns_;
};

// ---- slo_fps search -----------------------------------------------------------

/// What one fixed-rate probe observed.
struct ProbeResult {
  double p99_us = 0.0;
  /// Frames still undelivered when the probe's last frame came due grew
  /// past what the rate and the latency limit allow in flight.
  bool backlog_growing = false;
};

struct SloSearch {
  double limit_us = 0.0;   // p99 latency limit
  double start_fps = 0.0;  // a rate expected to pass (the heavy rate)
  double max_fps = 0.0;    // never probe above this
};
constexpr double kBracketStep = 1.5;  // bracket growth / shrink factor
constexpr int kBisections = 5;        // log-space halvings of the bracket

/// The highest offered rate whose probe keeps p99 within the limit without
/// a growing backlog. Brackets from the start rate (stepping down while it
/// fails, up while it passes), then bisects the bracket in log space. The
/// answer is the highest *passing* rate probed, so within
/// kBracketStep^(1/2^kBisections) (1.3%) below the knee; 0 when nothing
/// passes. Probe: ProbeResult(double rate_fps). `probes` counts the probes
/// run.
template <typename Probe>
double slo_fps_search(const SloSearch& search, Probe&& probe,
                      int* probes = nullptr) {
  int count = 0;
  const auto pass = [&](double rate) {
    ++count;
    const ProbeResult r = probe(rate);
    return r.p99_us <= search.limit_us && !r.backlog_growing;
  };
  double lo = search.start_fps;
  int shrinks = 0;
  while (!pass(lo)) {
    if (++shrinks > 4) {
      if (probes) *probes = count;
      return 0.0;
    }
    lo /= kBracketStep;
  }
  double hi = lo * kBracketStep;
  if (shrinks == 0) {
    while (hi <= search.max_fps && pass(hi)) {
      lo = hi;
      hi *= kBracketStep;
    }
    if (hi > search.max_fps) {
      if (probes) *probes = count;
      return lo;
    }
  }
  for (int i = 0; i < kBisections; ++i) {
    const double mid = std::sqrt(lo * hi);
    if (pass(mid)) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  if (probes) *probes = count;
  return lo;
}

}  // namespace perfbench

#endif  // PERFBENCH_LEDGER_H

// Metric arithmetic shared by every workload: nearest-rank percentiles,
// the "at least ten samples beyond it" tail rule, the request ledger that
// turns timeouts into failures, and live-node-second accounting.
//
// Kept header-only and free of simulator types so tests/metrics_test.cpp
// can pin the definitions without building a network.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <optional>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile (p in (0, 100]) of an ascending-sorted sample:
/// the smallest value with at least p% of the samples at or below it.
/// Returns nullopt for an empty sample.
inline std::optional<double> nearest_rank(const std::vector<double>& sorted,
                                          double p) {
  if (sorted.empty() || p <= 0.0 || p > 100.0) return std::nullopt;
  const auto n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

/// Samples strictly beyond the nearest-rank p-th percentile.
inline std::size_t samples_beyond(std::size_t n, double p) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9));
  return n - std::min(n, std::max<std::size_t>(rank, 1));
}

/// The highest percentile level, no higher than `ceiling`, that leaves at
/// least `min_beyond` samples above it (so a tail figure is never set by a
/// handful of outliers).  Candidate levels: 99.9, 99, 95, 90, 75, 50.
inline std::optional<double> tail_level(std::size_t n, double ceiling = 99.9,
                                        std::size_t min_beyond = 10) {
  static constexpr double kLevels[] = {99.9, 99.0, 95.0, 90.0, 75.0, 50.0};
  for (const double p : kLevels) {
    if (p > ceiling + 1e-9) continue;
    if (samples_beyond(n, p) >= min_beyond) return p;
  }
  return std::nullopt;
}

/// A latency sample set with its summary: median plus the tail level the
/// tail rule allows, and the sample count behind both.
struct Summary {
  std::size_t count = 0;
  double p50 = 0.0;
  double tail = 0.0;
  double tail_level = 0.0;  // 0 = too few samples for any tail
};

inline Summary summarize(std::vector<double> samples,
                         double tail_ceiling = 99.0) {
  Summary s;
  s.count = samples.size();
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.p50 = *nearest_rank(samples, 50.0);
  if (const auto level = tail_level(samples.size(), tail_ceiling)) {
    s.tail_level = *level;
    s.tail = *nearest_rank(samples, *level);
  }
  return s;
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2.0;
}

/// A host rate measured window by window: the median over windows of
/// (work done in the window) / (CPU seconds the window took) x (the
/// window's host-speed scale; see host_speed.hpp).  A stretch in which
/// other tenants of a shared host slowed it down moves this less than a
/// whole-run average, which every slow second drags along.  Windows with
/// no CPU time are skipped; 0 when none is left.
inline double median_rate(const std::vector<double>& work,
                          const std::vector<double>& cpu_s,
                          const std::vector<double>& scale) {
  std::vector<double> rates;
  for (std::size_t i = 0; i < work.size() && i < cpu_s.size(); ++i) {
    if (cpu_s[i] > 0.0) {
      rates.push_back(work[i] / cpu_s[i] * (i < scale.size() ? scale[i] : 1.0));
    }
  }
  return median(rates);
}

/// The same windows pooled: total work / total scaled CPU seconds, where
/// a window's scaled CPU time is its CPU time / its scale.  0 when the
/// windows hold no CPU time.
inline double pooled_rate(const std::vector<double>& work,
                          const std::vector<double>& cpu_s,
                          const std::vector<double>& scale) {
  double total_work = 0.0, total_cpu = 0.0;
  for (std::size_t i = 0; i < work.size() && i < cpu_s.size(); ++i) {
    total_work += work[i];
    total_cpu += cpu_s[i] / (i < scale.size() && scale[i] > 0.0 ? scale[i] : 1.0);
  }
  return total_cpu > 0.0 ? total_work / total_cpu : 0.0;
}

/// Closed-loop request bookkeeping.  A request is attempted when issued;
/// it succeeds when a verified reply arrives before its deadline, and
/// fails on a wrong reply or when the deadline passes first (a late
/// reply to an expired request is ignored, never double-counted).
/// Times are in nanoseconds of whatever clock the caller uses.
class Ledger {
 public:
  explicit Ledger(std::int64_t timeout_ns) : timeout_ns_(timeout_ns) {}

  void issue(std::uint64_t id, std::int64_t now) {
    ++attempted_;
    open_[id] = now;
  }
  /// A reply arrived; `ok` says whether it verified.  Returns the latency
  /// in ns when it counted as a success, nullopt otherwise (unknown or
  /// expired id, or a bad reply).
  std::optional<std::int64_t> complete(std::uint64_t id, std::int64_t now,
                                       bool ok) {
    const auto it = open_.find(id);
    if (it == open_.end()) return std::nullopt;
    const std::int64_t latency = now - it->second;
    open_.erase(it);
    if (!ok || latency > timeout_ns_) {
      ++failed_;
      return std::nullopt;
    }
    latencies_ms_.push_back(static_cast<double>(latency) / 1e6);
    return latency;
  }
  /// Fail every request older than the timeout; returns their ids so the
  /// closed loop can issue the next request.
  std::vector<std::uint64_t> expire(std::int64_t now) {
    std::vector<std::uint64_t> gone;
    for (auto it = open_.begin(); it != open_.end();) {
      if (now - it->second > timeout_ns_) {
        gone.push_back(it->first);
        ++failed_;
        it = open_.erase(it);
      } else {
        ++it;
      }
    }
    return gone;
  }
  /// Withdraw a request without a verdict (its client went away).
  void abandon(std::uint64_t id) {
    if (open_.erase(id) > 0) --attempted_;
  }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  std::size_t in_flight() const { return open_.size(); }
  const std::vector<double>& latencies_ms() const { return latencies_ms_; }

 private:
  std::int64_t timeout_ns_;
  std::map<std::uint64_t, std::int64_t> open_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<double> latencies_ms_;
};

/// Live-node-seconds: the integral of the live-node count over simulated
/// time, between open() and the query time.  Nodes go up on join and down
/// on leave or crash; time before open() is not counted.
class LiveTime {
 public:
  explicit LiveTime(std::size_t nodes) : up_since_(nodes, -1) {}

  /// Start accounting at `now` (nodes already up count from here).
  void open(std::int64_t now) {
    for (auto& t : up_since_) {
      if (t >= 0) t = std::max(t, now);
    }
    opened_ = now;
    total_ns_ = 0.0;
  }
  void up(std::size_t i, std::int64_t now) {
    if (up_since_[i] < 0) up_since_[i] = std::max(now, opened_);
  }
  void down(std::size_t i, std::int64_t now) {
    if (up_since_[i] < 0) return;
    if (now > up_since_[i]) {
      total_ns_ += static_cast<double>(now - up_since_[i]);
    }
    up_since_[i] = -1;
  }
  bool is_up(std::size_t i) const { return up_since_[i] >= 0; }
  /// Node-seconds accumulated up to `now`, open intervals included.
  double node_seconds(std::int64_t now) const {
    double ns = total_ns_;
    for (const auto t : up_since_) {
      if (t >= 0 && now > t) ns += static_cast<double>(now - t);
    }
    return ns / 1e9;
  }

 private:
  std::vector<std::int64_t> up_since_;
  std::int64_t opened_ = 0;
  double total_ns_ = 0.0;
};

}  // namespace perfbench

// Tests for the benchmark's own metric arithmetic (src/metrics.hpp).
// Build and run:  python3 perfbench/run.py --test
#include <cmath>
#include <cstdio>
#include <vector>

#include "metrics.hpp"

namespace {

int failures = 0;

void expect(bool ok, const char* what, int line) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAIL line %d: %s\n", line, what);
  }
}
#define EXPECT(cond) expect((cond), #cond, __LINE__)

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

void nearest_rank_percentile() {
  using perfbench::nearest_rank;
  const auto v = one_to(10);
  EXPECT(near(*nearest_rank(v, 50), 5));   // ceil(0.5 * 10) = 5th
  EXPECT(near(*nearest_rank(v, 51), 6));   // ceil(5.1) = 6th
  EXPECT(near(*nearest_rank(v, 90), 9));
  EXPECT(near(*nearest_rank(v, 99), 10));
  EXPECT(near(*nearest_rank(v, 100), 10));
  EXPECT(near(*nearest_rank(v, 1), 1));
  EXPECT(near(*nearest_rank(one_to(1000), 99), 990));
  EXPECT(near(*nearest_rank({7.0}, 50), 7));
  EXPECT(!nearest_rank({}, 50).has_value());
  EXPECT(!nearest_rank(v, 0).has_value());
}

void tail_rule_keeps_ten_samples_beyond() {
  using perfbench::samples_beyond;
  using perfbench::tail_level;
  EXPECT(samples_beyond(1000, 99) == 10);
  EXPECT(samples_beyond(999, 99) == 9);  // rank ceil(989.01) = 990
  EXPECT(samples_beyond(998, 99) == 9);
  EXPECT(*tail_level(10000) == 99.9);
  EXPECT(*tail_level(9999) == 99.0);  // 99.9 leaves only 9 beyond
  EXPECT(*tail_level(1000) == 99.0);
  EXPECT(*tail_level(998) == 95.0);
  EXPECT(*tail_level(200) == 95.0);
  EXPECT(*tail_level(199) == 90.0);
  EXPECT(*tail_level(20) == 50.0);
  EXPECT(!tail_level(19).has_value());
  EXPECT(*tail_level(100000, 95.0) == 95.0);  // ceiling honoured
  const auto s = perfbench::summarize(one_to(1000), 99.0);
  EXPECT(s.count == 1000);
  EXPECT(near(s.p50, 500));
  EXPECT(s.tail_level == 99.0);
  EXPECT(near(s.tail, 990));
  const auto few = perfbench::summarize(one_to(5));
  EXPECT(few.tail_level == 0.0 && near(few.p50, 3));
}

void timed_out_request_counts_as_failed() {
  perfbench::Ledger l(/*timeout_ns=*/100);
  l.issue(1, 0);
  l.issue(2, 0);
  l.issue(3, 50);
  EXPECT(l.complete(1, 40, true).value_or(-1) == 40);
  // Request 2 passes its deadline before any reply.
  const auto gone = l.expire(120);
  EXPECT(gone.size() == 1 && gone[0] == 2);
  EXPECT(l.failed() == 1);
  // Its late reply is ignored, never double-counted.
  EXPECT(!l.complete(2, 130, true).has_value());
  EXPECT(l.failed() == 1 && l.latencies_ms().size() == 1);
  // A reply that arrives past the timeout but before expire() ran fails.
  EXPECT(!l.complete(3, 200, true).has_value());
  EXPECT(l.failed() == 2);
  // A wrong reply fails too.
  l.issue(4, 300);
  EXPECT(!l.complete(4, 310, false).has_value());
  EXPECT(l.failed() == 3);
  EXPECT(l.attempted() == 4 && l.in_flight() == 0);
  EXPECT(l.latencies_ms().size() == 1);
  // A withdrawn request is neither attempted nor failed.
  l.issue(5, 400);
  l.abandon(5);
  EXPECT(l.attempted() == 4 && l.failed() == 3);
}

void live_node_seconds_across_joins_and_crashes() {
  constexpr std::int64_t s = 1'000'000'000;
  perfbench::LiveTime lt(3);
  lt.up(0, 0);
  lt.up(1, 0);
  lt.open(10 * s);  // accounting starts at t=10 with two nodes up
  EXPECT(near(lt.node_seconds(10 * s), 0));
  lt.up(2, 12 * s);    // join
  lt.down(1, 15 * s);  // crash
  EXPECT(lt.is_up(0) && !lt.is_up(1) && lt.is_up(2));
  // node0: 10..20 = 10, node1: 10..15 = 5, node2: 12..20 = 8
  EXPECT(near(lt.node_seconds(20 * s), 23));
  lt.up(1, 18 * s);  // rejoin
  EXPECT(near(lt.node_seconds(20 * s), 25));
  lt.down(1, 18 * s);  // crash again immediately: no time added
  lt.down(1, 19 * s);  // already down: ignored
  EXPECT(near(lt.node_seconds(20 * s), 23));
  lt.up(0, 19 * s);  // already up: ignored
  EXPECT(near(lt.node_seconds(20 * s), 23));
}

void windowed_rates_median_and_pooled() {
  using perfbench::median_rate;
  // Three windows of 1 s at 100/s and one slowed to 50/s: the slow window
  // does not drag the median down as it would a whole-run average.
  const std::vector<double> work = {100, 100, 50, 100};
  const std::vector<double> cpu = {1, 1, 1, 1};
  EXPECT(near(median_rate(work, cpu, {}), 100));
  // Each window's rate is scaled by its own host-speed factor.
  EXPECT(near(median_rate({100, 50}, {1, 1}, {1.0, 2.0}), 100));
  EXPECT(near(median_rate({100, 100, 100}, {1, 2, 4}, {}), 50));
  // Windows with no CPU time are skipped; nothing left reads 0.
  EXPECT(near(median_rate({5, 100}, {0, 2}, {}), 50));
  EXPECT(near(median_rate({5}, {0}, {}), 0));
  // Pooled: total work over total scaled CPU seconds, so a costly window
  // weighs by its CPU time instead of counting as one vote.
  using perfbench::pooled_rate;
  EXPECT(near(pooled_rate({100, 50}, {1, 1}, {1.0, 2.0}), 100));
  EXPECT(near(pooled_rate({10, 10, 100}, {1, 1, 8}, {}), 12));
  EXPECT(near(pooled_rate({}, {}, {}), 0));
}

}  // namespace

int main() {
  nearest_rank_percentile();
  tail_rule_keeps_ten_samples_beyond();
  timed_out_request_counts_as_failed();
  live_node_seconds_across_joins_and_crashes();
  windowed_rates_median_and_pooled();
  if (failures == 0) std::printf("perfbench metrics tests: all passed\n");
  return failures == 0 ? 0 : 1;
}

// perfbench — the end-to-end benchmark for the IPOP reproduction.
//
//   perfbench --workload <rpc_sealed|bulk_fig4|churn|ring_scale|all>
//             --seed N --seconds S --trace <0|1> [--trace-out DIR]
//
// One process, one engine shard.  Each workload is set up at least three
// times (the median set-up time is reported), then measured for S wall
// seconds.  Host times and rates are in CPU time scaled to the nominal
// speed of a fixed reference kernel (host_speed.hpp).
// Untraced runs (--trace 0) print the end-to-end metrics; traced runs
// (--trace 1) record spans around every call into a layer, time each
// layer's hot public function at the workload's input sizes, and print
// the per-layer metrics with the attributed busy time.  The last stdout
// line is one JSON object; a run failing any correctness or mode check
// exits 1 without it.
#include <time.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "brunet/secure.hpp"
#include "harness.hpp"
#include "host_speed.hpp"
#include "util/crypto.hpp"

namespace {

using perfbench::Counters;
using perfbench::Outcome;
using perfbench::World;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// CPU seconds used by the whole process (every thread).  Host rates are
/// per CPU second: on a shared machine, wall time also counts the time
/// other tenants held the core, which swung wall-clock rates by ~15 %
/// between otherwise identical runs.
double cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

/// A /proc/self/status field in KiB (VmRSS, VmHWM), 0 if unavailable.
/// (getrusage's ru_maxrss would carry the launching process's peak
/// across exec.)
double status_kib(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t n = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, n, field) == 0 && line.size() > n && line[n] == ':') {
      return std::atof(line.c_str() + n + 1);
    }
  }
  return 0.0;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
  std::size_t samples;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Set-ups per run: at least kMinSetups, and more while they add up to
/// less than kSetupBudgetS CPU seconds (a set-up of a few milliseconds is
/// too short to time once), up to kMaxSetups.  setup_s is their median.
constexpr int kMinSetups = 3;
constexpr int kMaxSetups = 31;
constexpr double kSetupBudgetS = 0.5;

/// Measurement window, in CPU seconds.
constexpr double kWindowCpuS = 0.5;

/// Runs the host-speed kernel (host_speed.hpp) after every 0.25 CPU
/// seconds of the program, polled from the engine calls, and keeps the
/// kernel's CPU time apart from the program's.
class RefSampler {
 public:
  explicit RefSampler(perfbench::HostSpeed& host) : host_(host) {}
  double program_cpu() const { return cpu_seconds() - kernel_cpu_; }
  void poll() {
    if (program_cpu() >= next_) sample();
  }
  void sample() {
    const double t0 = cpu_seconds();
    samples_.push_back(host_.sample());
    kernel_cpu_ += cpu_seconds() - t0;
    next_ = program_cpu() + 0.25;
  }
  const std::vector<double>& samples() const { return samples_; }
  /// Median kernel time of the samples from index `from` on (the last
  /// sample when there are none), over its nominal time.
  double scale_since(std::size_t from) const {
    if (samples_.empty()) return 1.0;
    from = std::min(from, samples_.size() - 1);
    return perfbench::median({samples_.begin() + static_cast<std::ptrdiff_t>(from),
                              samples_.end()}) /
           perfbench::HostSpeed::kNominalS;
  }

 private:
  perfbench::HostSpeed& host_;
  double kernel_cpu_ = 0.0;
  double next_ = 0.0;
  std::vector<double> samples_;
};

struct HotTimings {
  double keygen_us = 0, sign_us = 0, verify_us = 0;
  double seal_us = 0, open_us = 0, next_hop_ns = 0;
  std::size_t samples = 0;
};

/// Times each layer's hot public call on the workload's own input sizes.
/// sample() runs every call once; the traced run calls it between steps
/// throughout the measured phase, so the timings see the same host
/// conditions as the run they are multiplied into.
class HotTimer {
 public:
  HotTimer(World& w, std::uint64_t seed)
      : w_(w), rng_(perfbench::mix_seed(seed, 0x7173)),
        a_(ipop::util::crypto::KeyPair::generate(rng_)),
        b_(ipop::util::crypto::KeyPair::generate(rng_)),
        sa_(a_), sb_(b_),
        dst_(ipop::brunet::Address::from_public_key(b_.public_key())),
        // A signed DHT record: key, version, ttl, flags and a lease or
        // binding value (address + public key).
        record_(20 + 8 + 8 + 1 + 20 + 32, 0x5a) {
    // Prime the DH-key cache on both sides: steady state is a cache hit.
    for (const auto size : w.hot_sizes().frames) {
      (void)sb_.open(sa_.seal(frame(size), b_.public_key(), dst_,
                              ipop::util::kPacketHeadroom),
                     dst_);
    }
  }

  void sample() {
    namespace crypto = ipop::util::crypto;
    auto t0 = Clock::now();
    (void)crypto::KeyPair::generate(rng_);
    keygen_.push_back(since(t0) * 1e6);
    t0 = Clock::now();
    const auto sig = a_.sign(record_);
    sign_.push_back(since(t0) * 1e6);
    t0 = Clock::now();
    ok_ &= crypto::verify(a_.public_key(), record_, sig);
    verify_.push_back(since(t0) * 1e6);
    // One seal + open per frame size, averaged over the sizes (the
    // workloads send one frame of each size per transaction).
    double seal = 0.0, open = 0.0;
    const auto sizes = w_.hot_sizes().frames;
    for (const auto size : sizes) {
      auto buf = frame(size);
      t0 = Clock::now();
      auto sealed = sa_.seal(std::move(buf), b_.public_key(), dst_,
                             ipop::util::kPacketHeadroom);
      seal += since(t0) * 1e6;
      t0 = Clock::now();
      ok_ &= sb_.open(std::move(sealed), dst_).has_value();
      open += since(t0) * 1e6;
    }
    seal_.push_back(seal / static_cast<double>(sizes.size()));
    open_.push_back(open / static_cast<double>(sizes.size()));
  }

  HotTimings result() {
    if (!ok_) std::fprintf(stderr, "warning: a timed signature did not verify\n");
    HotTimings h;
    h.samples = keygen_.size();
    h.keygen_us = perfbench::median(keygen_);
    h.sign_us = perfbench::median(sign_);
    h.verify_us = perfbench::median(verify_);
    h.seal_us = perfbench::median(seal_);
    h.open_us = perfbench::median(open_);
    // Next-hop lookups are too fast to time one at a time: time a batch
    // over a live node's connection table.
    const auto& table = w_.sample_overlay().table();
    std::vector<ipop::brunet::Address> targets;
    for (int i = 0; i < 4096; ++i) {
      targets.push_back(ipop::brunet::Address::random(rng_));
    }
    std::size_t found = 0;
    const int rounds = 16;
    const auto t0 = Clock::now();
    for (int r = 0; r < rounds; ++r) {
      for (const auto& t : targets) found += table.closest_to(t) != nullptr;
    }
    h.next_hop_ns =
        since(t0) * 1e9 / (rounds * static_cast<double>(targets.size()));
    if (found == 0 && table.size() > 0) {
      std::fprintf(stderr, "warning: no next hop found\n");
    }
    return h;
  }

 private:
  static ipop::util::Buffer frame(std::size_t size) {
    auto buf = ipop::util::Buffer::allocate(size, ipop::util::kPacketHeadroom);
    for (std::size_t i = 0; i < size; ++i) buf[i] = static_cast<std::uint8_t>(i);
    return buf;
  }

  World& w_;
  ipop::util::Rng rng_;
  ipop::util::crypto::KeyPair a_, b_;
  ipop::brunet::FrameSealer sa_, sb_;
  ipop::brunet::Address dst_;
  std::vector<std::uint8_t> record_;
  std::vector<double> keygen_, sign_, verify_, seal_, open_;
  bool ok_ = true;
};

void print_table(const char* title, const std::vector<Metric>& ms) {
  std::printf("  %s\n", title);
  for (const auto& m : ms) {
    std::printf("    %-26s %16.6g %-10s n=%zu\n", m.name.c_str(), m.value,
                m.unit, m.samples);
  }
}

std::string json_metrics(const std::vector<Metric>& ms) {
  std::string out = "{";
  char buf[256];
  for (std::size_t i = 0; i < ms.size(); ++i) {
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", ms[i].name.c_str(), ms[i].value,
                  ms[i].unit);
    out += buf;
  }
  return out + "}";
}

struct RunResult {
  bool ok = false;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<Metric> metrics;
};

RunResult run_workload(const Options& opt, const std::string& name,
                       double pre_rss_kib, perfbench::HostSpeed& host) {
  RunResult rr;
  // Set-up times and host rates are scaled to the host-speed kernel's
  // nominal speed by the kernel samples taken alongside them.
  RefSampler ref(host);
  for (int k = 0; k < 3; ++k) ref.sample();
  perfbench::Tracer tracer;
  std::unique_ptr<World> w;
  std::vector<double> setup_s;
  double setup_total = 0.0;
  for (int k = 0; k < kMaxSetups &&
                  (k < kMinSetups || setup_total < kSetupBudgetS);
       ++k) {
    w.reset();
    const double t0 = ref.program_cpu();
    w = perfbench::make_world(name, opt.seed);
    w->set_tracer(&tracer);
    w->set_run_hook([&ref] { ref.poll(); });
    tracer.set_sim_clock([&w] { return w->network().now().count(); });
    const std::string err = w->setup();
    setup_s.push_back(ref.program_cpu() - t0);
    setup_total += setup_s.back();
    ref.sample();  // at least one per set-up: bulk_fig4's last milliseconds
    if (!err.empty()) {
      std::fprintf(stderr, "FAIL: %s\n", err.c_str());
      return rr;
    }
  }
  const double setup_median = perfbench::median(setup_s);
  const double setup_scale = ref.scale_since(0);
  std::printf("%s: seed %llu, set-up %.4f CPU s (median of %d), host "
              "reference x%.3f of nominal\n",
              name.c_str(), static_cast<unsigned long long>(opt.seed),
              setup_median, static_cast<int>(setup_s.size()), setup_scale);
  std::fflush(stdout);

  // --- measured phase -------------------------------------------------------
  w->reset_run_clock();
  const Counters c0 = w->counters();
  w->begin_measure();
  const auto m0 = Clock::now();
  const double cpu0 = ref.program_cpu();
  const std::size_t ref0 = ref.samples().size();
  // Traced runs trace a random half of the steps; the wall time per
  // simulated second in each mode gives the overhead.  Random assignment
  // keeps the workload's own bursts (a churn event every N steps) from
  // landing in one mode.
  double wall_in[2] = {0.0, 0.0};
  double sim_in[2] = {0.0, 0.0};
  ipop::util::Rng coin(perfbench::mix_seed(opt.seed, 0x7ACE));
  std::optional<HotTimer> hot_timer;
  if (opt.trace) hot_timer.emplace(*w, opt.seed);
  double next_sample = 0.0;
  // Host rates come from windows of kWindowCpuS CPU seconds of the
  // measured phase (the last, partial one is dropped), each scaled by the
  // host-speed samples taken in it: their median, or pooled for a bursty
  // workload.  The kernel's own CPU time is left out of the program's.
  std::vector<double> win_cpu, win_ops, win_node_s, win_scale;
  double win_cpu0 = cpu0;
  std::size_t win_ref0 = ref0;
  perfbench::Progress win_p0 = w->progress();
  while (since(m0) < opt.seconds) {
    if (hot_timer && since(m0) >= next_sample) {
      hot_timer->sample();
      next_sample += 0.25;
    }
    const bool traced = opt.trace && coin.uniform() < 0.5;
    tracer.enable(traced);
    const auto t0 = Clock::now();
    const auto s0 = w->network().now();
    w->step();
    wall_in[traced] += since(t0);
    sim_in[traced] += ipop::util::to_seconds(w->network().now() - s0);
    const double cpu_now = ref.program_cpu();
    if (cpu_now - win_cpu0 >= kWindowCpuS) {
      const perfbench::Progress p = w->progress();
      win_cpu.push_back(cpu_now - win_cpu0);
      win_ops.push_back(static_cast<double>(p.completed - win_p0.completed));
      win_node_s.push_back(p.node_seconds - win_p0.node_seconds);
      win_scale.push_back(ref.scale_since(win_ref0));
      win_ref0 = ref.samples().size();
      win_cpu0 = cpu_now;
      win_p0 = p;
    }
  }
  tracer.enable(false);
  w->end_measure();
  // Peak RSS before the benchmark copies and sorts its latency samples.
  const double peak_kib = status_kib("VmHWM");
  const double measured_wall = since(m0);
  const double measured_cpu = ref.program_cpu() - cpu0;
  const double run_scale = ref.scale_since(ref0);
  const std::size_t run_ref_samples = ref.samples().size() - ref0;
  const Counters d = w->counters() - c0;
  if (win_cpu.empty()) {  // shorter than one window: the whole run is one
    const perfbench::Progress p = w->progress();
    win_cpu.push_back(measured_cpu);
    win_ops.push_back(static_cast<double>(p.completed - win_p0.completed));
    win_node_s.push_back(p.node_seconds - win_p0.node_seconds);
    win_scale.push_back(run_scale);
  }
  const double host_ref_ms = run_scale * perfbench::HostSpeed::kNominalS * 1e3;
  const auto host_rate = w->bursty() ? perfbench::pooled_rate
                                     : perfbench::median_rate;
  const double run_s = w->run_seconds();
  const auto queue_max = w->queue_depth_max();
  w->drain();
  std::vector<std::string> errors;
  w->check(d, errors);
  const Outcome o = w->outcome();
  const double sealed_frac =
      ratio(static_cast<double>(d.pkt_sealed),
            static_cast<double>(d.pkt_sealed + d.pkt_clear));
  if (o.attempted == 0) errors.push_back(name + ": no operation attempted");
  if (!errors.empty()) {
    for (const auto& e : errors) std::fprintf(stderr, "FAIL: %s\n", e.c_str());
    return rr;
  }

  const auto rtt = perfbench::summarize(o.rtt_ms, o.tail_ceiling);
  const double fail_frac = ratio(static_cast<double>(o.failed),
                                 static_cast<double>(o.attempted));
  const double app = static_cast<double>(o.app_bytes);
  const double ctrl_bytes = static_cast<double>(o.underlay_bytes) - app;
  const std::size_t nodes = w->nodes();

  std::vector<Metric> e2e = {
      {"setup_s", setup_median / setup_scale, "s", setup_s.size()},
      {"txn_per_s", host_rate(win_ops, win_cpu, win_scale), "txn/s",
       win_cpu.size()},
      {"node_s_per_s", host_rate(win_node_s, win_cpu, win_scale), "node_s/s",
       win_cpu.size()},
      {"rss_kb_per_node", (peak_kib - pre_rss_kib) / static_cast<double>(nodes),
       "KiB", nodes},
      {"rtt_p50_ms", rtt.p50, "ms", rtt.count},
      {"rtt_tail_ms", rtt.tail, "ms", rtt.count},
      {"ok_frac", 1.0 - fail_frac, "ratio", o.attempted},
      {"ctrl_B_per_node_s", ratio(ctrl_bytes, o.node_seconds), "B/node/s", 1},
  };
  auto lease = perfbench::summarize(o.lease_s, 90.0);
  std::vector<double> sorted_lease = o.lease_s;
  std::sort(sorted_lease.begin(), sorted_lease.end());
  const double lease_p90 = perfbench::nearest_rank(sorted_lease, 90.0).value_or(0.0);
  const std::vector<Metric> extra = {
      {"fail_frac", fail_frac, "ratio", o.attempted},
      {"retry_frac",
       ratio(static_cast<double>(o.retried), static_cast<double>(o.attempted)),
       "ratio", o.attempted},
      {"arp.orphan_probes", static_cast<double>(o.orphan_probes), "count", 1},
      {"arp.orphan_hangs", static_cast<double>(o.orphan_hangs), "count", 1},
      {"bulk_MBps", static_cast<double>(o.app_bytes) / 1e6 / measured_cpu,
       "MB/s", o.completed},
      {"vgoodput_KBps", perfbench::median(o.flow_goodput_KBps), "KB/s",
       o.flow_goodput_KBps.size()},
      {"lease_p50_s", lease.p50, "s", lease.count},
      {"lease_p90_s", lease_p90, "s", lease.count},
      {"wire_B_per_app_B", ratio(static_cast<double>(o.underlay_bytes), app),
       "ratio", 1},
  };

  if (!opt.trace) {
    std::printf("  measured %.3f s wall (%.3f s CPU, %zu windows), %.3f s "
                "simulated; host reference %.3f ms (nominal %.3f); unscaled "
                "%.6g txn/s, %.6g node_s/s\n",
                measured_wall, measured_cpu, win_cpu.size(), o.sim_seconds,
                host_ref_ms, perfbench::HostSpeed::kNominalS * 1e3,
                host_rate(win_ops, win_cpu, {}),
                host_rate(win_node_s, win_cpu, {}));
    std::printf("  %s: %llu completed, %llu attempted, %llu failed; rtt tail "
                "level p%g\n",
                o.op_name,
                static_cast<unsigned long long>(o.completed),
                static_cast<unsigned long long>(o.attempted),
                static_cast<unsigned long long>(o.failed), rtt.tail_level);
    print_table("end-to-end", e2e);
    print_table("workload-specific (0 = not exercised here)", extra);
    rr.metrics = e2e;
  } else {
    const auto hot = hot_timer->result();
    const auto u = [](std::uint64_t v) { return static_cast<double>(v); };
    const std::size_t replicas = w->hot_sizes().replicas;
    const double dht_signs = u(d.puts + d.creates);
    // Every write is verified where it is stored and again by each copy
    // of its replica fan-out (the replicas plus one counter-clockwise
    // guard); a re-replicated record by its fan-out; a handed-off record
    // where it lands; a signed departure notice by every neighbour that
    // hears it.
    const double fanout = static_cast<double>(replicas + 1);
    const double dht_verifies = dht_signs * (1.0 + fanout) +
                                u(d.rereplications) * fanout +
                                u(d.handoffs + d.departures_seen);
    const double secure_s =
        (hot.seal_us * u(d.sealed) + hot.open_us * u(d.opened + d.rejected)) / 1e6;
    const double dht_crypto_s =
        (hot.sign_us * dht_signs + hot.verify_us * dht_verifies) / 1e6;
    const double routing_s = hot.next_hop_ns * u(d.originated + d.forwarded) / 1e9;
    const double overhead = ratio(ratio(wall_in[1], sim_in[1]),
                                  ratio(wall_in[0], sim_in[0]));
    const std::size_t nspans = tracer.spans().size();
    std::vector<double> resolve_sorted = o.resolve_ms;
    std::sort(resolve_sorted.begin(), resolve_sorted.end());
    std::vector<Metric> layer = {
        {"crypto.sign_us", hot.sign_us, "us", hot.samples},
        {"crypto.verify_us", hot.verify_us, "us", hot.samples},
        {"crypto.keygen_us", hot.keygen_us, "us", hot.samples},
        {"secure.seal_us", hot.seal_us, "us", hot.samples},
        {"secure.open_us", hot.open_us, "us", hot.samples},
        {"secure.sealed", u(d.sealed), "count", 1},
        {"secure.opened", u(d.opened), "count", 1},
        {"secure.rejected", u(d.rejected), "count", 1},
        {"secure.key_agreements", u(d.key_agreements), "count", 1},
        {"secure.payload_bytes_copied", u(d.seal_copied), "B", 1},
        {"brunet.originated", u(d.originated), "count", 1},
        {"brunet.forwarded", u(d.forwarded), "count", 1},
        {"brunet.hops_per_pkt", ratio(u(d.originated + d.forwarded), u(d.delivered)),
         "ratio", d.delivered},
        {"brunet.drops", u(d.brunet_drops), "count", 1},
        {"brunet.next_hop_ns", hot.next_hop_ns, "ns", 65536},
        {"brunet.conn_per_node", w->mean_connections(), "count", nodes},
        {"brunet.edges_opened", u(d.edges_opened), "count", 1},
        {"brunet.keepalive_evictions", u(d.keepalive_evictions), "count", 1},
        {"dht.puts", u(d.puts), "count", 1},
        {"dht.creates", u(d.creates), "count", 1},
        {"dht.gets", u(d.gets), "count", 1},
        {"dht.hit_ratio", ratio(u(d.hits), u(d.gets)), "ratio", d.gets},
        {"dht.get_timeouts", u(d.get_timeouts), "count", 1},
        {"dht.handoffs", u(d.handoffs), "count", 1},
        {"dht.rereplications", u(d.rereplications), "count", 1},
        {"dht.sig_rejects", u(d.sig_rejects), "count", 1},
        {"ipop.tunneled", u(d.tunneled), "count", 1},
        {"ipop.injected", u(d.injected), "count", 1},
        {"ipop.dropped", u(d.ipop_dropped), "count", 1},
        {"ipop.sealed_frac", sealed_frac, "ratio", d.pkt_sealed + d.pkt_clear},
        {"arp.cache_hit_ratio", ratio(u(d.arp_cache_hits), u(d.arp_lookups)),
         "ratio", d.arp_lookups},
        {"arp.dht_misses", u(d.arp_dht_misses), "count", 1},
        {"arp.resolve_ms_p50",
         perfbench::nearest_rank(resolve_sorted, 50.0).value_or(0.0), "ms",
         resolve_sorted.size()},
        {"arp.invalidations", u(d.arp_invalidations), "count", 1},
        {"dhcp.attempts", u(d.dhcp_attempts), "count", 1},
        {"dhcp.conflict_ratio", ratio(u(d.dhcp_conflicts), u(d.dhcp_attempts)),
         "ratio", d.dhcp_attempts},
        {"dhcp.renewal_failures", u(d.dhcp_renewal_failures), "count", 1},
        {"shortcut.requests", u(d.sc_requests), "count", 1},
        {"shortcut.evicted", u(d.sc_evicted), "count", 1},
        {"net.ip_tx", u(d.ip_tx), "count", 1},
        {"net.drops", u(d.net_drops), "count", 1},
        {"net.payload_bytes_copied", u(d.net_copied), "B", 1},
        {"net.udp_send_calls", u(d.udp_send_calls), "count", 1},
        {"tcp.segments_sent", u(d.tcp_segments), "count", 1},
        {"tcp.retransmit_ratio", ratio(u(d.tcp_retransmits), u(d.tcp_segments)),
         "ratio", d.tcp_segments},
        {"sim.events", u(d.events), "count", 1},
        {"sim.events_per_s", ratio(u(d.events), run_s), "1/s", 1},
        {"sim.run_s", run_s, "s", 1},
        {"sim.queue_depth_max", static_cast<double>(queue_max), "count", 1},
        {"sim.link_frames", u(d.link_frames), "count", 1},
        {"sim.link_drops", u(d.link_drops), "count", 1},
        {"attr.secure_s", secure_s, "s", 1},
        {"attr.dht_crypto_s", dht_crypto_s, "s", 1},
        {"attr.routing_s", routing_s, "s", 1},
        {"attr.unattributed_s", run_s - secure_s - dht_crypto_s - routing_s, "s", 1},
        {"attr.crypto_share", ratio(secure_s + dht_crypto_s, run_s), "ratio", 1},
        {"trace.overhead_ratio", overhead, "ratio", nspans},
        {"trace.spans", static_cast<double>(nspans), "count", 1},
        {"host.ref_ms", host_ref_ms, "ms", run_ref_samples},
    };
    for (const auto& m : extra) {
      if (m.name != "bulk_MBps") layer.push_back(m);
    }
    std::printf("  traced: %.3f s wall (%.3f untraced + %.3f traced), "
                "%zu spans, overhead x%.3f per simulated second\n",
                measured_wall, wall_in[0], wall_in[1], nspans, overhead);
    print_table("per-layer", layer);
    for (const auto& [span, self] : tracer.self_seconds()) {
      std::printf("    span self time %-20s %10.4f s\n", span.c_str(), self);
    }
    if (!opt.trace_out.empty()) {
      const std::string path = opt.trace_out + "/trace_" + name + "_seed" +
                               std::to_string(opt.seed) + ".json";
      if (tracer.write(path)) std::printf("  spans written to %s\n", path.c_str());
    }
    rr.metrics = layer;
  }
  rr.ok = true;
  rr.attempted = o.attempted;
  rr.failed = o.failed;
  return rr;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name|all> --seed N --seconds S "
               "--trace <0|1> [--trace-out DIR]\n");
  for (const auto& w : perfbench::workloads()) {
    std::fprintf(stderr, "  %-11s %s\n", w.name, w.why);
  }
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // Built before the baseline RSS is read: its table is not the program's.
  perfbench::HostSpeed host;
  const double pre_rss = status_kib("VmRSS");
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    if (v == nullptr) return usage();
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      opt.seconds = std::atof(v);
    } else if (a == "--trace") {
      opt.trace = std::atoi(v) != 0;
    } else if (a == "--trace-out") {
      opt.trace_out = v;
    } else {
      return usage();
    }
    ++i;
  }
  std::vector<std::string> names;
  for (const auto& w : perfbench::workloads()) {
    if (opt.workload == "all" || opt.workload == w.name) names.push_back(w.name);
  }
  if (names.empty() || opt.seconds <= 0.0) return usage();

  bool all_ok = true;
  std::uint64_t attempted = 0, failed = 0;
  std::string metrics;
  for (const auto& name : names) {
    const RunResult r = run_workload(opt, name, pre_rss, host);
    std::fflush(stdout);
    if (!r.ok) {
      all_ok = false;
      continue;
    }
    attempted += r.attempted;
    failed += r.failed;
    const std::string m = json_metrics(r.metrics);
    metrics = names.size() == 1
                  ? m
                  : metrics + (metrics.empty() ? "" : ", ") + "\"" + name + "\": " + m;
  }
  if (!all_ok) return 1;
  if (names.size() > 1) metrics = "{" + metrics + "}";
  std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics.c_str());
  return 0;
}

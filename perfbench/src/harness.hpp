// The benchmark's world model: one simulated internetwork per workload,
// driven only through the layers' public APIs, plus the counter snapshot
// every workload reports from the layers' public stats accessors.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "ipop/node.hpp"
#include "metrics.hpp"
#include "net/topology.hpp"
#include "trace.hpp"

namespace perfbench {

// Per-layer counters, summed over every node / stack / link of a world.
// One X-list so snapshot subtraction and printing cannot drift apart.
#define PERFBENCH_COUNTERS(X)                                             \
  /* secure (brunet/secure) */                                            \
  X(sealed) X(opened) X(rejected) X(key_agreements) X(seal_copied)        \
  /* brunet routing/transport */                                          \
  X(originated) X(delivered) X(forwarded) X(brunet_drops) X(edges_opened) \
  X(keepalive_evictions) X(departures_seen)                               \
  /* dht */                                                               \
  X(puts) X(creates) X(gets) X(hits) X(get_timeouts) X(handoffs)          \
  X(rereplications) X(sig_rejects)                                        \
  /* ipop tunnel */                                                       \
  X(tunneled) X(injected) X(ipop_dropped) X(pkt_sealed) X(pkt_clear)      \
  /* brunet-arp / dhcp / shortcuts */                                     \
  X(arp_lookups) X(arp_cache_hits) X(arp_dht_misses) X(arp_invalidations) \
  X(dhcp_attempts) X(dhcp_conflicts) X(dhcp_renewal_failures)             \
  X(dhcp_acquisitions) X(lost_leases) X(sc_requests) X(sc_evicted)        \
  /* net stack */                                                         \
  X(ip_tx) X(net_drops) X(net_copied) X(udp_send_calls)                   \
  X(tcp_segments) X(tcp_retransmits)                                      \
  /* sim */                                                               \
  X(events) X(link_frames) X(link_bytes) X(link_drops)

struct Counters {
#define PERFBENCH_FIELD(name) std::uint64_t name = 0;
  PERFBENCH_COUNTERS(PERFBENCH_FIELD)
#undef PERFBENCH_FIELD

  Counters operator-(const Counters& o) const {
    Counters d;
#define PERFBENCH_SUB(name) d.name = name - o.name;
    PERFBENCH_COUNTERS(PERFBENCH_SUB)
#undef PERFBENCH_SUB
    return d;
  }
  void add_node(ipop::core::IpopNode& n);
  void add_stack(const ipop::net::Stack& s);
  /// One direction of an underlay link (the sender's side of the wire).
  void add_link(const ipop::sim::LinkStats& s);
};

/// What a workload measured between begin_measure() and end_measure().
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Operations that needed more than one try (churn's probes ask again
  /// after a miss).
  std::uint64_t retried = 0;
  /// churn: probes on a (prober, address) pair whose earlier lookup the
  /// prober's restart orphaned, kept out of attempted/failed, and how
  /// many of them never answered.
  std::uint64_t orphan_probes = 0;
  std::uint64_t orphan_hangs = 0;
  /// Operations completed and verified inside the measured wall window.
  std::uint64_t completed = 0;
  const char* op_name = "txn";
  std::vector<double> rtt_ms;   // sim request->reply latency
  double tail_ceiling = 99.0;   // highest tail level reported
  double node_seconds = 0.0;    // sim live-node-seconds
  double sim_seconds = 0.0;
  std::uint64_t app_bytes = 0;  // verified application payload bytes
  std::uint64_t underlay_bytes = 0;
  std::vector<double> lease_s;            // churn: lease acquisition
  std::vector<double> flow_goodput_KBps;  // bulk: per-transfer goodput
  std::vector<double> resolve_ms;         // sim Brunet-ARP resolve latency
};

/// Work done since begin_measure(), read at measurement-window
/// boundaries.
struct Progress {
  std::uint64_t completed = 0;  // operations counted toward throughput
  double node_seconds = 0.0;    // sim live-node-seconds
};

/// Frame/record sizes the traced run times the hot calls at.
struct HotSizes {
  std::vector<std::size_t> frames;  // tunnel payload sizes
  std::size_t replicas = 0;         // DHT replication factor
};

class World {
 public:
  virtual ~World() = default;
  /// Build, boot, self-configure/converge and warm the caches.  Returns
  /// an error message, or "" on success.
  virtual std::string setup() = 0;
  virtual std::size_t nodes() const = 0;
  virtual void begin_measure() = 0;
  /// Advance the simulation by one workload-defined window.
  virtual void step() = 0;
  /// Stop counting: operations finishing later are drained, verified and
  /// counted as attempted/failed, but not toward throughput.
  virtual void end_measure() = 0;
  virtual void drain() = 0;
  virtual Counters counters() = 0;
  virtual Progress progress() = 0;
  /// True when the load comes in bursts that cost far more than the
  /// steady part between them (churn events).  Window rates are then
  /// pooled, total work over total scaled CPU time, because their median
  /// would jump between the burst and the quiet mode.
  virtual bool bursty() const { return false; }
  /// Correctness and mode guards over the outputs and the measured-phase
  /// counter deltas `d`; append one line per violation.
  virtual void check(const Counters& d, std::vector<std::string>& errors) = 0;
  virtual Outcome outcome() = 0;
  virtual HotSizes hot_sizes() const = 0;
  /// A live overlay node whose connection table the routing timer uses.
  virtual ipop::brunet::BrunetNode& sample_overlay() = 0;
  virtual double mean_connections() = 0;

  ipop::net::Network& network() { return *net_; }
  void set_tracer(Tracer* t) { tracer_ = t; }
  /// Called after every engine call, outside its timing and span (the
  /// benchmark samples host speed there).
  void set_run_hook(std::function<void()> hook) { run_hook_ = std::move(hook); }
  /// Wall seconds spent inside Network::run_until during measurement.
  double run_seconds() const { return run_s_; }
  std::size_t queue_depth_max() const { return queue_max_; }
  void reset_run_clock() {
    run_s_ = 0.0;
    queue_max_ = 0;
  }

 protected:
  /// The one place the benchmark enters the engine: traced, timed, and
  /// sampled for event-queue depth.
  void run_until(ipop::util::TimePoint t);
  std::int64_t now_ns() const { return net_->now().count(); }

  std::unique_ptr<ipop::net::Network> net_;
  Tracer* tracer_ = nullptr;
  std::function<void()> run_hook_;
  double run_s_ = 0.0;
  std::size_t queue_max_ = 0;
};

struct WorkloadInfo {
  const char* name;
  const char* why;
};
const std::vector<WorkloadInfo>& workloads();
std::unique_ptr<World> make_world(const std::string& name,
                                  std::uint64_t seed);

/// Deterministic per-object seed from the run seed.
inline std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + salt + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return (z ^ (z >> 31)) | 1;
}

}  // namespace perfbench

// The four workloads.  Every model constant a workload depends on is
// pinned here (base_config() and the per-workload overrides), so a
// simulated metric moves only when protocol behaviour changes, never
// because a library default was edited.
#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <map>
#include <optional>
#include <set>
#include <span>

#include "harness.hpp"
#include "ipop/dhcp.hpp"
#include "rpc.hpp"

namespace perfbench {

using ipop::util::Duration;
using ipop::util::microseconds;
using ipop::util::milliseconds;
using ipop::util::seconds;
namespace core = ipop::core;
namespace net = ipop::net;

// --- counters ---------------------------------------------------------------

void Counters::add_node(core::IpopNode& n) {
  const auto& se = n.sealer().stats();
  sealed += se.sealed;
  opened += se.opened;
  rejected += se.rejected;
  key_agreements += se.key_agreements;
  seal_copied += se.payload_bytes_copied;
  const auto& ov = n.overlay().stats();
  originated += ov.originated;
  delivered += ov.delivered;
  forwarded += ov.forwarded;
  brunet_drops += ov.dropped_ttl + ov.dropped_no_route + ov.dropped_exact;
  edges_opened += ov.edges_opened;
  keepalive_evictions += ov.keepalive_evictions;
  departures_seen += ov.departures_seen;
  const auto& d = n.dht().stats();
  puts += d.puts;
  creates += d.creates;
  gets += d.gets;
  hits += d.hits;
  get_timeouts += d.get_timeouts;
  handoffs += d.handoffs;
  rereplications += d.rereplications;
  sig_rejects += d.sig_rejects;
  const auto& m = n.metrics();
  tunneled += m.packets_tunneled;
  injected += m.packets_injected;
  ipop_dropped += m.dropped_non_ip + m.dropped_parse + m.dropped_unresolved +
                  m.dropped_not_ours + m.dropped_seal_reject;
  pkt_sealed += m.packets_sealed;
  pkt_clear += m.packets_clear;
  if (const auto* arp = n.brunet_arp()) {
    arp_lookups += arp->stats().lookups;
    arp_cache_hits += arp->stats().cache_hits;
    arp_dht_misses += arp->stats().dht_misses;
    arp_invalidations += arp->stats().invalidations;
  }
  if (const auto* dh = n.dhcp()) {
    dhcp_attempts += dh->stats().attempts;
    dhcp_conflicts += dh->stats().conflicts;
    dhcp_renewal_failures += dh->stats().renewal_failures;
    dhcp_acquisitions += dh->stats().acquisitions;
    lost_leases += dh->stats().lost_leases;
  }
  sc_requests += n.shortcuts().stats().requests;
  sc_evicted += n.shortcuts().stats().evicted;
  add_stack(n.host().stack());
}

void Counters::add_stack(const net::Stack& s) {
  const auto& c = s.counters();
  ip_tx += c.ip_tx;
  net_drops += c.dropped_no_route + c.dropped_ttl + c.dropped_parse +
               c.dropped_checksum + c.dropped_hook + c.dropped_mtu +
               c.dropped_arp_fail;
  net_copied += c.payload_bytes_copied;
  udp_send_calls += c.udp_send_calls;
}

void Counters::add_link(const ipop::sim::LinkStats& s) {
  link_frames += s.frames_delivered;
  link_bytes += s.bytes_delivered;
  link_drops += s.frames_dropped_queue + s.frames_dropped_loss;
}

void World::run_until(ipop::util::TimePoint t) {
  {
    Scope span(*tracer_, "sim.run_until");
    const auto w0 = std::chrono::steady_clock::now();
    net_->run_until(t);
    run_s_ += std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            w0)
                  .count();
    queue_max_ = std::max(queue_max_, net_->engine().loop(0).queue_depth());
  }
  if (run_hook_) run_hook_();
}

namespace {

// --- pinned model constants ---------------------------------------------------

/// Every IpopConfig knob the workloads' behaviour depends on, written out
/// (values as calibrated for the paper reproduction at the time the
/// benchmark was defined).
core::IpopConfig base_config() {
  core::IpopConfig c;
  c.tap.mtu = 1200;
  c.tap.crossing_delay = microseconds(5);
  c.tap.subnet = net::Ipv4Prefix{net::Ipv4Address(172, 16, 0, 0), 16};
  c.tap.gateway = net::Ipv4Address(172, 16, 255, 254);
  c.cpu_per_packet = microseconds(240);
  c.sched_latency = microseconds(1330);
  c.overlay.transport = ipop::brunet::TransportAddress::Proto::kUdp;
  c.overlay.port = 17001;
  c.overlay.near_per_side = 2;
  c.overlay.shortcut_target = 2;
  c.overlay.maintenance_interval = milliseconds(500);
  c.overlay.edge_idle_ping = seconds(5);
  c.overlay.edge_timeout = seconds(15);
  c.overlay.request_timeout = seconds(3);
  c.overlay.link_retry = milliseconds(400);
  c.overlay.link_attempts = 6;
  c.overlay.default_ttl = 32;
  c.dht.replicas = 2;
  c.dht.record_ttl = seconds(600);
  c.dht.republish_interval = seconds(5);
  c.dht.rereplicate_delay = milliseconds(500);
  c.dht.get_retries = 2;
  c.dht.get_retry_delay = milliseconds(1500);
  c.dht.min_owner_age = seconds(5);
  c.dht.create_retries = 8;
  c.dht.create_retry_delay = milliseconds(1000);
  c.brunet_arp.cache_ttl = seconds(30);
  c.brunet_arp.reregister_interval = seconds(60);
  c.brunet_arp.register_retry = seconds(2);
  c.brunet_arp.pending_queue_limit = 64;
  c.dhcp.pool_start = net::Ipv4Address(172, 16, 1, 0);
  c.dhcp.pool_size = 4096;
  c.dhcp.renew_interval = seconds(60);
  c.dhcp.max_attempts = 16;
  c.dhcp.join_poll = milliseconds(500);
  c.dhcp.confirm_readback = true;
  c.dhcp.dispute_rounds = 3;
  c.shortcuts.enabled = false;
  c.shortcuts.threshold = 32;
  c.shortcuts.window = seconds(10);
  c.shortcuts.retry_backoff = seconds(30);
  c.shortcuts.max_tracked = 1024;
  return c;
}

net::StackConfig stack_config(std::uint64_t seed, std::uint64_t i) {
  net::StackConfig s;
  s.per_packet_delay = microseconds(25);
  s.arp_retry = seconds(1);
  s.arp_retries = 3;
  s.seed = mix_seed(seed, i + 1);
  return s;
}

ipop::sim::LinkConfig lan_link() {
  ipop::sim::LinkConfig l;
  l.delay = microseconds(200);
  l.bandwidth_bps = 1e9;
  l.queue_bytes = 512 * 1024;
  l.loss_rate = 0.0;
  // A little jitter makes simulated latencies continuous; without it they
  // sit on a comb of per-hop levels and repeat exactly across seeds.
  l.jitter = microseconds(100);
  return l;
}

// Underlay address for node i: base-250 digits under 10.0.0.0/8.
net::Ipv4Address underlay_ip(std::size_t i) {
  const auto u = static_cast<std::uint32_t>(i);
  return net::Ipv4Address(10, static_cast<std::uint8_t>(u / 62500),
                          static_cast<std::uint8_t>((u / 250) % 250),
                          static_cast<std::uint8_t>(u % 250 + 1));
}

// Classic-mode virtual address for node i (172.16.0.0/16, skipping .0/.255
// last octets and the gateway).
net::Ipv4Address classic_vip(std::size_t i) {
  const auto u = static_cast<std::uint32_t>(i);
  return net::Ipv4Address(172, 16, static_cast<std::uint8_t>(u / 250),
                          static_cast<std::uint8_t>(u % 250 + 1));
}

std::int64_t ns(Duration d) { return d.count(); }

/// The LAN workloads' network — node identities (hence ring positions in
/// self-configuring mode) and link jitter streams — comes from this fixed
/// seed; the run seed draws the inputs: who talks to whom and what is
/// probed.  With the network redrawn per seed, host throughput swung by
/// ~15 % between seeds on structure alone.
constexpr std::uint64_t kTopologySeed = 1;

/// One flat switched segment of IPOP nodes (the soak's LAN model): every
/// host has one uplink whose host->switch direction is the node's wire.
class LanWorld : public World {
 public:
  LanWorld(std::uint64_t seed, std::size_t n) : seed_(seed), n_(n) {}

  std::size_t nodes() const override { return n_; }
  ipop::brunet::BrunetNode& sample_overlay() override {
    return nodes_[0]->overlay();
  }
  double mean_connections() override {
    double total = 0.0;
    std::size_t live = 0;
    for (std::size_t i = 0; i < n_; ++i) {
      if (!is_live(i)) continue;
      total += static_cast<double>(nodes_[i]->overlay().table().size());
      ++live;
    }
    return live > 0 ? total / static_cast<double>(live) : 0.0;
  }
  Counters counters() override {
    Counters c;
    for (auto& n : nodes_) c.add_node(*n);
    for (auto* l : links_) c.add_link(l->stats_a_to_b());
    c.events = net_->engine().events_processed();
    return c;
  }

 protected:
  virtual bool is_live(std::size_t) const { return true; }

  void build_lan(const ipop::sim::LinkConfig& link = lan_link()) {
    net_ = std::make_unique<net::Network>(kTopologySeed);
    auto& sw = net_->add_switch("core");
    sw.set_arp_suppression(true);
    for (std::size_t i = 0; i < n_; ++i) {
      auto& h = net_->add_host("c" + std::to_string(i),
                               stack_config(kTopologySeed, i));
      links_.push_back(&net_->connect_to_switch(
          h.stack(), {"eth0", underlay_ip(i), 8, 1500, {}}, sw, link));
      hosts_.push_back(&h);
    }
  }
  void add_node(core::IpopConfig cfg) {
    const std::size_t i = nodes_.size();
    nodes_.push_back(std::make_unique<core::IpopNode>(*hosts_[i], cfg));
    if (i > 0) {
      nodes_[i]->add_seed({ipop::brunet::TransportAddress::Proto::kUdp,
                           underlay_ip(0), 17001});
    }
  }
  /// Sorted-ring check: every live node holds its true ring successor.
  bool ring_consistent() const {
    std::vector<core::IpopNode*> live;
    for (std::size_t i = 0; i < n_; ++i) {
      if (is_live(i)) live.push_back(nodes_[i].get());
    }
    std::sort(live.begin(), live.end(), [](auto* a, auto* b) {
      return a->overlay().address() < b->overlay().address();
    });
    for (std::size_t i = 0; i < live.size(); ++i) {
      const auto& succ = live[(i + 1) % live.size()]->overlay();
      if (!live[i]->overlay().table().contains(succ.address())) return false;
    }
    return true;
  }
  std::uint64_t underlay_bytes() const {
    std::uint64_t b = 0;
    for (auto* l : links_) b += l->stats_a_to_b().bytes_delivered;
    return b;
  }

  std::uint64_t seed_;
  std::size_t n_;
  std::vector<net::Host*> hosts_;
  std::vector<ipop::sim::Link*> links_;
  std::vector<std::unique_ptr<core::IpopNode>> nodes_;
};

// --- rpc_sealed ---------------------------------------------------------------

/// ~32 self-configured (DHCP + Brunet-ARP) nodes; one closed-loop client
/// per node addressing a fixed set of 4 peers; every tunneled frame sealed.
class RpcSealedWorld : public LanWorld {
 public:
  static constexpr std::size_t kNodes = 32;
  static constexpr std::size_t kPeersPerClient = 4;

  explicit RpcSealedWorld(std::uint64_t seed)
      : LanWorld(seed, kNodes),
        fleet_([this] { return now_ns(); }, ns(seconds(2)), tracer_) {}

  std::string setup() override {
    build_lan();
    auto cfg = base_config();
    cfg.use_dhcp = true;
    // Shortcuts form during warm-up, so the measured phase runs on direct
    // edges (the shortcut cache's hit path).
    cfg.shortcuts.enabled = true;
    cfg.shortcuts.threshold = 2;
    // The back-off also gates the first request (measured from t = 0), so
    // it must be shorter than the self-configuration phase.
    cfg.shortcuts.retry_backoff = seconds(5);
    for (std::size_t i = 0; i < n_; ++i) add_node(cfg);
    for (std::size_t i = 0; i < n_; ++i) {
      Scope span(*tracer_, "ipop.start");
      nodes_[i]->start();
      run_until(net_->now() + milliseconds(100));
    }
    const auto deadline = net_->now() + seconds(300);
    while (net_->now() < deadline) {
      run_until(net_->now() + seconds(1));
      if (all_configured() && ring_consistent()) break;
    }
    if (!all_configured()) return "rpc_sealed: not every node self-configured";
    ipop::util::Rng rng(mix_seed(seed_, 0xC11E));
    peers_.resize(n_);
    for (std::size_t c = 0; c < n_; ++c) {
      while (peers_[c].size() < kPeersPerClient) {
        const auto p = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(n_) - 1));
        if (p == c || std::count(peers_[c].begin(), peers_[c].end(), p)) {
          continue;
        }
        peers_[c].push_back(p);
      }
    }
    for (std::size_t i = 0; i < n_; ++i) {
      fleet_.add_server(*hosts_[i]);
      fleet_.add_client(*hosts_[i], mix_seed(seed_, 0x10000 + i));
    }
    // Warm-up: a few rounds to every peer fill the resolver and DH-key
    // caches and trip the shortcut threshold, then idle while the
    // shortcut links form.
    fleet_.set_picker([this](std::size_t c, ipop::util::Rng&) {
      auto& k = warm_cursor_[c];
      return nodes_[peers_[c][k++ % kPeersPerClient]]->virtual_ip();
    });
    warm_cursor_.assign(n_, 0);
    fleet_.set_quota(2 * kPeersPerClient);
    fleet_.start();
    const auto warm_deadline = net_->now() + seconds(60);
    while (!fleet_.idle() && net_->now() < warm_deadline) {
      run_until(net_->now() + milliseconds(20));
      fleet_.poll();
    }
    fleet_.stop_issuing();
    fleet_.set_quota(0);
    run_until(net_->now() + seconds(3));
    if (fleet_.ledger().failed() > 0 || fleet_.bad_replies() > 0) {
      return "rpc_sealed: warm-up requests failed";
    }
    fleet_.set_picker([this](std::size_t c, ipop::util::Rng& r) {
      const auto k = static_cast<std::size_t>(
          r.uniform_int(0, kPeersPerClient - 1));
      return nodes_[peers_[c][k]]->virtual_ip();
    });
    return "";
  }

  void begin_measure() override {
    warm_ledger_ = {fleet_.ledger().attempted(), fleet_.ledger().failed(),
                    fleet_.ledger().latencies_ms().size()};
    t0_ = now_ns();
    bytes0_ = underlay_bytes();
    fleet_.set_counting(true);
    fleet_.start();
  }
  void step() override {
    run_until(net_->now() + milliseconds(1));
    fleet_.poll();
  }
  void end_measure() override {
    fleet_.set_counting(false);
    fleet_.stop_issuing();
    t1_ = now_ns();
    bytes1_ = underlay_bytes();
  }
  void drain() override {
    const auto deadline = net_->now() + seconds(5);
    while (!fleet_.idle() && net_->now() < deadline) {
      run_until(net_->now() + milliseconds(5));
      fleet_.poll();
    }
  }
  void check(const Counters& d, std::vector<std::string>& errors) override {
    if (fleet_.bad_requests() > 0 || fleet_.bad_replies() > 0) {
      errors.push_back("rpc_sealed: corrupted request or reply bytes");
    }
    // Mode guard: every tunneled frame sealed, none rejected.
    if (d.pkt_sealed == 0 || d.pkt_clear != 0) {
      errors.push_back("rpc_sealed: ipop.sealed_frac != 1");
    }
    if (d.rejected != 0) errors.push_back("rpc_sealed: secure.rejected != 0");
    if (!fleet_.idle()) errors.push_back("rpc_sealed: requests never drained");
  }
  Outcome outcome() override {
    Outcome o;
    auto& l = fleet_.ledger();
    o.attempted = l.attempted() - warm_ledger_[0];
    o.failed = l.failed() - warm_ledger_[1];
    o.completed = fleet_.counted_completions();
    o.rtt_ms.assign(l.latencies_ms().begin() +
                        static_cast<std::ptrdiff_t>(warm_ledger_[2]),
                    l.latencies_ms().end());
    // ~150 samples per wall second: p95 keeps >= 10 samples beyond it
    // even on a host a few times slower.
    o.tail_ceiling = 95.0;
    o.sim_seconds = static_cast<double>(t1_ - t0_) / 1e9;
    o.node_seconds = o.sim_seconds * static_cast<double>(n_);
    o.app_bytes = fleet_.counted_app_bytes();
    o.underlay_bytes = bytes1_ - bytes0_;
    return o;
  }
  Progress progress() override {
    return {fleet_.counted_completions(),
            static_cast<double>(now_ns() - t0_) / 1e9 * static_cast<double>(n_)};
  }
  HotSizes hot_sizes() const override {
    return {{RpcFleet::kRequestBytes + 28, RpcFleet::kReplyBytes + 28}, 2};
  }

 private:
  bool all_configured() const {
    return std::all_of(nodes_.begin(), nodes_.end(),
                       [](const auto& n) { return n->self_configured(); });
  }

  RpcFleet fleet_;
  std::vector<std::vector<std::size_t>> peers_;
  std::vector<std::size_t> warm_cursor_;
  std::array<std::uint64_t, 3> warm_ledger_{};
  std::int64_t t0_ = 0, t1_ = 0;
  std::uint64_t bytes0_ = 0, bytes1_ = 0;
};

// --- churn -------------------------------------------------------------------

/// 64 self-configured nodes under churn — joins, graceful leaves and
/// crashes in the churn soak's 4:3:3 mix, at ten times its rate — probed
/// by Brunet-ARP resolutions of random live nodes.  No data traffic.
///
/// The churn schedule is part of the fixed scenario, like the topology:
/// events fire on a one-second period, cycle through the mix in a fixed
/// order, and hit nodes drawn from the topology seed.  The run seed draws
/// the probes.  A ten-second budget covers ~40 events, and the crypto
/// cost of an event depends on the records its node holds, so a
/// seed-drawn schedule swung every host metric by ~20 % between seeds.
class ChurnWorld : public LanWorld {
 public:
  static constexpr std::size_t kNodes = 64;
  static constexpr Duration kEventPeriod = seconds(1);
  /// Resolution probes per simulated second.
  static constexpr double kProbesPerSecond = 100.0;
  static constexpr Duration kArpCacheTtl = seconds(1);
  /// A probe that misses asks again after this long, as the tunnel does
  /// when the next packet to an unresolved address arrives, until it
  /// resolves or the probe times out.
  static constexpr Duration kRetryDelay = seconds(1);
  static constexpr Duration kProbeTimeout = seconds(30);

  explicit ChurnWorld(std::uint64_t seed)
      : LanWorld(seed, kNodes),
        live_(kNodes),
        probes_(ns(kProbeTimeout)),
        slots_(kNodes),
        churn_rng_(mix_seed(kTopologySeed, 0xC4A7)),
        rng_(mix_seed(seed, 0x960B)) {}

  std::string setup() override {
    // Per-frame jitter smooths the resolve-latency distribution, which is
    // otherwise a comb of per-hop levels whose median jumps between teeth
    // from seed to seed.
    auto link = lan_link();
    link.jitter = milliseconds(1);
    build_lan(link);
    auto cfg = base_config();
    cfg.use_dhcp = true;
    // The soak's churn-tuned constants: short renewals and failure
    // detection, a third replica, fast binding refresh.
    cfg.dhcp.renew_interval = seconds(30);
    cfg.dht.replicas = 3;
    cfg.brunet_arp.cache_ttl = kArpCacheTtl;
    cfg.brunet_arp.reregister_interval = seconds(15);
    cfg.overlay.edge_idle_ping = seconds(2);
    cfg.overlay.edge_timeout = seconds(6);
    cfg.overlay.shortcut_target = 7;  // ~log2(N)
    cfg.cpu_per_packet = microseconds(50);
    cfg.sched_latency = microseconds(200);
    for (std::size_t i = 0; i < n_; ++i) {
      add_node(cfg);
      auto* slot = &slots_[i];
      auto* host = hosts_[i];
      nodes_[i]->set_configured_handler([this, slot, host](net::Ipv4Address) {
        slot->configured = host->loop().now().count();
        if (measuring_) {
          lease_s_.push_back(
              static_cast<double>(slot->configured - slot->started) / 1e9);
        }
      });
    }
    for (std::size_t i = 0; i < n_; ++i) {
      join(i);
      run_until(net_->now() + milliseconds(250));
    }
    const auto deadline = net_->now() + seconds(600);
    while (net_->now() < deadline) {
      run_until(net_->now() + seconds(2));
      if (all_configured() && ring_consistent() && duplicates() == 0) break;
    }
    if (!all_configured() || duplicates() != 0) {
      return "churn: warm-up did not self-configure every node";
    }
    return "";
  }

  void begin_measure() override {
    t0_ = now_ns();
    live_.open(t0_);
    lost0_ = counters().lost_leases;
    bytes0_ = underlay_bytes();
    measuring_ = true;
    counting_ = true;
    next_event_ = net_->now() + kEventPeriod;
    next_probe_ = net_->now() + exp_gap(kProbesPerSecond);
    next_audit_ = net_->now() + seconds(1);
  }
  void step() override {
    const auto window_end = net_->now() + milliseconds(20);
    while (net_->now() < window_end) {
      const auto next = std::min(
          {next_event_, next_probe_, next_audit_, next_retry(), window_end});
      run_until(next);
      retry_due();
      if (net_->now() >= next_event_) {
        churn_event();
        next_event_ = net_->now() + kEventPeriod;
      }
      if (net_->now() >= next_probe_) {
        probe();
        next_probe_ = net_->now() + exp_gap(kProbesPerSecond);
      }
      if (net_->now() >= next_audit_) {
        audit();
        expire_probes(now_ns(), now_ns());
        next_audit_ = net_->now() + seconds(1);
      }
    }
  }
  void end_measure() override {
    counting_ = false;
    t1_ = now_ns();
    node_seconds_ = live_.node_seconds(t1_);
    bytes1_ = underlay_bytes();
  }
  void drain() override {
    // Let in-flight resolutions settle (DHT and probe retries included);
    // no new churn or probes.  Whatever is left then has timed out.
    const auto deadline = net_->now() + kProbeTimeout;
    while (!open_probes_.empty() && net_->now() < deadline) {
      run_until(std::min(net_->now() + milliseconds(100), next_retry()));
      retry_due();
    }
    expire_probes(now_ns() + ns(kProbeTimeout) + 1,
                  now_ns() + ns(kProbeTimeout) + 1);
    audit();
    measuring_ = false;
  }
  void check(const Counters& d, std::vector<std::string>& errors) override {
    if (d.pkt_sealed + d.pkt_clear != 0) {
      errors.push_back("churn: data was tunneled");
    }
    if (duplicates_seen_ > 0) {
      errors.push_back("churn: " + std::to_string(duplicates_seen_) +
                       " duplicate leases");
    }
    const auto lost = counters().lost_leases - lost0_;
    if (lost > 0) {
      errors.push_back("churn: " + std::to_string(lost) + " lease losses");
    }
  }
  Outcome outcome() override {
    Outcome o;
    o.op_name = "resolve";
    o.attempted = probes_.attempted();
    o.failed = probes_.failed();
    o.retried = retried_;
    o.orphan_probes = orphan_probes_;
    o.orphan_hangs = orphan_hangs_;
    o.completed = counted_;
    o.rtt_ms = probes_.latencies_ms();
    // Resolutions that miss wait out DHT retry timers (1.5 s, then 3 s
    // more), so the distribution is bimodal around ~1% misses; p90 stays
    // inside the resolver's own latency instead of jumping between
    // retry levels from run to run.
    o.tail_ceiling = 90.0;
    o.sim_seconds = static_cast<double>(t1_ - t0_) / 1e9;
    o.node_seconds = node_seconds_;
    o.app_bytes = 0;
    o.underlay_bytes = bytes1_ - bytes0_;
    o.lease_s = lease_s_;
    o.resolve_ms = probes_.latencies_ms();
    return o;
  }
  Progress progress() override { return {counted_, live_.node_seconds(now_ns())}; }
  bool bursty() const override { return true; }
  HotSizes hot_sizes() const override { return {{92, 1052}, 3}; }
  ipop::brunet::BrunetNode& sample_overlay() override {
    for (std::size_t i = 0; i < n_; ++i) {
      if (live_.is_up(i)) return nodes_[i]->overlay();
    }
    return nodes_[0]->overlay();
  }

 protected:
  bool is_live(std::size_t i) const override { return live_.is_up(i); }

 private:
  struct Slot {
    std::int64_t started = 0;
    std::int64_t configured = 0;
  };
  struct Probe {
    std::size_t prober = 0;
    std::size_t target = 0;
    net::Ipv4Address vip;
    std::int64_t issued = 0;
    int attempts = 0;
    bool orphan = false;  // see orphans_
  };

  Duration exp_gap(double rate) {
    return ipop::util::seconds_f(rng_.exponential(1.0 / rate));
  }
  bool all_configured() const {
    for (std::size_t i = 0; i < n_; ++i) {
      if (live_.is_up(i) && !nodes_[i]->self_configured()) return false;
    }
    return true;
  }
  std::size_t duplicates() const {
    std::map<net::Ipv4Address, int> holders;
    for (std::size_t i = 0; i < n_; ++i) {
      if (live_.is_up(i) && nodes_[i]->self_configured()) {
        ++holders[nodes_[i]->virtual_ip()];
      }
    }
    std::size_t dups = 0;
    for (const auto& [ip, count] : holders) {
      if (count > 1) dups += static_cast<std::size_t>(count - 1);
    }
    return dups;
  }
  void audit() { duplicates_seen_ += duplicates(); }

  void join(std::size_t i) {
    slots_[i].started = now_ns();
    live_.up(i, now_ns());
    Scope span(*tracer_, "ipop.start");
    nodes_[i]->start();
  }
  void churn_event() {
    std::vector<std::size_t> up, down;
    for (std::size_t i = 1; i < n_; ++i) {  // node 0 = seed, pinned
      (live_.is_up(i) ? up : down).push_back(i);
    }
    const double live_fraction =
        static_cast<double>(up.size() + 1) / static_cast<double>(n_);
    // 4 joins : 3 graceful leaves : 3 crashes, interleaved.
    static constexpr char kMix[] = "JGCJGCJGCJ";
    const char kind = kMix[event_count_++ % (sizeof kMix - 1)];
    auto pick = [&](const std::vector<std::size_t>& v) {
      return v[static_cast<std::size_t>(
          churn_rng_.uniform_int(0, static_cast<std::int64_t>(v.size()) - 1))];
    };
    if (!down.empty() && (live_fraction < 0.85 || kind == 'J')) {
      join(pick(down));
    } else if (!up.empty()) {
      const auto i = pick(up);
      live_.down(i, now_ns());
      withdraw_probes_of(i);
      if (kind != 'C') {
        Scope span(*tracer_, "ipop.leave");
        nodes_[i]->leave();
      } else {
        Scope span(*tracer_, "ipop.stop");
        nodes_[i]->stop();  // crash: no departure notice
      }
    }
  }
  /// A probe whose prober or target goes down says nothing about the
  /// resolver: withdraw it.  (A node that goes down drops its pending
  /// lookups without calling back, so its own probes would otherwise
  /// time out as failures of a resolver never allowed to finish.)
  /// A lookup the prober itself still had running becomes an orphan.
  void withdraw_probes_of(std::size_t node) {
    for (auto it = open_probes_.begin(); it != open_probes_.end();) {
      const Probe& p = it->second;
      if (p.prober == node || p.target == node) {
        if (p.prober == node && retry_at_.count(it->first) == 0) {
          orphans_.insert({node, p.vip});
        }
        if (!p.orphan) probes_.abandon(it->first);
        retry_at_.erase(it->first);
        it = open_probes_.erase(it);
      } else {
        ++it;
      }
    }
  }
  /// Fails ordinary probes older than kProbeTimeout at `now` (the ledger
  /// decides); counts orphan probes that old at `orphan_now` as hangs.
  void expire_probes(std::int64_t now, std::int64_t orphan_now) {
    for (const auto id : probes_.expire(now)) {
      open_probes_.erase(id);
      retry_at_.erase(id);
    }
    for (auto it = open_probes_.begin(); it != open_probes_.end();) {
      if (it->second.orphan && orphan_now - it->second.issued > ns(kProbeTimeout)) {
        ++orphan_hangs_;
        retry_at_.erase(it->first);
        it = open_probes_.erase(it);
      } else {
        ++it;
      }
    }
  }
  ipop::util::TimePoint next_retry() const {
    auto t = ipop::util::TimePoint::max();
    for (const auto& [id, at] : retry_at_) t = std::min(t, at);
    return t;
  }
  void retry_due() {
    std::vector<std::uint64_t> due;
    for (const auto& [id, at] : retry_at_) {
      if (at <= net_->now()) due.push_back(id);
    }
    for (const auto id : due) {
      retry_at_.erase(id);
      ask(id);
    }
  }
  /// Nodes configured for at least `age` (and live).
  std::vector<std::size_t> settled(Duration age) const {
    std::vector<std::size_t> out;
    for (std::size_t i = 0; i < n_; ++i) {
      if (live_.is_up(i) && nodes_[i]->self_configured() &&
          now_ns() - slots_[i].configured > ns(age)) {
        out.push_back(i);
      }
    }
    return out;
  }
  void probe() {
    const auto probers = settled(seconds(2));
    // A target must have held its address for a resolver-cache TTL: the
    // cache by design bounds how long a re-leased address resolves to
    // its previous holder.
    const auto targets = settled(kArpCacheTtl + seconds(2));
    if (probers.size() < 2 || targets.size() < 2) return;
    auto pick = [&](const std::vector<std::size_t>& v) {
      return v[static_cast<std::size_t>(
          rng_.uniform_int(0, static_cast<std::int64_t>(v.size()) - 1))];
    };
    const auto b = pick(targets);
    auto a = pick(probers);
    while (a == b) a = pick(probers);
    const std::uint64_t id = next_probe_id_++;
    Probe p{a, b, nodes_[b]->virtual_ip(), now_ns()};
    p.orphan = orphans_.count({a, p.vip}) > 0;
    if (p.orphan) {
      ++orphan_probes_;
    } else {
      probes_.issue(id, now_ns());
    }
    open_probes_[id] = p;
    ask(id);
  }
  /// One resolve call for open probe `id`.  A miss (no binding, or a
  /// stale one) schedules another call; the probe fails only when no
  /// call has resolved the target within kProbeTimeout.
  void ask(std::uint64_t id) {
    auto& p = open_probes_.at(id);
    if (++p.attempts == 2) ++retried_;
    const auto expect = nodes_[p.target]->overlay().address();
    auto* arp = nodes_[p.prober]->brunet_arp();
    Scope span(*tracer_, "arp.resolve", id);
    arp->resolve(p.vip, [this, id, expect](std::optional<core::ArpBinding> binding) {
      const auto it = open_probes_.find(id);
      if (it == open_probes_.end()) return;  // withdrawn or timed out
      if (!binding || binding->addr != expect) {
        retry_at_[id] = net_->now() + kRetryDelay;
        return;
      }
      if (it->second.orphan) {
        orphans_.erase({it->second.prober, it->second.vip});  // healed
        open_probes_.erase(it);
        return;
      }
      open_probes_.erase(it);
      if (probes_.complete(id, now_ns(), true) && counting_) ++counted_;
    });
  }

  LiveTime live_;
  Ledger probes_;
  std::map<std::uint64_t, Probe> open_probes_;  // in flight, by id
  std::map<std::uint64_t, ipop::util::TimePoint> retry_at_;  // by id
  std::uint64_t retried_ = 0;  // probes that needed a second call
  /// (prober, address) pairs whose lookup was still running when the
  /// prober went down.  BrunetArp keeps such a lookup as in flight across
  /// stop() and start(), and the overlay drops its pending requests
  /// without calling back, so after the restart every resolve of that
  /// address on that node joins a lookup that never finishes — a defect
  /// of the resolver, not a miss under churn.  Probes on these pairs are
  /// kept out of the ledger (they would fail at random, a few per run)
  /// and counted here instead; one that answers clears its pair.
  std::set<std::pair<std::size_t, net::Ipv4Address>> orphans_;
  std::uint64_t orphan_probes_ = 0;  // probes issued on an orphaned pair
  std::uint64_t orphan_hangs_ = 0;   // of those, unanswered in kProbeTimeout
  std::vector<Slot> slots_;
  ipop::util::Rng churn_rng_;  // the fixed churn schedule
  ipop::util::Rng rng_;        // the probes
  bool measuring_ = false;
  bool counting_ = false;
  std::uint64_t counted_ = 0;
  std::uint64_t next_probe_id_ = 1;
  std::uint64_t event_count_ = 0;
  std::uint64_t duplicates_seen_ = 0;
  std::uint64_t lost0_ = 0;
  std::vector<double> lease_s_;
  ipop::util::TimePoint next_event_{}, next_probe_{}, next_audit_{};
  std::int64_t t0_ = 0, t1_ = 0;
  double node_seconds_ = 0.0;
  std::uint64_t bytes0_ = 0, bytes1_ = 0;
};

// --- ring_scale ---------------------------------------------------------------

/// 1024 classic-mode (SHA1(IP)) nodes on one segment; a sparse set of
/// closed-loop clients sends clear RPCs to uniformly random peers over
/// multi-hop greedy routes while every node keeps up ring maintenance.
class RingScaleWorld : public LanWorld {
 public:
  static constexpr std::size_t kNodes = 1024;
  static constexpr std::size_t kClients = 8;

  explicit RingScaleWorld(std::uint64_t seed)
      : LanWorld(seed, kNodes),
        fleet_([this] { return now_ns(); }, ns(seconds(2)), tracer_) {}

  std::string setup() override {
    build_lan();
    auto cfg = base_config();
    const auto ring_bits = static_cast<std::size_t>(
        std::bit_width(static_cast<std::uint64_t>(kNodes)));
    cfg.overlay.shortcut_target = ring_bits;
    cfg.cpu_per_packet = microseconds(50);
    cfg.sched_latency = microseconds(200);
    for (std::size_t i = 0; i < n_; ++i) {
      cfg.tap.ip = classic_vip(i);
      add_node(cfg);
    }
    for (std::size_t i = 0; i < n_; ++i) {
      {
        Scope span(*tracer_, "ipop.start");
        nodes_[i]->start();
      }
      if ((i + 1) % (n_ / 64) == 0) {
        run_until(net_->now() + milliseconds(250));
      }
    }
    const auto deadline = net_->now() + seconds(600);
    while (net_->now() < deadline) {
      run_until(net_->now() + seconds(2));
      if (ring_consistent()) break;
    }
    if (!ring_consistent()) return "ring_scale: ring did not converge";
    ipop::util::Rng rng(mix_seed(seed_, 0x5CA1E));
    for (std::size_t i = 0; i < n_; ++i) fleet_.add_server(*hosts_[i]);
    for (std::size_t c = 0; c < kClients; ++c) {
      // Clients spread evenly over the node index space.
      fleet_.add_client(*hosts_[c * (n_ / kClients)],
                        mix_seed(seed_, 0x20000 + c));
    }
    fleet_.set_picker([this](std::size_t c, ipop::util::Rng& r) {
      const std::size_t self = c * (n_ / kClients);
      std::size_t p = self;
      while (p == self) {
        p = static_cast<std::size_t>(
            r.uniform_int(0, static_cast<std::int64_t>(n_) - 1));
      }
      return classic_vip(p);
    });
    return "";
  }

  void begin_measure() override {
    t0_ = now_ns();
    bytes0_ = underlay_bytes();
    fleet_.set_counting(true);
    fleet_.start();
  }
  void step() override {
    run_until(net_->now() + milliseconds(20));
    fleet_.poll();
  }
  void end_measure() override {
    fleet_.set_counting(false);
    fleet_.stop_issuing();
    t1_ = now_ns();
    bytes1_ = underlay_bytes();
  }
  void drain() override {
    const auto deadline = net_->now() + seconds(5);
    while (!fleet_.idle() && net_->now() < deadline) {
      run_until(net_->now() + milliseconds(20));
      fleet_.poll();
    }
  }
  void check(const Counters& d, std::vector<std::string>& errors) override {
    if (fleet_.bad_requests() > 0 || fleet_.bad_replies() > 0) {
      errors.push_back("ring_scale: corrupted request or reply bytes");
    }
    if (d.pkt_sealed != 0 || d.pkt_clear == 0) {
      errors.push_back("ring_scale: ipop.sealed_frac != 0");
    }
    if (!fleet_.idle()) errors.push_back("ring_scale: requests never drained");
  }
  Outcome outcome() override {
    Outcome o;
    auto& l = fleet_.ledger();
    o.attempted = l.attempted();
    o.failed = l.failed();
    o.completed = fleet_.counted_completions();
    o.rtt_ms = l.latencies_ms();
    o.sim_seconds = static_cast<double>(t1_ - t0_) / 1e9;
    o.node_seconds = o.sim_seconds * static_cast<double>(n_);
    o.app_bytes = fleet_.counted_app_bytes();
    o.underlay_bytes = bytes1_ - bytes0_;
    return o;
  }
  Progress progress() override {
    return {fleet_.counted_completions(),
            static_cast<double>(now_ns() - t0_) / 1e9 * static_cast<double>(n_)};
  }
  HotSizes hot_sizes() const override {
    return {{RpcFleet::kRequestBytes + 28, RpcFleet::kReplyBytes + 28}, 2};
  }

 private:
  RpcFleet fleet_;
  std::int64_t t0_ = 0, t1_ = 0;
  std::uint64_t bytes0_ = 0, bytes1_ = 0;
};

// --- bulk_fig4 ----------------------------------------------------------------

/// Patterned ttcp-style transfer: one TCP connection carrying exactly
/// `bytes` bytes whose value at offset o is pattern(flow, transfer, o);
/// the sink verifies every byte and the total.
struct Transfer {
  std::size_t flow = 0;
  std::uint64_t number = 0;
  std::uint64_t bytes = 0;
  std::uint64_t queued = 0;
  std::uint64_t received = 0;
  bool closed = false;
  bool corrupt = false;
  std::int64_t started = 0;
  std::shared_ptr<net::TcpSocket> tx;
  std::shared_ptr<net::TcpSocket> rx;
};

inline std::uint8_t pattern_byte(std::size_t flow, std::uint64_t n,
                                 std::uint64_t off) {
  return static_cast<std::uint8_t>(off * 131 + n * 7 + flow * 61 +
                                   (off >> 8) * 3);
}

/// The paper's Figure-4 testbed with classic SHA1(IP) IPOP on all six
/// machines (address plan and seeding as in core::Fig4Overlay, configs
/// pinned here).  Concurrent patterned TCP transfers run F2 -> F4 (Table
/// II LAN) and V1 -> F4 (Table III WAN, through the VIMS firewall), and a
/// closed-loop RPC from F1 to F4 samples latency under that load.
class BulkFig4World : public World {
 public:
  static constexpr std::uint64_t kTransferBytes = 256 * 1024;
  static constexpr std::uint16_t kBasePort = 5001;

  explicit BulkFig4World(std::uint64_t seed)
      : seed_(seed),
        fleet_([this] { return now_ns(); }, ns(seconds(5)), tracer_),
        transfers_(ns(seconds(120))) {}

  std::string setup() override {
    net::Fig4Options t;
    t.host_stack_delay = microseconds(30);
    t.lan_link_delay = microseconds(120);
    t.lan_bw = 100e6;
    t.wan_hop_delay = ipop::util::milliseconds_f(2.8);
    t.wan_jitter = microseconds(20);
    t.wan_bw = 100e6;
    t.wan_loss = 0.0;
    t.wan_queue_bytes = 256 * 1024;
    t.campus_nat_type = net::NatType::kPortRestrictedCone;
    t.seed = seed_;
    tb_ = net::build_fig4(t);
    net_ = std::move(tb_.net);
    const std::vector<std::pair<std::string, net::Host*>> machines = {
        {"F1", tb_.f1}, {"F2", tb_.f2}, {"F3", tb_.f3},
        {"F4", tb_.f4}, {"V1", tb_.v1}, {"L1", tb_.l1}};
    const std::map<std::string, net::Ipv4Address> vips = {
        {"F4", {172, 16, 0, 2}},  {"F1", {172, 16, 0, 3}},
        {"F2", {172, 16, 0, 4}},  {"V1", {172, 16, 0, 18}},
        {"L1", {172, 16, 0, 20}}, {"F3", {172, 16, 0, 51}}};
    auto cfg = base_config();
    cfg.overlay.near_per_side = 3;  // fully meshes the six machines
    for (const auto& [name, host] : machines) {
      cfg.tap.ip = vips.at(name);
      auto node = std::make_unique<core::IpopNode>(*host, cfg);
      if (name != "F3") {
        node->add_seed({ipop::brunet::TransportAddress::Proto::kUdp,
                        tb_.f3_ip, 17001});
      }
      by_name_[name] = node.get();
      vip_[name] = vips.at(name);
      nodes_.push_back(std::move(node));
      count_egress(*host);
    }
    for (auto& n : nodes_) {
      Scope span(*tracer_, "ipop.start");
      n->start();
    }
    const auto deadline = net_->now() + seconds(240);
    auto full = [&] {
      for (const auto& n : nodes_) {
        if (n->overlay().table().size() + 1 < nodes_.size()) return false;
      }
      return true;
    };
    while (net_->now() < deadline && !full()) {
      run_until(net_->now() + milliseconds(500));
    }
    if (!link_pair("F2", "F4") || !link_pair("F4", "V1")) {
      return "bulk_fig4: measured pairs not directly linked";
    }
    fleet_.add_server(*tb_.f4);
    fleet_.add_client(*tb_.f1, mix_seed(seed_, 0xF1));
    // Random think time lets the probe sample the bulk flows' queues at
    // every phase instead of locking onto their rhythm.
    fleet_.set_think_time(ns(milliseconds(5)));
    fleet_.set_picker(
        [this](std::size_t, ipop::util::Rng&) { return vip_.at("F4"); });
    for (std::size_t f = 0; f < kFlows.size(); ++f) {
      auto listener = tb_.f4->stack().tcp_listen(
          static_cast<std::uint16_t>(kBasePort + f), tcp_config());
      listener->set_accept_handler(
          [this, f](std::shared_ptr<net::TcpSocket> sock) {
            accept(f, std::move(sock));
          });
      listeners_.push_back(std::move(listener));
    }
    return "";
  }

  std::size_t nodes() const override { return nodes_.size(); }
  void begin_measure() override {
    t0_ = now_ns();
    bytes0_ = egress_bytes_;
    counting_ = true;
    issuing_ = true;
    fleet_.set_counting(true);
    fleet_.start();
    for (std::size_t f = 0; f < kFlows.size(); ++f) start_transfer(f);
  }
  void step() override {
    run_until(net_->now() + milliseconds(20));
    fleet_.poll();
    for (const auto id : transfers_.expire(now_ns())) {
      const auto it = active_.find(id);
      if (it == active_.end()) continue;
      const std::size_t f = it->second.flow;
      retire(id);
      if (issuing_) start_transfer(f);
    }
  }
  void end_measure() override {
    counting_ = false;
    issuing_ = false;
    fleet_.set_counting(false);
    fleet_.stop_issuing();
    t1_ = now_ns();
    bytes1_ = egress_bytes_;
  }
  void drain() override {
    const auto deadline = net_->now() + seconds(120);
    while ((!fleet_.idle() || transfers_.in_flight() > 0) &&
           net_->now() < deadline) {
      run_until(net_->now() + milliseconds(50));
      fleet_.poll();
    }
  }
  Counters counters() override {
    Counters c;
    for (auto& n : nodes_) c.add_node(*n);
    c.link_frames = egress_frames_;
    c.link_bytes = egress_bytes_;
    c.tcp_segments = tcp_segments_;
    c.tcp_retransmits = tcp_retransmits_;
    for (const auto& [id, t] : active_) {
      if (t.tx) {
        c.tcp_segments += t.tx->stats().segments_sent;
        c.tcp_retransmits += t.tx->stats().retransmits;
      }
    }
    c.events = net_->engine().events_processed();
    return c;
  }
  void check(const Counters& d, std::vector<std::string>& errors) override {
    if (d.pkt_sealed != 0 || d.pkt_clear == 0) {
      errors.push_back("bulk_fig4: ipop.sealed_frac != 0");
    }
    if (corrupt_ > 0) {
      errors.push_back("bulk_fig4: " + std::to_string(corrupt_) +
                       " transfers delivered wrong bytes");
    }
    if (short_ > 0) {
      errors.push_back("bulk_fig4: " + std::to_string(short_) +
                       " transfers delivered != sent bytes");
    }
    if (fleet_.bad_requests() > 0 || fleet_.bad_replies() > 0) {
      errors.push_back("bulk_fig4: corrupted probe request or reply");
    }
    if (transfers_.in_flight() > 0 || !fleet_.idle()) {
      errors.push_back("bulk_fig4: transfers never drained");
    }
  }
  Outcome outcome() override {
    Outcome o;
    o.op_name = "transfer";
    o.attempted = transfers_.attempted() + fleet_.ledger().attempted();
    o.failed = transfers_.failed() + fleet_.ledger().failed();
    o.completed = counted_;
    o.rtt_ms = fleet_.ledger().latencies_ms();
    o.sim_seconds = static_cast<double>(t1_ - t0_) / 1e9;
    o.node_seconds = o.sim_seconds * static_cast<double>(nodes_.size());
    o.app_bytes = counted_bytes_ + fleet_.counted_app_bytes();
    o.underlay_bytes = bytes1_ - bytes0_;
    o.flow_goodput_KBps = goodput_;
    return o;
  }
  Progress progress() override {
    return {counted_, static_cast<double>(now_ns() - t0_) / 1e9 *
                          static_cast<double>(nodes_.size())};
  }
  HotSizes hot_sizes() const override { return {{1200}, 2}; }
  ipop::brunet::BrunetNode& sample_overlay() override {
    return by_name_.at("F4")->overlay();
  }
  double mean_connections() override {
    double total = 0.0;
    for (auto& n : nodes_) total += static_cast<double>(n->overlay().table().size());
    return total / static_cast<double>(nodes_.size());
  }

 private:
  struct Flow {
    const char* from;
  };
  static constexpr std::array<Flow, 2> kFlows = {{{"F2"}, {"V1"}}};

  static net::TcpConfig tcp_config() {
    net::TcpConfig c;
    c.send_buf = 64 * 1024;
    c.recv_buf = 64 * 1024;
    c.mss = 1460;
    c.min_rto = milliseconds(200);
    c.max_rto = seconds(60);
    c.initial_rto = seconds(1);
    c.time_wait = seconds(30);
    c.persist_interval = milliseconds(500);
    c.syn_retries = 6;
    c.nagle = false;
    return c;
  }

  /// Count IP bytes each machine puts on its physical interfaces (the
  /// tap is the virtual side and is excluded).
  void count_egress(net::Host& host) {
    auto& stack = host.stack();
    stack.set_postrouting_hook(
        [this, &stack](net::Ipv4Packet& pkt, std::size_t out_if) {
          if (stack.interface_name(out_if) != "tap0") {
            ++egress_frames_;
            egress_bytes_ += pkt.total_length();
          }
          return true;
        });
  }

  bool link_pair(const std::string& a, const std::string& b) {
    auto& na = by_name_.at(a)->overlay();
    auto& nb = by_name_.at(b)->overlay();
    const auto deadline = net_->now() + seconds(30);
    while (net_->now() < deadline) {
      if (na.table().contains(nb.address()) &&
          nb.table().contains(na.address())) {
        return true;
      }
      na.connect_to(nb.address(), nb.local_addresses(),
                    ipop::brunet::ConnectionType::kStructuredFar);
      nb.connect_to(na.address(), na.local_addresses(),
                    ipop::brunet::ConnectionType::kStructuredFar);
      run_until(net_->now() + milliseconds(500));
    }
    return false;
  }

  void start_transfer(std::size_t f) {
    const std::uint64_t id = next_transfer_++;
    auto& t = active_[id];
    t.flow = f;
    t.number = id;
    t.bytes = kTransferBytes;
    t.started = now_ns();
    transfers_.issue(id, t.started);
    Scope span(*tracer_, "net.tcp_connect", id);
    t.tx = by_name_.at(kFlows[f].from)->host().stack().tcp_connect(
        vip_.at("F4"), static_cast<std::uint16_t>(kBasePort + f),
        tcp_config());
    auto* tp = &t;
    t.tx->on_connected = [this, tp] { pump(tp); };
    t.tx->on_writable = [this, tp] { pump(tp); };
  }
  void pump(Transfer* t) {
    std::uint8_t chunk[8192];
    while (t->queued < t->bytes) {
      const std::size_t want = static_cast<std::size_t>(
          std::min<std::uint64_t>(sizeof chunk, t->bytes - t->queued));
      for (std::size_t i = 0; i < want; ++i) {
        chunk[i] = pattern_byte(t->flow, t->number, t->queued + i);
      }
      const std::size_t sent =
          t->tx->send(std::span<const std::uint8_t>(chunk, want));
      t->queued += sent;
      if (sent < want) return;  // send buffer full; resume on_writable
    }
    if (!t->closed) {
      t->closed = true;
      t->tx->close();
    }
  }
  void accept(std::size_t f, std::shared_ptr<net::TcpSocket> sock) {
    // Pair the accepted connection with its sender by port.
    const auto it = std::find_if(active_.begin(), active_.end(), [&](auto& kv) {
      return kv.second.flow == f && !kv.second.rx &&
             kv.second.tx->local_port() == sock->remote_port();
    });
    if (it == active_.end()) {
      sock->abort();
      return;
    }
    Transfer* t = &it->second;
    const std::uint64_t id = it->first;
    t->rx = std::move(sock);
    t->rx->on_readable = [this, t, id] { sink(t, id); };
  }
  void sink(Transfer* t, std::uint64_t id) {
    while (true) {
      const auto chunk = t->rx->receive(64 * 1024);
      if (chunk.empty()) break;
      for (std::size_t i = 0; i < chunk.size(); ++i) {
        if (chunk[i] != pattern_byte(t->flow, t->number, t->received + i)) {
          t->corrupt = true;
        }
      }
      t->received += chunk.size();
    }
    if (!t->rx->eof()) return;
    t->rx->close();
    const bool ok = !t->corrupt && t->received == t->bytes;
    if (t->corrupt) ++corrupt_;
    if (t->received != t->bytes) ++short_;
    const std::size_t f = t->flow;
    if (const auto lat = transfers_.complete(id, now_ns(), ok)) {
      goodput_.push_back(static_cast<double>(t->bytes) / 1024.0 /
                         (static_cast<double>(*lat) / 1e9));
      if (counting_) {
        ++counted_;
        counted_bytes_ += t->bytes;
      }
    }
    // Retire after the callback unwinds: the socket is still in use.
    net_->loop().schedule_after(Duration{}, [this, id] { retire(id); });
    if (issuing_) start_transfer(f);
  }
  void retire(std::uint64_t id) {
    const auto it = active_.find(id);
    if (it == active_.end()) return;
    if (it->second.tx) {
      tcp_segments_ += it->second.tx->stats().segments_sent;
      tcp_retransmits_ += it->second.tx->stats().retransmits;
      it->second.tx->on_connected = nullptr;
      it->second.tx->on_writable = nullptr;
    }
    if (it->second.rx) it->second.rx->on_readable = nullptr;
    active_.erase(it);
  }

  std::uint64_t seed_;
  net::Fig4Testbed tb_;
  std::vector<std::unique_ptr<core::IpopNode>> nodes_;
  std::map<std::string, core::IpopNode*> by_name_;
  std::map<std::string, net::Ipv4Address> vip_;
  RpcFleet fleet_;
  Ledger transfers_;
  std::vector<std::shared_ptr<net::TcpListener>> listeners_;
  std::map<std::uint64_t, Transfer> active_;
  std::uint64_t next_transfer_ = 1;
  bool counting_ = false;
  bool issuing_ = false;
  std::uint64_t counted_ = 0, counted_bytes_ = 0;
  std::uint64_t corrupt_ = 0, short_ = 0;
  std::vector<double> goodput_;
  std::uint64_t egress_frames_ = 0, egress_bytes_ = 0;
  std::uint64_t tcp_segments_ = 0, tcp_retransmits_ = 0;
  std::int64_t t0_ = 0, t1_ = 0;
  std::uint64_t bytes0_ = 0, bytes1_ = 0;
};

}  // namespace

const std::vector<WorkloadInfo>& workloads() {
  static const std::vector<WorkloadInfo> list = {
      {"rpc_sealed",
       "32 DHCP-configured nodes, sealed 64 B/1 KB closed-loop RPC to 4 "
       "fixed peers: per-frame sign+verify and the cache hit paths"},
      {"bulk_fig4",
       "Figure-4 testbed, clear classic mode, concurrent LAN+WAN patterned "
       "TCP transfers: TCP stack, checksums, buffers, middleboxes; no "
       "crypto or DHT"},
      {"churn",
       "64 DHCP nodes under Poisson join/leave/crash with random Brunet-ARP "
       "probes: signed DHT writes, handoff, failure detection, resolver "
       "miss path"},
      {"ring_scale",
       "1024 classic nodes on one segment with sparse clear RPC to random "
       "peers: per-node state, timer load, multi-hop greedy routing"},
  };
  return list;
}

std::unique_ptr<World> make_world(const std::string& name,
                                  std::uint64_t seed) {
  if (name == "rpc_sealed") return std::make_unique<RpcSealedWorld>(seed);
  if (name == "bulk_fig4") return std::make_unique<BulkFig4World>(seed);
  if (name == "churn") return std::make_unique<ChurnWorld>(seed);
  if (name == "ring_scale") return std::make_unique<RingScaleWorld>(seed);
  return nullptr;
}

}  // namespace perfbench

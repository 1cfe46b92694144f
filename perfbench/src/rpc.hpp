// Closed-loop UDP request/response over the virtual IP network, as an
// RPC/NFS/MPI client would drive it: every client keeps exactly one
// request outstanding, sends the next only after the reply (or the
// timeout), and verifies each reply byte against its request id.
//
//   request (64 B):  "PBRQ" | id (u64) | client (u32) | pattern(id)
//   reply  (1024 B): "PBRP" | id (u64) | pattern'(id)
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "metrics.hpp"
#include "net/host.hpp"
#include "net/socket.hpp"
#include "trace.hpp"
#include "util/random.hpp"

namespace perfbench {

class RpcFleet {
 public:
  static constexpr std::size_t kRequestBytes = 64;
  static constexpr std::size_t kReplyBytes = 1024;
  static constexpr std::uint16_t kServerPort = 7000;
  static constexpr std::uint16_t kClientPort = 7001;

  using Clock = std::function<std::int64_t()>;
  /// Picks the server a client addresses next (from its own rng).
  using PeerPicker =
      std::function<ipop::net::Ipv4Address(std::size_t client,
                                           ipop::util::Rng& rng)>;

  RpcFleet(Clock clock, std::int64_t timeout_ns, Tracer*& tracer)
      : clock_(std::move(clock)), ledger_(timeout_ns), tracer_(tracer) {}

  void add_server(ipop::net::Host& host);
  void add_client(ipop::net::Host& host, std::uint64_t seed);
  void set_picker(PeerPicker p) { pick_ = std::move(p); }

  /// (Re)start issuing: every client sends its next request.
  void start();
  /// Issue nothing new from now on; in-flight requests still complete.
  void stop_issuing() { issuing_ = false; }
  /// Think time between a reply and the client's next request, drawn
  /// uniformly from [0, max) (0 = send immediately).
  void set_think_time(std::int64_t max_ns) { think_ns_ = max_ns; }
  /// Cap on requests per client from the next start() on (0 = none).
  void set_quota(std::uint64_t per_client) { quota_ = per_client; }
  /// Counting window for throughput: only completions while open count.
  void set_counting(bool on) { counting_ = on; }
  /// Expire requests older than the timeout (each counts as failed) and
  /// re-issue on their clients.
  void poll();

  Ledger& ledger() { return ledger_; }
  std::uint64_t counted_completions() const { return counted_; }
  std::uint64_t counted_app_bytes() const { return counted_bytes_; }
  /// Requests that reached a server malformed (a server-side check).
  std::uint64_t bad_requests() const { return bad_requests_; }
  std::uint64_t bad_replies() const { return bad_replies_; }
  bool idle() const { return ledger_.in_flight() == 0; }

  static std::uint8_t request_byte(std::uint64_t id, std::size_t i) {
    return static_cast<std::uint8_t>(id * 7 + i * 13 + 1);
  }
  static std::uint8_t reply_byte(std::uint64_t id, std::size_t i) {
    return static_cast<std::uint8_t>(id * 31 + i * 3 + 5);
  }

 private:
  struct Client {
    ipop::net::Host* host = nullptr;
    std::shared_ptr<ipop::net::UdpSocket> sock;
    ipop::util::Rng rng;
    std::uint64_t outstanding = 0;  // 0 = none
    std::uint64_t issued = 0;       // since the last start()
    ipop::net::Ipv4Address server;
  };

  void issue(std::size_t c);
  /// Issue the client's next request, after its think time.
  void next(std::size_t c);
  void on_reply(std::size_t c, ipop::net::Ipv4Address src,
                const ipop::util::Buffer& data);

  Clock clock_;
  Ledger ledger_;
  Tracer*& tracer_;
  PeerPicker pick_;
  std::vector<Client> clients_;
  std::vector<std::shared_ptr<ipop::net::UdpSocket>> servers_;
  std::uint64_t next_id_ = 1;
  bool issuing_ = true;
  std::uint64_t quota_ = 0;
  std::int64_t think_ns_ = 0;
  bool counting_ = false;
  std::uint64_t counted_ = 0;
  std::uint64_t counted_bytes_ = 0;
  std::uint64_t bad_requests_ = 0;
  std::uint64_t bad_replies_ = 0;
};

}  // namespace perfbench

#include "rpc.hpp"

#include <cstring>

#include "util/buffer.hpp"

namespace perfbench {

namespace {

constexpr std::uint8_t kReqMagic[4] = {'P', 'B', 'R', 'Q'};
constexpr std::uint8_t kRepMagic[4] = {'P', 'B', 'R', 'P'};

void put_u64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (56 - 8 * i));
}
std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | p[i];
  return v;
}

}  // namespace

void RpcFleet::add_server(ipop::net::Host& host) {
  auto sock = host.stack().udp_bind(kServerPort);
  std::weak_ptr<ipop::net::UdpSocket> weak = sock;
  sock->set_receive_handler([this, weak](ipop::net::Ipv4Address src,
                                         std::uint16_t src_port,
                                         ipop::util::Buffer data) {
    const auto bytes = data.as_span();
    bool ok = bytes.size() == kRequestBytes &&
              std::memcmp(bytes.data(), kReqMagic, 4) == 0;
    const std::uint64_t id = ok ? get_u64(bytes.data() + 4) : 0;
    for (std::size_t i = 16; ok && i < kRequestBytes; ++i) {
      ok = bytes[i] == request_byte(id, i);
    }
    if (!ok) {
      ++bad_requests_;
      return;
    }
    auto reply = ipop::util::Buffer::allocate(kReplyBytes,
                                              ipop::util::kPacketHeadroom);
    std::uint8_t* p = reply.data();
    std::memcpy(p, kRepMagic, 4);
    put_u64(p + 4, id);
    for (std::size_t i = 12; i < kReplyBytes; ++i) p[i] = reply_byte(id, i);
    if (auto s = weak.lock()) {
      Scope span(*tracer_, "net.udp_reply", id);
      s->send_to(src, src_port, std::move(reply));
    }
  });
  servers_.push_back(std::move(sock));
}

void RpcFleet::add_client(ipop::net::Host& host, std::uint64_t seed) {
  const std::size_t c = clients_.size();
  Client cl;
  cl.host = &host;
  cl.rng = ipop::util::Rng(seed);
  cl.sock = host.stack().udp_bind(kClientPort);
  cl.sock->set_receive_handler(
      [this, c](ipop::net::Ipv4Address src, std::uint16_t,
                ipop::util::Buffer data) { on_reply(c, src, data); });
  clients_.push_back(std::move(cl));
}

void RpcFleet::start() {
  issuing_ = true;
  for (auto& cl : clients_) cl.issued = 0;
  for (std::size_t c = 0; c < clients_.size(); ++c) issue(c);
}

void RpcFleet::issue(std::size_t c) {
  auto& cl = clients_[c];
  cl.outstanding = 0;
  if (!issuing_ || (quota_ > 0 && cl.issued >= quota_)) return;
  ++cl.issued;
  const std::uint64_t id = next_id_++;
  cl.server = pick_(c, cl.rng);
  cl.outstanding = id;
  auto req = ipop::util::Buffer::allocate(kRequestBytes,
                                          ipop::util::kPacketHeadroom);
  std::uint8_t* p = req.data();
  std::memcpy(p, kReqMagic, 4);
  put_u64(p + 4, id);
  const auto client = static_cast<std::uint32_t>(c);
  std::memcpy(p + 12, &client, 4);
  for (std::size_t i = 16; i < kRequestBytes; ++i) p[i] = request_byte(id, i);
  ledger_.issue(id, clock_());
  Scope span(*tracer_, "net.udp_send", id);
  cl.sock->send_to(cl.server, kServerPort, std::move(req));
}

void RpcFleet::on_reply(std::size_t c, ipop::net::Ipv4Address src,
                        const ipop::util::Buffer& data) {
  auto& cl = clients_[c];
  const auto bytes = data.as_span();
  if (bytes.size() < 12 || std::memcmp(bytes.data(), kRepMagic, 4) != 0) {
    ++bad_replies_;
    return;
  }
  const std::uint64_t id = get_u64(bytes.data() + 4);
  if (id != cl.outstanding) return;  // late reply to an expired request
  bool ok = bytes.size() == kReplyBytes && src == cl.server;
  for (std::size_t i = 12; ok && i < kReplyBytes; ++i) {
    ok = bytes[i] == reply_byte(id, i);
  }
  if (!ok) ++bad_replies_;
  if (ledger_.complete(id, clock_(), ok) && counting_) {
    ++counted_;
    counted_bytes_ += kRequestBytes + kReplyBytes;
  }
  next(c);
}

void RpcFleet::next(std::size_t c) {
  auto& cl = clients_[c];
  if (think_ns_ <= 0) {
    issue(c);
    return;
  }
  cl.outstanding = 0;
  const auto think = static_cast<std::int64_t>(
      cl.rng.uniform(0.0, static_cast<double>(think_ns_)));
  cl.host->loop().schedule_after(ipop::util::Duration{think},
                                 [this, c] { issue(c); });
}

void RpcFleet::poll() {
  for (const auto id : ledger_.expire(clock_())) {
    for (std::size_t c = 0; c < clients_.size(); ++c) {
      if (clients_[c].outstanding == id) next(c);
    }
  }
}

}  // namespace perfbench

// Unit tests for the wire formats: Ethernet, ARP, IPv4, ICMP, UDP, TCP.
// Each header has one writer (a prepend into headroom or a pre-sized
// slot) and one view parser; these tests round-trip the two.
#include <gtest/gtest.h>

#include "net/arp.hpp"
#include "net/ethernet.hpp"
#include "net/icmp.hpp"
#include "net/ipv4.hpp"
#include "net/tcp_wire.hpp"
#include "net/udp.hpp"
#include "util/random.hpp"

namespace ipop::net {
namespace {

TEST(MacTest, FormatAndBroadcast) {
  MacAddress m{{0x02, 0x1b, 0x00, 0x00, 0x00, 0x05}};
  EXPECT_EQ(m.to_string(), "02:1b:00:00:00:05");
  EXPECT_FALSE(m.is_broadcast());
  EXPECT_TRUE(MacAddress::broadcast().is_broadcast());
}

TEST(MacTest, FromIndexUnique) {
  EXPECT_NE(MacAddress::from_index(1), MacAddress::from_index(2));
  // Locally administered unicast: low bits of first octet are 0b10.
  EXPECT_EQ(MacAddress::from_index(7).octets[0] & 0x03, 0x02);
}

TEST(EthernetTest, RoundTrip) {
  const auto dst = MacAddress::from_index(1);
  const auto src = MacAddress::from_index(2);
  auto frame =
      frame_onto(util::Buffer::wrap({1, 2, 3, 4}), dst, src, EtherType::kArp);
  EXPECT_EQ(frame.size(), EthernetView::kHeaderSize + 4);
  auto g = EthernetView::parse(frame.view());
  EXPECT_EQ(g.dst, dst);
  EXPECT_EQ(g.src, src);
  EXPECT_EQ(g.type, EtherType::kArp);
  EXPECT_EQ(g.payload.to_vector(), (std::vector<std::uint8_t>{1, 2, 3, 4}));
}

TEST(EthernetTest, FrameOntoPrependsIntoHeadroom) {
  auto payload = util::Buffer::allocate(4, EthernetView::kHeaderSize);
  const std::uint8_t* first = payload.data();
  auto frame = frame_onto(std::move(payload), MacAddress::broadcast(),
                          MacAddress::from_index(2), EtherType::kIpv4);
  // The header landed in front of the payload's own storage.
  EXPECT_EQ(frame.data() + EthernetView::kHeaderSize, first);
  EXPECT_EQ(frame.headroom(), 0u);
  EXPECT_TRUE(EthernetView::parse(frame.view()).dst.is_broadcast());
}

TEST(EthernetTest, TruncatedThrows) {
  std::vector<std::uint8_t> short_frame(10, 0);
  EXPECT_THROW(EthernetView::parse(short_frame), util::ParseError);
}

TEST(Ipv4AddressTest, ParseFormat) {
  auto a = Ipv4Address::parse("172.16.0.2");
  EXPECT_EQ(a.to_string(), "172.16.0.2");
  EXPECT_EQ(a.value, 0xAC100002u);
  EXPECT_EQ(Ipv4Address(172, 16, 0, 2), a);
}

TEST(Ipv4AddressTest, ParseRejectsMalformed) {
  EXPECT_THROW(Ipv4Address::parse("256.1.1.1"), util::ParseError);
  EXPECT_THROW(Ipv4Address::parse("1.2.3"), util::ParseError);
  EXPECT_THROW(Ipv4Address::parse("a.b.c.d"), util::ParseError);
  EXPECT_THROW(Ipv4Address::parse(""), util::ParseError);
}

TEST(Ipv4PrefixTest, ContainsAndMask) {
  auto p = Ipv4Prefix::parse("172.16.0.0/16");
  EXPECT_TRUE(p.contains(Ipv4Address::parse("172.16.255.1")));
  EXPECT_FALSE(p.contains(Ipv4Address::parse("172.17.0.1")));
  EXPECT_EQ(p.to_string(), "172.16.0.0/16");
  auto all = Ipv4Prefix::parse("0.0.0.0/0");
  EXPECT_TRUE(all.contains(Ipv4Address::parse("8.8.8.8")));
  auto host = Ipv4Prefix::parse("10.0.0.1/32");
  EXPECT_TRUE(host.contains(Ipv4Address::parse("10.0.0.1")));
  EXPECT_FALSE(host.contains(Ipv4Address::parse("10.0.0.2")));
}

TEST(Ipv4PrefixTest, ParseRejectsMalformed) {
  EXPECT_THROW(Ipv4Prefix::parse("10.0.0.0"), util::ParseError);
  EXPECT_THROW(Ipv4Prefix::parse("10.0.0.0/33"), util::ParseError);
}

TEST(ChecksumTest, KnownVector) {
  // Example from RFC 1071 discussions.
  std::vector<std::uint8_t> data{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
  EXPECT_EQ(internet_checksum(data), 0x220d);
}

TEST(ChecksumTest, OddLength) {
  // Odd trailing byte is padded with zero: 0x0102 + 0x0300 = 0x0402.
  std::vector<std::uint8_t> data{0x01, 0x02, 0x03};
  EXPECT_EQ(internet_checksum(data), static_cast<std::uint16_t>(~0x0402));
}

TEST(Ipv4PacketTest, RoundTrip) {
  Ipv4Packet p;
  p.hdr.src = Ipv4Address::parse("10.0.0.1");
  p.hdr.dst = Ipv4Address::parse("10.0.0.2");
  p.hdr.proto = IpProto::kUdp;
  p.hdr.ttl = 31;
  p.payload = util::Buffer::wrap({9, 9, 9});
  auto q = Ipv4Packet::decode(p.take_wire());
  EXPECT_EQ(q.hdr.src, p.hdr.src);
  EXPECT_EQ(q.hdr.dst, p.hdr.dst);
  EXPECT_EQ(q.hdr.proto, IpProto::kUdp);
  EXPECT_EQ(q.hdr.ttl, 31);
  EXPECT_EQ(q.payload.to_vector(), (std::vector<std::uint8_t>{9, 9, 9}));
}

TEST(Ipv4PacketTest, ViewAndDecodeAgreeAndTrimPadding) {
  Ipv4Packet p;
  p.hdr.src = Ipv4Address::parse("10.0.0.1");
  p.hdr.dst = Ipv4Address::parse("10.0.0.2");
  p.payload = util::Buffer::allocate(6, util::kPacketHeadroom);
  const auto wire = p.take_wire();
  // Link padding past the total-length field is not payload.
  std::vector<std::uint8_t> padded(wire.begin(), wire.end());
  padded.resize(padded.size() + 4, 0);
  const auto view = Ipv4View::parse(padded);
  EXPECT_EQ(view.payload.size(), 6u);
  // decode() adopts the storage: the header becomes headroom.
  const auto q = Ipv4Packet::decode(util::Buffer::wrap(padded));
  EXPECT_EQ(q.hdr.dst, view.hdr.dst);
  EXPECT_EQ(q.payload.size(), 6u);
  EXPECT_EQ(q.payload.headroom(), Ipv4Header::kSize);
}

TEST(Ipv4PacketTest, CorruptedHeaderChecksumRejected) {
  Ipv4Packet p;
  p.hdr.src = Ipv4Address::parse("10.0.0.1");
  p.hdr.dst = Ipv4Address::parse("10.0.0.2");
  auto wire = p.take_wire();
  wire[8] ^= 0xFF;  // flip the TTL
  EXPECT_THROW(Ipv4View::parse(wire.view()), util::ParseError);
  EXPECT_THROW(Ipv4Packet::decode(std::move(wire)), util::ParseError);
}

TEST(Ipv4PacketTest, BadLengthRejected) {
  Ipv4Packet p;
  p.hdr.src = Ipv4Address::parse("10.0.0.1");
  p.hdr.dst = Ipv4Address::parse("10.0.0.2");
  p.payload = util::Buffer::wrap({1, 2, 3, 4});
  auto wire = p.take_wire();
  wire.drop_back(wire.size() - 22);  // truncate below total_length
  EXPECT_THROW(Ipv4Packet::decode(std::move(wire)), util::ParseError);
}

TEST(ArpTest, RoundTrip) {
  ArpMessage m;
  m.op = ArpOp::kRequest;
  m.sender_mac = MacAddress::from_index(3);
  m.sender_ip = Ipv4Address::parse("10.0.0.3");
  m.target_ip = Ipv4Address::parse("10.0.0.9");
  auto bytes = m.encode();
  EXPECT_EQ(bytes.size(), 28u);
  auto g = ArpMessage::decode(bytes);
  EXPECT_EQ(g.op, ArpOp::kRequest);
  EXPECT_EQ(g.sender_mac, m.sender_mac);
  EXPECT_EQ(g.sender_ip, m.sender_ip);
  EXPECT_EQ(g.target_ip, m.target_ip);
}

TEST(IcmpTest, EchoRoundTrip) {
  IcmpMessage m;
  m.type = IcmpType::kEchoRequest;
  m.id = 0x1234;
  m.seq = 7;
  m.payload = {0xDE, 0xAD};
  auto wire = m.encode_buffer(util::kPacketHeadroom);
  EXPECT_EQ(wire.headroom(), util::kPacketHeadroom);
  auto g = IcmpView::parse(wire.view());
  EXPECT_EQ(g.type, IcmpType::kEchoRequest);
  EXPECT_EQ(g.id, 0x1234);
  EXPECT_EQ(g.seq, 7);
  EXPECT_EQ(g.payload.to_vector(), m.payload);
  EXPECT_TRUE(g.is_echo());
}

TEST(IcmpTest, ChecksumValidated) {
  IcmpMessage m;
  m.type = IcmpType::kEchoReply;
  auto wire = m.encode_buffer(0);
  wire[4] ^= 0x01;
  EXPECT_THROW(IcmpView::parse(wire.view()), util::ParseError);
  // Middleboxes read transit headers without owning the checksum.
  EXPECT_EQ(IcmpView::parse_headers(wire.view()).type, IcmpType::kEchoReply);
}

TEST(UdpTest, RoundTrip) {
  std::vector<std::uint8_t> bytes{0, 0, 0, 0, 0, 0, 0, 0, 5, 6, 7, 8, 9};
  UdpView::write_header(bytes.data(), 1111, 53, 5);
  auto g = UdpView::parse(bytes);
  EXPECT_EQ(g.src_port, 1111);
  EXPECT_EQ(g.dst_port, 53);
  EXPECT_EQ(g.length, UdpView::kHeaderSize + 5);
  EXPECT_EQ(g.checksum, 0);  // "not computed" (RFC 768)
  EXPECT_EQ(g.payload.to_vector(), (std::vector<std::uint8_t>{5, 6, 7, 8, 9}));
}

TEST(UdpTest, PayloadTrimmedToLengthField) {
  std::vector<std::uint8_t> bytes(UdpView::kHeaderSize + 6, 0xEE);
  UdpView::write_header(bytes.data(), 1, 2, 2);  // 4 bytes of padding
  EXPECT_EQ(UdpView::parse(bytes).payload.size(), 2u);
}

TEST(UdpTest, BadLengthRejected) {
  std::vector<std::uint8_t> bytes(UdpView::kHeaderSize + 3, 0);
  UdpView::write_header(bytes.data(), 1, 2, 3);
  bytes[4] = 0;
  bytes[5] = 2;  // length < header size
  EXPECT_THROW(UdpView::parse(bytes), util::ParseError);
  bytes[5] = 12;  // length > bytes on the wire
  EXPECT_THROW(UdpView::parse(bytes), util::ParseError);
}

TEST(ChecksumTest, IncrementalUpdateMatchesRecompute) {
  // checksum_update (RFC 1624) must agree with a full re-sum after a
  // 16-bit word substitution.
  std::vector<std::uint8_t> data{0x12, 0x34, 0x56, 0x78, 0x9A, 0xBC};
  const std::uint16_t before = internet_checksum(data);
  const std::uint16_t old_word = 0x5678;
  const std::uint16_t new_word = 0xCAFE;
  data[2] = 0xCA;
  data[3] = 0xFE;
  EXPECT_EQ(checksum_update(before, old_word, new_word),
            internet_checksum(data));
  // Identity substitution is a no-op.
  EXPECT_EQ(checksum_update(before, old_word, old_word), before);
}

TEST(TcpWireTest, RoundTripWithChecksum) {
  const auto src = Ipv4Address::parse("1.2.3.4");
  const auto dst = Ipv4Address::parse("5.6.7.8");
  TcpSegment s;
  s.src_port = 4000;
  s.dst_port = 80;
  s.seq = 0xAABBCCDD;
  s.ack = 0x11223344;
  s.flags.syn = true;
  s.flags.ack = true;
  s.window = 8192;
  const util::BufferChain queue(util::Buffer::wrap({0, 1, 2, 3, 4}));
  auto wire = s.encode_gather(src, dst, util::kPacketHeadroom, queue, 1, 3);
  EXPECT_EQ(wire.size(), TcpSegment::kHeaderSize + 3);
  EXPECT_EQ(transport_checksum(src, dst, IpProto::kTcp, wire), 0);
  auto g = TcpView::parse(wire.view());
  EXPECT_EQ(g.src_port, 4000);
  EXPECT_EQ(g.dst_port, 80);
  EXPECT_EQ(g.seq, 0xAABBCCDDu);
  EXPECT_EQ(g.ack, 0x11223344u);
  EXPECT_TRUE(g.flags.syn);
  EXPECT_TRUE(g.flags.ack);
  EXPECT_FALSE(g.flags.fin);
  EXPECT_EQ(g.window, 8192);
  EXPECT_EQ(g.payload.to_vector(), (std::vector<std::uint8_t>{1, 2, 3}));
}

TEST(TcpWireTest, ControlSegmentIsBareHeader) {
  const auto src = Ipv4Address::parse("1.2.3.4");
  const auto dst = Ipv4Address::parse("5.6.7.8");
  TcpSegment s;
  s.flags.rst = true;
  auto wire = s.encode_buffer(src, dst, util::kPacketHeadroom);
  EXPECT_EQ(wire.size(), TcpSegment::kHeaderSize);
  EXPECT_EQ(wire.headroom(), util::kPacketHeadroom);
  EXPECT_EQ(transport_checksum(src, dst, IpProto::kTcp, wire), 0);
  EXPECT_TRUE(TcpView::parse(wire.view()).flags.rst);
  EXPECT_TRUE(TcpView::parse(wire.view()).payload.empty());
}

TEST(TcpWireTest, ChecksumCoversPseudoHeader) {
  const auto src = Ipv4Address::parse("1.2.3.4");
  const auto dst = Ipv4Address::parse("5.6.7.8");
  TcpSegment s;
  auto wire = s.encode_buffer(src, dst, 0);
  // Verifying with different addresses must fail the pseudo-header sum.
  EXPECT_NE(transport_checksum(Ipv4Address::parse("9.9.9.9"), dst,
                               IpProto::kTcp, wire),
            0);
}

/// RFC 1071 over a pseudo-header + segment image the test lays out
/// itself, one byte at a time: the reference transport_checksum must
/// match bit for bit.
std::uint16_t reference_transport_checksum(Ipv4Address src, Ipv4Address dst,
                                           IpProto proto,
                                           const std::vector<std::uint8_t>&
                                               segment) {
  std::vector<std::uint8_t> image;
  for (int shift = 24; shift >= 0; shift -= 8) {
    image.push_back(static_cast<std::uint8_t>(src.value >> shift));
  }
  for (int shift = 24; shift >= 0; shift -= 8) {
    image.push_back(static_cast<std::uint8_t>(dst.value >> shift));
  }
  image.push_back(0);
  image.push_back(static_cast<std::uint8_t>(proto));
  image.push_back(static_cast<std::uint8_t>(segment.size() >> 8));
  image.push_back(static_cast<std::uint8_t>(segment.size()));
  image.insert(image.end(), segment.begin(), segment.end());
  if (image.size() % 2 != 0) image.push_back(0);
  std::uint32_t sum = 0;
  for (std::size_t i = 0; i < image.size(); i += 2) {
    sum += static_cast<std::uint32_t>(image[i]) << 8 | image[i + 1];
    sum = (sum & 0xFFFF) + (sum >> 16);
  }
  return static_cast<std::uint16_t>(~sum);
}

TEST(TransportChecksumTest, MatchesReferenceForEveryLengthUpToMtu) {
  util::Rng rng(7);
  for (std::size_t len = 0; len <= 1500; ++len) {
    for (const IpProto proto : {IpProto::kTcp, IpProto::kUdp}) {
      const Ipv4Address src(static_cast<std::uint32_t>(rng()));
      const Ipv4Address dst(static_cast<std::uint32_t>(rng()));
      std::vector<std::uint8_t> segment(len);
      for (auto& b : segment) b = static_cast<std::uint8_t>(rng());
      ASSERT_EQ(transport_checksum(src, dst, proto, segment),
                reference_transport_checksum(src, dst, proto, segment))
          << "len " << len << " proto " << static_cast<int>(proto);
    }
  }
}

TEST(TransportChecksumTest, AllOnesSegmentsFoldCarries) {
  // Worst case for carries: every word 0xFFFF, addresses all ones.
  const Ipv4Address ones(0xFFFFFFFFu);
  for (const std::size_t len : {0u, 1u, 2u, 1499u, 1500u}) {
    const std::vector<std::uint8_t> segment(len, 0xFF);
    EXPECT_EQ(transport_checksum(ones, ones, IpProto::kUdp, segment),
              reference_transport_checksum(ones, ones, IpProto::kUdp, segment))
        << "len " << len;
  }
}

TEST(TcpWireTest, FlagsEncodeDecode) {
  TcpFlags f;
  f.syn = f.fin = f.psh = true;
  auto g = TcpFlags::decode(f.encode());
  EXPECT_TRUE(g.syn);
  EXPECT_TRUE(g.fin);
  EXPECT_TRUE(g.psh);
  EXPECT_FALSE(g.ack);
  EXPECT_FALSE(g.rst);
  EXPECT_EQ(g.to_string(), "SYN,FIN,PSH");
}

TEST(TcpWireTest, SequenceComparisonsWrap) {
  EXPECT_TRUE(seq_lt(0xFFFFFFF0u, 0x10u));  // wraps forward
  EXPECT_TRUE(seq_gt(0x10u, 0xFFFFFFF0u));
  EXPECT_TRUE(seq_le(5u, 5u));
  EXPECT_TRUE(seq_ge(5u, 5u));
  EXPECT_FALSE(seq_lt(5u, 5u));
}

}  // namespace
}  // namespace ipop::net

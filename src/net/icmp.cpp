#include "net/icmp.hpp"

#include <algorithm>

namespace ipop::net {

util::Buffer IcmpMessage::encode_buffer(std::size_t headroom) const {
  auto buf =
      util::Buffer::allocate(IcmpView::kHeaderSize + payload.size(), headroom);
  std::uint8_t* p = buf.data();
  p[IcmpView::kTypeOffset] = static_cast<std::uint8_t>(type);
  p[IcmpView::kCodeOffset] = code;
  util::store_u16(p + IcmpView::kChecksumOffset, 0);  // placeholder
  util::store_u16(p + IcmpView::kIdOffset, id);
  util::store_u16(p + IcmpView::kSeqOffset, seq);
  // lint:allow(zero-copy): ICMP is control plane — echo payloads are built fresh, not forwarded
  std::copy(payload.begin(), payload.end(), p + IcmpView::kHeaderSize);
  util::store_u16(p + IcmpView::kChecksumOffset,
                  internet_checksum(buf.as_span()));
  return buf;
}

IcmpView IcmpView::parse_headers(util::BufferView bytes) {
  util::ByteReader r(bytes);
  IcmpView m;
  m.type = static_cast<IcmpType>(r.u8());
  m.code = r.u8();
  r.u16();  // checksum: validated by parse(), not here
  m.id = r.u16();
  m.seq = r.u16();
  m.payload = r.rest_view();
  return m;
}

IcmpView IcmpView::parse(util::BufferView bytes) {
  if (internet_checksum(bytes) != 0) {
    throw util::ParseError("bad ICMP checksum");
  }
  return parse_headers(bytes);
}

}  // namespace ipop::net

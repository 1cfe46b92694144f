#include "brunet/secure.hpp"

#include <algorithm>
#include <cassert>

namespace ipop::brunet {

const util::crypto::SymmetricKey& FrameSealer::shared_with(
    const util::crypto::PublicKey& peer) {
  auto it = dh_cache_.find(peer.bytes);
  if (it == dh_cache_.end()) {
    ++stats_.key_agreements;
    it = dh_cache_.emplace(peer.bytes, keys_.shared_key(peer)).first;
  }
  return it->second;
}

FrameSealer::SignedHeader FrameSealer::signed_header(std::uint8_t flags,
                                                     std::uint64_t nonce,
                                                     const Address& dst) {
  SignedHeader h{};
  h[0] = flags;
  for (int i = 0; i < 8; ++i) {
    h[1 + i] = static_cast<std::uint8_t>(nonce >> ((7 - i) * 8));
  }
  std::copy(dst.bytes().begin(), dst.bytes().end(), h.begin() + 1 + 8);
  return h;
}

util::Buffer FrameSealer::seal(util::Buffer payload,
                               const util::crypto::PublicKey& peer,
                               const Address& dst,
                               std::size_t realloc_headroom) {
  // In-place crypto requires exclusive ownership (buffer-ownership
  // rule 7): a capture buffer arrives unique, so this is a no-op on the
  // hot path — and the counter below makes any violation measurable
  // instead of silent.
  if (!payload.patchable() || payload.headroom() < kHeaderSize) {
    stats_.payload_bytes_copied += payload.size();
  }
  payload.ensure_unique(realloc_headroom);
  assert(payload.patchable());

  const std::uint64_t nonce = nonce_counter_++;
  util::crypto::stream_xor(payload.writable(), shared_with(peer), nonce);

  // Encrypt-then-sign: the signature authenticates the ciphertext, so a
  // receiver rejects tampered frames before running the cipher.
  const auto sig =
      keys_.sign({signed_header(kSealedV1, nonce, dst), payload.as_span()});

  auto hdr = payload.grow_front(kHeaderSize, realloc_headroom);
  hdr[0] = kSealedV1;
  std::copy(keys_.public_key().bytes.begin(), keys_.public_key().bytes.end(),
            hdr.begin() + 1);
  for (int i = 0; i < 8; ++i) {
    hdr[1 + 32 + i] = static_cast<std::uint8_t>(nonce >> ((7 - i) * 8));
  }
  std::copy(sig.bytes.begin(), sig.bytes.end(), hdr.begin() + 1 + 32 + 8);
  ++stats_.sealed;
  return payload;
}

std::optional<util::Buffer> FrameSealer::open(util::Buffer frame,
                                              const Address& dst) {
  const auto bytes = frame.as_span();
  if (bytes.size() < kHeaderSize || bytes[0] != kSealedV1) {
    ++stats_.rejected;
    return std::nullopt;
  }
  util::crypto::PublicKey sender;
  std::copy_n(bytes.data() + 1, sender.bytes.size(), sender.bytes.begin());
  std::uint64_t nonce = 0;
  for (int i = 0; i < 8; ++i) {
    nonce = (nonce << 8) | bytes[1 + 32 + i];
  }
  util::crypto::Signature sig;
  std::copy_n(bytes.data() + 1 + 32 + 8, sig.bytes.size(), sig.bytes.begin());

  const auto ciphertext = bytes.subspan(kHeaderSize);
  if (!util::crypto::verify(
          sender, {signed_header(kSealedV1, nonce, dst), ciphertext}, sig)) {
    ++stats_.rejected;
    return std::nullopt;
  }
  // Strip the seal header (the bytes become headroom for the tap-side
  // Ethernet rebuild) and decrypt the payload in place: opening is a
  // view adjustment plus the cipher pass, zero bytes moved.
  frame.drop_front(kHeaderSize);
  assert(frame.patchable());
  util::crypto::stream_xor(frame.writable(), shared_with(sender), nonce);
  ++stats_.opened;
  return frame;
}

}  // namespace ipop::brunet

// Scatter-gather chain of Buffer segments (the iovec of the packet
// pipeline).
//
// A BufferChain is an ordered list of shared util::Buffer handles viewed
// as one logical byte string.  Prepending a header or appending a payload
// is O(1) handle traffic — no byte ever moves — so layered senders can
// compose [frame-header | packet-header | shared-payload] without the
// per-layer serialization copies the paper's Section V.2 measures.  The
// bytes come together exactly once, at the simulated NIC's scatter-gather
// walk (gather()), the step real hardware performs with DMA descriptors
// rather than CPU copies.
//
// Ownership follows util::Buffer: segments share storage refcounted, and a
// chain holding a segment keeps that storage alive.  Coalescing is lazy —
// coalesce() flattens multi-segment chains into a single segment only when
// a caller genuinely needs contiguity, and caches the result in place.
//
// Storage: the first two segments live inline, so the chains a send path
// builds per packet (one payload, or header + payload) allocate nothing.
// A third segment spills every segment into a vector read from a head
// index: drop_front advances the index and compacts the vector only once
// half of it is consumed, so draining a long TCP send queue stays
// amortized O(1) per segment.  Append is amortized O(1); prepend is O(1)
// inline or after a drop_front, and shifts the vector otherwise (headers
// are prepended onto short chains).  A chain that empties frees its
// vector, so idle chains hold no heap storage.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "util/buffer.hpp"

namespace ipop::util {

class BufferChain {
 public:
  BufferChain() = default;
  /// Single-segment chain over an existing buffer (no copy).
  explicit BufferChain(Buffer b) { append(std::move(b)); }
  BufferChain(const BufferChain&) = default;
  BufferChain& operator=(const BufferChain&) = default;
  /// Moves leave the source empty.
  BufferChain(BufferChain&& o) noexcept { *this = std::move(o); }
  BufferChain& operator=(BufferChain&& o) noexcept;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Number of segments (empty buffers are never stored).
  std::size_t segments() const { return segs().size(); }
  const Buffer& segment(std::size_t i) const;

  /// Link the buffer in front of / behind the chain (handle traffic
  /// only; costs as in the storage note above).  Empty buffers are
  /// dropped (a zero-length iovec entry carries no information).
  void prepend(Buffer b);
  void append(Buffer b);
  /// Splice another chain's segments onto the end (handles move, bytes
  /// do not).
  void append(BufferChain other);
  void clear();

  /// Logical byte access (bounds-checked; O(segments) scan).
  std::uint8_t at(std::size_t i) const;

  /// Drop n bytes from the logical front: whole segments are unlinked,
  /// a partially consumed head segment shrinks its view edge in place.
  /// Throws ParseError when n exceeds size().
  void drop_front(std::size_t n);

  /// The scatter-gather walk: copy [offset, offset+out.size()) into
  /// `out`.  This is the single point where chained bytes become
  /// contiguous — the simulated equivalent of the NIC's DMA gather.
  /// Throws ParseError when the range exceeds size().
  void gather(std::size_t offset, std::span<std::uint8_t> out) const;

  /// Visit [offset, offset+len) as a minimal run of contiguous spans
  /// (the readv/writev iteration order).  `f` receives each span once.
  template <typename F>
  void for_each_span(std::size_t offset, std::size_t len, F&& f) const {
    check_range(offset, len);
    for (const Buffer& seg : segs()) {
      if (len == 0) break;
      if (offset >= seg.size()) {
        offset -= seg.size();
        continue;
      }
      const std::size_t take = std::min(len, seg.size() - offset);
      f(std::span<const std::uint8_t>(seg.data() + offset, take));
      offset = 0;
      len -= take;
    }
  }

  /// Zero-copy extraction of [offset, offset+len) when the range lies
  /// inside a single segment: returns a sub-buffer sharing that
  /// segment's storage.  Multi-segment ranges return nullopt (use
  /// gather()).  Throws ParseError on out-of-range.
  std::optional<Buffer> try_share(std::size_t offset, std::size_t len) const;

  /// Lazy coalescing: flatten the chain into one contiguous segment and
  /// return it.  A chain that is already single-segment returns its
  /// segment untouched (zero-copy); otherwise the segments are gathered
  /// once into fresh storage (with kPacketHeadroom in front) and the
  /// flattened segment replaces them, so repeated calls stay O(1).
  const Buffer& coalesce();

  std::vector<std::uint8_t> to_vector() const;

 private:
  static constexpr std::size_t kInline = 2;

  bool spilled() const { return !spill_.empty(); }
  std::span<Buffer> segs() {
    if (spilled()) return std::span<Buffer>(spill_).subspan(head_);
    return {inline_, inline_count_};
  }
  std::span<const Buffer> segs() const {
    if (spilled()) return std::span<const Buffer>(spill_).subspan(head_);
    return {inline_, inline_count_};
  }
  /// Move the inline segments into the (empty) spill vector.
  void spill();
  void release_spill();
  void pop_front_segment();
  void check_range(std::size_t offset, std::size_t len) const;

  Buffer inline_[kInline];
  std::size_t inline_count_ = 0;  // used while !spilled()
  std::vector<Buffer> spill_;     // once spilled: segments [head_, end)
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace ipop::util

// util::Buffer / util::BufferView: the zero-copy packet pipeline's
// ownership unit.  Covers headroom prepend round-trips, refcount-verified
// in-place forwarding (no reallocation), copy-on-prepend for shared
// storage, and bounds violations throwing util::ParseError.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <deque>
#include <new>
#include <numeric>

#include "brunet/packet.hpp"
#include "util/buffer.hpp"
#include "util/buffer_chain.hpp"
#include "util/random.hpp"

// Counting global operator new: lets the BufferChain tests prove which
// operations allocate.
namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
}  // namespace

[[gnu::noinline]] void* operator new(std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace ipop {
namespace {

using util::Buffer;
using util::BufferChain;
using util::BufferView;
using util::ParseError;

std::vector<std::uint8_t> pattern(std::size_t n) {
  std::vector<std::uint8_t> v(n);
  std::iota(v.begin(), v.end(), std::uint8_t{0});
  return v;
}

// ---------------------------------------------------------------------------
// Buffer basics
// ---------------------------------------------------------------------------

TEST(BufferTest, AllocateReservesHeadroom) {
  Buffer b = Buffer::allocate(100, 64);
  EXPECT_EQ(b.size(), 100u);
  EXPECT_EQ(b.headroom(), 64u);
  EXPECT_EQ(b.tailroom(), 0u);
  EXPECT_EQ(b.use_count(), 1);
  EXPECT_TRUE(b.unique());
}

TEST(BufferTest, WrapAdoptsVectorWithoutCopy) {
  auto v = pattern(32);
  const std::uint8_t* raw = v.data();
  Buffer b = Buffer::wrap(std::move(v));
  EXPECT_EQ(b.size(), 32u);
  EXPECT_EQ(b.data(), raw);  // adopted, not copied
  EXPECT_EQ(b[5], 5);
}

TEST(BufferTest, HeadroomPrependRoundTrips) {
  Buffer b = Buffer::copy_of(pattern(40), /*headroom=*/16);
  const std::uint8_t* payload_ptr = b.data();
  const std::uint8_t header[4] = {0xDE, 0xAD, 0xBE, 0xEF};
  b.prepend(std::span<const std::uint8_t>(header, 4));
  // In place: the payload bytes did not move, the header landed in front.
  EXPECT_EQ(b.size(), 44u);
  EXPECT_EQ(b.headroom(), 12u);
  EXPECT_EQ(b.data() + 4, payload_ptr);
  EXPECT_EQ(b[0], 0xDE);
  EXPECT_EQ(b[4], 0);
  // Round-trip: dropping the header recovers the original payload view.
  b.drop_front(4);
  EXPECT_EQ(b.data(), payload_ptr);
  EXPECT_EQ(b.view(), BufferView(pattern(40)));
  EXPECT_EQ(b.headroom(), 16u);
}

TEST(BufferTest, PrependOnSharedStorageCopiesInsteadOfCorrupting) {
  Buffer b = Buffer::copy_of(pattern(20), /*headroom=*/16);
  Buffer other = b.share();  // storage now referenced twice
  EXPECT_EQ(b.use_count(), 2);
  const std::uint8_t header[2] = {0xAA, 0xBB};
  b.prepend(std::span<const std::uint8_t>(header, 2));
  // The prepend re-allocated: `other` kept its bytes and its storage.
  EXPECT_NE(b.data(), other.data());
  EXPECT_EQ(other.view(), BufferView(pattern(20)));
  EXPECT_EQ(b.size(), 22u);
  EXPECT_EQ(b[0], 0xAA);
  EXPECT_EQ(b.view(2, 20), BufferView(pattern(20)));
}

TEST(BufferTest, GrowFrontWithoutHeadroomReallocatesWithFreshHeadroom) {
  Buffer b = Buffer::wrap(pattern(10));  // no headroom
  b.grow_front(8);
  EXPECT_EQ(b.size(), 18u);
  EXPECT_EQ(b.headroom(), util::kPacketHeadroom);
  EXPECT_EQ(b.view(8, 10), BufferView(pattern(10)));
}

TEST(BufferTest, SubBufferSharesStorage) {
  Buffer b = Buffer::copy_of(pattern(50));
  Buffer mid = b.share(10, 20);
  EXPECT_EQ(b.use_count(), 2);
  EXPECT_EQ(mid.size(), 20u);
  EXPECT_EQ(mid.data(), b.data() + 10);
  EXPECT_EQ(mid[0], 10);
  // Patches through one handle are visible through the other (shared
  // storage is the point) — but writing through a shared handle must be
  // acknowledged explicitly.
  mid.assume_exclusive().patch_u8(0, 0x7F);
  EXPECT_EQ(b[10], 0x7F);
}

TEST(BufferTest, EnsureUniqueClonesSharedStorage) {
  Buffer b = Buffer::copy_of(pattern(16));
  Buffer other = b.share();
  ASSERT_EQ(b.use_count(), 2);
  b.ensure_unique();
  // COW: this handle now owns fresh storage; the other handle's bytes
  // are untouched by subsequent patches.
  EXPECT_EQ(b.use_count(), 1);
  EXPECT_EQ(other.use_count(), 1);
  EXPECT_NE(b.data(), other.data());
  b.patch_u8(3, 0xEE);
  EXPECT_EQ(b[3], 0xEE);
  EXPECT_EQ(other[3], 3);
  // Already-unique handles are left alone (no reallocation).
  const std::uint8_t* ptr = b.data();
  b.ensure_unique();
  EXPECT_EQ(b.data(), ptr);
}

#ifndef NDEBUG
TEST(BufferDeathTest, PatchingSharedStorageWithoutAcknowledgementAsserts) {
  Buffer b = Buffer::copy_of(pattern(8));
  Buffer other = b.share();
  ASSERT_FALSE(b.patchable());
  EXPECT_DEATH(b.patch_u8(0, 0xFF), "ensure_unique|assume_exclusive");
  EXPECT_DEATH(b.patch_u16(0, 0xFFFF), "ensure_unique|assume_exclusive");
  // Either acknowledgement path silences the assertion.
  b.ensure_unique();
  EXPECT_TRUE(b.patchable());
  b.patch_u8(0, 0xFF);
  Buffer c = other.share();
  c.assume_exclusive();
  EXPECT_TRUE(c.patchable());
  c.patch_u16(0, 0xBEEF);
}
#endif

TEST(BufferTest, PatchesAreBoundsChecked) {
  Buffer b = Buffer::copy_of(pattern(4));
  b.patch_u16(2, 0xBEEF);
  EXPECT_EQ(b[2], 0xBE);
  EXPECT_EQ(b[3], 0xEF);
  EXPECT_THROW(b.patch_u8(4, 0), ParseError);
  EXPECT_THROW(b.patch_u16(3, 0), ParseError);
}

TEST(BufferTest, OutOfRangeAccessesThrow) {
  Buffer b = Buffer::copy_of(pattern(8));
  EXPECT_THROW(b[8], ParseError);
  EXPECT_THROW(b.view(4, 5), ParseError);
  EXPECT_THROW(b.share(9, 0), ParseError);
  EXPECT_THROW(b.drop_front(9), ParseError);
  EXPECT_THROW(b.drop_back(9), ParseError);
}

// ---------------------------------------------------------------------------
// BufferView bounds
// ---------------------------------------------------------------------------

TEST(BufferViewTest, BoundsViolationsThrowParseError) {
  auto v = pattern(16);
  BufferView view(v);
  EXPECT_EQ(view.size(), 16u);
  EXPECT_EQ(view[15], 15);
  EXPECT_THROW(view[16], ParseError);
  EXPECT_THROW(view.subview(17), ParseError);
  EXPECT_THROW(view.subview(8, 9), ParseError);
  EXPECT_EQ(view.subview(8, 8)[0], 8);
  EXPECT_EQ(view.subview(16).size(), 0u);
}

TEST(BufferViewTest, EqualityComparesBytes) {
  auto a = pattern(8);
  auto b = pattern(8);
  EXPECT_EQ(BufferView(a), BufferView(b));
  b[3] ^= 1;
  EXPECT_FALSE(BufferView(a) == BufferView(b));
}

// ---------------------------------------------------------------------------
// Zero-copy forwarding (the tentpole's acceptance criterion)
// ---------------------------------------------------------------------------

TEST(PacketZeroCopyTest, ForwardingPatchesTransitFieldsInPlace) {
  brunet::Packet p;
  p.type = brunet::PacketType::kIpTunnel;
  p.ttl = 32;
  util::Rng rng(7);
  p.src = brunet::Address::random(rng);
  p.dst = brunet::Address::random(rng);
  p.set_payload(pattern(1400));

  Buffer wire = p.to_wire();
  const std::uint8_t* storage = wire.data();
  ASSERT_EQ(wire.size(), brunet::Packet::kHeaderSize + 1400);

  // A relay receives the wire buffer: decoding parses the 48-byte header
  // and adopts the buffer — the refcount proves no bytes were copied.
  const long refs_before = wire.use_count();
  brunet::Packet q = brunet::Packet::decode(wire.share());
  EXPECT_EQ(wire.use_count(), refs_before + 1);  // decode added a handle only
  EXPECT_EQ(q.payload().data(), storage + brunet::Packet::kHeaderSize);
  EXPECT_EQ(q.payload(), BufferView(pattern(1400)));

  // Forwarding bumps the hop count and re-emits the *same* buffer.
  ++q.hops;
  Buffer out = q.to_wire();
  EXPECT_EQ(out.data(), storage);  // same storage: zero payload copies
  EXPECT_EQ(out[brunet::Packet::kHopsOffset], 1);
  EXPECT_EQ(wire[brunet::Packet::kHopsOffset], 1);  // in-place patch

  // A second hop repeats the exercise on the already-shared buffer.
  brunet::Packet r = brunet::Packet::decode(out.share());
  EXPECT_EQ(r.hops, 1);
  ++r.hops;
  EXPECT_EQ(r.to_wire().data(), storage);
  EXPECT_EQ(wire[brunet::Packet::kHopsOffset], 2);
}

TEST(PacketZeroCopyTest, HeadroomEncapsulationDoesNotCopyPayload) {
  // A captured tap frame arrives with headroom (as Stack::emit_frame
  // allocates them); encapsulation must prepend the Brunet header into
  // that headroom rather than copying the IP bytes.
  Buffer ip_packet = Buffer::copy_of(pattern(1200), util::kPacketHeadroom);
  const std::uint8_t* payload_ptr = ip_packet.data();

  brunet::Packet p;
  p.type = brunet::PacketType::kIpTunnel;
  p.set_payload(std::move(ip_packet));
  Buffer wire = p.to_wire();
  EXPECT_EQ(wire.data(), payload_ptr - brunet::Packet::kHeaderSize);
  EXPECT_EQ(p.payload().data(), payload_ptr);

  // Unwrapping on delivery is a sub-buffer share, not a copy.
  Buffer unwrapped = p.share_payload();
  EXPECT_EQ(unwrapped.data(), payload_ptr);
  EXPECT_EQ(unwrapped.view(), BufferView(pattern(1200)));
  // ...and it regained the headroom for the next layer's header.
  EXPECT_GE(unwrapped.headroom(), brunet::Packet::kHeaderSize);
}

TEST(PacketZeroCopyTest, TruncatedWireThrows) {
  Buffer junk = Buffer::copy_of(pattern(10));
  EXPECT_THROW(brunet::Packet::decode(junk.share()), ParseError);
}

// ---------------------------------------------------------------------------
// BufferChain: the scatter-gather iovec
// ---------------------------------------------------------------------------

TEST(BufferChainTest, PrependAppendAreHandleTrafficOnly) {
  Buffer payload = Buffer::copy_of(pattern(100));
  const std::uint8_t* payload_ptr = payload.data();
  BufferChain chain;
  chain.append(payload.share());
  Buffer header = Buffer::copy_of(pattern(8));
  const std::uint8_t* header_ptr = header.data();
  chain.prepend(header.share());
  EXPECT_EQ(chain.size(), 108u);
  EXPECT_EQ(chain.segments(), 2u);
  // The segments alias the original storage — nothing moved.
  EXPECT_EQ(chain.segment(0).data(), header_ptr);
  EXPECT_EQ(chain.segment(1).data(), payload_ptr);
  EXPECT_EQ(chain.at(0), 0);
  EXPECT_EQ(chain.at(8), 0);    // first payload byte
  EXPECT_EQ(chain.at(107), 99); // last payload byte
}

TEST(BufferChainTest, EmptyBuffersAreNeverStored) {
  BufferChain chain;
  chain.append(Buffer());
  chain.prepend(Buffer::allocate(0, 16));
  EXPECT_TRUE(chain.empty());
  EXPECT_EQ(chain.segments(), 0u);
  chain.append(Buffer::copy_of(pattern(4)));
  EXPECT_EQ(chain.segments(), 1u);
}

TEST(BufferChainTest, GatherCrossesSegmentBoundaries) {
  BufferChain chain;
  auto bytes = pattern(30);
  chain.append(Buffer::copy_of({bytes.data(), 10}));
  chain.append(Buffer::copy_of({bytes.data() + 10, 10}));
  chain.append(Buffer::copy_of({bytes.data() + 20, 10}));
  std::vector<std::uint8_t> out(18);
  chain.gather(7, out);  // spans all three segments
  EXPECT_EQ(out, std::vector<std::uint8_t>(bytes.begin() + 7,
                                           bytes.begin() + 25));
  EXPECT_EQ(chain.to_vector(), bytes);
}

TEST(BufferChainTest, DropFrontUnlinksAndTrims) {
  BufferChain chain;
  auto bytes = pattern(30);
  chain.append(Buffer::copy_of({bytes.data(), 10}));
  chain.append(Buffer::copy_of({bytes.data() + 10, 20}));
  chain.drop_front(15);  // whole first segment + 5 bytes of the second
  EXPECT_EQ(chain.size(), 15u);
  EXPECT_EQ(chain.segments(), 1u);
  EXPECT_EQ(chain.at(0), 15);
  chain.drop_front(15);
  EXPECT_TRUE(chain.empty());
}

TEST(BufferChainTest, LazyCoalesceFlattensOnceAndCaches) {
  BufferChain chain;
  auto bytes = pattern(40);
  chain.append(Buffer::copy_of({bytes.data(), 16}));
  chain.append(Buffer::copy_of({bytes.data() + 16, 24}));
  const Buffer& flat = chain.coalesce();
  EXPECT_EQ(flat.view(), BufferView(bytes));
  EXPECT_EQ(chain.segments(), 1u);
  // Cached: coalescing again returns the same storage.
  const std::uint8_t* flat_ptr = flat.data();
  EXPECT_EQ(chain.coalesce().data(), flat_ptr);
  // Flattened storage carries headroom for downstream prepends.
  EXPECT_GE(chain.segment(0).headroom(), util::kPacketHeadroom);
}

TEST(BufferChainTest, SingleSegmentCoalesceIsZeroCopy) {
  Buffer b = Buffer::copy_of(pattern(12));
  const std::uint8_t* ptr = b.data();
  BufferChain chain(b.share());
  EXPECT_EQ(chain.coalesce().data(), ptr);
}

TEST(BufferChainTest, TryShareWithinOneSegmentAliasesStorage) {
  BufferChain chain;
  auto bytes = pattern(20);
  chain.append(Buffer::copy_of({bytes.data(), 10}));
  chain.append(Buffer::copy_of({bytes.data() + 10, 10}));
  auto sub = chain.try_share(12, 6);
  ASSERT_TRUE(sub.has_value());
  EXPECT_EQ(sub->data(), chain.segment(1).data() + 2);
  // A range spanning the boundary cannot be shared.
  EXPECT_FALSE(chain.try_share(8, 6).has_value());
}

TEST(BufferChainTest, BoundsViolationsThrow) {
  BufferChain chain;
  chain.append(Buffer::copy_of(pattern(10)));
  std::vector<std::uint8_t> out(4);
  EXPECT_THROW(chain.gather(8, out), ParseError);
  EXPECT_THROW(chain.drop_front(11), ParseError);
  EXPECT_THROW(chain.at(10), ParseError);
  EXPECT_THROW(chain.try_share(6, 6), ParseError);
  EXPECT_THROW(chain.segment(1), ParseError);
}

TEST(BufferChainTest, AppendChainSplicesSegments) {
  BufferChain a;
  a.append(Buffer::copy_of(pattern(5)));
  BufferChain b;
  b.append(Buffer::copy_of(pattern(3)));
  b.append(Buffer::copy_of(pattern(2)));
  a.append(std::move(b));
  EXPECT_EQ(a.segments(), 3u);
  EXPECT_EQ(a.size(), 10u);
}

// --- BufferChain storage: two inline segments, then a spill vector ---------

std::uint64_t heap_allocs() {
  return g_heap_allocs.load(std::memory_order_relaxed);
}

TEST(BufferChainTest, UpToTwoSegmentsAllocateNothing) {
  Buffer payload = Buffer::copy_of(pattern(64));
  Buffer header = Buffer::copy_of(pattern(8));
  Buffer third = Buffer::copy_of(pattern(4));
  const auto before = heap_allocs();
  {
    BufferChain empty;
    BufferChain one(payload.share());
    BufferChain two(payload.share());
    two.prepend(header.share());
    BufferChain moved(std::move(two));
    EXPECT_EQ(moved.segments(), 2u);
    EXPECT_TRUE(two.empty());  // NOLINT(bugprone-use-after-move)
    moved.drop_front(10);
    EXPECT_EQ(moved.segments(), 1u);
    EXPECT_EQ(moved.size(), 62u);
    EXPECT_EQ(one.coalesce().data(), payload.data());
  }
  EXPECT_EQ(heap_allocs(), before);
  // The third segment spills (one vector allocation).
  BufferChain three(payload.share());
  three.append(header.share());
  three.append(third.share());
  EXPECT_GT(heap_allocs(), before);
  EXPECT_EQ(three.segments(), 3u);
  EXPECT_EQ(three.at(64), 0);  // header's first byte
  EXPECT_EQ(three.at(72), 0);  // third's first byte
  EXPECT_EQ(three.at(75), 3);
}

TEST(BufferChainTest, PrependAcrossTheSpillBoundaryKeepsOrder) {
  BufferChain chain;
  for (std::uint8_t i = 0; i < 6; ++i) {
    chain.prepend(Buffer::filled(1, static_cast<std::uint8_t>(5 - i)));
  }
  EXPECT_EQ(chain.segments(), 6u);
  EXPECT_EQ(chain.to_vector(), (std::vector<std::uint8_t>{0, 1, 2, 3, 4, 5}));
  // drop_front opens room at the head; prepend reuses it.
  chain.drop_front(2);
  chain.prepend(Buffer::filled(1, 9));
  EXPECT_EQ(chain.to_vector(), (std::vector<std::uint8_t>{9, 2, 3, 4, 5}));
  EXPECT_EQ(chain.segment(0).size(), 1u);
  EXPECT_EQ(chain.segments(), 5u);
}

TEST(BufferChainTest, DrainingTenThousandSegmentsKeepsHeadConsistent) {
  // The TCP send-queue pattern: append many small segments, then drop
  // from the front in acked chunks that split segments.
  BufferChain chain;
  std::vector<std::uint8_t> model;
  constexpr std::size_t kSegments = 10'000;
  for (std::size_t i = 0; i < kSegments; ++i) {
    const auto b = static_cast<std::uint8_t>(i * 7);
    chain.append(Buffer::filled(1 + i % 3, b));
    model.insert(model.end(), 1 + i % 3, b);
  }
  EXPECT_EQ(chain.segments(), kSegments);
  std::size_t dropped = 0;
  std::size_t step = 1;
  while (!chain.empty()) {
    const std::size_t n = std::min(step, chain.size());
    chain.drop_front(n);
    dropped += n;
    step = step % 97 + 1;
    ASSERT_EQ(chain.size(), model.size() - dropped);
    if (!chain.empty()) {
      ASSERT_EQ(chain.at(0), model[dropped]);
    }
  }
  EXPECT_EQ(chain.segments(), 0u);
  // The emptied chain is reusable.
  chain.append(Buffer::filled(3, 1));
  EXPECT_EQ(chain.to_vector(), (std::vector<std::uint8_t>{1, 1, 1}));
}

TEST(BufferChainTest, RandomOperationsMatchAModel) {
  // A deque of byte strings is the reference; every operation on the
  // chain, on either side of the inline/spill boundary, must agree.
  util::Rng rng(5);
  auto draw = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  auto make = [&](std::size_t len) {
    std::vector<std::uint8_t> bytes(len);
    for (auto& b : bytes) b = static_cast<std::uint8_t>(rng());
    return bytes;
  };
  BufferChain chain;
  std::deque<std::vector<std::uint8_t>> segs;
  auto flat = [&segs] {
    std::vector<std::uint8_t> out;
    for (const auto& s : segs) out.insert(out.end(), s.begin(), s.end());
    return out;
  };
  for (int step = 0; step < 5000; ++step) {
    switch (draw(8)) {
      case 0: {
        auto bytes = make(draw(12));
        chain.prepend(Buffer::copy_of(bytes));
        if (!bytes.empty()) segs.push_front(bytes);
        break;
      }
      case 1:
      case 2: {
        auto bytes = make(draw(12));
        chain.append(Buffer::copy_of(bytes));
        if (!bytes.empty()) segs.push_back(bytes);
        break;
      }
      case 3: {
        std::size_t n = draw(chain.size() + 1);
        chain.drop_front(n);
        while (n > 0) {
          if (n >= segs.front().size()) {
            n -= segs.front().size();
            segs.pop_front();
          } else {
            segs.front().erase(segs.front().begin(),
                               segs.front().begin() +
                                   static_cast<std::ptrdiff_t>(n));
            n = 0;
          }
        }
        break;
      }
      case 4: {
        BufferChain other;
        for (std::size_t i = draw(4); i > 0; --i) {
          auto bytes = make(1 + draw(6));
          other.append(Buffer::copy_of(bytes));
          segs.push_back(bytes);
        }
        chain.append(std::move(other));
        break;
      }
      case 5:
        if (draw(4) == 0) {
          const auto before = flat();
          chain.coalesce();
          segs.clear();
          if (!before.empty()) segs.push_back(before);
        }
        break;
      case 6: {
        BufferChain moved(std::move(chain));
        ASSERT_TRUE(chain.empty());  // NOLINT(bugprone-use-after-move)
        ASSERT_EQ(chain.segments(), 0u);
        chain = std::move(moved);
        break;
      }
      default:
        if (draw(16) == 0) {
          chain.clear();
          segs.clear();
        }
        break;
    }
    const auto bytes = flat();
    ASSERT_EQ(chain.size(), bytes.size()) << "step " << step;
    ASSERT_EQ(chain.segments(), segs.size()) << "step " << step;
    ASSERT_EQ(chain.to_vector(), bytes) << "step " << step;
    for (std::size_t i = 0; i < segs.size(); ++i) {
      ASSERT_EQ(chain.segment(i).to_vector(), segs[i]) << "step " << step;
    }
    if (bytes.empty()) continue;
    const std::size_t off = draw(bytes.size());
    const std::size_t len = draw(bytes.size() - off + 1);
    std::vector<std::uint8_t> out(len);
    chain.gather(off, out);
    ASSERT_EQ(out, std::vector<std::uint8_t>(
                       bytes.begin() + static_cast<std::ptrdiff_t>(off),
                       bytes.begin() + static_cast<std::ptrdiff_t>(off + len)));
    ASSERT_EQ(chain.at(off), bytes[off]);
    // try_share succeeds exactly when the range sits in one segment.
    std::size_t seg_start = 0;
    bool one_segment = len == 0;
    for (const auto& seg : segs) {
      if (off < seg_start + seg.size()) {
        one_segment = one_segment || off + len <= seg_start + seg.size();
        break;
      }
      seg_start += seg.size();
    }
    const auto shared = chain.try_share(off, len);
    ASSERT_EQ(shared.has_value(), one_segment) << "step " << step;
    if (shared) {
      ASSERT_EQ(shared->to_vector(), out);
    }
  }
}

}  // namespace
}  // namespace ipop

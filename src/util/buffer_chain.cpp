#include "util/buffer_chain.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

namespace ipop::util {

namespace {
// A consumed spill prefix shorter than this is cheaper to keep than to
// erase.
constexpr std::size_t kCompactMinHead = 8;
}  // namespace

BufferChain& BufferChain::operator=(BufferChain&& o) noexcept {
  if (this == &o) return *this;
  clear();
  for (std::size_t i = 0; i < o.inline_count_; ++i) {
    inline_[i] = std::exchange(o.inline_[i], Buffer());
  }
  inline_count_ = std::exchange(o.inline_count_, 0);
  spill_ = std::move(o.spill_);
  head_ = o.head_;
  o.release_spill();
  size_ = std::exchange(o.size_, 0);
  return *this;
}

const Buffer& BufferChain::segment(std::size_t i) const {
  const auto all = segs();
  if (i >= all.size()) throw ParseError("BufferChain: segment out of range");
  return all[i];
}

void BufferChain::spill() {
  spill_.reserve(2 * kInline);
  for (std::size_t i = 0; i < inline_count_; ++i) {
    spill_.push_back(std::exchange(inline_[i], Buffer()));
  }
  inline_count_ = 0;
  head_ = 0;
}

void BufferChain::release_spill() {
  // An empty chain holds no heap storage: long-lived idle chains (the
  // send queue of a socket in TIME_WAIT) must not pin a spill vector.
  std::vector<Buffer>().swap(spill_);
  head_ = 0;
}

void BufferChain::prepend(Buffer b) {
  if (b.empty()) return;
  size_ += b.size();
  if (!spilled()) {
    if (inline_count_ < kInline) {
      std::move_backward(inline_, inline_ + inline_count_,
                         inline_ + inline_count_ + 1);
      inline_[0] = std::move(b);
      ++inline_count_;
      return;
    }
    spill();
  }
  if (head_ > 0) {
    spill_[--head_] = std::move(b);
  } else {
    spill_.insert(spill_.begin(), std::move(b));
  }
}

void BufferChain::append(Buffer b) {
  if (b.empty()) return;
  size_ += b.size();
  if (!spilled()) {
    if (inline_count_ < kInline) {
      inline_[inline_count_++] = std::move(b);
      return;
    }
    spill();
  }
  spill_.push_back(std::move(b));
}

void BufferChain::append(BufferChain other) {
  for (Buffer& seg : other.segs()) {
    append(std::move(seg));
  }
  other.clear();
}

void BufferChain::clear() {
  for (std::size_t i = 0; i < inline_count_; ++i) inline_[i] = Buffer();
  inline_count_ = 0;
  release_spill();
  size_ = 0;
}

std::uint8_t BufferChain::at(std::size_t i) const {
  check_range(i, 1);
  for (const Buffer& seg : segs()) {
    if (i < seg.size()) return seg.data()[i];
    i -= seg.size();
  }
  throw ParseError("BufferChain: at out of range");  // unreachable
}

void BufferChain::drop_front(std::size_t n) {
  if (n > size_) throw ParseError("BufferChain: drop_front past end");
  size_ -= n;
  while (n > 0) {
    Buffer& head = segs().front();
    if (n >= head.size()) {
      n -= head.size();
      pop_front_segment();
    } else {
      head.drop_front(n);
      n = 0;
    }
  }
}

void BufferChain::pop_front_segment() {
  if (!spilled()) {
    std::move(inline_ + 1, inline_ + inline_count_, inline_);
    inline_[--inline_count_] = Buffer();
    return;
  }
  spill_[head_++] = Buffer();
  if (head_ == spill_.size()) {
    release_spill();
  } else if (head_ >= kCompactMinHead && 2 * head_ >= spill_.size()) {
    // Compact once half the vector is consumed: each live segment moves
    // at most once per consumed one, so drop_front stays amortized O(1).
    spill_.erase(spill_.begin(),
                 spill_.begin() + static_cast<std::ptrdiff_t>(head_));
    head_ = 0;
  }
}

void BufferChain::gather(std::size_t offset,
                         std::span<std::uint8_t> out) const {
  std::uint8_t* dst = out.data();
  for_each_span(offset, out.size(),
                [&dst](std::span<const std::uint8_t> span) {
                  std::memcpy(dst, span.data(), span.size());
                  dst += span.size();
                });
}

std::optional<Buffer> BufferChain::try_share(std::size_t offset,
                                             std::size_t len) const {
  check_range(offset, len);
  if (len == 0) return Buffer();
  for (const Buffer& seg : segs()) {
    if (offset < seg.size()) {
      if (len > seg.size() - offset) return std::nullopt;  // spans segments
      return seg.share(offset, len);
    }
    offset -= seg.size();
  }
  return std::nullopt;  // unreachable (checked above)
}

const Buffer& BufferChain::coalesce() {
  static const Buffer kEmpty;
  if (segments() == 0) return kEmpty;
  if (segments() == 1) return segs().front();
  Buffer flat = Buffer::allocate(size_, kPacketHeadroom);
  gather(0, flat.writable());
  clear();
  append(std::move(flat));
  return inline_[0];
}

std::vector<std::uint8_t> BufferChain::to_vector() const {
  std::vector<std::uint8_t> out(size_);
  gather(0, out);
  return out;
}

void BufferChain::check_range(std::size_t offset, std::size_t len) const {
  if (offset > size_ || len > size_ - offset) {
    throw ParseError("BufferChain: range out of bounds");
  }
}

}  // namespace ipop::util

#include "sim/event_loop.hpp"

#include <algorithm>

namespace ipop::sim {

namespace {
// Below this, skipping dead entries on pop is cheaper than rebuilding.
constexpr std::size_t kCompactMinHeap = 64;

// splitmix64 finalizer — decorrelates the trace-chain inputs so the
// merged digest is sensitive to every (at, seq, aux) triple.
constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}
}  // namespace

TimePoint EventLoop::clamp_to_now(TimePoint t) {
  // A past timestamp means some layer computed a deadline from stale
  // state — under sharding that is a window-synchronization bug, not a
  // convenience to paper over.
  assert(t >= now_ && "schedule into the past (cross-shard sync bug?)");
  if (t < now_) {
    ++clamped_;
    t = now_;
  }
  return t;
}

std::uint32_t EventLoop::acquire_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t index = free_slots_.back();
    free_slots_.pop_back();
    return index;
  }
  if (slot_count_ % kChunkSlots == 0) {
    chunks_.push_back(std::make_unique<Slot[]>(kChunkSlots));
  }
  return static_cast<std::uint32_t>(slot_count_++);
}

EventLoop::EventId EventLoop::push(TimePoint t, std::uint64_t key0,
                                   std::uint64_t key1, std::uint32_t aux,
                                   Callback&& cb) {
  const std::uint32_t index = acquire_slot();
  Slot& s = slot_at(index);
  s.cb = std::move(cb);
  s.aux = aux;
  const EventId id = (static_cast<EventId>(index) << 32) | s.gen;
  heap_.push_back(Key{clamp_to_now(t), key0, key1, id});
  std::push_heap(heap_.begin(), heap_.end());
  ++pending_;
  return id;
}

void EventLoop::cancel(EventId id) {
  if (!slot_live(id)) return;  // already ran or cancelled
  const auto index = static_cast<std::uint32_t>(id >> 32);
  Slot& s = slot_at(index);
  ++s.gen;  // the heap key is now debris
  --pending_;
  // The closure's destructor may itself cancel or schedule; the slot is
  // recycled only once it is empty.
  s.cb.reset();
  free_slots_.push_back(index);
  maybe_compact();
}

void EventLoop::maybe_compact() {
  // Rebuild once dead keys outnumber live ones: amortized O(1) per
  // cancel, and the heap never holds more than ~2x the live events.
  if (heap_.size() < kCompactMinHeap) return;
  if (heap_.size() - pending_ <= heap_.size() / 2) return;
  std::erase_if(heap_, [&](const Key& k) { return !slot_live(k.ref); });
  std::make_heap(heap_.begin(), heap_.end());
}

bool EventLoop::pop_live(Key& out) {
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end());
    out = heap_.back();
    heap_.pop_back();
    if (!slot_live(out.ref)) continue;  // cancelled: discard lazily
    --pending_;
    return true;
  }
  return false;
}

TimePoint EventLoop::next_event_at() {
  while (!heap_.empty() && !slot_live(heap_.front().ref)) {
    std::pop_heap(heap_.begin(), heap_.end());
    heap_.pop_back();
  }
  if (heap_.empty()) return TimePoint::max();
  return heap_.front().at;
}

void EventLoop::execute(const Key& key) {
  now_ = key.at;
  ++processed_;
  const auto index = static_cast<std::uint32_t>(key.ref >> 32);
  Slot& s = slot_at(index);
  // Bump first: the event's own id (and every copy) is stale while it
  // runs, so a self-cancel is harmless.
  ++s.gen;
  if (key.key0 != 0 && tracing_) {
    TraceStream& ts = trace_[key.key0 - 1];
    ts.chain = mix64(ts.chain ^ mix64(static_cast<std::uint64_t>(
                                          key.at.count()) ^
                                      mix64(key.key1) ^ mix64(s.aux)));
    ++ts.count;
  }
  // Run in place (chunks never move), then destroy the closure and
  // recycle the slot — also when the callback throws.
  struct Recycle {
    EventLoop& loop;
    Slot& s;
    std::uint32_t index;
    ~Recycle() {
      s.cb.reset();
      loop.free_slots_.push_back(index);
    }
  } recycle{*this, s, index};
  s.cb();
}

bool EventLoop::run_one() {
  Key key;
  if (!pop_live(key)) return false;
  execute(key);
  return true;
}

std::size_t EventLoop::run() {
  stopped_ = false;
  std::size_t n = 0;
  while (!stopped_ && run_one()) ++n;
  return n;
}

std::size_t EventLoop::run_through(TimePoint last) {
  stopped_ = false;
  std::size_t n = 0;
  // next_event_at() leaves a live key on top, so run_one() runs it.
  while (!stopped_ && next_event_at() <= last && run_one()) ++n;
  return n;
}

std::size_t EventLoop::run_until(TimePoint t) {
  const std::size_t n = run_through(t);
  if (now_ < t) now_ = t;
  return n;
}

std::size_t EventLoop::run_window(TimePoint end) {
  // Half-open: an event at exactly `end` is the next window's work.
  const std::size_t n = run_through(end - Duration{1});
  if (now_ < end) now_ = end;
  return n;
}

}  // namespace ipop::sim

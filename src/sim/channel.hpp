// Cross-shard event channel for the sharded engine.
//
// When a Link's endpoints live on different shards, the sender's transmit
// path cannot touch the receiver's EventLoop directly — loops are
// single-threaded by contract.  Instead it stamps the delivery with its
// canonical sort key (deliver-at time, stream id, per-stream sequence) and
// pushes it onto the Channel for that (source shard, destination shard)
// pair.  The engine drains every channel at the window barrier — on the
// coordinating thread, while all workers are parked — and re-schedules the
// stamped events onto the destination loops via schedule_delivery.
//
// Determinism: the stamp, not arrival order, decides execution order.
// Whatever interleaving the producer threads ran in, the destination
// loop's heap sorts deliveries by (at, stream, seq), which the sender
// assigned deterministically.  Conservative windows guarantee the stamp's
// time is at least one lookahead past the window that produced it, so a
// drained event can never land in a shard's past.
//
// Thread-safety: each channel is SPSC by discipline — exactly one
// producer (the source shard's worker, during a window) and one consumer
// (the coordinator, between windows), never concurrently; the window
// barrier provides the happens-before edge.  The mutex is therefore
// uncontended; it exists to make the hand-off explicit and TSan-provable
// rather than to arbitrate races.
//
// Zero-copy: the stamped callback carries its util::Buffer frame by
// handle.  The refcount is the only state shared across the shard
// boundary, and the barrier serializes the transfer, so the
// shared_ptr-based count stays sound.
#pragma once

#include <cstdint>
#include <mutex>
#include <vector>

#include "sim/event_loop.hpp"

namespace ipop::sim {

/// One cross-shard event, carrying its canonical sort key.
struct StampedEvent {
  TimePoint at;
  std::uint64_t stream;  // global link-direction id
  std::uint64_t seq;     // per-stream monotone sequence (sender-assigned)
  std::uint32_t aux;     // frame size, folded into the trace digest
  Callback cb;
};

class Channel {
 public:
  /// Producer side (source shard's worker thread, during a window).
  void push(StampedEvent ev);

  /// Consumer side (coordinator thread, between windows): move out all
  /// queued events, appending to `out` (reused across calls).
  void drain(std::vector<StampedEvent>& out);

  std::uint64_t events_forwarded() const { return forwarded_; }

 private:
  std::mutex mu_;
  std::vector<StampedEvent> pending_;
  std::uint64_t forwarded_ = 0;  // coordinator-side tally (drain path)
};

}  // namespace ipop::sim

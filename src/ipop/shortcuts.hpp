// Traffic-triggered shortcut connections (paper Section V.1).
//
// The paper proposes monitoring P2P traffic per destination and creating a
// direct edge once a pair's packet rate crosses a threshold — turning a
// multi-hop overlay path into 1-hop IP routing while the overlay still
// provides address resolution and bootstrap.  This manager counts tunneled
// packets per destination in a sliding window and asks the overlay node to
// link directly when the threshold trips.
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <optional>

#include "brunet/node.hpp"

namespace ipop::core {

struct ShortcutConfig {
  bool enabled = false;
  /// Packets to one destination within one window that trip a shortcut.
  std::uint32_t threshold = 32;
  util::Duration window = util::seconds(10);
  /// Back-off before re-requesting the same destination.
  util::Duration retry_backoff = util::seconds(30);
  /// Upper bound on tracked destinations.  Counters live on an LRU list:
  /// each packet touches its counter to the list's back in O(1), and
  /// inserting past the bound pops expired (then least-recently-used)
  /// counters off the front in O(1) — a node forwarding traffic for many
  /// destinations cannot grow memory without bound, and the hot set is
  /// never the part evicted.
  std::size_t max_tracked = 1024;
};

struct ShortcutStats {
  std::uint64_t requests = 0;
  std::uint64_t already_direct = 0;
  std::uint64_t evicted = 0;
};

class ShortcutManager {
 public:
  ShortcutManager(brunet::BrunetNode& node, ShortcutConfig cfg)
      : node_(node), cfg_(cfg) {}

  /// Record one tunneled packet toward `dst`; may trigger a connection
  /// request.
  void note_packet(const brunet::Address& dst);

  const ShortcutStats& stats() const { return stats_; }
  /// Destinations currently tracked (bounded by cfg.max_tracked).
  std::size_t tracked() const { return counters_.size(); }

 private:
  struct Counter {
    std::uint32_t count = 0;
    util::TimePoint window_start{};
    /// Empty until the first request: the back-off only follows a
    /// request, so a destination is eligible from t = 0.
    std::optional<util::TimePoint> last_request;
    /// Position in lru_ (front = least recently touched).
    std::list<brunet::Address>::iterator lru_pos;
  };

  /// O(1): pop expired counters off the LRU front; if none were expired
  /// and the map is full, pop the least-recently-used counter.
  void evict(util::TimePoint now);
  /// True while `c`'s last request is within retry_backoff of `now`.
  bool backing_off(const Counter& c, util::TimePoint now) const {
    return c.last_request && now - *c.last_request < cfg_.retry_backoff;
  }
  void erase(std::map<brunet::Address, Counter>::iterator it);

  brunet::BrunetNode& node_;
  ShortcutConfig cfg_;
  ShortcutStats stats_;
  std::map<brunet::Address, Counter> counters_;
  std::list<brunet::Address> lru_;
};

}  // namespace ipop::core

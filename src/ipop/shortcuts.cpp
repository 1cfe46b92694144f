#include "ipop/shortcuts.hpp"

namespace ipop::core {

void ShortcutManager::erase(std::map<brunet::Address, Counter>::iterator it) {
  lru_.erase(it->second.lru_pos);
  counters_.erase(it);
  ++stats_.evicted;
}

void ShortcutManager::evict(util::TimePoint now) {
  // The LRU front is the counter untouched the longest.  Pop while it
  // carries no information worth keeping (measurement window and request
  // back-off both expired) — amortized O(1) per insertion.
  bool removed = false;
  while (!lru_.empty()) {
    auto it = counters_.find(lru_.front());
    const Counter& c = it->second;
    if (now - c.window_start > cfg_.window && !backing_off(c, now)) {
      erase(it);
      removed = true;
    } else {
      break;
    }
  }
  if (removed || counters_.empty() || counters_.size() < cfg_.max_tracked) {
    return;
  }
  // Everything is still live (pathological: > max_tracked hot
  // destinations inside one window).  Drop the least-recently-used
  // counter to keep the bound hard.  Deliberate trade-off: a force-
  // evicted counter forgets its request back-off, so under sustained
  // destination churn a re-created counter may re-request earlier than
  // retry_backoff — bounded extra connect traffic, in exchange for a
  // hard memory bound with no per-eviction bookkeeping.
  erase(counters_.find(lru_.front()));
}

void ShortcutManager::note_packet(const brunet::Address& dst) {
  if (!cfg_.enabled) return;
  if (node_.table().contains(dst)) {
    ++stats_.already_direct;
    return;  // greedy routing already uses the direct edge
  }
  const auto now = node_.host().loop().now();
  auto it = counters_.find(dst);
  if (it == counters_.end()) {
    if (counters_.size() >= cfg_.max_tracked) evict(now);
    it = counters_.emplace(dst, Counter{}).first;
    it->second.lru_pos = lru_.insert(lru_.end(), dst);
  } else {
    // Touch: move to the LRU back in O(1).
    lru_.splice(lru_.end(), lru_, it->second.lru_pos);
  }
  Counter& c = it->second;
  if (now - c.window_start > cfg_.window) {
    c.window_start = now;
    c.count = 0;
  }
  if (++c.count < cfg_.threshold) return;
  if (backing_off(c, now)) return;
  c.last_request = now;
  c.count = 0;
  ++stats_.requests;
  node_.request_connection(dst, brunet::ConnectionType::kTrafficShortcut);
}

}  // namespace ipop::core

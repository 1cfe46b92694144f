// Span recorder for the traced run.  The benchmark wraps every call it
// makes into a layer (run_until windows, socket sends, Brunet-ARP
// resolves, node start/leave/stop) in a Span; spans nest through an
// explicit parent stack, carry the request id they belong to, and record
// both wall and simulated start/end.  Spans stay in memory and are
// written out once, when the benchmark ends.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  const char* name;
  std::uint32_t id;
  std::uint32_t parent;  // 0 = root
  std::uint64_t req;     // request id the span serves, 0 = none
  double wall_start_s;
  double wall_end_s;
  std::int64_t sim_start_ns;
  std::int64_t sim_end_ns;
};

class Tracer {
 public:
  using SimClock = std::function<std::int64_t()>;

  void set_sim_clock(SimClock clock) { sim_clock_ = std::move(clock); }
  void enable(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  std::uint32_t begin(const char* name, std::uint64_t req = 0) {
    if (!enabled_) return 0;
    const auto id = static_cast<std::uint32_t>(spans_.size() + 1);
    spans_.push_back(SpanRecord{name, id, stack_.empty() ? 0 : stack_.back(),
                                req, wall(), 0.0, sim(), 0});
    stack_.push_back(id);
    return id;
  }
  void end(std::uint32_t id) {
    if (id == 0) return;
    auto& s = spans_[id - 1];
    s.wall_end_s = wall();
    s.sim_end_ns = sim();
    // Close any children left open by an early return.
    while (!stack_.empty() && stack_.back() != id) stack_.pop_back();
    if (!stack_.empty()) stack_.pop_back();
  }

  const std::vector<SpanRecord>& spans() const { return spans_; }

  /// Self time per span name: duration minus the part covered by direct
  /// children, summed over every span of that name.
  std::vector<std::pair<std::string, double>> self_seconds() const {
    std::vector<double> child(spans_.size() + 1, 0.0);
    for (const auto& s : spans_) {
      if (s.parent != 0) child[s.parent] += s.wall_end_s - s.wall_start_s;
    }
    std::vector<std::pair<std::string, double>> out;
    for (const auto& s : spans_) {
      const double self = (s.wall_end_s - s.wall_start_s) - child[s.id];
      auto it = std::find_if(out.begin(), out.end(),
                             [&](const auto& p) { return p.first == s.name; });
      if (it == out.end()) {
        out.emplace_back(s.name, self);
      } else {
        it->second += self;
      }
    }
    return out;
  }

  /// Write all spans as one JSON document; returns false on I/O failure.
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "{\"spans\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const auto& s = spans_[i];
      std::fprintf(f,
                   "  {\"name\": \"%s\", \"id\": %u, \"parent\": %u, "
                   "\"req\": %llu, \"wall_start_s\": %.9f, "
                   "\"wall_end_s\": %.9f, \"sim_start_ns\": %lld, "
                   "\"sim_end_ns\": %lld}%s\n",
                   s.name, s.id, s.parent,
                   static_cast<unsigned long long>(s.req), s.wall_start_s,
                   s.wall_end_s, static_cast<long long>(s.sim_start_ns),
                   static_cast<long long>(s.sim_end_ns),
                   i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
  }

 private:
  double wall() const {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }
  std::int64_t sim() const { return sim_clock_ ? sim_clock_() : 0; }

  bool enabled_ = false;
  SimClock sim_clock_;
  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  std::vector<SpanRecord> spans_;
  std::vector<std::uint32_t> stack_;
};

/// RAII span: `Scope s(tracer, "ipop.start");`
class Scope {
 public:
  Scope(Tracer& t, const char* name, std::uint64_t req = 0)
      : t_(t), id_(t.begin(name, req)) {}
  ~Scope() { t_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  std::uint32_t id_;
};

}  // namespace perfbench

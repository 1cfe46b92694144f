// Host speed reference: a fixed, deterministic kernel timed in CPU
// seconds between the benchmark's own steps.
//
// On a shared virtual machine the same binary, seed and simulated work
// ran at rates up to 1.8x apart from one minute to the next, while the
// benchmark's process was alone on its vCPUs and spent >98 % of its CPU
// time in user mode.  The other tenants of the physical host set the
// pace (shared caches, memory bandwidth, hyperthread siblings).  Host
// rates are therefore scaled by kNominalS / (this kernel's CPU time in
// the same window): a rate the program reaches on the host at its
// calibrated speed.  The kernel does the kinds of work the simulator
// does — an event heap, a hashed table larger than the core's private
// caches, small allocations, buffer copies and multiply-heavy integer
// arithmetic — and it is fixed here, independent of the program, so a
// change to the program moves the scaled rate exactly as much as it
// moves the raw one.
#pragma once

#include <time.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <queue>
#include <unordered_map>
#include <vector>

namespace perfbench {

class HostSpeed {
 public:
  /// The kernel's CPU time on the host the benchmark was calibrated on
  /// (a shared 4-vCPU Xeon virtual machine).
  static constexpr double kNominalS = 0.0050;

  HostSpeed() : copy_src_(kCopyBytes), copy_dst_(kCopyBytes) {
    std::uint64_t x = 0x2545F4914F6CDD1Dull;
    std::vector<std::uint64_t> inserted;
    table_.reserve(kTableEntries);
    for (std::uint32_t i = 0; i < kTableEntries; ++i) {
      inserted.push_back(next(x));
      table_.emplace(inserted.back(), i);
    }
    // Half the lookups hit, half miss, in a fixed scattered order.
    keys_.reserve(kLookups);
    for (std::uint32_t i = 0; i < kLookups; ++i) {
      const std::uint64_t r = next(x);
      keys_.push_back(i % 2 == 0 ? inserted[r % kTableEntries] : r);
    }
    for (std::size_t i = 0; i < copy_src_.size(); ++i) {
      copy_src_[i] = static_cast<std::uint8_t>(i * 131);
    }
  }

  /// Runs the kernel twice and returns the CPU seconds of the second run.
  /// The first brings the kernel's data back into the caches, whatever
  /// the program did since the last sample, so the timing does not
  /// depend on how much of the caches the program itself uses.
  double sample() {
    run();
    const double t0 = cpu_now();
    run();
    return cpu_now() - t0;
  }

 private:
  static constexpr std::uint32_t kTableEntries = 1u << 18;
  static constexpr std::uint32_t kLookups = 40000;
  static constexpr std::size_t kCopyBytes = 64 * 1024;

  void run() {
    std::uint64_t x = 0x9E3779B97F4A7C15ull;
    std::uint64_t sum = 0;
    // Event heap: schedule and fire, as the engine's queue does.
    std::priority_queue<std::uint64_t> heap;
    for (int i = 0; i < 20000; ++i) {
      heap.push(next(x) >> 16);
      if (heap.size() > 2048) heap.pop();
    }
    sum += heap.top();
    // Table lookups scattered over a table larger than a core's caches.
    for (const auto k : keys_) {
      const auto it = table_.find(k);
      if (it != table_.end()) sum += it->second;
    }
    // Small allocations and copies, as packet buffers make.
    for (int i = 0; i < 2500; ++i) {
      const std::size_t n = 64 + (next(x) % 1400);
      auto buf = std::make_unique<std::uint8_t[]>(n);
      std::memcpy(buf.get(), copy_src_.data() + (i % 64), n);
      sum += buf[n / 2];
    }
    for (int r = 0; r < 24; ++r) {
      std::memcpy(copy_dst_.data(), copy_src_.data(), copy_dst_.size());
      sum += copy_dst_[static_cast<std::size_t>(r) * 61];
    }
    // Multiply chains, as field arithmetic does.
    unsigned __int128 acc = x;
    for (int i = 0; i < 100000; ++i) {
      acc = (acc * 0xFFFFFFFFFFFFFFC5ull + (acc >> 64)) &
            ((static_cast<unsigned __int128>(1) << 127) - 1);
    }
    sink_ = sum + static_cast<std::uint64_t>(acc);
  }

  static std::uint64_t next(std::uint64_t& x) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  }
  static double cpu_now() {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) / 1e9;
  }

  std::unordered_map<std::uint64_t, std::uint32_t> table_;
  std::vector<std::uint64_t> keys_;
  std::vector<std::uint8_t> copy_src_, copy_dst_;
  volatile std::uint64_t sink_ = 0;  // keeps every result observable
};

}  // namespace perfbench

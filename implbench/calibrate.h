// Host-speed calibration for the timing metrics.
//
// The benchmark's reference host is a shared VM whose speed switches
// between states about 1.7x apart, and some states last for minutes, so
// two runs of the same code can read 30% apart whatever the estimator.
// A SpeedProbe times a fixed reference kernel, which does not call the
// library, between the measured operations of one client. Each operation's
// latency is then scaled by kReferenceKernelNs over the kernel's time
// around it: the latency the operation would have had with the host at the
// speed it had when kReferenceKernelNs was measured. Only the host's speed
// cancels; a change to the library moves the scaled figures in full.
#ifndef IMPLBENCH_CALIBRATE_H_
#define IMPLBENCH_CALIBRATE_H_

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory_resource>
#include <unordered_map>
#include <vector>

#include "trace.h"

namespace implbench {

/// The reference kernel's time, as SpeedProbe takes it, on the reference
/// host in its fast state (GNU g++ 12.2.0, -O3, Intel Xeon 4-vCPU VM).
constexpr double kReferenceKernelNs = 12500;

/// A fixed amount of the kind of work the library does: node-based hash
/// maps of growing vectors and an ordered map, built and torn down. It
/// allocates from a pool over a buffer it owns, so what the process heap
/// holds (say, a pass's solvers just freed) does not change its cost.
/// Returns a checksum so the work cannot be optimised away.
class ReferenceKernel {
 public:
  std::uint64_t Run() {
    std::pmr::monotonic_buffer_resource arena(buffer_.data(), buffer_.size());
    std::pmr::unsynchronized_pool_resource pool(&arena);
    std::pmr::unordered_map<std::uint64_t, std::pmr::vector<std::uint32_t>>
        groups(&pool);
    std::pmr::map<std::uint64_t, std::uint32_t> order(&pool);
    std::uint64_t x = 1, acc = 0;
    for (std::uint32_t i = 0; i < kInserts; ++i) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;  // LCG
      groups[(x >> 33) % kGroups].push_back(i);
      if (i % 2) order[x >> 20] = i;
    }
    for (const auto& [key, members] : groups) acc += members.size() * key;
    for (const auto& [key, value] : order) acc ^= key + value;
    return acc;
  }

 private:
  static constexpr std::uint32_t kInserts = 96;
  static constexpr std::uint64_t kGroups = 64;
  std::vector<std::byte> buffer_ = std::vector<std::byte>(1 << 18);
};

/// Times the reference kernel between one client's operations, at most
/// once per kIntervalNs of that client's work; Scale turns the latencies
/// timed between two kernel runs into reference-speed ones.
class SpeedProbe {
 public:
  static constexpr std::uint64_t kIntervalNs = 1'000'000;

  /// Runs the kernel if kIntervalNs has passed since the last run (or
  /// `force`). Call it only between timed operations.
  void Tick(bool force = false) {
    std::uint64_t now = NowNs();
    if (!force && !times_.empty() && now - last_ns_ < kIntervalNs) return;
    // The first run refills the caches the operations evicted; the
    // second is timed, so the figure is the host's speed and not how
    // much the previous operation displaced.
    sink_ = sink_ + kernel_.Run();
    std::uint64_t t0 = NowNs();
    sink_ = sink_ + kernel_.Run();
    last_ns_ = NowNs();
    times_.push_back(static_cast<double>(last_ns_ - t0));
  }

  /// Index of the latest kernel time; an operation timed after it is
  /// scaled by the mean of that time and the next one.
  std::size_t mark() const { return times_.size() - 1; }

  /// The factor that takes a latency timed after kernel run `at` to the
  /// reference speed. Needs a kernel run after the operation.
  double Scale(std::size_t at) const {
    std::size_t next = std::min(at + 1, times_.size() - 1);
    return kReferenceKernelNs / ((times_[at] + times_[next]) / 2);
  }

  /// Kernel times so far; the run reports their median.
  const std::vector<double>& times() const { return times_; }

 private:
  ReferenceKernel kernel_;
  std::vector<double> times_;
  std::uint64_t last_ns_ = 0;
  volatile std::uint64_t sink_ = 0;
};

}  // namespace implbench

#endif  // IMPLBENCH_CALIBRATE_H_

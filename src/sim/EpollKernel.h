//===- EpollKernel.h - Real-traffic epoll kernel backend --------*- C++ -*-===//
//
// Part of AsyncG-C++. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The readiness-based real-traffic kernel: Linux epoll + timerfd + eventfd
/// behind the same submit/cancel/poll/nextDeadline surface jsrt::Runtime
/// pumps. Timed operations reuse the base class's deadline table — the
/// difference is that the clock tracks the wall (CLOCK_MONOTONIC
/// microseconds since kernel construction, pushed into the runtime's shared
/// Clock by syncClock()) instead of being advanced virtually, so deadlines
/// are real. I/O readiness on watched fds is collected from epoll (level
/// triggered) and handed to the loop's I/O phase as completion actions,
/// the exact slot where the simulated kernel's latency-delayed deliveries
/// run.
///
/// waitUntil() is where the loop "blocks in poll": the next timer/op
/// deadline arms the timerfd and the thread sleeps in epoll_wait until the
/// deadline, fd readiness, or an eventfd wakeup from another thread.
/// The cross-thread surface is submitExternal() (queue loop-thread work —
/// the cluster harness's shutdown path), wakeup() (the cluster port's
/// cross-loop wake) and requestStop() (drain and exit), all sticky and
/// thread-safe. The kernel-syscall cost model (KernelStats) counts every
/// syscall this kernel and its network layer issue, so benches can report
/// syscalls/request.
///
/// Loop semantics, instrumentation hooks, and the async pipeline are
/// untouched: everything above the Kernel interface behaves identically on
/// both backends (the StarlingMonkey swappable host-apis pattern).
///
//===----------------------------------------------------------------------===//

#ifndef ASYNCG_SIM_EPOLLKERNEL_H
#define ASYNCG_SIM_EPOLLKERNEL_H

#ifdef __linux__

#include "sim/Kernel.h"

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <unordered_map>

namespace asyncg {
namespace sim {

/// The epoll-backed kernel. Loop-thread only, except submitExternal(),
/// wakeup(), requestStop(), and stopRequested().
class EpollKernel final : public Kernel {
public:
  /// Handler invoked with the ready EPOLL* event mask. Runs in the loop's
  /// I/O phase (a kernel completion action).
  using FdHandler = std::function<void(uint32_t)>;

  explicit EpollKernel(Clock &C);
  ~EpollKernel() override;

  bool isRealTime() const override { return true; }

  /// False when epoll/timerfd/eventfd creation failed at construction.
  bool valid() const { return EpFd >= 0 && EvFd >= 0 && TimerFd >= 0; }

  /// Queues \p Action to run on the loop thread's next I/O phase and wakes
  /// a blocked waitUntil(). Thread-safe — the only sanctioned way to talk
  /// to a serving loop from outside (e.g. cluster shutdown).
  void submitExternal(std::function<void()> Action);

  /// Wakes a blocked waitUntil() without queueing work (the cluster port
  /// uses this when posting cross-loop messages). Thread-safe.
  void wakeup();

  /// Asks the loop to stop serving: the next idle waitUntil() returns
  /// false, so Runtime::runLoop drains exactly as it does when a simulated
  /// run has no pending work left — no extra events, no extra ticks.
  /// Thread-safe; sticky for the kernel's lifetime.
  void requestStop();

  bool stopRequested() const {
    return StopRequested.load(std::memory_order_acquire);
  }

  /// Advances the shared clock to CLOCK_MONOTONIC microseconds elapsed
  /// since construction (never backwards).
  void syncClock();

  KernelStats kernelStats() const override;

  /// Counts \p N syscalls issued outside the kernel itself (the network
  /// backend's socket/recv/send/accept calls flow through here).
  void noteSyscalls(uint64_t N) { Stats.Syscalls += N; }

  /// \name Kernel surface (timed ops inherit the base deadline table)
  /// @{
  bool hasPending() const override;
  size_t pendingCount() const override;
  SimTime nextDeadline() const override;
  std::vector<std::function<void()>> takeDue() override;
  bool waitUntil(SimTime Next) override;
  /// @}

  /// \name fd watching (used by EpollNetwork; level-triggered)
  /// @{

  /// Registers \p Fd for \p Events (EPOLLIN/EPOLLOUT). One handler per fd.
  bool watchFd(int Fd, uint32_t Events, FdHandler H);

  /// Changes the interest mask of a watched fd.
  bool modifyFd(int Fd, uint32_t Events);

  /// Unregisters \p Fd. Pending readiness for it is dropped.
  void unwatchFd(int Fd);

  size_t watchedFds() const { return Watches.size(); }
  /// @}

private:
  struct Watch {
    int Fd = -1;
    uint32_t Events = 0;
    FdHandler Handler;
  };

  /// One epoll_wait sweep with \p TimeoutMs (-1 = block), merging ready
  /// events into the Ready list. Returns the number of fd events seen.
  int pollOnce(int TimeoutMs);
  void armTimer(SimTime Next);
  bool hasStagedWork() const;

  /// True when externally submitted work is queued (acquire).
  bool hasExternalWork() const {
    return HasExternal.load(std::memory_order_acquire);
  }

  /// Moves queued external actions onto the back of \p Due.
  void drainExternalInto(std::vector<std::function<void()>> &Due);

  /// Locked emptiness check for the idle-exit decision in waitUntil().
  bool externalQueueEmpty() const;

  int EpFd = -1;
  int EvFd = -1;
  int TimerFd = -1;
  std::chrono::steady_clock::time_point Origin;

  /// Syscall cost model, bumped on the loop thread; the cross-thread wake
  /// path counts through WakeupCalls below.
  KernelStats Stats;

  mutable std::mutex ExternalMu;
  std::vector<std::function<void()>> External;
  std::atomic<bool> HasExternal{false};
  std::atomic<bool> StopRequested{false};
  /// wakeup() runs on foreign threads; folded into Stats on read.
  std::atomic<uint64_t> WakeupCalls{0};

  std::unordered_map<int, std::shared_ptr<Watch>> Watches;
  /// Readiness collected but not yet handed to the loop: (watch, events).
  std::vector<std::pair<std::weak_ptr<Watch>, uint32_t>> Ready;
};

} // namespace sim
} // namespace asyncg

#endif // __linux__
#endif // ASYNCG_SIM_EPOLLKERNEL_H

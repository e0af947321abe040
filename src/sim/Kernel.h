//===- Kernel.h - Simulated OS async-completion kernel ----------*- C++ -*-===//
//
// Part of AsyncG-C++. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The kernel interface the jsrt event loop pumps, plus its default
/// implementation: a *simulated* operating system holding a table of
/// pending asynchronous operations, each with a virtual completion time and
/// a completion action. The jsrt event loop polls the kernel in its I/O
/// phase; when the loop is otherwise idle it asks the kernel to wait for
/// the next deadline, which the simulated kernel satisfies by advancing the
/// virtual clock (modeling libuv blocking in epoll with a timeout) and the
/// real-traffic EpollKernel satisfies by actually blocking in epoll.
///
/// This is the paper's "external scheduling" source (§II-A): callbacks
/// scheduled by the OS which notifies the event loop with event data.
///
//===----------------------------------------------------------------------===//

#ifndef ASYNCG_SIM_KERNEL_H
#define ASYNCG_SIM_KERNEL_H

#include "sim/Clock.h"

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace asyncg {
namespace sim {

/// Identifies a pending kernel operation (for cancellation).
using OpId = uint64_t;

/// Which kernel implementation a runtime pumps.
enum class KernelBackend {
  /// The deterministic simulated kernel in virtual time (default).
  Sim,
  /// Real non-blocking sockets behind Linux epoll + timerfd/eventfd, in
  /// wall-clock time. Only available on Linux builds.
  Epoll,
};

/// The kernel-syscall cost model: every syscall the epoll backend (and its
/// network layer) issues on the serving path. The simulated kernel reports
/// all zeros — it never enters the OS.
///
/// The headline metric benches derive from this block is syscalls/request:
/// one-plus syscalls per socket op (recv, send, accept4, epoll_ctl churn,
/// timerfd re-arms, epoll_wait sweeps).
struct KernelStats {
  /// Total syscalls issued by the kernel + network backend.
  uint64_t Syscalls = 0;
  /// Blocking-capable waits: epoll_wait calls.
  uint64_t Enters = 0;
  /// Completion events handled: ready fd events.
  uint64_t Completions = 0;
  /// Cross-thread eventfd wakes issued (submitExternal/wakeup/requestStop).
  uint64_t Wakeups = 0;

  void merge(const KernelStats &O) {
    Syscalls += O.Syscalls;
    Enters += O.Enters;
    Completions += O.Completions;
    Wakeups += O.Wakeups;
  }
};

/// True when a runtime constructed with \p B on this host will work: Sim
/// always, Epoll on Linux builds. When \p Reason is non-null it receives a
/// one-line human-readable explanation either way.
bool kernelBackendAvailable(KernelBackend B, std::string *Reason = nullptr);

/// Resolves `--kernel auto`: epoll where available, else sim. \p Reason (if
/// non-null) receives the visible reason string CLIs print: what was chosen
/// and why epoll was rejected.
KernelBackend resolveAutoKernelBackend(std::string *Reason = nullptr);

/// Comma-separated names of the backends available on this host — for
/// error messages that enumerate choices.
std::string availableKernelBackendNames();

/// Stable lowercase name ("sim", "epoll") for flags and reports.
const char *kernelBackendName(KernelBackend B);

/// Parses a --kernel flag value. Returns false on unknown names ("auto" is
/// not a backend; CLIs resolve it via resolveAutoKernelBackend first).
bool parseKernelBackend(const std::string &Name, KernelBackend &Out);

/// The kernel. Completion actions run when the event loop polls; they are
/// plain C++ closures — the node-layer wraps them so that JS-level
/// callbacks are dispatched through the instrumented runtime.
///
/// This concrete class is the simulated implementation; the virtual methods
/// exist so EpollKernel can swap real OS readiness in behind the same
/// surface without the loop, the instrumentation, or the node layer
/// noticing (the StarlingMonkey host-apis pattern).
///
/// Cancellation contract (shared by all kernel implementations):
/// cancel(Id) returns true iff the kernel still held the operation, in
/// which case its action is guaranteed never to run. An operation that is
/// already *due* but not yet handed to the loop is still held, so it is
/// still cancellable. Once takeDue() has handed the operation to the loop,
/// cancel returns false — even if the loop has not executed the action yet
/// — because the kernel can no longer stop it. cancel of an unknown or
/// twice-cancelled id also returns false.
class Kernel {
public:
  explicit Kernel(Clock &C) : TheClock(C) {}
  virtual ~Kernel();

  Clock &clock() { return TheClock; }
  SimTime now() const { return TheClock.now(); }

  /// Schedules \p Action to complete \p Delay microseconds from now.
  /// Returns an id usable with cancel(). Loop-thread only.
  virtual OpId submit(SimTime Delay, std::function<void()> Action);

  /// Cancels a pending operation under the contract documented on the
  /// class: true iff the action will never run.
  virtual bool cancel(OpId Id);

  /// True if any operation or I/O source is still pending (can produce
  /// future completions; keeps the loop alive).
  virtual bool hasPending() const { return !Pending.empty(); }

  /// Number of pending operations.
  virtual size_t pendingCount() const { return Pending.size(); }

  /// Earliest completion deadline, or NoDeadline when nothing is pending
  /// with a known deadline. Real-time kernels report now() when readiness
  /// is already queued (the work is due immediately).
  virtual SimTime nextDeadline() const;

  /// Removes and returns the actions of all operations due at or before the
  /// current time, in deadline order (FIFO among equal deadlines).
  virtual std::vector<std::function<void()>> takeDue();

  /// The loop is idle until \p Next (the min of timer and kernel
  /// deadlines; NoDeadline when nothing has a deadline). Waits until work
  /// can be due: the simulated kernel advances the virtual clock to \p
  /// Next; the epoll kernel blocks in epoll_wait until \p Next or I/O
  /// readiness. Returns false when the kernel can never produce work again
  /// (no deadline and no I/O sources) — the loop proceeds to its exit path.
  virtual bool waitUntil(SimTime Next);

  /// True for kernels that track wall-clock time (the loop then stops
  /// adding virtual per-tick costs to the clock).
  virtual bool isRealTime() const { return false; }

  /// Total operations ever submitted (for statistics/tests).
  uint64_t submittedCount() const { return NextId; }

  /// Syscall cost-model counters. The simulated kernel issues no syscalls
  /// and returns zeros; real backends override.
  virtual KernelStats kernelStats() const { return KernelStats(); }

private:
  struct PendingOp {
    OpId Id;
    std::function<void()> Action;
  };

  Clock &TheClock;
  // Key: (deadline, sequence) so equal deadlines complete in submit order.
  std::map<std::pair<SimTime, OpId>, PendingOp> Pending;
  std::map<OpId, std::pair<SimTime, OpId>> ById;
  OpId NextId = 0;
};

} // namespace sim
} // namespace asyncg

#endif // ASYNCG_SIM_KERNEL_H

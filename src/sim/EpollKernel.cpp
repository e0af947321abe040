//===- EpollKernel.cpp - Real-traffic epoll kernel backend --------------------===//
//
// Part of AsyncG-C++. MIT License.
//
//===----------------------------------------------------------------------===//

#ifdef __linux__

#include "sim/EpollKernel.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

using namespace asyncg;
using namespace asyncg::sim;

EpollKernel::EpollKernel(Clock &C)
    : Kernel(C), Origin(std::chrono::steady_clock::now()) {
  EvFd = eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  EpFd = epoll_create1(EPOLL_CLOEXEC);
  TimerFd = timerfd_create(CLOCK_MONOTONIC, TFD_CLOEXEC | TFD_NONBLOCK);
  Stats.Syscalls += 3;
  if (!valid())
    return;
  epoll_event Ev{};
  Ev.events = EPOLLIN;
  Ev.data.fd = EvFd;
  epoll_ctl(EpFd, EPOLL_CTL_ADD, EvFd, &Ev);
  Ev.data.fd = TimerFd;
  epoll_ctl(EpFd, EPOLL_CTL_ADD, TimerFd, &Ev);
  Stats.Syscalls += 2;
}

EpollKernel::~EpollKernel() {
  if (TimerFd >= 0)
    ::close(TimerFd);
  if (EpFd >= 0)
    ::close(EpFd);
  if (EvFd >= 0)
    ::close(EvFd);
}

void EpollKernel::syncClock() {
  auto El = std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - Origin)
                .count();
  clock().advanceTo(static_cast<SimTime>(El));
}

void EpollKernel::submitExternal(std::function<void()> Action) {
  {
    std::lock_guard<std::mutex> Lock(ExternalMu);
    External.push_back(std::move(Action));
    HasExternal.store(true, std::memory_order_release);
  }
  wakeup();
}

void EpollKernel::requestStop() {
  StopRequested.store(true, std::memory_order_release);
  wakeup();
}

void EpollKernel::wakeup() {
  uint64_t One = 1;
  ssize_t N;
  // Retry EINTR: a lost wakeup write can strand an external submit until
  // the next unrelated event. EAGAIN is fine — the counter is already
  // nonzero, so a wakeup is pending.
  do {
    N = ::write(EvFd, &One, sizeof(One));
  } while (N < 0 && errno == EINTR);
  (void)N;
  WakeupCalls.fetch_add(1, std::memory_order_relaxed);
}

void EpollKernel::drainExternalInto(std::vector<std::function<void()>> &Due) {
  if (!hasExternalWork())
    return;
  std::vector<std::function<void()>> Ext;
  {
    std::lock_guard<std::mutex> Lock(ExternalMu);
    Ext.swap(External);
    HasExternal.store(false, std::memory_order_release);
  }
  for (auto &A : Ext)
    Due.push_back(std::move(A));
}

bool EpollKernel::externalQueueEmpty() const {
  std::lock_guard<std::mutex> Lock(ExternalMu);
  return External.empty();
}

KernelStats EpollKernel::kernelStats() const {
  KernelStats Out = Stats;
  uint64_t Wakes = WakeupCalls.load(std::memory_order_relaxed);
  Out.Wakeups = Wakes;
  Out.Syscalls += Wakes; // each wakeup() is one eventfd write(2)
  return Out;
}

bool EpollKernel::hasStagedWork() const {
  return !Ready.empty() || hasExternalWork();
}

bool EpollKernel::hasPending() const {
  return Kernel::hasPending() || !Watches.empty() || hasStagedWork();
}

size_t EpollKernel::pendingCount() const {
  return Kernel::pendingCount() + Watches.size() + Ready.size();
}

SimTime EpollKernel::nextDeadline() const {
  // Staged readiness/external work is due immediately; watched fds alone
  // have no deadline (the loop blocks on them in waitUntil).
  if (hasStagedWork())
    return now();
  return Kernel::nextDeadline();
}

bool EpollKernel::watchFd(int Fd, uint32_t Events, FdHandler H) {
  if (Watches.count(Fd))
    return false;
  auto W = std::make_shared<Watch>();
  W->Fd = Fd;
  W->Events = Events;
  W->Handler = std::move(H);
  epoll_event Ev{};
  Ev.events = Events;
  Ev.data.fd = Fd;
  ++Stats.Syscalls; // epoll_ctl ADD
  if (epoll_ctl(EpFd, EPOLL_CTL_ADD, Fd, &Ev) != 0)
    return false;
  Watches.emplace(Fd, std::move(W));
  return true;
}

bool EpollKernel::modifyFd(int Fd, uint32_t Events) {
  auto It = Watches.find(Fd);
  if (It == Watches.end())
    return false;
  if (It->second->Events == Events)
    return true;
  epoll_event Ev{};
  Ev.events = Events;
  Ev.data.fd = Fd;
  ++Stats.Syscalls; // epoll_ctl MOD
  if (epoll_ctl(EpFd, EPOLL_CTL_MOD, Fd, &Ev) != 0)
    return false;
  It->second->Events = Events;
  return true;
}

void EpollKernel::unwatchFd(int Fd) {
  auto It = Watches.find(Fd);
  if (It == Watches.end())
    return;
  epoll_ctl(EpFd, EPOLL_CTL_DEL, Fd, nullptr);
  ++Stats.Syscalls; // epoll_ctl DEL
  // Expire the watch so queued Ready entries (weak) drop out; the fd
  // number may be reused by a new connection before they are drained.
  Watches.erase(It);
}

int EpollKernel::pollOnce(int TimeoutMs) {
  epoll_event Evs[64];
  int N;
  do {
    ++Stats.Enters;
    ++Stats.Syscalls; // epoll_wait
    N = epoll_wait(EpFd, Evs, 64, TimeoutMs);
  } while (N < 0 && errno == EINTR);
  if (N <= 0)
    return 0;
  int FdEvents = 0;
  for (int I = 0; I != N; ++I) {
    int Fd = Evs[I].data.fd;
    if (Fd == EvFd || Fd == TimerFd) {
      uint64_t Buf;
      ++Stats.Syscalls; // at least one draining read
      // Drain through EINTR: abandoning the drain on a signal would leave
      // the eventfd/timerfd level-readable and spin the next sweep.
      ssize_t R;
      while ((R = ::read(Fd, &Buf, sizeof(Buf))) > 0 ||
             (R < 0 && errno == EINTR)) {
      }
      continue;
    }
    auto It = Watches.find(Fd);
    if (It == Watches.end())
      continue;
    ++FdEvents;
    ++Stats.Completions;
    uint32_t NewMask = Evs[I].events;
    // Merge with an already-queued entry for the same watch (level
    // triggered: the same readiness may be reported by consecutive
    // sweeps before the loop drains it).
    bool Merged = false;
    for (auto &[WeakW, Mask] : Ready) {
      if (WeakW.lock() == It->second) {
        Mask |= NewMask;
        Merged = true;
        break;
      }
    }
    if (!Merged)
      Ready.emplace_back(It->second, NewMask);
  }
  return FdEvents;
}

std::vector<std::function<void()>> EpollKernel::takeDue() {
  syncClock();
  // Sweep without blocking so readiness that arrived since the last wait
  // is served in this I/O phase, not the next loop iteration.
  pollOnce(0);

  std::vector<std::function<void()>> Due = Kernel::takeDue();
  drainExternalInto(Due);

  for (auto &[WeakW, Mask] : Ready) {
    std::weak_ptr<Watch> W = WeakW;
    uint32_t Events = Mask;
    // Resolve at run time: an earlier action in this batch may have
    // destroyed the socket and unwatched the fd.
    Due.push_back([W, Events] {
      if (auto Locked = W.lock())
        if (Locked->Handler)
          Locked->Handler(Events);
    });
  }
  Ready.clear();
  return Due;
}

void EpollKernel::armTimer(SimTime Next) {
  itimerspec Spec{};
  if (Next != NoDeadline) {
    auto Abs = Origin + std::chrono::microseconds(Next);
    auto AbsNs = std::chrono::duration_cast<std::chrono::nanoseconds>(
                     Abs.time_since_epoch())
                     .count();
    Spec.it_value.tv_sec = AbsNs / 1000000000;
    Spec.it_value.tv_nsec = AbsNs % 1000000000;
    if (Spec.it_value.tv_sec == 0 && Spec.it_value.tv_nsec == 0)
      Spec.it_value.tv_nsec = 1; // 0 disarms; the deadline is "now".
  }
  timerfd_settime(TimerFd, TFD_TIMER_ABSTIME, &Spec, nullptr);
  ++Stats.Syscalls; // timerfd_settime
}

bool EpollKernel::waitUntil(SimTime Next) {
  syncClock();
  bool Stopping = stopRequested();
  if (Stopping) {
    // Graceful drain: collect readiness that already arrived (in-flight
    // FINs, final responses) so the run finishes the same work the
    // simulated kernel's natural drain would.
    pollOnce(0);
  }
  if (hasStagedWork())
    return true;
  if (Next != NoDeadline && Next <= now())
    return true;
  if (Next == NoDeadline && (Watches.empty() || Stopping)) {
    // No deadline and no I/O source that still counts: watched fds keep a
    // loop alive only until a stop is requested (a bare listener would
    // otherwise block forever). Only an external submit could produce
    // work now, and those are posted by threads that also stop the loop —
    // treat as drained.
    if (externalQueueEmpty())
      return false;
    return true;
  }
  // Origin + Next is an absolute CLOCK_MONOTONIC point; steady_clock is
  // CLOCK_MONOTONIC on Linux, so timerfd gives microsecond-accurate
  // deadlines where epoll_wait's ms timeout would round.
  //
  // Lost-wakeup rule: a deadline that already fired must never be left
  // unguarded by the re-arm. Here that cannot happen — a fired timerfd
  // stays level-readable until drained, and the re-arm below is
  // unconditional. A completion-based backend such as io_uring, whose
  // timeout completion can sit unreaped in its queue, must reap completions
  // before it decides whether to re-arm, or it can block with a due
  // deadline stranded.
  armTimer(Next);
  pollOnce(-1);
  armTimer(NoDeadline);
  syncClock();
  return true;
}

#endif // __linux__

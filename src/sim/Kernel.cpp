//===- Kernel.cpp - Simulated OS async-completion kernel -------------------===//
//
// Part of AsyncG-C++. MIT License.
//
//===----------------------------------------------------------------------===//

#include "sim/Kernel.h"

#include <cassert>

using namespace asyncg;
using namespace asyncg::sim;

bool asyncg::sim::kernelBackendAvailable(KernelBackend B,
                                         std::string *Reason) {
  switch (B) {
  case KernelBackend::Sim:
    if (Reason)
      *Reason = "sim: always available (deterministic virtual time)";
    return true;
  case KernelBackend::Epoll:
#ifdef __linux__
    if (Reason)
      *Reason = "epoll: available (Linux build)";
    return true;
#else
    if (Reason)
      *Reason = "epoll: unavailable (the epoll reactor needs a Linux build)";
    return false;
#endif
  }
  return false;
}

KernelBackend asyncg::sim::resolveAutoKernelBackend(std::string *Reason) {
  std::string Why;
  if (kernelBackendAvailable(KernelBackend::Epoll, &Why)) {
    if (Reason)
      *Reason = "selected epoll — " + Why;
    return KernelBackend::Epoll;
  }
  if (Reason)
    *Reason = "selected sim (fallback: " + Why + ")";
  return KernelBackend::Sim;
}

std::string asyncg::sim::availableKernelBackendNames() {
  std::string Out;
  for (KernelBackend B : {KernelBackend::Sim, KernelBackend::Epoll})
    if (kernelBackendAvailable(B)) {
      if (!Out.empty())
        Out += ", ";
      Out += kernelBackendName(B);
    }
  return Out;
}

const char *asyncg::sim::kernelBackendName(KernelBackend B) {
  switch (B) {
  case KernelBackend::Sim:
    return "sim";
  case KernelBackend::Epoll:
    return "epoll";
  }
  return "?";
}

bool asyncg::sim::parseKernelBackend(const std::string &Name,
                                     KernelBackend &Out) {
  if (Name == "sim") {
    Out = KernelBackend::Sim;
    return true;
  }
  if (Name == "epoll") {
    Out = KernelBackend::Epoll;
    return true;
  }
  return false;
}

Kernel::~Kernel() = default;

OpId Kernel::submit(SimTime Delay, std::function<void()> Action) {
  OpId Id = NextId++;
  SimTime Deadline = TheClock.now() + Delay;
  auto Key = std::make_pair(Deadline, Id);
  Pending.emplace(Key, PendingOp{Id, std::move(Action)});
  ById.emplace(Id, Key);
  return Id;
}

bool Kernel::cancel(OpId Id) {
  auto It = ById.find(Id);
  if (It == ById.end())
    return false;
  Pending.erase(It->second);
  ById.erase(It);
  return true;
}

SimTime Kernel::nextDeadline() const {
  if (Pending.empty())
    return NoDeadline;
  return Pending.begin()->first.first;
}

std::vector<std::function<void()>> Kernel::takeDue() {
  std::vector<std::function<void()>> Due;
  SimTime Now = TheClock.now();
  while (!Pending.empty() && Pending.begin()->first.first <= Now) {
    auto It = Pending.begin();
    ById.erase(It->second.Id);
    Due.push_back(std::move(It->second.Action));
    Pending.erase(It);
  }
  return Due;
}

bool Kernel::waitUntil(SimTime Next) {
  if (Next == NoDeadline)
    return false;
  // Virtual time: "blocking in poll with a timeout" is one clock jump.
  TheClock.advanceTo(Next);
  return true;
}

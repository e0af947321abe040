//===- Runtime.h - The jsrt runtime and event loop --------------*- C++ -*-===//
//
// Part of AsyncG-C++. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Node.js-like asynchronous runtime at the heart of this reproduction.
/// It owns the simulated kernel, the event loop with its phase queues
/// (Fig. 2 of the paper), all asynchronous APIs (nextTick, timers,
/// immediates, promises, emitters), and the instrumentation hook registry.
///
/// Semantics implemented (see DESIGN.md §3):
///  - every top-level callback dispatch is one event-loop tick;
///  - micro-task queues drain after the main tick and after every macro
///    callback, nextTick batches before promise batches, and each can
///    schedule the other;
///  - macro phases cycle timers -> I/O poll -> immediates -> close;
///  - immediates queued during the check phase run in the next loop
///    iteration, so polled I/O interleaves (paper Fig. 3(b));
///  - `emit` runs listeners synchronously; promise executors run
///    synchronously; promise reactions are micro-tasks;
///  - a configurable tick budget lets starving programs (recursive
///    nextTick, Fig. 1) terminate after the bug is observable.
///
//===----------------------------------------------------------------------===//

#ifndef ASYNCG_JSRT_RUNTIME_H
#define ASYNCG_JSRT_RUNTIME_H

#include "instr/Hooks.h"
#include "jsrt/ApiKind.h"
#include "jsrt/Completion.h"
#include "jsrt/Dispatch.h"
#include "jsrt/Emitter.h"
#include "jsrt/Function.h"
#include "jsrt/Ids.h"
#include "jsrt/Object.h"
#include "jsrt/PhaseKind.h"
#include "jsrt/Promise.h"
#include "jsrt/TimerHeap.h"
#include "jsrt/Value.h"
#include "sim/Clock.h"
#include "sim/Fault.h"
#include "sim/FileSystem.h"
#include "sim/Kernel.h"
#include "sim/Network.h"
#include "support/SourceLocation.h"
#include "support/Statistic.h"

#include <deque>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

namespace asyncg {
namespace jsrt {

/// Tunables for a runtime instance.
struct RuntimeConfig {
  /// Maximum number of event-loop ticks before the loop stops reporting
  /// starvation; 0 means unlimited. Lets non-terminating bug programs
  /// (recursive micro-tasks) finish after the bug is detectable.
  uint64_t MaxTicks = 0;

  /// One-way simulated network latency (microseconds).
  sim::SimTime NetLatencyUs = 50;

  /// Simulated file system latency (microseconds).
  sim::SimTime FsLatencyUs = 100;

  /// Node clamps setTimeout(fn, 0) to 1 ms.
  bool ClampZeroTimeout = true;

  /// Virtual time consumed by each top-level callback dispatch
  /// (microseconds). Models that computation takes time on the real
  /// loop — without it, an infinite setImmediate chain would never let a
  /// pending I/O completion become due (Fig. 3(b)'s interleaving).
  sim::SimTime TickCostUs = 1;

  /// Cluster shard number of this loop (0..MaxShardId). Every id the
  /// runtime mints is namespaced into this shard (see Ids.h), so per-shard
  /// Async Graphs never collide and merge without renaming. Shard 0 is the
  /// identity encoding: a single-loop runtime produces exactly the ids it
  /// always did.
  uint32_t Shard = 0;

  /// Which kernel implementation the loop pumps. Sim (default) is the
  /// deterministic virtual-time kernel; Epoll serves real sockets in
  /// wall-clock time (Linux only — check sim::kernelBackendAvailable
  /// before constructing a runtime with it).
  sim::KernelBackend Backend = sim::KernelBackend::Sim;

  /// Wire format spoken on real sockets (Epoll backend only): Http1 maps
  /// the internal REQ/DAT/END//RES messages to real HTTP/1.1 exchanges;
  /// Framed uses a length-prefixed binary framing for non-HTTP protocols.
  sim::WireFormat Wire = sim::WireFormat::Http1;

  /// Listen backlog for real sockets (Epoll backend only).
  int ListenBacklog = 128;

  /// Deterministic fault injection (DESIGN.md §5i). When any rate is
  /// non-zero, the kernel is wrapped in a sim::FaultKernel seeded with
  /// FaultSeed (deadline jitter, spurious wakes on every backend), and the
  /// epoll network layer injects syscall-level faults (EINTR, EAGAIN,
  /// EMFILE, ENOBUFS, short writes, resets) at its accept/recv/send wrap
  /// points. The same (spec, seed, workload) replays the identical fault
  /// schedule.
  sim::FaultSpec Faults;
  uint64_t FaultSeed = 1;
};

class Runtime;

/// Cross-loop delivery port (cluster mode). A runtime with a port installed
/// pumps it once per loop iteration — delivering cross-loop messages as
/// top-level I/O ticks — and consults it instead of exiting when the loop
/// runs dry: the loop parks until another loop posts work or the whole
/// cluster quiesces. Runtimes without a port behave exactly as before.
class LoopPort {
public:
  virtual ~LoopPort();

  /// Delivers pending cross-loop work into \p RT as top-level ticks.
  /// Returns true if anything was dispatched.
  virtual bool pump(Runtime &RT) = 0;

  /// The loop has no runnable or future local work. Blocks until new
  /// cross-loop work may be available (returns true: re-check the loop) or
  /// the cluster has quiesced (returns false: proceed to normal exit).
  virtual bool waitForWork(Runtime &RT) = 0;
};

/// The runtime: object factories, asynchronous APIs, and the event loop.
class Runtime {
public:
  explicit Runtime(RuntimeConfig Config = RuntimeConfig());
  ~Runtime();

  Runtime(const Runtime &) = delete;
  Runtime &operator=(const Runtime &) = delete;

  /// \name Subsystems
  /// @{
  const RuntimeConfig &config() const { return Config; }
  sim::Clock &clock() { return TheClock; }
  sim::Kernel &kernel() { return *TheKernel; }

  /// The kernel with any fault-injection decorator peeled off — the
  /// backend object itself, for callers that need backend-specific access
  /// (the cluster harness casts this to the real backend type).
  sim::Kernel &realKernel();

  /// The fault decision engine, or nullptr when Config.Faults is empty.
  sim::FaultInjector *faultInjector() { return Injector.get(); }

  sim::Network &network() { return *TheNetwork; }
  sim::FileSystem &fileSystem() { return *TheFileSystem; }
  instr::HookRegistry &hooks() { return Hooks; }
  StatisticSet &stats() { return Stats; }

  /// This loop's cluster shard number (0 outside cluster mode).
  uint32_t shard() const { return Config.Shard; }

  /// Installs (or clears, with nullptr) the cross-loop delivery port. The
  /// port must outlive the loop run.
  void setLoopPort(LoopPort *P) { Port = P; }
  LoopPort *loopPort() const { return Port; }
  /// @}

  /// \name Function factories
  /// @{

  /// Creates an application-level function with a fresh identity.
  Function makeFunction(std::string Name, SourceLocation Loc,
                        FunctionBody Body);

  /// Creates an internal-library function (rendered "*" in graphs).
  Function makeBuiltin(std::string Name, FunctionBody Body);
  /// @}

  /// \name Invocation and program execution
  /// @{

  /// Calls \p F as a plain (nested) function call in the current tick.
  /// All instrumentation hooks fire. Returns the completion.
  Completion call(const Function &F, std::vector<Value> Args = {},
                  Value ThisVal = Value::undefined());

  /// Runs \p MainFn as the program's main tick (t1: main), then runs the
  /// event loop to completion. Equivalent to `node main.js`.
  void main(const Function &MainFn);

  /// Runs the event loop until no work remains, stop() is called, or the
  /// tick budget is exhausted. main() calls this; it is public so
  /// embedders (e.g. the workload driver) can pump additional work.
  void runLoop();

  /// Requests the loop to stop after the current callback.
  void stop() { StopRequested = true; }

  bool tickBudgetExhausted() const { return BudgetExhausted; }
  uint64_t tickCount() const { return TickSeq; }
  PhaseKind currentPhase() const { return CurPhase; }
  /// @}

  /// \name Self-scheduling APIs (§II-A)
  /// @{

  /// process.nextTick(fn, ...args).
  ScheduleId nextTick(SourceLocation Loc, const Function &Fn,
                      std::vector<Value> Args = {});

  /// queueMicrotask(fn): schedules on the promise micro-task queue (lower
  /// priority than nextTick, higher than all macro phases).
  ScheduleId queueMicrotask(SourceLocation Loc, const Function &Fn,
                            std::vector<Value> Args = {});

  /// setTimeout(fn, ms, ...args).
  TimerHandle setTimeout(SourceLocation Loc, const Function &Fn, double Ms,
                         std::vector<Value> Args = {});

  /// setInterval(fn, ms, ...args).
  TimerHandle setInterval(SourceLocation Loc, const Function &Fn, double Ms,
                          std::vector<Value> Args = {});

  /// clearTimeout / clearInterval. Returns false if already fired/cleared.
  bool clearTimer(TimerHandle H);

  /// setImmediate(fn, ...args).
  ImmediateHandle setImmediate(SourceLocation Loc, const Function &Fn,
                               std::vector<Value> Args = {});

  /// clearImmediate. Returns false if already fired/cleared.
  bool clearImmediate(ImmediateHandle H);
  /// @}

  /// \name Promises
  /// @{

  /// new Promise((resolve, reject) => ...). The executor runs synchronously
  /// and receives resolve/reject builtin functions.
  PromiseRef promiseCreate(SourceLocation Loc, const Function &Executor);

  /// Promise.resolve(v). If \p V is a promise, returns it unchanged.
  PromiseRef promiseResolvedWith(SourceLocation Loc, Value V);

  /// Promise.reject(v).
  PromiseRef promiseRejectedWith(SourceLocation Loc, Value V);

  /// p.then(onFulfilled[, onRejected]). Invalid handlers pass through.
  PromiseRef promiseThen(SourceLocation Loc, const PromiseRef &P,
                         const Function &OnFulfill,
                         const Function &OnReject = Function());

  /// p.catch(onRejected).
  PromiseRef promiseCatch(SourceLocation Loc, const PromiseRef &P,
                          const Function &OnReject);

  /// p.finally(onFinally). The handler receives no arguments; the derived
  /// promise settles like p (JS semantics, minus thenable subtleties).
  PromiseRef promiseFinally(SourceLocation Loc, const PromiseRef &P,
                            const Function &OnFinally);

  /// Promise.all / race / allSettled / any.
  PromiseRef promiseAll(SourceLocation Loc, std::vector<PromiseRef> Ps);
  PromiseRef promiseRace(SourceLocation Loc, std::vector<PromiseRef> Ps);
  PromiseRef promiseAllSettled(SourceLocation Loc, std::vector<PromiseRef> Ps);
  PromiseRef promiseAny(SourceLocation Loc, std::vector<PromiseRef> Ps);

  /// Explicit resolve/reject actions (what the executor's resolve/reject
  /// functions call; also usable directly for deferred-style code).
  void resolvePromise(SourceLocation Loc, const PromiseRef &P, Value V);
  void rejectPromise(SourceLocation Loc, const PromiseRef &P, Value V);

  /// `await P` support: registers \p Resume to be dispatched as a promise
  /// micro-task when P settles; Resume receives (value, isRejected).
  /// \p FnName names the continuation in graphs ("name (resumed)").
  ScheduleId promiseAwait(SourceLocation Loc, const PromiseRef &P,
                          std::string FnName,
                          std::function<void(Runtime &, Value, bool)> Resume);

  /// Creates a pending application-visible promise without an executor
  /// (used by async functions and the promise-style node APIs).
  PromiseRef promiseBare(SourceLocation Loc, std::string Name = "Promise");

  /// Resolve/reject performed by internal machinery (adoption, reaction
  /// results, async function returns): still produces a CT, flagged
  /// internal.
  void resolvePromiseInternal(const PromiseRef &P, Value V);
  void rejectPromiseInternal(const PromiseRef &P, Value V);

  /// All promises ever created (weak); for tests and end-of-run queries.
  std::vector<PromiseRef> livePromises() const;
  /// @}

  /// \name Emitters
  /// @{

  /// new EventEmitter() (or an internal library emitter when \p Internal).
  EmitterRef emitterCreate(SourceLocation Loc,
                           std::string Name = "EventEmitter",
                           bool Internal = false);

  /// e.on(event, listener). Returns the registration id.
  ScheduleId emitterOn(SourceLocation Loc, const EmitterRef &E,
                       const std::string &Event, const Function &Fn);

  /// e.once(event, listener).
  ScheduleId emitterOnce(SourceLocation Loc, const EmitterRef &E,
                         const std::string &Event, const Function &Fn);

  /// e.prependListener(event, listener).
  ScheduleId emitterPrepend(SourceLocation Loc, const EmitterRef &E,
                            const std::string &Event, const Function &Fn);

  /// Registers a listener under a custom API label. Node-layer modules use
  /// this so graphs show registrations like "L7: createServer" bound to an
  /// internal emitter's event, as in the paper's Fig. 3.
  ScheduleId emitterOnVia(SourceLocation Loc, ApiKind Api,
                          const EmitterRef &E, const std::string &Event,
                          const Function &Fn, bool Once = false);

  /// e.removeListener(event, fn). Returns true if a listener was removed;
  /// a false return is the Invalid-Listener-Removal situation.
  bool emitterRemoveListener(SourceLocation Loc, const EmitterRef &E,
                             const std::string &Event, const Function &Fn);

  /// e.removeAllListeners(event).
  void emitterRemoveAll(SourceLocation Loc, const EmitterRef &E,
                        const std::string &Event);

  /// e.emit(event, ...args). Listeners run synchronously; returns true iff
  /// there was at least one listener (a false return is a dead emit).
  bool emitterEmit(SourceLocation Loc, const EmitterRef &E,
                   const std::string &Event, std::vector<Value> Args = {});

  /// All emitters ever created (weak); for tests and end-of-run queries.
  std::vector<EmitterRef> liveEmitters() const;

  /// The process emitter (created lazily). Like Node, the loop emits
  /// 'beforeExit' on it each time it runs dry; listeners may schedule new
  /// work to keep the program alive.
  const EmitterRef &process();
  /// @}

  /// \name External (I/O) scheduling support for the node layer
  /// @{

  /// Registers an external-API callback (CR event) and returns its id.
  /// The node layer later dispatches the callback with dispatchExternal.
  ScheduleId registerExternal(SourceLocation Loc, ApiKind Api,
                              const Function &Fn, bool Once = true,
                              ObjectId BoundObj = 0,
                              std::string EventName = std::string(),
                              bool Internal = false);

  /// Dispatches a previously registered external callback as a top-level
  /// I/O-phase tick (called from kernel completion closures).
  void dispatchExternal(const Function &Fn, std::vector<Value> Args,
                        ScheduleId Sched, ApiKind Api);

  /// Dispatches internal library work (e.g. "socket data arrived: emit on
  /// the socket emitter") as a top-level I/O tick run by a builtin
  /// function named \p Name.
  void dispatchInternal(const std::string &Name,
                        std::function<void(Runtime &)> Body);

  /// Mints a trigger-action id and fires the corresponding CT-producing
  /// ApiCallEvent. Used by the node cluster layer for cross-loop sends,
  /// where the triggered execution happens on another loop: the returned
  /// id travels with the message and becomes the receiver tick's Sched,
  /// which the merge layer joins back to this CT.
  TriggerId emitExternalTrigger(SourceLocation Loc, ApiKind Api,
                                ObjectId BoundObj = 0,
                                std::string EventName = std::string(),
                                bool Internal = false);

  /// Schedules a callback on the close-handlers queue (lowest priority).
  ScheduleId scheduleCloseCallback(SourceLocation Loc, const Function &Fn,
                                   std::vector<Value> Args = {},
                                   bool Internal = true);
  /// @}

  /// \name Errors
  /// @{

  struct UncaughtError {
    Value Error;
    SourceLocation Loc;
    uint64_t Tick = 0;
  };

  const std::vector<UncaughtError> &uncaughtErrors() const {
    return Uncaught;
  }

  /// Rejected promises nobody ever handled (computed on demand).
  std::vector<PromiseRef> unhandledRejections() const;

  /// Records an uncaught error (used internally and by the node layer).
  void reportUncaught(Value Error, SourceLocation Loc);
  /// @}

  /// \name Tracked property access (data-flow hooks)
  /// @{

  /// Reads \p Key from the object value \p ObjV, firing the
  /// property-access hook. Programs that want the race analysis (§IX
  /// ongoing research) use these instead of touching Object directly.
  Value getProperty(SourceLocation Loc, const Value &ObjV,
                    const std::string &Key);

  /// Writes \p Key on the object value \p ObjV, firing the hook.
  void setProperty(SourceLocation Loc, const Value &ObjV,
                   const std::string &Key, Value V);
  /// @}

  /// Fresh object id (shared by promises/emitters; used by node-layer
  /// pseudo objects too).
  ObjectId nextObjectId() { return ++LastObjectId; }

private:
  /// A queued task for the nextTick/promise/immediate/close queues and for
  /// I/O dispatch.
  struct ScheduledTask {
    Function Fn;
    std::vector<Value> Args;
    ScheduleId Sched = 0;
    ApiKind Api = ApiKind::None;
    TriggerInfo Trigger;
    /// Promise-reaction plumbing: consumes the completion.
    std::function<void(Runtime &, Completion)> OnComplete;
    /// For clearImmediate.
    uint64_t ImmediateId = 0;
    /// Cancelled immediates stay queued but are skipped.
    bool Cancelled = false;
  };

  /// One invocation through the instrumentation hooks.
  Completion invoke(const Function &F, const CallArgs &Args,
                    const DispatchInfo &D);

  /// Dispatches one queued task as a top-level tick in \p Phase.
  void dispatchTask(ScheduledTask &T, PhaseKind Phase);

  /// Drains micro-task queues (nextTick priority) until both are empty or
  /// the budget/stop triggers.
  void drainMicrotasks();

  /// Runs one batch of the given macro phase. Return true if any callback
  /// ran.
  bool runTimersPhase();
  bool runIoPhase();
  bool runCheckPhase();
  bool runClosePhase();

  /// True while any queue, timer, or kernel operation can still produce
  /// work.
  bool hasMacroWork() const;

  /// Consumes one unit of tick budget; returns false when exhausted.
  bool takeTickBudget();

  /// Emits 'beforeExit' when the drained loop has listeners for it and it
  /// was not already emitted since the last dispatched work. Returns true
  /// if it ran (the loop should re-check for work).
  bool tryBeforeExit();

  /// Compacts the weak object registries, firing an ObjectReleaseEvent for
  /// every tracked promise/emitter whose last strong reference was dropped
  /// since the previous sweep. Runs once per loop iteration and once
  /// before loop end; always compacts (bounding registry growth) even with
  /// no analyses attached.
  void sweepReleasedObjects();

  ScheduleId newSchedule() { return ++LastScheduleId; }
  TriggerId newTrigger() { return ++LastTriggerId; }

  /// \name Promise internals
  /// @{
  PromiseRef promiseNew(SourceLocation Loc, bool Internal,
                        ObjectId Parent = 0,
                        ApiKind Relation = ApiKind::None,
                        std::string Name = "Promise");
  PromiseRef promiseReactionJob(SourceLocation Loc, ApiKind Via,
                                const PromiseRef &P, const Function &OnF,
                                const Function &OnR, bool WantDerived,
                                bool Internal);
  void resolveImpl(SourceLocation Loc, const PromiseRef &P, Value V,
                   bool Reject, bool Internal);
  void settle(const PromiseRef &P, bool Reject, Value V, SourceLocation Loc,
              bool Internal, TriggerId Trig);
  void settleFromAdoption(const PromiseRef &P, bool Reject, Value V);
  void enqueueReaction(const PromiseRef &Source, PromiseReaction R,
                       TriggerId Trig);
  void adoptPromise(const PromiseRef &Outer, const PromiseRef &Inner);
  PromiseRef combinator(SourceLocation Loc, ApiKind Api,
                        std::vector<PromiseRef> Ps);
  /// @}

  ScheduleId addListener(SourceLocation Loc, ApiKind Api, const EmitterRef &E,
                         const std::string &Event, const Function &Fn,
                         bool Once, bool Prepend);

  RuntimeConfig Config;
  LoopPort *Port = nullptr;
  sim::Clock TheClock;
  /// Declared before the kernel: the FaultKernel decorator and the network
  /// layer hold references into it, so it must outlive both.
  std::unique_ptr<sim::FaultInjector> Injector;
  /// Kernel/network are backend-polymorphic (Sim or Epoll); the file
  /// system always submits through whichever kernel is installed.
  std::unique_ptr<sim::Kernel> TheKernel;
  std::unique_ptr<sim::Network> TheNetwork;
  std::unique_ptr<sim::FileSystem> TheFileSystem;
  instr::HookRegistry Hooks;
  StatisticSet Stats;

  // Queues (Fig. 2(a)).
  std::deque<ScheduledTask> NextTickQueue;
  std::deque<ScheduledTask> PromiseQueue;
  std::deque<ScheduledTask> ImmediateQueue;
  std::deque<ScheduledTask> CloseQueue;
  TimerHeap Timers;

  // Id generators.
  uint64_t LastFunctionId = 0;
  ObjectId LastObjectId = 0;
  ScheduleId LastScheduleId = 0;
  TriggerId LastTriggerId = 0;
  uint64_t LastTimerId = 0;
  uint64_t LastTimerSeq = 0;
  uint64_t LastImmediateId = 0;

  // Loop state.
  PhaseKind CurPhase = PhaseKind::Main;
  uint64_t TickSeq = 0;
  uint64_t CallDepth = 0;
  bool StopRequested = false;
  bool BudgetExhausted = false;
  bool LoopEndFired = false;

  std::vector<UncaughtError> Uncaught;

  /// Weak registries of every tracked object, in creation order. The id is
  /// stored beside the weak_ptr so a release can still be reported after
  /// the object is gone; sweepReleasedObjects() compacts both vectors once
  /// per loop iteration, firing ObjectReleaseEvents in creation order (a
  /// deterministic point, so recorded traces replay identically).
  struct TrackedPromise {
    ObjectId Id;
    std::weak_ptr<PromiseData> Ref;
  };
  struct TrackedEmitter {
    ObjectId Id;
    std::weak_ptr<EmitterData> Ref;
  };
  std::vector<TrackedPromise> AllPromises;
  std::vector<TrackedEmitter> AllEmitters;

  /// Interval timers cleared while their callback was running.
  std::set<uint64_t> CancelledTimers;
  /// Lazily created internal micro-task body for handler-less reactions.
  Function PassthroughFn;
  /// The lazily created process emitter ('beforeExit').
  EmitterRef ProcessEmitter;
  /// True once 'beforeExit' was emitted with no work dispatched since.
  bool BeforeExitEmitted = false;
};

} // namespace jsrt
} // namespace asyncg

#endif // ASYNCG_JSRT_RUNTIME_H

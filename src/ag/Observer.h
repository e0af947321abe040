//===- Observer.h - Graph construction observers ----------------*- C++ -*-===//
//
// Part of AsyncG-C++. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Observers watch the Async Graph as the builder constructs it; the bug
/// detectors of §VI are observers, which is how AsyncG "automatically
/// analyzes the AG of an application and reports warnings" online while
/// the application runs.
///
//===----------------------------------------------------------------------===//

#ifndef ASYNCG_AG_OBSERVER_H
#define ASYNCG_AG_OBSERVER_H

#include "ag/Graph.h"
#include "instr/Hooks.h"

namespace asyncg {
namespace ag {

class AsyncGBuilder;

/// Interface for online graph analyses. All hooks default to no-ops.
class GraphObserver {
public:
  virtual ~GraphObserver();

  /// Short name for reports.
  virtual const char *observerName() const { return "observer"; }

  /// A new tick opened (its nodes are not yet known).
  virtual void onTickStart(AsyncGBuilder &B, const AgTick &T) {
    (void)B;
    (void)T;
  }

  /// A node was added to the graph.
  virtual void onNodeAdded(AsyncGBuilder &B, NodeId N) {
    (void)B;
    (void)N;
  }

  /// An edge was added to the graph.
  virtual void onEdgeAdded(AsyncGBuilder &B, const AgEdge &E) {
    (void)B;
    (void)E;
  }

  /// Any asynchronous API call, including Misc ones that produce no node
  /// (removeListener and friends).
  virtual void onApiEvent(AsyncGBuilder &B, const instr::ApiCallEvent &E) {
    (void)B;
    (void)E;
  }

  /// A pending registration was explicitly removed (removeListener,
  /// removeAllListeners). \p Cr is the registration's CR node, still live.
  /// removeAllListeners notifies its registrations in registration order.
  virtual void onRegistrationRemoved(AsyncGBuilder &B, NodeId Cr) {
    (void)B;
    (void)Cr;
  }

  /// A pending registration was released because the object it was bound
  /// to (its emitter or promise) was released: it can never fire again.
  /// \p Cr is the registration's CR node, still live — detectors can issue
  /// definitive (sticky) verdicts here. Fired once per released pending
  /// registration, before the registration is erased, in registration
  /// order; a CR with two callbacks (then(onF, onR)) holds two
  /// registrations and is notified twice.
  virtual void onRegistrationReleased(AsyncGBuilder &B, NodeId Cr) {
    (void)B;
    (void)Cr;
  }

  /// A tracked object (promise or emitter) was released by the program.
  /// \p Ob is its OB node or InvalidNode if the object was never bound
  /// into the graph. Fired after every registration bound to the object
  /// was released (see onRegistrationReleased).
  virtual void onObjectReleased(AsyncGBuilder &B, NodeId Ob,
                                jsrt::ObjectId Obj, bool IsPromise) {
    (void)B;
    (void)Ob;
    (void)Obj;
    (void)IsPromise;
  }

  /// The region rooted at tick \p TickIndex is about to be retired: its
  /// nodes will be folded into the graph's RetiredSummary and reclaimed
  /// when this returns. Observers must drop any state keyed by the
  /// region's tick or node ids.
  virtual void onRegionRetire(AsyncGBuilder &B, uint32_t TickIndex) {
    (void)B;
    (void)TickIndex;
  }

  /// The event loop drained: run end-of-run analyses. May fire more than
  /// once if the embedder pumps the loop again; implementations should
  /// recompute rather than accumulate (see AsyncGraph::clearWarnings).
  virtual void onEnd(AsyncGBuilder &B) { (void)B; }
};

} // namespace ag
} // namespace asyncg

#endif // ASYNCG_AG_OBSERVER_H

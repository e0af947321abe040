//===- Tracing.h - bench-side layer shims and spans -------------*- C++ -*-===//
//
// Part of AsyncG-C++. MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's measuring apparatus, built entirely from public hooks:
///
///  - HookShim is an instr::AnalysisBase in front of the AsyncGBuilder. It
///    counts every hook call. Of each hook kind it times one call in
///    SampleEvery whole (builder plus the detectors it dispatches to), and
///    on other calls, one in DetectorSampleEvery, it has the SuiteShim time
///    each detector instead.
///  - SuiteShim is the one ag::GraphObserver attached in place of the
///    DetectorSuite. It counts every dispatch and forwards it to the suite,
///    or, while sampling, to each detector with its own clock. With no
///    HookShim in front (the ingest hub's builder) it samples one dispatch
///    of each observer hook in DetectorSampleEvery itself.
///
/// The two samples are kept apart on purpose. Timing every detector call
/// nested in a timed builder call (one in 16) charged the nested clock
/// reads to the builder: on acmeair_inline it put builder self time at
/// 0.87 s of a 1.07 s unit and the runtime's residual below zero, where
/// the disjoint samples give 0.31 s. A detector call costs a few
/// nanoseconds, less than a clock read, so detectors are sampled more
/// sparsely: at one in 16 the traced unit ran 32% slower than the plain
/// one, at one in 128 about 6%. Sampled sums are scaled by calls / sampled
/// calls per stratum, and the calibrated cost of a clock read is taken off
/// every span. Spans go to a preallocated buffer written out at the end.
///
//===----------------------------------------------------------------------===//

#ifndef AGBENCH_TRACING_H
#define AGBENCH_TRACING_H

#include "Common.h"

#include "ag/Builder.h"
#include "ag/Observer.h"
#include "detect/Detectors.h"

#include <cstdint>
#include <string>
#include <vector>

namespace agbench {

constexpr unsigned SampleEvery = 16;
constexpr unsigned DetectorSampleEvery = 128;

/// Builder hooks, in metric-name order.
enum HookKind : unsigned {
  HkEnter,
  HkExit,
  HkApi,
  HkObjCreate,
  HkReaction,
  HkLink,
  HkRelease,
  HkLoopEnd,
  NumHookKinds
};
extern const char *const HookNames[NumHookKinds];

/// GraphObserver hooks, in metric-name order.
enum ObsKind : unsigned {
  ObTickStart,
  ObNodeAdded,
  ObEdgeAdded,
  ObApiEvent,
  ObRegRemoved,
  ObRegReleased,
  ObObjectReleased,
  ObRegionRetire,
  ObEnd,
  NumObsKinds
};
extern const char *const ObsNames[NumObsKinds];

constexpr unsigned NumDetectors = 10;
/// Metric names of the suite's detectors, in DetectorSuite member order.
extern const char *const DetectorNames[NumDetectors];

/// Detector samples are stratified by the builder hook that dispatched
/// them, or by observer hook when no HookShim is in front.
constexpr unsigned NumStrata = NumObsKinds;
static_assert(NumHookKinds <= NumStrata, "a stratum per hook kind");

constexpr uint32_t NoSpan = ~0u;

/// Fixed-capacity span store. Spans past capacity are dropped and counted.
class SpanBuffer {
public:
  explicit SpanBuffer(size_t Capacity) : Capacity(Capacity) {
    Spans.reserve(Capacity);
  }

  uint32_t intern(const std::string &Name);
  /// Opens a span (its times are set by finish()); NoSpan when full.
  uint32_t begin(uint32_t Name, uint32_t Parent, uint64_t Seq) {
    if (Spans.size() == Capacity) {
      ++Dropped;
      return NoSpan;
    }
    Spans.push_back({0, 0, Seq, Name, Parent});
    return static_cast<uint32_t>(Spans.size() - 1);
  }
  void finish(uint32_t Id, int64_t StartNs, int64_t EndNs) {
    if (Id != NoSpan) {
      Spans[Id].StartNs = StartNs;
      Spans[Id].EndNs = EndNs;
    }
  }

  /// Writes "id name start_ns end_ns parent seq" rows (tab-separated).
  bool writeTsv(const std::string &Path) const;

private:
  struct Span {
    int64_t StartNs;
    int64_t EndNs;
    uint64_t Seq;
    uint32_t Name;
    uint32_t Parent;
  };
  size_t Capacity;
  std::vector<Span> Spans;
  std::vector<std::string> Names;
  uint64_t Dropped = 0;
};

/// One unit's call counts and sampled timings.
struct LayerCounts {
  /// Builder hook calls, and the whole-call samples (builder + detectors).
  uint64_t Calls[NumHookKinds] = {};
  uint64_t InclTimed[NumHookKinds] = {};
  double InclNs[NumHookKinds] = {};
  uint64_t Promises = 0;
  /// Suite dispatches by observer hook.
  uint64_t Dispatches[NumObsKinds] = {};
  /// Per-detector samples by stratum.
  uint64_t StratumCalls[NumStrata] = {};
  uint64_t StratumTimed[NumStrata] = {};
  double DetNs[NumDetectors][NumStrata] = {};

  uint64_t events() const;
  /// Scaled estimates of the whole unit's time.
  double detectorNs(unsigned D) const;
  double detectorsNs() const;
  /// Builder self time: whole calls minus the detectors (HookShim only).
  double builderSelfNs() const;
  /// Mean builder self time of one call of kind \p K (HookShim only).
  double nsPerCall(unsigned K) const;
};

/// State shared by one unit's shims.
class Tracer {
public:
  /// \p Spans may be null: a count-only tracer that times nothing.
  explicit Tracer(SpanBuffer *Spans);

  LayerCounts Counts;
  /// Span the unit's spans hang off.
  uint32_t Parent = NoSpan;

private:
  friend class HookShim;
  friend class SuiteShim;
  SpanBuffer *Spans;
  double ClockNs = 0;
  /// Set by HookShim: the suite then samples when told to.
  bool BuilderDriven = false;
  /// The SuiteShim times each detector for the current dispatch(es).
  bool DetTiming = false;
  unsigned Stratum = 0;
  uint64_t Seq = 0;
  uint32_t HookSpanNames[NumHookKinds] = {};
  uint32_t DetSpanNames[NumDetectors] = {};
};

/// Forwards every hook the builder consumes to \p Target (the builder, or a
/// TraceRecorder when only counting), counting and sampling.
class HookShim final : public asyncg::instr::AnalysisBase {
public:
  HookShim(asyncg::instr::AnalysisBase &Target, Tracer &T)
      : Target(Target), T(T) {
    T.BuilderDriven = true;
  }

  const char *analysisName() const override { return "agbench-hook-shim"; }
  void onFunctionEnter(const asyncg::instr::FunctionEnterEvent &E) override;
  void onFunctionExit(const asyncg::instr::FunctionExitEvent &E) override;
  void onApiCall(const asyncg::instr::ApiCallEvent &E) override;
  void onObjectCreate(const asyncg::instr::ObjectCreateEvent &E) override;
  void onReactionResult(const asyncg::instr::ReactionResultEvent &E) override;
  void onPromiseLink(const asyncg::instr::PromiseLinkEvent &E) override;
  void onObjectRelease(const asyncg::instr::ObjectReleaseEvent &E) override;
  void onLoopEnd(const asyncg::instr::LoopEndEvent &E) override;
  void onBatchBoundary() override { Target.onBatchBoundary(); }

private:
  template <typename Fn> void forward(HookKind K, Fn &&Call);

  asyncg::instr::AnalysisBase &Target;
  Tracer &T;
};

/// Stands in for a DetectorSuite on a builder, counting and sampling.
class SuiteShim final : public asyncg::ag::GraphObserver {
public:
  SuiteShim(asyncg::detect::DetectorSuite &Suite, Tracer &T);

  const char *observerName() const override { return "agbench-suite-shim"; }
  void onTickStart(asyncg::ag::AsyncGBuilder &B,
                   const asyncg::ag::AgTick &Tk) override;
  void onNodeAdded(asyncg::ag::AsyncGBuilder &B,
                   asyncg::ag::NodeId N) override;
  void onEdgeAdded(asyncg::ag::AsyncGBuilder &B,
                   const asyncg::ag::AgEdge &E) override;
  void onApiEvent(asyncg::ag::AsyncGBuilder &B,
                  const asyncg::instr::ApiCallEvent &E) override;
  void onRegistrationRemoved(asyncg::ag::AsyncGBuilder &B,
                             asyncg::ag::NodeId Cr) override;
  void onRegistrationReleased(asyncg::ag::AsyncGBuilder &B,
                              asyncg::ag::NodeId Cr) override;
  void onObjectReleased(asyncg::ag::AsyncGBuilder &B, asyncg::ag::NodeId Ob,
                        asyncg::jsrt::ObjectId Obj, bool IsPromise) override;
  void onRegionRetire(asyncg::ag::AsyncGBuilder &B,
                      uint32_t TickIndex) override;
  void onEnd(asyncg::ag::AsyncGBuilder &B) override;

private:
  /// Dispatches through \p Hook, either to the suite or to each detector.
  template <typename Fn> void dispatch(ObsKind K, Fn &&Hook);

  asyncg::detect::DetectorSuite &Suite;
  Tracer &T;
  /// The suite's detectors with their metric index.
  std::vector<std::pair<asyncg::ag::GraphObserver *, unsigned>> Detectors;
};

/// Reports the detector layer (detect.*self_s, detect.dispatches.*) as
/// medians over units that carry LayerCounts \c Counts.
template <typename T>
void detectorMetrics(RunResult &R, const std::vector<T> &Units) {
  R.metric("detect.self_s", medianOf(Units, [](const T &U) {
             return U.Counts.detectorsNs() / 1e9;
           }),
           "s");
  for (unsigned D = 0; D != NumDetectors; ++D)
    R.metric(std::string("detect.") + DetectorNames[D] + ".self_s",
             medianOf(Units,
                      [D](const T &U) { return U.Counts.detectorNs(D) / 1e9; }),
             "s");
  for (unsigned K = 0; K != NumObsKinds; ++K)
    R.metric(std::string("detect.dispatches.") + ObsNames[K],
             medianOf(Units,
                      [K](const T &U) { return U.Counts.Dispatches[K]; }),
             "count");
}

} // namespace agbench

#endif // AGBENCH_TRACING_H

//===- Tracing.cpp - bench-side layer shims and spans ---------------------===//
//
// Part of AsyncG-C++. MIT License.
//
//===----------------------------------------------------------------------===//

#include "Tracing.h"

#include "Common.h"

#include <algorithm>
#include <cstdio>

using namespace asyncg;

namespace agbench {

const char *const HookNames[NumHookKinds] = {
    "enter",    "exit", "api",     "objcreate",
    "reaction", "link", "release", "loop_end"};

const char *const ObsNames[NumObsKinds] = {
    "tick_start",      "node_added",    "edge_added",
    "api_event",       "reg_removed",   "reg_released",
    "object_released", "region_retire", "end"};

const char *const DetectorNames[NumDetectors] = {
    "recursive", "mixed",           "timeout_order", "dead_listener",
    "dead_emit", "invalid_removal", "duplicate",     "add_within",
    "leak",      "promises"};

uint32_t SpanBuffer::intern(const std::string &Name) {
  auto It = std::find(Names.begin(), Names.end(), Name);
  if (It != Names.end())
    return static_cast<uint32_t>(It - Names.begin());
  Names.push_back(Name);
  return static_cast<uint32_t>(Names.size() - 1);
}

bool SpanBuffer::writeTsv(const std::string &Path) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "# spans kept %zu, dropped %llu (buffer full)\n",
               Spans.size(), static_cast<unsigned long long>(Dropped));
  std::fprintf(F, "id\tname\tstart_ns\tend_ns\tparent\tseq\n");
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(F, "%zu\t%s\t%lld\t%lld\t%lld\t%llu\n", I,
                 Names[S.Name].c_str(), static_cast<long long>(S.StartNs),
                 static_cast<long long>(S.EndNs),
                 S.Parent == NoSpan ? -1LL : static_cast<long long>(S.Parent),
                 static_cast<unsigned long long>(S.Seq));
  }
  return std::fclose(F) == 0;
}

uint64_t LayerCounts::events() const {
  uint64_t N = 0;
  for (unsigned K = 0; K != NumHookKinds; ++K)
    N += Calls[K];
  return N;
}

double LayerCounts::detectorNs(unsigned D) const {
  double Ns = 0;
  for (unsigned S = 0; S != NumStrata; ++S)
    if (StratumTimed[S])
      Ns += DetNs[D][S] * static_cast<double>(StratumCalls[S]) /
            static_cast<double>(StratumTimed[S]);
  return Ns;
}

double LayerCounts::detectorsNs() const {
  double Ns = 0;
  for (unsigned D = 0; D != NumDetectors; ++D)
    Ns += detectorNs(D);
  return Ns;
}

double LayerCounts::builderSelfNs() const {
  double Ns = 0;
  for (unsigned K = 0; K != NumHookKinds; ++K)
    if (InclTimed[K])
      Ns += InclNs[K] * static_cast<double>(Calls[K]) /
            static_cast<double>(InclTimed[K]);
  return Ns - detectorsNs();
}

double LayerCounts::nsPerCall(unsigned K) const {
  if (!InclTimed[K])
    return 0;
  double DetPerCall = 0;
  if (StratumTimed[K]) {
    for (unsigned D = 0; D != NumDetectors; ++D)
      DetPerCall += DetNs[D][K];
    DetPerCall /= static_cast<double>(StratumTimed[K]);
  }
  return InclNs[K] / static_cast<double>(InclTimed[K]) - DetPerCall;
}

namespace {

/// Cost of one steady_clock read: the median of 15 trials of 2000 reads.
double calibrateClockNs() {
  std::vector<double> Trials;
  for (int T = 0; T != 15; ++T) {
    int64_t Sink = 0;
    int64_t S = nowNs();
    for (int I = 0; I != 2000; ++I)
      Sink += nowNs() & 1;
    int64_t E = nowNs();
    Trials.push_back(static_cast<double>(E - S - (Sink & 1)) / 2001.0);
  }
  return median(std::move(Trials));
}

} // namespace

Tracer::Tracer(SpanBuffer *Spans) : Spans(Spans) {
  if (!Spans)
    return;
  static const double Calibrated = calibrateClockNs();
  ClockNs = Calibrated;
  for (unsigned K = 0; K != NumHookKinds; ++K)
    HookSpanNames[K] = Spans->intern(std::string("ag.builder.") + HookNames[K]);
  for (unsigned D = 0; D != NumDetectors; ++D)
    DetSpanNames[D] = Spans->intern(std::string("detect.") + DetectorNames[D]);
}

template <typename Fn> void HookShim::forward(HookKind K, Fn &&Call) {
  LayerCounts &C = T.Counts;
  uint64_t N = C.Calls[K]++;
  ++C.StratumCalls[K];
  ++T.Seq;
  // onLoopEnd runs once and carries the detectors' end-of-run pass: time
  // it both ways.
  bool Whole = T.Spans && (K == HkLoopEnd || N % SampleEvery == 0);
  bool Detectors = T.Spans && (K == HkLoopEnd ||
                               N % DetectorSampleEvery == SampleEvery / 2);
  T.Stratum = K;
  T.DetTiming = Detectors;
  C.StratumTimed[K] += Detectors;
  if (!Whole) {
    Call();
    T.DetTiming = false;
    return;
  }
  uint32_t Id = T.Spans->begin(T.HookSpanNames[K], T.Parent, T.Seq);
  int64_t S = nowNs();
  Call();
  int64_t E = nowNs();
  T.DetTiming = false;
  T.Spans->finish(Id, S, E);
  C.InclNs[K] += std::max(static_cast<double>(E - S) - T.ClockNs, 0.0);
  ++C.InclTimed[K];
}

void HookShim::onFunctionEnter(const instr::FunctionEnterEvent &E) {
  forward(HkEnter, [&] { Target.onFunctionEnter(E); });
}
void HookShim::onFunctionExit(const instr::FunctionExitEvent &E) {
  forward(HkExit, [&] { Target.onFunctionExit(E); });
}
void HookShim::onApiCall(const instr::ApiCallEvent &E) {
  forward(HkApi, [&] { Target.onApiCall(E); });
}
void HookShim::onObjectCreate(const instr::ObjectCreateEvent &E) {
  if (E.IsPromise)
    ++T.Counts.Promises;
  forward(HkObjCreate, [&] { Target.onObjectCreate(E); });
}
void HookShim::onReactionResult(const instr::ReactionResultEvent &E) {
  forward(HkReaction, [&] { Target.onReactionResult(E); });
}
void HookShim::onPromiseLink(const instr::PromiseLinkEvent &E) {
  forward(HkLink, [&] { Target.onPromiseLink(E); });
}
void HookShim::onObjectRelease(const instr::ObjectReleaseEvent &E) {
  forward(HkRelease, [&] { Target.onObjectRelease(E); });
}
void HookShim::onLoopEnd(const instr::LoopEndEvent &E) {
  forward(HkLoopEnd, [&] { Target.onLoopEnd(E); });
}

SuiteShim::SuiteShim(detect::DetectorSuite &Suite, Tracer &T)
    : Suite(Suite), T(T) {
  const ag::GraphObserver *Members[NumDetectors] = {
      &Suite.Recursive,    &Suite.Mixed,          &Suite.TimeoutOrder,
      &Suite.DeadListener, &Suite.DeadEmit,       &Suite.InvalidRemoval,
      &Suite.Duplicate,    &Suite.AddWithin,      &Suite.LeakDetector,
      &Suite.Promises};
  for (ag::GraphObserver *D : Suite.detectors())
    Detectors.push_back(
        {D, static_cast<unsigned>(
                std::find(Members, Members + NumDetectors, D) - Members)});
}

template <typename Fn> void SuiteShim::dispatch(ObsKind K, Fn &&Hook) {
  LayerCounts &C = T.Counts;
  uint64_t N = C.Dispatches[K]++;
  if (!T.BuilderDriven) {
    T.Stratum = K;
    T.Seq = N;
    T.DetTiming = T.Spans && N % DetectorSampleEvery == 0;
    ++C.StratumCalls[K];
    C.StratumTimed[K] += T.DetTiming;
  }
  if (!T.DetTiming) {
    Hook(static_cast<ag::GraphObserver &>(Suite));
    return;
  }
  for (auto [D, Index] : Detectors) {
    uint32_t Id = T.Spans->begin(T.DetSpanNames[Index], T.Parent, T.Seq);
    int64_t S = nowNs();
    Hook(*D);
    int64_t E = nowNs();
    T.Spans->finish(Id, S, E);
    C.DetNs[Index][T.Stratum] +=
        std::max(static_cast<double>(E - S) - T.ClockNs, 0.0);
  }
}

void SuiteShim::onTickStart(ag::AsyncGBuilder &B, const ag::AgTick &Tk) {
  dispatch(ObTickStart, [&](ag::GraphObserver &O) { O.onTickStart(B, Tk); });
}
void SuiteShim::onNodeAdded(ag::AsyncGBuilder &B, ag::NodeId N) {
  dispatch(ObNodeAdded, [&](ag::GraphObserver &O) { O.onNodeAdded(B, N); });
}
void SuiteShim::onEdgeAdded(ag::AsyncGBuilder &B, const ag::AgEdge &E) {
  dispatch(ObEdgeAdded, [&](ag::GraphObserver &O) { O.onEdgeAdded(B, E); });
}
void SuiteShim::onApiEvent(ag::AsyncGBuilder &B,
                           const instr::ApiCallEvent &E) {
  dispatch(ObApiEvent, [&](ag::GraphObserver &O) { O.onApiEvent(B, E); });
}
void SuiteShim::onRegistrationRemoved(ag::AsyncGBuilder &B, ag::NodeId Cr) {
  dispatch(ObRegRemoved,
           [&](ag::GraphObserver &O) { O.onRegistrationRemoved(B, Cr); });
}
void SuiteShim::onRegistrationReleased(ag::AsyncGBuilder &B, ag::NodeId Cr) {
  dispatch(ObRegReleased,
           [&](ag::GraphObserver &O) { O.onRegistrationReleased(B, Cr); });
}
void SuiteShim::onObjectReleased(ag::AsyncGBuilder &B, ag::NodeId Ob,
                                 jsrt::ObjectId Obj, bool IsPromise) {
  dispatch(ObObjectReleased, [&](ag::GraphObserver &O) {
    O.onObjectReleased(B, Ob, Obj, IsPromise);
  });
}
void SuiteShim::onRegionRetire(ag::AsyncGBuilder &B, uint32_t TickIndex) {
  dispatch(ObRegionRetire,
           [&](ag::GraphObserver &O) { O.onRegionRetire(B, TickIndex); });
}
void SuiteShim::onEnd(ag::AsyncGBuilder &B) {
  dispatch(ObEnd, [&](ag::GraphObserver &O) { O.onEnd(B); });
}

} // namespace agbench

//===- Replay.cpp - replay_detect -----------------------------------------===//
//
// Part of AsyncG-C++. MIT License.
//
//===----------------------------------------------------------------------===//
//
// The post-mortem use: the set-up records a v4 trace of an AcmeAir run,
// and each measured pass ingests it into a fresh IngestHub (Jobs=1, the
// retiring builder) with the detector suite attached and renders the
// warnings report. It is the only workload that decodes trace frames, and
// it runs none of jsrt or sim while measured.
//
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Tracing.h"

#include "ag/IngestHub.h"
#include "apps/acmeair/App.h"
#include "apps/acmeair/Workload.h"
#include "detect/Detectors.h"
#include "instr/TraceCodec.h"
#include "jsrt/Runtime.h"
#include "viz/TextReport.h"

#include <algorithm>
#include <cstdio>

using namespace asyncg;
using namespace asyncg::jsrt;

namespace agbench {
namespace {

/// Records the workload's trace at \p Path through a count-only shim.
bool recordTrace(const Options &O, const std::string &Path,
                 LayerCounts &Counts, RunResult &R) {
  instr::TraceRecorder Rec;
  if (!Rec.open(Path)) {
    R.problem("cannot open " + Path);
    return false;
  }
  Runtime RT;
  acmeair::AcmeAirApp App(RT);
  acmeair::WorkloadConfig WCfg;
  WCfg.TotalRequests = O.Size.ReplayRequests;
  WCfg.Seed = O.Seed;
  acmeair::WorkloadDriver Driver(RT, App.config().Port, WCfg);
  Tracer T(nullptr);
  HookShim Shim(Rec, T);
  RT.hooks().attach(&Shim);
  Function Main = RT.makeBuiltin("main", [&](Runtime &, const CallArgs &) {
    App.start(JSLINE("main.js", 1));
    Driver.start();
    return Completion::normal();
  });
  RT.main(Main);
  Counts = T.Counts;
  if (!Rec.finalize()) {
    R.problem("cannot finish " + Path);
    return false;
  }
  if (Driver.completed() != WCfg.TotalRequests || Driver.errors()) {
    R.problem("recording run completed " + std::to_string(Driver.completed()) +
              " requests with " + std::to_string(Driver.errors()) +
              " errors");
    return false;
  }
  return true;
}

struct Pass {
  double WallS = 0;   ///< hub construction + run + report + teardown
  double RunS = 0;    ///< IngestHub::run
  double ReportS = 0; ///< viz::warningsReport
  bool Ok = false;
  ag::IngestStats Stats;
  uint64_t RecordBytes = 0;
  GraphStats Graph;
  LayerCounts Counts;
};

enum class PassMode {
  Full,   ///< the measured pass: graph, detectors, report
  Decode, ///< BuildGraph=false, no detectors: frame scan + decode + ticks
  Traced, ///< Full with a SuiteShim sampling the detectors
};

Pass ingest(const std::string &Path, PassMode Mode, SpanBuffer *Spans,
            RunResult &R) {
  Pass P;
  trimHeap();
  Clock::time_point T0 = Clock::now();
  {
    ag::IngestOptions Opts;
    Opts.Builder = retiringBuilder();
    Opts.Builder.BuildGraph = Mode != PassMode::Decode;
    ag::IngestHub Hub(Opts);
    size_t S = Hub.addFile(Path);
    detect::DetectorSuite Suite;
    Tracer T(Mode == PassMode::Traced ? Spans : nullptr);
    SuiteShim SuiteT(Suite, T);
    if (Mode == PassMode::Traced)
      Hub.builder(S).addObserver(&SuiteT);
    else if (Mode == PassMode::Full)
      Suite.attachTo(Hub.builder(S));

    std::string Err;
    int64_t RunStart = nowNs();
    Clock::time_point R0 = Clock::now();
    P.Ok = Hub.run(&Err);
    P.RunS = secondsSince(R0);
    if (Mode == PassMode::Traced)
      Spans->finish(Spans->begin(Spans->intern("ag.ingest.run"), NoSpan, 0),
                    RunStart, nowNs());
    if (!P.Ok) {
      R.problem("ingest failed: " + Err);
      return P;
    }
    if (Mode != PassMode::Decode) {
      Clock::time_point V0 = Clock::now();
      std::string Report = viz::warningsReport(Hub.graph());
      P.ReportS = secondsSince(V0);
      size_t Lines = std::count(Report.begin(), Report.end(), '\n');
      if (Lines != Hub.graph().warnings().size())
        R.problem("the warnings report has " + std::to_string(Lines) +
                  " lines for " +
                  std::to_string(Hub.graph().warnings().size()) +
                  " warnings");
      R.unitWarnings(siteKeys(Hub.graph()), "a replay pass");
    }
    P.Stats = Hub.stats();
    P.RecordBytes = P.Stats.Streams.at(S).RecordBytes;
    P.Graph = graphStats(Hub.graph());
    P.Counts = T.Counts;
  }
  P.WallS = secondsSince(T0);
  return P;
}

} // namespace

RunResult runReplayDetect(const Options &O) {
  RunResult R;
  const std::string Path = O.WorkDir + "/replay_detect.agtrace";

  // Set-up: record the trace (every repetition must produce the same
  // event stream).
  LayerCounts Recorded;
  std::vector<double> SetupS;
  for (unsigned I = 0; I != O.Size.SetupReps; ++I) {
    Clock::time_point T0 = Clock::now();
    LayerCounts C;
    if (!recordTrace(O, Path, C, R))
      return R;
    SetupS.push_back(secondsSince(T0));
    if (I && !std::equal(std::begin(C.Calls), std::end(C.Calls),
                         std::begin(Recorded.Calls)))
      R.problem("two recordings of the same seed differ");
    Recorded = C;
  }

  SpanBuffer Spans(O.Traced ? size_t(1) << 18 : 0);
  std::vector<Pass> Plain, Decode, Traced;
  Clock::time_point Start = Clock::now();
  while (Plain.size() < O.Size.MinUnits || secondsSince(Start) < O.Seconds) {
    Plain.push_back(ingest(Path, PassMode::Full, nullptr, R));
    if (O.Traced) {
      Decode.push_back(ingest(Path, PassMode::Decode, nullptr, R));
      Traced.push_back(ingest(Path, PassMode::Traced, &Spans, R));
    }
  }
  std::remove(Path.c_str());
  for (const std::vector<Pass> *Passes : {&Plain, &Traced}) {
    R.Attempted += Passes->size();
    R.Failed += std::count_if(Passes->begin(), Passes->end(),
                              [](const Pass &P) { return !P.Ok; });
  }
  if (!R.Problems.empty())
    return R;

  const double Requests = static_cast<double>(O.Size.ReplayRequests);
  const double Records = static_cast<double>(Plain[0].Stats.Records);
  if (!O.Traced) {
    auto PerSecond = [&](double PerPass) {
      return medianOf(Plain,
                      [PerPass](const Pass &P) { return PerPass / P.WallS; });
    };
    LatencyHistogram Lat;
    for (const Pass &P : Plain)
      Lat.add(P.WallS * 1e6);
    R.metric("req_per_s", PerSecond(Requests), "req/s");
    R.metric("promises_per_s",
             PerSecond(static_cast<double>(Recorded.Promises)), "promises/s");
    R.metric("records_per_s", PerSecond(Records), "records/s");
    R.metric("latency_p50_us", Lat.percentile(0.50), "us");
    R.metric("latency_p99_us", Lat.percentile(0.99), "us");
    R.metric("peak_rss_mib", peakRssMib(), "MiB");
    R.metric("setup_s", median(SetupS), "s");
    return R;
  }

  // Per-layer: the full ingest splits into decode (measured alone at
  // BuildGraph=false), detectors (sampled by the shims) and the builder's
  // graph work (the rest).
  auto Med = [&](auto &&Get) { return medianOf(Traced, Get); };
  const double DecodeS = medianOf(Decode, [](const Pass &P) { return P.RunS; });
  auto DetectS = [](const Pass &P) { return P.Counts.detectorsNs() / 1e9; };
  auto BuilderS = [&](const Pass &P) { return P.RunS - DecodeS - DetectS(P); };
  for (unsigned K = 0; K != HkLoopEnd; ++K)
    R.metric(std::string("instr.events.") + HookNames[K],
             static_cast<double>(Recorded.Calls[K]), "count");
  R.metric("instr.events_per_op",
           static_cast<double>(Recorded.events()) / Requests, "count");
  R.metric("ag.builder.self_s", Med(BuilderS), "s");
  graphMetrics(R, Traced);
  detectorMetrics(R, Traced);
  R.metric("ag.ingest.decode_s", DecodeS, "s");
  R.metric("ag.ingest.builder_self_s", Med(BuilderS), "s");
  R.metric("ag.ingest.frames", static_cast<double>(Plain[0].Stats.Frames),
           "count");
  R.metric("ag.ingest.records", Records, "count");
  R.metric("support.trace_bytes_per_record",
           static_cast<double>(Plain[0].RecordBytes) / Records, "bytes");
  R.metric("viz.warnings_report_ms",
           Med([](const Pass &P) { return P.ReportS * 1e3; }), "ms");

  double TracedWall = Med([](const Pass &P) { return P.WallS; });
  double PlainWall = medianOf(Plain, [](const Pass &P) { return P.WallS; });
  R.metric("trace.overhead_pct", (TracedWall / PlainWall - 1) * 100, "%");

  double Sum = DecodeS + Med(BuilderS) + Med(DetectS);
  double Off = std::abs(Sum - TracedWall) / TracedWall;
  if (O.Reconcile && (Off > 0.10 || Med(BuilderS) <= 0))
    R.problem("reconciliation: decode " + std::to_string(DecodeS) +
              " s + builder " + std::to_string(Med(BuilderS)) +
              " s + detect " + std::to_string(Med(DetectS)) + " s = " +
              std::to_string(Sum) + " s against a traced wall of " +
              std::to_string(TracedWall) + " s");
  if (!O.OutDir.empty() &&
      !Spans.writeTsv(O.OutDir + "/" + O.Workload + ".spans.tsv"))
    R.problem("cannot write the spans file under " + O.OutDir);
  return R;
}

} // namespace agbench

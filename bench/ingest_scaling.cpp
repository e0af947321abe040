//===- ingest_scaling.cpp - parallel trace ingestion benchmark -----------------===//
//
// Part of AsyncG-C++. MIT License.
//
//===----------------------------------------------------------------------===//
//
// Measures the parallel ingest hub (ag/IngestHub.h), the one path from a
// recording to a graph, on the Fig. 6(a) AcmeAir workload across decode
// job counts:
//
//   decode stage — the gated contest, following micro_codec's precedent:
//                the builder runs at BuildGraph=false (the repo's
//                documented ablation baseline: shadow stack + tick
//                accounting, no graph materialization), so the numbers
//                isolate the stage the decode pool parallelizes — frame
//                decode and event dispatch. jobs=4 against jobs=1 gates
//                >= 2x only on hosts with >= 4 hardware threads.
//   full build — jobs 1, 2 and 4 with the graph on. Reported for the
//                record: ~80% of a full build is addNode/intern/edge work
//                that the ordered commit keeps on one thread, so extra
//                decode threads cannot move it much, and on single-core
//                hosts thread handoff makes them *slower* — which is why
//                Jobs defaults to 1.
//   detect     — jobs=1 with the detector suite attached (live observers
//                ride the same ordered commit). Reported, not gated.
//   merge      — two cluster shard streams through the hub's streaming
//                merge. Reported; gated on parity only.
//
// Every leg checks byte-identical output against the live in-process
// build of the recorded run, not against another decoder: the
// single-stream legs against builders attached to the recording runtime
// (one bare, one with detectors), the merge leg against the cluster
// harness's own merged graph. The bench fails hard on any divergence at
// any job count.
//
// With --parity-only (the bench_smoke.sh sanitizer leg) the workload
// shrinks and the exit code gates on parity alone: timing under
// sanitizers is meaningless, but every decode pool/commit/merge path
// still runs race-checked.
//
//===----------------------------------------------------------------------===//

#include "BenchReport.h"

#include "ag/Builder.h"
#include "ag/IngestHub.h"
#include "apps/acmeair/App.h"
#include "apps/acmeair/Workload.h"
#include "apps/cluster/Harness.h"
#include "detect/Detectors.h"
#include "instr/TraceCodec.h"
#include "jsrt/Runtime.h"
#include "viz/Dot.h"
#include "viz/TextReport.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace asyncg;
using namespace asyncg::jsrt;
using namespace asyncg::acmeair;

namespace {

double secondsSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
      .count();
}

/// One hub pass over \p Paths at \p Jobs decode threads.
double hubOnce(const std::vector<std::string> &Paths, unsigned Jobs,
               bool Detect, bool BuildGraph, std::string *Dot,
               std::string *Warnings) {
  ag::IngestOptions Opts;
  Opts.Jobs = Jobs;
  Opts.Builder.BuildGraph = BuildGraph;
  ag::IngestHub Hub(Opts);
  std::vector<std::unique_ptr<detect::DetectorSuite>> Suites;
  for (const std::string &P : Paths) {
    size_t S = Hub.addFile(P);
    if (Detect) {
      Suites.emplace_back(new detect::DetectorSuite());
      Suites.back()->attachTo(Hub.builder(S));
    }
  }
  std::string Err;
  auto T0 = std::chrono::steady_clock::now();
  if (!Hub.run(&Err)) {
    std::fprintf(stderr, "hub ingest failed (jobs=%u): %s\n", Jobs,
                 Err.c_str());
    std::exit(1);
  }
  double Secs = secondsSince(T0);
  if (Dot)
    *Dot = viz::toDot(Hub.graph());
  if (Warnings)
    *Warnings = viz::warningsReport(Hub.graph());
  return Secs;
}

template <typename Fn> double bestOf(int Reps, Fn &&F) {
  double Best = 1e30;
  for (int I = 0; I < Reps; ++I) {
    double S = F(I);
    if (S < Best)
      Best = S;
  }
  return Best;
}

} // namespace

int main(int argc, char **argv) {
  std::string JsonPath = benchjson::extractJsonPath(argc, argv);
  bool ParityOnly = false;
  for (int I = 1; I < argc; ++I)
    if (std::string(argv[I]) == "--parity-only")
      ParityOnly = true;
  const uint64_t Requests = ParityOnly ? 800 : 3000;
  const int Reps = ParityOnly ? 2 : 5;
  const unsigned HwThreads = std::thread::hardware_concurrency();

  std::printf("==========================================================="
              "=====================\n");
  std::printf("INGEST: work-stealing frame-decode pipeline across job "
              "counts\n");
  std::printf("==========================================================="
              "=====================\n");
  std::printf("workload: AcmeAir, %llu requests, 8 closed-loop clients; "
              "%u hardware thread(s)\n\n",
              static_cast<unsigned long long>(Requests), HwThreads);

  std::string TmpDir = "/tmp";
  if (const char *T = std::getenv("TMPDIR"); T && *T)
    TmpDir = T;
  std::string TracePath = TmpDir + "/ingest_scaling.agtrace";
  std::string ShardDir = TmpDir + "/ingest_scaling_shards";

  // Record the single-stream workload trace, with the live references
  // built from the same run: a bare builder for the full-build legs and
  // one with detectors for the detect leg.
  instr::TraceRecorder Rec;
  if (!Rec.open(TracePath)) {
    std::fprintf(stderr, "cannot open %s\n", TracePath.c_str());
    return 1;
  }
  std::string DotLive, DotLiveDetect, WarnLive;
  {
    ag::AsyncGBuilder Live, LiveDetect;
    detect::DetectorSuite Suite;
    Suite.attachTo(LiveDetect);
    {
      Runtime RT;
      AppConfig ACfg;
      AcmeAirApp App(RT, ACfg);
      WorkloadConfig WCfg;
      WCfg.TotalRequests = Requests;
      WCfg.Clients = 8;
      WorkloadDriver Driver(RT, ACfg.Port, WCfg);
      RT.hooks().attach(&Rec);
      RT.hooks().attach(&Live);
      RT.hooks().attach(&LiveDetect);
      Function Main =
          RT.makeBuiltin("main", [&](Runtime &, const CallArgs &) {
            App.start(JSLOC);
            Driver.start();
            return Completion::normal();
          });
      RT.main(Main);
      if (!Rec.finalize()) {
        std::fprintf(stderr, "trace finalize failed\n");
        return 1;
      }
      if (Driver.completed() != Requests || Driver.errors() != 0) {
        std::fprintf(stderr, "RUN FAILED: completed=%llu errors=%llu\n",
                     static_cast<unsigned long long>(Driver.completed()),
                     static_cast<unsigned long long>(Driver.errors()));
        return 1;
      }
    }
    DotLive = viz::toDot(Live.graph());
    DotLiveDetect = viz::toDot(LiveDetect.graph());
    WarnLive = viz::warningsReport(LiveDetect.graph());
  }
  uint64_t Records = Rec.recordCount();

  // Record the two-shard cluster trace for the merge leg; the harness's
  // own merged graph is its reference.
  if (::system(("mkdir -p " + ShardDir).c_str()) != 0) {
    std::fprintf(stderr, "cannot create %s\n", ShardDir.c_str());
    return 1;
  }
  std::string DotMergeLive, WarnMergeLive;
  {
    cluster::ClusterConfig CCfg;
    CCfg.Loops = 2;
    CCfg.TotalRequests = ParityOnly ? 200 : 1000;
    CCfg.TotalClients = 4;
    CCfg.RecordDir = ShardDir;
    cluster::ClusterHarness Harness(CCfg);
    Harness.run();
    DotMergeLive = viz::toDot(Harness.merged());
    WarnMergeLive = viz::warningsReport(Harness.merged());
  }
  std::vector<std::string> ShardPaths = {ShardDir + "/shard0.agtrace",
                                         ShardDir + "/shard1.agtrace"};

  // --- Decode-stage legs: the gated contest (BuildGraph off, so only the
  // stage the decode pool changes is on the clock). Parity is proven by
  // the full-build legs below — there is no graph to diff here. The
  // contestants alternate within each rep so slow drift (page cache,
  // frequency scaling) hits both sides equally instead of biasing the
  // ratio.
  double DecodeJobs1 = 1e30, DecodeJobs4 = 1e30;
  for (int I = 0; I < Reps + 2; ++I) {
    DecodeJobs1 = std::min(
        DecodeJobs1, hubOnce({TracePath}, 1, false, false, nullptr, nullptr));
    DecodeJobs4 = std::min(
        DecodeJobs4, hubOnce({TracePath}, 4, false, false, nullptr, nullptr));
  }
  double SpeedupJobs4 = DecodeJobs4 > 0 ? DecodeJobs1 / DecodeJobs4 : 0;

  // --- Full-build legs: reported, parity-checked against the live build
  std::string DotJ1, DotJ2, DotJ4;
  double Jobs1 = bestOf(Reps, [&](int I) {
    return hubOnce({TracePath}, 1, false, true, I == 0 ? &DotJ1 : nullptr,
                   nullptr);
  });
  double Jobs2 = bestOf(Reps, [&](int I) {
    return hubOnce({TracePath}, 2, false, true, I == 0 ? &DotJ2 : nullptr,
                   nullptr);
  });
  double Jobs4 = bestOf(Reps, [&](int I) {
    return hubOnce({TracePath}, 4, false, true, I == 0 ? &DotJ4 : nullptr,
                   nullptr);
  });
  bool ParitySingle = DotJ1 == DotLive && DotJ2 == DotLive && DotJ4 == DotLive;

  // --- Detect leg: full pipeline with live observers --------------------
  std::string DotDetect, WarnDetect;
  double Detect = bestOf(Reps, [&](int I) {
    return hubOnce({TracePath}, 1, true, true, I == 0 ? &DotDetect : nullptr,
                   I == 0 ? &WarnDetect : nullptr);
  });
  bool ParityWarnings = DotDetect == DotLiveDetect && WarnDetect == WarnLive;

  // --- Merge leg: two shard streams --------------------------------------
  std::string DotMerge, WarnMerge;
  double Merge = bestOf(Reps, [&](int I) {
    return hubOnce(ShardPaths, 1, true, true, I == 0 ? &DotMerge : nullptr,
                   I == 0 ? &WarnMerge : nullptr);
  });
  bool ParityMerge = DotMerge == DotMergeLive && WarnMerge == WarnMergeLive;

  bool Parity = ParitySingle && ParityWarnings && ParityMerge;
  bool Jobs4GateArmed = HwThreads >= 4;

  std::printf("%-30s %14llu records\n", "event stream",
              static_cast<unsigned long long>(Records));
  std::printf("-- decode stage (BuildGraph off; the gated contest) --\n");
  std::printf("%-30s %11.2f ms  (best of %d)\n", "decode jobs=1",
              DecodeJobs1 * 1e3, Reps + 2);
  std::printf("%-30s %11.2f ms  (%.2fx; gate %s: %u hw thread(s))\n",
              "decode jobs=4", DecodeJobs4 * 1e3, SpeedupJobs4,
              Jobs4GateArmed ? "armed >= 2x" : "not armed", HwThreads);
  std::printf("-- full build (reported, not gated; shared graph work "
              "dominates) --\n");
  std::printf("%-30s %11.2f ms  (best of %d)\n", "ingest jobs=1",
              Jobs1 * 1e3, Reps);
  std::printf("%-30s %11.2f ms  (%.2fx)\n", "ingest jobs=2", Jobs2 * 1e3,
              Jobs2 > 0 ? Jobs1 / Jobs2 : 0);
  std::printf("%-30s %11.2f ms  (%.2fx)\n", "ingest jobs=4", Jobs4 * 1e3,
              Jobs4 > 0 ? Jobs1 / Jobs4 : 0);
  std::printf("%-30s %11.2f ms  (reported, not gated)\n",
              "ingest jobs=1 + detectors", Detect * 1e3);
  std::printf("%-30s %11.2f ms  (2 shards, streaming merge)\n", "merge",
              Merge * 1e3);
  std::printf("%-30s %14s\n", "DOT parity vs live build",
              ParitySingle ? "identical" : "DIVERGED");
  std::printf("%-30s %14s\n", "warnings parity vs live build",
              ParityWarnings ? "identical" : "DIVERGED");
  std::printf("%-30s %14s\n\n", "merge parity vs harness",
              ParityMerge ? "identical" : "DIVERGED");

  std::remove(TracePath.c_str());
  for (const std::string &P : ShardPaths)
    std::remove(P.c_str());

  if (!JsonPath.empty()) {
    benchjson::BenchReport Report("ingest_scaling");
    // Real elapsed time on whatever host runs the bench; judged against
    // the looser wall-clock tolerance in bench_compare.py, like
    // wire_throughput. The hard jobs=4 gate lives in this bench's own exit
    // code, not in the cross-run diff.
    Report.config("timing", "wall-clock");
    Report.config("requests", static_cast<double>(Requests));
    Report.config("clients", 8.0);
    Report.config("reps", static_cast<double>(Reps));
    Report.config("hw_threads", static_cast<double>(HwThreads));
    Report.metric("trace_records", static_cast<double>(Records), "records");
    Report.metric("ingest_decode_pipelined_ms", DecodeJobs1 * 1e3, "ms");
    Report.metric("ingest_decode_jobs4_ms", DecodeJobs4 * 1e3, "ms");
    Report.metric("ingest_pipelined_ms", Jobs1 * 1e3, "ms");
    Report.metric("ingest_jobs2_ms", Jobs2 * 1e3, "ms");
    Report.metric("ingest_jobs4_ms", Jobs4 * 1e3, "ms");
    Report.metric("ingest_speedup_jobs4", SpeedupJobs4, "ratio");
    Report.metric("ingest_detect_pipelined_ms", Detect * 1e3, "ms");
    Report.metric("ingest_merge_hub_ms", Merge * 1e3, "ms");
    Report.metric("ingest_parity", Parity ? 1 : 0, "bool");
    // Armed only with real parallel hardware; reported as pass otherwise
    // so single-core CI doesn't gate on thread handoff overhead.
    Report.metric("jobs4_gate_2x",
                  !Jobs4GateArmed || SpeedupJobs4 >= 2.0 ? 1 : 0, "bool");
    if (!Report.write(JsonPath))
      return 1;
  }
  if (ParityOnly)
    return Parity ? 0 : 1;
  return Parity && (!Jobs4GateArmed || SpeedupJobs4 >= 2.0) ? 0 : 1;
}

//===- cluster_scaling.cpp - cores vs throughput for cluster mode --------------===//
//
// Part of AsyncG-C++. MIT License.
//
//===----------------------------------------------------------------------===//
//
// Cluster-mode scaling curve: AcmeAir aggregate throughput at 1, 2, and 4
// event loops, fully instrumented (per-shard AsyncGBuilder + DetectorSuite
// behind the per-shard SPSC ring pipeline), with a fixed total client pool
// large enough that the single loop is dispatch-saturated. That is the
// regime cluster mode exists for: one loop is the bottleneck, and sharding
// the accept stream across N loops should recover close to N-fold
// aggregate throughput.
//
// Throughput is measured in *virtual* time: each shard has its own virtual
// clock (the wall clock of its core, were each loop pinned to one), and
// the aggregate rate is TotalRequests / max-over-shards(virtual time) —
// "wall time until the last core finishes". On a container with fewer
// cores than loops the wall numbers time-slice and cannot exhibit the
// scaling; both are reported, the virtual one is gated. Throughput runs
// disable gossip so the serving window ends with the last response (gossip
// would add up to one timer interval of idle virtual tail).
//
// A second pair of runs (gossip on) checks merge semantics: the 4-loop
// merged graph must carry cross-loop edges for the worker-to-worker
// messages, and its warning set must be identical to the single-loop
// run's — loop-local bugs don't move or duplicate when the app is
// sharded.
//
// Exit code gates (all must hold):
//   - every run completes all requests with zero errors
//   - 4-loop aggregate virtual throughput >= 3x the 1-loop run
//   - 4-loop merged warning set == single-loop warning set
//   - 4-loop merged graph has cross-loop edges and zero unresolved handoffs
//
//===----------------------------------------------------------------------===//

#include "BenchReport.h"

#include "apps/cluster/Harness.h"

#include <cstdio>
#include <string>
#include <thread>

using namespace asyncg;

namespace {

constexpr uint64_t Requests = 4000;
constexpr int Clients = 128; // saturates a single loop (~64+ in this sim)
constexpr int Reps = 2;

cluster::ClusterConfig configFor(uint32_t Loops, bool Gossip) {
  cluster::ClusterConfig Cfg;
  Cfg.Loops = Loops;
  Cfg.TotalRequests = Requests;
  Cfg.TotalClients = Clients;
  Cfg.Mode = ag::PipelineMode::Async;
  Cfg.Gossip = Gossip;
  return Cfg;
}

bool runOk(const cluster::ClusterResult &R) {
  return R.TotalCompleted == Requests && R.TotalErrors == 0;
}

} // namespace

int main(int argc, char **argv) {
  std::string JsonPath = benchjson::extractJsonPath(argc, argv);

  std::printf("==========================================================="
              "=====================\n");
  std::printf("CLUSTER SCALING: AcmeAir aggregate throughput vs number of "
              "event loops\n");
  std::printf("==========================================================="
              "=====================\n");
  std::printf("workload: %llu requests, %d closed-loop clients total, full "
              "instrumentation\n"
              "          (per-shard builder + detectors behind the SPSC "
              "ring), best of %d\n\n",
              static_cast<unsigned long long>(Requests), Clients, Reps);

  const uint32_t LoopCounts[] = {1, 2, 4};
  constexpr int NumPoints = 3;
  cluster::ClusterResult Best[NumPoints];
  bool AllOk = true;

  for (int I = 0; I != NumPoints; ++I) {
    for (int Rep = 0; Rep != Reps; ++Rep) {
      cluster::ClusterHarness H(configFor(LoopCounts[I], /*Gossip=*/false));
      cluster::ClusterResult R = H.run();
      if (!runOk(R)) {
        std::printf("  [loops=%u] RUN FAILED: completed=%llu errors=%llu\n",
                    LoopCounts[I],
                    static_cast<unsigned long long>(R.TotalCompleted),
                    static_cast<unsigned long long>(R.TotalErrors));
        AllOk = false;
        break;
      }
      if (R.VirtualThroughput > Best[I].VirtualThroughput)
        Best[I] = R;
    }
  }

  double Base = Best[0].VirtualThroughput;
  std::printf("%-6s %14s %8s %12s %10s %12s %10s\n", "loops", "virt req/s",
              "scale", "slowest(ms)", "wall(s)", "ring depth", "blocked");
  for (int I = 0; I != NumPoints; ++I) {
    uint64_t MaxDepth = 0, Blocked = 0;
    for (const cluster::ShardResult &S : Best[I].Shards) {
      if (S.Backpressure.MaxQueueDepth > MaxDepth)
        MaxDepth = S.Backpressure.MaxQueueDepth;
      Blocked += S.Backpressure.BlockedPushes;
    }
    std::printf("%-6u %14.0f %7.2fx %12.2f %10.3f %12llu %10llu\n",
                LoopCounts[I], Best[I].VirtualThroughput,
                Base > 0 ? Best[I].VirtualThroughput / Base : 0.0,
                static_cast<double>(Best[I].MaxVirtualTimeUs) / 1000.0,
                Best[I].WallSeconds,
                static_cast<unsigned long long>(MaxDepth),
                static_cast<unsigned long long>(Blocked));
  }

  double Scale4 = Base > 0 ? Best[2].VirtualThroughput / Base : 0.0;
  bool ScaleOk = Scale4 >= 3.0;
  std::printf("\n4-loop scaling: %.2fx (gate: >= 3x) — %s\n", Scale4,
              ScaleOk ? "ok" : "FAIL");

  // Merge-semantics runs: gossip on so cross-loop edges exist at N > 1.
  cluster::ClusterHarness H1(configFor(1, /*Gossip=*/true));
  cluster::ClusterResult R1 = H1.run();
  cluster::ClusterHarness H4(configFor(4, /*Gossip=*/true));
  cluster::ClusterResult R4 = H4.run();
  bool SemanticRunsOk = runOk(R1) && runOk(R4);

  bool WarningsEqual = R1.Warnings == R4.Warnings;
  bool XLoopOk = R4.Merge.CrossLoopEdges > 0 &&
                 R4.Merge.UnresolvedHandoffs == 0;
  std::printf("merged warnings: 1-loop=%zu 4-loop=%zu identical=%s\n",
              R1.Warnings.size(), R4.Warnings.size(),
              WarningsEqual ? "yes" : "NO");
  std::printf("4-loop cross-loop edges: %llu (unresolved handoffs: %llu) — "
              "%s\n",
              static_cast<unsigned long long>(R4.Merge.CrossLoopEdges),
              static_cast<unsigned long long>(R4.Merge.UnresolvedHandoffs),
              XLoopOk ? "ok" : "FAIL");
  for (const std::string &W : R4.Warnings)
    std::printf("  warning: %s\n", W.c_str());

  bool Ok = AllOk && ScaleOk && SemanticRunsOk && WarningsEqual && XLoopOk;

  if (!JsonPath.empty()) {
    benchjson::BenchReport Report("cluster_scaling");
    Report.config("requests", static_cast<double>(Requests));
    Report.config("clients", static_cast<double>(Clients));
    Report.config("reps", static_cast<double>(Reps));
    Report.config("mode", "async");
    Report.config("hardware_threads",
                  static_cast<double>(std::thread::hardware_concurrency()));
    for (int I = 0; I != NumPoints; ++I) {
      std::string P = "loops" + std::to_string(LoopCounts[I]);
      Report.metric(P + "/virtual_throughput", Best[I].VirtualThroughput,
                    "req/s");
      Report.metric(P + "/scale",
                    Base > 0 ? Best[I].VirtualThroughput / Base : 0.0, "x");
      Report.metric(P + "/slowest_shard_virtual_ms",
                    static_cast<double>(Best[I].MaxVirtualTimeUs) / 1000.0,
                    "ms");
      Report.metric(P + "/wall_s", Best[I].WallSeconds, "s");
      for (size_t S = 0; S != Best[I].Shards.size(); ++S) {
        const ag::BackpressureStats &BP = Best[I].Shards[S].Backpressure;
        std::string SP = P + "/shard" + std::to_string(S);
        Report.metric(SP + "/ring_max_depth",
                      static_cast<double>(BP.MaxQueueDepth), "records");
        Report.metric(SP + "/ring_blocked_pushes",
                      static_cast<double>(BP.BlockedPushes), "count");
        Report.metric(SP + "/ring_blocked_ms",
                      static_cast<double>(BP.BlockedTimeNs) / 1e6, "ms");
        Report.metric(SP + "/trace_records",
                      static_cast<double>(Best[I].Shards[S].PushedRecords),
                      "records");
      }
    }
    Report.metric("scale_at_4_loops", Scale4, "x");
    Report.metric("xloop_edges",
                  static_cast<double>(R4.Merge.CrossLoopEdges), "edges");
    Report.metric("warnings_identical", WarningsEqual ? 1 : 0, "bool");
    Report.metric("scaling_gate", Ok ? 1 : 0, "bool");
    if (!Report.write(JsonPath))
      return 1;
  }
  return Ok ? 0 : 1;
}

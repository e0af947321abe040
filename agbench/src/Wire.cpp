//===- Wire.cpp - wire_epoll ----------------------------------------------===//
//
// Part of AsyncG-C++. MIT License.
//
//===----------------------------------------------------------------------===//
//
// The only workload through real sockets: ClusterHarness on the epoll
// backend with one loop, the async pipeline (graph and detectors on the
// builder thread) and v4 recording, driven by the harness's LoadGen over 4
// keep-alive closed-loop loopback connections. Only loop-thread cost
// (encode, ring push, syscalls) reaches the latency the client sees, so a
// builder or detector gain should leave these end-to-end numbers flat.
//
// The harness builds its own builders, so the layer numbers come from the
// public ClusterResult / ShardResult structs and the merged graph.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "apps/acmeair/LoadGen.h"
#include "apps/cluster/Harness.h"
#include "sim/Kernel.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>

using namespace asyncg;

namespace agbench {
namespace {

/// A loopback TCP port the kernel reports free, or 0 when loopback
/// sockets cannot be bound at all.
int freeLoopbackPort() {
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0)
    return 0;
  sockaddr_in A{};
  A.sin_family = AF_INET;
  A.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t Len = sizeof(A);
  int Port = 0;
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&A), sizeof(A)) == 0 &&
      ::getsockname(Fd, reinterpret_cast<sockaddr *>(&A), &Len) == 0)
    Port = ntohs(A.sin_port);
  ::close(Fd);
  return Port;
}

struct Serve {
  bool Ok = false;
  cluster::ClusterResult Res;
  uint64_t PromiseNodes = 0;
  GraphStats Graph;
};

Serve serve(const Options &O, uint64_t Requests, RunResult &R) {
  Serve S;
  trimHeap();
  int Port = freeLoopbackPort();
  if (!Port) {
    R.problem("no free loopback port");
    return S;
  }
  cluster::ClusterConfig C;
  C.Loops = 1;
  C.Backend = sim::KernelBackend::Epoll;
  C.Port = Port;
  C.TotalRequests = Requests;
  C.TotalClients = 4;
  C.Seed = O.Seed;
  C.Mode = ag::PipelineMode::Async;
  C.RecordDir = O.WorkDir;
  cluster::ClusterHarness H(C);
  S.Res = H.run();
  std::remove((O.WorkDir + "/shard0.agtrace").c_str());

  const acmeair::LoadStats &W = S.Res.Wire;
  S.Ok = W.Issued == Requests && W.Completed == Requests && W.Errors == 0 &&
         W.DroppedConns == 0 && W.Abandoned == 0;
  if (!S.Ok) {
    R.problem("wire load: issued " + std::to_string(W.Issued) +
              ", completed " + std::to_string(W.Completed) + ", errors " +
              std::to_string(W.Errors) + ", dropped connections " +
              std::to_string(W.DroppedConns) + ", abandoned " +
              std::to_string(W.Abandoned) + " of " +
              std::to_string(Requests));
    return S;
  }
  const ag::AsyncGraph &G = H.merged();
  for (ag::NodeId N = 0; N != G.nodes().size(); ++N)
    if (!G.deadNode(N) && G.node(N).Kind == ag::NodeKind::OB &&
        G.node(N).IsPromise)
      ++S.PromiseNodes;
  S.Graph = graphStats(G);
  R.unitWarnings(siteKeys(G), "a wire run");
  return S;
}

} // namespace

RunResult runWireEpoll(const Options &O) {
  RunResult R;
  std::string Why;
  if (!sim::kernelBackendAvailable(sim::KernelBackend::Epoll, &Why) ||
      !acmeair::wireLoadSupported()) {
    R.Skipped = "epoll backend unavailable" + (Why.empty() ? "" : ": " + Why);
    return R;
  }
  if (!freeLoopbackPort()) {
    R.Skipped = "cannot bind a loopback TCP socket";
    return R;
  }

  // Set-up: short serving runs that bring up the socket path and the
  // process's allocator and check the warning set.
  std::vector<double> SetupS;
  for (unsigned I = 0; I != O.Size.SetupReps; ++I) {
    Clock::time_point T0 = Clock::now();
    serve(O, O.Size.WireSetupRequests, R);
    SetupS.push_back(secondsSince(T0));
  }

  std::vector<Serve> Runs;
  Clock::time_point Start = Clock::now();
  while (Runs.size() < O.Size.MinUnits || secondsSince(Start) < O.Seconds)
    Runs.push_back(serve(O, O.Size.WireRequests, R));
  const double Requests = static_cast<double>(O.Size.WireRequests);
  R.Attempted = Runs.size() * O.Size.WireRequests;
  for (const Serve &S : Runs)
    R.Failed += S.Ok ? 0 : S.Res.Wire.Abandoned + S.Res.Wire.Errors +
                               (S.Res.Wire.Issued - S.Res.Wire.Completed);
  if (!R.Problems.empty())
    return R;

  auto Shard = [](const Serve &S) -> const cluster::ShardResult & {
    return S.Res.Shards.front();
  };
  if (!O.Traced) {
    auto PerLoadSecond = [&](auto &&Count) {
      return medianOf(Runs, [&](const Serve &S) {
        return static_cast<double>(Count(S)) / S.Res.Wire.WallSeconds;
      });
    };
    R.metric("req_per_s", medianOf(Runs, [](const Serve &S) {
               return S.Res.Wire.ReqPerSec;
             }),
             "req/s");
    R.metric("promises_per_s",
             PerLoadSecond([](const Serve &S) { return S.PromiseNodes; }),
             "promises/s");
    R.metric("records_per_s", PerLoadSecond([&](const Serve &S) {
               return Shard(S).PushedRecords;
             }),
             "records/s");
    // LoadGen reports each run's percentiles in whole microseconds, which
    // a median would repeat exactly; their mean keeps the run-to-run
    // movement.
    double P50 = 0, P99 = 0;
    for (const Serve &S : Runs) {
      P50 += static_cast<double>(S.Res.Wire.P50Us) / Runs.size();
      P99 += static_cast<double>(S.Res.Wire.P99Us) / Runs.size();
    }
    R.metric("latency_p50_us", P50, "us");
    R.metric("latency_p99_us", P99, "us");
    R.metric("peak_rss_mib", peakRssMib(), "MiB");
    R.metric("setup_s", median(SetupS), "s");
    return R;
  }

  auto PerReq = [&](auto &&Count) {
    return medianOf(Runs, [&](const Serve &S) {
      return static_cast<double>(Count(S)) / Requests;
    });
  };
  R.metric("ag.pipeline.records_per_req",
           PerReq([&](const Serve &S) { return Shard(S).PushedRecords; }),
           "count");
  R.metric("ag.pipeline.ring_max_depth", medianOf(Runs, [&](const Serve &S) {
             return Shard(S).Backpressure.MaxQueueDepth;
           }),
           "count");
  R.metric("ag.pipeline.blocked_pushes", medianOf(Runs, [&](const Serve &S) {
             return Shard(S).Backpressure.BlockedPushes;
           }),
           "count");
  R.metric("ag.pipeline.blocked_ms", medianOf(Runs, [&](const Serve &S) {
             return Shard(S).Backpressure.BlockedTimeNs / 1e6;
           }),
           "ms");
  R.metric("ag.pipeline.bytes_per_record", medianOf(Runs, [&](const Serve &S) {
             return static_cast<double>(Shard(S).RecordedBytes) /
                    static_cast<double>(Shard(S).PushedRecords);
           }),
           "bytes");
  R.metric("sim.syscalls_per_req",
           PerReq([](const Serve &S) { return S.Res.Sys.Syscalls; }), "count");
  R.metric("sim.net_recoveries", medianOf(Runs, [](const Serve &S) {
             const sim::NetRecoveryStats &N = S.Res.Net;
             return N.EintrRetries + N.AcceptPauses + N.EnobufsRetries +
                    N.ShortWrites + N.ResetsInjected + N.DrainedConns;
           }),
           "count");
  R.metric("apps.cluster.post_serve_s", medianOf(Runs, [](const Serve &S) {
             return S.Res.WallSeconds - S.Res.Wire.WallSeconds;
           }),
           "s");
  graphMetrics(R, Runs);
  return R;
}

} // namespace agbench

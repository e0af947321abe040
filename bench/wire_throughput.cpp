//===- wire_throughput.cpp - wall-clock AcmeAir over the real backends ---------===//
//
// Part of AsyncG-C++. MIT License.
//
//===----------------------------------------------------------------------===//
//
// The wall-clock companion to fig6a_throughput: AcmeAir served over real
// loopback TCP by the epoll kernel backend, driven by the wire load
// generator, under two instrumentation settings
//
//   off      — no analysis attached (the serving floor)
//   record   — full AsyncG behind the off-thread pipeline, plus a v4
//              columnar trace artifact per loop (always-on production cost)
//
// each at 1 loop and at 4 SO_REUSEPORT-balanced loops. Every cell reports
// the median of --reps runs (wall-clock numbers jitter; medians gate) and
// its kernel-syscall cost model (syscalls/request).
//
// Gates (exit status):
//   - every run completes all requests with zero errors and zero dropped
//     connections;
//   - record stays within 1.3x of off (single-loop medians);
//   - 4-loop off reaches >= 2x 1-loop off — asserted only when the machine
//     has >= 4 hardware threads. On fewer cores the loops time-slice one
//     core and the scaling is physically impossible; the report then
//     carries the honest non-gating numbers and says so.
//
// Unlike the virtual-time benches these numbers depend on the host: CPU,
// kernel version, and whatever else the machine is running. Treat them as
// a trend line, not a constant.
//
//===----------------------------------------------------------------------===//

#include "BenchReport.h"

#include "apps/cluster/Harness.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#ifdef __linux__
#include <sys/stat.h>
#endif

using namespace asyncg;

namespace {

struct Cell {
  const char *Name;
  bool Instrument;
  uint32_t Loops;
};

struct CellResult {
  acmeair::LoadStats Wire;
  uint64_t Records = 0;
  uint64_t RecordedBytes = 0;
  sim::KernelStats Sys;
  bool Ok = false;

  double syscallsPerReq() const {
    return Wire.Completed
               ? static_cast<double>(Sys.Syscalls) /
                     static_cast<double>(Wire.Completed)
               : 0;
  }
};

CellResult runCell(const Cell &C, uint64_t Requests, int Port,
                   const std::string &RecordDir) {
  cluster::ClusterConfig Cfg;
  Cfg.Backend = sim::KernelBackend::Epoll;
  Cfg.Loops = C.Loops;
  Cfg.Port = Port;
  Cfg.TotalRequests = Requests;
  Cfg.TotalClients = 8;
  Cfg.Instrument = C.Instrument;
  Cfg.Mode =
      C.Instrument ? ag::PipelineMode::Async : ag::PipelineMode::Synchronous;
  if (C.Instrument)
    Cfg.RecordDir = RecordDir;

  cluster::ClusterHarness H(Cfg);
  cluster::ClusterResult R = H.run();

  CellResult Out;
  Out.Wire = R.Wire;
  Out.Sys = R.Sys;
  for (const cluster::ShardResult &S : R.Shards) {
    Out.Records += S.PushedRecords;
    Out.RecordedBytes += S.RecordedBytes;
  }
  Out.Ok = R.Wire.Completed == Requests && R.Wire.Errors == 0 &&
           R.Wire.DroppedConns == 0;
  return Out;
}

/// Median-by-throughput of \p Reps runs (each on its own port so a
/// lingering TIME_WAIT from the previous run cannot interfere).
CellResult median(const Cell &C, uint64_t Requests, int BasePort, int Reps,
                  const std::string &RecordDir) {
  std::vector<CellResult> Rs;
  for (int I = 0; I < Reps; ++I) {
    CellResult R = runCell(C, Requests, BasePort + I, RecordDir);
    if (!R.Ok) {
      std::printf("  [%s] RUN FAILED: completed=%llu errors=%llu "
                  "dropped=%llu\n",
                  C.Name, static_cast<unsigned long long>(R.Wire.Completed),
                  static_cast<unsigned long long>(R.Wire.Errors),
                  static_cast<unsigned long long>(R.Wire.DroppedConns));
      return R;
    }
    Rs.push_back(R);
  }
  std::sort(Rs.begin(), Rs.end(),
            [](const CellResult &A, const CellResult &B) {
              return A.Wire.ReqPerSec < B.Wire.ReqPerSec;
            });
  return Rs[Rs.size() / 2];
}

} // namespace

int main(int argc, char **argv) {
  std::string JsonPath = benchjson::extractJsonPath(argc, argv);
  uint64_t Requests = 4000;
  int Reps = 3;
  for (int I = 1; I < argc; ++I) {
    if (!std::strcmp(argv[I], "--requests") && I + 1 < argc)
      Requests = static_cast<uint64_t>(std::atoll(argv[++I]));
    else if (!std::strcmp(argv[I], "--reps") && I + 1 < argc)
      Reps = std::atoi(argv[++I]);
    else {
      std::fprintf(stderr,
                   "usage: %s [--requests N] [--reps N] [--json FILE]\n",
                   argv[0]);
      return 2;
    }
  }

  benchjson::BenchReport Report("wire_throughput");
  std::string Unavailable;
  if (!sim::kernelBackendAvailable(sim::KernelBackend::Epoll, &Unavailable)) {
    std::printf("wire_throughput: SKIPPED — the epoll kernel backend is not "
                "available here (%s); no wall-clock numbers\n",
                Unavailable.c_str());
    Report.config("skipped", Unavailable);
    if (!JsonPath.empty())
      Report.write(JsonPath);
    return 0;
  }

  const unsigned Cores = std::thread::hardware_concurrency();
  std::string RecordDir = "/tmp/asyncg_wire_throughput";
#ifdef __linux__
  ::mkdir(RecordDir.c_str(), 0755);
#endif

  std::printf("==========================================================="
              "=====================\n");
  std::printf("WIRE THROUGHPUT: AcmeAir over loopback TCP, epoll kernel "
              "backend (wall clock)\n");
  std::printf("==========================================================="
              "=====================\n");
  std::printf("workload: %llu requests, 8 keep-alive connections, median "
              "of %d runs, %u hardware thread(s)\n\n",
              static_cast<unsigned long long>(Requests), Reps, Cores);

  const Cell Cells[] = {
      {"off-1loop", false, 1},
      {"record-1loop", true, 1},
      {"off-4loop", false, 4},
      {"record-4loop", true, 4},
  };
  constexpr int NumCells = sizeof(Cells) / sizeof(Cells[0]);

  CellResult Results[NumCells];
  bool AllOk = true;
  int Port = 9520;
  for (int I = 0; I < NumCells; ++I) {
    Results[I] = median(Cells[I], Requests, Port, Reps, RecordDir);
    Port += Reps;
    AllOk = AllOk && Results[I].Ok;
  }

  std::printf("%-15s %10s %9s %9s %9s %11s %9s\n", "setting", "req/s",
              "p50us", "p99us", "slowdown", "rec-bytes", "sys/req");
  double Off1 = Results[0].Wire.ReqPerSec;
  for (int I = 0; I < NumCells; ++I) {
    double Base = Cells[I].Loops == 1 ? Off1 : Results[2].Wire.ReqPerSec;
    std::printf("%-15s %10.0f %9llu %9llu %8.2fx %11llu %9.2f\n",
                Cells[I].Name, Results[I].Wire.ReqPerSec,
                static_cast<unsigned long long>(Results[I].Wire.P50Us),
                static_cast<unsigned long long>(Results[I].Wire.P99Us),
                Base > 0 ? Base / Results[I].Wire.ReqPerSec : 0,
                static_cast<unsigned long long>(Results[I].RecordedBytes),
                Results[I].syscallsPerReq());
    Report.metric(std::string(Cells[I].Name) + "_reqps",
                  Results[I].Wire.ReqPerSec, "req/s");
    Report.metric(std::string(Cells[I].Name) + "_p50",
                  static_cast<double>(Results[I].Wire.P50Us), "us");
    Report.metric(std::string(Cells[I].Name) + "_p99",
                  static_cast<double>(Results[I].Wire.P99Us), "us");
  }

  double RecordSlowdown =
      Results[1].Wire.ReqPerSec > 0 ? Off1 / Results[1].Wire.ReqPerSec : 999;
  double Scaling =
      Off1 > 0 ? Results[2].Wire.ReqPerSec / Off1 : 0;
  Report.config("requests", static_cast<double>(Requests));
  Report.config("reps", static_cast<double>(Reps));
  Report.config("hardware_threads", static_cast<double>(Cores));
  Report.config("kernel_backend", "epoll");
  // Marks every metric here as wall-clock for bench_compare's looser
  // jitter tolerance class (medians already absorb the worst of it).
  Report.config("timing", "wall-clock");
  Report.metric("record_slowdown", RecordSlowdown, "x");
  // "speedup"/ratio so the compare tool treats higher as better.
  Report.metric("reuseport_speedup_1to4", Scaling, "ratio");
  Report.metric("epoll_syscalls_per_req", Results[0].syscallsPerReq(), "n");

  bool Pass = AllOk;
  std::printf("\nrecord slowdown (1 loop): %.2fx %s (gate: <= 1.3x)\n",
              RecordSlowdown, RecordSlowdown <= 1.3 ? "PASS" : "FAIL");
  if (RecordSlowdown > 1.3)
    Pass = false;

  std::printf("SO_REUSEPORT scaling 1->4 loops: %.2fx", Scaling);
  if (Cores >= 4) {
    std::printf(" %s (gate: >= 2x)\n", Scaling >= 2.0 ? "PASS" : "FAIL");
    if (Scaling < 2.0)
      Pass = false;
  } else {
    std::printf(" NOT GATED: only %u hardware thread(s) — %u loops "
                "time-slice the same core(s), so parallel speedup is "
                "physically impossible here; the number is reported for "
                "honesty, not asserted\n",
                Cores, 4u);
  }

  if (!JsonPath.empty() && Report.write(JsonPath))
    std::printf("wrote %s\n", JsonPath.c_str());
  std::printf("%s\n", Pass ? "ALL GATES PASS" : "GATE FAILURE");
  return Pass ? 0 : 1;
}

//===- wire_throughput.cpp - wall-clock AcmeAir over the real backends ---------===//
//
// Part of AsyncG-C++. MIT License.
//
//===----------------------------------------------------------------------===//
//
// The wall-clock companion to fig6a_throughput: AcmeAir served over real
// loopback TCP by a real kernel backend (--kernel epoll|uring|auto,
// default epoll), driven by the wire load generator, under two
// instrumentation settings
//
//   off      — no analysis attached (the serving floor)
//   record   — full AsyncG behind the off-thread pipeline, plus a v4
//              columnar trace artifact per loop (always-on production cost)
//
// each at 1 loop and at 4 SO_REUSEPORT-balanced loops. Every cell reports
// the median of --reps runs (wall-clock numbers jitter; medians gate).
//
// On hosts where both real backends probe available, the bench then runs
// the epoll-vs-uring comparison legs — {off, v4-recording} x backend at
// one loop — and reports each leg's kernel-syscall cost model
// (syscalls/request: io_uring's batched submission is the whole point).
//
// Gates (exit status):
//   - every run completes all requests with zero errors and zero dropped
//     connections;
//   - record stays within 1.3x of off (single-loop medians);
//   - 4-loop off reaches >= 2x 1-loop off — asserted only when the machine
//     has >= 4 hardware threads. On fewer cores the loops time-slice one
//     core and the scaling is physically impossible; the report then
//     carries the honest non-gating numbers and says so;
//   - comparison legs (both backends available only): uring spends
//     <= 0.5x epoll's syscalls/request and serves >= 0.95x its
//     throughput.
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

CellResult runCell(sim::KernelBackend Backend, const Cell &C,
                   uint64_t Requests, int Port,
                   const std::string &RecordDir) {
  cluster::ClusterConfig Cfg;
  Cfg.Backend = Backend;
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
CellResult median(sim::KernelBackend Backend, const Cell &C,
                  uint64_t Requests, int BasePort, int Reps,
                  const std::string &RecordDir) {
  std::vector<CellResult> Rs;
  for (int I = 0; I < Reps; ++I) {
    CellResult R = runCell(Backend, C, Requests, BasePort + I, RecordDir);
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
  sim::KernelBackend Backend = sim::KernelBackend::Epoll;
  for (int I = 1; I < argc; ++I) {
    if (!std::strcmp(argv[I], "--requests") && I + 1 < argc)
      Requests = static_cast<uint64_t>(std::atoll(argv[++I]));
    else if (!std::strcmp(argv[I], "--reps") && I + 1 < argc)
      Reps = std::atoi(argv[++I]);
    else if (!std::strcmp(argv[I], "--kernel") && I + 1 < argc) {
      if (!std::strcmp(argv[I + 1], "auto")) {
        ++I;
        std::string Why;
        Backend = sim::resolveAutoKernelBackend(&Why);
        if (Backend == sim::KernelBackend::Sim) {
          std::fprintf(stderr, "wire_throughput: --kernel auto found no "
                               "real backend (%s)\n",
                       Why.c_str());
          return 2;
        }
        std::printf("--kernel auto: %s\n", Why.c_str());
      } else if (!sim::parseKernelBackend(argv[++I], Backend) ||
                 Backend == sim::KernelBackend::Sim) {
        std::fprintf(stderr, "wire_throughput: --kernel must be 'epoll', "
                             "'uring', or 'auto' (this is the wall-clock "
                             "bench; sim has no wire)\n");
        return 2;
      }
    }
  }

  benchjson::BenchReport Report("wire_throughput");
  std::string Unavailable;
  if (!sim::kernelBackendAvailable(Backend, &Unavailable)) {
    std::printf("wire_throughput: SKIPPED — kernel backend '%s' is not "
                "available here (%s); no wall-clock numbers\n",
                sim::kernelBackendName(Backend), Unavailable.c_str());
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
  std::printf("WIRE THROUGHPUT: AcmeAir over loopback TCP, %s kernel "
              "backend (wall clock)\n",
              sim::kernelBackendName(Backend));
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
    Results[I] = median(Backend, Cells[I], Requests, Port, Reps, RecordDir);
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
  Report.config("kernel_backend", sim::kernelBackendName(Backend));
  // Marks every metric here as wall-clock for bench_compare's looser
  // jitter tolerance class (medians already absorb the worst of it).
  Report.config("timing", "wall-clock");
  Report.metric("record_slowdown", RecordSlowdown, "x");
  // "speedup"/ratio so the compare tool treats higher as better.
  Report.metric("reuseport_speedup_1to4", Scaling, "ratio");

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

  // The epoll-vs-uring comparison: {off, v4-recording} x backend at one
  // loop. The main grid above already measured the chosen backend's two
  // cells; only the other backend's legs run here. Skipped (loudly, not
  // silently) when the other backend cannot probe.
  const sim::KernelBackend Other = Backend == sim::KernelBackend::Uring
                                       ? sim::KernelBackend::Epoll
                                       : sim::KernelBackend::Uring;
  std::string OtherWhy;
  if (!sim::kernelBackendAvailable(Other, &OtherWhy)) {
    std::printf("\nepoll-vs-uring comparison: SKIPPED — backend '%s' is "
                "not available here (%s); syscall-model gates not "
                "asserted\n",
                sim::kernelBackendName(Other), OtherWhy.c_str());
    Report.config("uring_comparison", "skipped: " + OtherWhy);
  } else {
    CellResult OtherOff =
        median(Other, Cells[0], Requests, Port, Reps, RecordDir);
    Port += Reps;
    CellResult OtherRec =
        median(Other, Cells[1], Requests, Port, Reps, RecordDir);
    Port += Reps;
    AllOk = AllOk && OtherOff.Ok && OtherRec.Ok;

    const CellResult &EpOff =
        Backend == sim::KernelBackend::Epoll ? Results[0] : OtherOff;
    const CellResult &EpRec =
        Backend == sim::KernelBackend::Epoll ? Results[1] : OtherRec;
    const CellResult &UrOff =
        Backend == sim::KernelBackend::Uring ? Results[0] : OtherOff;
    const CellResult &UrRec =
        Backend == sim::KernelBackend::Uring ? Results[1] : OtherRec;

    std::printf("\nepoll-vs-uring (1 loop, medians):\n");
    std::printf("%-15s %10s %9s | %10s %9s\n", "setting", "epoll-rps",
                "sys/req", "uring-rps", "sys/req");
    std::printf("%-15s %10.0f %9.2f | %10.0f %9.2f\n", "off",
                EpOff.Wire.ReqPerSec, EpOff.syscallsPerReq(),
                UrOff.Wire.ReqPerSec, UrOff.syscallsPerReq());
    std::printf("%-15s %10.0f %9.2f | %10.0f %9.2f\n", "record",
                EpRec.Wire.ReqPerSec, EpRec.syscallsPerReq(),
                UrRec.Wire.ReqPerSec, UrRec.syscallsPerReq());

    double SysRatio = EpOff.syscallsPerReq() > 0
                          ? UrOff.syscallsPerReq() / EpOff.syscallsPerReq()
                          : 999;
    double RpsRatio = EpOff.Wire.ReqPerSec > 0
                          ? UrOff.Wire.ReqPerSec / EpOff.Wire.ReqPerSec
                          : 0;
    Report.metric("epoll_syscalls_per_req", EpOff.syscallsPerReq(), "n");
    Report.metric("uring_syscalls_per_req", UrOff.syscallsPerReq(), "n");
    Report.metric("uring_record_syscalls_per_req", UrRec.syscallsPerReq(),
                  "n");
    Report.metric("uring_syscall_ratio", SysRatio, "x");
    // ratio so the compare tool treats higher as better.
    Report.metric("uring_throughput_ratio", RpsRatio, "ratio");

    std::printf("uring syscalls/request: %.2fx of epoll %s (gate: <= "
                "0.5x)\n",
                SysRatio, SysRatio <= 0.5 ? "PASS" : "FAIL");
    if (SysRatio > 0.5)
      Pass = false;
    std::printf("uring throughput: %.2fx of epoll %s (gate: >= 0.95x)\n",
                RpsRatio, RpsRatio >= 0.95 ? "PASS" : "FAIL");
    if (RpsRatio < 0.95)
      Pass = false;
    Pass = Pass && AllOk;
  }

  if (!JsonPath.empty() && Report.write(JsonPath))
    std::printf("wrote %s\n", JsonPath.c_str());
  std::printf("%s\n", Pass ? "ALL GATES PASS" : "GATE FAILURE");
  return Pass ? 0 : 1;
}

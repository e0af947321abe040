//===- fault_soak.cpp - robustness soak under deterministic fault injection ----===//
//
// Part of AsyncG-C++. MIT License.
//
//===----------------------------------------------------------------------===//
//
// The robustness companion to wire_throughput: a long AcmeAir wire run
// over the epoll backend with the default deterministic fault mix
// (DESIGN.md §5i) switched on — injected EINTR, EAGAIN, EMFILE accept
// storms, ENOBUFS, short writes, peer resets, and deadline jitter — plus
// three focused cells the wire leg cannot exercise deterministically:
//
//   clean     — identical workload, no faults: the warning-set reference
//               and the peak-RSS baseline
//   soak      — the faulted run (default 50k requests, default mix)
//   ladder    — synthetic ring pressure driving the pipeline's
//               graceful-degradation ladder up and back down
//   recovery  — a recorded shard trace truncated at the symbol section
//               (what a crash leaves behind) must replay its full prefix
//               byte-identically
//   replay    — the same --fault-seed on the sim backend twice must
//               reproduce the identical per-shard fault schedule
//
// Gates (exit status):
//   - zero crashes: both wire legs run to completion and account for
//     every request (Completed + Abandoned == TotalRequests);
//   - every non-faulted request completes: Abandoned == 0 and errors stay
//     within the injected-fault casualty budget
//     (Errors <= DroppedConns + Timeouts);
//   - the fault mix actually fired (FaultsInjected > 0) and the hardened
//     error paths actually recovered (EINTR retries + ENOBUFS retries +
//     short writes > 0);
//   - warning parity: the faulted run's merged warning set is a subset of
//     the clean run's — degradation may miss warnings, never fabricate
//     them;
//   - flat peak RSS: the soak leg's peak stays within 1.3x of the clean
//     leg's (+32 MiB absolute slack) — fault paths must not leak;
//   - ladder: escalates under pressure, recovers to lossless, and sheds
//     only decorations (structure counts stay exact);
//   - recovery: truncated-trace replay reports Recovered with zero
//     dropped tail bytes and DOT output equal to the pristine replay;
//   - replay: two sim runs with the same seed produce identical
//     per-shard fault digests, decision counts, and completions.
//
// Wall-clock throughput numbers here are informational (the fault mix
// deliberately slows things down); the gates are the product.
//
//===----------------------------------------------------------------------===//

#include "BenchReport.h"

#include "ag/IngestHub.h"
#include "apps/cluster/Harness.h"
#include "instr/TraceCodec.h"
#include "support/TraceFormat.h"
#include "viz/Dot.h"

#include <algorithm>
#include <atomic>
#include <chrono>
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

struct WireLeg {
  cluster::ClusterResult R;
  long RssKiB = 0;
  bool Ok = false;
};

WireLeg runWireLeg(uint32_t Loops, int Port, uint64_t Requests,
                   const sim::FaultSpec &Faults, uint64_t FaultSeed,
                   const std::string &RecordDir) {
  cluster::ClusterConfig Cfg;
  Cfg.Backend = sim::KernelBackend::Epoll;
  Cfg.Loops = Loops;
  Cfg.Port = Port;
  Cfg.TotalRequests = Requests;
  Cfg.TotalClients = 8;
  Cfg.Instrument = true;
  Cfg.Mode = ag::PipelineMode::Async;
  Cfg.Policy = ag::BackpressurePolicy::Degrade;
  Cfg.Faults = Faults;
  Cfg.FaultSeed = FaultSeed;
  Cfg.RecordDir = RecordDir;

  cluster::ClusterHarness H(Cfg);
  WireLeg Out;
  Out.R = H.run();
  Out.RssKiB = benchjson::peakRssKiB();
  // Accounting closure is the no-crash/no-hang gate; the casualty budget
  // (errors bounded by injected teardowns) is checked by the caller.
  Out.Ok = Out.R.Wire.Completed + Out.R.Wire.Abandoned == Requests;
  return Out;
}

/// Drains replayed events and sleeps per decoration when throttled, so
/// the bench can force ring pressure deterministically (same shape as the
/// unit-test sink; the bench re-runs it at soak scale).
class ThrottledSink : public instr::AnalysisBase {
public:
  const char *analysisName() const override { return "fault-soak-sink"; }

  void onFunctionEnter(const instr::FunctionEnterEvent &) override {
    ++Enters;
  }
  void onFunctionExit(const instr::FunctionExitEvent &) override { ++Exits; }
  void onObjectCreate(const instr::ObjectCreateEvent &) override {
    ++Objects;
    if (uint64_t S = StallUs.load(std::memory_order_relaxed))
      std::this_thread::sleep_for(std::chrono::microseconds(S));
  }

  uint64_t Enters = 0;
  uint64_t Exits = 0;
  uint64_t Objects = 0;
  std::atomic<uint64_t> StallUs{0};
};

struct LadderOutcome {
  ag::DegradationStats D;
  uint64_t Events = 0;
  bool StructureExact = false;
  bool DecorationsAccounted = false;
  bool Ok = false;
};

/// Floods a Degrade-policy pipeline through a stalled sink until the
/// ladder escalates, then lifts the pressure and waits for recovery.
LadderOutcome runLadderCell() {
  ThrottledSink Sink;
  Sink.StallUs.store(200);

  ag::PipelineConfig Cfg;
  Cfg.RingCapacity = 1024; // small on purpose: pressure must be reachable
  Cfg.Policy = ag::BackpressurePolicy::Degrade;
  Cfg.Drain = ag::DrainMode::Concurrent;
  Cfg.ProducerChunk = 0;
  Cfg.EscalateSpinNs = 50000;
  Cfg.RecoverQuietTicks = 4;

  LadderOutcome Out;
  auto Data = std::make_shared<jsrt::FunctionData>();
  Data->Id = 1;
  Data->Name = "soak";
  jsrt::Function F(Data);
  jsrt::CallArgs Args;
  jsrt::DispatchInfo Dispatch;
  jsrt::Completion Result;

  uint64_t Total = 0;
  {
    ag::AsyncPipeline P(Sink, Cfg);
    instr::ObjectCreateEvent Ev;
    instr::TickBoundaryEvent Tick;
    // Keep pushing structure + decorations until the ladder has both
    // escalated and shed something, bounded so a broken ladder cannot
    // hang the bench.
    while ((P.degradation().Escalations == 0 ||
            P.degradation().RecordsShed == 0) &&
           Total < 2000000) {
      instr::FunctionEnterEvent Enter{F, Args, Dispatch};
      P.onFunctionEnter(Enter);
      Ev.Obj = ++Total;
      P.onObjectCreate(Ev);
      instr::FunctionExitEvent Exit{F, Result, Dispatch};
      P.onFunctionExit(Exit);
    }
    // Pressure off; quiet tick boundaries walk the ladder back down.
    Sink.StallUs.store(0);
    for (int I = 0; I != 20000 && P.degradation().FinalTier != 0; ++I) {
      P.onTickBoundary(Tick);
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    P.stop();
    Out.D = P.degradation();
  }
  Out.Events = Total;
  Out.StructureExact = Sink.Enters == Total && Sink.Exits == Total;
  Out.DecorationsAccounted = Sink.Objects + Out.D.RecordsShed == Total;
  Out.Ok = Out.D.Escalations >= 1 && Out.D.Recoveries >= 1 &&
           Out.D.FinalTier == 0 && Out.D.RecordsShed > 0 &&
           Out.StructureExact && Out.DecorationsAccounted;
  return Out;
}

std::vector<uint8_t> slurpBytes(const std::string &Path) {
  std::vector<uint8_t> Bytes;
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  if (!F)
    return Bytes;
  std::fseek(F, 0, SEEK_END);
  long N = std::ftell(F);
  std::fseek(F, 0, SEEK_SET);
  Bytes.resize(static_cast<size_t>(N));
  if (N > 0 && std::fread(Bytes.data(), 1, Bytes.size(), F) != Bytes.size())
    Bytes.clear();
  std::fclose(F);
  return Bytes;
}

bool spitBytes(const std::string &Path, const std::vector<uint8_t> &Bytes) {
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  if (!F)
    return false;
  bool Ok = std::fwrite(Bytes.data(), 1, Bytes.size(), F) == Bytes.size();
  std::fclose(F);
  return Ok;
}

struct RecoveryOutcome {
  uint64_t Records = 0;
  uint64_t DroppedTailBytes = 0;
  bool Ok = false;
};

/// Ingests \p Path into a bare builder; false with \p Err set on failure.
bool ingestDot(const std::string &Path, std::string &Dot,
               ag::IngestStreamStats &Stats, std::string &Err) {
  ag::IngestHub Hub;
  Hub.addFile(Path);
  if (!Hub.run(&Err))
    return false;
  Dot = viz::toDot(Hub.graph());
  Stats = Hub.stats().Streams.front();
  return true;
}

/// Truncates \p TracePath the way a crash between the last frame flush and
/// finalize() would (cut at the symbol section, header counts still the
/// zero placeholder) and checks the recovered replay reproduces the
/// pristine replay's DOT byte-for-byte.
RecoveryOutcome runRecoveryCell(const std::string &TracePath) {
  RecoveryOutcome Out;
  std::vector<uint8_t> Full = slurpBytes(TracePath);
  if (Full.size() < sizeof(trace::TraceFileHeader)) {
    std::printf("  [recovery] cannot read %s\n", TracePath.c_str());
    return Out;
  }
  trace::TraceFileHeader H;
  std::memcpy(&H, Full.data(), sizeof(H));
  if (H.Version != 4 || H.SymtabOffset == 0 ||
      H.SymtabOffset >= Full.size()) {
    std::printf("  [recovery] %s is not a finalized v4 trace\n",
                TracePath.c_str());
    return Out;
  }

  std::string Want, Err;
  ag::IngestStreamStats Stats;
  if (!ingestDot(TracePath, Want, Stats, Err)) {
    std::printf("  [recovery] pristine replay failed: %s\n", Err.c_str());
    return Out;
  }

  std::vector<uint8_t> Torn(Full.begin(),
                            Full.begin() +
                                static_cast<long>(H.SymtabOffset));
  for (size_t I = 16; I < 32; ++I)
    Torn[I] = 0; // the un-patched placeholder a real torn file carries
  std::string TornPath = TracePath + ".torn";
  if (!spitBytes(TornPath, Torn))
    return Out;

  std::string Dot;
  if (!ingestDot(TornPath, Dot, Stats, Err)) {
    std::printf("  [recovery] torn replay failed: %s\n", Err.c_str());
  } else {
    bool DotMatch = Dot == Want;
    Out.Ok = Stats.Recovered && Stats.DroppedTailBytes == 0 && DotMatch;
    if (!Out.Ok)
      std::printf("  [recovery] recovered=%d dropped=%llu dot_match=%d\n",
                  Stats.Recovered ? 1 : 0,
                  static_cast<unsigned long long>(Stats.DroppedTailBytes),
                  DotMatch ? 1 : 0);
    Out.Records = Stats.Records;
    Out.DroppedTailBytes = Stats.DroppedTailBytes;
  }
  std::remove(TornPath.c_str());
  return Out;
}

/// One virtual-time cluster run under a jitter-heavy mix (the kinds that
/// fire on the sim kernel surface), for the seed-reproducibility gate.
cluster::ClusterResult runSimLeg(uint64_t Requests, uint64_t FaultSeed) {
  cluster::ClusterConfig Cfg;
  Cfg.Loops = 2;
  Cfg.TotalRequests = Requests;
  Cfg.TotalClients = 8;
  Cfg.Instrument = true;
  // Cross-loop gossip arrival is real thread interleaving even under
  // virtual time; off, each shard's decision stream is a pure function
  // of (spec, seed, workload) — which is the contract under test.
  Cfg.Gossip = false;
  sim::FaultSpec::parse("jitter:0.2,eintr:0.1", Cfg.Faults);
  Cfg.FaultSeed = FaultSeed;
  cluster::ClusterHarness H(Cfg);
  return H.run();
}

} // namespace

int main(int argc, char **argv) {
  std::string JsonPath = benchjson::extractJsonPath(argc, argv);
  uint64_t Requests = 50000;
  uint32_t Loops = 2;
  int Port = 9640;
  uint64_t FaultSeed = 7;
  for (int I = 1; I < argc; ++I) {
    if (!std::strcmp(argv[I], "--requests") && I + 1 < argc)
      Requests = static_cast<uint64_t>(std::atoll(argv[++I]));
    else if (!std::strcmp(argv[I], "--loops") && I + 1 < argc)
      Loops = static_cast<uint32_t>(std::atoi(argv[++I]));
    else if (!std::strcmp(argv[I], "--port") && I + 1 < argc)
      Port = std::atoi(argv[++I]);
    else if (!std::strcmp(argv[I], "--fault-seed") && I + 1 < argc)
      FaultSeed = static_cast<uint64_t>(std::atoll(argv[++I]));
    else {
      std::fprintf(stderr,
                   "usage: %s [--requests N] [--loops N] [--port N] "
                   "[--fault-seed N] [--json FILE]\n",
                   argv[0]);
      return 2;
    }
  }

  benchjson::BenchReport Report("fault_soak");
  std::string Unavailable;
  if (!sim::kernelBackendAvailable(sim::KernelBackend::Epoll,
                                   &Unavailable)) {
    std::printf("fault_soak: SKIPPED — epoll backend not available here "
                "(%s)\n",
                Unavailable.c_str());
    Report.config("skipped", Unavailable);
    if (!JsonPath.empty())
      Report.write(JsonPath);
    return 0;
  }

  std::string RecordDir = "/tmp/asyncg_fault_soak";
#ifdef __linux__
  ::mkdir(RecordDir.c_str(), 0755);
  ::mkdir((RecordDir + "/clean").c_str(), 0755);
  ::mkdir((RecordDir + "/soak").c_str(), 0755);
#endif

  sim::FaultSpec Mix = sim::FaultSpec::defaultMix();
  std::printf("==========================================================="
              "=====================\n");
  std::printf("FAULT SOAK: AcmeAir over loopback TCP under deterministic "
              "fault injection\n");
  std::printf("==========================================================="
              "=====================\n");
  std::printf("workload: %llu requests, %u loop(s), mix '%s', seed %llu\n\n",
              static_cast<unsigned long long>(Requests), Loops,
              Mix.str().c_str(),
              static_cast<unsigned long long>(FaultSeed));
  Report.config("requests", static_cast<double>(Requests));
  Report.config("loops", static_cast<double>(Loops));
  Report.config("fault_spec", Mix.str());
  Report.config("fault_seed", static_cast<double>(FaultSeed));
  Report.config("timing", "wall-clock");

  bool Pass = true;
  auto Gate = [&](const char *Name, bool Ok) {
    std::printf("gate %-38s %s\n", Name, Ok ? "PASS" : "FAIL");
    if (!Ok)
      Pass = false;
  };

  // Clean reference leg: warning-set reference + peak-RSS baseline. Runs
  // first so the process-wide RSS high-water mark belongs to it, not to
  // the faulted leg it gates.
  std::printf("-- clean leg (no faults) --\n");
  WireLeg Clean = runWireLeg(Loops, Port, Requests, sim::FaultSpec(),
                             FaultSeed, RecordDir + "/clean");
  std::printf("  %.0f req/s, %llu completed, %llu errors, %lu KiB peak "
              "RSS, %zu warning(s)\n",
              Clean.R.Wire.ReqPerSec,
              static_cast<unsigned long long>(Clean.R.Wire.Completed),
              static_cast<unsigned long long>(Clean.R.Wire.Errors),
              Clean.RssKiB, Clean.R.Warnings.size());
  Gate("clean: all requests complete",
       Clean.Ok && Clean.R.Wire.Errors == 0 && Clean.R.Wire.Abandoned == 0);

  // The soak itself: default mix, same size.
  std::printf("\n-- fault soak leg (mix '%s') --\n", Mix.str().c_str());
  WireLeg Soak = runWireLeg(Loops, Port + 1, Requests, Mix, FaultSeed,
                            RecordDir + "/soak");
  const acmeair::LoadStats &W = Soak.R.Wire;
  std::printf("  %.0f req/s, %llu completed, %llu errors, %llu dropped, "
              "%llu timeouts, %llu retries, %llu abandoned\n",
              W.ReqPerSec, static_cast<unsigned long long>(W.Completed),
              static_cast<unsigned long long>(W.Errors),
              static_cast<unsigned long long>(W.DroppedConns),
              static_cast<unsigned long long>(W.Timeouts),
              static_cast<unsigned long long>(W.Retries),
              static_cast<unsigned long long>(W.Abandoned));
  std::printf("  faults: %llu injected / %llu decisions\n",
              static_cast<unsigned long long>(Soak.R.FaultsInjected),
              static_cast<unsigned long long>(Soak.R.FaultDecisions));
  const sim::NetRecoveryStats &N = Soak.R.Net;
  std::printf("  recovery: %llu EINTR retries, %llu accept pauses, %llu "
              "ENOBUFS retries, %llu short writes, %llu resets, %llu "
              "drained conns\n",
              static_cast<unsigned long long>(N.EintrRetries),
              static_cast<unsigned long long>(N.AcceptPauses),
              static_cast<unsigned long long>(N.EnobufsRetries),
              static_cast<unsigned long long>(N.ShortWrites),
              static_cast<unsigned long long>(N.ResetsInjected),
              static_cast<unsigned long long>(N.DrainedConns));
  std::printf("  peak RSS %lu KiB (clean leg %lu KiB), %zu warning(s)\n",
              Soak.RssKiB, Clean.RssKiB, Soak.R.Warnings.size());

  Gate("soak: zero crashes, every request accounted", Soak.Ok);
  Gate("soak: no request abandoned", W.Abandoned == 0);
  // Errors (non-200s from a retry landing on the sibling shard where the
  // session token is unknown) are bounded by injected teardowns.
  Gate("soak: errors within fault casualty budget",
       W.Errors <= W.DroppedConns + W.Timeouts);
  Gate("soak: fault mix actually fired", Soak.R.FaultsInjected > 0);
  Gate("soak: hardened paths recovered faults",
       N.EintrRetries + N.EnobufsRetries + N.ShortWrites > 0);

  // Warning parity: sorted resolved strings; degradation may miss
  // warnings, never fabricate them.
  bool WarnSubset =
      std::includes(Clean.R.Warnings.begin(), Clean.R.Warnings.end(),
                    Soak.R.Warnings.begin(), Soak.R.Warnings.end());
  Gate("soak: warning parity (subset of clean)", WarnSubset);

  // Flat peak RSS: ru_maxrss is a process-wide high-water mark and the
  // clean leg set it first, so growth here is growth in the fault paths.
  long RssCap =
      std::max(Clean.RssKiB + Clean.RssKiB * 3 / 10, Clean.RssKiB + 32768L);
  Gate("soak: peak RSS flat (<= 1.3x clean + 32 MiB)",
       Soak.RssKiB <= RssCap);

  // Ladder cell: the soak's 2^21 ring never fills under wire load, so the
  // escalation/recovery contract is driven synthetically at a reachable
  // ring size — same pipeline, same policy, deterministic pressure.
  std::printf("\n-- degradation ladder cell (synthetic ring pressure) --\n");
  LadderOutcome L = runLadderCell();
  std::printf("  %llu events: %llu escalations, %llu recoveries, %llu "
              "decoration events shed, final tier %u, degraded %.1f ms\n",
              static_cast<unsigned long long>(L.Events),
              static_cast<unsigned long long>(L.D.Escalations),
              static_cast<unsigned long long>(L.D.Recoveries),
              static_cast<unsigned long long>(L.D.RecordsShed),
              L.D.FinalTier,
              static_cast<double>(L.D.TimeNs[1] + L.D.TimeNs[2]) / 1e6);
  Gate("ladder: escalates, sheds, recovers to lossless", L.Ok);

  // Crash-tolerant trace cell: tear the soak leg's shard-0 recording the
  // way a crash would and demand a byte-identical prefix replay.
  std::printf("\n-- truncated-trace recovery cell --\n");
  RecoveryOutcome Rec = runRecoveryCell(RecordDir + "/soak/shard0.agtrace");
  std::printf("  recovered %llu records, %llu tail bytes dropped\n",
              static_cast<unsigned long long>(Rec.Records),
              static_cast<unsigned long long>(Rec.DroppedTailBytes));
  Gate("recovery: torn trace replays clean prefix (DOT parity)", Rec.Ok);

  // Reproducibility cell: virtual time, so the whole run — including the
  // fault schedule — is a pure function of (spec, seed).
  std::printf("\n-- fault-schedule reproducibility cell (sim backend) --\n");
  uint64_t SimReqs = std::min<uint64_t>(Requests / 10, 5000);
  cluster::ClusterResult A = runSimLeg(SimReqs, FaultSeed);
  cluster::ClusterResult B = runSimLeg(SimReqs, FaultSeed);
  bool Repro = A.Shards.size() == B.Shards.size() &&
               A.TotalCompleted == B.TotalCompleted &&
               A.MaxVirtualTimeUs == B.MaxVirtualTimeUs;
  if (!Repro)
    std::printf("  run outcome diverged: completed %llu vs %llu, virtual "
                "time %llu vs %llu us\n",
                static_cast<unsigned long long>(A.TotalCompleted),
                static_cast<unsigned long long>(B.TotalCompleted),
                static_cast<unsigned long long>(A.MaxVirtualTimeUs),
                static_cast<unsigned long long>(B.MaxVirtualTimeUs));
  for (size_t I = 0; I < A.Shards.size() && I < B.Shards.size(); ++I) {
    bool Same = A.Shards[I].FaultDigest == B.Shards[I].FaultDigest &&
                A.Shards[I].FaultDecisions == B.Shards[I].FaultDecisions &&
                A.Shards[I].FaultsInjected == B.Shards[I].FaultsInjected;
    Repro = Repro && Same;
    std::printf("  shard %zu: digest %016llx (%llu injected / %llu "
                "decisions)%s\n",
                I,
                static_cast<unsigned long long>(A.Shards[I].FaultDigest),
                static_cast<unsigned long long>(A.Shards[I].FaultsInjected),
                static_cast<unsigned long long>(A.Shards[I].FaultDecisions),
                Same ? ""
                     : " DIVERGED across runs");
  }
  Gate("replay: same seed, identical fault schedule",
       Repro && A.FaultsInjected > 0);

  // Report. Throughputs are informational trend lines; the degr_/net_
  // counters are what bench_compare watches for robustness regressions.
  Report.metric("clean_reqps", Clean.R.Wire.ReqPerSec, "req/s");
  Report.metric("soak_reqps", W.ReqPerSec, "req/s");
  Report.metric("soak_slowdown",
                W.ReqPerSec > 0 ? Clean.R.Wire.ReqPerSec / W.ReqPerSec : 999,
                "x");
  Report.metric("soak_p99", static_cast<double>(W.P99Us), "us");
  Report.metric("soak_timeouts", static_cast<double>(W.Timeouts), "n");
  Report.metric("soak_retries", static_cast<double>(W.Retries), "n");
  Report.metric("soak_abandoned", static_cast<double>(W.Abandoned), "n");
  Report.metric("faults_injected",
                static_cast<double>(Soak.R.FaultsInjected), "n");
  Report.metric("fault_decisions",
                static_cast<double>(Soak.R.FaultDecisions), "n");
  Report.metric("net_eintr_retries", static_cast<double>(N.EintrRetries),
                "n");
  Report.metric("net_accept_pauses", static_cast<double>(N.AcceptPauses),
                "n");
  Report.metric("net_enobufs_retries",
                static_cast<double>(N.EnobufsRetries), "n");
  Report.metric("net_short_writes", static_cast<double>(N.ShortWrites),
                "n");
  Report.metric("net_drained_conns", static_cast<double>(N.DrainedConns),
                "n");
  Report.metric("rss_clean", static_cast<double>(Clean.RssKiB), "KiB");
  Report.metric("rss_soak", static_cast<double>(Soak.RssKiB), "KiB");
  Report.metric("warnings_clean",
                static_cast<double>(Clean.R.Warnings.size()), "n");
  Report.metric("warnings_soak",
                static_cast<double>(Soak.R.Warnings.size()), "n");
  Report.metric("degr_escalations",
                static_cast<double>(L.D.Escalations), "n");
  Report.metric("degr_recoveries", static_cast<double>(L.D.Recoveries),
                "n");
  Report.metric("degr_records_shed",
                static_cast<double>(L.D.RecordsShed), "n");
  Report.metric("degr_watchdog_stalls",
                static_cast<double>(Soak.R.Degradation.WatchdogStalls +
                                    L.D.WatchdogStalls),
                "n");
  // bool metrics: bench_compare flags any flip as a regression.
  Report.metric("degr_recovered_to_lossless",
                L.D.FinalTier == 0 ? 1 : 0, "bool");
  Report.metric("trace_recovery_dot_parity", Rec.Ok ? 1 : 0, "bool");
  Report.metric("fault_schedule_reproducible", Repro ? 1 : 0, "bool");
  Report.metric("recovered_records", static_cast<double>(Rec.Records),
                "n");

  if (!JsonPath.empty() && Report.write(JsonPath))
    std::printf("\nwrote %s\n", JsonPath.c_str());
  std::printf("%s\n", Pass ? "ALL GATES PASS" : "GATE FAILURE");
  return Pass ? 0 : 1;
}

//===- main.cpp - agbench: the end-to-end benchmark program ---------------===//
//
// Part of AsyncG-C++. MIT License.
//
//===----------------------------------------------------------------------===//
//
//   agbench --workload W --seed S --seconds T [--traced] [--out DIR]
//           [--work DIR] [--expected DIR]
//   agbench --smoke [--expected DIR]
//
// Runs one workload for T seconds after its set-up and prints one JSON
// object: the end-to-end metrics (untraced) or the per-layer metrics
// (--traced), the operations attempted and failed, the site-keyed warning
// set and every failed check. The warning set is checked against
// DIR/<workload>.txt. Exit status: 0 correct, 1 a check failed, 2 usage,
// 3 the workload cannot run on this host.
//
// --smoke runs every workload at tiny sizes, traced, with output checks
// only; a workload this host cannot run is reported as skipped.
//
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Tracing.h"

#include "support/SymbolTable.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>

using namespace agbench;

namespace {

struct Workload {
  const char *Name;
  RunResult (*Run)(const Options &);
};

const Workload Workloads[] = {
    {"acmeair_inline", runAcmeAirInline},
    {"promise_fanin", runPromiseFanin},
    {"replay_detect", runReplayDetect},
    {"wire_epoll", runWireEpoll},
};

using Specs = std::vector<std::pair<std::string, std::string>>;

/// Every end-to-end metric, reported by every untraced run.
const Specs &endToEndSpecs() {
  static const Specs S = {
      {"req_per_s", "req/s"},       {"promises_per_s", "promises/s"},
      {"records_per_s", "records/s"}, {"latency_p50_us", "us"},
      {"latency_p99_us", "us"},     {"peak_rss_mib", "MiB"},
      {"setup_s", "s"}};
  return S;
}

/// Every per-layer metric. A traced run reports all of them; the ones a
/// workload has no such layer for read 0.
const Specs &layerSpecs() {
  static const Specs S = [] {
    Specs L = {{"jsrt.self_s", "s"}, {"jsrt.ticks", "count"}};
    for (unsigned K = 0; K != HkLoopEnd; ++K)
      L.push_back({std::string("instr.events.") + HookNames[K], "count"});
    L.push_back({"instr.events_per_op", "count"});
    L.push_back({"ag.builder.self_s", "s"});
    for (unsigned K = 0; K != HkLoopEnd; ++K)
      L.push_back(
          {std::string("ag.builder.ns_per_call.") + HookNames[K], "ns"});
    L.insert(L.end(), {{"ag.builder.ticks_committed", "count"},
                       {"ag.graph.nodes_added", "count"},
                       {"ag.graph.edges_added", "count"},
                       {"ag.graph.live_nodes_end", "count"},
                       {"ag.graph.footprint_mib", "MiB"},
                       {"detect.self_s", "s"}});
    for (unsigned D = 0; D != NumDetectors; ++D)
      L.push_back({std::string("detect.") + DetectorNames[D] + ".self_s", "s"});
    for (unsigned K = 0; K != NumObsKinds; ++K)
      L.push_back({std::string("detect.dispatches.") + ObsNames[K], "count"});
    L.insert(L.end(), {{"detect.warnings", "count"},
                       {"ag.ingest.decode_s", "s"},
                       {"ag.ingest.builder_self_s", "s"},
                       {"ag.ingest.frames", "count"},
                       {"ag.ingest.records", "count"},
                       {"support.trace_bytes_per_record", "bytes"},
                       {"viz.warnings_report_ms", "ms"},
                       {"ag.pipeline.records_per_req", "count"},
                       {"ag.pipeline.ring_max_depth", "count"},
                       {"ag.pipeline.blocked_pushes", "count"},
                       {"ag.pipeline.blocked_ms", "ms"},
                       {"ag.pipeline.bytes_per_record", "bytes"},
                       {"sim.syscalls_per_req", "count"},
                       {"sim.net_recoveries", "count"},
                       {"apps.cluster.post_serve_s", "s"},
                       {"support.symtab_mib", "MiB"},
                       {"trace.overhead_pct", "%"}});
    return L;
  }();
  return S;
}

/// Checks the reported metrics against the declared set: every declared
/// metric present once with its unit, nothing undeclared. A traced run's
/// layers that do not exist in this workload are filled with 0.
void completeMetrics(RunResult &R, bool Traced) {
  if (Traced)
    R.metric("support.symtab_mib",
             mib(static_cast<double>(asyncg::symtab().memoryUsage())), "MiB");
  const Specs &Declared = Traced ? layerSpecs() : endToEndSpecs();
  std::map<std::string, const Metric *> Got;
  for (const Metric &M : R.Metrics)
    if (!Got.emplace(M.Name, &M).second)
      R.problem("metric reported twice: " + M.Name);
  std::vector<Metric> Out;
  for (const auto &[Name, Unit] : Declared) {
    auto It = Got.find(Name);
    if (It == Got.end()) {
      if (!Traced)
        R.problem("end-to-end metric not measured: " + Name);
      Out.push_back({Name, 0, Unit});
      continue;
    }
    if (It->second->Unit != Unit)
      R.problem("metric " + Name + " reported in " + It->second->Unit +
                ", declared in " + Unit);
    if (!std::isfinite(It->second->Value))
      R.problem("metric " + Name + " is not a finite number");
    Out.push_back(*It->second);
    Got.erase(It);
  }
  for (const auto &[Name, M] : Got)
    R.problem("undeclared metric: " + Name);
  R.Metrics = std::move(Out);
}

/// Compares the run's warning set with the committed expected file.
void checkExpected(RunResult &R, const std::string &Dir,
                   const std::string &Workload) {
  std::string Path = Dir + "/" + Workload + ".txt";
  std::ifstream In(Path);
  if (!In) {
    R.problem("cannot read " + Path);
    return;
  }
  std::set<std::string> Expected;
  std::string Line;
  while (std::getline(In, Line))
    if (!Line.empty() && Line[0] != '#')
      Expected.insert(Line);
  for (const std::string &W : Expected)
    if (!R.Warnings.count(W))
      R.problem("expected warning missing: " + W);
  for (const std::string &W : R.Warnings)
    if (!Expected.count(W))
      R.problem("unexpected warning: " + W);
}

std::string quoted(const std::string &S) {
  std::string Q = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Q += '\\';
    if (static_cast<unsigned char>(C) < 0x20)
      Q += ' ';
    else
      Q += C;
  }
  return Q + "\"";
}

void printJson(const Options &O, const RunResult &R) {
  std::printf("{\"workload\": %s, \"seed\": %llu, \"traced\": %s, "
              "\"attempted\": %llu, \"failed\": %llu, \"skipped\": %s, ",
              quoted(O.Workload).c_str(),
              static_cast<unsigned long long>(O.Seed),
              O.Traced ? "true" : "false",
              static_cast<unsigned long long>(R.Attempted),
              static_cast<unsigned long long>(R.Failed),
              quoted(R.Skipped).c_str());
  const char *Sep = "";
  std::printf("\"problems\": [");
  for (const std::string &P : R.Problems) {
    std::printf("%s%s", Sep, quoted(P).c_str());
    Sep = ", ";
  }
  Sep = "";
  std::printf("], \"warnings\": [");
  for (const std::string &W : R.Warnings) {
    std::printf("%s%s", Sep, quoted(W).c_str());
    Sep = ", ";
  }
  Sep = "";
  std::printf("], \"metrics\": [");
  for (const Metric &M : R.Metrics) {
    std::printf("%s{\"name\": %s, \"value\": %.17g, \"unit\": %s}", Sep,
                quoted(M.Name).c_str(), M.Value, quoted(M.Unit).c_str());
    Sep = ", ";
  }
  std::printf("]}\n");
}

const Workload *findWorkload(const std::string &Name) {
  for (const Workload &W : Workloads)
    if (Name == W.Name)
      return &W;
  return nullptr;
}

int smoke(const std::string &ExpectedDir) {
  int Failures = 0;
  for (const Workload &W : Workloads) {
    Options O;
    O.Workload = W.Name;
    O.Seconds = 0;
    O.Traced = true;
    O.Reconcile = false;
    O.Size.InlineRequests = 2000;
    O.Size.FaninDepth = 8;
    O.Size.ReplayRequests = 2000;
    O.Size.WireRequests = 1000;
    O.Size.WireSetupRequests = 200;
    O.Size.SetupReps = 1;
    O.Size.MinUnits = 1;
    Clock::time_point T0 = Clock::now();
    RunResult R = W.Run(O);
    if (!R.Skipped.empty()) {
      std::printf("smoke %-15s SKIP  %s\n", W.Name, R.Skipped.c_str());
      continue;
    }
    checkExpected(R, ExpectedDir, W.Name);
    completeMetrics(R, O.Traced);
    std::printf("smoke %-15s %s  %llu operations, %.2f s\n", W.Name,
                R.Problems.empty() ? "ok  " : "FAIL",
                static_cast<unsigned long long>(R.Attempted),
                secondsSince(T0));
    for (const std::string &P : R.Problems)
      std::printf("    %s\n", P.c_str());
    Failures += !R.Problems.empty();
  }
  return Failures ? 1 : 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: agbench --workload W --seed S --seconds T [--traced] "
               "[--out DIR] [--work DIR] [--expected DIR]\n"
               "       agbench --smoke [--expected DIR]\n"
               "workloads:");
  for (const Workload &W : Workloads)
    std::fprintf(stderr, " %s", W.Name);
  std::fprintf(stderr, "\n");
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  Options O;
  std::string ExpectedDir = AGBENCH_EXPECTED_DIR;
  bool Smoke = false, HaveSeconds = false;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    bool HasValue = I + 1 < argc;
    if (A == "--smoke")
      Smoke = true;
    else if (A == "--traced")
      O.Traced = true;
    else if (A == "--workload" && HasValue)
      O.Workload = argv[++I];
    else if (A == "--seed" && HasValue)
      O.Seed = std::strtoull(argv[++I], nullptr, 10);
    else if (A == "--seconds" && HasValue) {
      O.Seconds = std::strtod(argv[++I], nullptr);
      HaveSeconds = O.Seconds > 0;
    } else if (A == "--out" && HasValue)
      O.OutDir = argv[++I];
    else if (A == "--work" && HasValue)
      O.WorkDir = argv[++I];
    else if (A == "--expected" && HasValue)
      ExpectedDir = argv[++I];
    else
      return usage();
  }
  if (Smoke)
    return smoke(ExpectedDir);

  const Workload *W = findWorkload(O.Workload);
  if (!W || !HaveSeconds)
    return usage();
  RunResult R = W->Run(O);
  if (R.Skipped.empty()) {
    checkExpected(R, ExpectedDir, O.Workload);
    completeMetrics(R, O.Traced);
  }
  printJson(O, R);
  if (!R.Skipped.empty())
    return 3;
  return R.Problems.empty() ? 0 : 1;
}

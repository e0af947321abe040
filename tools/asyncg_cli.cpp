//===- asyncg_cli.cpp - command-line front end ---------------------------------===//
//
// Part of AsyncG-C++. MIT License.
//
//===----------------------------------------------------------------------===//
//
// The equivalent of the artifact's run script: executes one of the bundled
// Table-I case programs under AsyncG and dumps the Async Graph for the
// visualization front ends.
//
//   asyncg_cli --list
//   asyncg_cli --case SO-33330277 [--fixed] [--nopromise] [--async]
//              [--retire] [--retain-window N] [--record FILE]
//              [--trace-version N] [--dot FILE] [--json FILE]
//              [--html FILE] [--quiet]
//   asyncg_cli --replay FILE [--nopromise] [--retire] [--retain-window N]
//              [--dot FILE] [--json FILE] [--html FILE] [--quiet]
//
// With no output flags, prints the tick-by-tick text rendering and the
// warnings to stdout. --async routes construction through the off-thread
// pipeline (ag/AsyncPipeline.h); --record additionally writes a binary
// .agtrace of the run (--trace-version picks the file encoding: 4 =
// columnar delta frames, the default; 2/3 = raw 32-byte rows), and
// --replay rebuilds a graph from such a trace without executing any case
// (through ag::IngestHub, the one trace reader).
// --retire enables tick-epoch retirement (bounded-memory steady state):
// quiesced regions older than the retain window (--retain-window, default
// 8 ticks) are folded into summary counters and reclaimed; warnings are
// unaffected.
//
//===----------------------------------------------------------------------===//

#include "ag/AsyncPipeline.h"
#include "ag/IngestHub.h"
#include "cases/Case.h"
#include "instr/TraceCodec.h"
#include "sim/Kernel.h"
#include "support/Format.h"
#include "viz/Dot.h"
#include "viz/Html.h"
#include "viz/JsonDump.h"
#include "viz/TextReport.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

using namespace asyncg;
using namespace asyncg::cases;

namespace {

int usage(const char *Prog) {
  std::fprintf(stderr,
               "usage: %s --list\n"
               "       %s --case NAME [--kernel sim|epoll|auto]"
               " [--fixed]"
               " [--nopromise] [--async]\n"
               "           [--retire]\n"
               "           [--retain-window N] [--record FILE]"
               " [--trace-version N]\n"
               "           [--dot FILE] [--json FILE] [--html FILE]"
               " [--quiet]\n"
               "       %s --replay FILE [--nopromise] [--retire]"
               " [--retain-window N]\n"
               "           [--dot FILE] [--json FILE] [--html FILE]"
               " [--quiet]\n",
               Prog, Prog, Prog);
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string CaseName, DotFile, JsonFile, HtmlFile, RecordFile, ReplayFile;
  bool Fixed = false, NoPromise = false, Quiet = false, List = false;
  bool Async = false, Retire = false;
  sim::KernelBackend Backend = sim::KernelBackend::Sim;
  bool KernelSet = false;
  unsigned long RetainWindow = 8;
  unsigned long TraceVer = trace::TraceVersion;

  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    auto Next = [&](std::string &Out) {
      if (I + 1 >= Argc)
        return false;
      Out = Argv[++I];
      return true;
    };
    if (Arg == "--list")
      List = true;
    else if (Arg == "--fixed")
      Fixed = true;
    else if (Arg == "--nopromise")
      NoPromise = true;
    else if (Arg == "--quiet")
      Quiet = true;
    else if (Arg == "--async")
      Async = true;
    else if (Arg == "--retire")
      Retire = true;
    else if (Arg == "--retain-window") {
      std::string N;
      if (!Next(N))
        return usage(Argv[0]);
      char *End = nullptr;
      RetainWindow = std::strtoul(N.c_str(), &End, 10);
      if (End == N.c_str() || *End != '\0' || RetainWindow == 0) {
        std::fprintf(stderr, "error: --retain-window expects a positive "
                             "tick count\n");
        return 2;
      }
    } else if (Arg == "--trace-version") {
      std::string N;
      if (!Next(N))
        return usage(Argv[0]);
      char *End = nullptr;
      TraceVer = std::strtoul(N.c_str(), &End, 10);
      if (End == N.c_str() || *End != '\0' || TraceVer < 2 ||
          TraceVer > trace::TraceVersion) {
        std::fprintf(stderr, "error: --trace-version expects 2..%u\n",
                     trace::TraceVersion);
        return 2;
      }
    } else if (Arg == "--kernel") {
      std::string N;
      if (!Next(N))
        return usage(Argv[0]);
      if (N == "auto") {
        std::string Why;
        Backend = sim::resolveAutoKernelBackend(&Why);
        if (!Quiet)
          std::fprintf(stderr, "--kernel auto: %s\n", Why.c_str());
      } else if (!sim::parseKernelBackend(N, Backend)) {
        std::fprintf(stderr,
                     "error: --kernel expects 'auto' or one of the "
                     "backends available here (%s), got '%s'\n",
                     sim::availableKernelBackendNames().c_str(), N.c_str());
        return 2;
      }
      KernelSet = true;
    } else if (Arg == "--record" && Next(RecordFile))
      continue;
    else if (Arg == "--replay" && Next(ReplayFile))
      continue;
    else if (Arg == "--case" && Next(CaseName))
      continue;
    else if (Arg == "--dot" && Next(DotFile))
      continue;
    else if (Arg == "--json" && Next(JsonFile))
      continue;
    else if (Arg == "--html" && Next(HtmlFile))
      continue;
    else
      return usage(Argv[0]);
  }

  if (List) {
    std::printf("%-14s %-34s %s\n", "name", "category", "description");
    for (const CaseDef &Def : allCases())
      std::printf("%-14s %-34s %s\n", Def.Name.c_str(),
                  ag::bugCategoryName(Def.Expected),
                  Def.Description.c_str());
    return 0;
  }
  if (CaseName.empty() == ReplayFile.empty()) // exactly one of the two
    return usage(Argv[0]);
  if (KernelSet) {
    std::string Why;
    if (!sim::kernelBackendAvailable(Backend, &Why)) {
      std::fprintf(stderr,
                   "error: kernel backend '%s' is not available here "
                   "(%s); available: %s\n",
                   sim::kernelBackendName(Backend), Why.c_str(),
                   sim::availableKernelBackendNames().c_str());
      return 2;
    }
  }

  ag::BuilderConfig BCfg;
  BCfg.TrackPromises = !NoPromise;
  BCfg.Retire = Retire;
  BCfg.RetainWindow = static_cast<uint32_t>(RetainWindow);

  // Shared tail: text rendering + file dumps for whichever graph we built.
  auto Emit = [&](const ag::AsyncGraph &G) {
    if (!DotFile.empty() && !viz::writeFile(DotFile, viz::toDot(G))) {
      std::fprintf(stderr, "error: cannot write %s\n", DotFile.c_str());
      return 1;
    }
    if (!JsonFile.empty() && !viz::writeFile(JsonFile, viz::toJson(G))) {
      std::fprintf(stderr, "error: cannot write %s\n", JsonFile.c_str());
      return 1;
    }
    if (!HtmlFile.empty() &&
        !viz::writeFile(HtmlFile, viz::toHtml(G, CaseName.empty()
                                                  ? ReplayFile + " — Async Graph"
                                                  : CaseName + " — Async Graph"))) {
      std::fprintf(stderr, "error: cannot write %s\n", HtmlFile.c_str());
      return 1;
    }
    return 0;
  };

  if (!ReplayFile.empty()) {
    ag::IngestOptions Opts;
    Opts.Builder = BCfg;
    ag::IngestHub Hub(Opts);
    detect::DetectorSuite Detectors;
    Detectors.attachTo(Hub.builder(Hub.addFile(ReplayFile)));
    std::string Err;
    if (!Hub.run(&Err)) {
      std::fprintf(stderr, "error: %s\n", Err.c_str());
      return 1;
    }
    const ag::AsyncGraph &G = Hub.graph();
    const ag::IngestStreamStats &RStats = Hub.stats().Streams.front();
    if (!Quiet) {
      std::printf("=== replay of %s%s ===\n", ReplayFile.c_str(),
                  NoPromise ? " (promise tracking off)" : "");
      std::printf("trace: v%u, %llu records, %llu record bytes\n",
                  RStats.Version,
                  static_cast<unsigned long long>(RStats.Records),
                  static_cast<unsigned long long>(RStats.RecordBytes));
      std::printf("graph: %zu nodes, %zu edges\n\n", G.nodeCount(),
                  G.liveEdgeCount());
      viz::TextOptions TOpts;
      TOpts.MaxTicks = 12;
      std::printf("%s\n%s", viz::toText(G, TOpts).c_str(),
                  viz::warningsReport(G).c_str());
    }
    return Emit(G);
  }

  const CaseDef *Found = nullptr;
  for (const CaseDef &Def : allCases())
    if (Def.Name == CaseName)
      Found = &Def;
  if (!Found) {
    std::fprintf(stderr, "error: unknown case '%s' (try --list)\n",
                 CaseName.c_str());
    return 2;
  }

  // Run under a fresh runtime so we keep the graph for dumping.
  jsrt::RuntimeConfig RC = Found->Config;
  if (KernelSet) {
    RC.Backend = Backend;
    // Case programs exchange raw discrete messages, not HTTP, so the real
    // wire carries them length-prefixed.
    if (Backend != sim::KernelBackend::Sim)
      RC.Wire = sim::WireFormat::Framed;
  }
  jsrt::Runtime RT(RC);
  ag::AsyncGBuilder Builder(BCfg);
  detect::DetectorSuite Detectors;
  Detectors.attachTo(Builder);
  std::unique_ptr<ag::AsyncPipeline> Pipeline;
  if (Async) {
    Pipeline = std::make_unique<ag::AsyncPipeline>(Builder);
    RT.hooks().attach(Pipeline.get());
  } else {
    RT.hooks().attach(&Builder);
  }
  instr::TraceRecorder Recorder;
  if (!RecordFile.empty()) {
    if (!Recorder.open(RecordFile, /*Shard=*/0,
                       static_cast<uint32_t>(TraceVer))) {
      std::fprintf(stderr, "error: cannot write %s\n", RecordFile.c_str());
      return 1;
    }
    RT.hooks().attach(&Recorder);
  }
  Found->Run(RT, Fixed);
  if (Pipeline)
    Pipeline->stop(); // barrier: graph complete before we read it
  if (!RecordFile.empty()) {
    if (!Recorder.finalize()) {
      std::fprintf(stderr, "error: cannot finalize %s\n", RecordFile.c_str());
      return 1;
    }
    if (!Quiet)
      std::printf("trace: v%lu, %llu records, %llu record bytes -> %s\n",
                  TraceVer,
                  static_cast<unsigned long long>(Recorder.recordCount()),
                  static_cast<unsigned long long>(Recorder.recordBytes()),
                  RecordFile.c_str());
  }
  if (Found->PostAnalysis)
    Found->PostAnalysis(RT, Builder.graph());

  const ag::AsyncGraph &G = Builder.graph();
  if (!Quiet) {
    std::printf("=== %s (%s variant%s) ===\n", Found->Name.c_str(),
                Fixed ? "fixed" : "buggy",
                NoPromise ? ", promise tracking off" : "");
    std::printf("%s\n", Found->Description.c_str());
    std::printf("ticks: %llu%s | graph: %zu nodes, %zu edges\n\n",
                static_cast<unsigned long long>(RT.tickCount()),
                RT.tickBudgetExhausted() ? " (budget exhausted: starved)"
                                         : "",
                G.nodeCount(), G.liveEdgeCount());
    viz::TextOptions TOpts;
    TOpts.MaxTicks = 12;
    std::printf("%s\n%s", viz::toText(G, TOpts).c_str(),
                viz::warningsReport(G).c_str());
  }

  return Emit(G);
}
